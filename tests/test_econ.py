"""Cash-flow engine: NPV, IRR, break-even, adjustments, sensitivity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hushkit import ValidationError, econ
from hushkit.econ import (COST, MAX_HORIZON, PRICE, UNITS, Adjustment,
                          ExpenseLine, ModelSpec, SalesBlock, apply_adjustments,
                          break_even, build_cash_flows, discounted_flows,
                          evaluate, irr, irr_interpolate, npv, sensitivity,
                          sensitivity_row)


def base_model():
    return ModelSpec(
        horizon=24,
        discount_rate=0.025,
        expenses=(
            ExpenseLine("Development", 1, 3, -50_000.0),
            ExpenseLine("Testing", 1, 4, -20_000.0),
            ExpenseLine("Tooling and Ramp-Up Costs", 4, 5, -15_000.0),
            ExpenseLine("Market Introduction", 4, 5, -20_000.0),
            ExpenseLine("Ongoing Marketing Costs", 5, 12, -10_000.0),
        ),
        sales=SalesBlock(first=5, last=24, units=1500.0,
                         unit_price=300.0, unit_cost=-92.5),
    )


def annuity(n, r):
    return (1.0 - (1.0 + r) ** -n) / r


# ---------------------------------------------------------------- cash flows

def test_base_cash_flows_by_hand():
    flows = build_cash_flows(base_model())
    assert isinstance(flows, tuple) and len(flows) == 24
    assert all(type(f) is float for f in flows)
    assert flows[0] == flows[1] == flows[2] == -70_000.0
    assert flows[3] == -55_000.0
    assert flows[4] == 266_250.0            # 311,250 sales - 45,000 expenses
    assert flows[5:12] == (301_250.0,) * 7
    assert flows[12:] == (311_250.0,) * 12


# ----------------------------------------------------------------------- npv

def test_npv_single_flow_analytic():
    assert npv([110.0], 0.10) == pytest.approx(100.0, abs=1e-9)


def test_npv_zero_rate_is_plain_sum():
    assert npv([100.0, 100.0, -50.0], 0.0) == pytest.approx(150.0, abs=0)


def test_npv_empty_is_zero():
    assert npv([], 0.05) == 0.0


def test_npv_rejects_rate_at_minus_one():
    with pytest.raises(ValidationError, match="-1"):
        npv([100.0], -1.0)


def _npv_numpy(flows, r):
    """The former array formula, kept as the oracle."""
    f = np.asarray(flows, dtype=np.float64)
    t = np.arange(1, f.shape[0] + 1, dtype=np.float64)
    return float(np.sum(f * (1.0 + r) ** -t))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9), max_size=300),
       st.floats(-0.5, 10.0, exclude_min=True))
def test_npv_horner_agrees_with_the_array_formula(flows, r):
    # relative to the sum of |discounted terms|, which bounds the rounding
    # error of any summation order; the floor covers subnormal terms
    f = np.asarray(flows, dtype=np.float64)
    scale = float(np.sum(np.abs(f) * (1.0 + r) ** -np.arange(1.0, len(f) + 1)))
    assert abs(npv(flows, r) - _npv_numpy(flows, r)) <= 1e-12 * scale + 1e-300


# ----------------------------------------------------------------------- irr

def test_irr_two_flow_analytic():
    assert irr([-100.0, 110.0]) == pytest.approx(0.10, abs=1e-9)


@pytest.mark.parametrize("flows", [[-1.0, -2.0], [1.0, 2.0], []])
def test_irr_none_when_no_sign_change(flows):
    assert irr(flows) is None


def test_irr_grid_is_linspace():
    grid = list(econ._irr_grid(0.0, 10.0))
    expected = np.linspace(0, 10, 201).tolist()
    assert len(grid) == len(expected) == 201
    assert all(a == b for a, b in zip(grid, expected))


def test_irr_scan_stops_at_the_first_bracket(monkeypatch):
    # NPV(r) * (1+r)^3 = -100 (1+r - 1.12)(1+r - 1.3): negative at r = 0 and
    # r = 10, so the scan runs; the first sign change is at r = 0.12
    flows = [-100.0, 242.0, -145.6]
    grid = set(np.linspace(0, 10, 201).tolist())
    rates = []

    def counting_npv(values, r):
        rates.append(r)
        return npv(values, r)

    monkeypatch.setattr(econ, "npv", counting_npv)
    assert irr(flows) == pytest.approx(0.12, abs=1e-9)
    assert sum(r in grid for r in rates) < 20


def test_irr_interpolate_midpoint():
    assert irr_interpolate(0.0, 1.0, 100.0, -100.0) == pytest.approx(0.5, abs=0)


def test_irr_interpolate_validates_inputs():
    with pytest.raises(ValidationError, match="ra"):
        irr_interpolate(1.0, 0.0, 100.0, -100.0)
    with pytest.raises(ValidationError, match="npva"):
        irr_interpolate(0.0, 1.0, 100.0, 100.0)


# ----------------------------------------------------------------- break-even

def test_break_even_undiscounted():
    assert break_even([-100.0, 104.0]) == 2


def test_break_even_discounting_can_defeat_recovery():
    assert break_even([-100.0, 104.0], r=0.05, discounted=True) is None


def test_break_even_exact_zero_counts():
    assert break_even([-100.0, 100.0]) == 2


def test_break_even_never_recovered_is_none():
    assert break_even([-100.0]) is None


def test_discounted_flows_are_end_of_period():
    assert discounted_flows((110.0, 121.0, 0.0), 0.1) == pytest.approx((100.0, 100.0, 0.0))
    assert discounted_flows((), 0.1) == ()


def test_discounted_flows_overflow_to_signed_infinity():
    # 0.1 ** -400 overflows a double: the term is inf with the flow's sign, 0 for 0
    flows = (5.0, -3.0) + (0.0,) * 397 + (2.0, -2.0)
    terms = discounted_flows(flows, -0.9)
    assert terms[:2] == pytest.approx((50.0, -300.0))
    assert terms[2:-2] == (0.0,) * 397
    assert terms[-2:] == (math.inf, -math.inf)


def test_discounted_break_even_survives_an_overflowing_factor():
    # a loss never recovered, over a horizon whose late factors overflow
    assert break_even((-1.0,) + (0.0,) * 399, r=-0.9, discounted=True) is None
    assert break_even((-1.0, 0.01) + (0.0,) * 398 + (1.0,), r=-0.9,
                      discounted=True) == 401


def test_break_even_rejects_bad_rate():
    with pytest.raises(ValidationError, match="-1"):
        break_even([1.0], r=-1.0)


# ------------------------------------------------------------------ evaluate

def test_evaluate_base_model_goldens():
    result = evaluate(base_model())
    assert result.npv == pytest.approx(4_050_145.63, abs=0.01)
    assert result.irr == pytest.approx(0.513559, abs=5e-6)
    assert result.break_even_period == 5
    assert result.discount_rate == 0.025
    assert len(result.cash_flows) == 24


def test_evaluate_discounted_breakeven_of_base():
    result = evaluate(base_model(), discounted_breakeven=True)
    assert result.break_even_period == 6


def test_evaluate_without_adjustments_reports_zero_deltas():
    result = evaluate(base_model())
    assert len(result.line_deltas) == 8   # five expense lines + three sales
    assert all(d.delta == 0.0 and d.pct == 0.0 for d in result.line_deltas)


def test_evaluate_with_adjustment_reports_delta():
    result = evaluate(base_model(), [Adjustment("Development", -0.30)])
    dev = next(d for d in result.line_deltas if d.name == "Development")
    assert dev.base == -50_000.0
    assert dev.adjusted == pytest.approx(-35_000.0, abs=1e-9)
    assert dev.pct == pytest.approx(-0.30, abs=1e-12)
    assert dev.delta == pytest.approx(15_000.0, abs=1e-9)


# --------------------------------------------------------------- adjustments

def test_unknown_adjustment_target_is_named():
    with pytest.raises(ValidationError, match="No Such Line"):
        apply_adjustments(base_model(), [Adjustment("No Such Line", 0.1)])


def test_sales_targets_reject_period_overrides():
    with pytest.raises(ValidationError, match="UNITS"):
        apply_adjustments(
            base_model(),
            [Adjustment(UNITS, 0.1, first_override=1, last_override=2)])


def test_adjustment_overrides_must_come_together():
    with pytest.raises(ValidationError, match="together"):
        Adjustment("Development", 0.1, first_override=1)


def test_adjustment_overrides_must_be_ordered():
    with pytest.raises(ValidationError, match="first"):
        Adjustment("Development", 0.1, first_override=3, last_override=2)


def test_adjustment_pct_must_be_finite():
    with pytest.raises(ValidationError, match="finite"):
        Adjustment("Development", float("nan"))


def test_apply_adjustments_moves_expense_window():
    adjusted = apply_adjustments(
        base_model(),
        [Adjustment("Market Introduction", 0.0,
                    first_override=1, last_override=4)])
    line = next(l for l in adjusted.expenses if l.name == "Market Introduction")
    assert (line.first, line.last) == (1, 4)
    assert line.rate == -20_000.0


def test_apply_adjustments_scales_sales_fields():
    adjusted = apply_adjustments(base_model(), [
        Adjustment(UNITS, 0.70),
        Adjustment(PRICE, 0.20),
        Adjustment(COST, -0.20),
    ])
    assert adjusted.sales.units == pytest.approx(2550.0, abs=1e-9)
    assert adjusted.sales.unit_price == pytest.approx(360.0, abs=1e-9)
    assert adjusted.sales.unit_cost == pytest.approx(-74.0, abs=1e-9)


# --------------------------------------------------------------- sensitivity

def test_sensitivity_development_minus_thirty():
    delta, frac = sensitivity_row(base_model(),
                                  Adjustment("Development", -0.30))
    assert delta == pytest.approx(42_840.35, abs=0.01)
    assert frac is not None and frac > 0


def test_sensitivity_matches_annuity_identity():
    # for a constant line over [first, last], ΔNPV = rate*pct*(A(last)-A(first-1))
    spec = base_model()
    r = spec.discount_rate
    for line in spec.expenses:
        for pct in (-0.30, 0.10, 0.40):
            delta, _ = sensitivity_row(spec, Adjustment(line.name, pct))
            expected = line.rate * pct * (annuity(line.last, r)
                                          - annuity(line.first - 1, r))
            assert delta == pytest.approx(expected, rel=1e-9), line.name


def test_sensitivity_fraction_is_none_for_zero_base():
    spec = ModelSpec(horizon=2, discount_rate=0.0,
                     expenses=(ExpenseLine("Op", 1, 1, -100.0),),
                     sales=SalesBlock(1, 2, 1.0, 50.0, 0.0))
    delta, frac = sensitivity_row(spec, Adjustment("Op", 0.5))
    assert delta == pytest.approx(-50.0, abs=1e-9)
    assert frac is None


def test_sensitivity_window_follows_target_and_overrides():
    spec = base_model()
    moved = Adjustment("Testing", 0.1, first_override=2, last_override=6)
    _, rows = sensitivity(spec, [Adjustment(UNITS, 0.1),
                                 Adjustment("Testing", 0.1), moved])
    assert [row[:4] for row in rows] == [(UNITS, 0.1, 5, 24), ("Testing", 0.1, 1, 4),
                                         ("Testing", 0.1, 2, 6)]
    adjusted = apply_adjustments(spec, [moved])
    line = next(e for e in adjusted.expenses if e.name == "Testing")
    assert (line.first, line.last) == (2, 6)


# --------------------------------------------------------------- validations

def test_model_rejects_expense_beyond_horizon():
    with pytest.raises(ValidationError, match="horizon"):
        ModelSpec(horizon=2, discount_rate=0.0,
                  expenses=(ExpenseLine("Op", 1, 3, -1.0),),
                  sales=SalesBlock(1, 2, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 10**20])
def test_model_rejects_horizon_past_the_bound(horizon):
    with pytest.raises(ValidationError, match=f"horizon must be <= {MAX_HORIZON}"):
        ModelSpec(horizon=horizon, discount_rate=0.0, expenses=(),
                  sales=SalesBlock(1, 2, 0.0, 0.0, 0.0))


def test_sensitivity_scores_every_row_against_one_base_npv(monkeypatch):
    spec = base_model()
    adjustments = [Adjustment("Development", -0.30), Adjustment(PRICE, 0.1),
                   Adjustment("Testing", 0.2, first_override=3, last_override=9)]
    base, rows = sensitivity(spec, adjustments)
    assert base == npv(build_cash_flows(spec), spec.discount_rate)
    for adj, row in zip(adjustments, rows, strict=True):
        adjusted = apply_adjustments(spec, [adj])
        delta = npv(build_cash_flows(adjusted), spec.discount_rate) - base
        assert row[4:] == (delta, delta / base) == sensitivity_row(spec, adj)
    # the base flows are built once per table, plus once per row
    calls = []
    monkeypatch.setattr(econ, "build_cash_flows",
                        lambda s: calls.append(s) or build_cash_flows(s))
    sensitivity(spec, adjustments)
    assert len(calls) == 1 + len(adjustments)


@pytest.mark.parametrize("name", [UNITS, PRICE, COST])
def test_expense_line_names_of_sales_targets_are_reserved(name):
    # a line named like a sales target would make adjustments ambiguous
    with pytest.raises(ValidationError,
                       match=f"expense line name '{name}' is reserved for the sales block"):
        ExpenseLine(name, 1, 2, -1.0)


def test_model_rejects_duplicate_line_names():
    with pytest.raises(ValidationError, match="unique"):
        ModelSpec(horizon=4, discount_rate=0.0,
                  expenses=(ExpenseLine("Op", 1, 2, -1.0),
                            ExpenseLine("Op", 3, 4, -2.0)),
                  sales=SalesBlock(1, 4, 0.0, 0.0, 0.0))


def test_sales_block_requires_nonpositive_unit_cost():
    with pytest.raises(ValidationError, match="unit_cost"):
        SalesBlock(1, 4, 10.0, 100.0, 92.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["units", "unit_price", "unit_cost"])
def test_sales_block_rejects_non_finite(field, value):
    numbers = {"units": 10.0, "unit_price": 100.0, "unit_cost": -50.0, field: value}
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        SalesBlock(1, 4, **numbers)


def test_expense_line_requires_ordered_window():
    with pytest.raises(ValidationError, match="first"):
        ExpenseLine("Op", 3, 2, -1.0)
