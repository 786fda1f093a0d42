"""Manufacturing-cost roll-up, assembly timing, DFA index, discrepancies."""
import math
import re
import sys
from decimal import ROUND_HALF_UP, Context, Decimal

import pytest
from hypothesis import given, settings, strategies as st

from hushkit import ValidationError
from hushkit._tables import round_half_away
from hushkit.cli import _cash
from hushkit.costing import (ASSEMBLY_COLUMNS, BOM_COLUMNS, CENT_TOL, AssemblyOp,
                             BomLine, OverheadRates, assembly_cost, bom_rollup,
                             check_discrepancies, cost_reduction_report, dfa_index,
                             load_assembly_csv, load_bom_csv)

RATES = OverheadRates(materials_rate=0.10, labor_rate=0.80)


# ------------------------------------------------------------------ rounding

@pytest.mark.parametrize("value,expected", [
    (0.125, 0.13),
    (-0.125, -0.13),
    (2.675, 2.68),     # binary float is 2.67499...; half-away works on repr
    (1.0, 1.0),
    (0.004, 0.0),
])
def test_round_half_away(value, expected):
    assert round_half_away(value) == expected


@pytest.mark.parametrize("value", [-0.0, -0.004, -0.0049, -1e-300])
def test_round_half_away_gives_an_unsigned_zero(value):
    assert math.copysign(1.0, round_half_away(value)) == 1.0
    assert round_half_away(value) == 0.0


@pytest.mark.parametrize("value", [1e26, -1e30, 1e300, 1.7976931348623157e308])
def test_round_half_away_holds_any_finite_double(value):
    # the default 28-digit decimal context cannot quantize these to cents
    assert round_half_away(value) == value


def _decimal_cents(value: float) -> float:
    """The rule written out: the repr rounded half up to cents, then +0.0."""
    return float(Decimal(repr(value)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP, context=Context(prec=400))) + 0.0


def _steps(x: float, n: int) -> float:
    """``x`` moved ``n`` doubles up (or ``-n`` down)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


_SIGN = st.sampled_from((1.0, -1.0))
_HALF_CENTS = st.builds(lambda k, s, n: _steps(s * (k + 0.5) / 100, n),
                        st.integers(0, 2 ** 46), _SIGN, st.integers(-3, 3))
_HALF_CENT_TEXT = st.builds(lambda s, k, d: float(f"{s}{k}.{d:02d}5"),
                            st.sampled_from("+-"), st.integers(0, 10 ** 14),
                            st.integers(0, 99))
_FAST_PATH_EDGE = st.builds(lambda s, n: _steps(s * 2.0 ** 51 / 100, n),
                            _SIGN, st.integers(-300, 300))
_EXTREMES = st.sampled_from((
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
    math.nextafter(sys.float_info.min, 0.0), sys.float_info.max,
    -sys.float_info.max))


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _HALF_CENTS,
                 _HALF_CENT_TEXT, _FAST_PATH_EDGE, _EXTREMES,
                 st.floats(-1e-300, 1e-300, allow_subnormal=True)))
def test_round_half_away_is_the_decimal_rule_bit_for_bit(value):
    # the float fast path must give the Decimal expression's double, sign
    # of zero included, on ties, near-ties, its edge and the extremes
    assert round_half_away(value).hex() == _decimal_cents(value).hex()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_round_half_away_rejects_non_finite(value):
    with pytest.raises(ValidationError, match="non-finite") as err:
        round_half_away(value)
    for fmt, sign in (("table", ""), ("csv", "+")):  # and so does a money cell
        with pytest.raises(ValidationError) as cell_err:
            _cash(value, fmt, sign)
        assert str(cell_err.value) == str(err.value)


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _HALF_CENTS,
                 _HALF_CENT_TEXT, _FAST_PATH_EDGE, _EXTREMES,
                 st.floats(-1e-300, 1e-300, allow_subnormal=True),
                 st.floats(-0.006, 0.006), st.integers(-10 ** 20, 10 ** 20)),
       st.sampled_from(("table", "csv")), st.sampled_from(("", "+")))
def test_a_money_cell_prints_the_rounded_figure(value, fmt, sign):
    # a cell printed from the double itself must read as the rounded figure
    # would: ties, near-ties, huge figures and zeros of either sign included
    spec = sign + ("," if fmt == "table" else "") + ".2f"
    assert _cash(value, fmt, sign) == format(round_half_away(value), spec)


# ------------------------------------------------------------------- roll-up

def test_initial_bom_rollup_goldens(configs_dir):
    lines = load_bom_csv(configs_dir / "bom_initial.csv")
    assert len(lines) == 32
    summary = bom_rollup(lines, shipment=0.20, rates=RATES, warranty=0.32)
    assert summary.direct_materials == pytest.approx(94.21, abs=1e-9)
    assert summary.direct_processing == pytest.approx(7.60, abs=1e-9)
    assert summary.direct_labor == pytest.approx(5.15, abs=1e-9)
    assert round_half_away(summary.direct_total) == 107.16
    assert summary.overhead == pytest.approx(13.541, abs=1e-9)
    assert round_half_away(summary.total_manufacturing) == 121.02


def test_revised_bom_rollup_with_override(configs_dir):
    lines = load_bom_csv(configs_dir / "bom_revised_totals.csv")
    summary = bom_rollup(lines, shipment=0.20, rates=RATES, warranty=0.32,
                         overhead_override=13.54)
    assert round_half_away(summary.direct_total) == 78.91
    assert round_half_away(summary.total_manufacturing) == 92.77


def test_override_replaces_computed_overhead():
    lines = [BomLine("Widget", 1, 10.0, 1.0, 2.0)]
    computed = bom_rollup(lines, 0.0, RATES, 0.0)
    assert computed.overhead == pytest.approx(0.10 * 10.0 + 0.80 * 2.0, abs=0)
    fixed = bom_rollup(lines, 0.0, RATES, 0.0, overhead_override=5.0)
    assert fixed.overhead == 5.0
    assert fixed.total_manufacturing == pytest.approx(18.0, abs=1e-12)


def test_bom_rollup_rejects_negative_shipment():
    with pytest.raises(ValidationError, match="shipment"):
        bom_rollup([], -0.1, RATES, 0.0)


# ------------------------------------------------------------------ assembly

def test_assembly_ops_total_time_and_cost(configs_dir):
    ops = load_assembly_csv(configs_dir / "assembly_ops.csv")
    assert len(ops) == 7
    total_s, cost = assembly_cost(ops, hourly_rate=10.0)
    assert total_s == pytest.approx(1840.0, abs=0)
    assert cost == pytest.approx(1840.0 / 3600.0 * 10.0, abs=1e-12)
    assert round_half_away(cost) == 5.11


def test_assembly_op_times_are_row_totals():
    # the time columns already aggregate the whole part group, so qty is
    # informational and must not scale them again
    op = AssemblyOp("Screw", 4, 5.0, 10.0)
    assert op.total_s == pytest.approx(15.0, abs=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["handling_s", "insertion_s"])
def test_assembly_op_rejects_non_finite_times(field, value):
    times = {"handling_s": 5.0, "insertion_s": 10.0, field: value}
    with pytest.raises(ValidationError, match="times must be finite"):
        AssemblyOp("Screw", 4, **times)


# ----------------------------------------------------------------------- dfa

def test_dfa_index_values():
    assert dfa_index(56, 1840.0) == pytest.approx(56 * 3.0 / 1840.0, abs=1e-12)
    assert dfa_index(58, 1840.0) == pytest.approx(0.0945652173913, abs=1e-9)


def test_dfa_index_validates_inputs():
    with pytest.raises(ValidationError, match="min_parts"):
        dfa_index(0, 100.0)
    with pytest.raises(ValidationError, match="assembly"):
        dfa_index(10, 0.0)


# ----------------------------------------------------------------- reduction

def test_cost_reduction_report():
    savings, fraction = cost_reduction_report(121.02, 92.50)
    assert savings == pytest.approx(28.52, abs=1e-9)
    assert fraction == pytest.approx(28.52 / 121.02, abs=1e-12)


# -------------------------------------------------------------- discrepancies

def test_check_discrepancies_flags_beyond_half_cent():
    flagged = check_discrepancies([("assembly_cost", 5.11, 5.15)])
    assert len(flagged) == 1
    assert flagged[0].label == "assembly_cost"
    assert flagged[0].delta == pytest.approx(-0.04, abs=1e-9)


def test_check_discrepancies_passes_within_tolerance():
    assert check_discrepancies([("total", 10.004, 10.0)]) == []
    assert CENT_TOL == 0.005


# ------------------------------------------------------------------- loaders

def test_load_bom_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bom.csv"
    bad.write_text("Name,Qty\nWidget,1\n")
    with pytest.raises(ValidationError, match=str(bad)):
        load_bom_csv(bad)


def test_load_bom_rejects_inconsistent_row_total(tmp_path):
    bad = tmp_path / "bom.csv"
    bad.write_text(
        "Component,Qty required,Purchased Costs,Processing,"
        "Assembly (labor),Total Unit Variable,Suppliers\n"
        "Widget,1,1.00,0.50,0.25,9.99,Acme\n")
    with pytest.raises(ValidationError, match="Widget"):
        load_bom_csv(bad)


def test_money_and_time_cells_take_a_leading_dollar_and_thousands_commas(tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_text(",".join(BOM_COLUMNS) + "\n"
                   'Widget,2,"$1,234.50","1,234",$0.5,"$2,469.00",Acme\n')
    assert load_bom_csv(bom) == [BomLine("Widget", 2, 1234.5, 1234.0, 0.5, "Acme")]
    ops = tmp_path / "ops.csv"
    ops.write_text(",".join(ASSEMBLY_COLUMNS) + '\nCasing,1,"1,234",$5\n')
    assert load_assembly_csv(ops) == [AssemblyOp("Casing", 1, 1234.0, 5.0)]


@pytest.mark.parametrize("text", ["3,5", "1234,567", "1,23", "1,234,56", ",5", "5,",
                                  "3$5", "5$", "$$5", "$1_000", "1_0"])
def test_a_money_cell_takes_commas_only_between_groups_of_three_digits(text, tmp_path):
    ops = tmp_path / "ops.csv"
    ops.write_text(",".join(ASSEMBLY_COLUMNS) + f'\nCasing,1,"{text}",5\n')
    with pytest.raises(ValidationError, match=re.escape(
            f"column 'Handling Time (s)' has non-numeric value {text!r}")):
        load_assembly_csv(ops)


def test_the_first_bad_cell_is_named_before_any_row_is_checked(tmp_path):
    # a bad cell comes before an earlier row's audit, and in reading order
    # before a bad cell further left in a later row
    bom = tmp_path / "bom.csv"
    bom.write_text(",".join(BOM_COLUMNS) + "\n"
                   "Widget,1,1,1,1,9,Acme\n"
                   "Gadget,1,1,1,1,x,Acme\n"
                   "Gizmo,y,1,1,1,3,Acme\n")
    with pytest.raises(ValidationError, match=re.escape(
            "column 'Total Unit Variable' has non-numeric value 'x'")):
        load_bom_csv(bom)


def test_load_revised_detail_bom(configs_dir):
    lines = load_bom_csv(configs_dir / "bom_revised.csv")
    assert len(lines) == 31
    summary = bom_rollup(lines, 0.20, RATES, 0.32, overhead_override=13.54)
    assert summary.direct_materials == pytest.approx(66.19, abs=1e-9)
    assert round_half_away(summary.total_manufacturing) == 92.50


def test_bom_line_validation():
    with pytest.raises(ValidationError, match="qty"):
        BomLine("Widget", 0, 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError, match="finite"):
        BomLine("Widget", 1, float("nan"), 0.0, 0.0)
