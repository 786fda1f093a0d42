"""Concept scoring, market sizing, and risk-register mapping."""
import math

import pytest
from hypothesis import given, strategies as st

from hushkit import ValidationError
from hushkit.planning import (CRITICAL, DEFAULT_RISK_THRESHOLD, LOW, MONITOR,
                              URGENT, ConceptMatrix, MarketEstimate,
                              MarketParams, RiskItem, concept_score,
                              load_concept_csv, load_risk_csv,
                              market_size_estimate, risk_score_and_map)

NAN, INF = math.nan, math.inf


def small_matrix(weights=(0.5, 0.3, 0.2), concepts=None):
    criteria = tuple((f"crit{i}", w) for i, w in enumerate(weights))
    if concepts is None:
        concepts = (("A", (3, 2, 1)), ("B", (1, 2, 3)))
    return ConceptMatrix(criteria=criteria, concepts=tuple(concepts))


# ----------------------------------------------------------- concept scoring

def test_weights_must_sum_to_one_and_error_names_weights():
    with pytest.raises(ValidationError, match="weights") as err:
        small_matrix(weights=(0.5, 0.3, 0.18))
    assert "0.98" in str(err.value)


def test_rating_out_of_range_rejected():
    with pytest.raises(ValidationError, match="rating"):
        small_matrix(concepts=(("A", (4, 2, 1)),))


def test_rating_count_must_match_criteria():
    with pytest.raises(ValidationError, match="rating"):
        small_matrix(concepts=(("A", (3, 2)),))


def test_shipped_matrix_goldens(configs_dir):
    matrix = load_concept_csv(configs_dir / "concept_matrix.csv")
    assert len(matrix.criteria) == 16
    scores = {name: (total, rank) for name, total, rank in concept_score(matrix)}
    assert scores["A"][0] == pytest.approx(2.68, abs=1e-9)
    assert scores["B"][0] == pytest.approx(1.98, abs=1e-9)
    assert scores["C"][0] == pytest.approx(2.07, abs=1e-9)
    assert scores["A"][1] == 1
    assert scores["C"][1] == 2
    assert scores["B"][1] == 3


def test_result_preserves_input_order():
    matrix = small_matrix()
    names = [name for name, _, _ in concept_score(matrix)]
    assert names == ["A", "B"]


def test_tie_keeps_input_order():
    matrix = small_matrix(concepts=(("First", (2, 2, 2)),
                                    ("Second", (2, 2, 2))))
    result = concept_score(matrix)
    assert [(n, r) for n, _, r in result] == [("First", 1), ("Second", 2)]


@st.composite
def matrices(draw):
    n_crit = draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(0.05, 1.0, allow_nan=False),
                        min_size=n_crit, max_size=n_crit))
    total = sum(raw)
    weights = [w / total for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])  # force exact unit sum
    n_conc = draw(st.integers(2, 4))
    concepts = tuple(
        (f"C{i}", tuple(draw(st.lists(st.integers(1, 3), min_size=n_crit,
                                      max_size=n_crit))))
        for i in range(n_conc))
    return tuple((f"w{i}", w) for i, w in enumerate(weights)), concepts


@given(matrices())
def test_property_totals_invariant_under_concept_permutation(data):
    criteria, concepts = data
    forward = concept_score(ConceptMatrix(criteria, concepts))
    reversed_ = concept_score(ConceptMatrix(criteria, tuple(reversed(concepts))))
    assert {n: t for n, t, _ in forward} == {n: t for n, t, _ in reversed_}


@given(matrices(), st.data())
def test_property_raising_a_rating_never_lowers_the_total(data, picker):
    criteria, concepts = data
    index = picker.draw(st.integers(0, len(concepts) - 1))
    slot = picker.draw(st.integers(0, len(criteria) - 1))
    name, ratings = concepts[index]
    if ratings[slot] == 3:
        return
    bumped = list(ratings)
    bumped[slot] += 1
    modified = list(concepts)
    modified[index] = (name, tuple(bumped))
    before = dict((n, t) for n, t, _ in
                  concept_score(ConceptMatrix(criteria, concepts)))
    after = dict((n, t) for n, t, _ in
                 concept_score(ConceptMatrix(criteria, tuple(modified))))
    assert after[name] > before[name]


# -------------------------------------------------------------- market sizing

def market_params(**overrides):
    base = dict(world_pop=7.0e9, ref_pop=318.9e6, ref_affected=48.0e4,
                tolerance=0.20, adoption_share=0.55,
                unit_price=300.0, unit_cost=150.0)
    base.update(overrides)
    return MarketParams(**base)


def test_market_goldens():
    estimate = market_size_estimate(market_params())
    assert isinstance(estimate, MarketEstimate)
    assert estimate.affected_population == pytest.approx(2_107_243.65, abs=0.01)
    assert estimate.profit_exact_basis == pytest.approx(173_847_601.13, abs=0.01)


def test_market_rounded_basis():
    # the four reported figures, in report order
    affected, rounded, profit_exact, profit_rounded = tuple(
        market_size_estimate(market_params()))
    assert affected == pytest.approx(2_107_243.65, abs=0.01)
    assert rounded == 2_100_000.0
    assert profit_exact == (300.0 - 150.0) * affected * 0.55
    assert profit_rounded == pytest.approx(173_250_000.0, abs=1e-6)
    assert MarketEstimate._fields == (
        "affected_population", "rounded_basis", "profit_exact_basis",
        "profit_rounded_basis")


@pytest.mark.parametrize("affected, rounded", [
    (0.0, 0.0), (49_999.0, 0.0), (150_000.0, 200_000.0), (250_000.0, 200_000.0),
    (2_107_243.65, 2_100_000.0)])
def test_market_rounded_basis_is_nearest_tenth_of_a_million(affected, rounded):
    # ref_affected scales the population one to one; ties round to even
    estimate = market_size_estimate(market_params(world_pop=1.0, ref_pop=1.0,
                                                  ref_affected=affected, tolerance=1.0))
    assert (estimate.affected_population, estimate.rounded_basis) == (affected, rounded)


def test_market_affected_population_that_overflows_stays_infinite():
    estimate = market_size_estimate(market_params(world_pop=1e300, ref_pop=1e-10))
    assert estimate.affected_population == estimate.rounded_basis == math.inf


def test_market_profit_is_linear_in_margin():
    narrow = market_size_estimate(market_params(unit_price=200.0))
    wide = market_size_estimate(market_params(unit_price=250.0))
    # margin 50 -> 100 doubles the profit on either basis
    assert wide.profit_exact_basis == pytest.approx(2.0 * narrow.profit_exact_basis,
                                                    rel=1e-12)
    assert wide.profit_rounded_basis == pytest.approx(
        2.0 * narrow.profit_rounded_basis, rel=1e-12)


def test_market_affected_is_linear_in_tolerance():
    half = market_size_estimate(market_params(tolerance=0.10)).affected_population
    full = market_size_estimate(market_params(tolerance=0.20)).affected_population
    assert full == pytest.approx(2.0 * half, rel=1e-12)


def test_market_params_validation():
    with pytest.raises(ValidationError, match="ref_pop"):
        market_params(ref_pop=0.0)
    with pytest.raises(ValidationError, match="tolerance"):
        market_params(tolerance=1.5)


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["ref_affected", "unit_price", "unit_cost"])
def test_market_params_reject_non_finite(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        market_params(**{field: value})


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_concept_weights_reject_non_finite(value):
    with pytest.raises(ValidationError, match="weights must be finite"):
        small_matrix(weights=(value, 0.5, 0.5))


# ----------------------------------------------------------------- risk map

def risk(p, i):
    return RiskItem("X1", "example", "Technical", p, i)


@pytest.mark.parametrize("p,i,quadrant", [
    (5, 5, CRITICAL),   # threshold is inclusive on both axes
    (5, 4, URGENT),
    (4, 5, MONITOR),
    (4, 4, LOW),
    (10, 10, CRITICAL),
    (1, 1, LOW),
])
def test_quadrants_at_default_threshold(p, i, quadrant):
    score, q = risk_score_and_map(risk(p, i))
    assert score == p * i
    assert q == quadrant


def test_score_symmetric_but_quadrant_is_not():
    score_a, quad_a = risk_score_and_map(risk(7, 3))
    score_b, quad_b = risk_score_and_map(risk(3, 7))
    assert score_a == score_b == 21
    assert (quad_a, quad_b) == (URGENT, MONITOR)


def test_custom_threshold():
    assert risk_score_and_map(risk(7, 3), threshold=7)[1] == URGENT
    assert risk_score_and_map(risk(7, 7), threshold=7)[1] == CRITICAL
    assert DEFAULT_RISK_THRESHOLD == 5


def test_risk_item_bounds():
    with pytest.raises(ValidationError, match="probability"):
        risk(0, 5)
    with pytest.raises(ValidationError, match="impact"):
        risk(5, 11)


@pytest.mark.parametrize("threshold", [0, -3, 11, 2.5, float("nan"), float("inf")])
def test_threshold_off_the_risk_scale_rejected(threshold):
    with pytest.raises(ValidationError, match=r"threshold must be an integer in \[1, 10\]"):
        risk_score_and_map(risk(5, 5), threshold=threshold)


# ------------------------------------------------------------------- loaders

def test_load_concept_csv_accepts_percent_and_decimal(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("Criterion,Weight,Alpha,Beta\n"
                    "Fit,25%,3,1\n"
                    "Cost,0.75,1,3\n")
    matrix = load_concept_csv(path)
    assert dict(matrix.criteria) == {"Fit": 0.25, "Cost": 0.75}
    scores = {n: t for n, t, _ in concept_score(matrix)}
    assert scores["Alpha"] == pytest.approx(0.25 * 3 + 0.75 * 1, abs=1e-12)


def test_load_risk_register(configs_dir):
    items = load_risk_csv(configs_dir / "risk_register.csv")
    assert len(items) == 54
    assert len({item.code for item in items}) == 54
    quadrants = [risk_score_and_map(item)[1] for item in items]
    assert {LOW, MONITOR, URGENT, CRITICAL} <= set(quadrants)


def test_load_risk_rejects_duplicate_codes(tmp_path):
    path = tmp_path / "risks.csv"
    path.write_text("Code,Description,Category,Probability,Impact\n"
                    "D1,first,Technical,5,5\n"
                    "D1,second,Technical,3,3\n")
    with pytest.raises(ValidationError, match="D1"):
        load_risk_csv(path)


def test_load_risk_names_a_bad_cell_before_a_duplicate_code(tmp_path):
    path = tmp_path / "risks.csv"
    path.write_text("Code,Description,Category,Probability,Impact\n"
                    "D1,first,Technical,5,5\n"
                    "D1,second,Technical,3,3\n"
                    "D2,third,Technical,3,1_0\n")
    with pytest.raises(ValidationError,
                       match="column 'Impact' has non-integer value '1_0'"):
        load_risk_csv(path)


def test_load_risk_rejects_wrong_header(tmp_path):
    path = tmp_path / "risks.csv"
    path.write_text("code,descr\nD1,x\n")
    with pytest.raises(ValidationError, match="header"):
        load_risk_csv(path)
