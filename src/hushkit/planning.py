"""Concept scoring, market sizing, and probability-impact risk rating."""
from __future__ import annotations

import math
from typing import List, Tuple

from ._records import Record, ValidationError
from ._tables import names_file, read_rows

WEIGHT_SUM_TOL = 1e-9
RATING_MIN, RATING_MAX = 1, 3

#: Risk-map quadrants, from (probability >= threshold, impact >= threshold).
LOW, MONITOR, URGENT, CRITICAL = "LOW", "MONITOR", "URGENT", "CRITICAL"

#: Probability, impact and the map threshold are integers on one scale.
RISK_SCALE_MIN, RISK_SCALE_MAX = 1, 10
DEFAULT_RISK_THRESHOLD = 5

#: Granularity of the rounded affected-population basis (nearest 0.1 million).
AFFECTED_ROUNDING_UNIT = 100_000

RISK_COLUMNS = ("Code", "Description", "Category", "Probability", "Impact")


class ConceptMatrix(Record):
    """Weighted-criteria scoring table.

    ``criteria`` is a sequence of (name, weight) with weights summing to one;
    ``concepts`` is a sequence of (name, ratings), one integer rating in
    [1, 3] per criterion. Within each, names are non-empty and unique.
    """

    criteria: Tuple[Tuple[str, float], ...]
    concepts: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __new__(cls, criteria, concepts):
        return super().__new__(cls, tuple((n, float(w)) for n, w in criteria),
                               tuple((n, tuple(r)) for n, r in concepts))

    def _check(self):
        for what, pairs in (("criterion", self.criteria), ("concept", self.concepts)):
            names = [name for name, _ in pairs]
            if not all(names):
                raise ValidationError(f"{what} name must be non-empty")
            if len(set(names)) != len(names):
                raise ValidationError(f"{what} names must be unique")
        if not all(math.isfinite(w) for _, w in self.criteria):
            raise ValidationError("criterion weights must be finite")
        total = sum(w for _, w in self.criteria)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"criterion weights must sum to 1, got {total!r}")
        for name, ratings in self.concepts:
            if len(ratings) != len(self.criteria):
                raise ValidationError(
                    f"concept {name!r}: expected one rating per criterion")
            for value in ratings:
                if int(value) != value or not RATING_MIN <= value <= RATING_MAX:
                    raise ValidationError(
                        f"concept {name!r}: ratings must be integers in "
                        f"[{RATING_MIN}, {RATING_MAX}], got {value!r}")


class MarketParams(Record):
    world_pop: float
    ref_pop: float
    ref_affected: float
    tolerance: float
    adoption_share: float
    unit_price: float
    unit_cost: float

    def _check(self):
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        if not self.world_pop > 0:
            raise ValidationError("world_pop must be > 0")
        if not self.ref_pop > 0:
            raise ValidationError("ref_pop must be > 0")
        if self.ref_affected < 0:
            raise ValidationError("ref_affected must be >= 0")
        for name in ("tolerance", "adoption_share"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.unit_price < 0 or self.unit_cost < 0:
            raise ValidationError("unit_price and unit_cost must be >= 0")


class RiskItem(Record):
    code: str
    description: str
    category: str
    probability: int
    impact: int

    def _check(self):
        if not self.code:
            raise ValidationError("risk code must be non-empty")
        for name in ("probability", "impact"):
            _check_risk_scale(getattr(self, name), f"risk {self.code!r}: {name}")


def _check_risk_scale(value, what: str) -> None:
    # the range test comes first, so NaN and infinities fail it, not int()
    if not RISK_SCALE_MIN <= value <= RISK_SCALE_MAX or int(value) != value:
        raise ValidationError(
            f"{what} must be an integer in [{RISK_SCALE_MIN}, {RISK_SCALE_MAX}]")


def check_risk_threshold(threshold) -> None:
    """Reject a map threshold off the 1-10 scale of probability and impact."""
    _check_risk_scale(threshold, "risk threshold")


def concept_score(matrix: ConceptMatrix) -> List[Tuple[str, float, int]]:
    """Score every concept and rank by descending total.

    Totals are the weight-rating dot products, summed with ``math.fsum``
    (correctly rounded); ties keep input order. The result preserves the
    matrix's concept order, with the rank attached.
    """
    weights = [w for _, w in matrix.criteria]
    totals = [(name, _total(weights, ratings)) for name, ratings in matrix.concepts]
    order = sorted(range(len(totals)), key=lambda i: (-totals[i][1], i))
    ranks = {}
    for position, index in enumerate(order, start=1):
        ranks[index] = position
    return [(name, total, ranks[i]) for i, (name, total) in enumerate(totals)]


def _total(weights, ratings) -> float:
    """``math.fsum`` of the products; where a product or a partial sum passes
    the largest double, the exact dot product rounded once, +-inf past it."""
    try:
        total = math.fsum(w * r for w, r in zip(weights, ratings))
        if math.isfinite(total):
            return total
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        pass
    from fractions import Fraction
    exact = sum(Fraction(w) * r for w, r in zip(weights, ratings))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


class MarketEstimate(Record):
    """The market-sizing figures, in report order."""

    affected_population: float
    rounded_basis: float
    profit_exact_basis: float
    profit_rounded_basis: float


def market_size_estimate(p: MarketParams) -> MarketEstimate:
    """Affected population and profit from the top-down market model.

    affected = world_pop/ref_pop * ref_affected * tolerance. Profit applies
    (unit_price - unit_cost) * adoption_share to a population basis: the
    affected population itself, and that population rounded to the nearest
    :data:`AFFECTED_ROUNDING_UNIT` (0.1 million).
    """
    affected = p.world_pop / p.ref_pop * p.ref_affected * p.tolerance
    # a float round: an overflowed population stays inf, for the report to reject
    rounded = round(affected / AFFECTED_ROUNDING_UNIT, 0) * AFFECTED_ROUNDING_UNIT
    margin = p.unit_price - p.unit_cost
    return MarketEstimate(affected, rounded, margin * affected * p.adoption_share,
                          margin * rounded * p.adoption_share)


def risk_score_and_map(item: RiskItem,
                       threshold: int = DEFAULT_RISK_THRESHOLD) -> Tuple[int, str]:
    """(probability x impact, quadrant) under an inclusive threshold."""
    check_risk_threshold(threshold)
    score = item.probability * item.impact
    if item.probability >= threshold:
        quadrant = CRITICAL if item.impact >= threshold else URGENT
    else:
        quadrant = MONITOR if item.impact >= threshold else LOW
    return score, quadrant


def _weight(text: str) -> float:
    cleaned = text.strip()
    if cleaned.endswith("%"):
        return float(cleaned[:-1]) / 100.0
    return float(cleaned)


@names_file
def load_concept_csv(path) -> ConceptMatrix:
    """Read a concept matrix: `Criterion,Weight,<one column per concept>`.

    Weights may be written as fractions (`0.08`) or percentages (`8%`).
    """
    header, rows = read_rows(path, ("Criterion", "Weight"), (str.strip, _weight, int),
                             more="concept")
    # a matrix without rows fails the weight sum before its concepts are read
    return ConceptMatrix(criteria=[row[:2] for row in rows],
                         concepts=zip([name.strip() for name in header[2:]],
                                      zip(*[row[2:] for row in rows])))


@names_file
def load_risk_csv(path) -> List[RiskItem]:
    """Read a risk register with the :data:`RISK_COLUMNS` header; codes unique."""
    _, rows = read_rows(path, RISK_COLUMNS, (str.strip,) * 3 + (int, int))
    items = []
    seen = set()
    for row in rows:
        if row[0] in seen:
            raise ValidationError(f"duplicate risk code {row[0]!r}")
        seen.add(row[0])
        items.append(RiskItem(*row))
    return items
