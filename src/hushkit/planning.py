"""Concept scoring, market sizing, and probability-impact risk rating."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from .errors import ValidationError

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


@dataclass(frozen=True)
class ConceptMatrix:
    """Weighted-criteria scoring table.

    ``criteria`` is a sequence of (name, weight) with weights summing to one;
    ``concepts`` is a sequence of (name, ratings), one integer rating in
    [1, 3] per criterion.
    """

    criteria: Tuple[Tuple[str, float], ...]
    concepts: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "criteria",
                           tuple((n, float(w)) for n, w in self.criteria))
        object.__setattr__(self, "concepts",
                           tuple((n, tuple(r)) for n, r in self.concepts))
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


@dataclass(frozen=True)
class MarketParams:
    world_pop: float
    ref_pop: float
    ref_affected: float
    tolerance: float
    adoption_share: float
    unit_price: float
    unit_cost: float

    def __post_init__(self):
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


@dataclass(frozen=True)
class RiskItem:
    code: str
    description: str
    category: str
    probability: int
    impact: int

    def __post_init__(self):
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
    totals = [(name, math.fsum(w * r for w, r in zip(weights, ratings)))
              for name, ratings in matrix.concepts]
    order = sorted(range(len(totals)), key=lambda i: (-totals[i][1], i))
    ranks = {}
    for position, index in enumerate(order, start=1):
        ranks[index] = position
    return [(name, total, ranks[i]) for i, (name, total) in enumerate(totals)]


def rounded_basis(affected: float) -> float:
    """``affected`` rounded to the nearest :data:`AFFECTED_ROUNDING_UNIT`."""
    return float(round(affected / AFFECTED_ROUNDING_UNIT) * AFFECTED_ROUNDING_UNIT)


def market_size_estimate(p: MarketParams,
                         affected_basis: str = "exact") -> Tuple[float, float]:
    """(affected population, profit) from the top-down market model.

    affected = world_pop/ref_pop * ref_affected * tolerance. Profit applies
    (unit_price - unit_cost) * adoption_share to the affected population,
    either exactly (``affected_basis="exact"``) or after rounding the
    population to the nearest 0.1 million (``"rounded"``).
    """
    affected = p.world_pop / p.ref_pop * p.ref_affected * p.tolerance
    if affected_basis == "exact":
        basis = affected
    elif affected_basis == "rounded":
        basis = rounded_basis(affected)
    else:
        raise ValidationError("affected_basis must be 'exact' or 'rounded'")
    profit = (p.unit_price - p.unit_cost) * basis * p.adoption_share
    return affected, profit


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


def _parse_weight(text: str, path) -> float:
    cleaned = text.strip()
    try:
        if cleaned.endswith("%"):
            return float(cleaned[:-1]) / 100.0
        return float(cleaned)
    except ValueError:
        raise ValidationError(f"{path}: weights column has non-numeric value {text!r}")


def load_concept_csv(path) -> ConceptMatrix:
    """Read a concept matrix: `Criterion,Weight,<one column per concept>`.

    Weights may be written as fractions (`0.08`) or percentages (`8%`).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty")
        if len(header) < 3 or header[0] != "Criterion" or header[1] != "Weight":
            raise ValidationError(
                f"{path}: header must start with Criterion,Weight and name at "
                "least one concept column")
        concept_names = [name.strip() for name in header[2:]]
        criteria = []
        ratings = [[] for _ in concept_names]
        for row in reader:
            if len(row) != len(header):
                raise ValidationError(f"{path}: row {row!r} has the wrong column count")
            criteria.append((row[0].strip(), _parse_weight(row[1], path)))
            for i, cell in enumerate(row[2:]):
                try:
                    ratings[i].append(int(cell))
                except ValueError:
                    raise ValidationError(
                        f"{path}: rating column {concept_names[i]!r} has "
                        f"non-integer value {cell!r}")
    return ConceptMatrix(
        criteria=tuple(criteria),
        concepts=tuple((name, tuple(r)) for name, r in zip(concept_names, ratings)),
    )


def load_risk_csv(path) -> List[RiskItem]:
    """Read a risk register with the :data:`RISK_COLUMNS` header; codes unique."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RISK_COLUMNS:
            raise ValidationError(
                f"{path}: header must be exactly {','.join(RISK_COLUMNS)}")
        items = []
        seen = set()
        for row in reader:
            code = row["Code"].strip()
            if code in seen:
                raise ValidationError(f"{path}: duplicate risk code {code!r}")
            seen.add(code)
            try:
                probability = int(row["Probability"])
                impact = int(row["Impact"])
            except ValueError:
                raise ValidationError(
                    f"{path}: risk {code!r}: Probability and Impact must be integers")
            items.append(RiskItem(
                code=code,
                description=row["Description"].strip(),
                category=row["Category"].strip(),
                probability=probability,
                impact=impact,
            ))
    return items
