"""Discounted-cash-flow engine: burn-rate expense lines plus a sales block.

Periods are 1-based and flows occur at period ends (t = 1..T, no t=0 flow);
``npv`` therefore discounts C_t by (1+r)^-t, evaluated by Horner's rule. IRR
is a per-period rate found by bracketing and bisection; it is UNDEFINED
(returned as ``None``) when the flows never change sign or no bracket exists
in [0, 10]. Break-even defaults to the undiscounted cumulative flow. The
module uses the standard library only; flows are tuples of floats.

Scenario analysis applies fractional :class:`Adjustment` rows to a base
:class:`ModelSpec` - each targeted value is multiplied by (1 + pct), and
optional period overrides replace an expense line's active window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Tuple

from .errors import ValidationError

#: Adjustment targets addressing the sales block rather than an expense line.
UNITS, PRICE, COST = "UNITS", "PRICE", "COST"
SALES_TARGETS = (UNITS, PRICE, COST)
_SALES_FIELDS = {UNITS: "units", PRICE: "unit_price", COST: "unit_cost"}

#: |NPV| at the returned IRR is at most this many dollars.
IRR_NPV_TOL = 0.01

#: Longest accepted model, in periods; a longer horizon is rejected before
#: any per-period list is built.
MAX_HORIZON = 10_000

_IRR_LO, _IRR_HI = 0.0, 10.0
_IRR_GRID_CELLS = 200  # bracket scan step: (hi - lo) / 200


@dataclass(frozen=True)
class ExpenseLine:
    """A constant per-period cash flow active over [first, last] (inclusive).

    ``rate`` is currency per period; outflows are negative.
    """

    name: str
    first: int
    last: int
    rate: float

    def __post_init__(self):
        if not self.name:
            raise ValidationError("expense line name must be non-empty")
        if self.name in SALES_TARGETS:
            raise ValidationError(
                f"expense line name {self.name!r} is reserved for the sales block")
        if not math.isfinite(self.rate):
            raise ValidationError(f"rate of expense line {self.name!r} must be finite")
        if self.first < 1 or self.last < self.first:
            raise ValidationError(
                f"expense line {self.name!r}: periods must satisfy 1 <= first <= last")


@dataclass(frozen=True)
class SalesBlock:
    """Unit sales over [first, last]: ``units`` per period at ``unit_price``
    plus ``unit_cost`` (a negative per-unit outflow)."""

    first: int
    last: int
    units: float
    unit_price: float
    unit_cost: float

    def __post_init__(self):
        if self.first < 1 or self.last < self.first:
            raise ValidationError("sales window must satisfy 1 <= first <= last")
        for name in ("units", "unit_price", "unit_cost"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.units < 0:
            raise ValidationError("units must be >= 0")
        if self.unit_price < 0:
            raise ValidationError("unit_price must be >= 0")
        if self.unit_cost > 0:
            raise ValidationError("unit_cost must be <= 0 (an outflow)")


@dataclass(frozen=True)
class ModelSpec:
    """A complete cash-flow model over ``horizon`` periods."""

    horizon: int
    discount_rate: float
    expenses: Tuple[ExpenseLine, ...]
    sales: SalesBlock

    def __post_init__(self):
        object.__setattr__(self, "expenses", tuple(self.expenses))
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if self.horizon > MAX_HORIZON:
            raise ValidationError(f"horizon must be <= {MAX_HORIZON}")
        if not self.discount_rate > -1:
            raise ValidationError("discount_rate must be > -1")
        names = [line.name for line in self.expenses]
        if len(set(names)) != len(names):
            raise ValidationError("expense line names must be unique")
        for line in self.expenses:
            if line.last > self.horizon:
                raise ValidationError(
                    f"expense line {line.name!r}: last period exceeds the horizon")
        if self.sales.last > self.horizon:
            raise ValidationError("sales window: last period exceeds the horizon")


@dataclass(frozen=True)
class Adjustment:
    """One scenario row: scale ``target`` by (1 + pct), optionally moving an
    expense line's window to [first_override, last_override]."""

    target: str
    pct: float
    first_override: Optional[int] = None
    last_override: Optional[int] = None

    def __post_init__(self):
        if not math.isfinite(self.pct):
            raise ValidationError(f"adjustment {self.target!r}: pct must be finite")
        has_first = self.first_override is not None
        has_last = self.last_override is not None
        if has_first != has_last:
            raise ValidationError(
                f"adjustment {self.target!r}: first_override and last_override "
                "must be given together")
        if has_first and not 1 <= self.first_override <= self.last_override:
            raise ValidationError(
                f"adjustment {self.target!r}: overrides must satisfy 1 <= first <= last")


@dataclass(frozen=True)
class LineDelta:
    """Base-versus-adjusted comparison for one model input."""

    name: str
    base: float
    adjusted: float
    pct: float
    delta: float


@dataclass(frozen=True)
class EconResult:
    """Evaluated model: per-period flows and the headline figures."""

    cash_flows: Tuple[float, ...]
    npv: float
    irr: Optional[float]
    break_even_period: Optional[int]
    line_deltas: Tuple[LineDelta, ...]
    discount_rate: float


def build_cash_flows(spec: ModelSpec) -> Tuple[float, ...]:
    """Net flow per period: active expense rates plus
    ``units * (unit_price + unit_cost)`` inside the sales window.

    Index 0 of the returned tuple is period 1. Each period adds its expense
    lines in order, then the sales block.
    """
    flows = [0.0] * spec.horizon
    s = spec.sales
    blocks = [(line.first, line.last, line.rate) for line in spec.expenses]
    blocks.append((s.first, s.last, s.units * (s.unit_price + s.unit_cost)))
    for first, last, amount in blocks:
        flows[first - 1 : last] = [f + amount for f in flows[first - 1 : last]]
    return tuple(flows)


def npv(flows: Sequence[float], r: float) -> float:
    """Present value of end-of-period flows: sum of C_t * (1+r)^-t, t=1..T.

    Horner's rule from the last period back: the running total plus C_t,
    divided by (1+r) once per period, in plain float arithmetic.
    """
    if not r > -1:
        raise ValidationError("discount rate r must be > -1")
    base = 1.0 + r
    total = 0.0
    for c in reversed(flows):
        total = (total + c) / base
    return float(total)


def _irr_grid(lo: float, hi: float):
    """Bracket-scan points lo + i * ((hi - lo) / 200) for i < 200, then hi
    itself: the points of ``np.linspace(lo, hi, 201)``, made one at a time."""
    step = (hi - lo) / _IRR_GRID_CELLS
    for i in range(_IRR_GRID_CELLS):
        yield lo + i * step
    yield hi


def irr(flows: Sequence[float]) -> Optional[float]:
    """Per-period internal rate of return, or None when undefined.

    Brackets a sign change of npv(r) on [0, 10] and bisects until the
    interval is tighter than 1e-12 and |npv| <= $0.01. Flows that never
    change sign have no IRR.
    """
    if all(c >= 0 for c in flows) or all(c <= 0 for c in flows):
        return None
    lo, hi = _IRR_LO, _IRR_HI
    f_lo, f_hi = npv(flows, lo), npv(flows, hi)
    if f_lo == 0.0:
        return lo
    if f_lo * f_hi > 0:
        # scan for the first bracket inside the range, left to right
        points = _irr_grid(lo, hi)
        a, fa = next(points), f_lo
        for b in points:
            fb = npv(flows, b)
            if fa * fb <= 0:
                lo, hi, f_lo = a, b, fa
                break
            a, fa = b, fb
        else:
            return None
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = npv(flows, mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    root = 0.5 * (lo + hi)
    if abs(npv(flows, root)) > IRR_NPV_TOL:
        return None
    return root


def irr_interpolate(ra: float, rb: float, npva: float, npvb: float) -> float:
    """Linear-interpolation IRR estimate: ra + npva*(rb-ra)/(npva-npvb)."""
    if not ra < rb:
        raise ValidationError("ra must be strictly less than rb")
    if npva == npvb:
        raise ValidationError("npva and npvb must differ")
    return ra + npva * (rb - ra) / (npva - npvb)


def discounted_flows(flows: Sequence[float], r: float) -> Tuple[float, ...]:
    """End-of-period present value of each flow: C_t * (1+r)^-t, t=1..T.

    A discount factor too large for a double makes the term +-inf, or 0 for
    a zero flow, instead of raising ``OverflowError``.
    """
    terms = []
    for t, c in enumerate(flows, start=1):
        try:
            terms.append(c * (1.0 + r) ** -t)
        except OverflowError:
            terms.append(math.copysign(math.inf, c) if c else 0.0)
    return tuple(terms)


def break_even(flows: Sequence[float], r: float = 0.0,
               discounted: bool = False) -> Optional[int]:
    """Smallest period t with cumulative (optionally discounted) flow >= 0."""
    if not r > -1:
        raise ValidationError("discount rate r must be > -1")
    terms = discounted_flows(flows, r) if discounted else flows
    for t, cumulative in enumerate(accumulate(terms), start=1):
        if cumulative >= 0:
            return t
    return None


def apply_adjustments(spec: ModelSpec,
                      adjustments: Sequence[Adjustment]) -> ModelSpec:
    """Return a new spec with every adjustment applied; unknown targets fail."""
    lines = {line.name: line for line in spec.expenses}
    sales = spec.sales
    for adj in adjustments:
        if adj.target in lines:
            line = lines[adj.target]
            # overrides are given together or not at all
            first, last = ((line.first, line.last) if adj.first_override is None
                           else (adj.first_override, adj.last_override))
            lines[adj.target] = replace(line, rate=line.rate * (1.0 + adj.pct),
                                        first=first, last=last)
        elif adj.target in SALES_TARGETS:
            if adj.first_override is not None:
                raise ValidationError(
                    f"adjustment {adj.target!r}: period overrides apply only to expense lines")
            field = _SALES_FIELDS[adj.target]
            sales = replace(sales, **{field: getattr(sales, field) * (1.0 + adj.pct)})
        else:
            raise ValidationError(
                f"adjustment target {adj.target!r} matches no expense line "
                f"and none of {'/'.join(SALES_TARGETS)}")
    ordered = tuple(lines[line.name] for line in spec.expenses)
    return replace(spec, expenses=ordered, sales=sales)


def sensitivity(spec: ModelSpec, adjustments: Iterable[Adjustment]
                ) -> Tuple[float, Tuple[tuple, ...]]:
    """(base NPV, rows): one row per adjustment, each applied to ``spec``
    alone: (target, pct, first, last, ΔNPV, ΔNPV / base NPV), where
    first..last are the target's periods in the adjusted spec and the
    fraction is None when the base NPV is zero."""
    base = npv(build_cash_flows(spec), spec.discount_rate)
    rows = []
    for adj in adjustments:
        adjusted = apply_adjustments(spec, [adj])
        delta = npv(build_cash_flows(adjusted), adjusted.discount_rate) - base
        target = next((line for line in adjusted.expenses if line.name == adj.target),
                      adjusted.sales)
        rows.append((adj.target, adj.pct, target.first, target.last, delta,
                     delta / base if base != 0.0 else None))
    return base, tuple(rows)


def sensitivity_row(spec: ModelSpec, adj: Adjustment) -> Tuple[float, Optional[float]]:
    """(ΔNPV, ΔNPV as a fraction of base NPV) for one adjustment."""
    _, ((*_, delta, fraction),) = sensitivity(spec, [adj])
    return delta, fraction


def _line_deltas(base: ModelSpec, adjusted: ModelSpec) -> Tuple[LineDelta, ...]:
    rates = {line.name: line.rate for line in adjusted.expenses}
    pairs = [(line.name, line.rate, rates[line.name]) for line in base.expenses]
    pairs += [(name, getattr(base.sales, field), getattr(adjusted.sales, field))
              for name, field in _SALES_FIELDS.items()]
    return tuple(LineDelta(name, before, after,
                           (after / before - 1.0) if before != 0 else 0.0, after - before)
                 for name, before, after in pairs)


def evaluate(spec: ModelSpec, adjustments: Sequence[Adjustment] = (),
             discounted_breakeven: bool = False) -> EconResult:
    """Apply adjustments (if any), then compute flows, NPV, IRR and break-even."""
    adjusted = apply_adjustments(spec, adjustments) if adjustments else spec
    flows = build_cash_flows(adjusted)
    return EconResult(
        cash_flows=flows,
        npv=npv(flows, adjusted.discount_rate),
        irr=irr(flows),
        break_even_period=break_even(flows, adjusted.discount_rate,
                                     discounted=discounted_breakeven),
        line_deltas=_line_deltas(spec, adjusted),
        discount_rate=adjusted.discount_rate,
    )
