"""Discounted-cash-flow engine: burn-rate expense lines plus a sales block.

Periods are 1-based and flows occur at period ends (t = 1..T, no t=0 flow);
``npv`` therefore discounts C_t by (1+r)^-t, evaluated by Horner's rule. IRR
is a per-period rate, a root of NPV in [0, 10] refined by Brent's method, or
``None`` when undefined; when the flows change sign three or more times it
need not be the smallest root (see ``irr`` and ``_scan``). Break-even
defaults to the undiscounted cumulative flow.
The module uses the standard library only; flows are tuples of floats.

Scenario analysis applies fractional :class:`Adjustment` rows to a base
:class:`ModelSpec` - each targeted value is multiplied by (1 + pct), and
optional period overrides replace an expense line's active window.
"""
from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Tuple

from ._records import Record, ValidationError

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
_IRR_XTOL = 1e-12  # widest final bracket
_IRR_FLOOR = 10.0 * 2.0 ** -30  # narrowest scan cell, ~9.3e-9
_IRR_SCAN_CAP = 200  # NPV evaluations after which a scan splits no more cells


class ExpenseLine(Record):
    """A constant per-period cash flow active over [first, last] (inclusive).

    ``rate`` is currency per period; outflows are negative.
    """

    name: str
    first: int
    last: int
    rate: float

    def _check(self):
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


class SalesBlock(Record):
    """Unit sales over [first, last]: ``units`` per period at ``unit_price``
    plus ``unit_cost`` (a negative per-unit outflow)."""

    first: int
    last: int
    units: float
    unit_price: float
    unit_cost: float

    def _check(self):
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


class ModelSpec(Record):
    """A complete cash-flow model over ``horizon`` periods."""

    horizon: int
    discount_rate: float
    expenses: Tuple[ExpenseLine, ...]
    sales: SalesBlock

    def __new__(cls, horizon, discount_rate, expenses, sales):
        return super().__new__(cls, horizon, discount_rate, tuple(expenses), sales)

    def _check(self):
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
            _check_last(line, self.horizon)
        if self.sales.last > self.horizon:
            raise ValidationError("sales window: last period exceeds the horizon")


def _check_last(line: ExpenseLine, horizon: int) -> None:
    if line.last > horizon:
        raise ValidationError(
            f"expense line {line.name!r}: last period exceeds the horizon")


class Adjustment(Record):
    """One scenario row: scale ``target`` by (1 + pct), and, when ``first``
    and ``last`` are given (together; both default to None), move an
    expense line's window to [first, last]."""

    target: str
    pct: float
    first: Optional[int] = None
    last: Optional[int] = None

    def _check(self):
        if not math.isfinite(self.pct):
            raise ValidationError(f"adjustment {self.target!r}: pct must be finite")
        if (self.first is None) != (self.last is None):
            raise ValidationError(
                f"adjustment {self.target!r}: first and last must be given together")
        if self.first is not None and not 1 <= self.first <= self.last:
            raise ValidationError(
                f"adjustment {self.target!r}: overrides must satisfy 1 <= first <= last")


class LineDelta(Record):
    """Base-versus-adjusted comparison for one model input."""

    name: str
    base: float
    adjusted: float
    pct: float
    delta: float


class EconResult(Record):
    """Evaluated model: per-period flows and the headline figures."""

    cash_flows: Tuple[float, ...]
    npv: float
    irr: Optional[float]
    break_even_period: Optional[int]
    line_deltas: Tuple[LineDelta, ...]


def _sales_block(s: SalesBlock) -> Tuple[int, int, float]:
    """The sales block as (first, last, per-period amount)."""
    return s.first, s.last, s.units * (s.unit_price + s.unit_cost)


def build_cash_flows(spec: ModelSpec) -> Tuple[float, ...]:
    """Net flow per period: active expense rates plus
    ``units * (unit_price + unit_cost)`` inside the sales window.

    Index 0 of the returned tuple is period 1. Each period adds its expense
    lines in order, then the sales block, to 0.0.
    """
    flows = [0.0] * spec.horizon
    for first, last, amount in (*(line[1:] for line in spec.expenses),
                                _sales_block(spec.sales)):
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


def _sign_changes(flows: Sequence[float]) -> int:
    """Sign changes between consecutive nonzero flows (Descartes' count)."""
    changes, last = 0, 0.0
    for c in flows:
        if c:
            changes += last < 0 < c or c < 0 < last
            last = c
    return changes


def _brent(flows, a: float, fa: float, b: float, fb: float) -> Tuple[float, float]:
    """(root, NPV there) by Brent's method on [a, b], whose ends differ in
    sign or where NPV(b) is 0.

    Each step takes inverse quadratic or secant interpolation when that
    stays well inside the bracket and shrinks the steps fast enough, and
    bisects otherwise (Brent 1973, ch. 4, the ``zeroin`` rules). One more
    rule bounds the work: a step bisects when the bracket has not halved in
    the three steps before it, so 44 halvings and at most 4 evaluations
    each take [0, 10] below 1e-12. The root is the bracket end with the
    smaller |NPV| once the bracket is at most 1e-12 wide, or a rate where
    NPV is exactly 0.
    """
    c, fc = a, fa
    e = d = b - a
    mark, stalls = math.inf, 0
    step = 0.5 * _IRR_XTOL
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            e = d = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        width = abs(c - b)
        if fb == 0 or width <= _IRR_XTOL:
            return b, fb
        if width <= 0.5 * mark:
            mark, stalls = width, 0
        else:
            stalls += 1
        m = 0.5 * (c - b)
        if stalls < 3 and abs(e) >= step and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(step * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > step else math.copysign(step, m)
        fb = npv(flows, b)


def _scan(flows, f_lo: float, f_hi: float):
    """The first cell (a, NPV(a), b, NPV(b)) of [0, 10], left to right,
    whose ends differ in sign, or None.

    Cells are halved from [0, 10] down, and a cell is skipped once it is
    proved root-free. U is the present value of the flows whose sign NPV
    has at r = 0 and D that of the others, both as magnitudes, so
    |NPV| = U - D up to the first root; both fall as r grows and are
    convex. On a cell [a, b] whose right neighbour [b, c] is evaluated, U
    lies above the line through U(b) and U(c) and D below its chord, so on
    the cell

        U - D >= min(U(b) + (U(b) - U(c)) (b - a) / (c - b) - D(a),
                     U(b) - D(b))

    with U(c) = U(b) for the last cell. The cell is root-free when that
    exceeds the margin m = (T + 1) (2^-48 S + 2^-1070), S the sum of the U
    and D values in the bound. Each computed value is within a relative
    3T 2^-53, plus T subnormal steps, of the true one, so m is over the
    rounding error of the bound. A point takes its sign from U - D unless
    |U - D| is within the same margin of U + D, when NPV is evaluated. A
    cell no wider than ``_IRR_FLOOR`` that is not proved is left undecided
    and the scan goes on to its right; it stops splitting once it has made
    ``_IRR_SCAN_CAP`` evaluations.
    """
    sign = 1.0 if f_lo > 0 else -1.0
    up = [abs(c) if c * sign > 0 else 0.0 for c in flows]
    down = [abs(c) if c * sign < 0 else 0.0 for c in flows]
    slack = (len(flows) + 1) * 2.0 ** -48
    tiny = (len(flows) + 1) * 2.0 ** -1070
    calls = 0

    def point(x, f=None):
        nonlocal calls
        u, d = npv(up, x), npv(down, x)
        calls += 2
        if f is None:
            f = sign * (u - d)
            if not abs(u - d) > slack * (u + d) + tiny:
                f = npv(flows, x)
                calls += 1
        return x, f, u, d

    a = point(_IRR_LO, f_lo)
    stack = [point(_IRR_HI, f_hi)]  # open right ends, nearest last
    while stack:
        (xa, fa, _, da), (xb, fb, ub, db) = a, stack[-1]
        if fb == 0 or (fb > 0) != (fa > 0):
            return xa, fa, xb, fb
        xc, _, uc, _ = stack[-2] if len(stack) > 1 else stack[-1]
        lift = (ub - uc) * (xb - xa) / (xc - xb) if xc != xb else 0.0
        bound = min(ub + lift - da, ub - db)
        if (bound > slack * (2.0 * ub + uc + da + db) + tiny
                or xb - xa <= _IRR_FLOOR):
            a = stack.pop()
        elif calls >= _IRR_SCAN_CAP:
            return None
        else:
            stack.append(point(0.5 * (xa + xb)))
    return None


def irr(flows: Sequence[float]) -> Optional[float]:
    """Per-period internal rate of return, or None when undefined.

    Finds a root of npv(r) on [0, 10] by Brent's method to a bracket at
    most 1e-12 wide, and returns it only if |npv| <= $0.01 there. By
    Descartes' rule of signs, NPV has at most as many roots r > -1 as the
    flows have sign changes.

    - No sign change: None.
    - NPV(0) = 0: the root is 0.
    - NPV(0) and NPV(10) differ in sign: the bracket is [0, 10]. With one or
      two sign changes the root in it is unique; with three or more, the
      root returned is one in [0, 10] and need not be the smallest.
    - They share a sign: with one sign change the root lies outside
      [0, 10], so None. With two or more, ``_scan`` proves cells of [0, 10]
      root-free from left to right, and the bracket is the first cell whose
      ends differ in sign: its root is the smallest in [0, 10] unless a
      cell left undecided holds two. None when there is no such cell:
      every cell is proved root-free, or some are left undecided at the
      floor width (~9.3e-9) or past the scan's cap of 200 evaluations.
    """
    changes = _sign_changes(flows)
    if not changes:
        return None
    f_lo, f_hi = npv(flows, _IRR_LO), npv(flows, _IRR_HI)
    if f_lo == 0.0:
        return _IRR_LO
    if f_hi == 0 or (f_hi > 0) != (f_lo > 0):
        cell = _IRR_LO, f_lo, _IRR_HI, f_hi
    elif changes == 1:
        return None
    else:
        cell = _scan(flows, f_lo, f_hi)
        if cell is None:
            return None
    root, f_root = _brent(flows, *cell)
    if not abs(f_root) <= IRR_NPV_TOL:
        return None
    return root


def discounted_flows(flows: Sequence[float], r: float) -> Tuple[float, ...]:
    """End-of-period present value of each flow: C_t * (1+r)^-t, t=1..T.

    When the discount factor is too large for a double, the term is computed
    through logarithms: it is the true term when that is finite, +-inf when
    it is not, and 0 for a zero flow. It never raises ``OverflowError``.
    """
    terms = []
    for t, c in enumerate(flows, start=1):
        try:
            terms.append(c * (1.0 + r) ** -t)
        except OverflowError:
            try:
                terms.append(math.copysign(
                    math.exp(math.log(abs(c)) - t * math.log1p(r)), c) if c else 0.0)
            except OverflowError:
                terms.append(math.copysign(math.inf, c))
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


def _adjusted(adj: Adjustment, lines: dict, sales: SalesBlock):
    """The expense line or sales block that ``adj`` makes of the one in
    ``lines`` (by name) or ``sales`` it targets; unknown targets fail."""
    line = lines.get(adj.target)
    if line is not None:
        # overrides are given together or not at all
        window = line[1:3] if adj.first is None else (adj.first, adj.last)
        return ExpenseLine(line.name, *window, line.rate * (1.0 + adj.pct))
    if adj.target not in SALES_TARGETS:
        raise ValidationError(
            f"adjustment target {adj.target!r} matches no expense line "
            f"and none of {'/'.join(SALES_TARGETS)}")
    if adj.first is not None:
        raise ValidationError(
            f"adjustment {adj.target!r}: period overrides apply only to expense lines")
    field = _SALES_FIELDS[adj.target]
    return sales._replace(**{field: getattr(sales, field) * (1.0 + adj.pct)})


def apply_adjustments(spec: ModelSpec,
                      adjustments: Sequence[Adjustment]) -> ModelSpec:
    """Return a new spec with every adjustment applied; unknown targets fail."""
    lines = {line.name: line for line in spec.expenses}
    sales = spec.sales
    for adj in adjustments:
        if adj.target in SALES_TARGETS:
            sales = _adjusted(adj, lines, sales)
        else:
            lines[adj.target] = _adjusted(adj, lines, sales)
    ordered = tuple(lines[line.name] for line in spec.expenses)
    return ModelSpec(spec.horizon, spec.discount_rate, ordered, sales)


def sensitivity(spec: ModelSpec, adjustments: Iterable[Adjustment]
                ) -> Tuple[float, Tuple[tuple, ...]]:
    """(base NPV, rows): one row per adjustment, each applied to ``spec``
    alone: (target, pct, first, last, ΔNPV, ΔNPV / base NPV), where
    first..last are the target's periods in the adjusted spec and the
    fraction is None when the base NPV is zero.

    An adjustment changes one block, so ΔNPV is the NPV of the difference
    flow: the adjusted block minus the base one over the union of their
    windows, zero elsewhere. It does not cancel against a huge base NPV the
    way a difference of two NPVs would. The base flows are built once, for
    the base NPV. A row builds only its adjusted line or sales block, with
    the checks of ``apply_adjustments``, and no model. Its difference flow
    is constant between the windows' ends, so it has at most four runs, and
    Horner's rule makes each run's flow once: the row has the same bits as
    the Horner NPV of the difference flow.
    """
    r = spec.discount_rate
    base = npv(build_cash_flows(spec), r)
    step = 1.0 + r
    lines = {line.name: line for line in spec.expenses}
    rows = []
    for adj in adjustments:
        block = _adjusted(adj, lines, spec.sales)
        if adj.target in SALES_TARGETS:
            was, now = _sales_block(spec.sales), _sales_block(block)
        else:
            _check_last(block, spec.horizon)
            was, now = lines[adj.target][1:], block[1:]  # first, last, rate
        (first0, last0, before), (first, last, after) = was, now
        cuts = sorted((0, first - 1, last, first0 - 1, last0), reverse=True)
        total = 0.0
        # npv of each row's whole difference flow ran 1.14-1.43x slower at 150 rows
        for hi, lo in zip(cuts, cuts[1:]):  # periods hi down to lo + 1
            c = 0.0 + after if first <= hi <= last else 0.0  # as build_cash_flows adds
            c = c + -before if first0 <= hi <= last0 else c
            for _ in range(hi - lo):
                total = (total + c) / step
        delta = float(total)
        rows.append((adj.target, adj.pct, first, last, delta,
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
    )
