"""Command-line front end: JSON configs in, deterministic reports out.

Exit codes: 0 success, 1 config validation failure, 2 numerical failure
(divergence, or a missing IRR under --require-irr; the report is still
emitted), 3 I/O failure.

Only ``anc simulate`` needs numpy: it imports ``anc`` and ``signals`` when
it runs, so the business commands never load them.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from .costing import (OverheadRates, assembly_cost, bom_rollup,
                      check_discrepancies, cost_reduction_report, dfa_index,
                      load_assembly_csv, load_bom_csv, round_half_away)
from .econ import (Adjustment, EconResult, ExpenseLine, ModelSpec, SalesBlock,
                   build_cash_flows, evaluate, npv, sensitivity_row,
                   sensitivity_window)
from .errors import ValidationError
from .planning import (DEFAULT_RISK_THRESHOLD, MarketParams,
                       check_risk_threshold, concept_score, load_concept_csv,
                       load_risk_csv, market_size_estimate, risk_score_and_map,
                       rounded_basis)

if TYPE_CHECKING:
    from .anc import AncResult
    from .signals import FirPath

FORMATS = ("table", "json", "csv")

_NUM = (int, float)

# `anc simulate`'s library names stay attributes of this module (PEP 562),
# resolved through the package, which imports their modules on first use.
_ANC_NAMES = ("anc_run", "generate_tone", "generate_broadband")


def __getattr__(name):
    if name in _ANC_NAMES:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# config plumbing


class _Conf:
    """Field-by-field reader over a JSON object; leftovers are errors."""

    def __init__(self, mapping, context: str):
        if not isinstance(mapping, dict):
            raise ValidationError(f"{context} must be a JSON object")
        self._data = dict(mapping)
        self._context = context

    def take(self, name, kind, required=False, default=None):
        """Pop field ``name`` of type ``kind`` (a type or a tuple of types);
        ``float`` accepts any JSON number and returns it as a float."""
        if name not in self._data:
            if required:
                raise ValidationError(
                    f"{self._context}: missing required field '{name}'")
            return default
        value = self._data.pop(name)
        allowed = _NUM if kind is float else kind
        # JSON true/false must not satisfy numeric fields
        if not isinstance(value, allowed) or isinstance(value, bool):
            raise ValidationError(
                f"{self._context}: field '{name}' has the wrong type")
        if kind in _NUM:
            # an integer too large for a double is out of range in any field
            number = _to_float(value, f"{self._context}: field '{name}'")
            return number if kind is float else value
        return value

    def finish(self):
        if self._data:
            raise ValidationError(f"{self._context}: unknown field '{min(self._data)}'")


def _to_float(value, what: str) -> float:
    # an integer literal too large for a double is an input error, not a crash
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is out of range") from None


# Field kinds by annotation text (the model modules postpone annotations).
_KINDS = {"str": str, "int": int, "float": float}


def _build(cls, mapping, context: str):
    """Read every field of the flat dataclass ``cls`` from ``mapping``, in
    declaration order; all fields are required and floats accept ints."""
    c = _Conf(mapping, context)
    obj = cls(**{f.name: c.take(f.name, _KINDS[f.type], required=True)
                 for f in fields(cls)})
    c.finish()
    return obj


def _load_config(path_str: str):
    path = Path(path_str)
    text = path.read_text(encoding="utf-8")  # missing/unreadable -> OSError

    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ValidationError(
                f"{path}: non-finite number {token} is not allowed")
        return value

    try:
        value = json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})")
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return value


def _resolve(path_str: str, config_path: str) -> Path:
    """Resolve a file referenced by a config relative to the config itself."""
    # an absolute path_str replaces the base directory
    return Path(config_path).resolve().parent / path_str


def _taps_from(values, field: str) -> FirPath:
    import numpy as np

    from .signals import FirPath

    if not values or not all(isinstance(v, _NUM) and not isinstance(v, bool)
                             for v in values):
        raise ValidationError(f"field '{field}' must be a non-empty list of numbers")
    try:
        return FirPath(np.asarray(values, dtype=np.float64))
    except OverflowError:  # an integer too large for a double
        raise ValidationError(f"field '{field}' is out of range") from None


def _model_from(obj) -> ModelSpec:
    c = _Conf(obj, "model")
    horizon = c.take("horizon", int, required=True)
    discount_rate = c.take("discount_rate", float, required=True)
    expenses_raw = c.take("expenses", list, required=True)
    sales_raw = c.take("sales", dict, required=True)
    c.finish()
    sales = _build(SalesBlock, sales_raw, "sales")
    expenses = tuple(_build(ExpenseLine, e, f"expenses[{i}]")
                     for i, e in enumerate(expenses_raw))
    return ModelSpec(horizon=horizon, discount_rate=discount_rate,
                     expenses=expenses, sales=sales)


def _adjustment_from(obj, index: int, context: str = "adjustments") -> Adjustment:
    c = _Conf(obj, f"{context}[{index}]")
    adj = Adjustment(
        target=c.take("target", str, required=True),
        pct=c.take("pct", float, required=True),
        first_override=c.take("first", int),
        last_override=c.take("last", int),
    )
    c.finish()
    return adj


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report view, exit code)


def _cmd_anc_simulate(args):
    # names are looked up on their modules at call time, so a replaced
    # binding (a tracing wrapper, say) is the one called
    from . import anc, signals

    c = _Conf(_load_config(args.config), "anc config")
    algorithm = c.take("algorithm", str, required=True)
    duration = c.take("duration_samples", int, required=True)
    seed = c.take("rng_seed", int, required=True)
    fs = c.take("sample_rate_hz", float, default=8000.0)
    filter_length = c.take("filter_length", int, default=anc.AncConfig.filter_length)
    step_size = c.take("step_size", float)
    leak = c.take("leak_factor", float, default=anc.AncConfig.leak_factor)
    estimate_raw = c.take("secondary_estimate", (str, list), default="exact")
    noise_raw = c.take("noise", dict, required=True)
    primary = _taps_from(c.take("primary_path", list, required=True), "primary_path")
    secondary = _taps_from(c.take("secondary_path", list, required=True),
                           "secondary_path")
    c.finish()

    if isinstance(estimate_raw, str):
        if estimate_raw != "exact":
            raise ValidationError(
                "field 'secondary_estimate' must be \"exact\" or a list of taps")
        estimate = anc.EXACT
    else:
        estimate = _taps_from(estimate_raw, "secondary_estimate")

    config = anc.AncConfig(
        algorithm=algorithm,
        duration_samples=duration,
        rng_seed=seed,
        filter_length=filter_length,
        step_size=step_size,
        leak_factor=leak,
        secondary_estimate=estimate,
    )

    nc = _Conf(noise_raw, "noise")
    kind = nc.take("kind", str, required=True)
    if kind == "tone":
        freq = nc.take("freq_hz", float, required=True)
        amplitude = nc.take("amplitude", float, default=1.0)
        phase = nc.take("phase_rad", float, default=0.0)
        nc.finish()
        noise = signals.generate_tone(freq, amplitude, phase, duration, fs)
    elif kind == "broadband":
        low = nc.take("low_hz", float, required=True)
        high = nc.take("high_hz", float, required=True)
        nc.finish()
        noise = signals.generate_broadband(seed, low, high, duration, fs)
    else:
        raise ValidationError("noise: field 'kind' must be 'tone' or 'broadband'")

    result = anc.anc_run(config, noise, primary, secondary)
    return _emit_anc(result, args.format), (2 if result.diverged else 0)


def _cmd_econ_eval(args):
    raw = _load_config(args.config)
    if "model" in raw:
        c = _Conf(raw, "econ config")
        model_raw = c.take("model", dict, required=True)
        adjustments_raw = c.take("adjustments", list, default=[])
        c.finish()
    else:
        model_raw, adjustments_raw = raw, []
    spec = _model_from(model_raw)
    adjustments = tuple(_adjustment_from(a, i)
                        for i, a in enumerate(adjustments_raw))
    result = evaluate(spec, adjustments,
                      discounted_breakeven=args.discounted_breakeven)
    return (_emit_econ(result, args.format),
            2 if args.require_irr and result.irr is None else 0)


def _cmd_econ_sensitivity(args):
    c = _Conf(_load_config(args.config), "sensitivity config")
    model_raw = c.take("model", dict, required=True)
    rows_raw = c.take("rows", list, required=True)
    c.finish()
    spec = _model_from(model_raw)
    base = npv(build_cash_flows(spec), spec.discount_rate)
    rows = []
    for i, row_raw in enumerate(rows_raw):
        adj = _adjustment_from(row_raw, i, context="rows")
        delta, frac = sensitivity_row(spec, adj, base)  # rejects unknown targets
        rows.append((adj.target, adj.pct, *sensitivity_window(spec, adj),
                     delta, frac))
    return _emit_sensitivity(base, rows, args.format), 0


# BomSummary figures in report order.
_SUMMARY_FIELDS = ("direct_materials", "direct_processing", "direct_labor",
                   "shipment", "direct_total", "overhead", "warranty",
                   "total_manufacturing")


def _cmd_cost_bom(args):
    c = _Conf(_load_config(args.config), "cost config")
    bom_csv = c.take("bom_csv", str, required=True)
    shipment = c.take("shipment", float, required=True)
    rates_raw = c.take("overhead_rates", dict, required=True)
    warranty = c.take("warranty", float, required=True)
    override = c.take("overhead_override", float)
    assembly_raw = c.take("assembly", dict)
    dfa_raw = c.take("dfa", dict)
    reduction_raw = c.take("reduction", dict)
    expected_raw = c.take("expected", dict)
    c.finish()

    rates = _build(OverheadRates, rates_raw, "overhead_rates")
    lines = load_bom_csv(_resolve(bom_csv, args.config))
    summary = bom_rollup(lines, shipment, rates, warranty, override)
    entries = [(name, getattr(summary, name), "money") for name in _SUMMARY_FIELDS]

    seconds = None
    if assembly_raw is not None:
        ac = _Conf(assembly_raw, "assembly")
        ops_csv = ac.take("ops_csv", str, required=True)
        hourly = ac.take("hourly_rate", float, required=True)
        ac.finish()
        ops = load_assembly_csv(_resolve(ops_csv, args.config))
        seconds, cost = assembly_cost(ops, hourly)
        entries += [("assembly_seconds", seconds, "money"),
                    ("assembly_cost", cost, "money")]

    if dfa_raw is not None:
        dc = _Conf(dfa_raw, "dfa")
        min_parts = dc.take("min_parts", int, required=True)
        dc.finish()
        if seconds is None:
            raise ValidationError(
                "dfa requires the 'assembly' section for the total assembly time")
        entries.append(("dfa_index", dfa_index(min_parts, seconds), "rate"))
    # `expected` may audit every figure so far, not the reduction ones
    auditable = {label: value for label, value, _ in entries}

    if reduction_raw is not None:
        dc = _Conf(reduction_raw, "reduction")
        old_total = dc.take("old_total", float, required=True)
        new_total = dc.take("new_total", float, required=True)
        dc.finish()
        savings, fraction = cost_reduction_report(old_total, new_total)
        entries += [("reduction_savings", savings, "money"),
                    ("reduction_fraction", fraction, "rate")]

    discrepancies = ()
    if expected_raw is not None:
        pairs = []
        for label in sorted(expected_raw):
            if label not in auditable:
                raise ValidationError(f"expected: unknown field '{label}'")
            value = expected_raw[label]
            if not isinstance(value, _NUM) or isinstance(value, bool):
                raise ValidationError(f"expected: field '{label}' must be a number")
            pairs.append((label, auditable[label],
                          _to_float(value, f"expected: field '{label}'")))
        discrepancies = check_discrepancies(pairs)
    return _emit_bom(entries, discrepancies, expected_raw is not None,
                     args.format), 0


def _cmd_plan_concept(args):
    c = _Conf(_load_config(args.config), "concept config")
    matrix_csv = c.take("matrix_csv", str, required=True)
    c.finish()
    matrix = load_concept_csv(_resolve(matrix_csv, args.config))
    return _emit_concept(concept_score(matrix), args.format), 0


def _cmd_plan_risk(args):
    c = _Conf(_load_config(args.config), "risk config")
    register_csv = c.take("register_csv", str, required=True)
    threshold = c.take("threshold", int, default=DEFAULT_RISK_THRESHOLD)
    c.finish()
    check_risk_threshold(threshold)  # an empty register rates no item
    items = load_risk_csv(_resolve(register_csv, args.config))
    rated = [(item, *risk_score_and_map(item, threshold)) for item in items]
    return _emit_risk(threshold, rated, args.format), 0


def _cmd_plan_market(args):
    params = _build(MarketParams, _load_config(args.config), "market config")
    affected, profit_exact = market_size_estimate(params, "exact")
    _, profit_rounded = market_size_estimate(params, "rounded")
    return _scalars("market sizing", [
        ("affected_population", affected, "money"),
        ("rounded_basis", rounded_basis(affected), "money"),
        ("profit_exact_basis", profit_exact, "money"),
        ("profit_rounded_basis", profit_rounded, "money"),
    ], args.format), 0


# ---------------------------------------------------------------------------
# report rendering: each _emit_* returns a view of a report, a dict for
# json, rows for csv or lines for table, which emit_report serializes.
# A column table formats its header and its rows with one template.


def _money(value) -> float:
    return round_half_away(float(value), 2) + 0.0


def _rate(value, ndigits: int = 9) -> float:
    return round(float(value), ndigits) + 0.0


def _scalars(title: str, entries, fmt: str):
    """View of a `label: value` block of (label, value, kind) entries, where
    kind "money" prints cents and "rate" six decimals."""
    if fmt == "json":
        return {label: _money(v) if kind == "money" else _rate(v, 6)
                for label, v, kind in entries}
    money = ",.2f" if fmt == "table" else ".2f"
    cells = [(label, format(_money(v), money) if kind == "money"
              else f"{_rate(v, 6):.6f}") for label, v, kind in entries]
    if fmt == "csv":
        return [("field", "value"), *cells]
    return [title, *(f"  {label + ':':<21} {text}" for label, text in cells)]


def _emit_anc(result: AncResult, fmt: str):
    trace = [_rate(v, 4) for v in result.attenuation_trace_db]
    steady = _rate(result.steady_state_attenuation_db, 4)
    if fmt == "json":
        return {
            "attenuation_trace_db": trace,
            "diverged": bool(result.diverged),
            "n_samples": len(result.residual),
            "steady_state_attenuation_db": steady,
        }
    if fmt == "csv":
        return [("window", "attenuation_db"),
                *((i, f"{value:.4f}") for i, value in enumerate(trace, start=1))]
    columns = "  {:>8}  {:>14}"
    return ["noise-control simulation",
            f"  samples:  {len(result.residual)}",
            f"  windows:  {len(trace)}",
            f"  diverged: {'yes' if result.diverged else 'no'}",
            f"  steady_state_attenuation_db: {steady:.1f}",
            "",
            columns.format("window", "attenuation_db"),
            *(columns.format(i, f"{value:.1f}")
              for i, value in enumerate(trace, start=1))]


def _emit_econ(result: EconResult, fmt: str):
    r = result.discount_rate
    if fmt == "json":
        return {
            "break_even_period": result.break_even_period,
            "cash_flows": [_money(v) for v in result.cash_flows],
            "discount_rate": _rate(r),
            "irr": None if result.irr is None else _rate(result.irr, 6),
            "line_deltas": [
                {"name": d.name, "base": _money(d.base),
                 "adjusted": _money(d.adjusted), "pct": _rate(d.pct),
                 "delta": _money(d.delta)}
                for d in result.line_deltas
            ],
            "npv": _money(result.npv),
        }
    header = ("period", "cash_flow", "discounted", "cumulative")
    money = ",.2f" if fmt == "table" else ".2f"
    periods = []
    cumulative = 0.0
    for t, flow in enumerate(result.cash_flows, start=1):
        cumulative += flow
        periods.append((t, format(_money(flow), money),
                        format(_money(flow * (1.0 + r) ** -t), money),
                        format(_money(cumulative), money)))
    if fmt == "csv":
        return [header, *periods]
    irr_text = "undefined" if result.irr is None else f"{result.irr:.6f}"
    columns = "  {:>6}  {:>13}  {:>13}  {:>13}"
    out = ["cash-flow evaluation",
           f"  npv:               {_money(result.npv):,.2f}",
           f"  irr_per_period:    {irr_text}",
           f"  break_even_period: {result.break_even_period or 'none'}",
           f"  discount_rate:     {r:g}",
           "",
           *(columns.format(*row) for row in (header, *periods))]
    changed = [d for d in result.line_deltas if d.delta != 0.0]
    if changed:
        columns = "  {:<22}  {:>13}  {:>13}  {:>9}  {:>13}"
        out += ["", "  adjusted inputs",
                columns.format("name", "base", "adjusted", "pct", "delta"),
                *(columns.format(d.name, f"{_money(d.base):,.2f}",
                                 f"{_money(d.adjusted):,.2f}",
                                 f"{d.pct * 100:+.2f}%", f"{_money(d.delta):,.2f}")
                  for d in changed)]
    return out


def _emit_sensitivity(base_npv: float, rows, fmt: str):
    """``rows`` are (parameter, pct, first, last, delta_npv, delta_pct_of_base)."""
    if fmt == "json":
        return {
            "base_npv": _money(base_npv),
            "rows": [
                {"parameter": parameter, "pct": _rate(pct),
                 "first": first, "last": last, "delta_npv": _money(delta),
                 "delta_pct_of_base": None if frac is None else _rate(frac)}
                for parameter, pct, first, last, delta, frac in rows
            ],
        }
    if fmt == "csv":
        return [("parameter", "pct", "first", "last", "delta_npv",
                 "delta_pct_of_base"),
                *((parameter, f"{pct:g}", first, last, f"{_money(delta):.2f}",
                   "" if frac is None else f"{frac:.6f}")
                  for parameter, pct, first, last, delta, frac in rows)]
    columns = "  {:<24}  {:>8}  {:>9}  {:>14}  {:>11}"
    return [f"sensitivity of npv (base {_money(base_npv):,.2f})",
            "",
            columns.format("parameter", "pct", "periods", "delta_npv",
                           "pct_of_base"),
            *(columns.format(parameter, f"{pct * 100:+.4g}%", f"{first}-{last}",
                             f"{_money(delta):+,.2f}",
                             "n/a" if frac is None else f"{frac * 100:+.2f}%")
              for parameter, pct, first, last, delta, frac in rows)]


def _emit_bom(entries, discrepancies, expected_given: bool, fmt: str):
    """``entries`` are the (label, value, kind) figures of :func:`_scalars`."""
    if fmt == "csv":
        entries = entries + [
            (f"discrepancy.{d.label}.{part}", getattr(d, part), "money")
            for d in discrepancies for part in ("computed", "expected", "delta")]
    view = _scalars("manufacturing cost summary", entries, fmt)
    if fmt == "json":
        view["discrepancies"] = [
            {"label": d.label, "computed": _money(d.computed),
             "expected": _money(d.expected), "delta": _money(d.delta)}
            for d in discrepancies
        ]
    elif fmt == "table" and expected_given:
        if discrepancies:
            view.append("  figures that differ from the supplied expected values:")
            view += [f"    {d.label}: computed {_money(d.computed):,.2f}, "
                     f"expected {_money(d.expected):,.2f} "
                     f"(delta {_money(d.delta):+,.2f})"
                     for d in discrepancies]
        else:
            view.append("  all supplied expected values match")
    return view


def _emit_concept(scores, fmt: str):
    """``scores`` are the (concept, total, rank) of :func:`concept_score`."""
    if fmt == "json":
        return {"scores": [
            {"concept": name, "total": _rate(total), "rank": rank}
            for name, total, rank in scores
        ]}
    header = ("concept", "total", "rank")
    rows = [(name, f"{total:.4f}", rank) for name, total, rank in scores]
    if fmt == "csv":
        return [header, *rows]
    columns = "  {2:>4}  {0:<20}  {1:>8}"  # table columns: rank, concept, total
    return ["concept ranking", columns.format(*header),
            *(columns.format(*row) for row in sorted(rows, key=lambda r: r[2]))]


def _emit_risk(threshold: int, rated, fmt: str):
    """``rated`` are (RiskItem, score, quadrant) triples."""
    header = ("code", "description", "category", "probability", "impact",
              "score", "quadrant")
    rows = [(item.code, item.description, item.category, item.probability,
             item.impact, score, quadrant)
            for item, score, quadrant in rated]
    if fmt == "json":
        return {"threshold": threshold,
                "items": [dict(zip(header, row)) for row in rows]}
    if fmt == "csv":
        return [header, *rows]
    # table columns: code, p, i, score, quadrant, category, description
    columns = "  {0:<5} {3:>2} {4:>2} {5:>5}  {6:<8}  {2:<22}  {1}"
    return [f"risk register (threshold {threshold})",
            columns.format("code", "description", "category", "p", "i",
                           "score", "quadrant"),
            *(columns.format(*row) for row in rows)]


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValidationError(
            f"unsupported --format {fmt!r}; choose from {', '.join(FORMATS)}")


def emit_report(view, fmt: str) -> bytes:
    """Serialize a report view in ``fmt``: a dict as JSON, rows as CSV, lines
    as a table; identical views give identical bytes."""
    _check_format(fmt)
    if fmt == "json":
        text = json.dumps(view, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(view)
        text = buf.getvalue()
    else:
        text = "\n".join(view) + "\n"
    return text.encode("utf-8")


# ---------------------------------------------------------------------------
# parser and entry point

# group -> (help, ((command, help, handler), ...)); argparse lists them in order
_COMMANDS = {
    "anc": ("adaptive noise cancellation", (
        ("simulate", "run an adaptive cancellation simulation", _cmd_anc_simulate),
    )),
    "econ": ("cash-flow economics", (
        ("npv", "evaluate a cash-flow model", _cmd_econ_eval),
        ("scenario", "evaluate a model with scenario adjustments", _cmd_econ_eval),
        ("sensitivity", "one-at-a-time NPV sensitivity rows", _cmd_econ_sensitivity),
    )),
    "cost": ("bill-of-materials costing", (
        ("bom", "roll up a BOM into a manufacturing cost summary", _cmd_cost_bom),
    )),
    "plan": ("concept scoring, risk, market sizing", (
        ("concept", "score concepts against weighted criteria", _cmd_plan_concept),
        ("risk", "score and map a risk register", _cmd_plan_risk),
        ("market", "top-down market size and profit estimate", _cmd_plan_market),
    )),
}


# Built once per process: building takes longer than parsing and running
# most business commands, and the fixed ``prog`` keeps every output the same.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hushkit",
        description="Noise-control simulation and product-economics toolkit.")
    groups = parser.add_subparsers(dest="group", required=True,
                                   metavar="{" + ",".join(_COMMANDS) + "}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the JSON config file")
    common.add_argument("--format", default="table",
                        help="report format: table, json, or csv (default: table)")
    common.add_argument("--output", default=None,
                        help="write the report to this file instead of stdout")

    for group, (group_help, commands) in _COMMANDS.items():
        subs = groups.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True,
            metavar="{" + ",".join(name for name, _, _ in commands) + "}")
        for name, text, handler in commands:
            sub = subs.add_parser(name, parents=[common], help=text)
            if handler is _cmd_econ_eval:
                sub.add_argument("--require-irr", action="store_true",
                                 help="treat an undefined IRR as a numerical failure")
                sub.add_argument("--discounted-breakeven", action="store_true",
                                 help="report the discounted break-even period")
            sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_format(args.format)
        view, code = args.handler(args)
        payload = emit_report(view, args.format)
        if args.output:
            Path(args.output).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


def entrypoint() -> None:
    sys.exit(main())
