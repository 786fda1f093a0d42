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
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .costing import (OverheadRates, assembly_cost, bom_rollup,
                      check_discrepancies, cost_reduction_report, dfa_index,
                      load_assembly_csv, load_bom_csv, round_half_away)
from .econ import (Adjustment, EconResult, ExpenseLine, ModelSpec, SalesBlock,
                   discounted_flows, evaluate, sensitivity)
from .errors import ValidationError
from .planning import (DEFAULT_RISK_THRESHOLD, MarketParams,
                       check_risk_threshold, concept_score, load_concept_csv,
                       load_risk_csv, market_size_estimate, risk_score_and_map)

if TYPE_CHECKING:
    from .anc import AncResult
    from .signals import FirPath

FORMATS = ("table", "json", "csv")

_NUM = (int, float)
_PLAIN = (str, int, float, list, dict, str | list)

# `anc simulate`'s library names stay attributes of this module (PEP 562),
# resolved through the package, which imports their modules on first use.
_ANC_NAMES = ("anc_run", "generate_tone", "generate_broadband")


def __getattr__(name):
    if name in _ANC_NAMES:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# config schemas: one table of (name, kind, default) fields per JSON object
#
# A kind is str, int, float (any JSON number, read as a float), list, dict or
# str | list; a table or a flat dataclass for a nested object, which errors
# name by its field; [table or dataclass] for a list of such objects, item i
# named `name[i]`; or {tag: table} for objects told apart by their "kind".
# Tables read as namespaces, flat dataclasses as instances whose fields are
# all required. A default of None marks an optional field; in `anc simulate`
# an omitted option takes the AncConfig default.

_REQUIRED = object()

_ADJUSTMENT = (("target", str, _REQUIRED), ("pct", float, _REQUIRED),
               ("first", int, None), ("last", int, None))
_MODEL = (("horizon", int, _REQUIRED), ("discount_rate", float, _REQUIRED),
          ("expenses", [ExpenseLine], _REQUIRED), ("sales", SalesBlock, _REQUIRED))

_SCHEMAS = {
    "anc config": (
        ("algorithm", str, _REQUIRED), ("duration_samples", int, _REQUIRED),
        ("rng_seed", int, _REQUIRED), ("sample_rate_hz", float, 8000.0),
        ("filter_length", int, None), ("step_size", float, None),
        ("leak_factor", float, None), ("secondary_estimate", str | list, "exact"),
        ("noise", {
            "tone": (("kind", str, _REQUIRED), ("freq_hz", float, _REQUIRED),
                     ("amplitude", float, 1.0), ("phase_rad", float, 0.0)),
            "broadband": (("kind", str, _REQUIRED), ("low_hz", float, _REQUIRED),
                          ("high_hz", float, _REQUIRED)),
        }, _REQUIRED),
        ("primary_path", list, _REQUIRED), ("secondary_path", list, _REQUIRED)),
    "econ config": (("model", _MODEL, _REQUIRED), ("adjustments", [_ADJUSTMENT], ())),
    "sensitivity config": (("model", _MODEL, _REQUIRED),
                           ("rows", [_ADJUSTMENT], _REQUIRED)),
    "cost config": (
        ("bom_csv", str, _REQUIRED), ("shipment", float, _REQUIRED),
        ("overhead_rates", OverheadRates, _REQUIRED), ("warranty", float, _REQUIRED),
        ("overhead_override", float, None),
        ("assembly", (("ops_csv", str, _REQUIRED), ("hourly_rate", float, _REQUIRED)),
         None),
        ("dfa", (("min_parts", int, _REQUIRED),), None),
        ("reduction", (("old_total", float, _REQUIRED), ("new_total", float, _REQUIRED)),
         None),
        ("expected", dict, None)),
    "concept config": (("matrix_csv", str, _REQUIRED),),
    "risk config": (("register_csv", str, _REQUIRED),
                    ("threshold", int, DEFAULT_RISK_THRESHOLD)),
    "market config": MarketParams,
}

# Field kinds by annotation text (the model modules postpone annotations).
_KINDS = {"str": str, "int": int, "float": float}


@functools.cache
def _table_of(cls):
    return tuple((f.name, _KINDS[f.type], _REQUIRED) for f in fields(cls))


def _read(mapping, context: str, schema):
    """Read the JSON object ``mapping`` by ``schema``; unknown fields are
    errors, which name the object by ``context``."""
    if not isinstance(mapping, dict):
        raise ValidationError(f"{context} must be a JSON object")
    table = schema if isinstance(schema, tuple) else _table_of(schema)
    values = {name: _field(mapping, context, name, kind, default)
              for name, kind, default in table}
    unknown = mapping.keys() - values.keys()
    if unknown:
        raise ValidationError(f"{context}: unknown field '{min(unknown)}'")
    return SimpleNamespace(**values) if table is schema else schema(**values)


def _field(mapping, context: str, name: str, kind, default):
    if name not in mapping:
        if default is _REQUIRED:
            raise ValidationError(f"{context}: missing required field '{name}'")
        return default
    value = mapping[name]
    plain = kind in _PLAIN
    json_type = (_NUM if kind is float else kind if plain
                 else list if isinstance(kind, list) else dict)
    # JSON true/false must not satisfy numeric fields
    if not isinstance(value, json_type) or isinstance(value, bool):
        raise ValidationError(f"{context}: field '{name}' has the wrong type")
    if kind in _NUM:
        # an integer too large for a double is out of range in any field
        try:
            number = float(value)
        except OverflowError:
            raise ValidationError(f"{context}: field '{name}' is out of range") from None
        return number if kind is float else value
    if plain:
        return value
    if isinstance(kind, list):
        return tuple(_read(item, f"{name}[{i}]", kind[0])
                     for i, item in enumerate(value))
    if isinstance(kind, dict):
        tag = _field(value, name, "kind", str, _REQUIRED)
        if tag not in kind:
            raise ValidationError(
                f"{name}: field 'kind' must be {' or '.join(map(repr, kind))}")
        kind = kind[tag]
    return _read(value, name, kind)


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


def _config(args, context: str):
    """The command's config file read by the schema named ``context``."""
    return _read(_load_config(args.config), context, _SCHEMAS[context])


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


def _adjustment(row) -> Adjustment:
    return Adjustment(row.target, row.pct, row.first, row.last)


def _money_fields(record):
    """(label, value, "money") entries of a library record, in field order."""
    return [(f.name, getattr(record, f.name), "money") for f in fields(record)]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report view, exit code)


def _cmd_anc_simulate(args):
    # names are looked up on their modules at call time, so a replaced
    # binding (a tracing wrapper, say) is the one called
    from . import anc, signals

    c = _config(args, "anc config")
    primary = _taps_from(c.primary_path, "primary_path")
    secondary = _taps_from(c.secondary_path, "secondary_path")
    if isinstance(c.secondary_estimate, list):
        estimate = _taps_from(c.secondary_estimate, "secondary_estimate")
    elif c.secondary_estimate == "exact":
        estimate = anc.EXACT
    else:
        raise ValidationError(
            "field 'secondary_estimate' must be \"exact\" or a list of taps")
    options = {name: getattr(c, name)
               for name in ("filter_length", "step_size", "leak_factor")
               if getattr(c, name) is not None}
    config = anc.AncConfig(algorithm=c.algorithm, duration_samples=c.duration_samples,
                           rng_seed=c.rng_seed, secondary_estimate=estimate, **options)

    n, fs = c.duration_samples, c.sample_rate_hz
    if c.noise.kind == "tone":
        noise = signals.generate_tone(c.noise.freq_hz, c.noise.amplitude,
                                      c.noise.phase_rad, n, fs)
    else:
        noise = signals.generate_broadband(c.rng_seed, c.noise.low_hz,
                                           c.noise.high_hz, n, fs)
    result = anc.anc_run(config, noise, primary, secondary)
    return _emit_anc(result, args.format), (2 if result.diverged else 0)


def _cmd_econ_eval(args):
    raw = _load_config(args.config)
    # a bare model is a config without adjustments
    c = _read(raw if "model" in raw else {"model": raw}, "econ config",
              _SCHEMAS["econ config"])
    adjustments = tuple(map(_adjustment, c.adjustments))
    result = evaluate(ModelSpec(**vars(c.model)), adjustments,
                      discounted_breakeven=args.discounted_breakeven)
    return (_emit_econ(result, args.format),
            2 if args.require_irr and result.irr is None else 0)


def _cmd_econ_sensitivity(args):
    c = _config(args, "sensitivity config")
    # a lazy map: each row's Adjustment is checked just before it is scored
    base, rows = sensitivity(ModelSpec(**vars(c.model)), map(_adjustment, c.rows))
    return _emit_sensitivity(base, rows, args.format), 0


def _cmd_cost_bom(args):
    c = _config(args, "cost config")
    lines = load_bom_csv(_resolve(c.bom_csv, args.config))
    summary = bom_rollup(lines, c.shipment, c.overhead_rates, c.warranty,
                         c.overhead_override)
    entries = _money_fields(summary)

    seconds = None
    if c.assembly is not None:
        ops = load_assembly_csv(_resolve(c.assembly.ops_csv, args.config))
        seconds, cost = assembly_cost(ops, c.assembly.hourly_rate)
        entries += [("assembly_seconds", seconds, "money"),
                    ("assembly_cost", cost, "money")]

    if c.dfa is not None:
        if seconds is None:
            raise ValidationError(
                "dfa requires the 'assembly' section for the total assembly time")
        entries.append(("dfa_index", dfa_index(c.dfa.min_parts, seconds), "rate"))
    # `expected` may audit every figure so far, not the reduction ones
    auditable = {label: value for label, value, _ in entries}

    if c.reduction is not None:
        savings, fraction = cost_reduction_report(c.reduction.old_total,
                                                  c.reduction.new_total)
        entries += [("reduction_savings", savings, "money"),
                    ("reduction_fraction", fraction, "rate")]

    discrepancies = ()
    if c.expected is not None:
        expected = _read(c.expected, "expected",
                         tuple((label, float, None) for label in auditable))
        discrepancies = check_discrepancies(sorted(
            (label, auditable[label], value)
            for label, value in vars(expected).items() if value is not None))
    return _emit_bom(entries, discrepancies, c.expected is not None,
                     args.format), 0


def _cmd_plan_concept(args):
    c = _config(args, "concept config")
    matrix = load_concept_csv(_resolve(c.matrix_csv, args.config))
    return _emit_concept(concept_score(matrix), args.format), 0


def _cmd_plan_risk(args):
    c = _config(args, "risk config")
    check_risk_threshold(c.threshold)  # an empty register rates no item
    items = load_risk_csv(_resolve(c.register_csv, args.config))
    rated = [(item, *risk_score_and_map(item, c.threshold)) for item in items]
    return _emit_risk(c.threshold, rated, args.format), 0


def _cmd_plan_market(args):
    estimate = market_size_estimate(_config(args, "market config"))
    return _scalars("market sizing", _money_fields(estimate), args.format), 0


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
    flows = result.cash_flows
    periods = [(t, format(_money(flow), money), format(_money(pv), money),
                format(_money(cumulative), money))
               for t, (flow, pv, cumulative) in enumerate(
                   zip(flows, discounted_flows(flows, r), accumulate(flows)), start=1)]
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


def _emit_sensitivity(base: float, rows, fmt: str):
    """``base`` and ``rows`` as :func:`sensitivity` returns them."""
    if fmt == "json":
        return {
            "base_npv": _money(base),
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
    return [f"sensitivity of npv (base {_money(base):,.2f})",
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


if __name__ == "__main__":
    entrypoint()
