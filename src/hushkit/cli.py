"""Command-line front end: JSON configs in, deterministic reports out.

Exit codes: 0 success, 1 validation failure (of the command line or the
config), 2 numerical failure (divergence, or a missing IRR under
--require-irr; the report is still emitted), 3 I/O failure.

Each command imports the library module it uses when it runs: ``econ``,
``costing``, ``planning``, or ``anc`` and ``signals`` for ``anc simulate``,
the only command that needs numpy. Importing this module loads none of them,
so a cold process loads only its command's module.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import sys
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import FunctionType, SimpleNamespace

from ._records import ValidationError
from ._tables import clean

FORMATS = ("table", "json", "csv")

_NUM = (int, float)

# `anc_run` stays an attribute of this module (PEP 562), resolved through
# the package, which imports its module on first use.
def __getattr__(name):
    if name == "anc_run":
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# config schemas: one table of (name, kind, default) fields per JSON object
#
# A kind is str, int, float (any JSON number, read as a float) or dict;
# a reader function `f(value, context, name)`, which checks any JSON value and
# returns it typed; a table, or the name of an exported record, for a nested
# object, which errors name by its field; [table or record] for a list of
# such objects, item i named `name[i]`; or {tag: table} for objects told
# apart by their "kind". Tables read as namespaces, records as instances,
# made (and checked) as soon as they are read. A record's fields may nest
# records, and its defaults are the schema's: a field without one is
# required. A record's name in place of a field spreads its fields, kinds
# and defaults into the table, read as plain values. A default of None
# marks an optional field; in `plan risk` an omitted option takes the
# library's default. A string may hold no NUL and no lone surrogate. Each
# schema is read through a table built once, on its first read (`_reader`):
# its fields flattened, spreads resolved, each kind resolved to a reader.

_REQUIRED = object()


def _taps(value, context: str, name: str):
    """A path's taps: a non-empty list of numbers, read as a ``FirPath``."""
    if not (isinstance(value, list) and value and all(
            isinstance(v, _NUM) and not isinstance(v, bool) for v in value)):
        raise ValidationError(
            f"{context}: field '{name}' must be a non-empty list of numbers")
    return sys.modules[__package__].FirPath(value)


def _estimate(value, context: str, name: str):
    """``secondary_estimate``: "exact" reads as ``EXACT``, a list as taps."""
    if isinstance(value, list):
        return _taps(value, context, name)
    if value != "exact":
        raise ValidationError(
            f"{context}: field '{name}' must be \"exact\" or a list of taps")
    return sys.modules[__package__].EXACT


_SCHEMAS = {
    "anc config": (
        "AncConfig", ("rng_seed", int, _REQUIRED), ("sample_rate_hz", float, 8000.0),
        ("noise", {
            "tone": (("kind", str, _REQUIRED), ("freq_hz", float, _REQUIRED),
                     ("amplitude", float, 1.0), ("phase_rad", float, 0.0)),
            "broadband": (("kind", str, _REQUIRED), ("low_hz", float, _REQUIRED),
                          ("high_hz", float, _REQUIRED)),
        }, _REQUIRED),
        ("primary_path", _taps, _REQUIRED), ("secondary_path", _taps, _REQUIRED)),
    "econ config": (("model", "ModelSpec", _REQUIRED),
                    ("adjustments", ["Adjustment"], ())),
    "sensitivity config": (("model", "ModelSpec", _REQUIRED),
                           ("rows", ["Adjustment"], _REQUIRED)),
    "cost config": (
        ("bom_csv", str, _REQUIRED), ("shipment", float, _REQUIRED),
        ("overhead_rates", "OverheadRates", _REQUIRED),
        ("warranty", float, _REQUIRED),
        ("overhead_override", float, None),
        ("assembly", (("ops_csv", str, _REQUIRED), ("hourly_rate", float, _REQUIRED)),
         None),
        ("dfa", (("min_parts", int, _REQUIRED),), None),
        ("reduction", (("old_total", float, _REQUIRED), ("new_total", float, _REQUIRED)),
         None),
        ("expected", dict, None)),
    "concept config": (("matrix_csv", str, _REQUIRED),),
    "risk config": (("register_csv", str, _REQUIRED), ("threshold", int, None)),
    "market config": "MarketParams",
}

# Field kinds by annotation text (the model modules postpone annotations).
_KINDS = {"str": str, "int": int, "float": float, "Optional[int]": int,
          "Optional[float]": float, "Optional[FirPath]": _estimate,
          "SalesBlock": "SalesBlock", "Tuple[ExpenseLine, ...]": ["ExpenseLine"]}


@functools.cache
def _record(name: str):
    """(class, field table) of the record (a named tuple) the package exports
    as ``name``, imported once per process: its fields in order, each of the
    kind its annotation names and with its default, if the record gives one."""
    cls = getattr(sys.modules[__package__], name)
    kinds, defaults = cls.__annotations__, cls._field_defaults
    return cls, tuple((field, _KINDS[kinds[field]], defaults.get(field, _REQUIRED))
                      for field in cls._fields)


@functools.cache
def _reader(context: str, schema=None):
    """The reader ``f(mapping)`` of the config object ``context`` by ``schema``
    or its _SCHEMAS entry; a ``schema`` given is hashable, so equal ones share."""
    read = _object(_SCHEMAS[context] if schema is None else schema)
    return lambda mapping: read(mapping, context)


def _object(schema):
    """The reader ``f(mapping, context)`` of a JSON object by ``schema``, over
    its (name, reader, default) fields, spreads resolved, and their names;
    unknown fields are errors, which name the object by ``context``."""
    make, table = ((SimpleNamespace, schema) if isinstance(schema, tuple)
                   else _record(schema))
    fields = tuple((name, _kind(kind), default) for entry in table
                   for name, kind, default in (
                       _record(entry)[1] if isinstance(entry, str) else (entry,)))
    names = frozenset(name for name, _, _ in fields)

    def read(mapping, context: str):
        if not isinstance(mapping, dict):
            raise ValidationError(f"{context} must be a JSON object")
        values = {}
        for name, field, default in fields:
            if name in mapping:
                values[name] = field(mapping[name], context, name)
            elif default is _REQUIRED:
                raise ValidationError(f"{context}: missing required field '{name}'")
            else:
                values[name] = default
        if not names.issuperset(mapping):
            raise ValidationError(
                f"{context}: unknown field '{min(mapping.keys() - names)}'")
        return make(**values)
    return read


def _of(json_type, read=None):
    """The reader of a ``json_type`` field, then read by ``read``, if given."""
    def field(value, context: str, name: str):
        # JSON true/false must not satisfy numeric fields
        if not isinstance(value, json_type) or isinstance(value, bool):
            raise ValidationError(f"{context}: field '{name}' has the wrong type")
        return value if read is None else read(value, context, name)
    return field


def _clean(value: str, context: str, name: str) -> str:
    if not clean(value):
        raise ValidationError(
            f"{context}: field '{name}' holds a NUL or a lone surrogate")
    return value


_PLAIN = {str: _of(str, _clean), int: _of(int), dict: _of(dict),
          float: _of(_NUM, lambda value, context, name: float(value))}


def _kind(kind):
    """The reader ``f(value, context, name)`` of a field of ``kind``."""
    if isinstance(kind, FunctionType):
        return kind
    if isinstance(kind, list):
        item = _object(kind[0])
        return _of(list, lambda value, context, name: tuple(
            item(v, f"{name}[{i}]") for i, v in enumerate(value)))
    if isinstance(kind, dict):
        tagged = {tag: _object(table) for tag, table in kind.items()}

        def read(value, context: str, name: str):
            if "kind" not in value:
                raise ValidationError(f"{name}: missing required field 'kind'")
            tag = _PLAIN[str](value["kind"], name, "kind")
            if tag not in tagged:
                raise ValidationError(
                    f"{name}: field 'kind' must be {' or '.join(map(repr, kind))}")
            return tagged[tag](value, name)
        return _of(dict, read)
    if isinstance(kind, (tuple, str)):
        nested = _object(kind)
        return _of(dict, lambda value, context, name: nested(value, name))
    return _PLAIN[kind]


def _load_config(path_str: str):
    path = Path(path_str)

    def floating(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ValidationError(
                f"{path}: non-finite number {token} is not allowed")
        return value

    def integer(token: str) -> int:
        # every number must fit a double (RFC 8259 section 6), integers too
        try:  # int() fails past its digit limit, float() past the largest double
            value = int(token)
            float(value)
        except (ValueError, OverflowError):
            raise ValidationError(f"{path}: integer of {len(token.lstrip('-'))} "
                                  "digits is out of range") from None
        return value

    try:
        # a missing or unreadable file raises OSError
        value = json.loads(path.read_text(encoding="utf-8"), parse_float=floating,
                           parse_int=integer, parse_constant=floating)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: file is not UTF-8 text") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON is nested too deeply") from None
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return value


def _config(args, context: str):
    """The command's config file read by the schema named ``context``."""
    return _reader(context)(_load_config(args.config))


def _resolve(path_str: str, config_path: str) -> Path:
    """Resolve a file referenced by a config relative to the config itself."""
    # an absolute path_str replaces the base directory
    return Path(config_path).resolve().parent / path_str


# ---------------------------------------------------------------------------
# subcommand handlers: each imports its library module, reads its config,
# calls the library and renders the result as a report view, a dict for json,
# rows for csv or lines for table, which emit_report serializes; each returns
# (view, exit code). Library names are looked up on their modules at call
# time, so a replaced binding (a tracing wrapper, say) is the one called.


def finite(value) -> float:
    """``value`` as a float if it is finite, the one check of every number a
    report carries; otherwise a ValidationError."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"cannot round the non-finite value {value!r}")
    return value


def clear_of_ties(cents: float) -> bool:
    """Whether ``cents``, a figure's absolute value times 100, lies below
    2**51 and more than 2 ulps from a half-cent: there rounding the double to
    cents gives the cents of the Decimal rule of :func:`round_half_away`, and
    so does printing it with two decimals. A non-finite ``cents`` fails.
    """
    # round() gives the same double as the Decimal rule unless the repr is
    # itself a half-cent k.kk5:
    # - round() rounds the exact binary value half to even, quantize() rounds
    #   the repr half up; both end in a correctly rounded decimal-to-double
    #   conversion, so only the cents they pick can differ.
    # - They pick different cents only if the repr is a half-cent h, or h
    #   lies strictly between the value and its repr. While ulp(value) < 0.01
    #   the second cannot happen: h, closer to the value than the repr, would
    #   round-trip too, and the repr, within 0.005 of the value, is no whole
    #   cent and so no shorter than h; repr would have picked h.
    # - A repr of h puts cents within 1.3 ulp(cents) of m + 0.5: the value
    #   is within ulp(value) / 2 of h, and the product rounds once.
    # - cents % 1.0 is exact, and so is its difference from 0.5 wherever
    #   that is small (Sterbenz). cents < 2**51 keeps |value| below 2**46,
    #   where ulp(value) < 0.01; the ulp test alone refuses cents >= 2**50.
    # Formatting with ".2f" rounds the exact binary value correctly, as
    # round() does, and ulp(value) < 0.01 lets the rounded double print as
    # the cents it was rounded to; only the sign of a zero can differ.
    return cents < 2.0 ** 51 and abs(cents % 1.0 - 0.5) > 2.0 * math.ulp(cents)


def round_half_away(value: float) -> float:
    """Round to cents with ties going away from zero (display convention).

    What is rounded is the double's shortest round-trip decimal, its
    ``repr``: 2.675 is stored as 2.674999999999999822... and rounds to 2.68.
    A figure that rounds to zero is ``+0.0``, never ``-0.0``, so no report
    prints a signed zero. Any finite double rounds; a non-finite value is a
    ValidationError.
    """
    value = finite(value)
    # ties, near-ties and huge values take the Decimal path
    if clear_of_ties(abs(value) * 100.0):
        return round(value, 2) + 0.0
    from decimal import ROUND_HALF_UP, Context, Decimal
    # A finite double has at most 309 integer digits, so this precision holds
    # any of them quantized to cents; the default 28-digit context fails from
    # about 1e26 on.
    return float(Decimal(repr(value)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP, context=Context(prec=400))) + 0.0


def _rate(value, ndigits: int = 9) -> float:
    return round(finite(value), ndigits) + 0.0


def _finite_all(values, scale: float = 1.0) -> None:
    """Check each of ``values`` times ``scale`` with :func:`finite`, in order.
    A handler checks every figure that any of its formats prints before it
    renders one, so all formats fail alike. A finite scaled sum of the sizes
    clears them all in one pass, since rounding is monotonic."""
    if not math.isfinite(sum(map(abs, values)) * scale):
        for value in values:
            finite(value * scale)


def _cash(value, fmt: str, sign: str = "") -> str:
    """A money cell: cents, grouped by thousands in table only; ``sign`` "+"
    signs a change. Printed from the double itself, as ``round_half_away``
    would round it, unless it is at or next to a half-cent tie or huge."""
    spec = sign + ("," if fmt == "table" else "") + ".2f"
    cents = abs(value) * 100.0
    if clear_of_ties(cents):  # under half a cent prints as an unsigned 0.00
        return format(value if cents > 0.5 else 0.0, spec)
    return format(round_half_away(value), spec)


def _block(title: str, pairs, width: int):
    """A table's title and its `label: text` lines, labels padded to ``width``."""
    return [title, *(f"  {label + ':':<{width}} {text}" for label, text in pairs)]


def _grid(template: str, header, rows):
    """A column table: the header and every row formatted by ``template``."""
    return [template.format(*row) for row in (header, *rows)]


def _scalars(title: str, entries, fmt: str):
    """View of a `label: value` block of (label, value) entries."""
    rates = ("dfa_index", "reduction_fraction")  # six decimals; the rest are money
    if fmt == "json":
        return {label: _rate(v, 6) if label in rates else round_half_away(v)
                for label, v in entries}
    cells = [(label, f"{_rate(v, 6):.6f}" if label in rates else _cash(v, fmt))
             for label, v in entries]
    if fmt == "csv":
        return [("field", "value"), *cells]
    return _block(title, cells, 21)


def _cmd_anc_simulate(args):
    from . import anc, signals

    c = _config(args, "anc config")
    config = anc.AncConfig._make(getattr(c, name) for name in anc.AncConfig._fields)
    signals._seed(c.rng_seed)  # tone noise takes no seed, but it is checked all the same

    n, fs = c.duration_samples, c.sample_rate_hz
    if c.noise.kind == "tone":
        noise = signals.generate_tone(c.noise.freq_hz, c.noise.amplitude,
                                      c.noise.phase_rad, n, fs)
    else:
        noise = signals.generate_broadband(c.rng_seed, c.noise.low_hz,
                                           c.noise.high_hz, n, fs)
    result = anc.anc_run(config, noise, c.primary_path, c.secondary_path)
    code = 2 if result.diverged else 0
    trace = [_rate(v, 4) for v in result.attenuation_trace_db]
    steady = _rate(result.steady_state_attenuation_db, 4)
    if args.format == "json":
        return {
            "attenuation_trace_db": trace,
            "diverged": bool(result.diverged),
            "n_samples": len(result.residual),
            "steady_state_attenuation_db": steady,
        }, code
    header = ("window", "attenuation_db")
    windows = list(enumerate(trace, start=1))
    if args.format == "csv":
        return [header, *((i, f"{value:.4f}") for i, value in windows)], code
    summary = [("samples", len(result.residual)), ("windows", len(trace)),
               ("diverged", "yes" if result.diverged else "no"),
               ("steady_state_attenuation_db", f"{_rate(steady, 1):.1f}")]
    grid = _grid("  {:>8}  {:>14}", header,
                 [(i, f"{_rate(value, 1):.1f}") for i, value in windows])
    return [*_block("noise-control simulation", summary, 9), "", *grid], code


def _cmd_econ_eval(args):
    from . import econ

    raw = _load_config(args.config)
    # a bare model is a config without adjustments
    c = _reader("econ config")(raw if "model" in raw else {"model": raw})
    result = econ.evaluate(c.model, c.adjustments,
                           discounted_breakeven=args.discounted_breakeven)
    code = 2 if args.require_irr and result.irr is None else 0
    r, flows = c.model.discount_rate, result.cash_flows
    changed = [d for d in result.line_deltas if d.delta != 0.0]
    _finite_all([*flows, *(v for d in result.line_deltas for v in d[1:]), result.npv,
                 *accumulate(flows)])
    _finite_all([d.pct for d in changed], 100.0)  # the table's percentages
    if r < 0:  # at r >= 0 no discounted flow is larger than its flow
        _finite_all(econ.discounted_flows(flows, r))
    fmt = args.format
    if fmt == "json":
        return {
            "break_even_period": result.break_even_period,
            "cash_flows": [round_half_away(v) for v in result.cash_flows],
            "discount_rate": _rate(r),
            "irr": None if result.irr is None else _rate(result.irr, 6),
            "line_deltas": [
                {"name": d.name, "base": round_half_away(d.base),
                 "adjusted": round_half_away(d.adjusted), "pct": _rate(d.pct),
                 "delta": round_half_away(d.delta)}
                for d in result.line_deltas
            ],
            "npv": round_half_away(result.npv),
        }, code
    header = ("period", "cash_flow", "discounted", "cumulative")
    periods = [(t, _cash(flow, fmt), _cash(pv, fmt), _cash(cumulative, fmt))
               for t, (flow, pv, cumulative) in enumerate(
                   zip(flows, econ.discounted_flows(flows, r), accumulate(flows)),
                   start=1)]
    if fmt == "csv":
        return [header, *periods], code
    summary = [("npv", _cash(result.npv, fmt)),
               ("irr_per_period", "undefined" if result.irr is None
                else f"{_rate(result.irr, 6):.6f}"),
               ("break_even_period", result.break_even_period or "none"),
               ("discount_rate", f"{r + 0.0:g}")]
    view = [*_block("cash-flow evaluation", summary, 18), "",
            *_grid("  {:>6}  {:>13}  {:>13}  {:>13}", header, periods)]
    if changed:
        view += ["", "  adjusted inputs",
                 *_grid("  {:<22}  {:>13}  {:>13}  {:>9}  {:>13}",
                        ("name", "base", "adjusted", "pct", "delta"),
                        [(d.name, _cash(d.base, fmt), _cash(d.adjusted, fmt),
                          f"{_rate(d.pct * 100, 2):+.2f}%", _cash(d.delta, fmt))
                         for d in changed])]
    return view, code


def _cmd_econ_sensitivity(args):
    from . import econ

    c = _config(args, "sensitivity config")
    base, rows = econ.sensitivity(c.model, c.rows)
    _finite_all([base, *(row[4] for row in rows)])
    _finite_all([row[1] for row in rows], 100.0)  # the table's percentages
    _finite_all([row[5] for row in rows if row[5] is not None], 100.0)
    fmt = args.format
    header = ("parameter", "pct", "first", "last", "delta_npv", "delta_pct_of_base")
    if fmt == "json":
        return {
            "base_npv": round_half_away(base),
            "rows": [dict(zip(header, (parameter, _rate(pct), first, last,
                                       round_half_away(delta),
                                       None if frac is None else _rate(frac))))
                     for parameter, pct, first, last, delta, frac in rows],
        }, 0
    if fmt == "csv":
        return [header, *((parameter, f"{pct + 0.0:g}", first, last, _cash(delta, fmt),
                           "" if frac is None else f"{_rate(frac, 6):.6f}")
                          for parameter, pct, first, last, delta, frac in rows)], 0
    return [f"sensitivity of npv (base {_cash(base, fmt)})", "",
            *_grid("  {:<24}  {:>8}  {:>9}  {:>14}  {:>11}",
                   ("parameter", "pct", "periods", "delta_npv", "pct_of_base"),
                   [(parameter, f"{finite(pct * 100) + 0.0:+.4g}%", f"{first}-{last}",
                     _cash(delta, fmt, "+"),
                     "n/a" if frac is None else f"{_rate(frac * 100, 2):+.2f}%")
                    for parameter, pct, first, last, delta, frac in rows])], 0


def _cmd_cost_bom(args):
    from . import costing

    c = _config(args, "cost config")
    lines = costing.load_bom_csv(_resolve(c.bom_csv, args.config))
    summary = costing.bom_rollup(lines, c.shipment, c.overhead_rates, c.warranty,
                                 c.overhead_override)
    entries = list(summary._asdict().items())

    seconds = None
    if c.assembly is not None:
        ops = costing.load_assembly_csv(_resolve(c.assembly.ops_csv, args.config))
        seconds, cost = costing.assembly_cost(ops, c.assembly.hourly_rate)
        entries += [("assembly_seconds", seconds), ("assembly_cost", cost)]

    if c.dfa is not None:
        if seconds is None:
            raise ValidationError(
                "dfa requires the 'assembly' section for the total assembly time")
        entries.append(("dfa_index", costing.dfa_index(c.dfa.min_parts, seconds)))
    # `expected` may audit every figure so far, not the reduction ones
    auditable = dict(entries)

    if c.reduction is not None:
        savings, fraction = costing.cost_reduction_report(c.reduction.old_total,
                                                          c.reduction.new_total)
        entries += [("reduction_savings", savings), ("reduction_fraction", fraction)]

    discrepancies = ()
    if c.expected is not None:
        expected = _reader("expected", tuple((label, float, None)
                                             for label in auditable))(c.expected)
        discrepancies = costing.check_discrepancies(sorted(
            (label, auditable[label], value)
            for label, value in vars(expected).items() if value is not None))
    fmt = args.format
    if fmt == "csv":
        entries += [(f"discrepancy.{d.label}.{part}", getattr(d, part))
                    for d in discrepancies for part in ("computed", "expected", "delta")]
    view = _scalars("manufacturing cost summary", entries, fmt)
    if fmt == "json":
        view["discrepancies"] = [
            {"label": d.label, "computed": round_half_away(d.computed),
             "expected": round_half_away(d.expected), "delta": round_half_away(d.delta)}
            for d in discrepancies
        ]
    elif fmt == "table" and c.expected:
        if discrepancies:
            view.append("  figures that differ from the supplied expected values:")
            view += [f"    {d.label}: computed {_cash(d.computed, fmt)}, "
                     f"expected {_cash(d.expected, fmt)} "
                     f"(delta {_cash(d.delta, fmt, '+')})"
                     for d in discrepancies]
        else:
            view.append("  all supplied expected values match")
    return view, 0


def _cmd_plan_concept(args):
    from . import planning

    c = _config(args, "concept config")
    scores = planning.concept_score(
        planning.load_concept_csv(_resolve(c.matrix_csv, args.config)))
    header = ("concept", "total", "rank")
    if args.format == "json":
        return {"scores": [dict(zip(header, (name, _rate(total), rank)))
                           for name, total, rank in scores]}, 0
    rows = [(name, f"{_rate(total, 4):.4f}", rank) for name, total, rank in scores]
    if args.format == "csv":
        return [header, *rows], 0
    # table columns: rank, concept, total
    return ["concept ranking",
            *_grid("  {2:>4}  {0:<20}  {1:>8}", header,
                   sorted(rows, key=lambda row: row[2]))], 0


def _cmd_plan_risk(args):
    from . import planning

    c = _config(args, "risk config")
    threshold = planning.DEFAULT_RISK_THRESHOLD if c.threshold is None else c.threshold
    planning.check_risk_threshold(threshold)  # an empty register rates no item
    items = planning.load_risk_csv(_resolve(c.register_csv, args.config))
    header = ("code", "description", "category", "probability", "impact",
              "score", "quadrant")
    rows = [(item.code, item.description, item.category, item.probability,
             item.impact, *planning.risk_score_and_map(item, threshold))
            for item in items]
    if args.format == "json":
        return {"threshold": threshold,
                "items": [dict(zip(header, row)) for row in rows]}, 0
    if args.format == "csv":
        return [header, *rows], 0
    # table columns: code, p, i, score, quadrant, category, description
    return [f"risk register (threshold {threshold})",
            *_grid("  {0:<5} {3:>2} {4:>2} {5:>5}  {6:<8}  {2:<22}  {1}",
                   ("code", "description", "category", "p", "i", "score", "quadrant"),
                   rows)], 0


def _cmd_plan_market(args):
    from . import planning

    estimate = planning.market_size_estimate(_config(args, "market config"))
    return _scalars("market sizing", estimate._asdict().items(), args.format), 0


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValidationError(
            f"unsupported --format {fmt!r}; choose from {', '.join(FORMATS)}")


# how json.dumps writes a leaf, by its exact type
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
           float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
           bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it,
    a tuple as a list, but without its pure-Python encoder; a leaf not of
    exactly a type of _LEAVES is a TypeError. A container writes its leaves
    itself, which saves a call per leaf."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = indent + "  "
    if type(value) is dict:
        items, ends = [encode_basestring_ascii(key) + ": " + (
            leaf(item) if (leaf := _LEAVES.get(type(item))) else _json(item, inner))
            for key, item in sorted(value.items())], "{}"
    elif type(value) is list or type(value) is tuple:
        items, ends = [leaf(item) if (leaf := _LEAVES.get(type(item))) else _json(item, inner)
                       for item in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def emit_report(view, fmt: str) -> bytes:
    """Serialize a report view in ``fmt``: a dict as JSON, rows as CSV, lines
    as a table; identical views give identical bytes."""
    _check_format(fmt)
    if fmt == "json":
        text = _json(view) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(view)
        text = buf.getvalue()
    else:
        text = "\n".join(view) + "\n"
    return text.encode("utf-8")


# ---------------------------------------------------------------------------
# command line and entry point

_ABOUT = "Noise-control simulation and product-economics toolkit."
# option -> help, shown as `--name NAME`; then the flags of econ npv and scenario
_OPTIONS = {"config": "path to the JSON config file (required)",
            "format": "report format: table, json, or csv (default: table)",
            "output": "write the report to this file instead of stdout"}
_EVAL_FLAGS = {"require-irr": "treat an undefined IRR as a numerical failure",
               "discounted-breakeven": "report the discounted break-even period"}

# group -> (help, {command: (help, handler, flags)}); help lists them in order
_COMMANDS = {
    "anc": ("adaptive noise cancellation", {
        "simulate": ("run an adaptive cancellation simulation", _cmd_anc_simulate, {}),
    }),
    "econ": ("cash-flow economics", {
        "npv": ("evaluate a cash-flow model", _cmd_econ_eval, _EVAL_FLAGS),
        "scenario": ("evaluate a model with scenario adjustments", _cmd_econ_eval,
                     _EVAL_FLAGS),
        "sensitivity": ("one-at-a-time NPV sensitivity rows", _cmd_econ_sensitivity, {}),
    }),
    "cost": ("bill-of-materials costing", {
        "bom": ("roll up a BOM into a manufacturing cost summary", _cmd_cost_bom, {}),
    }),
    "plan": ("concept scoring, risk, market sizing", {
        "concept": ("score concepts against weighted criteria", _cmd_plan_concept, {}),
        "risk": ("score and map a risk register", _cmd_plan_risk, {}),
        "market": ("top-down market size and profit estimate", _cmd_plan_market, {}),
    }),
}


# Not argparse: importing it (and gettext) and building its parsers slow a process.
def _read_argv(argv):
    """The args of ``hushkit <group> <command> [--name value | --name=value ...]``,
    the last of a repeated option kept; for -h or --help anywhere, the args of
    the help of the deepest level named, a table view written to stdout."""
    words = [word for word in argv if word not in ("-h", "--help")]
    group, command = (*words, "", "")[:2]
    group_help, commands = _COMMANDS.get(group, ("", {}))
    row = commands.get(command)
    if len(words) < len(argv):
        usage = f"{group if commands else '<group>'} {command if row else '<command>'}"
        entries = ([*((f"--{o} {o.upper()}", text) for o, text in _OPTIONS.items()),
                    *((f"--{flag}", text) for flag, text in row[2].items())] if row else
                   [(name, v[0]) for name, v in (commands or _COMMANDS).items()])
        view = [f"usage: hushkit {usage} [option ...]", "", row[0] if row else group_help
                or _ABOUT, "", *(f"  {name:<24}{text}" for name, text in entries)]
        return SimpleNamespace(handler=lambda _: (view, 0), format="table", output=None)
    if row is None:
        kind, given = (f"{group} command", command) if commands else ("group", group)
        raise ValidationError(f"{kind} must be one of {', '.join(commands or _COMMANDS)}"
                              + (f", not {given!r}" if given else ""))
    opts = dict(config=None, format="table", output=None, **dict.fromkeys(row[2], False))
    for token in (tokens := iter(words[2:])):
        option, eq, value = token.partition("=")
        name = option[2:] if option.startswith("--") else ""
        if name in row[2] and not eq:
            value = True
        elif name not in _OPTIONS:
            raise ValidationError(f"{group} {command}: unrecognized argument {token!r}")
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                raise ValidationError(f"option --{name} needs a value")
        if name in ("config", "output") and not _is_path(value):
            raise ValidationError(f"option --{name} holds a NUL or a character "
                                  "no file path can encode")
        opts[name] = value
    if opts["config"] is None:
        raise ValidationError("option --config is required")
    return SimpleNamespace(handler=row[1],
                           **{name.replace("-", "_"): v for name, v in opts.items()})


def _is_path(text: str) -> bool:
    """Whether ``text`` encodes to a file path: it holds no NUL and no lone
    surrogate but those that stand for the undecodable bytes of a real argv."""
    try:
        return b"\0" not in os.fsencode(text)
    except UnicodeEncodeError:
        return False


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        _check_format(args.format)
        view, code = args.handler(args)
        payload = emit_report(view, args.format)
        if args.output:
            Path(args.output).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 3
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
