"""Command-line interface: exit codes, formats, config handling, determinism."""
import copy
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_golden import SHIPPED, SIGNED_ZERO

import hushkit
from hushkit import ValidationError
from hushkit.anc import MAX_DURATION_SAMPLES, MAX_FILTER_LENGTH
from hushkit.cli import (_COMMANDS, _OPTIONS, _SCHEMAS, FORMATS, _rate, _record,
                         emit_report, main)
from hushkit.costing import ASSEMBLY_COLUMNS, BOM_COLUMNS
from hushkit.econ import MAX_HORIZON


def run(argv, tmp_path, name="out"):
    """Run the CLI in-process, returning (exit code, payload bytes)."""
    out = tmp_path / f"{name}.bin"
    code = main([*argv, "--output", str(out)])
    payload = out.read_bytes() if out.exists() else b""
    return code, payload


def run_json(argv, tmp_path, name="out"):
    code, payload = run([*argv, "--format", "json"], tmp_path, name)
    return code, json.loads(payload) if payload else None


# -------------------------------------------------------------------- econ

def test_econ_npv_json_goldens(configs_dir, tmp_path):
    code, doc = run_json(
        ["econ", "npv", "--config", str(configs_dir / "econ_base.json")],
        tmp_path)
    assert code == 0
    assert doc["npv"] == pytest.approx(4_050_145.63, abs=0.005)
    assert doc["irr"] == pytest.approx(0.513559, abs=1e-6)
    assert doc["break_even_period"] == 5
    assert doc["discount_rate"] == 0.025
    assert len(doc["cash_flows"]) == 24
    assert doc["cash_flows"][0] == -70_000.0


def test_econ_csv_shape(configs_dir, tmp_path):
    code, payload = run(
        ["econ", "npv", "--config", str(configs_dir / "econ_base.json"),
         "--format", "csv"], tmp_path)
    assert code == 0
    rows = list(csv.reader(io.StringIO(payload.decode())))
    assert rows[0] == ["period", "cash_flow", "discounted", "cumulative"]
    assert len(rows) == 25
    period1 = rows[1]
    assert float(period1[1]) == -70_000.0
    assert float(period1[2]) == pytest.approx(-70_000.0 / 1.025, abs=0.005)
    assert float(period1[3]) == -70_000.0


def test_discounted_breakeven_flag(configs_dir, tmp_path):
    code, doc = run_json(
        ["econ", "npv", "--config", str(configs_dir / "econ_base.json"),
         "--discounted-breakeven"], tmp_path)
    assert code == 0
    assert doc["break_even_period"] == 6


def test_require_irr_failure_still_writes_report(configs_dir, tmp_path):
    code, doc = run_json(
        ["econ", "npv", "--config", str(configs_dir / "econ_worst_case.json"),
         "--require-irr"], tmp_path)
    assert code == 2
    assert doc["irr"] is None
    assert doc["npv"] == pytest.approx(-542_295.19, abs=0.005)
    assert doc["break_even_period"] is None


def test_bare_and_wrapped_model_files_are_equivalent(configs_dir, tmp_path):
    bare = configs_dir / "econ_base.json"
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps(
        {"model": json.loads(bare.read_text()), "adjustments": []}))
    _, payload_bare = run(
        ["econ", "npv", "--config", str(bare), "--format", "json"],
        tmp_path, "bare")
    _, payload_wrapped = run(
        ["econ", "npv", "--config", str(wrapped), "--format", "json"],
        tmp_path, "wrapped")
    assert payload_bare == payload_wrapped


def test_npv_and_scenario_commands_accept_the_same_config(configs_dir, tmp_path):
    config = str(configs_dir / "econ_best_case.json")
    _, via_npv = run(["econ", "npv", "--config", config, "--format", "json"],
                     tmp_path, "npv")
    _, via_scenario = run(
        ["econ", "scenario", "--config", config, "--format", "json"],
        tmp_path, "scenario")
    assert via_npv == via_scenario
    doc = json.loads(via_npv)
    assert doc["npv"] == pytest.approx(10_031_183.31, abs=0.005)


def test_scenario_reports_line_deltas(configs_dir, tmp_path):
    code, doc = run_json(
        ["econ", "scenario",
         "--config", str(configs_dir / "econ_best_case.json")], tmp_path)
    assert code == 0
    deltas = {d["name"]: d for d in doc["line_deltas"]}
    assert deltas["Development"]["pct"] == pytest.approx(-0.30, abs=1e-9)
    assert deltas["UNITS"]["adjusted"] == pytest.approx(2550.0, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="cents are rounded from the double product, "
                   "which lands just below the exact half-cent")
def test_an_exact_half_cent_line_delta_rounds_away_from_zero(configs_dir, tmp_path):
    # -71160.90 * 1.05 is exactly -74718.945, a change of exactly -3558.045;
    # half away from zero, they print -74718.95 and -3558.05
    def edit(config):
        config["model"]["expenses"][0]["rate"] = -71160.90  # Development
        config["adjustments"].append({"target": "Development", "pct": 0.05})

    path = _edited_config(configs_dir, tmp_path, "econ_scenario_marketing_shift", (),
                          edit)
    code, doc = run_json(["econ", "scenario", "--config", str(path)], tmp_path)
    assert code == 0
    deltas = {d["name"]: d for d in doc["line_deltas"]}
    assert (deltas["Development"]["adjusted"], deltas["Development"]["delta"]) == (
        -74718.95, -3558.05)


def test_sensitivity_windows_and_row_count(configs_dir, tmp_path):
    code, doc = run_json(
        ["econ", "sensitivity",
         "--config", str(configs_dir / "econ_sensitivity_grid.json")],
        tmp_path)
    assert code == 0
    assert doc["base_npv"] == pytest.approx(4_050_145.63, abs=0.005)
    assert len(doc["rows"]) == 24
    units_rows = [r for r in doc["rows"] if r["parameter"] == "UNITS"]
    assert all((r["first"], r["last"]) == (5, 24) for r in units_rows)
    dev_rows = [r for r in doc["rows"] if r["parameter"] == "Development"]
    assert all((r["first"], r["last"]) == (1, 3) for r in dev_rows)
    dev_minus_30 = next(r for r in dev_rows
                        if r["pct"] == pytest.approx(-0.30, abs=1e-12))
    assert dev_minus_30["delta_npv"] == pytest.approx(42_840.35, abs=0.005)


def test_sensitivity_delta_does_not_cancel_against_a_huge_base(configs_dir, tmp_path):
    # at r = -0.9 the base NPV is ~3.5e29, whose float spacing (~7e13) would
    # swallow a difference of two NPVs; the row's own ΔNPV is
    # 15,000 * (10 + 100 + 1,000)
    doc = json.loads((configs_dir / "econ_sensitivity_grid.json").read_text())
    doc["model"]["discount_rate"] = -0.9
    config = tmp_path / "grid_r_minus_0.9.json"
    config.write_text(json.dumps(doc))
    code, report = run_json(["econ", "sensitivity", "--config", str(config)], tmp_path)
    assert code == 0
    assert report["base_npv"] > 1e29
    dev_minus_30 = next(r for r in report["rows"]
                        if (r["parameter"], r["pct"]) == ("Development", -0.3))
    assert dev_minus_30["delta_npv"] == 16_650_000.0


# ------------------------------------------------------------ signed zero

_GRID_EXPENSES = ("Development", "Testing", "Tooling and Ramp-Up Costs",
                  "Market Introduction", "Ongoing Marketing Costs")


def _rows(lines, *first):
    """The cells of every table line whose first cell is in ``first``."""
    return [cells for cells in (re.split(r"\s{2,}", line.strip()) for line in lines)
            if cells[0] in first]


def _one_row(target, pct):
    return lambda config: config.update(rows=[{"target": target, "pct": pct}])


# case -> (command, shipped config, edit, the figures in the json report,
# {format: (the cells it prints for them, the one text they all read)});
# every figure reads as zero
_SIGNED_ZERO_CASES = {
    # a fraction of about -2.5e-14 of the base NPV
    "sensitivity_tiny_fraction": (
        "econ sensitivity", "econ_sensitivity_grid", _one_row("Development", 1e-9),
        lambda doc: [doc["rows"][0]["delta_pct_of_base"]], {
            "csv": (lambda rows: [rows[1][5]], "0.000000"),
            "table": (lambda lines: [_rows(lines, "Development")[0][4]], "+0.00%")}),
    "sensitivity_negative_zero_pct": (
        "econ sensitivity", "econ_sensitivity_grid", _one_row("Development", -0.0),
        lambda doc: [doc["rows"][0]["pct"]], {
            "csv": (lambda rows: [rows[1][1]], "0"),
            "table": (lambda lines: [_rows(lines, "Development")[0][1]], "+0%")}),
    # the base NPV is ~3.5e29, so every expense row is a fraction ~1e-23
    "sensitivity_huge_base": (
        "econ sensitivity", "econ_sensitivity_grid",
        lambda c: c["model"].update(discount_rate=-0.9),
        lambda doc: [row["delta_pct_of_base"] for row in doc["rows"]
                     if row["parameter"] in _GRID_EXPENSES], {
            "csv": (lambda rows: [row[5] for row in rows if row[0] in _GRID_EXPENSES],
                    "0.000000"),
            "table": (lambda lines: [cells[4] for cells in _rows(lines, *_GRID_EXPENSES)],
                      "+0.00%")}),
    "scenario_tiny_pct": (
        "econ scenario", "econ_scenario_marketing_shift",
        lambda c: c.update(adjustments=[{"target": "Development", "pct": -1e-9}]),
        lambda doc: [next(d["pct"] for d in doc["line_deltas"]
                          if d["name"] == "Development")], {
            "table": (lambda lines: [_rows(lines, "Development")[0][3]], "+0.00%")}),
    "npv_negative_zero_rate": (
        "econ npv", "econ_base", lambda c: c.update(discount_rate=-0.0),
        lambda doc: [doc["discount_rate"]], {
            "table": (lambda lines: [_rows(lines, "discount_rate:")[0][1]], "0")}),
}


def _figure(text: str) -> tuple:
    """(value, half a unit of its last digit) of a printed cell; a
    percentage is read as a fraction."""
    digits = text.rstrip("%").replace(",", "")
    scale = 100.0 if text.endswith("%") else 1.0
    return float(digits) / scale, 0.5 * 10.0 ** -len(digits.partition(".")[2]) / scale


@pytest.mark.parametrize("case", sorted(_SIGNED_ZERO_CASES))
def test_a_figure_that_reads_as_zero_prints_no_sign(case, tmp_path):
    command, name, edit, in_json, printed = _SIGNED_ZERO_CASES[case]
    path = _edited_config(_CONFIGS, tmp_path, name, (), edit)
    reports = {}
    for fmt in FORMATS:
        code, payload = run([*command.split(), "--config", str(path), "--format", fmt],
                            tmp_path, fmt)
        assert code == 0
        text = payload.decode()
        assert SIGNED_ZERO.search(text) is None, fmt
        reports[fmt] = (json.loads(text) if fmt == "json"
                        else list(csv.reader(io.StringIO(text))) if fmt == "csv"
                        else text.splitlines())
    figures = in_json(reports["json"])
    assert all(math.copysign(1.0, f) == 1.0 for f in figures if f == 0.0)
    for fmt, (locate, cell) in printed.items():
        cells = locate(reports[fmt])
        assert cells == [cell] * len(figures)
        # each format prints the figure the json carries
        for text, figure in zip(cells, figures):
            value, half_unit = _figure(text)
            assert abs(value - figure) <= half_unit


@st.composite
def _fixed_point_cells(draw):
    """(value, decimals) of a fixed-point cell: any double, or one near a
    tie or a zero at that many decimals."""
    n = draw(st.sampled_from((1, 2, 4, 6)))
    x = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-10.0 ** -n, max_value=10.0 ** -n),
        st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10),
                  st.integers(-12, 20)),
        st.builds(lambda k, ulps: _nudge((k + 0.5) / 10 ** n, ulps),
                  st.integers(-10**12, 10**12), st.integers(-3, 3))))
    return x, n


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(cell=_fixed_point_cells(), sign=st.sampled_from(("", "+")))
def test_rounding_at_the_printed_precision_changes_only_a_signed_zero(cell, sign):
    # a report formats _rate(value, n) where it prints n decimals, so it
    # rounds once and prints the bytes format(value) would, bar the sign
    x, n = cell
    spec = f"{sign}.{n}f"
    direct = format(x, spec)
    unsigned = direct.replace("-", sign, 1) if float(direct) == 0 else direct
    assert format(_rate(x, n), spec) == unsigned


# --------------------------------------------------------------------- anc

def test_anc_simulate_json(configs_dir, tmp_path):
    code, doc = run_json(
        ["anc", "simulate",
         "--config", str(configs_dir / "anc_tone_2tap.json")], tmp_path)
    assert code == 0
    assert doc["diverged"] is False
    assert doc["n_samples"] == 40_000
    assert doc["steady_state_attenuation_db"] == 120.0
    assert len(doc["attenuation_trace_db"]) == 20


def test_anc_divergence_exits_2_with_report(configs_dir, tmp_path):
    config = json.loads((configs_dir / "anc_tone_2tap.json").read_text())
    config["step_size"] = 10.0
    bad = tmp_path / "diverging.json"
    bad.write_text(json.dumps(config))
    code, doc = run_json(["anc", "simulate", "--config", str(bad)], tmp_path)
    assert code == 2
    assert doc["diverged"] is True


def test_anc_power_ratio_divergence_exits_2_with_a_finite_report(tmp_path):
    # NLMS past its step bound of 2: the residual outgrows the disturbance by
    # the power ratio in the second window, while every sample stays finite
    config = tmp_path / "nlms_past_the_bound.json"
    config.write_text(json.dumps({
        "algorithm": "NLMS", "duration_samples": 16000, "rng_seed": 0,
        "filter_length": 8, "step_size": 2.001,
        "noise": {"kind": "tone", "freq_hz": 440.0},
        "primary_path": [0.0, 0.8, 0.3], "secondary_path": [1.0]}))
    code, doc = run_json(["anc", "simulate", "--config", str(config)], tmp_path)
    assert code == 2
    assert doc["diverged"] is True
    trace = doc["attenuation_trace_db"]
    assert doc["n_samples"] == 2000 * len(trace) < 16000
    assert doc["steady_state_attenuation_db"] == trace[-1] < -10.0 <= min(trace[:-1])


# -------------------------------------------------------------------- cost

def test_cost_bom_json_goldens(configs_dir, tmp_path):
    code, doc = run_json(
        ["cost", "bom", "--config", str(configs_dir / "cost_initial.json")],
        tmp_path)
    assert code == 0
    assert doc["direct_total"] == 107.16
    assert doc["total_manufacturing"] == 121.02
    assert doc["assembly_seconds"] == 1840.0
    assert doc["assembly_cost"] == 5.11
    assert doc["dfa_index"] == pytest.approx(0.091304, abs=1e-6)
    labels = {d["label"] for d in doc["discrepancies"]}
    assert "assembly_cost" in labels


def test_cost_bom_missing_csv_exits_3(configs_dir, tmp_path, capsys):
    config = json.loads((configs_dir / "cost_initial.json").read_text())
    config["bom_csv"] = "no_such_file.csv"
    broken = tmp_path / "cost.json"
    broken.write_text(json.dumps(config))
    code = main(["cost", "bom", "--config", str(broken)])
    assert code == 3
    assert "no_such_file.csv" in capsys.readouterr().err


# -------------------------------------------------------------------- plan

def test_plan_concept_csv_order_and_ranks(configs_dir, tmp_path):
    code, payload = run(
        ["plan", "concept",
         "--config", str(configs_dir / "plan_concept.json"),
         "--format", "csv"], tmp_path)
    assert code == 0
    rows = list(csv.reader(io.StringIO(payload.decode())))
    assert rows[0] == ["concept", "total", "rank"]
    assert [(r[0], r[2]) for r in rows[1:]] == [("A", "1"), ("B", "3"),
                                                ("C", "2")]
    assert rows[1][1] == "2.6800"


def test_plan_risk_json_quadrant_counts(configs_dir, tmp_path):
    code, doc = run_json(
        ["plan", "risk", "--config", str(configs_dir / "plan_risk.json")],
        tmp_path)
    assert code == 0
    assert doc["threshold"] == 5
    assert len(doc["items"]) == 54
    counts = {}
    for item in doc["items"]:
        counts[item["quadrant"]] = counts.get(item["quadrant"], 0) + 1
        assert item["score"] == item["probability"] * item["impact"]
    assert counts == {"MONITOR": 19, "CRITICAL": 14, "URGENT": 11, "LOW": 10}


def test_plan_market_json(configs_dir, tmp_path):
    code, doc = run_json(
        ["plan", "market", "--config", str(configs_dir / "plan_market.json")],
        tmp_path)
    assert code == 0
    assert doc["affected_population"] == 2_107_243.65
    assert doc["rounded_basis"] == 2_100_000.0
    assert doc["profit_exact_basis"] == 173_847_601.13
    assert doc["profit_rounded_basis"] == 173_250_000.0


# -------------------------------------------------------- errors and formats

def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValidationError, match="--format"):
        emit_report(object(), "xml")


def test_unsupported_format_exits_1(configs_dir, capsys):
    code = main(["econ", "npv", "--config", str(configs_dir / "econ_base.json"),
                 "--format", "xml"])
    assert code == 1
    assert "--format" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path, capsys):
    code = main(["econ", "npv", "--config", str(tmp_path / "absent.json")])
    assert code == 3
    assert "absent.json" in capsys.readouterr().err


def test_invalid_json_exits_1_naming_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    code = main(["econ", "npv", "--config", str(bad)])
    assert code == 1
    assert "broken.json" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    (b'{"model": 1}\xff', "file is not UTF-8 text"),
    (b'{"horizon": ' + b"9" * 5000 + b"}", "integer of 5000 digits is out of range"),
    (b"[" * 100_000, "JSON is nested too deeply"),
    (b"[]", "top-level JSON value must be an object"),
    (b"12", "top-level JSON value must be an object"),
], ids=["not-utf-8", "5000-digit-integer", "deep-nesting", "top-level-list",
        "top-level-number"])
def test_unparsable_config_exits_1_with_one_error_line(data, message, tmp_path,
                                                       capsysbinary):
    bad = tmp_path / "config.json"
    bad.write_bytes(data)
    assert main(["econ", "npv", "--config", str(bad)]) == 1
    out, err = capsysbinary.readouterr()
    assert (out, err.decode()) == (b"", f"error: {bad}: {message}\n")


# section -> (command, shipped config, keys down to the JSON object, a
# required field of that object, the object's name in error messages)
_SECTIONS = {
    "anc": ("anc simulate", "anc_tone_2tap", (), "rng_seed", "anc config"),
    "sales": ("econ scenario", "econ_best_case", ("model", "sales"), "units",
              "sales"),
    "expenses": ("econ scenario", "econ_best_case", ("model", "expenses", 1),
                 "rate", "expenses[1]"),
    "overhead_rates": ("cost bom", "cost_initial", ("overhead_rates",),
                       "labor_rate", "overhead_rates"),
    "market": ("plan market", "plan_market", (), "ref_affected",
               "market config"),
}


def _edited_config(configs_dir, tmp_path, name, keys, edit):
    """Copy a shipped config after ``edit`` changes the object at ``keys``."""
    config = json.loads((configs_dir / f"{name}.json").read_text())
    target = config
    for key in keys:
        target = target[key]
    edit(target)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


def _run_edited(configs_dir, tmp_path, command, name, keys, edit):
    path = _edited_config(configs_dir, tmp_path, name, keys, edit)
    return main([*command.split(), "--config", str(path)])


@pytest.mark.parametrize("section", sorted(_SECTIONS))
def test_unknown_config_field_exits_1(section, configs_dir, tmp_path, capsys):
    command, name, keys, _, context = _SECTIONS[section]
    code = _run_edited(configs_dir, tmp_path, command, name, keys,
                       lambda obj: obj.update(bogus_knob=1))
    assert code == 1
    assert capsys.readouterr().err == f"error: {context}: unknown field 'bogus_knob'\n"


@pytest.mark.parametrize("section", sorted(_SECTIONS))
def test_missing_required_field_exits_1(section, configs_dir, tmp_path, capsys):
    command, name, keys, field, context = _SECTIONS[section]
    code = _run_edited(configs_dir, tmp_path, command, name, keys,
                       lambda obj: obj.pop(field))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {context}: missing required field '{field}'\n")


@pytest.mark.parametrize("value", ["12", True], ids=["string", "bool"])
@pytest.mark.parametrize("section", sorted(_SECTIONS))
def test_wrong_field_type_exits_1(section, value, configs_dir, tmp_path, capsys):
    command, name, keys, field, context = _SECTIONS[section]
    code = _run_edited(configs_dir, tmp_path, command, name, keys,
                       lambda obj: obj.update({field: value}))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {context}: field '{field}' has the wrong type\n")


@pytest.mark.parametrize("command, name, keys, field, token", [
    ("econ npv", "econ_base", ("sales",), "units", "NaN"),
    ("cost bom", "cost_initial", (), "shipment", "NaN"),
    ("econ npv", "econ_base", ("sales",), "unit_price", "Infinity"),
    ("econ npv", "econ_base", ("sales",), "unit_cost", "-Infinity"),
    ("plan market", "plan_market", (), "ref_affected", "NaN"),
    ("plan market", "plan_market", (), "unit_price", "1e999"),
], ids=["units-NaN", "shipment-NaN", "unit_price-Infinity",
        "unit_cost-minus-Infinity", "ref_affected-NaN", "unit_price-1e999"])
def test_non_finite_config_number_exits_1(command, name, keys, field, token,
                                          configs_dir, tmp_path, capsys):
    path = _edited_config(configs_dir, tmp_path, name, keys,
                          lambda obj: obj.update({field: "@"}))
    path.write_text(path.read_text().replace('"@"', token))
    assert main([*command.split(), "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: non-finite number {token} is not allowed\n")


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _in_cost(value, *keys):
    """Edit for cost_initial: the field at ``keys`` set to ``value``, CSV
    paths absolute."""
    def edit(config):
        config["bom_csv"] = str(_CONFIGS / config["bom_csv"])
        config["assembly"]["ops_csv"] = str(_CONFIGS / config["assembly"]["ops_csv"])
        target = config
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return edit


@pytest.mark.parametrize("value, code", [(int(sys.float_info.max), 0), (2**1024, 1)],
                         ids=["largest-double", "two-to-the-1024"])
def test_an_integer_is_read_only_if_a_double_holds_it(value, code, configs_dir,
                                                      tmp_path, capsys):
    # both are 309 digits long; the reader refuses the one float() cannot hold
    path = _edited_config(configs_dir, tmp_path, "cost_initial", (),
                          _in_cost(value, "expected", "direct_total"))
    assert main(["cost", "bom", "--config", str(path)]) == code
    message = f"error: {path}: integer of 309 digits is out of range\n"
    assert capsys.readouterr().err == ("" if code == 0 else message)


_HUGE = int("9" * 400)  # a valid JSON integer that no double can hold


def _huge_tap(config):
    config["primary_path"][0] = _HUGE


@pytest.mark.parametrize("command, name, edit", [
    ("econ npv", "econ_base", lambda c: c["sales"].update(units=_HUGE)),
    ("anc simulate", "anc_tone", lambda c: c.update(step_size=_HUGE)),
    ("cost bom", "cost_initial", _in_cost(_HUGE, "expected", "direct_total")),
    ("econ npv", "econ_base", lambda c: c.update(horizon=_HUGE)),
    ("anc simulate", "anc_tone", lambda c: c.update(duration_samples=_HUGE)),
    ("cost bom", "cost_initial", _in_cost(_HUGE, "dfa", "min_parts")),
    ("anc simulate", "anc_tone", _huge_tap),
], ids=["units", "step_size", "expected", "horizon", "duration_samples",
        "min_parts", "primary_path"])
def test_integer_too_large_for_a_float_exits_1(command, name, edit,
                                               configs_dir, tmp_path, capsys):
    # the reader refuses the integer wherever it stands, before any field is read
    path = _edited_config(configs_dir, tmp_path, name, (), edit)
    assert main([*command.split(), "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: integer of 400 digits is out of range\n")


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in a report")


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("command, name, edit", [
    ("econ npv", "econ_base", lambda c: c["sales"].update(unit_price=1e30)),
    ("econ npv", "econ_base", lambda c: c["sales"].update(unit_price=1e300)),
    ("cost bom", "cost_initial", _in_cost(1e300, "shipment")),
    ("plan market", "plan_market", lambda c: c.update(unit_price=1e300)),
], ids=["unit_price-1e30", "unit_price-1e300", "shipment-1e300",
        "market_unit_price-1e300"])
def test_huge_money_figure_gives_a_report_or_one_error_line(
        command, name, edit, fmt, configs_dir, tmp_path, capsys):
    path = _edited_config(configs_dir, tmp_path, name, (), edit)
    code, payload = run([*command.split(), "--config", str(path),
                         "--format", fmt], tmp_path)
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and payload
        if fmt == "json":
            json.loads(payload, parse_constant=_reject_constant)
    else:
        assert code == 1 and payload == b""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_money_figure_that_overflows_exits_1(configs_dir, tmp_path, capsys):
    # units * unit_price overflows to inf, which no report may print
    path = _edited_config(configs_dir, tmp_path, "econ_base", ("sales",),
                          lambda s: s.update(units=1e300, unit_price=1e300))
    for fmt in ("json", "table", "csv"):
        assert run(["econ", "npv", "--config", str(path), "--format", fmt],
                   tmp_path) == (1, b"")
        assert capsys.readouterr().err == (
            "error: cannot round the non-finite value inf\n")


# case -> (command, shipped config, edit, the formats whose report carries
# the non-finite figure, that figure)
_NON_FINITE_FIGURES = {
    # old_total > 0, but savings / old_total overflows
    "reduction_fraction": (
        "cost bom", "cost_initial",
        lambda c: c.update(reduction={"old_total": 5e-324, "new_total": 1.0}),
        FORMATS, "-inf"),
    # the assembly times sum to a subnormal, so min_parts * 3 / time overflows
    "dfa_index": ("cost bom", "cost_initial",
                  lambda c: c["assembly"].update(ops_csv="subnormal_ops.csv"),
                  FORMATS, "inf"),
    # the base NPV is 2**-52, so the fraction of it overflows
    "delta_pct_of_base": (
        "econ sensitivity", "econ_sensitivity_grid",
        lambda c: c.update(
            model={"horizon": 2, "discount_rate": 0.0,
                   "expenses": [{"name": "A", "first": 1, "last": 1, "rate": 1.0},
                                {"name": "B", "first": 1, "last": 1,
                                 "rate": -(1 - 2**-52)}],
                   "sales": {"first": 1, "last": 1, "units": 0.0,
                             "unit_price": 1.0, "unit_cost": -1.0}},
            rows=[{"target": "A", "pct": 1e300}]),
        FORMATS, "inf"),
    # the adjusted units are 1e307 times the base, a finite fraction whose
    # percentage overflows; only the table shows the percentage
    "adjusted_inputs_pct": (
        "econ scenario", "econ_scenario_marketing_shift",
        lambda c: (c["model"]["sales"].update(units=1e-300),
                   c.update(adjustments=[{"target": "UNITS", "pct": 1e307}])),
        ("table",), "inf"),
    # a pct of 1e307 is finite, but the table prints it as a percentage
    "sensitivity_pct": (
        "econ sensitivity", "econ_sensitivity_grid",
        lambda c: (c["model"]["expenses"][0].update(rate=-1e-5),
                   c.update(rows=[{"target": "Development", "pct": 1e307}])),
        ("table",), "inf"),
}


@pytest.mark.parametrize("case, fmt", [
    (case, fmt) for case, (*_, formats, _) in _NON_FINITE_FIGURES.items()
    for fmt in formats])
def test_non_finite_report_figure_exits_1(case, fmt, tmp_path, capsysbinary):
    command, name, edit, _, value = _NON_FINITE_FIGURES[case]
    _copy_csvs(tmp_path)
    (tmp_path / "subnormal_ops.csv").write_text(
        ",".join(ASSEMBLY_COLUMNS) + "\nWidget,1,5e-324,0\n")
    config = json.loads((_CONFIGS / f"{name}.json").read_text())
    edit(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([*command.split(), "--config", str(path), "--format", fmt]) == 1
    out, err = capsysbinary.readouterr()
    assert (out, err.decode()) == (
        b"", f"error: cannot round the non-finite value {value}\n")


@pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 10**20])
def test_horizon_past_the_bound_exits_1(horizon, configs_dir, tmp_path, capsys):
    path = _edited_config(configs_dir, tmp_path, "econ_base", (),
                          lambda c: c.update(horizon=horizon))
    assert main(["econ", "npv", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: horizon must be <= {MAX_HORIZON}\n"


def _overflowing_discount(model):
    # 0.1 ** -t overflows a double from t = 309 on; the flows end at period 24
    model.update(discount_rate=-0.9, horizon=400)


def test_overflowing_discount_factor_gives_a_report_in_every_format(
        configs_dir, tmp_path, capsys):
    path = _edited_config(configs_dir, tmp_path, "econ_base", (), _overflowing_discount)
    argv = ["econ", "npv", "--config", str(path)]
    code, doc = run_json(argv, tmp_path)
    assert code == 0 and math.isfinite(doc["npv"])
    code, table = run([*argv, "--format", "table"], tmp_path)
    assert code == 0
    npv_line = next(line for line in table.decode().splitlines()
                    if line.startswith("  npv:"))
    assert float(npv_line.split()[1].replace(",", "")) == doc["npv"]
    code, payload = run([*argv, "--format", "csv"], tmp_path)
    assert code == 0
    rows = list(csv.reader(io.StringIO(payload.decode())))[1:]
    assert len(rows) == 400 and {row[2] for row in rows[24:]} == {"0.00"}
    # the discounted column is the terms of that NPV
    assert math.fsum(float(row[2]) for row in rows) == pytest.approx(doc["npv"],
                                                                    rel=1e-12)
    assert capsys.readouterr().err == ""


def test_finite_term_of_an_overflowing_factor_gives_a_report_in_every_format(
        configs_dir, tmp_path, capsys):
    def edit(model):
        _overflowing_discount(model)
        # 0.1 ** -320 overflows, but the period-320 term is -1e290
        model["expenses"] = [{"name": "Tiny", "first": 320, "last": 320,
                              "rate": -1e-30}]
    path = _edited_config(configs_dir, tmp_path, "econ_base", (), edit)
    argv = ["econ", "npv", "--config", str(path)]
    assert run_json(argv, tmp_path)[0] == 0
    code, payload = run([*argv, "--format", "csv"], tmp_path)
    assert code == 0
    row = list(csv.reader(io.StringIO(payload.decode())))[320]
    assert row[0] == "320" and float(row[2]) == pytest.approx(-1e290, rel=1e-9)
    code, table = run([*argv, "--format", "table"], tmp_path)
    assert code == 0
    row = next(line.split() for line in table.decode().splitlines()
               if line.split()[:1] == ["320"])
    assert float(row[2].replace(",", "")) == pytest.approx(-1e290, rel=1e-9)
    assert capsys.readouterr().err == ""


def test_discounted_breakeven_with_an_overflowing_factor(configs_dir, tmp_path, capsys):
    def edit(model):
        _overflowing_discount(model)
        model["sales"]["units"] = 0.0  # the loss is never recovered
    path = _edited_config(configs_dir, tmp_path, "econ_base", (), edit)
    argv = ["econ", "npv", "--config", str(path), "--discounted-breakeven"]
    code, doc = run_json(argv, tmp_path)
    assert (code, doc["break_even_period"]) == (0, None)
    for fmt in ("table", "csv"):
        assert run([*argv, "--format", fmt], tmp_path)[0] == 0
    assert b"break_even_period: none" in run(argv, tmp_path)[1]
    assert capsys.readouterr().err == ""


def _line_named(name, target_key):
    """Edit of an econ config: its first expense line renamed ``name``, and
    the first row under ``target_key`` aimed at it."""
    def edit(config):
        config["model"]["expenses"][0]["name"] = name
        config[target_key][0]["target"] = name
    return edit


@pytest.mark.parametrize("command, name, edit, line", [
    ("econ sensitivity", "econ_sensitivity_grid", _line_named("PRICE", "rows"), "PRICE"),
    ("econ scenario", "econ_best_case", _line_named("UNITS", "adjustments"), "UNITS"),
    ("econ npv", "econ_best_case", _line_named("COST", "adjustments"), "COST"),
])
def test_expense_line_named_like_a_sales_target_exits_1(command, name, edit, line,
                                                         configs_dir, tmp_path, capsys):
    # such a line would make every adjustment aimed at that name ambiguous
    assert _run_edited(configs_dir, tmp_path, command, name, (), edit) == 1
    assert capsys.readouterr().err == (
        f"error: expense line name '{line}' is reserved for the sales block\n")


@pytest.mark.parametrize("value, message", [
    ("12", "field 'assembly_cost' has the wrong type"),
    (True, "field 'assembly_cost' has the wrong type"),
    (None, "field 'assembly_cost' has the wrong type"),
])
def test_expected_value_of_the_wrong_type_exits_1(value, message, configs_dir,
                                                  tmp_path, capsys):
    path = _edited_config(configs_dir, tmp_path, "cost_initial", (),
                          _in_cost(value, "expected", "assembly_cost"))
    assert main(["cost", "bom", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: expected: {message}\n"


_TAPS = "must be a non-empty list of numbers"
_ESTIMATE = 'must be "exact" or a list of taps'


def _anc(field, message, **changes):
    """A wrong-shape case of anc_tone_2tap: ``changes`` made, ``field`` named."""
    return ("anc simulate", "anc_tone_2tap", lambda c: c.update(changes),
            f"anc config: field '{field}' {message}")


@pytest.mark.parametrize("command, name, edit, message", [
    ("econ npv", "econ_base", lambda c: c.update(expenses=[12]),
     "expenses[0] must be a JSON object"),
    _anc("secondary_estimate", _ESTIMATE, secondary_estimate="Exact"),
    _anc("primary_path", _TAPS, primary_path="12"),
    _anc("primary_path", _TAPS, primary_path=[]),
    _anc("secondary_path", _TAPS, secondary_path=[True, 0.5]),
    _anc("secondary_estimate", _TAPS, secondary_estimate=[True, 0.5]),
    _anc("secondary_estimate", _ESTIMATE, secondary_estimate=1),
    _anc("secondary_estimate", _ESTIMATE, secondary_estimate=None),
    # a path is read with the other fields, before unknown fields are named
    _anc("primary_path", _TAPS, primary_path=[], bogus_knob=1),
], ids=["expense-number", "estimate-capitalised", "primary-string", "primary-empty",
        "secondary-bool", "estimate-bool", "estimate-number", "estimate-null",
        "primary-before-unknown"])
def test_value_of_the_wrong_shape_exits_1(command, name, edit, message, configs_dir,
                                          tmp_path, capsys):
    assert _run_edited(configs_dir, tmp_path, command, name, (), edit) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_expected_label_that_is_not_audited_exits_1(configs_dir, tmp_path, capsys):
    # the reduction figures come after the audit, so they cannot be expected
    path = _edited_config(configs_dir, tmp_path, "cost_initial", (),
                          _in_cost(1.0, "expected", "reduction_savings"))
    assert main(["cost", "bom", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: expected: unknown field 'reduction_savings'\n")


def _set(**changes):
    return lambda c: c.update(changes)


def _in_sales(**changes):
    return lambda c: c["sales"].update(changes)


# rule -> (command, shipped config, edit, the one error line's message)
_RANGE_RULES = {
    "warranty": ("cost bom", "cost_initial", _in_cost(-1.0, "warranty"),
                 "warranty must be >= 0"),
    "overhead_override": ("cost bom", "cost_initial", _in_cost(-1.0, "overhead_override"),
                          "overhead_override must be >= 0"),
    "hourly_rate": ("cost bom", "cost_initial", _in_cost(-1.0, "assembly", "hourly_rate"),
                    "hourly_rate must be >= 0"),
    "old_total": ("cost bom", "cost_initial",
                  _in_cost({"old_total": 0.0, "new_total": 1.0}, "reduction"),
                  "old_total must be > 0"),
    "world_pop": ("plan market", "plan_market", _set(world_pop=0.0),
                  "world_pop must be > 0"),
    "ref_affected": ("plan market", "plan_market", _set(ref_affected=-1.0),
                     "ref_affected must be >= 0"),
    "market_unit_price": ("plan market", "plan_market", _set(unit_price=-1.0),
                          "unit_price and unit_cost must be >= 0"),
    "expense_name": ("econ npv", "econ_base",
                     lambda c: c["expenses"][0].update(name=""),
                     "expense line name must be non-empty"),
    "sales_window": ("econ npv", "econ_base", _in_sales(first=6, last=5),
                     "sales window must satisfy 1 <= first <= last"),
    "units": ("econ npv", "econ_base", _in_sales(units=-1.0), "units must be >= 0"),
    "unit_price": ("econ npv", "econ_base", _in_sales(unit_price=-1.0),
                   "unit_price must be >= 0"),
    "horizon": ("econ npv", "econ_base", _set(horizon=0), "horizon must be >= 1"),
    "discount_rate": ("econ npv", "econ_base", _set(discount_rate=-1.0),
                      "discount_rate must be > -1"),
    "sales_past_horizon": ("econ npv", "econ_base", _in_sales(last=25),
                           "sales window: last period exceeds the horizon"),
    "scenario_lone_first": ("econ scenario", "econ_scenario_marketing_shift",
                            lambda c: c["adjustments"][1].pop("last"),
                            "adjustment 'Market Introduction': first and last "
                            "must be given together"),
    "sensitivity_lone_first": ("econ sensitivity", "econ_sensitivity_grid",
                               lambda c: c["rows"][0].update(first=3),
                               "adjustment 'Development': first and last "
                               "must be given together"),
    # of two faults, the first read is named: the model is checked as soon
    # as it is read, and every row as soon as it is read, before any is scored
    "scenario_horizon_then_pct": (
        "econ scenario", "econ_scenario_marketing_shift",
        lambda c: (c["model"].update(horizon=0),
                   c["adjustments"][0].update(pct="x")),
        "horizon must be >= 1"),
    "sensitivity_horizon_then_pct": (
        "econ sensitivity", "econ_sensitivity_grid",
        lambda c: (c["model"].update(horizon=0), c["rows"][0].update(pct="x")),
        "horizon must be >= 1"),
    "sensitivity_horizon_then_unknown_field": (
        "econ sensitivity", "econ_sensitivity_grid",
        lambda c: (c["model"].update(horizon=0), c.update(bogus=1)),
        "horizon must be >= 1"),
    "sensitivity_target_then_lone_first": (
        "econ sensitivity", "econ_sensitivity_grid",
        lambda c: (c["rows"][0].update(target="No Such Line"),
                   c["rows"][1].update(first=3)),
        "adjustment 'Development': first and last must be given together"),
    "duration_samples": ("anc simulate", "anc_tone", _set(duration_samples=0),
                         "duration_samples must be >= 1"),
    "filter_length": ("anc simulate", "anc_tone", _set(filter_length=0),
                      "filter_length must be >= 1"),
    "tone_sample_rate": ("anc simulate", "anc_tone", _set(sample_rate_hz=0.0),
                         "sample_rate_hz must be a finite value > 0"),
    "broadband_sample_rate": ("anc simulate", "anc_broadband",
                              _set(sample_rate_hz=-8000.0),
                              "sample_rate_hz must be a finite value > 0"),
    "broadband_zero_sample_rate": ("anc simulate", "anc_broadband",
                                   _set(sample_rate_hz=0.0),
                                   "sample_rate_hz must be a finite value > 0"),
    # tone noise takes no seed, yet its config's seed is checked all the same
    "tone_negative_seed": ("anc simulate", "anc_tone", _set(rng_seed=-1),
                           "rng_seed must be an unsigned integer"),
    "broadband_negative_seed": ("anc simulate", "anc_broadband", _set(rng_seed=-1),
                                "rng_seed must be an unsigned integer"),
    # the controller's fields are checked when AncConfig is made, before the seed
    "anc_step_size_then_seed": ("anc simulate", "anc_broadband",
                                _set(rng_seed=-1, step_size=-0.1),
                                "step_size must be finite and >= 0"),
}


@pytest.mark.parametrize("rule", list(_RANGE_RULES))
def test_value_out_of_range_exits_1_with_one_error_line(rule, tmp_path, capsys):
    command, name, edit, message = _RANGE_RULES[rule]
    path = _edited_config(_CONFIGS, tmp_path, name, (), edit)
    for fmt in FORMATS:
        assert run([*command.split(), "--config", str(path), "--format", fmt],
                   tmp_path) == (1, b"")
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field, value, bound", [
    ("duration_samples", 10**12, MAX_DURATION_SAMPLES),
    ("duration_samples", MAX_DURATION_SAMPLES + 1, MAX_DURATION_SAMPLES),
    ("filter_length", 10**12, MAX_FILTER_LENGTH),
    ("filter_length", MAX_FILTER_LENGTH + 1, MAX_FILTER_LENGTH),
])
def test_anc_size_past_the_bound_exits_1(field, value, bound, configs_dir, tmp_path,
                                         capsys):
    # rejected before any buffer is allocated
    path = _edited_config(configs_dir, tmp_path, "anc_tone", (),
                          lambda c: c.update({field: value}))
    for fmt in FORMATS:
        assert run(["anc", "simulate", "--config", str(path), "--format", fmt],
                   tmp_path) == (1, b"")
        assert capsys.readouterr().err == f"error: {field} must be <= {bound}\n"


@pytest.mark.parametrize("taps", [MAX_FILTER_LENGTH, MAX_FILTER_LENGTH + 1])
@pytest.mark.parametrize("field", ["primary_path", "secondary_path",
                                   "secondary_estimate"])
def test_anc_tap_list_past_the_bound_exits_1(field, taps, configs_dir, tmp_path,
                                             capsys):
    # anc_tone_2tap is FXLMS, so the estimate is convolved too
    path = _edited_config(configs_dir, tmp_path, "anc_tone_2tap", (),
                          lambda c: c.update({"duration_samples": 4000,
                                              field: [1.0] + [0.0] * (taps - 1)}))
    argv = ["anc", "simulate", "--config", str(path)]
    if taps == MAX_FILTER_LENGTH:
        assert run_json(argv, tmp_path)[0] == 0
        return
    for fmt in FORMATS:
        assert run([*argv, "--format", fmt], tmp_path) == (1, b"")
        assert capsys.readouterr().err == (
            f"error: {field} must have at most {MAX_FILTER_LENGTH} taps\n")


@pytest.mark.parametrize("name, tap", [("anc_tone", 7), ("anc_tone_2tap", 0)])
def test_anc_disturbance_power_overflow_exits_1(name, tap, configs_dir, tmp_path,
                                                capsys):
    # 1e300 is finite, but its square is not: every window's power overflows
    path = _edited_config(configs_dir, tmp_path, name, ("primary_path",),
                          lambda taps: taps.__setitem__(tap, 1e300))
    for fmt in FORMATS:
        assert run(["anc", "simulate", "--config", str(path), "--format", fmt],
                   tmp_path) == (1, b"")
        assert capsys.readouterr().err == (
            "error: disturbance power is not finite in the window starting at "
            "sample 0\n")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("field, changes", [
    ("primary_path", {"primary_path": [1e308, 1e308]}),
    ("secondary_estimate", {"secondary_estimate": [1e308, 1e308]}),
    ("secondary_path", {"secondary_path": [1e308, 1e308],
                        "secondary_estimate": "exact"}),
], ids=["primary", "estimate", "exact-estimate"])
def test_path_whose_filtered_noise_overflows_names_it(field, changes, fmt,
                                                      configs_dir, tmp_path, capsys):
    # each tap is finite, but two of them add up past the largest double
    path = _edited_config(configs_dir, tmp_path, "anc_tone_2tap", (),
                          lambda c: c.update(changes))
    assert run(["anc", "simulate", "--config", str(path), "--format", fmt],
               tmp_path) == (1, b"")
    assert capsys.readouterr().err == (
        f"error: {field} applied to the noise is not finite\n")


def test_sample_rate_defaults_to_8000(configs_dir, tmp_path):
    config = json.loads((configs_dir / "anc_tone_2tap.json").read_text())
    config["duration_samples"] = 4000
    config["sample_rate_hz"] = 8000.0
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(config))
    del config["sample_rate_hz"]
    default = tmp_path / "default.json"
    default.write_text(json.dumps(config))
    code, with_rate = run(["anc", "simulate", "--config", str(explicit),
                           "--format", "json"], tmp_path, "explicit")
    assert code == 0
    assert run(["anc", "simulate", "--config", str(default), "--format", "json"],
               tmp_path, "default") == (0, with_rate)


def test_omitted_fields_take_the_library_defaults(configs_dir, tmp_path):
    risk = tmp_path / "risk.json"
    risk.write_text(json.dumps({"register_csv": str(_CONFIGS / "risk_register.csv")}))
    code, doc = run_json(["plan", "risk", "--config", str(risk)], tmp_path)
    assert (code, doc["threshold"]) == (0, 5)

    config = json.loads((configs_dir / "anc_tone.json").read_text())
    config.update(duration_samples=4000, filter_length=128, leak_factor=0.0)
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(config))
    del config["filter_length"], config["leak_factor"]
    default = tmp_path / "default.json"
    default.write_text(json.dumps(config))
    code, given = run(["anc", "simulate", "--config", str(explicit)],
                      tmp_path, "explicit")
    assert code == 0
    assert run(["anc", "simulate", "--config", str(default)],
               tmp_path, "default") == (0, given)


_EMPTY_REGISTER = "Code,Description,Category,Probability,Impact\n"


@pytest.mark.parametrize("register", ["shipped", "empty"])
@pytest.mark.parametrize("threshold, expected_code",
                         [(0, 1), (-3, 1), (11, 1), (1, 0), (10, 0)])
def test_risk_threshold_outside_1_to_10_exits_1(threshold, expected_code, register,
                                                configs_dir, tmp_path, capsys):
    csv_path = _CONFIGS / "risk_register.csv"
    if register == "empty":
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(_EMPTY_REGISTER)
    path = _edited_config(configs_dir, tmp_path, "plan_risk", (), lambda c: c.update(
        threshold=threshold, register_csv=str(csv_path)))
    code, _ = run(["plan", "risk", "--config", str(path)], tmp_path)
    assert code == expected_code
    if expected_code:
        assert capsys.readouterr().err == (
            "error: risk threshold must be an integer in [1, 10]\n")


def test_bad_weights_exit_1(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("Criterion,Weight,A\nFit,0.5,3\nCost,0.48,1\n")
    config = tmp_path / "concept.json"
    config.write_text(json.dumps({"matrix_csv": "matrix.csv"}))
    code = main(["plan", "concept", "--config", str(config)])
    assert code == 1
    assert "weights" in capsys.readouterr().err


def test_output_file_matches_stdout(configs_dir, tmp_path, capsysbinary):
    argv = ["plan", "market", "--config",
            str(configs_dir / "plan_market.json"), "--format", "json"]
    assert main(argv) == 0
    streamed = capsysbinary.readouterr().out
    _, filed = run(argv, tmp_path)
    assert streamed == filed


def test_table_format_is_default(configs_dir, capsysbinary):
    assert main(["plan", "market",
                 "--config", str(configs_dir / "plan_market.json")]) == 0
    text = capsysbinary.readouterr().out.decode()
    assert text.startswith("market sizing")
    assert "173,250,000.00" in text


# ------------------------------------------------------------ command line

_BASE = str(_CONFIGS / "econ_base.json")
_WORST = str(_CONFIGS / "econ_worst_case.json")
_GROUPS = "group must be one of anc, econ, cost, plan"
_ECON_COMMANDS = "econ command must be one of npv, scenario, sensitivity"
_NOT_A_PATH = "option --%s holds a NUL or a character no file path can encode"

# usage error -> (argv after `hushkit`, the one error line's message)
_USAGE_ERRORS = {
    "no_group": ([], _GROUPS),
    "unknown_group": (["bogus", "npv", "--config", _BASE], f"{_GROUPS}, not 'bogus'"),
    "option_before_group": (["--config", _BASE, "econ", "npv"],
                            f"{_GROUPS}, not '--config'"),
    "no_command": (["econ"], _ECON_COMMANDS),
    "unknown_command": (["econ", "irr", "--config", _BASE], f"{_ECON_COMMANDS}, not 'irr'"),
    "command_of_another_group": (["econ", "bom", "--config", _BASE],
                                 f"{_ECON_COMMANDS}, not 'bom'"),
    "no_config": (["econ", "npv"], "option --config is required"),
    "no_config_but_a_format": (["econ", "npv", "--format", "json"],
                               "option --config is required"),
    "config_without_value": (["econ", "npv", "--config"], "option --config needs a value"),
    "format_without_value": (["econ", "npv", "--config", _BASE, "--format"],
                             "option --format needs a value"),
    "option_as_value": (["econ", "npv", "--output", "--config", _BASE],
                        "option --output needs a value"),
    "unknown_option": (["econ", "npv", "--config", _BASE, "--verbose"],
                       "econ npv: unrecognized argument '--verbose'"),
    "abbreviated_option": (["econ", "npv", "--conf", _BASE],
                           "econ npv: unrecognized argument '--conf'"),
    "abbreviated_flag": (["econ", "npv", "--config", _BASE, "--require"],
                         "econ npv: unrecognized argument '--require'"),
    "flag_of_another_command": (
        ["econ", "sensitivity", "--config", _BASE, "--require-irr"],
        "econ sensitivity: unrecognized argument '--require-irr'"),
    "flag_with_a_value": (["econ", "npv", "--config", _BASE, "--require-irr=yes"],
                          "econ npv: unrecognized argument '--require-irr=yes'"),
    "short_option": (["econ", "npv", "-c", _BASE], "econ npv: unrecognized argument '-c'"),
    "stray_word": (["econ", "npv", "--config", _BASE, "extra"],
                   "econ npv: unrecognized argument 'extra'"),
    "end_of_options": (["econ", "npv", "--", "--config", _BASE],
                       "econ npv: unrecognized argument '--'"),
    "nul_in_config": (["econ", "npv", "--config", "a\0b"], _NOT_A_PATH % "config"),
    "nul_in_output": (["econ", "npv", "--config", _BASE, "--output=out\0.txt"],
                      _NOT_A_PATH % "output"),
    "lone_surrogate_in_config": (["econ", "npv", "--config=\ud800.json"],
                                 _NOT_A_PATH % "config"),
    "lone_surrogate_in_output": (["econ", "npv", "--config", _BASE, "--output", "\ud800"],
                                 _NOT_A_PATH % "output"),
}


@pytest.mark.parametrize("case", list(_USAGE_ERRORS))
def test_usage_error_exits_1_with_one_error_line(case, capsysbinary):
    argv, message = _USAGE_ERRORS[case]
    assert main(argv) == 1
    out, err = capsysbinary.readouterr()
    assert (out, err.decode()) == (b"", f"error: {message}\n")


def test_usage_error_of_a_fresh_process_exits_1_without_a_traceback():
    done = subprocess.run([sys.executable, "-m", "hushkit.cli", "econ", "npv"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              p for p in (str(_CONFIGS.parent / "src"),
                                          os.environ.get("PYTHONPATH")) if p)))
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "error: option --config is required\n")


def test_an_undecodable_argv_byte_is_a_path(tmp_path, capsysbinary):
    # a byte that is not UTF-8 reaches argv as a surrogate escape, "\udc80" for 0x80
    config = tmp_path / "base\udc80.json"
    shutil.copyfile(_BASE, config)
    report = tmp_path / "npv\udc80.json"
    assert main(["econ", "npv", "--config", str(config), "--output", str(report)]) == 0
    assert os.fsencode(report.name) == b"npv\x80.json"
    assert main(["econ", "npv", "--config", _BASE]) == 0
    assert report.read_bytes() == capsysbinary.readouterr().out


# accepted form -> (its argv after `hushkit`, the canonical argv it must match)
_ACCEPTED_FORMS = {
    "name_equals_value": (["econ", "npv", f"--config={_BASE}", "--format=json"],
                          ["econ", "npv", "--config", _BASE, "--format", "json"]),
    "options_in_any_order": (["econ", "npv", "--format", "json", "--config", _BASE],
                             ["econ", "npv", "--config", _BASE, "--format", "json"]),
    "repeated_option_last_wins": (
        ["econ", "npv", "--config", _WORST, "--format", "csv", "--config", _BASE,
         "--format", "json"],
        ["econ", "npv", "--config", _BASE, "--format", "json"]),
    "flags_anywhere": (
        ["econ", "scenario", "--discounted-breakeven", "--config", _WORST,
         "--require-irr", "--format", "json", "--require-irr"],
        ["econ", "scenario", "--config", _WORST, "--format", "json", "--require-irr",
         "--discounted-breakeven"]),
}


@pytest.mark.parametrize("form", list(_ACCEPTED_FORMS))
def test_accepted_form_gives_the_bytes_of_the_canonical_argv(form, capsysbinary):
    outcomes = []
    for argv in _ACCEPTED_FORMS[form]:
        code = main(argv)
        outcomes.append((code, *capsysbinary.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] and not outcomes[0][2]
    # the worst case has no IRR: with --require-irr it exits 2
    assert outcomes[0][0] == (2 if form == "flags_anywhere" else 0)


def _help_levels():
    """(argv after `hushkit`, the names its help must list, in order)."""
    yield [], list(_COMMANDS)
    for group, (_, commands) in _COMMANDS.items():
        yield [group], list(commands)
        for command, (_, _, flags) in commands.items():
            yield [group, command], [*(f"--{name}" for name in _OPTIONS),
                                     *(f"--{flag}" for flag in flags)]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_at_every_level_exits_0_listing_its_names(flag, tmp_path, capsysbinary):
    levels = list(_help_levels())
    assert len(levels) == 1 + len(_COMMANDS) + 8
    for words, names in levels:
        # help wins wherever the flag is, over any other word or option
        for argv in ([*words, flag], [flag, *words],
                     [*words, "--output", str(tmp_path / "out"), flag, "--bogus"]):
            assert main(argv) == 0
            out, err = capsysbinary.readouterr()
            lines = out.decode().splitlines()
            assert err == b"" and lines[0].startswith("usage: hushkit ")
            assert [line.split()[0] for line in lines[4:]] == names
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------ malformed CSV tables

_BOM_ROW = "Wi-Fi RF Transceiver Module,1,3,0.3,0.2,3.5,"
_ASSEMBLY_ROW = "LED display panel,1,20,25"
_RISK_ROW = "Design-related,4,6"


def _replace(old, new):
    return lambda text: text.replace(old, new, 1)


def _append(row):
    return lambda text: text + row + "\n"


def _bom_cell(old, new):
    """Edit of one cell in the first row of ``bom_initial.csv``."""
    return _replace(_BOM_ROW, _BOM_ROW.replace(old, new))


# case -> (shipped CSV, edit of its text to text or bytes, the error after
# "<csv path>: ").
# The first block used to end in a traceback, a NaN report or a misleading
# error; the second used to leave out the file's path; the third was always
# rejected; the fourth used to read a cell as another number. A bad cell of
# any table gives the one message "column '<name>' has non-<kind> value".
_CSV_CASES = {
    "bom-qty-word": ("bom_initial.csv", _bom_cell(",1,", ",two,"),
                     "column 'Qty required' has non-integer value 'two'"),
    "bom-short-row": ("bom_initial.csv", _append("Widget,1,2"),
                      "row ['Widget', '1', '2'] has the wrong column count"),
    "bom-long-row": ("bom_initial.csv", _append("Widget,1,1,1,1,3,Acme,extra"),
                     "row ['Widget', '1', '1', '1', '1', '3', 'Acme', 'extra'] "
                     "has the wrong column count"),
    "bom-total-nan": ("bom_initial.csv", _bom_cell("3.5", "nan"),
                      "column 'Total Unit Variable' has non-finite value 'nan'"),
    "assembly-qty-x": ("assembly_ops.csv",
                       _replace(_ASSEMBLY_ROW, "LED display panel,x,20,25"),
                       "column 'Quantity' has non-integer value 'x'"),
    "assembly-handling-nan": ("assembly_ops.csv",
                              _replace(_ASSEMBLY_ROW, "LED display panel,1,nan,25"),
                              "column 'Handling Time (s)' has non-finite value 'nan'"),
    "concept-weight-nan": ("concept_matrix.csv", _replace("8%", "nan"),
                           "column 'Weight' has non-finite value 'nan'"),
    "concept-weights-inf": ("concept_matrix.csv",
                            lambda t: t.replace("8%", "inf").replace("7%", "-inf"),
                            "column 'Weight' has non-finite value 'inf'"),
    "risk-short-row": ("risk_register.csv", _append("Z9,desc"),
                       "row ['Z9', 'desc'] has the wrong column count"),
    "risk-latin-1": ("risk_register.csv",
                     lambda t: t.replace("Yield", "Yield \xe9").encode("latin-1"),
                     "file is not UTF-8 text"),
    "risk-huge-cell": ("risk_register.csv", _replace("Yield", "y" * 131_073),
                       "line 2: field larger than field limit (131072)"),

    "bom-qty-zero": ("bom_initial.csv", _bom_cell(",1,", ",0,"),
                     "BOM line 'Wi-Fi RF Transceiver Module': qty must be >= 1"),
    "risk-probability-11": ("risk_register.csv",
                            _replace(_RISK_ROW, "Design-related,11,6"),
                            "risk 'D1': probability must be an integer in [1, 10]"),
    "concept-rating-4": ("concept_matrix.csv", _replace("8%,3,", "8%,4,"),
                         "concept 'A': ratings must be integers in [1, 3], got 4"),
    "concept-weights-sum": ("concept_matrix.csv", _replace("8%", "9%"),
                            "criterion weights must sum to 1, got 1.01"),

    "bom-money-word": ("bom_initial.csv", _bom_cell(",3,", ",x,"),
                       "column 'Purchased Costs' has non-numeric value 'x'"),
    "bom-header": ("bom_initial.csv", _replace("Suppliers", "Supplier"),
                   "header must be exactly " + ",".join(BOM_COLUMNS)),
    "bom-empty": ("bom_initial.csv", lambda t: "",
                  "header must be exactly " + ",".join(BOM_COLUMNS)),
    "concept-weight-word": ("concept_matrix.csv", _replace("8%", "x%"),
                            "column 'Weight' has non-numeric value 'x%'"),
    "concept-rating-word": ("concept_matrix.csv", _replace("8%,3,", "8%,three,"),
                            "column 'A' has non-integer value 'three'"),
    "concept-short-row": ("concept_matrix.csv", _append("Extra,0,1"),
                          "row ['Extra', '0', '1'] has the wrong column count"),
    "concept-header": ("concept_matrix.csv", _replace("Criterion", "Crit"),
                       "header must start with Criterion,Weight and name at least "
                       "one concept column"),
    "concept-empty": ("concept_matrix.csv", lambda t: "", "file is empty"),
    "risk-word": ("risk_register.csv", _replace(_RISK_ROW, "Design-related,four,6"),
                  "column 'Probability' has non-integer value 'four'"),
    "risk-duplicate": ("risk_register.csv", _replace("D2,", "D1,"),
                       "duplicate risk code 'D1'"),
    "risk-impact-word": ("risk_register.csv", _replace(_RISK_ROW, "Design-related,4,six"),
                         "column 'Impact' has non-integer value 'six'"),

    # a cell float() refuses is money only in the $ and thousands-comma
    # grammar, and int() and float() both take _ as a digit separator
    "bom-decimal-comma": ("bom_initial.csv",
                          _replace(_BOM_ROW, 'Wi-Fi RF Transceiver Module,1,'
                                   '"3,0","0,3","0,2","3,5",'),
                          "column 'Purchased Costs' has non-numeric value '3,0'"),
    "bom-dollar-inside": ("bom_initial.csv", _bom_cell("3.5", "3$5"),
                          "column 'Total Unit Variable' has non-numeric value '3$5'"),
    "assembly-underscore": ("assembly_ops.csv",
                            _replace(_ASSEMBLY_ROW, "LED display panel,1,1_0,25"),
                            "column 'Handling Time (s)' has non-numeric value '1_0'"),
    "concept-weight-underscore": ("concept_matrix.csv", _replace("10%", "1_0%"),
                                  "column 'Weight' has non-numeric value '1_0%'"),

    # the config strings' rule: no NUL reaches a report
    "risk-nul": ("risk_register.csv", _replace("Yield", "Yi\0eld"),
                 "file holds a NUL or a lone surrogate"),
    "concept-nul": ("concept_matrix.csv", _replace("Weight,A", "Weight,A\0"),
                    "file holds a NUL or a lone surrogate"),

    # a report row no one can tell apart used to be printed; an empty name
    # is named before a repeated one
    "concept-name-empty": ("concept_matrix.csv",
                           _replace("Weight,A,B,C", "Weight,A,A,"),
                           "concept name must be non-empty"),
    "concept-name-repeated": ("concept_matrix.csv",
                              _replace("Weight,A,B,C", "Weight,A,B,A"),
                              "concept names must be unique"),
    "criterion-name-empty": ("concept_matrix.csv", _replace("\nMaintenance,", "\n ,"),
                             "criterion name must be non-empty"),
    "criterion-name-repeated": ("concept_matrix.csv",
                                _replace("\nMaintenance,", "\nUser Friendly,"),
                                "criterion names must be unique"),
    "risk-code-empty": ("risk_register.csv", _append(",empty code,X,3,3"),
                        "risk code must be non-empty"),
}

# shipped CSV -> (command, shipped config that reads it)
_CSV_USERS = {
    "bom_initial.csv": ("cost bom", "cost_initial"),
    "assembly_ops.csv": ("cost bom", "cost_initial"),
    "concept_matrix.csv": ("plan concept", "plan_concept"),
    "risk_register.csv": ("plan risk", "plan_risk"),
}


def _copy_csvs(directory):
    for csv_file in _CONFIGS.glob("*.csv"):
        shutil.copy(csv_file, directory)


@pytest.mark.parametrize("case", list(_CSV_CASES))
def test_malformed_csv_exits_1_with_one_error_line(case, tmp_path, capsysbinary):
    csv_name, edit, message = _CSV_CASES[case]
    command, name = _CSV_USERS[csv_name]
    _copy_csvs(tmp_path)
    bad = tmp_path.resolve() / csv_name
    edited = edit(bad.read_text())
    bad.write_bytes(edited if isinstance(edited, bytes) else edited.encode())
    config = shutil.copy(_CONFIGS / f"{name}.json", tmp_path)
    for fmt in FORMATS:
        assert main([*command.split(), "--config", str(config), "--format", fmt]) == 1
        out, err = capsysbinary.readouterr()
        assert out == b""
        assert err.decode() == f"error: {bad}: {message}\n"


def test_blank_lines_after_the_header_are_skipped(tmp_path, capsysbinary):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text((_CONFIGS / "concept_matrix.csv").read_text()
                      .replace("\n", "\n\n") + "\n")
    config = tmp_path / "concept.json"
    config.write_text(json.dumps({"matrix_csv": "matrix.csv"}))
    assert main(["plan", "concept", "--config", str(config), "--format", "json"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "plan_concept.json"
    assert capsysbinary.readouterr().out == golden.read_bytes()


@pytest.mark.parametrize("command, name, csv_name, rows", [
    ("plan risk", "plan_risk", "risk_register.csv", 1),
    ("cost bom", "cost_initial", "bom_initial.csv", None),
], ids=["one-row-risk-register", "bom"])
def test_csv_with_a_byte_order_mark_gives_the_same_report(command, name, csv_name,
                                                          rows, tmp_path, capsysbinary):
    # as a spreadsheet's "CSV UTF-8" export saves it
    _copy_csvs(tmp_path)
    table = tmp_path / csv_name
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(lines[:1 + rows] if rows else lines))
    config = shutil.copy(_CONFIGS / f"{name}.json", tmp_path)
    for fmt in FORMATS:
        argv = [*command.split(), "--config", str(config), "--format", fmt]
        table.write_bytes(table.read_bytes().removeprefix(b"\xef\xbb\xbf"))
        assert main(argv) == 0
        plain = capsysbinary.readouterr()
        table.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
        assert main(argv) == 0
        assert capsysbinary.readouterr() == plain
        assert plain.err == b"" and plain.out.count(b"\n") > 1


# ------------------------------------------------- strings at the boundary

# a config string that holds either one is rejected: no file path can name
# it, and no UTF-8 report can carry a lone surrogate
_BAD_CHARS = {"nul": "a\0b.csv", "lone-surrogate": "a\ud800b.csv"}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("char", sorted(_BAD_CHARS))
@pytest.mark.parametrize("command, name, keys, context", [
    ("cost bom", "cost_initial", ("bom_csv",), "cost config"),
    ("cost bom", "cost_initial", ("assembly", "ops_csv"), "assembly"),
    ("plan concept", "plan_concept", ("matrix_csv",), "concept config"),
    ("plan risk", "plan_risk", ("register_csv",), "risk config"),
], ids=["bom_csv", "assembly.ops_csv", "matrix_csv", "register_csv"])
def test_csv_path_with_nul_or_lone_surrogate_exits_1(command, name, keys, context,
                                                      char, fmt, tmp_path,
                                                      capsysbinary):
    config = json.loads((_CONFIGS / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_with(config, keys, _BAD_CHARS[char])))
    assert main([*command.split(), "--config", str(path), "--format", fmt]) == 1
    out, err = capsysbinary.readouterr()
    assert (out, err.decode()) == (
        b"", f"error: {context}: field '{keys[-1]}' holds a NUL or a lone surrogate\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_expense_named_with_a_lone_surrogate_exits_1(fmt, tmp_path, capsysbinary):
    # the name reached the report: table and csv ended in a UnicodeEncodeError
    # traceback, json escaped it and exited 0
    config = json.loads((_CONFIGS / "econ_best_case.json").read_text())
    old = config["model"]["expenses"][0]["name"]
    for item in (*config["model"]["expenses"], *config["adjustments"]):
        for key in ("name", "target"):
            if item.get(key) == old:
                item[key] = "\ud800"
    path = tmp_path / "econ.json"
    path.write_text(json.dumps(config))
    assert main(["econ", "scenario", "--config", str(path), "--format", fmt]) == 1
    out, err = capsysbinary.readouterr()
    assert (out, err.decode()) == (
        b"", "error: expenses[0]: field 'name' holds a NUL or a lone surrogate\n")


# ------------------------------------------------------------ entry points

def test_python_m_runs_the_cli(configs_dir):
    root = _CONFIGS.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "hushkit.cli", "econ", "npv",
         "--config", str(configs_dir / "econ_base.json"), "--format", "json"],
        env=env, cwd=root, capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (root / "tests" / "golden" / "econ_base.json").read_bytes()


# ------------------------------------------------------ faulty config sweeps

def _exits_cleanly(command, path, fmt, capsysbinary, note):
    """Run ``command`` on the config at ``path`` in ``fmt`` and check the rule
    any input keeps: exit 0-3, stderr empty or one `error:` line, and a report
    from exit 0 or 2 that is strict JSON in json and UTF-8 in table and csv.
    Returns the exit code."""
    code = main([*command.split(), "--config", str(path), "--format", fmt])
    out, err = capsysbinary.readouterr()
    assert code in (0, 1, 2, 3), (note, code)
    assert err == b"" or (err.startswith(b"error: ") and err.count(b"\n") == 1), \
        (note, err)
    if code in (0, 2):
        try:
            if fmt == "json":
                json.loads(out, parse_constant=_reject_constant)
            else:
                out.decode("utf-8")
        except ValueError as exc:  # UnicodeDecodeError is one too
            pytest.fail(f"{note}: {exc}")
    return code


_FAULTS = ("12", True, [], {})


def _json_objects(node, keys=()):
    """(keys, object) for every JSON object in ``node``, outermost first."""
    if isinstance(node, dict):
        yield keys, node
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _json_objects(value, (*keys, key))


def _single_faults(config):
    """Copies of ``config`` with one fault each: a field deleted, a field set
    to each of :data:`_FAULTS`, or an unknown field added to one object."""
    for keys, obj in list(_json_objects(config)):
        edits = [(name, fault) for name in obj for fault in ("delete", *_FAULTS)]
        for name, fault in [*edits, ("bogus_knob", 1)]:
            broken = copy.deepcopy(config)
            target = broken
            for key in keys:
                target = target[key]
            if fault == "delete":
                del target[name]
            else:
                target[name] = fault
            yield broken


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_single_fault_configs_exit_cleanly(name, tmp_path, capsysbinary):
    _copy_csvs(tmp_path)
    path = tmp_path / f"{name}.json"
    runs = 0
    for broken in _single_faults(json.loads((_CONFIGS / f"{name}.json").read_text())):
        path.write_text(json.dumps(broken))
        _exits_cleanly(SHIPPED[name], path, "json", capsysbinary, broken)
        runs += 1
    assert runs > 5


# ---------------------------------------------------------- huge-number sweep

def _number_paths(node, keys=()):
    """Key path of every JSON number in ``node``."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _number_paths(value, (*keys, key))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


def _with(config, keys, value):
    """A copy of ``config`` with the value at key path ``keys`` replaced."""
    config = copy.deepcopy(config)
    target = config
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return config


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_huge_numbers_exit_cleanly_with_strict_json_reports(name, tmp_path,
                                                            capsysbinary):
    # every number of the config, one at a time, set to 1e300 and then to 1e30
    _copy_csvs(tmp_path)
    config = json.loads((_CONFIGS / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    for value in (1e300, 1e30):
        for keys in _number_paths(config):
            path.write_text(json.dumps(_with(config, keys, value)))
            assert _exits_cleanly(SHIPPED[name], path, "json", capsysbinary,
                                  (keys, value)) in (0, 1, 2)


# the raw JSON tokens no config number may be, each with its error message
_UNREADABLE_NUMBERS = {
    **{token: f"non-finite number {token} is not allowed"
       for token in ("NaN", "Infinity", "-Infinity")},
    "9" * 400: "integer of 400 digits is out of range",
    "9" * 5000: "integer of 5000 digits is out of range",
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_non_finite_and_overlong_numbers_exit_1(name, tmp_path, capsysbinary):
    # every number of the config, one at a time, written as each raw token,
    # which json.dumps cannot write
    config = json.loads((_CONFIGS / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    for keys in _number_paths(config):
        text = json.dumps(_with(config, keys, "@"))
        for token, message in _UNREADABLE_NUMBERS.items():
            path.write_text(text.replace('"@"', token))
            code = main([*SHIPPED[name].split(), "--config", str(path)])
            out, err = capsysbinary.readouterr()
            assert (code, out, err.decode()) == (
                1, b"", f"error: {path}: {message}\n"), (keys, token[:9])


# ------------------------------------------------------- fuzzed config sweep

def _containers(node):
    """Every JSON object and array in ``node``, outermost first."""
    if isinstance(node, (dict, list)):
        yield node
        for value in node.values() if isinstance(node, dict) else node:
            yield from _containers(value)


# one strategy for every value a fault writes
_FUZZ_VALUES = st.one_of(
    st.sampled_from(_FAULTS).map(copy.deepcopy),  # a wrong JSON type, unshared
    st.floats(),
    st.sampled_from([5e-324, -5e-324, 1e308, -1e308]),
    st.integers(-(10**400 - 1), 10**400 - 1),
    st.text(st.characters(exclude_categories=())),  # NUL and lone surrogates too
    st.sampled_from(sorted(path.name for path in _CONFIGS.glob("*.csv"))),
)


@st.composite
def _faulty_configs(draw):
    """(command, config): a shipped config with 1-3 faults, each a field or
    item deleted, an unknown field or an item added, or a value replaced."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    config = json.loads((_CONFIGS / f"{name}.json").read_text())
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(list(_containers(config))))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        fault = draw(st.sampled_from(("delete", "add", "set") if keys else ("add",)))
        if fault == "delete":
            target.pop(draw(st.sampled_from(keys)))
        elif fault == "add" and isinstance(target, list):
            target.append(draw(_FUZZ_VALUES))
        else:
            key = "bogus_knob" if fault == "add" else draw(st.sampled_from(keys))
            target[key] = draw(_FUZZ_VALUES)
    return SHIPPED[name], config


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_faulty_configs(), fmt=st.sampled_from(FORMATS))
def test_fuzzed_configs_exit_cleanly(case, fmt, tmp_path, capsysbinary):
    command, config = case
    _copy_csvs(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    _exits_cleanly(command, path, fmt, capsysbinary, config)


# ------------------------------------------------------------ docs drift

def _schema_names(schema):
    """Every field name in a config schema, nested objects included."""
    if isinstance(schema, dict):  # objects told apart by their "kind"
        return set().union(*map(_schema_names, schema.values()))
    if isinstance(schema, list):
        return _schema_names(schema[0])
    if isinstance(schema, str):  # the name of an exported record
        schema = _record(schema)[1]
    if not isinstance(schema, tuple):
        return set()
    names = set()
    for entry in schema:
        if isinstance(entry, str):  # a record spread into the table
            names |= _schema_names(entry)
        else:
            names |= {entry[0], *_schema_names(entry[1])}
    return names


def test_readme_names_every_config_field():
    readme = (_CONFIGS.parent / "README.md").read_text()
    section = readme.split("### Config schemas", 1)[1].split("\n## ", 1)[0]
    quoted = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", section))))
    names = set().union(*map(_schema_names, _SCHEMAS.values()))
    assert len(names) > 40
    assert sorted(names - quoted) == []


def test_readme_library_names_are_exported():
    readme = (_CONFIGS.parent / "README.md").read_text()
    section = readme.split("## Library usage", 1)[1].split("\n## ", 1)[0]
    imported = re.search(r"from hushkit import \(([^)]*)\)", section)[1]
    exposed = section.split("exposed the same way", 1)[1].split(").", 1)[0]
    names = {*re.findall(r"\w+", imported), *re.findall(r"`(\w+)`", exposed)}
    assert len(names) > 15
    assert sorted(names - set(hushkit.__all__)) == []
