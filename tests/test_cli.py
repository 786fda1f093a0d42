"""Command-line interface: exit codes, formats, config handling, determinism."""
import copy
import csv
import dataclasses
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
from test_golden import SHIPPED

from hushkit import ValidationError
from hushkit.anc import MAX_DURATION_SAMPLES, MAX_FILTER_LENGTH
from hushkit.cli import _SCHEMAS, FORMATS, emit_report, main
from hushkit.costing import BOM_COLUMNS
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


_HUGE = int("9" * 400)  # a valid JSON integer that no double can hold
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


def _huge_tap(config):
    config["primary_path"][0] = _HUGE


@pytest.mark.parametrize("command, name, edit, message", [
    ("econ npv", "econ_base", lambda c: c["sales"].update(units=_HUGE),
     "sales: field 'units'"),
    ("anc simulate", "anc_tone", lambda c: c.update(step_size=_HUGE),
     "anc config: field 'step_size'"),
    ("cost bom", "cost_initial", _in_cost(_HUGE, "expected", "direct_total"),
     "expected: field 'direct_total'"),
    ("econ npv", "econ_base", lambda c: c.update(horizon=_HUGE),
     "model: field 'horizon'"),
    ("anc simulate", "anc_tone", lambda c: c.update(duration_samples=_HUGE),
     "anc config: field 'duration_samples'"),
    ("cost bom", "cost_initial", _in_cost(_HUGE, "dfa", "min_parts"),
     "dfa: field 'min_parts'"),
    ("anc simulate", "anc_tone", _huge_tap, "field 'primary_path'"),
], ids=["units", "step_size", "expected", "horizon", "duration_samples",
        "min_parts", "primary_path"])
def test_integer_too_large_for_a_float_exits_1(command, name, edit, message,
                                               configs_dir, tmp_path, capsys):
    path = _edited_config(configs_dir, tmp_path, name, (), edit)
    assert main([*command.split(), "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message} is out of range\n"


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


def test_expected_label_that_is_not_audited_exits_1(configs_dir, tmp_path, capsys):
    # the reduction figures come after the audit, so they cannot be expected
    path = _edited_config(configs_dir, tmp_path, "cost_initial", (),
                          _in_cost(1.0, "expected", "reduction_savings"))
    assert main(["cost", "bom", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: expected: unknown field 'reduction_savings'\n")


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


# case -> (shipped CSV, edit of its text, the error after "<csv path>: ").
# The first block used to end in a traceback, a NaN report or a misleading
# error; the second used to leave out the file's path; the third keeps the
# message it always had.
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
                           "weights column has non-finite value 'nan'"),
    "concept-weights-inf": ("concept_matrix.csv",
                            lambda t: t.replace("8%", "inf").replace("7%", "-inf"),
                            "weights column has non-finite value 'inf'"),
    "risk-short-row": ("risk_register.csv", _append("Z9,desc"),
                       "row ['Z9', 'desc'] has the wrong column count"),

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
                            "weights column has non-numeric value 'x%'"),
    "concept-rating-word": ("concept_matrix.csv", _replace("8%,3,", "8%,three,"),
                            "rating column 'A' has non-integer value 'three'"),
    "concept-short-row": ("concept_matrix.csv", _append("Extra,0,1"),
                          "row ['Extra', '0', '1'] has the wrong column count"),
    "concept-header": ("concept_matrix.csv", _replace("Criterion", "Crit"),
                       "header must start with Criterion,Weight and name at least "
                       "one concept column"),
    "concept-empty": ("concept_matrix.csv", lambda t: "", "file is empty"),
    "risk-word": ("risk_register.csv", _replace(_RISK_ROW, "Design-related,four,6"),
                  "risk 'D1': Probability and Impact must be integers"),
    "risk-duplicate": ("risk_register.csv", _replace("D2,", "D1,"),
                       "duplicate risk code 'D1'"),
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
    bad.write_text(edit(bad.read_text()))
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


# --------------------------------------------------- single-fault config sweep

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
        code = main([*SHIPPED[name].split(), "--config", str(path), "--format", "json"])
        err = capsysbinary.readouterr().err.decode()
        assert code in (0, 1, 2, 3), (broken, code)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), \
            (broken, err)
        runs += 1
    assert runs > 5


# ------------------------------------------------------------ docs drift

def _schema_names(schema):
    """Every field name in a config schema, nested objects included."""
    if isinstance(schema, dict):  # objects told apart by their "kind"
        return set().union(*map(_schema_names, schema.values()))
    if isinstance(schema, list):
        return _schema_names(schema[0])
    if not isinstance(schema, tuple):
        if not dataclasses.is_dataclass(schema):
            return set()
        schema = [(f.name, None, None) for f in dataclasses.fields(schema)]
    return {name for name, _, _ in schema}.union(
        *(_schema_names(kind) for _, kind, _ in schema))


def test_readme_names_every_config_field():
    readme = (_CONFIGS.parent / "README.md").read_text()
    section = readme.split("### Config schemas", 1)[1].split("\n## ", 1)[0]
    quoted = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", section))))
    names = set().union(*map(_schema_names, _SCHEMAS.values()))
    assert len(names) > 40
    assert sorted(names - quoted) == []
