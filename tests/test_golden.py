"""Byte-for-byte report goldens: every shipped config and nine branch cases
that no shipped config reaches, each in every ``--format``.

One file per case and format lives in ``tests/golden/<case>.<format>``. The
shipped-config files are also checked against the sha256 table the
benchmark verifies (``perfbench/golden.json``), so both agree on the bytes.
"""
import csv
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
from decimal import Decimal
from itertools import takewhile
from pathlib import Path

import pytest

from hushkit.cli import FORMATS, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CONFIG_DIR = GOLDEN_DIR.parent.parent / "configs"
BENCH_HASHES = CONFIG_DIR.parent / "perfbench" / "golden.json"

SHIPPED = {
    "anc_broadband": "anc simulate",
    "anc_tone": "anc simulate",
    "anc_tone_2tap": "anc simulate",
    "econ_base": "econ npv",
    "econ_bare_minimum": "econ scenario",
    "econ_best_case": "econ scenario",
    "econ_worst_case": "econ scenario",
    "econ_scenario_marketing_shift": "econ scenario",
    "econ_scenario_marketing_shift_price_up": "econ scenario",
    "econ_scenario_marketing_shift_sales_up": "econ scenario",
    "econ_sensitivity_grid": "econ sensitivity",
    "cost_initial": "cost bom",
    "cost_revised_detail": "cost bom",
    "cost_revised_totals": "cost bom",
    "plan_concept": "plan concept",
    "plan_risk": "plan risk",
    "plan_market": "plan market",
}


# A number that reads as zero but carries a minus sign: `-0`, `-0.0`, `-0%`,
# `-0.00%`; not a negative number (`-0.05`), a range (`1-3`) or a date.
SIGNED_ZERO = re.compile(r"(?<![\w.])-0+(?:\.0+)?(?![\w.])")


def _variant(name, **changes):
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    config.update(changes)
    return config


_BOM_BASE = {
    "bom_csv": str(CONFIG_DIR / "bom_initial.csv"),
    "shipment": 0.2,
    "overhead_rates": {"materials_rate": 0.1, "labor_rate": 0.8},
    "warranty": 0.32,
}

# Base NPV is exactly zero: -100 in period 1, +100 in period 2, undiscounted.
_ZERO_BASE_MODEL = {
    "horizon": 2,
    "discount_rate": 0.0,
    "expenses": [{"name": "Development", "first": 1, "last": 1, "rate": -100.0}],
    "sales": {"first": 2, "last": 2, "units": 1.0, "unit_price": 100.0,
              "unit_cost": 0.0},
}

_RISK_HEADER = "Code,Description,Category,Probability,Impact\n"
_RISK_CONFIG = {"register_csv": "register.csv", "threshold": 5}

# case -> (command, config: shipped name or literal dict, extra flags, exit code)
CASES = {name: (command, name, (), 0) for name, command in SHIPPED.items()}
CASES.update({
    "branch_anc_diverged": (
        "anc simulate", _variant("anc_tone_2tap", step_size=10.0), (), 2),
    "branch_econ_discounted_breakeven": (
        "econ npv", "econ_base", ("--discounted-breakeven",), 0),
    "branch_econ_require_irr": (
        "econ scenario", "econ_worst_case", ("--require-irr",), 2),
    "branch_sensitivity_zero_base": (
        "econ sensitivity",
        {"model": _ZERO_BASE_MODEL,
         "rows": [{"target": "Development", "pct": 0.1},
                  {"target": "UNITS", "pct": -0.5}]},
        (), 0),
    "branch_bom_expected_all_match": (
        "cost bom",
        {**_BOM_BASE,
         "assembly": {"ops_csv": str(CONFIG_DIR / "assembly_ops.csv"),
                      "hourly_rate": 10.0},
         "expected": {"direct_total": 107.16, "total_manufacturing": 121.02,
                      "assembly_seconds": 1840.0}},
        (), 0),
    "branch_bom_bare": ("cost bom", _BOM_BASE, (), 0),
    "branch_risk_empty": ("plan risk", _RISK_CONFIG, (), 0),
    "branch_risk_quoted": ("plan risk", _RISK_CONFIG, (), 0),
    "branch_sensitivity_no_rows": (
        "econ sensitivity", _variant("econ_sensitivity_grid", rows=[]), (), 0),
})

# case -> {file name: text} of the CSV tables a literal config names, written
# next to it so that tests/golden/ holds only goldens
TABLES = {
    "branch_risk_empty": {"register.csv": _RISK_HEADER},
    "branch_risk_quoted": {"register.csv": _RISK_HEADER
                           + 'Q1,"Seal leaks, ""hiss"" at idle",Design-related,7,8\n'
                           + "Q2,Late tooling,Schedule,2,3\n"},
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, fmt, tmp_path):
    command, config, flags, expected_code = CASES[case]
    for name, text in TABLES.get(case, {}).items():
        (tmp_path / name).write_text(text)
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = CONFIG_DIR / f"{config}.json"
    out = tmp_path / "report"
    code = main([*command.split(), "--config", str(path), *flags,
                 "--format", fmt, "--output", str(out)])
    assert code == expected_code
    assert out.read_bytes() == (GOLDEN_DIR / f"{case}.{fmt}").read_bytes()


def _cases(*commands):
    return sorted(case for case, (command, *_) in CASES.items() if command in commands)


_PERIOD_COLUMNS = ["period", "cash_flow", "discounted", "cumulative"]


def _agrees(shown, value):
    """Whether ``value`` (a float or a CSV cell) rounds to ``shown``, a
    table figure with thousands separators, at the table's precision."""
    places = len(shown.partition(".")[2])
    error = abs(Decimal(value) - Decimal(shown.replace(",", "")))
    return error <= Decimal(5) / 10 ** (places + 1)


@pytest.mark.parametrize("case", _cases("econ npv", "econ scenario"))
def test_econ_formats_of_one_run_agree(case):
    table = (GOLDEN_DIR / f"{case}.table").read_text(encoding="utf-8")
    doc = json.loads((GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8"))
    header, *csv_rows = csv.reader(io.StringIO(
        (GOLDEN_DIR / f"{case}.csv").read_text(encoding="utf-8")))
    fields = dict(re.findall(r"^  (\w+): +(\S+)$", table, re.M))
    assert _agrees(fields["npv"], doc["npv"])
    assert _agrees(fields["discount_rate"], doc["discount_rate"])
    if doc["irr"] is None:
        assert fields["irr_per_period"] == "undefined"
    else:
        assert _agrees(fields["irr_per_period"], doc["irr"])
    assert fields["break_even_period"] == str(doc["break_even_period"] or "none")

    lines = table.splitlines()
    start = [line.split() for line in lines].index(_PERIOD_COLUMNS) + 1
    rows = [line.split() for line in takewhile(bool, lines[start:])]
    assert header == _PERIOD_COLUMNS
    assert len(rows) == len(doc["cash_flows"]) == len(csv_rows) > 0
    for row, flow, cells in zip(rows, doc["cash_flows"], csv_rows):
        assert _agrees(row[1], flow)
        assert all(map(_agrees, row, cells))


def _formats(case):
    """The table's lines, the JSON document and the CSV rows of one golden."""
    def text(fmt):
        return (GOLDEN_DIR / f"{case}.{fmt}").read_text(encoding="utf-8")
    return (text("table").splitlines(), json.loads(text("json")),
            list(csv.reader(io.StringIO(text("csv")))))


@pytest.mark.parametrize("case", _cases("econ sensitivity"))
def test_sensitivity_formats_of_one_run_agree(case):
    table, doc, (header, *csv_rows) = _formats(case)
    base = re.fullmatch(r"sensitivity of npv \(base (\S+)\)", table[0]).group(1)
    assert _agrees(base, doc["base_npv"])
    # columns are at least two spaces apart, and no parameter holds two
    rows = [re.split(r" {2,}", line.strip()) for line in table[3:]]
    assert re.split(r" {2,}", table[2].strip()) == [
        "parameter", "pct", "periods", "delta_npv", "pct_of_base"]
    assert header == ["parameter", "pct", "first", "last", "delta_npv",
                      "delta_pct_of_base"]
    assert len(rows) == len(doc["rows"]) == len(csv_rows)
    for (parameter, pct, periods, delta, share), row, cells in zip(rows, doc["rows"],
                                                                   csv_rows):
        assert parameter == row["parameter"] == cells[0]
        assert _agrees(pct.removesuffix("%"), Decimal(row["pct"]) * 100)
        assert _agrees(cells[1], row["pct"])
        assert periods == f"{row['first']}-{row['last']}" == "-".join(cells[2:4])
        assert _agrees(delta, row["delta_npv"]) and _agrees(delta, cells[4])
        if row["delta_pct_of_base"] is None:
            assert (share, cells[5]) == ("n/a", "")
        else:
            assert _agrees(share.removesuffix("%"), Decimal(row["delta_pct_of_base"]) * 100)
            assert _agrees(share.removesuffix("%"), Decimal(cells[5]) * 100)


_DISCREPANCY = re.compile(
    r"^    (\w+): computed (\S+), expected (\S+) \(delta (\S+)\)$", re.M)


@pytest.mark.parametrize("case", _cases("plan market"))
def test_market_formats_of_one_run_agree(case):
    _summary_formats_agree(case, "market sizing")


@pytest.mark.parametrize("case", _cases("cost bom"))
def test_bom_formats_of_one_run_agree(case):
    _summary_formats_agree(case, "manufacturing cost summary")


def _summary_formats_agree(case, title):
    """Every figure and discrepancy of a `label: value` summary agrees across
    the three formats."""
    table, doc, (header, *csv_rows) = _formats(case)
    assert table[0] == title and header == ["field", "value"]
    fields = dict(re.findall(r"^  (\w+): +(\S+)$", "\n".join(table), re.M))
    cells = dict(csv_rows)
    figures = {label: value for label, value in doc.items() if label != "discrepancies"}
    assert list(fields) == [label for label, _ in csv_rows if "." not in label]
    assert sorted(fields) == sorted(figures)
    for label, shown in fields.items():
        assert _agrees(shown, figures[label]) and _agrees(shown, cells[label])

    parts = ("computed", "expected", "delta")
    audited = [(d["label"], *(d[part] for part in parts))
               for d in doc.get("discrepancies", ())]
    assert [label for label, _ in csv_rows if "." in label] == [
        f"discrepancy.{d[0]}.{part}" for d in audited for part in parts]
    for label, *figures in audited:
        assert all(_agrees(cells[f"discrepancy.{label}.{part}"], figure)
                   for part, figure in zip(parts, figures))
    shown = _DISCREPANCY.findall("\n".join(table))
    if shown:
        assert [label for label, *_ in shown] == [label for label, *_ in audited]
        for (_, *texts), (_, *figures) in zip(shown, audited):
            assert all(map(_agrees, texts, figures))
    else:
        assert audited == []


_MATCH = "  all supplied expected values match"
_DIFFER = "  figures that differ from the supplied expected values:"


@pytest.mark.parametrize("case", _cases("cost bom"))
def test_bom_claim_sentences_follow_from_json(case):
    table, doc, _ = _formats(case)
    config = CASES[case][1]
    if not isinstance(config, dict):
        config = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    supplied = any(v is not None for v in (config.get("expected") or {}).values())
    audited = [d["label"] for d in doc["discrepancies"]]
    assert (_MATCH in table) is (supplied and audited == [])
    assert (_DIFFER in table) is bool(audited)
    if audited:
        lines = table[table.index(_DIFFER) + 1:]
        assert [_DISCREPANCY.fullmatch(line).group(1) for line in lines] == audited


@pytest.mark.parametrize("case", _cases("plan concept"))
def test_concept_formats_of_one_run_agree(case):
    table, doc, (header, *csv_rows) = _formats(case)
    assert table[0] == "concept ranking" and table[1].split() == ["rank", "concept", "total"]
    assert header == ["concept", "total", "rank"]
    # rank, concept, total; a concept may hold single spaces
    shown = [re.fullmatch(r" +(\d+)  (.+?) +(\S+)", line).groups() for line in table[2:]]
    assert sorted(shown, key=lambda row: int(row[0])) == shown
    assert sorted((c, t, r) for r, c, t in shown) == sorted(map(tuple, csv_rows))
    assert len(csv_rows) == len(doc["scores"])
    for (concept, total, rank), score in zip(csv_rows, doc["scores"]):
        assert (concept, int(rank)) == (score["concept"], score["rank"])
        assert _agrees(total, score["total"])


# code, p, i, score, quadrant, category (single spaces at most), description
_RISK_ROW = re.compile(r"  (\S+) +(\d+) +(\d+) +(\d+)  (\S+) +(.*?) {2,}(.*)")
_RISK_FIELDS = ["code", "description", "category", "probability", "impact", "score",
                "quadrant"]


@pytest.mark.parametrize("case", _cases("plan risk"))
def test_risk_formats_of_one_run_agree(case):
    table, doc, (header, *csv_rows) = _formats(case)
    assert table[0] == f"risk register (threshold {doc['threshold']})"
    assert table[1].split() == ["code", "p", "i", "score", "quadrant", "category",
                                "description"]
    assert header == _RISK_FIELDS
    shown = [_RISK_ROW.fullmatch(line).groups() for line in table[2:]]
    assert len(shown) == len(csv_rows) == len(doc["items"])
    for (code, p, i, score, quadrant, category, text), cells, item in zip(
            shown, csv_rows, doc["items"]):
        assert [code, text, category, p, i, score, quadrant] == cells == [
            str(item[field]) for field in _RISK_FIELDS]


@pytest.mark.parametrize("case", _cases("anc simulate"))
def test_anc_formats_of_one_run_agree(case):
    table, doc, (header, *csv_rows) = _formats(case)
    trace = doc["attenuation_trace_db"]

    def one_decimal(db):  # the table rounds the 4-decimal figure again
        return f"{round(db, 1) + 0.0:.1f}"

    assert doc["diverged"] is (CASES[case][3] == 2)
    assert table[0] == "noise-control simulation"
    assert dict(re.findall(r"^  (\w+): +(\S+)$", "\n".join(table[1:5]), re.M)) == {
        "samples": str(doc["n_samples"]), "windows": str(len(trace)),
        "diverged": "yes" if doc["diverged"] else "no",
        "steady_state_attenuation_db": one_decimal(doc["steady_state_attenuation_db"])}
    assert table[5] == "" and table[6].split() == header == ["window", "attenuation_db"]
    windows = list(enumerate(trace, start=1))
    assert [line.split() for line in table[7:]] == [
        [str(i), one_decimal(db)] for i, db in windows]
    assert [(int(i), float(db)) for i, db in csv_rows] == windows


def test_shipped_goldens_match_benchmark_hashes():
    recorded = json.loads(BENCH_HASHES.read_text())["sha256"]
    ours = {f"{name}.json:{fmt}": hashlib.sha256(
                (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()).hexdigest()
            for name in SHIPPED for fmt in FORMATS}
    assert ours == recorded


def test_golden_dir_holds_exactly_one_file_per_case_and_format():
    expected = {f"{case}.{fmt}" for case in CASES for fmt in FORMATS}
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(expected)


@pytest.mark.parametrize("text, signed", [
    ("-0", True), ("-0%", True), ("-0.00%", True), ("Development,-0,1,3", True),
    ("  discount_rate:     -0", True), ('"pct": -0.0,', True), ("[-0.000000]", True),
    ("-0.05", False), ("-0.5%", False), ("-10", False), ("-100.00", False),
    ("1-3", False), ("10-0", False), ("2026-01-05", False), ("1e-05", False),
    ("0.000000", False), ("+0.00%", False), ("-1,000.00", False),
])
def test_signed_zero_pattern(text, signed):
    assert bool(SIGNED_ZERO.search(text)) is signed


def test_no_golden_prints_a_signed_zero():
    found = [f"{path.name}: {match.group()!r}"
             for path in sorted(GOLDEN_DIR.iterdir())
             for match in SIGNED_ZERO.finditer(path.read_text(encoding="utf-8"))]
    assert found == []


# Writes the shipped ANC reports in every format into argv[1], then prints
# the sha256 of one np.convolve result, which OpenBLAS computes.
_ANC_PROBE = """\
import hashlib, json, sys
import numpy as np
from hushkit.cli import FORMATS, main
for case in json.loads(sys.argv[2]):
    for fmt in FORMATS:
        code = main(["anc", "simulate", "--config", f"{sys.argv[3]}/{case}.json",
                     "--format", fmt, "--output", f"{sys.argv[1]}/{case}.{fmt}"])
        assert code == 0, (case, fmt, code)
probe = np.convolve(np.sin(np.arange(4096.0)), np.cos(np.arange(64.0)))
print(hashlib.sha256(probe.tobytes()).hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_anc_goldens_hold_under_other_openblas_kernels(tmp_path):
    # np.convolve, which makes the broadband stimulus and both path
    # convolutions, runs on the OpenBLAS kernel chosen for the CPU; the
    # variable forces another one in a fresh process
    anc = sorted(name for name, command in SHIPPED.items() if command == "anc simulate")
    src = str(CONFIG_DIR.parent / "src")
    digests = []
    for coretype in ("Haswell", "Prescott"):
        out = tmp_path / coretype
        out.mkdir()
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-c", _ANC_PROBE, str(out), json.dumps(anc), str(CONFIG_DIR)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
        for case in anc:
            for fmt in FORMATS:
                assert (out / f"{case}.{fmt}").read_bytes() == \
                    (GOLDEN_DIR / f"{case}.{fmt}").read_bytes(), (coretype, case, fmt)
    if digests[0] == digests[1]:
        pytest.skip("OPENBLAS_CORETYPE chose no other kernel in this numpy build")
