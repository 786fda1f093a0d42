"""Acceptance criteria.

Each test verifies one release criterion end to end against the shipped
configuration files; the terminal summary prints one PASS/FAIL line per
criterion (see conftest.py).
"""
import json

import numpy as np
import pytest

from hushkit.anc import DEFAULT_STEP_SIZE, EXACT, AncConfig, anc_run
from hushkit.cli import main
from hushkit.econ import (Adjustment, ExpenseLine, ModelSpec, SalesBlock,
                          sensitivity_row)
from hushkit.planning import concept_score, load_concept_csv
from hushkit.signals import (ATTENUATION_CAP_DB, FirPath, convolve_path,
                             generate_tone)

FS = 8000.0
UNIT = FirPath(np.array([1.0]))


def load_model(path):
    doc = json.loads(path.read_text())
    doc = doc.get("model", doc)
    return ModelSpec(
        horizon=doc["horizon"],
        discount_rate=doc["discount_rate"],
        expenses=tuple(ExpenseLine(**line) for line in doc["expenses"]),
        sales=SalesBlock(**doc["sales"]),
    )


def cli_json(argv, tmp_path, name):
    out = tmp_path / f"{name}.json"
    code = main([*argv, "--format", "json", "--output", str(out)])
    return code, json.loads(out.read_bytes())


def econ_doc(configs_dir, tmp_path, config, name, command="npv", extra=()):
    code, doc = cli_json(
        ["econ", command, "--config", str(configs_dir / config), *extra],
        tmp_path, name)
    assert code in (0, 2)
    return doc


def test_criterion_1(configs_dir, tmp_path):
    """Baseline model: NPV ~= 4,050,146; IRR ~= 51%; break-even in period 5."""
    doc = econ_doc(configs_dir, tmp_path, "econ_base.json", "base")
    assert doc["npv"] == pytest.approx(4_050_146, abs=5)
    assert doc["irr"] == pytest.approx(0.51, abs=0.01)
    assert doc["break_even_period"] == 5


def test_criterion_2(configs_dir, tmp_path):
    """Best case: NPV ~= 10,031,183; IRR ~= 97%; gain over base ~= 5,981,037."""
    base = econ_doc(configs_dir, tmp_path, "econ_base.json", "base")
    best = econ_doc(configs_dir, tmp_path, "econ_best_case.json", "best",
                    command="scenario")
    assert best["npv"] == pytest.approx(10_031_183, abs=5)
    assert best["irr"] == pytest.approx(0.97, abs=0.02)
    assert best["npv"] - base["npv"] == pytest.approx(5_981_037, abs=10)


def test_criterion_3(configs_dir, tmp_path):
    """Bare minimum: NPV within $500 of zero; IRR at the discount rate;
    discounted recovery no earlier than the final period."""
    doc = econ_doc(configs_dir, tmp_path, "econ_bare_minimum.json", "bare",
                   command="scenario", extra=["--discounted-breakeven"])
    assert abs(doc["npv"]) <= 500
    assert 0.024 <= doc["irr"] <= 0.031
    assert doc["break_even_period"] in (24, None)


def test_criterion_4(configs_dir, tmp_path):
    """Worst case: NPV ~= -542,295; no IRR; never breaks even."""
    doc = econ_doc(configs_dir, tmp_path, "econ_worst_case.json", "worst",
                   command="scenario")
    assert doc["npv"] == pytest.approx(-542_295, abs=5)
    assert doc["irr"] is None
    assert doc["break_even_period"] is None


def test_criterion_5(configs_dir, tmp_path):
    """Single-parameter sensitivities reproduce the reference deltas."""
    code, doc = cli_json(
        ["econ", "sensitivity",
         "--config", str(configs_dir / "econ_sensitivity_grid.json")],
        tmp_path, "grid")
    assert code == 0
    deltas = {(r["parameter"], round(r["pct"], 6)): r["delta_npv"]
              for r in doc["rows"]}
    goldens = {
        ("Development", -0.30): 42_840,
        ("Development", 0.10): -14_280,
        ("Development", 0.40): -57_121,
        ("Testing", -0.30): 22_571,
        ("Tooling and Ramp-Up Costs", -0.30): 8_054,
        ("Market Introduction", -0.30): 10_738,
        ("Ongoing Marketing Costs", -0.30): 19_487,
        ("UNITS", -0.30): -1_318_737,
        ("UNITS", 0.10): 439_578,
        ("PRICE", -0.30): -1_906_607,
        ("PRICE", 0.10): 635_535,
        ("COST", -0.30): 587_870,
        ("COST", 0.10): -195_957,
    }
    for key, expected in goldens.items():
        assert deltas[key] == pytest.approx(expected, abs=2), key


def test_criterion_6(configs_dir, tmp_path):
    """Compound scenarios: marketing shift alone loses ~65,427; with higher
    sales it gains ~1,692,888; with a higher price ~5,251,887."""
    base = econ_doc(configs_dir, tmp_path, "econ_base.json", "base")["npv"]
    expected = {
        "econ_scenario_marketing_shift.json": -65_427,
        "econ_scenario_marketing_shift_sales_up.json": 1_692_888,
        "econ_scenario_marketing_shift_price_up.json": 5_251_887,
    }
    for config, golden in expected.items():
        doc = econ_doc(configs_dir, tmp_path, config, config,
                       command="scenario")
        assert doc["npv"] - base == pytest.approx(golden, abs=5), config


def test_criterion_7(configs_dir):
    """Expense-line sensitivities match the closed-form annuity identity."""
    spec = load_model(configs_dir / "econ_base.json")
    grid = json.loads((configs_dir / "econ_sensitivity_grid.json").read_text())
    r = spec.discount_rate
    annuity = lambda n: (1.0 - (1.0 + r) ** -n) / r
    lines = {line.name: line for line in spec.expenses}
    checked = 0
    for row in grid["rows"]:
        line = lines.get(row["target"])
        if line is None:
            continue
        delta, _ = sensitivity_row(spec, Adjustment(line.name, row["pct"]))
        expected = line.rate * row["pct"] * (annuity(line.last)
                                             - annuity(line.first - 1))
        assert delta == pytest.approx(expected, rel=1e-6), row
        checked += 1
    assert checked == 15  # five expense lines, three shifts each


def test_criterion_8(configs_dir, tmp_path):
    """Cost roll-ups: initial unit cost 121.02 on a 107.16 direct base;
    revised design reaches 78.91 direct and saves 28.52; stated figures that
    disagree with the arithmetic are flagged, not silently adopted."""
    _, initial = cli_json(
        ["cost", "bom", "--config", str(configs_dir / "cost_initial.json")],
        tmp_path, "initial")
    assert initial["direct_total"] == pytest.approx(107.16, abs=0.005)
    assert initial["total_manufacturing"] == pytest.approx(121.02, abs=0.005)
    assert initial["assembly_seconds"] == 1840.0
    flagged = {d["label"]: d for d in initial["discrepancies"]}
    assert flagged["assembly_cost"]["computed"] == pytest.approx(5.11, abs=0.005)
    assert flagged["assembly_cost"]["expected"] == pytest.approx(5.15, abs=0.005)

    _, revised = cli_json(
        ["cost", "bom",
         "--config", str(configs_dir / "cost_revised_totals.json")],
        tmp_path, "revised")
    assert revised["direct_total"] == pytest.approx(78.91, abs=0.005)
    assert revised["reduction_savings"] == pytest.approx(28.52, abs=0.005)
    flagged = {d["label"]: d for d in revised["discrepancies"]}
    assert flagged["total_manufacturing"]["computed"] == pytest.approx(
        92.77, abs=0.005)
    assert flagged["total_manufacturing"]["expected"] == pytest.approx(
        92.50, abs=0.005)


def test_criterion_9(configs_dir):
    """Concept scoring: weighted totals 2.68 / 1.98 / 2.07 and ranking A, C, B."""
    matrix = load_concept_csv(configs_dir / "concept_matrix.csv")
    result = concept_score(matrix)
    totals = {name: total for name, total, _ in result}
    assert totals["A"] == pytest.approx(2.68, abs=1e-9)
    assert totals["B"] == pytest.approx(1.98, abs=1e-9)
    assert totals["C"] == pytest.approx(2.07, abs=1e-9)
    by_rank = [name for name, _, rank in sorted(result, key=lambda t: t[2])]
    assert by_rank == ["A", "C", "B"]


def test_criterion_10():
    """Adaptive-control properties: exact-cancellation cap, zero-step identity,
    filtered-reference equivalence, normalized-step scale invariance,
    convergence targets, and safe divergence handling."""
    tone = generate_tone(200.0, 1.0, 0.0, 40_000, FS)

    def room_path(ntaps, delay, decay, freq):
        k = np.arange(ntaps, dtype=float)
        taps = np.zeros(ntaps)
        kk = k[delay:] - delay
        taps[delay:] = np.exp(-kk / decay) * np.cos(2 * np.pi * freq * kk / FS)
        return FirPath(taps / np.sqrt(np.sum(taps ** 2)))

    primary = room_path(32, 5, 7.0, 650.0)
    secondary = room_path(32, 3, 5.0, 900.0)

    # a) tonal cancellation reaches the attenuation cap (>= 40 dB required)
    cap_run = anc_run(AncConfig("FXLMS", 40_000, filter_length=2,
                                step_size=0.05), tone, UNIT, UNIT)
    assert not cap_run.diverged
    assert cap_run.steady_state_attenuation_db >= 40.0
    assert cap_run.steady_state_attenuation_db == ATTENUATION_CAP_DB

    # b) zero step size leaves the disturbance untouched: exactly 0 dB
    frozen = anc_run(AncConfig("FXLMS", 40_000, filter_length=2,
                               step_size=0.0), tone, UNIT, UNIT)
    assert frozen.steady_state_attenuation_db == 0.0
    assert np.array_equal(frozen.residual.samples,
                          convolve_path(UNIT, tone).samples)

    # c) with a unit secondary path the filtered-reference update is plain LMS
    fx = anc_run(AncConfig("FXLMS", 20_000, filter_length=32,
                           step_size=1e-3, secondary_estimate=EXACT),
                 generate_tone(200.0, 1.0, 0.0, 20_000, FS), primary, UNIT)
    lms = anc_run(AncConfig("LMS", 20_000, filter_length=32,
                            step_size=1e-3), generate_tone(200.0, 1.0, 0.0,
                                                           20_000, FS),
                  primary, UNIT)
    assert np.array_equal(fx.residual.samples, lms.residual.samples)

    # d) the normalized update is invariant to input scale
    def nlms(scale):
        noise = generate_tone(200.0, 50.0 * scale, 0.0, 20_000, FS)
        return anc_run(AncConfig("NLMS", 20_000, filter_length=16),
                       noise, primary, secondary)
    reference = nlms(1.0)
    mask = np.abs(reference.residual.samples) > 1e-6 * 50.0
    for scale in (8.0, 0.125):
        np.testing.assert_allclose(nlms(scale).residual.samples[mask],
                                   reference.residual.samples[mask] * scale,
                                   rtol=5e-9, atol=0)

    # e) realistic 32-tap paths: at least 15 dB within five simulated seconds
    room = anc_run(AncConfig("FXLMS", 40_000, filter_length=128),
                   tone, primary, secondary)
    assert not room.diverged
    assert room.steady_state_attenuation_db >= 15.0

    # f) a thousandfold step size diverges but yields only finite outputs
    runaway = anc_run(
        AncConfig("FXLMS", 40_000, filter_length=128,
                  step_size=1e3 * DEFAULT_STEP_SIZE["FXLMS"]),
        tone, primary, secondary)
    assert runaway.diverged
    assert np.all(np.isfinite(runaway.residual.samples))
    assert np.all(np.isfinite(runaway.attenuation_trace_db))


def test_criterion_11(configs_dir, tmp_path):
    """Identical invocations of every subcommand produce byte-identical
    reports in every output format."""
    commands = {
        "anc": ["anc", "simulate", "--config",
                str(configs_dir / "anc_tone_2tap.json")],
        "npv": ["econ", "npv", "--config",
                str(configs_dir / "econ_base.json")],
        "scenario": ["econ", "scenario", "--config",
                     str(configs_dir / "econ_scenario_marketing_shift.json")],
        "sensitivity": ["econ", "sensitivity", "--config",
                        str(configs_dir / "econ_sensitivity_grid.json")],
        "bom": ["cost", "bom", "--config",
                str(configs_dir / "cost_initial.json")],
        "concept": ["plan", "concept", "--config",
                    str(configs_dir / "plan_concept.json")],
        "risk": ["plan", "risk", "--config",
                 str(configs_dir / "plan_risk.json")],
        "market": ["plan", "market", "--config",
                   str(configs_dir / "plan_market.json")],
    }
    for name, argv in commands.items():
        for fmt in ("table", "json", "csv"):
            payloads = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}-{fmt}-{attempt}"
                code = main([*argv, "--format", fmt, "--output", str(out)])
                assert code == 0, (name, fmt)
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1], (name, fmt)
            assert payloads[0], (name, fmt)
