"""Seeded inputs for the benchmark workloads.

Every workload runs a fixed design of operations, as one or more pass
plans that the timed loop cycles through. The seed picks the values
inside each slot of the design (taps, tones, step sizes, cash flows, CSV
rows, the order of operations), never the sizes, so that two seeds cost
about the same and the spread between runs measures the machine rather than
the draw. The program only ever sees the JSON and CSV files written here.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

FORMATS = ("table", "json", "csv")

# Shipped configs, with the command each one is run under.
SHIPPED_ANC = ("anc_broadband.json", "anc_tone.json", "anc_tone_2tap.json")
SHIPPED_BUSINESS = (
    (("econ", "npv"), "econ_base.json"),
    (("econ", "scenario"), "econ_bare_minimum.json"),
    (("econ", "scenario"), "econ_best_case.json"),
    (("econ", "scenario"), "econ_worst_case.json"),
    (("econ", "scenario"), "econ_scenario_marketing_shift.json"),
    (("econ", "scenario"), "econ_scenario_marketing_shift_price_up.json"),
    (("econ", "scenario"), "econ_scenario_marketing_shift_sales_up.json"),
    (("econ", "sensitivity"), "econ_sensitivity_grid.json"),
    (("cost", "bom"), "cost_initial.json"),
    (("cost", "bom"), "cost_revised_detail.json"),
    (("cost", "bom"), "cost_revised_totals.json"),
    (("plan", "concept"), "plan_concept.json"),
    (("plan", "risk"), "plan_risk.json"),
    (("plan", "market"), "plan_market.json"),
)

FS = 8000.0
WINDOW = int(round(0.25 * FS))  # the attenuation window of hushkit.anc


@dataclass(frozen=True)
class Op:
    """One invocation of ``hushkit.cli.main``.

    ``key`` names the (config, flags, format) triple; an op with the same key
    must always give the same bytes. ``golden`` is the key into golden.json
    for shipped configs (None for generated ones), ``expect_code`` the exit
    code the design implies, and ``samples`` the ANC duration (0 for business
    commands).
    """

    key: str
    argv: Tuple[str, ...]
    fmt: str
    expect_code: int
    golden: Optional[str] = None
    samples: int = 0


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _ops_for(name: str, command, config: Path, expect_code: int, *,
             flags=(), golden=False, samples=0) -> List[Op]:
    return [Op(key=f"{name}:{fmt}",
               argv=(*command, "--config", str(config), "--format", fmt, *flags),
               fmt=fmt, expect_code=expect_code,
               golden=f"{config.name}:{fmt}" if golden else None,
               samples=samples)
            for fmt in FORMATS]


# ---------------------------------------------------------------------------
# ANC


def room_path(ntaps, delay, decay, freq, fs=FS):
    """Unit-energy decaying cosine after ``delay`` zero taps (a small room)."""
    taps = [0.0] * ntaps
    for k in range(delay, ntaps):
        kk = k - delay
        taps[k] = math.exp(-kk / decay) * math.cos(2 * math.pi * freq * kk / fs)
    norm = math.sqrt(sum(t * t for t in taps))
    return [t / norm for t in taps]


# (algorithm, noise, samples, filter length, secondary and primary path
#  lengths, leak, secondary estimate, stable). Lengths are fixed because the
# kernel's cost grows with them. LMS and NLMS adapt on the raw reference,
# so their secondary paths stay short-delay and fast-decaying (long in taps,
# short in effect) to keep the phase error small in band. The sizes place
# op_ms_p50 and op_ms_p90 inside blocks of ops of equal cost rather than on
# a step between two costs: slots 1 and 3 cost about the same, and slot 7
# matches the shipped broadband config.
ANC_SLOTS = (
    ("LMS", "tone", 8000, 8, (16, 24), False, "exact", True),
    ("LMS", "broadband", 16000, 256, (512, 384), True, "exact", True),
    ("NLMS", "broadband", 24000, 64, (64, 96), False, "exact", True),
    ("NLMS", "tone", 14000, 192, (256, 512), True, "exact", True),
    ("FXLMS", "tone", 16000, 32, (32, 48), False, "exact", True),
    ("FXLMS", "broadband", 24000, 128, (128, 192), True, "perturbed", True),
    ("FXLMS", "broadband", 8000, 200, (16, 32), False, "perturbed", True),
    ("NLMS", "broadband", 40000, 128, (32, 32), False, "exact", True),
    ("LMS", "broadband", 8000, 32, (16, 24), False, "exact", False),
    ("NLMS", "broadband", 8000, 16, (16, 16), False, "exact", False),
    ("FXLMS", "tone", 8000, 64, (32, 48), True, "exact", False),
)


def _anc_config(rng: random.Random, algorithm, noise, samples, filter_length,
                path_lengths, leak, estimate, stable):
    sec_len, pri_len = path_lengths
    if algorithm == "FXLMS":
        sec_delay, sec_decay = rng.randint(1, 4), rng.uniform(4.0, 8.0)
    else:
        sec_delay, sec_decay = 0, rng.uniform(1.0, 2.0)
    sec_freq = rng.uniform(600.0, 1000.0)
    secondary = room_path(sec_len, sec_delay, sec_decay, sec_freq)
    primary = room_path(pri_len, min(pri_len - 1, sec_delay + rng.randint(2, 6)),
                        rng.uniform(5.0, 9.0), rng.uniform(500.0, 800.0))
    if noise == "tone":
        power = 0.5
        stimulus = {"kind": "tone", "freq_hz": rng.uniform(80.0, 250.0),
                    "amplitude": 1.0, "phase_rad": rng.uniform(0.0, math.pi)}
    else:
        power = 1.0
        stimulus = {"kind": "broadband", "low_hz": rng.uniform(50.0, 120.0),
                    "high_hz": rng.uniform(350.0, 500.0)}
    # Unstable step sizes keep clear of the band in which a window's residual
    # samples are finite but their squares overflow: there the program reports
    # an attenuation of -Infinity, a known defect that the strict JSON check
    # fails (perfbench/tests/test_perfbench.py reproduces it). Unstable NLMS
    # sits just above mu = 2, so the power-ratio test stops it within a few
    # windows, its worst window above -130 dB (the squares overflow near
    # -3000 dB). LMS and FXLMS sit far above their bound, so a sample turns
    # non-finite within the first window. Of seeds 0-1999, none lands in the
    # band.
    if algorithm == "NLMS":
        mu = rng.uniform(0.05, 0.3) if stable else rng.uniform(2.3, 2.6)
    else:
        scale = 1.0 / (filter_length * power * (1 + sec_delay))
        unstable = (20.0, 60.0) if algorithm == "LMS" else (150.0, 400.0)
        mu = scale * (rng.uniform(0.02, 0.1) if stable else rng.uniform(*unstable))
    doc = {
        "algorithm": algorithm,
        "duration_samples": samples,
        "rng_seed": rng.randint(0, 2**31 - 1),
        "sample_rate_hz": FS,
        "filter_length": filter_length,
        "step_size": mu,
        "noise": stimulus,
        "primary_path": primary,
        "secondary_path": secondary,
    }
    if leak:
        doc["leak_factor"] = rng.uniform(1e-4, 1e-2)
    if estimate == "perturbed":
        doc["secondary_estimate"] = room_path(
            sec_len, sec_delay, sec_decay * rng.uniform(0.9, 1.1),
            sec_freq * rng.uniform(0.95, 1.05))
    return doc


def short_anc_config(seed: int, workdir: Path) -> Path:
    """A ~4 000-sample NLMS broadband config: the warm-up and cold-start op."""
    rng = random.Random(f"short-anc-{seed}")
    doc = _anc_config(rng, "NLMS", "broadband", 4000, 48, (24, 24),
                      False, "exact", True)
    return _write(workdir / "anc_short.json", doc)


def anc_ops(seed: int, workdir: Path, configs: Path) -> List[List[Op]]:
    rng = random.Random(f"anc-{seed}")
    ops = []
    for name in SHIPPED_ANC:
        doc = json.loads((configs / name).read_text(encoding="utf-8"))
        ops += _ops_for(name, ("anc", "simulate"), configs / name, 0,
                        golden=True, samples=doc["duration_samples"])
    for i, slot in enumerate(ANC_SLOTS):
        stable = slot[-1]
        path = _write(workdir / f"anc_{i:02d}.json", _anc_config(rng, *slot))
        ops += _ops_for(path.name, ("anc", "simulate"), path, 0 if stable else 2,
                        samples=slot[2])
    rng.shuffle(ops)
    return [ops]


# ---------------------------------------------------------------------------
# business


def _econ_model(rng: random.Random, horizon: int, n_lines: int, kind: str):
    """A cash-flow model whose IRR behaviour is fixed by ``kind``.

    normal:         outflows first, then profitable sales; IRR bracketed on
                    [0, 10] directly.
    grid_root:      a grant in period 1, heavy costs in periods 2-4 and thin
                    sales; NPV is positive at r=0 and r=10 but negative near
                    r=0.2, so the IRR needs the grid scan and exists.
    grid_none:      a grant that dominates every rate; flows change sign but
                    NPV stays positive, so the full grid scan finds nothing.
    no_sign_change: every flow is an outflow; no IRR.
    """
    cost = rng.uniform(2e4, 8e4)
    lines = []
    if kind == "normal":
        lines.append({"name": "Development", "first": 1,
                      "last": rng.randint(3, 8), "rate": -cost})
        sales_first = rng.randint(9, 16)
        units, price, unit_cost = rng.uniform(500, 3000), rng.uniform(150, 400), 0.0
        unit_cost = -price * rng.uniform(0.2, 0.6)
    elif kind in ("grid_root", "grid_none"):
        grant = (0.5 if kind == "grid_root" else 10.0) * cost
        lines.append({"name": "Grant", "first": 1, "last": 1, "rate": grant})
        lines.append({"name": "Build-out", "first": 2, "last": 4, "rate": -cost})
        sales_first = 5
        net = cost * rng.uniform(0.05, 0.3)
        price = rng.uniform(100, 300)
        unit_cost = -price * 0.5
        units = net / (price + unit_cost)
    else:
        lines.append({"name": "Development", "first": 1,
                      "last": rng.randint(3, 8), "rate": -cost})
        sales_first = rng.randint(9, 16)
        units, price = rng.uniform(500, 3000), rng.uniform(50, 100)
        unit_cost = -price * rng.uniform(1.2, 1.8)
    # Small overheads that never flip the sign structure above: together at
    # most 1% of `cost` per period, and never in period 1.
    for j in range(n_lines - len(lines)):
        first = rng.randint(2, horizon)
        lines.append({"name": f"Overhead {j:02d}", "first": first,
                      "last": rng.randint(first, horizon),
                      "rate": -cost * 0.01 / n_lines * rng.uniform(0.1, 1.0)})
    return {"horizon": horizon, "discount_rate": rng.uniform(0.005, 0.03),
            "expenses": lines,
            "sales": {"first": sales_first, "last": horizon, "units": units,
                      "unit_price": price, "unit_cost": unit_cost}}


def _adjustments(rng, model, count, sales_targets=True):
    names = [line["name"] for line in model["expenses"]]
    targets = names + (["UNITS", "PRICE", "COST"] if sales_targets else [])
    rows = []
    for _ in range(count):
        target = rng.choice(targets)
        row = {"target": target, "pct": round(rng.uniform(-0.5, 0.5), 4)}
        if target in names and rng.random() < 0.3:
            first = rng.randint(1, model["horizon"])
            row["first"], row["last"] = first, rng.randint(first, model["horizon"])
        rows.append(row)
    return rows


def _money_cells(rng, scale):
    cents = [rng.randint(0, int(scale * 100)) for _ in range(3)]
    return [f"{c / 100:.2f}" for c in cents] + [f"{sum(cents) / 100:.2f}"]


def _bom_csv(rng, path: Path, rows: int) -> Path:
    out = ["Component,Qty required,Purchased Costs,Processing,"
           "Assembly (labor),Total Unit Variable,Suppliers"]
    for i in range(rows):
        cells = _money_cells(rng, rng.choice((0.5, 5.0, 20.0)))
        out.append(f"Part {i:03d},{rng.randint(1, 8)},{','.join(cells)},"
                   f"Supplier {rng.randint(1, 40)}")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def _assembly_csv(rng, path: Path, rows: int) -> Path:
    out = ["Part,Quantity,Handling Time (s),Insertion Time (s)"]
    for i in range(rows):
        out.append(f"Part {i:03d},{rng.randint(1, 6)},{rng.randint(1, 40)},"
                   f"{rng.randint(1, 130)}")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def _concept_csv(rng, path: Path, rows: int, concepts: int) -> Path:
    parts = [rng.randint(1, 100) for _ in range(rows)]
    # Weights in millionths that sum to exactly one.
    micro = [p * 1_000_000 // sum(parts) for p in parts]
    micro[0] += 1_000_000 - sum(micro)
    names = [chr(ord("A") + i) for i in range(concepts)]
    out = ["Criterion,Weight," + ",".join(names)]
    for i, w in enumerate(micro):
        ratings = ",".join(str(rng.randint(1, 3)) for _ in names)
        out.append(f"Criterion {i:03d},{w / 1e6:.6f},{ratings}")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def _risk_csv(rng, path: Path, rows: int) -> Path:
    categories = ("Design-related", "Supply", "Market", "Regulatory", "Finance")
    out = ["Code,Description,Category,Probability,Impact"]
    for i in range(rows):
        out.append(f"R{i:03d},Risk number {i},{rng.choice(categories)},"
                   f"{rng.randint(1, 10)},{rng.randint(1, 10)}")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def shipped_business_ops(configs: Path) -> List[Op]:
    ops = []
    for command, name in SHIPPED_BUSINESS:
        ops += _ops_for(name, command, configs / name, 0, golden=True)
    return ops


def business_ops(seed: int, workdir: Path, configs: Path) -> List[List[Op]]:
    rng = random.Random(f"business-{seed}")
    ops = shipped_business_ops(configs)

    def gen(name, command, doc, code=0, flags=()):
        nonlocal ops
        ops += _ops_for(name, command, _write(workdir / name, doc), code,
                        flags=flags)

    gen("econ_npv_240x30.json", ("econ", "npv"),
        _econ_model(rng, 240, 30, "normal"))
    gen("econ_npv_grid_root.json", ("econ", "npv"),
        _econ_model(rng, 180, 20, "grid_root"),
        flags=("--require-irr", "--discounted-breakeven"))
    gen("econ_npv_grid_none.json", ("econ", "npv"),
        _econ_model(rng, 240, 10, "grid_none"), code=2,
        flags=("--require-irr",))
    model = _econ_model(rng, 120, 30, "no_sign_change")
    gen("econ_scenario_no_irr.json", ("econ", "scenario"),
        {"model": model,
         "adjustments": _adjustments(rng, model, 20, sales_targets=False)},
        code=2, flags=("--require-irr",))
    model = _econ_model(rng, 240, 30, "normal")
    gen("econ_scenario_240x30.json", ("econ", "scenario"),
        {"model": model, "adjustments": _adjustments(rng, model, 30)},
        flags=("--discounted-breakeven",))
    model = _econ_model(rng, 240, 30, "normal")
    gen("econ_sensitivity_150.json", ("econ", "sensitivity"),
        {"model": model, "rows": _adjustments(rng, model, 150)})

    bom = _bom_csv(rng, workdir / "bom_300.csv", 300)
    assembly = _assembly_csv(rng, workdir / "assembly_200.csv", 200)
    gen("cost_bom_300.json", ("cost", "bom"),
        {"bom_csv": bom.name, "shipment": round(rng.uniform(0, 5), 2),
         "overhead_rates": {"materials_rate": round(rng.uniform(0, 0.3), 3),
                            "labor_rate": round(rng.uniform(0, 1.5), 3)},
         "warranty": round(rng.uniform(0, 5), 2),
         "assembly": {"ops_csv": assembly.name,
                      "hourly_rate": round(rng.uniform(8, 30), 2)},
         "dfa": {"min_parts": rng.randint(20, 200)},
         "expected": {"assembly_cost": round(rng.uniform(10, 500), 2),
                      "total_manufacturing": round(rng.uniform(100, 5000), 2)}})
    bom = _bom_csv(rng, workdir / "bom_200.csv", 200)
    gen("cost_bom_override_200.json", ("cost", "bom"),
        {"bom_csv": bom.name, "shipment": round(rng.uniform(0, 5), 2),
         "overhead_rates": {"materials_rate": 0.1, "labor_rate": 0.8},
         "warranty": round(rng.uniform(0, 5), 2),
         "overhead_override": round(rng.uniform(0, 50), 2),
         "reduction": {"old_total": round(rng.uniform(500, 900), 2),
                       "new_total": round(rng.uniform(300, 600), 2)}})

    concept = _concept_csv(rng, workdir / "concept_200.csv", 200, 5)
    gen("plan_concept_200.json", ("plan", "concept"), {"matrix_csv": concept.name})
    risk = _risk_csv(rng, workdir / "risk_300.csv", 300)
    gen("plan_risk_300.json", ("plan", "risk"),
        {"register_csv": risk.name, "threshold": rng.randint(3, 7)})
    gen("plan_market_gen.json", ("plan", "market"),
        {"world_pop": rng.uniform(6e9, 9e9), "ref_pop": rng.uniform(1e8, 5e8),
         "ref_affected": rng.uniform(1e5, 1e6),
         "tolerance": rng.uniform(0.05, 0.5),
         "adoption_share": rng.uniform(0.1, 0.9),
         "unit_price": rng.uniform(100, 500), "unit_cost": rng.uniform(50, 100)})
    rng.shuffle(ops)
    return [ops]


def cold_ops(seed: int, workdir: Path, configs: Path) -> List[List[Op]]:
    """Three pass plans: each shipped business config once, in a format that
    rotates from plan to plan, plus the short ANC config twice in each format.

    The ANC ops are the slowest; at 6 of 20 ops op_ms_p90 falls inside
    their block."""
    rng = random.Random(f"cold-{seed}")
    anc = _ops_for("anc_short.json", ("anc", "simulate"),
                   short_anc_config(seed, workdir), 0, samples=4000)
    business = shipped_business_ops(configs)  # config-major, FORMATS-minor
    plans = []
    for p in range(len(FORMATS)):
        plan = [business[3 * j + (j + p) % 3] for j in range(len(SHIPPED_BUSINESS))]
        plan += 2 * anc
        rng.shuffle(plan)
        plans.append(plan)
    return plans
