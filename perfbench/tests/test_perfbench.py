"""Tests of the benchmark itself: inputs, checks and tracing.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate as gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_inputs_depend_only_on_the_seed(tmp_path):
    for make in (gen.anc_ops, gen.business_ops, gen.cold_ops):
        dirs = [tmp_path / make.__name__ / str(i) for i in range(3)]
        keys = []
        for d, seed in zip(dirs, (5, 5, 6)):
            d.mkdir(parents=True)
            keys.append([op.key for plan in make(seed, d, run.CONFIGS)
                         for op in plan])
        assert files(dirs[0]) == files(dirs[1])
        assert keys[0] == keys[1]
        assert files(dirs[0]) != files(dirs[2])


def workload(name, tmp_path):
    w = run.Workload(name, 3, tmp_path, trace=False)
    w.load_program()
    return w


def run_ops(w, ops):
    for op in ops:
        code, out, _ = w.run_op(op, False)
        w.checker.record(op, code, out)


def test_every_business_op_passes_its_checks(tmp_path):
    w = workload("business_reports", tmp_path)
    run_ops(w, w.ops)
    assert w.checker.attempted == len(w.ops) == 75
    assert w.checker.failed == 0, w.checker.failed_keys


def test_perturbed_kernel_counts_anc_ops_as_failed(tmp_path, monkeypatch):
    w = workload("anc_sim", tmp_path)
    kernels = w.kernels
    numpy_kernel = kernels.adapt_chunk_numpy

    def perturbed(x, xf, d, sec, weights, y, e, start, stop, *rest):
        numpy_kernel(x, xf, d, sec, weights, y, e, start, stop, *rest)
        e[start:stop] *= 1.001

    keep = {"anc_00.json:json", "anc_00.json:csv", "anc_tone_2tap.json:json"}
    ops = [op for op in w.ops if op.key in keep]
    run_ops(w, ops)
    w.oracle_check()
    w.kernel_agreement()
    assert w.checker.failed == 0 and w.extra_failed == 0

    (tmp_path / "perturbed").mkdir()
    w = workload("anc_sim", tmp_path / "perturbed")
    monkeypatch.setattr(kernels, "adapt_chunk", perturbed)
    run_ops(w, ops)
    assert set(w.checker.failed_keys) == {"anc_tone_2tap.json:json"}  # golden
    w.oracle_check()
    assert kernels.adapt_chunk is perturbed
    assert set(w.checker.failed_keys) == keep
    assert w.checker.failed == 3
    w.kernel_agreement()
    assert w.extra_failed == w.extra_attempted == 6


def flip_a_digit(payload: bytes) -> bytes:
    for i, byte in enumerate(payload):
        if chr(byte).isdigit():
            other = b"1" if byte != ord("1") else b"2"
            return payload[:i] + other + payload[i + 1:]
    return payload + b" "


def test_altered_report_byte_counts_business_ops_as_failed(tmp_path, monkeypatch):
    w = workload("business_reports", tmp_path)
    emit = w.cli.emit_report
    monkeypatch.setattr(w.cli, "emit_report",
                        lambda result, fmt: flip_a_digit(emit(result, fmt)))
    shipped = [op for op in w.ops if op.golden]
    run_ops(w, shipped)
    assert w.checker.failed == len(shipped) == 42
    assert set(w.checker.failed_keys.values()) == {
        "report sha256 differs from golden.json"}


def test_report_that_changes_on_repeat_is_failed(tmp_path, monkeypatch):
    w = workload("business_reports", tmp_path)
    op = next(o for o in w.ops if o.key == "econ_sensitivity_150.json:table")
    emit = w.cli.emit_report
    calls = []

    def second_differs(result, fmt):
        calls.append(fmt)
        payload = emit(result, fmt)
        return flip_a_digit(payload) if len(calls) == 2 else payload

    monkeypatch.setattr(w.cli, "emit_report", second_differs)
    run_ops(w, [op, op, op])
    assert w.checker.attempted == 3
    assert w.checker.failed == 1


def test_wrong_exit_code_is_failed(tmp_path):
    w = workload("business_reports", tmp_path)
    op = next(o for o in w.ops if o.key == "econ_npv_grid_none.json:json")
    assert op.expect_code == 2
    wrong = dataclasses.replace(op, key="expects-success:json", expect_code=0)
    run_ops(w, [op, wrong])
    assert w.checker.failed == 1
    assert w.checker.failed_keys == {wrong.key: "exit code 2, expected 0"}


def test_strict_json_rejects_non_finite_numbers():
    assert run.strict_json(b'{"npv": 1.5, "irr": null}') == {"npv": 1.5, "irr": None}
    for bad in (b'{"npv": NaN}', b'{"npv": Infinity}', b'[-Infinity]'):
        with pytest.raises(ValueError):
            run.strict_json(bad)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known program defect: a window whose residual samples are finite but whose "
    "squares overflow reports -Infinity attenuation, which is not valid JSON"))
def test_overflowing_unstable_run_gives_a_valid_report(tmp_path):
    # The workload's unstable step sizes keep clear of this case (see
    # generate._anc_config); this config lands in it on purpose.
    doc = gen._anc_config(random.Random("overflow-5"), *gen.ANC_SLOTS[9])
    doc["step_size"] = 3.05
    config = gen._write(tmp_path / "overflow.json", doc)
    w = workload("anc_sim", tmp_path)
    run_ops(w, gen._ops_for(config.name, ("anc", "simulate"), config, 2,
                            samples=8000))
    assert w.checker.failed == 0, w.checker.failed_keys


def test_kernel_work_matches_a_per_sample_count():
    for L, M, start, stop, normalized, leak in (
            (4, 3, 0, 10, False, False), (8, 16, 5, 40, True, True),
            (128, 32, 0, 300, True, False), (2, 512, 1000, 1100, False, True)):
        flops = words = 0
        for n in range(start, stop):
            k, m = min(L, n + 1), min(M, n + 1)
            flops += 4 * k + 2 * m + 2 + (2 * k + 2 if normalized else 0) \
                + (L if leak else 0)
            words += 5 * k + 2 * m + 3 + (k if normalized else 0) \
                + (2 * L if leak else 0)
        assert tracing.kernel_work(L, M, start, stop, normalized, leak) \
            == (flops, 8 * words)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    w = workload("anc_sim", tmp_path)
    import hushkit.anc
    import hushkit.signals

    originals = (w.cli.anc_run, hushkit.anc.convolve_path, w.kernels.adapt_chunk)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert w.cli.anc_run is hushkit.anc.anc_run is not originals[0]
        assert hushkit.anc.convolve_path is hushkit.signals.convolve_path
        code, _, _ = run.call_main(w.cli, ["anc", "simulate", "--config",
                                           str(w.short_anc), "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0 and tracer.missing == []
    assert (w.cli.anc_run, hushkit.anc.convolve_path, w.kernels.adapt_chunk) \
        == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and names.count("kernels.adapt_chunk") == 2
    assert {s[4] for s in tracer.spans} == {0}
    assert tracer.counts["kernels.adapt_chunk.samples"] == 4000


def test_self_time_subtracts_child_spans():
    spans = [("a", 0.0, 1.0, None, 0), ("b", 0.1, 0.4, 0, 0),
             ("c", 0.2, 0.3, 1, 0), ("b", 0.5, 0.6, 0, 0)]
    times = tracing.layer_times(spans)
    assert times["a"] == pytest.approx((1000.0, 600.0))
    assert times["b"] == pytest.approx((400.0, 300.0))
    assert times["c"] == pytest.approx((100.0, 100.0))


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anc_sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
