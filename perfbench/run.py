"""hushkit benchmark: three workloads against ``hushkit.cli.main``, checked.

Usage (from the root of a hushkit checkout):

    python3 perfbench/run.py --workload {anc_sim,business_reports,cold_cli} \
        --seed N --seconds S --trace {0,1}

Each run generates its inputs from the seed, runs a closed loop with one
client for about S seconds, checks every report, and prints a run record and
the metrics, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The program is imported from ``src/`` of the checkout; without it (or
without ``configs/``) the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import generate as gen
from hostspeed import loop_speed, start_speed
from tracing import ROOT_SPAN, Tracer, irr_npv_calls, layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("anc_sim", "business_reports", "cold_cli")
SETUP_PROBES = 7        # fresh processes whose median set-up is setup_s
BARE_RUNS = 5           # `python -c pass` runs for proc.python_bare_ms
IMPORTTIME_RUNS = 3     # `-X importtime` runs in a traced run
ANC_REFERENCE_RUNS = 15  # short ANC runs giving anc_samples_per_s on business_reports
CHILD_TIMEOUT_S = 60

# One timed op: start time, op wall ms, loop time it took including its
# checks (s), whether it was traced, and the op.
Sample = namedtuple("Sample", "t ms slot_s traced op")

CLI_CODE = "from hushkit.cli import entrypoint; entrypoint()"

# Set-up probe: import the CLI, then run one op of each command kind.
PROBE_CODE = """\
import io, json, sys, time
start = time.perf_counter()
import hushkit.cli
codes = []
for argv in json.loads(sys.argv[1]):
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        codes.append(hushkit.cli.main(argv))
    finally:
        sys.stdout = saved
print(json.dumps({"setup_s": time.perf_counter() - start, "codes": codes}))
"""


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that calibrations
    and the ops they scale run on the same vCPU (the two vCPUs of a shared
    VM need not run at the same speed)."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd):
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    return proc, (time.perf_counter() - start) * 1e3


def call_main(cli, argv):
    """Run ``cli.main`` in this process; returns (exit code, stdout bytes, ms)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    finally:
        ms = (time.perf_counter() - start) * 1e3
        sys.stdout, sys.stderr = saved
    return code, out.buffer.getvalue(), ms


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report")


def strict_json(data: bytes):
    """Parse a report as RFC 8259 JSON: NaN and Infinity are errors."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def config_of(key: str) -> str:
    return key.rsplit(":", 1)[0]


class Checker:
    """Checks every report and counts the runs whose output is wrong.

    The first report of each op key is checked in full: exit code, golden
    sha256 for shipped configs, strict JSON, and for ANC JSON the reported
    sample and window counts. Every later report of the key must repeat the
    first one byte for byte.
    """

    def __init__(self, golden):
        self.golden = golden
        self.first = {}          # key -> (code, digest, bytes)
        self.runs = Counter()
        self.repeat_bad = Counter()
        self.failed_keys = {}    # key -> reason
        self.adapted = {}        # config name -> samples in its JSON report

    def record(self, op, code, out):
        self.runs[op.key] += 1
        digest = hashlib.sha256(out).hexdigest()
        if op.key not in self.first:
            self.first[op.key] = (code, digest, out)
            reason = self._check_first(op, code, out, digest)
            if reason:
                self.fail(op.key, reason)
        elif (code, digest) != self.first[op.key][:2]:
            self.repeat_bad[op.key] += 1
            self.failed_keys.setdefault(op.key + "#repeat",
                                        "report differs from its first run")

    def _check_first(self, op, code, out, digest):
        if code != op.expect_code:
            return f"exit code {code}, expected {op.expect_code}"
        if op.golden and self.golden.get(op.golden) != digest:
            return "report sha256 differs from golden.json"
        if op.fmt != "json":
            return None
        try:
            doc = strict_json(out)
        except ValueError as exc:
            return f"invalid JSON report: {exc}"
        if op.samples:
            return self._check_anc(op, code, doc)
        return None

    def _check_anc(self, op, code, doc):
        n, trace = doc.get("n_samples"), doc.get("attenuation_trace_db")
        if not isinstance(n, int) or not isinstance(trace, list):
            return "ANC report lacks n_samples or attenuation_trace_db"
        if any(not isinstance(v, (int, float)) or v > 120.0 for v in trace):
            return "ANC attenuation outside the 120 dB cap"
        if code == 0 and (doc.get("diverged") is not False or n != op.samples
                          or len(trace) != math.ceil(op.samples / gen.WINDOW)):
            return "completed ANC run reports the wrong samples or windows"
        if code == 2 and (doc.get("diverged") is not True or not 0 <= n <= op.samples):
            return "diverged ANC run reports no divergence"
        self.adapted[config_of(op.key)] = n
        return None

    def fail(self, key, reason):
        self.failed_keys.setdefault(key, reason)

    def fail_config(self, config, reason):
        for key in self.runs:
            if config_of(key) == config:
                self.fail(key, reason)

    @property
    def attempted(self):
        return sum(self.runs.values())

    @property
    def failed(self):
        return sum(self.runs[k] if k in self.failed_keys else self.repeat_bad[k]
                   for k in self.runs)


class Workload:
    """One benchmark run: generated ops, set-up probes, timed loop, checks."""

    def __init__(self, name, seed, workdir, trace):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.tracer = Tracer() if trace else None
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        self.checker = Checker(golden["sha256"])
        self.extra_attempted = 0
        self.extra_failed = 0
        self.notes = []
        self.short_anc = gen.short_anc_config(seed, workdir)
        make = {"anc_sim": gen.anc_ops, "business_reports": gen.business_ops,
                "cold_cli": gen.cold_ops}[name]
        self.plans = make(seed, workdir, CONFIGS)
        self.ops = list({op.key: op for plan in self.plans for op in plan}.values())
        self.in_process = name != "cold_cli"
        self.cli = self.kernels = None
        # Calibrations for fresh processes, and for the timed ops.
        self.start_speed = start_speed()
        self.speed = loop_speed() if self.in_process else self.start_speed

    # -- warm-up and set-up ------------------------------------------------

    def warmup_argvs(self):
        argvs = []
        if self.name in ("anc_sim", "cold_cli"):
            argvs.append(["anc", "simulate", "--config", str(self.short_anc),
                          "--format", "json"])
        if self.name in ("business_reports", "cold_cli"):
            seen = set()
            for command, config in gen.SHIPPED_BUSINESS:
                if command not in seen:
                    seen.add(command)
                    argvs.append([*command, "--config", str(CONFIGS / config),
                                  "--format", "json"])
        return argvs

    def timed_children(self, cmd, runs):
        """Run ``cmd`` ``runs`` times between calibrations; yields
        (completed process, raw ms, start time)."""
        for _ in range(runs):
            self.start_speed.sample()
            start = time.perf_counter()
            proc, ms = run_child(cmd)
            yield proc, ms, start
        self.start_speed.sample()

    def bare_python_ms(self):
        """Median wall ms of `python -c pass`: (normalised, raw)."""
        runs = list(self.timed_children([sys.executable, "-c", "pass"], BARE_RUNS))
        return (statistics.median(ms * self.start_speed.factor(t) for _, ms, t in runs),
                statistics.median(ms for _, ms, _ in runs))

    def setup_seconds(self):
        """Median set-up time over fresh processes (import + warm-up ops):
        (normalised, raw)."""
        argvs = self.warmup_argvs()
        values = []
        cmd = [sys.executable, "-c", PROBE_CODE, json.dumps(argvs)]
        for proc, _, start in list(self.timed_children(cmd, SETUP_PROBES)):
            self.extra_attempted += len(argvs)
            try:
                doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                raise RuntimeError("set-up probe failed: "
                                   + proc.stderr.decode(errors="replace")[-500:])
            bad = sum(code != 0 for code in doc["codes"])
            self.extra_failed += bad
            if bad:
                self.notes.append(f"set-up probe exit codes {doc['codes']}")
            values.append((doc["setup_s"] * self.start_speed.factor(start),
                           doc["setup_s"]))
        return tuple(statistics.median(col) for col in zip(*values))

    def load_program(self):
        import hushkit
        import hushkit._kernels
        import hushkit.cli

        if Path(hushkit.__file__).resolve().parent != SRC / "hushkit":
            raise SystemExit(f"error: hushkit imported from {hushkit.__file__}, "
                             f"not from {SRC}")
        self.cli, self.kernels = hushkit.cli, hushkit._kernels
        for argv in self.warmup_argvs():
            call_main(self.cli, argv)

    # -- one op ----------------------------------------------------------------

    def run_op(self, op, traced):
        if self.in_process:
            if not traced:
                return call_main(self.cli, op.argv)
            self.tracer.install()
            try:
                return call_main(self.cli, op.argv)
            finally:
                self.tracer.uninstall()
        if not traced:
            cmd = [sys.executable, "-c", CLI_CODE, *op.argv]
        else:
            spans_path = self.workdir / "child-spans.json"
            cmd = [sys.executable, str(HERE / "child.py"), str(spans_path), *op.argv]
        try:
            proc, ms = run_child(cmd)
        except subprocess.TimeoutExpired:
            return -1, b"", CHILD_TIMEOUT_S * 1e3
        if traced and spans_path.is_file():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            self.tracer.merge([tuple(s) for s in doc["spans"]], doc["counts"])
            self.tracer.missing = sorted(set(self.tracer.missing) | set(doc["missing"]))
        return proc.returncode, proc.stdout, ms

    def timed_loop(self, seconds):
        """Closed loop over whole passes, cycling through the pass plans.

        It stops at the pass boundary nearest to ``seconds``, after at least
        one pass, so every run holds whole passes of the same mix and every
        op is run and checked. In a traced run every other op is traced,
        alternating by pass so each op key is measured both ways.
        """
        samples = []
        start = time.perf_counter()
        pass_no = 0
        while True:
            for i, op in enumerate(self.plans[pass_no % len(self.plans)]):
                traced = self.tracer is not None and (i + pass_no) % 2 == 1
                self.speed.maybe_sample()
                begin = time.perf_counter()
                code, out, ms = self.run_op(op, traced)
                self.checker.record(op, code, out)
                samples.append(Sample(begin, ms, time.perf_counter() - begin,
                                      traced, op))
            pass_no += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / pass_no / 2 >= seconds:
                break
        self.speed.sample()
        return samples

    # -- checks outside the timed loop ------------------------------------------

    def oracle_check(self):
        """Rerun each generated ANC config with the numpy reference kernel:
        same exit code and JSON bytes, or every op of that config fails."""
        selected = self.kernels.adapt_chunk
        self.kernels.adapt_chunk = self.kernels.adapt_chunk_numpy
        try:
            for op in self.ops:
                if not (op.samples and op.golden is None and op.fmt == "json"):
                    continue
                first = self.checker.first.get(op.key)
                if first is None:
                    continue
                code, out, _ = call_main(self.cli, op.argv)
                if (code, out) != (first[0], first[2]):
                    self.checker.fail_config(
                        config_of(op.key), "report differs from the numpy oracle kernel")
        finally:
            self.kernels.adapt_chunk = selected

    def kernel_agreement(self):
        """Selected kernel against adapt_chunk_numpy on every backend: all
        three algorithms, leak off and on (rtol 1e-9, atol 1e-12)."""
        import numpy as np

        n = 3000
        x = np.random.default_rng(self.seed).standard_normal(n)
        primary = np.array(gen.room_path(32, 5, 7.0, 650.0))
        secondary = np.array(gen.room_path(32, 3, 5.0, 900.0))
        d = np.convolve(x, primary)[:n]
        for algorithm in ("LMS", "NLMS", "FXLMS"):
            xf = np.convolve(x, secondary)[:n] if algorithm == "FXLMS" else x
            mu = 0.1 if algorithm == "NLMS" else 1e-3
            for leak in (0.0, 1e-3):
                outs = []
                for kernel in (self.kernels.adapt_chunk, self.kernels.adapt_chunk_numpy):
                    w, y, e = np.zeros(64), np.zeros(n), np.zeros(n)
                    kernel(x, xf, d, secondary, w, y, e, 0, n, mu, leak,
                           algorithm == "NLMS", 1e-8)
                    outs.append((w, y, e))
                self.extra_attempted += 1
                if not all(np.allclose(a, b, rtol=1e-9, atol=1e-12)
                           for a, b in zip(*outs)):
                    self.extra_failed += 1
                    self.notes.append(f"kernel disagrees with numpy: {algorithm} "
                                      f"leak={leak}")

    def anc_reference(self):
        """Samples/s of the short ANC config run in this process; business
        ops never call the kernel, so this is a reference figure."""
        argv = ["anc", "simulate", "--config", str(self.short_anc), "--format", "json"]
        op = gen.Op(key="reference:anc_short.json:json", argv=tuple(argv),
                    fmt="json", expect_code=0, samples=4000)
        times = []
        for _ in range(ANC_REFERENCE_RUNS):
            self.speed.sample()
            start = time.perf_counter()
            code, out, ms = call_main(self.cli, argv)
            self.checker.record(op, code, out)
            times.append((start, ms))
        self.speed.sample()
        ms = statistics.median(ms * self.speed.factor(t) for t, ms in times)
        return op.samples / (ms / 1e3)

    # -- the run ------------------------------------------------------------

    def norm_ms(self, sample):
        return sample.ms * self.speed.factor(sample.t)

    def run(self, seconds):
        bare_ms, bare_raw_ms = self.bare_python_ms()
        setup_s, setup_raw_s = self.setup_seconds()
        self.load_program()
        samples = self.timed_loop(seconds)
        if self.name == "anc_sim":
            self.kernel_agreement()
        if self.name in ("anc_sim", "cold_cli"):
            self.oracle_check()
        if self.name == "business_reports":
            anc_rate = self.anc_reference()
        else:
            anc = [s for s in samples if s.op.samples]
            adapted = sum(self.checker.adapted.get(config_of(s.op.key), s.op.samples)
                          for s in anc)
            anc_rate = adapted / (sum(map(self.norm_ms, anc)) / 1e3)
        return dict(samples=samples, bare_ms=bare_ms, bare_raw_ms=bare_raw_ms,
                    setup_s=setup_s, setup_raw_s=setup_raw_s, anc_rate=anc_rate)


# ---------------------------------------------------------------------------
# metrics


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(w: Workload, r):
    samples = r["samples"]
    times = [w.norm_ms(s) for s in samples]
    busy_s = sum(s.slot_s * w.speed.factor(s.t) for s in samples)
    return {
        "setup_s": (r["setup_s"], "s"),
        "ops_per_s": (len(times) / busy_s, "1/s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_p90": (p90(times), "ms"),
        "peak_rss_mb": (peak_rss_mb(w.in_process), "MB"),
        "anc_samples_per_s": (r["anc_rate"], "1/s"),
    }


def import_times(w: Workload):
    """Median numpy, hushkit and hushkit-self import ms from -X importtime."""
    runs = []
    cmd = [sys.executable, "-X", "importtime", "-c", "import hushkit.cli"]
    for proc, _, start in list(w.timed_children(cmd, IMPORTTIME_RUNS)):
        scale = w.start_speed.factor(start) / 1e3
        numpy_us = hushkit_us = self_us = 0
        top = None
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                own, cumulative = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].rstrip()
            depth, module = len(name) - len(name.lstrip()), name.strip()
            if module == "numpy":
                numpy_us = cumulative
            if module.split(".")[0] == "hushkit":
                self_us += own
                if top is None or depth <= top:
                    top, hushkit_us = depth, cumulative
        runs.append((numpy_us * scale, hushkit_us * scale, self_us * scale))
    med = [statistics.median(col) for col in zip(*runs)]
    return {"import.numpy_ms": med[0], "import.hushkit_ms": med[1],
            "import.hushkit_self_ms": med[2]}


def per_layer(w: Workload, r):
    tracer = w.tracer
    spans = tracer.spans
    # Span op ids count traced ops in order, so op k is the k-th traced sample.
    traced_samples = [s for s in r["samples"] if s.traced]
    scale = [w.speed.factor(s.t) for s in traced_samples]
    ops = len(traced_samples) or 1
    times = layer_times(spans, scale)
    counts = tracer.counts

    def total(name):
        return times.get(name, (0.0, 0.0))[0]

    def own(name):
        return times.get(name, (0.0, 0.0))[1]

    kernel_samples = counts["kernels.adapt_chunk.samples"]
    kernel_own = own("kernels.adapt_chunk")
    inner_npv, irr_calls = irr_npv_calls(spans)
    traced = [w.norm_ms(s) for s in traced_samples]
    untraced = [w.norm_ms(s) for s in r["samples"] if not s.traced]
    m = {
        "kernels.adapt_chunk.self_ms": (kernel_own / ops, "ms/op"),
        "kernels.adapt_chunk.calls": (counts["kernels.adapt_chunk.calls"] / ops, "count/op"),
        "kernels.adapt_chunk.samples": (kernel_samples / ops, "count/op"),
        "kernels.adapt_chunk.samples_per_s": (
            kernel_samples / (kernel_own / 1e3) if kernel_own else 0.0, "1/s"),
        "kernels.adapt_chunk.flops_computed": (
            counts["kernels.adapt_chunk.flops_computed"] / ops, "flop/op"),
        "kernels.adapt_chunk.bytes_computed": (
            counts["kernels.adapt_chunk.bytes_computed"] / ops, "B/op"),
        "kernels.adapt_chunk.share_pct": (
            100.0 * total("kernels.adapt_chunk") / total(ROOT_SPAN)
            if total(ROOT_SPAN) else 0.0, "%"),
        "anc.anc_run.self_ms": (own("anc.anc_run") / ops, "ms/op"),
        "anc.windows": (counts["anc.windows"] / ops, "count/op"),
        "anc.diverged_ops": (counts["anc.diverged_ops"] / ops, "count/op"),
        "signals.convolve_path.macs": (counts["signals.convolve_path.macs"] / ops,
                                       "count/op"),
        "cli.main.self_ms": (own(ROOT_SPAN) / ops, "ms/op"),
        "cli.emit_report.bytes": (counts["cli.emit_report.bytes"] / ops, "B/op"),
        "econ.npv.calls": (counts["econ.npv.calls"] / ops, "count/op"),
        "econ.irr.calls": (irr_calls / ops, "count/op"),
        "econ.irr.npv_calls_per_call": (inner_npv / irr_calls if irr_calls else 0.0,
                                        "count"),
        "costing.load_bom_csv.rows": (counts["costing.load_bom_csv.rows"] / ops,
                                      "count/op"),
        "planning.risk_score_and_map.calls": (
            counts["planning.risk_score_and_map.calls"] / ops, "count/op"),
    }
    for name in ("signals.generate_tone", "signals.generate_broadband",
                 "signals.convolve_path", "cli.emit_report", "econ.evaluate",
                 "econ.sensitivity_row", "econ.irr", "econ.npv",
                 "costing.load_bom_csv", "costing.load_assembly_csv",
                 "costing.bom_rollup", "planning.load_risk_csv",
                 "planning.load_concept_csv", "planning.concept_score",
                 "planning.market_size_estimate"):
        m[name + ".ms"] = (total(name) / ops, "ms/op")
    m["proc.python_bare_ms"] = (r["bare_ms"], "ms")
    for name, value in import_times(w).items():
        m[name] = (value, "ms")
    untraced_p50 = statistics.median(untraced) if untraced else 0.0
    traced_p50 = statistics.median(traced) if traced else 0.0
    m.update({
        "trace.ops": (float(ops), "count"),
        "trace.op_ms_mean": (total(ROOT_SPAN) / ops, "ms"),
        "trace.untraced_op_ms_p50": (untraced_p50, "ms"),
        "trace.traced_op_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
    })
    return m


# ---------------------------------------------------------------------------
# run record


def git_commit():
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "hushkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(w: Workload, r, args):
    import numpy

    samples = r["samples"]
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "src_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernel_backend": w.kernels.backend_name(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "proc.python_bare_ms": r["bare_raw_ms"],
        "setup_raw_s": r["setup_raw_s"],
        "raw_op_ms_p50": statistics.median(s.ms for s in samples),
        "calibration_ops": w.speed.summary(),
        "calibration_start": w.start_speed.summary(),
        "timed_ops": len(samples), "traced_ops": sum(s.traced for s in samples),
        "distinct_ops": len(w.ops),
        "loop_s": samples[-1].t + samples[-1].slot_s - samples[0].t,
        "untraced_layers": w.tracer.missing if w.tracer else [],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hushkit" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no hushkit sources under {SRC} or no {CONFIGS}; run from "
              "the root of a hushkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = Workload(args.workload, args.seed, workdir, bool(args.trace))
        r = w.run(args.seconds)
        metrics = per_layer(w, r) if args.trace else end_to_end(w, r)
        record = run_record(w, r, args)
        if w.tracer:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            w.tracer.dump(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, reason in sorted(w.checker.failed_keys.items())[:20]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    for note in w.notes:
        print(f"FAILED {note}", file=sys.stderr)
    attempted = w.checker.attempted + w.extra_attempted
    failed = w.checker.failed + w.extra_failed
    print("run_record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
