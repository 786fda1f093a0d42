"""Spans and counts around hushkit's public functions, recorded from outside.

The benchmark wraps each layer's public functions in its own process (or in
a traced child for ``cold_cli``); nothing inside ``src/`` changes. A module
that imported a function by name holds its own binding, so every such
binding is wrapped too: ``cli`` binds ``anc_run``, ``evaluate``,
``generate_*`` and the loaders, and ``anc`` binds ``convolve_path``.
``anc`` looks ``_kernels.adapt_chunk`` up at call time, so patching that
module attribute is enough.

A span is ``(name, start, end, parent index, op id)``; spans live in memory
until the run ends. A layer's self time is its duration minus that of its
child spans, which nest and never overlap (one thread).
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute, modules that bind it by name)
WRAPPED = (
    ("cli.main", "hushkit.cli", "main", ()),
    ("cli.emit_report", "hushkit.cli", "emit_report", ()),
    ("anc.anc_run", "hushkit.anc", "anc_run", ("hushkit.cli",)),
    ("kernels.adapt_chunk", "hushkit._kernels", "adapt_chunk", ()),
    ("signals.generate_tone", "hushkit.signals", "generate_tone", ("hushkit.cli",)),
    ("signals.generate_broadband", "hushkit.signals", "generate_broadband",
     ("hushkit.cli",)),
    ("signals.convolve_path", "hushkit.signals", "convolve_path", ("hushkit.anc",)),
    ("econ.evaluate", "hushkit.econ", "evaluate", ("hushkit.cli",)),
    ("econ.sensitivity_row", "hushkit.econ", "sensitivity_row", ("hushkit.cli",)),
    ("econ.irr", "hushkit.econ", "irr", ()),
    ("econ.npv", "hushkit.econ", "npv", ("hushkit.cli",)),
    ("costing.load_bom_csv", "hushkit.costing", "load_bom_csv", ("hushkit.cli",)),
    ("costing.load_assembly_csv", "hushkit.costing", "load_assembly_csv",
     ("hushkit.cli",)),
    ("costing.bom_rollup", "hushkit.costing", "bom_rollup", ("hushkit.cli",)),
    ("planning.load_risk_csv", "hushkit.planning", "load_risk_csv", ("hushkit.cli",)),
    ("planning.load_concept_csv", "hushkit.planning", "load_concept_csv",
     ("hushkit.cli",)),
    ("planning.concept_score", "hushkit.planning", "concept_score", ("hushkit.cli",)),
    ("planning.market_size_estimate", "hushkit.planning", "market_size_estimate",
     ("hushkit.cli",)),
    ("planning.risk_score_and_map", "hushkit.planning", "risk_score_and_map",
     ("hushkit.cli",)),
)

ROOT_SPAN = "cli.main"


def _triangle(limit: int, n: int) -> int:
    """sum(min(limit, i + 1) for i in range(n)) in closed form."""
    if n <= limit:
        return n * (n + 1) // 2
    return limit * (limit + 1) // 2 + (n - limit) * limit


def kernel_work(L, M, start, stop, normalized, leak):
    """(flops, bytes) of ``adapt_chunk`` over [start, stop), computed.

    Per sample with k = min(L, n+1) weights and m = min(M, n+1) path taps:
    output dot 2k, residual dot 2m+1, NLMS norm 2k+2, update 2k+1, leak L
    flops; float64 traffic of the same operands (8 bytes each) plus the two
    stored outputs. Cache effects are ignored.
    """
    k = _triangle(L, stop) - _triangle(L, start)
    m = _triangle(M, stop) - _triangle(M, start)
    n = stop - start
    flops = 4 * k + 2 * m + 2 * n
    words = 5 * k + 2 * m + 3 * n
    if normalized:
        flops += 2 * k + 2 * n
        words += k
    if leak:
        flops += L * n
        words += 2 * L * n
    return flops, 8 * words


def _count(counts, name, args, result):
    """Work counts recorded at the boundary of span ``name``."""
    if name == "kernels.adapt_chunk":
        x, xf, d, sec, w, y, e, start, stop, mu, leak, normalized, eps = args
        flops, nbytes = kernel_work(len(w), len(sec), start, stop,
                                    bool(normalized), leak != 0.0)
        counts["kernels.adapt_chunk.samples"] += stop - start
        counts["kernels.adapt_chunk.flops_computed"] += flops
        counts["kernels.adapt_chunk.bytes_computed"] += nbytes
    elif name == "signals.convolve_path":
        path, x = args
        counts["signals.convolve_path.macs"] += len(path) * len(x)
    elif name == "anc.anc_run":
        counts["anc.windows"] += len(result.attenuation_trace_db)
        counts["anc.diverged_ops"] += bool(result.diverged)
    elif name == "cli.emit_report":
        counts["cli.emit_report.bytes"] += len(result)
    elif name == "costing.load_bom_csv":
        counts["costing.load_bom_csv.rows"] += len(result)


class Tracer:
    """Records spans and counts while installed; restores every binding on
    uninstall. Attributes a later version of the program no longer has are
    listed in ``missing`` instead of failing the run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, op)
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._op = -1
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if not stack:
                self._op += 1
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            _count(counts, name, args, result)
            counts[name + ".calls"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, module_name, attr, binders in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for holder in (module_name, *binders):
                mod = importlib.import_module(holder)
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def merge(self, spans, counts):
        """Append spans and counts recorded by a traced child process."""
        base = len(self.spans)
        ops = {s[4] for s in spans}
        remap = {op: self._op + 1 + i for i, op in enumerate(sorted(ops))}
        self._op += len(ops)
        for name, start, end, parent, op in spans:
            self.spans.append((name, start, end,
                               None if parent is None else parent + base,
                               remap[op]))
        self.counts.update(counts)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def layer_times(spans, scale=None):
    """{name: (total ms, self ms)} summed over all spans of that name.

    ``scale[op]``, when given, multiplies the times of op ``op``'s spans.
    """
    child_ms = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    total, own = defaultdict(float), defaultdict(float)
    for index, (name, start, end, _, op) in enumerate(spans):
        factor = scale[op] if scale else 1.0
        ms = (end - start) * 1e3 * factor
        total[name] += ms
        own[name] += ms - child_ms[index] * factor
    return {name: (total[name], own[name]) for name in total}


def irr_npv_calls(spans):
    """npv calls made directly by irr, and irr calls."""
    irr_index = {i for i, s in enumerate(spans) if s[0] == "econ.irr"}
    inner = sum(1 for s in spans if s[0] == "econ.npv" and s[3] in irr_index)
    return inner, len(irr_index)
