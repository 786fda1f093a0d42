"""Host-speed calibration: report times at one reference speed.

The benchmark host is a shared two-vCPU virtual machine whose speed swings
by up to 2x within seconds (the same 16 000-sample ANC op took 120 ms and
240 ms a minute apart, with no steal time reported). A fixed calibration
that does not touch hushkit is timed throughout the run, and each measured
time is multiplied by ``reference_ms / c``, where ``c`` is the median of the
calibrations nearest to it. A time then reads as it would on a host where
the calibration takes ``reference_ms``. The raw figures and ``c`` go to the
run record.

Two calibrations match the two kinds of work:

- ``loop_ms``, for ops run inside the benchmark process: small numpy dot
  products in a Python loop, like the adaptive kernel, plus dict and JSON
  work, like the business commands;
- ``start_ms``, for fresh processes (``cold_cli`` ops and every set-up and
  import probe): a child interpreter that imports numpy and the standard
  modules hushkit uses. Process start and imports slow down differently from
  a warm loop, so the loop does not track them.
"""
from __future__ import annotations

import bisect
import json
import statistics
import subprocess
import sys
import time

import numpy as np

#: Calibrations on each side of a measurement that set its factor.
NEIGHBOURS = 3

_A = np.arange(64.0)
_B = np.ones(64)
_IMPORTS = "import argparse, csv, dataclasses, decimal, json, numpy"


def loop_ms() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        k = i % 64 + 1
        acc += _A[:k] @ _B[:k]
    json.dumps({f"k{i}": i * 1.5 for i in range(2000)})
    return (time.perf_counter() - start) * 1e3


def start_ms() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORTS], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=True)
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """A timeline of one calibration and the factor it implies at any moment.

    ``reference_ms`` is the calibration's time on the reference host (Intel
    Xeon vCPU, in its fast phase); ``every_s`` the least time between two
    calibrations taken by ``maybe_sample``.
    """

    def __init__(self, probe, reference_ms: float, every_s: float):
        self.probe, self.reference_ms, self.every_s = probe, reference_ms, every_s
        self.times = []
        self.ms = []

    def sample(self):
        self.times.append(time.perf_counter())
        self.ms.append(self.probe())

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def factor(self, t: float) -> float:
        """reference_ms over the median calibration nearest to time ``t``."""
        i = bisect.bisect(self.times, t)
        near = self.ms[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return self.reference_ms / statistics.median(near)

    def summary(self):
        return {"median_ms": statistics.median(self.ms), "min_ms": min(self.ms),
                "max_ms": max(self.ms), "count": len(self.ms)}


def loop_speed() -> HostSpeed:
    return HostSpeed(loop_ms, reference_ms=3.3, every_s=0.1)


def start_speed() -> HostSpeed:
    return HostSpeed(start_ms, reference_ms=145.0, every_s=1.0)
