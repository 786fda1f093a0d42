"""Active-noise-control simulation.

Models the classic feed-forward loop: a reference sensor picks up the noise
source, the disturbance reaches the listener through a *primary* acoustic
path, and an adaptive FIR controller drives a cancelling speaker whose output
reaches the listener through a *secondary* path. The controller adapts on the
residual using LMS, NLMS, or filtered-x LMS (FXLMS), and performance is
reported as attenuation in dB per analysis window.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels
from ._records import Record
from .errors import ValidationError
from .signals import FirPath, SampleBuffer, convolve_path

ALGORITHMS = ("LMS", "NLMS", "FXLMS")

#: Per-algorithm default adaptation step sizes.
DEFAULT_STEP_SIZE = {"LMS": 1e-3, "FXLMS": 1e-3, "NLMS": 0.1}

#: Attenuation analysis window, in seconds.
ATTENUATION_WINDOW_S = 0.25

#: A window is declared divergent when its residual power exceeds the
#: disturbance power by this factor.
DIVERGENCE_POWER_RATIO = 10.0

#: Regularizer added to the reference-history norm in the NLMS step.
NLMS_EPS = 1e-8

#: Largest accepted run, in samples (250 s at 8 kHz), and controller length,
#: in taps; larger values are rejected before any buffer is allocated.
MAX_DURATION_SAMPLES = 2_000_000
MAX_FILTER_LENGTH = 4_096


#: ``secondary_estimate`` value: the true secondary path is its own estimate.
EXACT = None


class AncConfig(Record):
    """Adaptive-controller parameters.

    ``step_size=None`` selects the per-algorithm default. The simulation is
    deterministic; only a seeded stimulus (``generate_broadband``) takes a
    seed.
    """

    algorithm: str
    duration_samples: int
    filter_length: int = 128
    step_size: Optional[float] = None
    leak_factor: float = 0.0
    secondary_estimate: Optional[FirPath] = EXACT

    def _check(self):
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"algorithm must be one of {'/'.join(ALGORITHMS)}, got {self.algorithm!r}")
        if int(self.duration_samples) < 1:
            raise ValidationError("duration_samples must be >= 1")
        if int(self.duration_samples) > MAX_DURATION_SAMPLES:
            raise ValidationError(f"duration_samples must be <= {MAX_DURATION_SAMPLES}")
        if int(self.filter_length) < 1:
            raise ValidationError("filter_length must be >= 1")
        if int(self.filter_length) > MAX_FILTER_LENGTH:
            raise ValidationError(f"filter_length must be <= {MAX_FILTER_LENGTH}")
        if int(self.filter_length) > int(self.duration_samples):
            raise ValidationError("filter_length must not exceed duration_samples")
        mu = self.resolved_step_size()
        if not np.isfinite(mu) or mu < 0:
            raise ValidationError("step_size must be finite and >= 0")
        if not 0.0 <= float(self.leak_factor) < 1.0:
            raise ValidationError("leak_factor must lie in [0, 1)")
        if not (self.secondary_estimate is EXACT
                or isinstance(self.secondary_estimate, FirPath)):
            raise ValidationError("secondary_estimate must be a FirPath or EXACT")

    def resolved_step_size(self) -> float:
        if self.step_size is None:
            return DEFAULT_STEP_SIZE[self.algorithm]
        return float(self.step_size)


class AncResult(Record):
    """Full simulation outcome.

    ``residual`` is truncated at the detection point when the loop diverges;
    it never contains non-finite samples.
    ``attenuation_trace_db`` holds one capped attenuation figure per analysis
    window, and ``steady_state_attenuation_db`` is the final window's value.
    """

    residual: SampleBuffer
    attenuation_trace_db: np.ndarray
    steady_state_attenuation_db: float
    diverged: bool


#: Cap on every window's attenuation, in dB; a silenced window reports it.
ATTENUATION_CAP_DB = 120.0


def _window_attenuation_db(dist_power: float, resid_power: float) -> float:
    # The one attenuation figure: disturbance over residual power, in dB;
    # a silent window gives 0 dB, a silenced one the cap.
    if dist_power <= 0.0:
        return 0.0
    if resid_power <= 0.0:
        return ATTENUATION_CAP_DB
    return min(10.0 * np.log10(dist_power / resid_power), ATTENUATION_CAP_DB)


def anc_run(cfg: AncConfig, noise: SampleBuffer, primary: FirPath,
            secondary: FirPath) -> AncResult:
    """Run the adaptive cancellation loop over the whole noise buffer.

    Per sample n: disturbance ``d[n] = (primary * noise)[n]``; controller
    output ``y[n] = w . noise_hist``; residual ``e[n] = d[n] -
    (secondary * y)[n]``. Weights follow the selected algorithm: LMS/NLMS
    adapt on the raw reference, FXLMS on the reference filtered by the
    secondary-path estimate; NLMS additionally normalizes the step by the
    reference-history power.

    Divergence - a window whose residual power exceeds
    ``DIVERGENCE_POWER_RATIO`` times the disturbance power, or any non-finite
    sample - stops the run: the result has ``diverged=True`` and all traces
    truncated at the detection point. A path longer than
    ``MAX_FILTER_LENGTH`` taps or whose filtered noise is not finite, or a
    window whose disturbance power is not finite, raises ``ValidationError``.
    """
    n = len(noise)
    if n != int(cfg.duration_samples):
        raise ValidationError(
            f"noise length {n} does not match duration_samples {cfg.duration_samples}")

    estimate = secondary if cfg.secondary_estimate is EXACT else cfg.secondary_estimate
    for name, path in (("primary_path", primary), ("secondary_path", secondary),
                       ("secondary_estimate", estimate)):
        if len(path) > MAX_FILTER_LENGTH:
            raise ValidationError(f"{name} must have at most {MAX_FILTER_LENGTH} taps")

    x = noise.samples
    name = "primary_path"
    try:
        d = convolve_path(primary, noise).samples
        name = "secondary_path" if cfg.secondary_estimate is EXACT else "secondary_estimate"
        xf = convolve_path(estimate, noise).samples if cfg.algorithm == "FXLMS" else x
    except ValidationError:  # the noise is finite, so the path's output is not
        raise ValidationError(f"{name} applied to the noise is not finite") from None
    normalized = cfg.algorithm == "NLMS"

    mu = cfg.resolved_step_size()
    leak = float(cfg.leak_factor)
    L = int(cfg.filter_length)
    w = np.zeros(L)
    y = np.zeros(n)
    e = np.zeros(n)

    fs = noise.sample_rate_hz
    window = max(1, int(round(ATTENUATION_WINDOW_S * fs)))

    trace = []
    diverged = False
    end = n  # detection point; n when the run completes
    with np.errstate(all="ignore"):
        for start in range(0, n, window):
            stop = min(start + window, n)
            dist_power = float(np.mean(d[start:stop] ** 2))
            if not np.isfinite(dist_power):
                raise ValidationError(
                    f"disturbance power is not finite in the window starting at sample {start}")
            _kernels.adapt_chunk(x, xf, d, secondary.taps, w, y, e,
                                 start, stop, mu, leak, normalized, NLMS_EPS)
            finite = np.isfinite(e[start:stop])  # e[n] holds sec[0] * y[n]
            if not finite.all():
                diverged = True
                end = start + int(np.argmin(finite))
                break
            resid_power = float(np.mean(e[start:stop] ** 2))
            trace.append(_window_attenuation_db(dist_power, resid_power))
            if resid_power > DIVERGENCE_POWER_RATIO * dist_power:
                diverged = True
                end = stop
                break

    steady = trace[-1] if trace else 0.0
    return AncResult(
        residual=SampleBuffer(e[:end], fs),
        attenuation_trace_db=np.asarray(trace, dtype=np.float64),
        steady_state_attenuation_db=float(steady),
        diverged=diverged,
    )
