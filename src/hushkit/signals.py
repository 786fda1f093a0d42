"""Signal primitives: sample buffers, FIR paths, tone/noise synthesis.

Everything here is deterministic and pure. Buffers carry float64 samples plus a
sample rate; FIR paths are plain impulse responses applied by causal
convolution (``y[k] = sum_j taps[j] * x[k-j]``, ``x[<0] = 0``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import ValidationError

#: Tap count of the band-pass used by :func:`generate_broadband` (order 255).
BROADBAND_FIR_TAPS = 256


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain only finite values")
    return arr


def _sample_rate(fs) -> float:
    """``fs`` as a float: the one sample-rate rule of buffers and generators."""
    rate = float(fs)
    if not 0.0 < rate < np.inf:  # NaN fails too
        raise ValidationError("sample_rate_hz must be a finite value > 0")
    return rate


def _seed(seed) -> int:
    """``seed`` as an int: the one seed rule of the broadband generator and a
    config's ``rng_seed``."""
    if seed < 0:
        raise ValidationError("rng_seed must be an unsigned integer")
    return int(seed)


@dataclass(frozen=True)
class SampleBuffer:
    """A uniformly sampled real-valued signal.

    Attributes:
        samples: 1-D float64 array of amplitudes (dimensionless pressure units).
        sample_rate_hz: sampling rate, strictly positive.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = _as_float_array(self.samples, "samples")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", _sample_rate(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class FirPath:
    """A finite impulse response; models an acoustic propagation path."""

    taps: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.taps, "taps")
        if arr.shape[0] < 1:
            raise ValidationError("taps must contain at least one coefficient")
        object.__setattr__(self, "taps", arr)

    def __len__(self) -> int:
        return self.taps.shape[0]


def generate_tone(freq_hz: float, amplitude: float, phase_rad: float, n: int,
                  fs: float) -> SampleBuffer:
    """Sample ``amplitude * sin(2*pi*freq_hz*k/fs + phase_rad)`` for k in [0, n).

    Raises:
        ValidationError: if the frequency is not inside (0, fs/2) or any
            parameter is non-finite.
    """
    for name, value in (("freq_hz", freq_hz), ("amplitude", amplitude),
                        ("phase_rad", phase_rad)):
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite")
    fs = _sample_rate(fs)
    if not 0 < freq_hz < fs / 2:
        raise ValidationError("freq_hz must lie strictly between 0 and the Nyquist rate fs/2")
    if n < 0:
        raise ValidationError("n must be >= 0")
    # amplitude * sin(2.0 * np.pi * freq_hz * k / fs + phase_rad), in place
    k = np.arange(int(n), dtype=np.float64)
    k *= 2.0 * np.pi * freq_hz
    k /= fs
    k += phase_rad
    np.sin(k, out=k)
    k *= amplitude
    return SampleBuffer(k, fs)


def _bandpass_taps(low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    # Windowed-sinc band-pass. The cut-offs are pulled inside the band by half
    # the Hamming transition width so the stop-band edges land on low/high and
    # out-of-band leakage stays negligible.
    ntaps = BROADBAND_FIR_TAPS
    transition = 4.0 * fs / ntaps
    f1 = low_hz + transition / 2.0
    f2 = high_hz - transition / 2.0
    if f1 >= f2:
        raise ValidationError(
            "low_hz/high_hz band is too narrow for the band-pass transition width")
    m = np.arange(ntaps, dtype=np.float64) - (ntaps - 1) / 2.0

    def lowpass(fc):
        return np.sinc(2.0 * fc / fs * m) * (2.0 * fc / fs)

    return (lowpass(f2) - lowpass(f1)) * np.hamming(ntaps)


def generate_broadband(seed: int, low_hz: float, high_hz: float, n: int,
                       fs: float) -> SampleBuffer:
    """Seeded band-limited noise, normalized to unit RMS.

    White Gaussian noise is shaped by a windowed-sinc band-pass FIR (order
    255); the same seed always reproduces the same samples. The band must
    satisfy ``0 < low_hz < high_hz < fs/2`` and be wide enough for the
    filter's transition bands.
    """
    fs = _sample_rate(fs)
    if not (np.isfinite(low_hz) and np.isfinite(high_hz)):
        raise ValidationError("low_hz and high_hz must be finite")
    if not 0 < low_hz < high_hz < fs / 2:
        raise ValidationError("band must satisfy 0 < low_hz < high_hz < fs/2")
    if n < 0:
        raise ValidationError("n must be >= 0")
    seed = _seed(seed)
    n = int(n)
    taps = _bandpass_taps(low_hz, high_hz, fs)
    rng = np.random.default_rng(seed)
    # Extra warm-up samples make 'valid' convolution return exactly n
    # stationary samples (no start-up transient).
    white = rng.standard_normal(n + taps.shape[0] - 1)
    shaped = np.convolve(white, taps, mode="valid")
    # white is dead after the convolution: its first n samples take the squares
    rms = np.sqrt(np.mean(np.square(shaped, out=white[:n]))) if n else 0.0
    if rms > 0:
        shaped /= rms
    return SampleBuffer(shaped, fs)


def convolve_path(path: FirPath, x: SampleBuffer) -> SampleBuffer:
    """Propagate ``x`` through ``path`` by causal FIR convolution.

    Output length equals input length; samples before the start of the
    buffer are taken as zero.
    """
    n = len(x)
    out = np.convolve(x.samples, path.taps)[:n]
    return SampleBuffer(out, x.sample_rate_hz)

