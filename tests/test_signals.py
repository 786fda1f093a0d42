"""Signal toolbox: sample buffers, FIR paths and the tone/noise generators."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hushkit import ValidationError
from hushkit._kernels import fir_numpy
from hushkit.signals import (FirPath, SampleBuffer, _bandpass_taps, convolve_path,
                             generate_broadband, generate_tone)

FS = 8000.0


def test_tone_matches_closed_form():
    tone = generate_tone(200.0, 0.5, 0.3, 64, FS)
    k = np.arange(64)
    expected = 0.5 * np.sin(2 * np.pi * 200.0 * k / FS + 0.3)
    assert np.array_equal(tone.samples, expected)
    assert tone.sample_rate_hz == FS
    assert len(tone) == 64


@pytest.mark.parametrize("freq", [0.0, -10.0, FS / 2, FS])
def test_tone_rejects_out_of_band_frequency(freq):
    with pytest.raises(ValidationError, match="freq_hz"):
        generate_tone(freq, 1.0, 0.0, 16, FS)


def test_tone_rejects_non_finite_amplitude():
    with pytest.raises(ValidationError, match="amplitude"):
        generate_tone(200.0, np.nan, 0.0, 16, FS)


def test_broadband_is_seed_deterministic():
    a = generate_broadband(42, 50.0, 500.0, 4096, FS)
    b = generate_broadband(42, 50.0, 500.0, 4096, FS)
    c = generate_broadband(43, 50.0, 500.0, 4096, FS)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_broadband_unit_rms():
    noise = generate_broadband(7, 50.0, 500.0, 20000, FS)
    assert abs(np.sqrt(np.mean(noise.samples**2)) - 1.0) < 1e-12


def test_broadband_energy_concentrated_in_band():
    noise = generate_broadband(7, 50.0, 500.0, 80000, FS)
    spectrum = np.abs(np.fft.rfft(noise.samples)) ** 2
    freqs = np.fft.rfftfreq(len(noise), 1.0 / FS)
    in_band = spectrum[(freqs >= 50.0) & (freqs <= 500.0)].sum()
    assert in_band / spectrum.sum() >= 0.95


# every buffer and generator checks a sample rate by one rule
_FS_MESSAGE = "sample_rate_hz must be a finite value > 0"


@pytest.mark.parametrize("generate, message", [
    (lambda: generate_tone(200.0, 1.0, 0.0, -1, FS), "n must be >= 0"),
    (lambda: generate_broadband(0, 50.0, 500.0, -1, FS), "n must be >= 0"),
    (lambda: generate_broadband(-1, 50.0, 500.0, 16, FS),
     "rng_seed must be an unsigned integer"),
    (lambda: generate_tone(200.0, 1.0, 0.0, 16, 0.0), _FS_MESSAGE),
    (lambda: generate_broadband(0, 50.0, 500.0, 16, -8000.0), _FS_MESSAGE),
    (lambda: generate_tone(200.0, 1.0, 0.0, 16, np.inf), _FS_MESSAGE),
    (lambda: SampleBuffer([0.0], 0.0), _FS_MESSAGE),
], ids=["tone-n", "broadband-n", "broadband-seed", "tone-fs-0", "broadband-fs-negative",
        "tone-fs-inf", "buffer-fs-0"])
def test_generators_reject_a_negative_count_or_seed(generate, message):
    with pytest.raises(ValidationError) as info:
        generate()
    assert str(info.value) == message


@pytest.mark.parametrize("low, high", [(np.nan, 500.0), (50.0, np.inf),
                                       (-np.inf, 500.0)])
def test_broadband_rejects_non_finite_band_edges(low, high):
    with pytest.raises(ValidationError) as info:
        generate_broadband(0, low, high, 128, FS)
    assert str(info.value) == "low_hz and high_hz must be finite"


@pytest.mark.parametrize("samples", [np.zeros((2, 8)), np.float64(1.0)],
                         ids=["2-d", "0-d"])
def test_sample_buffer_rejects_a_buffer_that_is_not_one_dimensional(samples):
    with pytest.raises(ValidationError) as info:
        SampleBuffer(samples, FS)
    assert str(info.value) == "samples must be one-dimensional"


def test_broadband_rejects_inverted_band():
    with pytest.raises(ValidationError, match="band"):
        generate_broadband(0, 500.0, 50.0, 128, FS)


def test_convolve_path_matches_numpy():
    # exact terms and sums: np.convolve's result in any order
    x = SampleBuffer(np.arange(10, dtype=float), FS)
    path = FirPath(np.array([0.5, 0.25, 0.125]))
    out = convolve_path(path, x)
    expected = np.convolve(x.samples, path.taps)[:10]
    assert np.allclose(out.samples, expected, rtol=0, atol=0)
    # otherwise the serial sum over x behind taps - 1 zeros, each zero term
    # included
    rng = np.random.default_rng(5)
    for n, taps in ((10, 3), (1, 3), (200, 1), (300, 33), (5, 64)):
        x = SampleBuffer(rng.standard_normal(n), FS)
        path = FirPath(rng.standard_normal(taps))
        out = convolve_path(path, x).samples
        assert out.tobytes() == fir_numpy(
            path.taps, np.concatenate((np.zeros(taps - 1), x.samples))).tobytes()


def test_an_empty_stimulus_or_path_output_has_no_samples():
    assert len(generate_broadband(0, 50.0, 500.0, 0, FS)) == 0
    out = convolve_path(FirPath(np.array([0.5, 0.25])), SampleBuffer(np.zeros(0), FS))
    assert len(out) == 0 and out.sample_rate_hz == FS


def test_identity_path_is_transparent():
    x = generate_broadband(3, 50.0, 500.0, 512, FS)
    out = convolve_path(FirPath(np.array([1.0])), x)
    assert np.array_equal(out.samples, x.samples)


def test_sample_buffer_rejects_non_finite():
    with pytest.raises(ValidationError):
        SampleBuffer(np.array([1.0, np.inf]), FS)


def test_sample_buffer_rejects_bad_rate():
    with pytest.raises(ValidationError):
        SampleBuffer(np.zeros(4), 0.0)


def test_fir_path_rejects_empty():
    with pytest.raises(ValidationError):
        FirPath(np.array([]))


def _tone_expression(freq_hz, amplitude, phase_rad, n, fs):
    """The tone as one expression, which the in-place arithmetic must match."""
    k = np.arange(int(n), dtype=np.float64)
    return amplitude * np.sin(2.0 * np.pi * freq_hz * k / fs + phase_rad)


def _broadband_expression(seed, low_hz, high_hz, n, fs):
    """The noise with a fresh array for the normalized samples, each sample
    of the band-pass summed serially over the taps."""
    taps = _bandpass_taps(low_hz, high_hz, fs)
    white = np.random.default_rng(seed).standard_normal(n + taps.shape[0] - 1)
    shaped = fir_numpy(taps, white)
    rms = np.sqrt(np.mean(shaped**2)) if n else 0.0
    if rms > 0:
        shaped = shaped / rms
    return shaped


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(fs=st.floats(1.0, 1e6), where=st.floats(1e-9, 1.0, exclude_max=True),
       amplitude=st.floats(-1e300, 1e300), phase=st.floats(-1e3, 1e3),
       n=st.integers(0, 3000))
def test_tone_gives_the_bytes_of_its_expression(fs, where, amplitude, phase, n):
    freq = where * fs / 2
    got = generate_tone(freq, amplitude, phase, n, fs).samples
    assert got.tobytes() == _tone_expression(freq, amplitude, phase, n, fs).tobytes()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(fs=st.floats(100.0, 1e6), low=st.floats(0.0, 0.9, exclude_min=True),
       width=st.floats(1.05 / 32, 1.0), seed=st.integers(0, 2**63),
       n=st.integers(0, 3000))
def test_broadband_gives_the_bytes_of_its_expression(fs, low, width, seed, n):
    # the band is wider than the filter's two half transitions, fs / 64
    low_hz = low * fs / 2
    high_hz = min(low_hz + width * fs / 2, np.nextafter(fs / 2, 0.0))
    if high_hz - low_hz <= 1.01 * fs / 64:
        low_hz = high_hz - 1.01 * fs / 64
    got = generate_broadband(seed, low_hz, high_hz, n, fs).samples
    want = _broadband_expression(seed, low_hz, high_hz, n, fs)
    assert got.tobytes() == want.tobytes()
