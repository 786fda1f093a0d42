"""Adaptive cancellation loop: algorithm behavior, convergence, divergence."""
import numpy as np
import pytest

from hushkit import ATTENUATION_CAP_DB, ValidationError
from hushkit.anc import (ATTENUATION_WINDOW_S, DEFAULT_STEP_SIZE,
                         DIVERGENCE_POWER_RATIO, EXACT, MAX_DURATION_SAMPLES,
                         MAX_FILTER_LENGTH, AncConfig, _window_attenuation_db,
                         anc_run)
from hushkit.signals import (FirPath, SampleBuffer, convolve_path,
                             generate_broadband, generate_tone)

FS = 8000.0
UNIT = FirPath(np.array([1.0]))


def room_path(ntaps, delay, decay, freq, fs=FS):
    # unit-energy decaying cosine: a stable stand-in for an acoustic path
    k = np.arange(ntaps, dtype=float)
    taps = np.zeros(ntaps)
    kk = k[delay:] - delay
    taps[delay:] = np.exp(-kk / decay) * np.cos(2 * np.pi * freq * kk / fs)
    return FirPath(taps / np.sqrt(np.sum(taps ** 2)))


PRIMARY_32 = room_path(32, 5, 7.0, 650.0)
SECONDARY_32 = room_path(32, 3, 5.0, 900.0)


def tonal_config(**overrides):
    base = dict(algorithm="FXLMS", duration_samples=40000,
                filter_length=2, step_size=0.05)
    base.update(overrides)
    return AncConfig(**base)


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValidationError, match="algorithm"):
        AncConfig(algorithm="RLS", duration_samples=100)


def test_config_rejects_negative_step():
    with pytest.raises(ValidationError, match="step_size"):
        AncConfig(algorithm="LMS", duration_samples=100,
                  filter_length=4, step_size=-0.1)


def test_config_rejects_leak_of_one():
    with pytest.raises(ValidationError, match="leak_factor"):
        AncConfig(algorithm="LMS", duration_samples=100,
                  filter_length=4, leak_factor=1.0)


def test_config_rejects_filter_longer_than_run():
    with pytest.raises(ValidationError, match="filter_length"):
        AncConfig(algorithm="LMS", duration_samples=64,
                  filter_length=65)


@pytest.mark.parametrize("duration", [MAX_DURATION_SAMPLES + 1, 10**12])
def test_config_rejects_duration_past_the_bound(duration):
    # AncConfig allocates nothing, so no size here is ever allocated
    with pytest.raises(ValidationError,
                       match=f"duration_samples must be <= {MAX_DURATION_SAMPLES}"):
        AncConfig(algorithm="LMS", duration_samples=duration)


@pytest.mark.parametrize("taps", [MAX_FILTER_LENGTH + 1, 10**12])
def test_config_rejects_filter_length_past_the_bound(taps):
    with pytest.raises(ValidationError,
                       match=f"filter_length must be <= {MAX_FILTER_LENGTH}"):
        AncConfig(algorithm="LMS", duration_samples=MAX_DURATION_SAMPLES,
                  filter_length=taps)


def test_config_accepts_sizes_at_the_bounds():
    config = AncConfig(algorithm="LMS", duration_samples=MAX_DURATION_SAMPLES,
                       filter_length=MAX_FILTER_LENGTH)
    assert (config.duration_samples, config.filter_length) == (
        MAX_DURATION_SAMPLES, MAX_FILTER_LENGTH)


@pytest.mark.parametrize("estimate", ["exact", [1.0], np.array([1.0])],
                         ids=["string", "list", "array"])
def test_config_rejects_an_estimate_that_is_not_a_path(estimate):
    with pytest.raises(ValidationError) as info:
        AncConfig(algorithm="FXLMS", duration_samples=64,
                  filter_length=4, secondary_estimate=estimate)
    assert str(info.value) == "secondary_estimate must be a FirPath or EXACT"


@pytest.mark.parametrize("algorithm", ["LMS", "NLMS", "FXLMS"])
def test_default_step_size_per_algorithm(algorithm):
    cfg = AncConfig(algorithm=algorithm, duration_samples=64,
                    filter_length=4)
    assert cfg.resolved_step_size() == DEFAULT_STEP_SIZE[algorithm]


def test_zero_step_size_passes_disturbance_through():
    cfg = tonal_config(step_size=0.0)
    noise = generate_tone(200.0, 1.0, 0.0, 40000, FS)
    result = anc_run(cfg, noise, UNIT, UNIT)
    disturbance = convolve_path(UNIT, noise)
    assert np.array_equal(result.residual.samples, disturbance.samples)
    assert result.steady_state_attenuation_db == 0.0
    assert not result.diverged


def test_fxlms_equals_lms_under_unit_secondary():
    noise = generate_broadband(5, 50.0, 500.0, 20000, FS)
    results = []
    for algorithm in ("FXLMS", "LMS"):
        cfg = AncConfig(algorithm=algorithm, duration_samples=20000,
                        filter_length=32, step_size=1e-3,
                        secondary_estimate=EXACT)
        results.append(anc_run(cfg, noise, PRIMARY_32, UNIT))
    a, b = results
    assert np.array_equal(a.residual.samples, b.residual.samples)
    assert np.array_equal(a.attenuation_trace_db, b.attenuation_trace_db)


def test_nlms_is_scale_invariant():
    # the step normalizer makes the residual scale linearly with the input;
    # a large amplitude keeps the fixed eps term far below the signal power
    def run(scale):
        noise = generate_tone(200.0, 50.0 * scale, 0.0, 20000, FS)
        cfg = AncConfig(algorithm="NLMS", duration_samples=20000,
                        filter_length=16)
        return anc_run(cfg, noise, PRIMARY_32, SECONDARY_32)

    reference = run(1.0)
    # compare where the residual still carries signal; once it decays to the
    # arithmetic noise floor, relative comparison is meaningless
    mask = np.abs(reference.residual.samples) > 1e-6 * 50.0
    assert np.count_nonzero(mask) > 300
    for scale in (8.0, 0.125):
        scaled = run(scale)
        np.testing.assert_allclose(scaled.residual.samples[mask],
                                   reference.residual.samples[mask] * scale,
                                   rtol=5e-9, atol=0)


def test_tonal_two_tap_reaches_forty_db():
    cfg = tonal_config()
    noise = generate_tone(200.0, 1.0, 0.0, 40000, FS)
    result = anc_run(cfg, noise, UNIT, UNIT)
    assert not result.diverged
    assert result.steady_state_attenuation_db >= 40.0
    assert result.steady_state_attenuation_db == ATTENUATION_CAP_DB


def test_window_attenuation_of_a_silent_and_of_a_silenced_window():
    # a silent disturbance gives 0 dB, a silenced residual under a live one the cap
    assert _window_attenuation_db(0.0, 1.0) == 0.0
    assert _window_attenuation_db(1.0, 0.0) == ATTENUATION_CAP_DB
    assert _window_attenuation_db(100.0, 1.0) == pytest.approx(20.0)


def test_tonal_through_32_tap_paths_reaches_fifteen_db():
    cfg = AncConfig(algorithm="FXLMS", duration_samples=40000,
                    filter_length=128)  # default step size
    noise = generate_tone(200.0, 1.0, 0.0, 40000, FS)
    result = anc_run(cfg, noise, PRIMARY_32, SECONDARY_32)
    assert not result.diverged
    assert result.steady_state_attenuation_db >= 15.0


def test_windowed_residual_power_non_increasing_after_settling():
    cfg = tonal_config(step_size=DEFAULT_STEP_SIZE["FXLMS"])
    noise = generate_tone(200.0, 1.0, 0.0, 40000, FS)
    result = anc_run(cfg, noise, UNIT, UNIT)
    window = int(round(ATTENUATION_WINDOW_S * FS))
    powers = np.mean(result.residual.samples.reshape(-1, window) ** 2, axis=1)
    settled = powers[10:]
    assert np.all(np.diff(settled) <= 0.0)


def test_broadband_fxlms_converges():
    noise = generate_broadband(7, 50.0, 500.0, 40000, FS)
    cfg = AncConfig(algorithm="NLMS", duration_samples=40000,
                    filter_length=128)
    result = anc_run(cfg, noise, PRIMARY_32, SECONDARY_32)
    assert not result.diverged
    assert result.steady_state_attenuation_db > 10.0


def test_divergence_detected_without_non_finite_output():
    cfg = AncConfig(algorithm="FXLMS", duration_samples=40000,
                    filter_length=128,
                    step_size=1e3 * DEFAULT_STEP_SIZE["FXLMS"])
    noise = generate_tone(200.0, 1.0, 0.0, 40000, FS)
    result = anc_run(cfg, noise, PRIMARY_32, SECONDARY_32)
    assert result.diverged
    assert np.all(np.isfinite(result.residual.samples))
    assert np.all(np.isfinite(result.attenuation_trace_db))
    assert len(result.residual) <= 40000


def test_power_ratio_divergence_stops_at_the_end_of_its_window():
    # NLMS is stable for steps below 2; at 2.001 the residual power passes
    # DIVERGENCE_POWER_RATIO times the disturbance's in the second window,
    # while every sample is still finite
    cfg = AncConfig(algorithm="NLMS", duration_samples=16000,
                    filter_length=8, step_size=2.001)
    noise = generate_tone(440.0, 1.0, 0.0, 16000, FS)
    result = anc_run(cfg, noise, FirPath(np.array([0.0, 0.8, 0.3])), UNIT)
    window = int(round(ATTENUATION_WINDOW_S * FS))
    trace = result.attenuation_trace_db
    assert result.diverged
    assert len(result.residual) == window * len(trace) < 16000
    assert np.all(np.isfinite(result.residual.samples))
    assert np.all(np.isfinite(trace))
    assert result.steady_state_attenuation_db == trace[-1]
    assert trace[-1] < -10.0 * np.log10(DIVERGENCE_POWER_RATIO)
    assert np.all(trace[:-1] >= -10.0 * np.log10(DIVERGENCE_POWER_RATIO))


def test_trace_has_one_entry_per_window():
    cfg = tonal_config()
    noise = generate_tone(200.0, 1.0, 0.0, 40000, FS)
    result = anc_run(cfg, noise, UNIT, UNIT)
    window = int(round(ATTENUATION_WINDOW_S * FS))
    assert len(result.attenuation_trace_db) == 40000 // window
    assert result.steady_state_attenuation_db == result.attenuation_trace_db[-1]


def test_noise_length_must_match_duration():
    cfg = tonal_config()
    noise = generate_tone(200.0, 1.0, 0.0, 1000, FS)
    with pytest.raises(ValidationError, match="duration_samples"):
        anc_run(cfg, noise, UNIT, UNIT)


def _one_tap_at(index, taps, value=1.0):
    path = np.zeros(taps)
    path[index] = value
    return FirPath(path)


@pytest.mark.parametrize("index, start", [(0, 0), (2500, 2000)])
def test_disturbance_whose_power_overflows_is_rejected(index, start):
    # the squares of 1e300 * noise overflow from sample `index` on
    noise = generate_tone(200.0, 1.0, 0.0, 40000, FS)
    with pytest.raises(ValidationError, match=(
            f"disturbance power is not finite in the window starting at sample {start}$")):
        anc_run(tonal_config(), noise, _one_tap_at(index, index + 1, 1e300), UNIT)


@pytest.mark.parametrize("taps", [MAX_FILTER_LENGTH, MAX_FILTER_LENGTH + 1])
@pytest.mark.parametrize("field", ["primary_path", "secondary_path",
                                   "secondary_estimate"])
def test_paths_past_the_tap_bound_are_rejected(field, taps):
    paths = {"primary_path": UNIT, "secondary_path": UNIT, "secondary_estimate": UNIT}
    paths[field] = _one_tap_at(0, taps)
    cfg = tonal_config(duration_samples=100, secondary_estimate=paths["secondary_estimate"])
    noise = generate_tone(200.0, 1.0, 0.0, 100, FS)
    if taps == MAX_FILTER_LENGTH:
        assert not anc_run(cfg, noise, paths["primary_path"], paths["secondary_path"]).diverged
        return
    with pytest.raises(ValidationError,
                       match=f"{field} must have at most {MAX_FILTER_LENGTH} taps"):
        anc_run(cfg, noise, paths["primary_path"], paths["secondary_path"])


def test_estimate_path_used_for_fxlms_reference():
    # a deliberately wrong estimate must change the trajectory
    noise = generate_tone(200.0, 1.0, 0.0, 20000, FS)
    exact_cfg = AncConfig(algorithm="FXLMS", duration_samples=20000,
                          filter_length=32, secondary_estimate=EXACT)
    skew = FirPath(np.array([0.0, 0.0, 1.0]))
    skew_cfg = AncConfig(algorithm="FXLMS", duration_samples=20000,
                         filter_length=32, secondary_estimate=skew)
    a = anc_run(exact_cfg, noise, PRIMARY_32, SECONDARY_32)
    b = anc_run(skew_cfg, noise, PRIMARY_32, SECONDARY_32)
    assert not np.array_equal(a.residual.samples, b.residual.samples)
