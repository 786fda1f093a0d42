"""Adaptive cancellation loop: algorithm behavior, convergence, divergence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hushkit import ATTENUATION_CAP_DB, ValidationError, anc
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


def _mean_loop(d, residual, window):
    """The window loop with one np.mean per window and a finite check of each
    window's residual, fed ``residual`` as the kernel's output: the powers
    of each window, the trace, ``diverged`` and the residual's length."""
    n = len(d)
    powers, trace, diverged, end = [], [], False, n
    with np.errstate(all="ignore"):
        for start in range(0, n, window):
            stop = min(start + window, n)
            dist_power = float(np.mean(d[start:stop] ** 2))
            if not np.isfinite(dist_power):
                raise ValidationError(
                    f"disturbance power is not finite in the window starting at sample {start}")
            e = residual[start:stop]
            finite = np.isfinite(e)
            if not finite.all():
                diverged = True
                end = start + int(np.argmin(finite))
                break
            resid_power = float(np.mean(e ** 2))
            powers.append((dist_power, resid_power))
            trace.append(_window_attenuation_db(dist_power, resid_power))
            if resid_power > DIVERGENCE_POWER_RATIO * dist_power:
                diverged = True
                end = stop
                break
    return powers, np.asarray(trace, dtype=np.float64), diverged, end


@st.composite
def _window_runs(draw):
    """A disturbance and a residual of up to 9,000 samples, at a rate whose
    0.25 s window is 1, 7, 11, 2,000 or 3,001 samples, longer than the run,
    or drawn; a few samples of each set to inf, -inf, NaN or 1e200 (whose
    square overflows), and the residual scaled by up to 1e160, so that its
    squares may overflow although every sample is finite."""
    n = draw(st.integers(1, 9000))
    fs = draw(st.sampled_from([1.0, 4.0, 28.0, 44.0, 8000.0, 12004.0, 4.0 * n + 8.0, 1e300])
              | st.floats(1.0, 60000.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.standard_normal(n) * 10.0 ** draw(st.sampled_from([-200, 0, 100]))
    e = rng.standard_normal(n) * 10.0 ** draw(st.sampled_from([-300, -3, 0, 1, 150, 160]))
    for a, odds in ((d, 0.3), (e, 0.5)):
        if draw(st.floats(0.0, 1.0)) < odds:
            at = rng.integers(0, n, draw(st.integers(1, 3)))
            a[at] = draw(st.sampled_from([np.inf, -np.inf, np.nan, 1e200]))
    if draw(st.booleans()):
        e[: draw(st.integers(0, n))] = 0.0
    return fs, d, e


class _Samples:
    """What anc_run reads of a path's output: its samples."""

    def __init__(self, samples):
        self.samples = samples


def test_window_loop_matches_one_mean_per_window(monkeypatch):
    """anc_run's powers, trace, diverged flag and residual equal those of a
    loop that takes np.mean of each window, the kernel and the disturbance
    path replaced by the drawn residual and disturbance."""
    run = {}
    seen = {"raised": 0, "non_finite": 0, "overflow": 0, "ratio": 0, "whole": 0,
            "one_window_short": 0}
    powers = []

    def kernel(x, xf, d, sec, w, y, e, start, stop, *args):
        e[start:stop] = run["e"][start:stop]

    def attenuation(dist_power, resid_power):
        powers.append((dist_power, resid_power))
        return _window_attenuation_db(dist_power, resid_power)

    monkeypatch.setattr(anc._kernels, "adapt_chunk", kernel)
    monkeypatch.setattr(anc, "convolve_path", lambda path, noise: _Samples(run["d"]))
    monkeypatch.setattr(anc, "_window_attenuation_db", attenuation)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(drawn=_window_runs())
    def same_outcome(drawn):
        fs, d, e = drawn
        n = len(d)
        window = max(1, int(round(ATTENUATION_WINDOW_S * fs)))
        run.update(d=d, e=e)
        cfg = AncConfig(algorithm="LMS", duration_samples=n, filter_length=1)
        noise = SampleBuffer(np.zeros(n), fs)
        powers.clear()
        try:
            want = _mean_loop(d, e, window)
        except ValidationError as error:
            with pytest.raises(ValidationError) as got:
                anc_run(cfg, noise, UNIT, UNIT)
            assert str(got.value) == str(error)
            seen["raised"] += 1
            return
        result = anc_run(cfg, noise, UNIT, UNIT)
        assert [np.float64(p).tobytes() for pair in powers for p in pair] == \
            [np.float64(p).tobytes() for pair in want[0] for p in pair]
        assert result.attenuation_trace_db.tobytes() == want[1].tobytes()
        assert result.diverged == want[2]
        assert result.residual.samples.tobytes() == e[:want[3]].tobytes()
        seen["whole"] += not want[2]
        seen["one_window_short"] += window > n
        if want[3] < n and not np.isfinite(e[want[3]]):
            seen["non_finite"] += 1
        elif want[2] and want[1][-1] == -np.inf:
            seen["overflow"] += 1  # finite samples whose squares overflow
        elif want[2]:
            seen["ratio"] += 1

    same_outcome()
    # it counts 147 raised, 84 non-finite, 26 overflowing, 70 by the ratio, 73
    # whole runs and 112 with a window longer than the run
    assert min(seen.values()) >= 20, seen
