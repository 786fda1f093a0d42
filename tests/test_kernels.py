"""The adaptive kernel and the FIR against their numpy references, and how
they are built.

``adapt_chunk`` must give the same bytes as ``adapt_chunk_numpy`` whichever
backend runs, however the signal is cut into chunks, and ``fir`` those of
``fir_numpy`` at every vector width; neither may touch memory outside its
arrays. The subprocess tests pin the compile-once cache and the numpy
fallback without a working compiler, and the build tests pin that a cache
it cannot use is left untouched and that the source builds without
warnings.
"""
import functools
import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hushkit import _kernels

ROOT = Path(__file__).resolve().parent.parent
N = 5000
CHUNK = 2000
WARM_UP = 600  # past the longest filter and secondary path tested


def _room(M, decay, freq=800.0):
    """The benchmark's ``room_path`` of M taps with no delay: a unit-energy
    cosine at ``freq`` Hz (8 kHz sampling) decaying by e every ``decay`` taps."""
    k = np.arange(M)
    taps = np.exp(-k / decay) * np.cos(2 * np.pi * freq * k / 8000.0)
    return taps / np.sqrt(taps @ taps)


def _gate(sec):
    """The C kernel's J, to rounding: the first multiple of 8 from which every
    |tap| is below 2^-55 of their sum, or M when there is none (or M > 4096).
    The secondary-path sum may stop early only from tap J on."""
    a = np.abs(sec)
    bound = np.maximum.accumulate(a[::-1])[::-1][::8]
    below = np.flatnonzero(bound < a.sum() * 2.0 ** -55)
    return min(8 * below[0], len(a)) if len(below) and len(a) <= 4096 else len(a)


def _inputs(algorithm, L, M, unstable, delay=0, decay=None):
    rng = np.random.default_rng(1000 * L + M)
    x = rng.standard_normal(N)
    # secondary path: ``delay`` zero taps (a bulk delay), then a unit tap and
    # decaying taps of random sign, one of them -0.0; or, given ``decay``, a
    # room path, which passes less of the output, so that only a step four
    # times larger diverges
    if decay is None:
        sec = 0.5 ** np.arange(M) * rng.choice((-1.0, 1.0), M)
        if M:
            sec[0] = 1.0
        if M > 2:
            sec[M // 2] = -0.0
    else:
        sec = _room(M, decay)
    sec = np.concatenate((np.zeros(delay), sec))
    d = np.convolve(x, 0.7 ** np.arange(24))[:N]
    xf = np.convolve(x, sec)[:N] if algorithm == "FXLMS" else x
    if algorithm == "NLMS":
        mu = 4.0 if unstable else 0.1
    else:
        mu = (4.0 if unstable else 0.01) / L
    if unstable and decay is not None:
        mu *= 4
    return x, xf, d, sec, mu


def _run_kernel(kernel, algorithm, leak, L, M, unstable, bounds=(0, CHUNK, 2 * CHUNK, N),
                w=None, delay=0, decay=None):
    """Run the chunks between consecutive ``bounds``, from zero weights or a
    copy of ``w``."""
    x, xf, d, sec, mu = _inputs(algorithm, L, M, unstable, delay, decay)
    w = np.zeros(L) if w is None else w.copy()
    y, e = np.zeros(N), np.zeros(N)
    with np.errstate(all="ignore"):
        for start, stop in zip(bounds, bounds[1:]):
            kernel(x, xf, d, sec, w, y, e, start, stop, mu, leak, algorithm == "NLMS", 1e-8)
    return w, y, e


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
        assert a.tobytes() == b.tobytes()


def _kernel_cases(test):
    for mark in (pytest.mark.parametrize("algorithm", ["LMS", "NLMS", "FXLMS"]),
                 pytest.mark.parametrize("leak", [0.0, 1e-3]),
                 pytest.mark.parametrize("L, M", [(1, 1), (8, 16), (64, 32), (256, 512),
                                                  (200, 16), (9, 16), (66, 32), (35, 8)]),
                 pytest.mark.parametrize("unstable", [False, True],
                                         ids=["stable", "diverging"])):
        test = mark(test)
    return test


def _matches_reference(algorithm, leak, L, M, unstable, delay, decay=None):
    """``delay`` zero taps, then ``M`` taps; M = 0 leaves only the zero ones."""
    run = functools.partial(_run_kernel, algorithm=algorithm, leak=leak, L=L, M=M,
                            unstable=unstable, delay=delay, decay=decay)
    want = run(_kernels.adapt_chunk_numpy)
    for bounds in ((0, CHUNK, 2 * CHUNK, N), (*range(0, N, 333), N)):
        got = run(_kernels.adapt_chunk, bounds=bounds)
        _assert_same_bytes(got, want)
    e = want[2]
    with np.errstate(all="ignore"):
        blew_up = not np.isfinite(e).all() or np.abs(e).max() > 1e100
    assert blew_up == (unstable and M > 0)  # with M = 0 the residual is d
    # an empty chunk, even at the end of the signal, changes nothing
    x, xf, d, sec, mu = _inputs(algorithm, L, M, unstable, delay, decay)
    for at in (0, L // 2, N):
        _kernels.adapt_chunk(x, xf, d, sec, *got, at, at, mu, leak, algorithm == "NLMS", 1e-8)
    _assert_same_bytes(got, want)
    # While n + 1 < L the history grows by one tap per sample: within a chunk
    # the C kernel adds the new tap's term to the next output in the sweep
    # that updates the weights, at a chunk's start it sums the output anew.
    # From zero weights that term is zero, so start from nonzero ones.
    w0 = np.linspace(-1e-3, 1e-3, L)
    want = run(_kernels.adapt_chunk_numpy, bounds=(0, WARM_UP), w=w0)
    for bounds in ((0, WARM_UP), range(WARM_UP + 1)):
        got = run(_kernels.adapt_chunk, bounds=bounds, w=w0)
        _assert_same_bytes(got, want)


@_kernel_cases
def test_kernel_matches_numpy_reference_bit_for_bit(algorithm, leak, L, M, unstable):
    _matches_reference(algorithm, leak, L, M, unstable, delay=0)


# The shipped ANC configs and the generated FXLMS ones have secondary paths
# that start with zero taps; the first of them multiplies the newest output.
@_kernel_cases
def test_kernel_matches_numpy_reference_behind_a_bulk_delay(algorithm, leak, L, M,
                                                            unstable):
    _matches_reference(algorithm, leak, L, M, unstable, delay=3)


# Other bulk delays put the zero taps, and the newest output they multiply,
# in other lanes of the secondary-path sum; 3 is covered above.
@_kernel_cases
@pytest.mark.parametrize("delay", [1, 2, 4])
def test_kernel_matches_numpy_reference_behind_other_bulk_delays(algorithm, leak, L, M,
                                                                 unstable, delay):
    _matches_reference(algorithm, leak, L, M, unstable, delay)


# The benchmark's LMS and NLMS room paths: past tap ~40 decay lengths no term
# can move the secondary-path sum, so the C kernel stops it there; each chunk
# (333 samples in one cut) bounds the outputs the tail reads anew.
@pytest.mark.parametrize("algorithm", ["LMS", "NLMS", "FXLMS"])
@pytest.mark.parametrize("leak", [0.0, 1e-3])
@pytest.mark.parametrize("L, M, decay", [(256, 512, 2.0), (192, 256, 1.0)])
@pytest.mark.parametrize("unstable", [False, True], ids=["stable", "diverging"])
def test_kernel_matches_numpy_reference_where_the_secondary_sum_stops_early(
        algorithm, leak, L, M, decay, unstable):
    assert _gate(_room(M, decay)) < M // 4
    _matches_reference(algorithm, leak, L, M, unstable, 0, decay)


@pytest.mark.parametrize("algorithm", ["LMS", "NLMS", "FXLMS"])
@pytest.mark.parametrize("leak", [0.0, 1e-3])
@pytest.mark.parametrize("L, taps", [(1, 1), (8, 2), (64, 5)])
def test_kernel_matches_numpy_reference_on_an_all_zero_secondary_path(algorithm, leak, L,
                                                                      taps):
    _matches_reference(algorithm, leak, L, 0, False, delay=taps)


def test_a_filter_longer_than_anc_allows_matches_the_reference():
    L = 5000  # past anc.MAX_FILTER_LENGTH, which only a direct caller can pass
    rng = np.random.default_rng(5)
    x = rng.standard_normal(L + 100)
    sec = np.array([0.0, 0.0, 0.0, 1.0, -0.5])
    d, xf = np.convolve(x, 0.7 ** np.arange(24))[:len(x)], np.convolve(x, sec)[:len(x)]
    got, want = [], []
    for kernel, out in ((_kernels.adapt_chunk_numpy, want), (_kernels.adapt_chunk, got)):
        w, y, e = np.linspace(-1e-3, 1e-3, L), np.zeros(len(x)), np.zeros(len(x))
        kernel(x, xf, d, sec, w, y, e, 0, len(x), 1e-5, 0.0, False, 1e-8)
        out += (w, y, e)
    _assert_same_bytes(got, want)


def test_a_secondary_path_longer_than_the_tap_bounds_is_summed_whole():
    M = 5000  # past the 4,096 taps whose bounds the C kernel keeps: no cut
    rng = np.random.default_rng(6)
    x = rng.standard_normal(M + 200)
    sec = _room(M, 2.0)
    d = np.convolve(x, 0.7 ** np.arange(24))[:len(x)]
    got, want = [], []
    for kernel, out in ((_kernels.adapt_chunk_numpy, want), (_kernels.adapt_chunk, got)):
        w, y, e = np.zeros(8), np.zeros(len(x)), np.zeros(len(x))
        for start, stop in ((0, M // 2), (M // 2, len(x))):
            kernel(x, x, d, sec, w, y, e, start, stop, 1e-3, 0.0, False, 1e-8)
        out += (w, y, e)
    _assert_same_bytes(got, want)


@pytest.mark.skipif(_kernels.backend_name() != "c", reason="C kernel not built")
@pytest.mark.parametrize("algorithm", ["LMS", "NLMS", "FXLMS"])
@pytest.mark.parametrize("leak", [0.0, 1e-3])
@pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 66])
def test_the_weights_are_in_tap_order_after_every_c_call(algorithm, leak, L):
    """The C kernel holds the weights newest-first while it runs: chunks that
    alternate it with the numpy kernel, which reads them in tap order, give
    the bytes of an all-numpy run, and an empty chunk moves no weight."""
    w0 = np.linspace(-1e-3, 2e-3, L)  # no palindrome
    run = functools.partial(_run_kernel, algorithm=algorithm, leak=leak, L=L, M=16,
                            unstable=False, bounds=(*range(0, N, 333), N), w=w0)
    want = run(_kernels.adapt_chunk_numpy)
    for order in ((_kernels.adapt_chunk, _kernels.adapt_chunk_numpy),
                  (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk)):
        kernels = itertools.cycle(order)
        _assert_same_bytes(run(lambda *args: next(kernels)(*args)), want)
    x, xf, d, sec, mu = _inputs(algorithm, L, 16, False)
    w, y, e = w0.copy(), np.zeros(N), np.zeros(N)
    for at in (0, L, N):
        _kernels.adapt_chunk(x, xf, d, sec, w, y, e, at, at, mu, leak, algorithm == "NLMS",
                             1e-8)
    _assert_same_bytes((w, y, e), (w0, np.zeros(N), np.zeros(N)))


@pytest.mark.parametrize("normalized", [False, True])
def test_a_filter_of_no_taps_matches_the_reference(normalized):
    x, xf, d, sec, _ = _inputs("FXLMS", 1, 16, False)
    outs = []
    for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
        w, y, e = np.zeros(0), np.zeros(N), np.zeros(N)
        for start, stop in ((0, 7), (7, N)):
            kernel(x, xf, d, sec, w, y, e, start, stop, 0.1, 1e-3, normalized, 1e-8)
        outs.append((w, y, e))
    _assert_same_bytes(*outs)
    assert not outs[0][1].any() and np.array_equal(outs[0][2], d)


@pytest.mark.parametrize("kernel", ["adapt_chunk_numpy", "adapt_chunk"])
def test_a_residual_is_written_before_it_is_read(kernel):
    """anc_run keeps the disturbance's squares in e until the kernel runs."""
    x, xf, d, sec, mu = _inputs("FXLMS", 8, 16, False, delay=2)
    outs = []
    for fill in (0.0, np.nan):
        w, y, e = np.zeros(8), np.zeros(N), np.full(N, fill)
        for start, stop in ((0, CHUNK), (CHUNK, N)):
            getattr(_kernels, kernel)(x, xf, d, sec, w, y, e, start, stop, mu, 0.0, False,
                                      1e-8)
        outs.append((w, y, e))
    _assert_same_bytes(*outs)


# y before a chunk is the caller's. A value 200 samples back meets tap 200 of a
# room path, past where the sum may stop (about tap 40), in the chunk's first
# residual: a huge or non-finite one must still reach it, and 0 * inf must
# give numpy's NaN where the tail's taps are exactly zero.
@pytest.mark.parametrize("value", [1e300, np.inf, np.nan])
@pytest.mark.parametrize("tail", ["decaying", "zero"])
def test_an_output_before_the_chunk_reaches_the_tail_of_the_sum(value, tail):
    x, xf, d, _, _ = _inputs("LMS", 8, 0, False)
    sec = _room(256, 1.0)
    if tail == "zero":
        sec[150:] = 0.0
    assert _gate(sec) < 150
    outs = []
    for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
        w, y, e = np.linspace(-1e-3, 1e-3, 8), np.zeros(N), np.zeros(N)
        y[CHUNK - 200] = value
        with np.errstate(all="ignore"):
            kernel(x, xf, d, sec, w, y, e, CHUNK, CHUNK + 400, 0.01 / 8, 0.0, False, 1e-8)
        outs.append((w, y, e))
    first = outs[0][2][CHUNK]
    if tail == "zero" and value == 1e300:
        assert np.isfinite(first)
    else:
        assert np.isnan(first) or abs(first) > 1e200
    _assert_same_bytes(*outs)


# Behind a bulk delay, with no step (mu = 0), an input burst 200 samples before
# a chunk's end leaves eight huge outputs, one or two in each lane, in the tail
# of the last sums of the chunk, past where each lane alone could stop.
@pytest.mark.parametrize("delay", [1, 3])
def test_large_outputs_reach_the_tail_of_every_lane(delay):
    x, _, d, _, _ = _inputs("LMS", 8, 0, False)
    x = x.copy()
    for stop in (CHUNK, 2 * CHUNK):
        x[stop - 200] = 1e100
    sec = np.concatenate((np.zeros(delay), _room(256, 1.0)))
    outs = []
    for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
        w, y, e = np.linspace(-1e-3, 1e-3, 8), np.zeros(N), np.zeros(N)
        for start, stop in ((0, CHUNK), (CHUNK, 2 * CHUNK)):
            kernel(x, x, d, sec, w, y, e, start, stop, 0.0, 0.0, False, 1e-8)
        outs.append((w, y, e))
    assert np.isfinite(outs[0][2]).all() and abs(outs[0][2][CHUNK - 1]) > 1e3
    _assert_same_bytes(*outs)


# A residual that is exactly zero or subnormal where the sum may first stop
# (tap 8: sec is 1 and then 2^-70 throughout): |r| * 2^-56 is then 0, so the
# tail's term from 20 samples back, 2^-70 * y, must still be added.
@pytest.mark.parametrize("head, back, want", [
    (0.0, 1.0, -(2.0 ** -70)),
    (-0.0, 1.0, -(2.0 ** -70)),
    (2.0 ** -1060, 2.0 ** -1000, -(2.0 ** -1060 + 2.0 ** -1070)),
])
def test_a_zero_or_subnormal_residual_keeps_its_tail(head, back, want):
    sec = np.concatenate(([1.0], np.full(255, 2.0 ** -70)))
    assert _gate(sec) == 8
    n = 40
    outs = []
    for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
        x, d = np.zeros(n + 1), np.zeros(n + 1)
        x[n] = head  # y[n] = 1.0 * head, with no step
        w, y, e = np.ones(1), np.zeros(n + 1), np.zeros(n + 1)
        y[n - 20] = back
        kernel(x, x, d, sec, w, y, e, n, n + 1, 0.0, 0.0, False, 1e-8)
        assert e[n] == want
        outs.append((w, y, e))
    _assert_same_bytes(*outs)


# Every lane is 1 where the sum may first stop (tap 8), and each lane's tail
# term, 2^-56 * 32 = 2^-51, moves it by two ulps: the bound on the terms left,
# 2^-56 * ymax = 2^-51, is not below 2^-56 of any lane, so the sum goes on.
# A stop test 64 times looser would drop all four terms.
def test_a_tail_that_still_moves_every_lane_is_kept():
    sec = np.concatenate((np.ones(4), np.zeros(4), np.full(8, 2.0 ** -56)))
    assert _gate(sec) == 8
    n = 40
    for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
        x, d = np.zeros(n + 1), np.zeros(n + 1)
        x[n] = 1.0  # y[n] = 1.0, with no step
        w, y, e = np.ones(1), np.zeros(n + 1), np.zeros(n + 1)
        y[n - 3 : n] = 1.0
        y[n - 11 : n - 7] = 32.0
        kernel(x, x, d, sec, w, y, e, n, n + 1, 0.0, 0.0, False, 1e-8)
        assert e[n] == -(4.0 + 2.0 ** -49)


def _four_lanes(a, b):
    """sum(a * b) in the kernels' order, in Python floats: lane j adds the
    products of k = j (mod 4) in order, and the lanes add as (l0+l1)+(l2+l3)."""
    lanes = [0.0] * 4
    for k, (u, v) in enumerate(zip(a, b)):
        lanes[k % 4] += u * v
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])


def _serial(a, b):
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


# One NLMS sample with 37 weights and 23 path taps (neither a multiple of 4),
# drawn so that a serial sum gives other bits for its output, its residual
# and, through the update, its norm: both kernels give the four-lane ones.
@pytest.mark.parametrize("kernel", ["adapt_chunk_numpy", "adapt_chunk"])
def test_each_sum_of_a_sample_runs_in_four_lanes(kernel):
    n, L, M, mu, eps = 60, 37, 23, 0.5, 1e-8
    rng = np.random.default_rng(0)
    x, xf, d, y = (rng.standard_normal(n + 1) for _ in range(4))
    sec, w = rng.standard_normal(M), rng.standard_normal(L)
    xw, xfw, past = x[n::-1][:L].tolist(), xf[n::-1][:L].tolist(), y[n - 1::-1].tolist()
    out = _four_lanes(w.tolist(), xw)
    residual = d[n] - _four_lanes(sec.tolist(), [out, *past])
    norm = _four_lanes(xfw, xfw)

    def updated(norm):
        step = mu / (norm + eps) * residual
        return [wk + step * xk for wk, xk in zip(w.tolist(), xfw)]

    assert out != _serial(w.tolist(), xw)
    assert residual != d[n] - _serial(sec.tolist(), [out, *past])
    want = updated(norm)
    assert want != updated(_serial(xfw, xfw))
    e = np.zeros(n + 1)
    getattr(_kernels, kernel)(x, xf, d, sec, w, y, e, n, n + 1, mu, 0.0, True, eps)
    assert (y[n], e[n], w.tolist()) == (out, residual, want)


@st.composite
def _runs(draw):
    """A short run: L taps, D zero taps (0.0 or -0.0) then up to 8 random ones
    and a tail of up to 40 taps that falls by 2^-1, 2^-4 or 2^-16 per tap, a
    fifth of them exactly zero; inputs scaled by up to 1e100, a step from
    1e-3 to 1e20 (over L and the input power, but for NLMS) and up to four
    chunk cuts. About a quarter of the runs go non-finite."""
    L, D, M = draw(st.integers(1, 64)), draw(st.integers(0, 7)), draw(st.integers(0, 8))
    M = M if M or D else 1
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([0, 10, 50, 100]))
    x = rng.standard_normal(n) * scale
    tail, fall = draw(st.integers(0, 40)), draw(st.sampled_from([1, 4, 16]))
    tail = rng.standard_normal(tail) * 2.0 ** (-fall * np.arange(1, tail + 1))
    tail[rng.random(len(tail)) < 0.2] = 0.0
    sec = np.concatenate((rng.choice((0.0, -0.0), D), rng.standard_normal(M), tail))
    algorithm = draw(st.sampled_from(["LMS", "NLMS", "FXLMS"]))
    xf = np.convolve(x, sec)[:n] if algorithm == "FXLMS" else x
    d = np.convolve(x, rng.standard_normal(4))[:n]
    mu = 10.0 ** draw(st.integers(-3, 20))
    if algorithm != "NLMS":
        mu /= L * scale * scale
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return (x, xf, d, sec, L, mu, draw(st.sampled_from([0.0, 1e-3])),
            algorithm == "NLMS", (0, *cuts, n))


def test_kernel_matches_numpy_reference_on_random_runs():
    delayed_blow_ups, cut = [], []

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(run=_runs())
    def same_bytes(run):
        x, xf, d, sec, L, mu, leak, normalized, bounds = run
        outs = []
        with np.errstate(all="ignore"):
            for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
                w, y, e = np.zeros(L), np.zeros(len(x)), np.zeros(len(x))
                for start, stop in zip(bounds, bounds[1:]):
                    kernel(x, xf, d, sec, w, y, e, start, stop, mu, leak, normalized, 1e-8)
                outs.append(b"".join(a.tobytes() for a in (w, y, e)))
        assert outs[0] == outs[1]
        bad = np.flatnonzero(~np.isfinite(y))
        if sec[0] == 0.0 and len(bad) and bad[0] >= L:
            delayed_blow_ups.append(bad[0])
        if _gate(sec) < min(len(sec), len(x)):
            cut.append(len(bad) > 0)

    same_bytes()
    # outputs that first go non-finite behind a bulk delay once the filter is
    # full: the residual meets each first at a zero tap, as 0 * inf
    assert len(delayed_blow_ups) >= 40
    # runs whose secondary-path sums may stop early (it counts 181), and of
    # them, runs that go non-finite (66)
    assert len(cut) >= 120 and sum(cut) >= 40


def test_a_zero_lead_tap_makes_the_residual_nan_where_the_output_is_infinite():
    first = []
    for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
        _, y, e = _run_kernel(kernel, "LMS", 0.0, 1, 1, True, delay=3)
        n = np.flatnonzero(~np.isfinite(e))[0]
        assert np.isinf(y[n]) and np.isnan(e[n])  # 0 * inf in the residual's sum
        first.append(n)
    assert first[0] == first[1]


# y before a chunk is the caller's. With 6 zero taps, a non-finite value one
# or two samples back meets only zero taps in the first four residuals,
# which are NaN; a sum from tap 6 would miss that.
@pytest.mark.parametrize("back", [1, 2])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_chunk_behind_a_non_finite_output_matches_the_reference(back, value):
    x, xf, d, sec, mu = _inputs("FXLMS", 8, 16, False, delay=6)
    outs = []
    for kernel in (_kernels.adapt_chunk_numpy, _kernels.adapt_chunk):
        w, y, e = np.linspace(-1e-3, 1e-3, 8), np.zeros(N), np.zeros(N)
        y[CHUNK - back] = value
        with np.errstate(all="ignore"):
            kernel(x, xf, d, sec, w, y, e, CHUNK, N, mu, 0.0, False, 1e-8)
        outs.append((w, y, e))
    assert np.isnan(outs[0][2][CHUNK])
    _assert_same_bytes(*outs)


def _fir_c(h, x, lead, width):
    """The C FIR's outputs on its copy of ``width`` lanes."""
    n = lead + len(x) - len(h) + 1
    out = np.full(n, np.nan)
    _kernels._compiled()[1](h.ctypes.data, len(h), x.ctypes.data, n, lead,
                            out.ctypes.data, width)
    return out


# The copies this CPU runs, by lanes; the library builds the widest it can.
FIR_WIDTHS = [w for w in (2, 4, 8) if w <= _kernels.fir_width()]
# Block sizes are 16, 32 and 64 outputs: counts below one block, at one, just
# past one and between them; taps of 1 to 4,096, ANC's largest path.
FIR_LENGTHS = (0, 1, 2, 7, 15, 16, 17, 31, 33, 63, 64, 65, 100, 127, 129, 1000)
FIR_TAPS = (1, 2, 3, 8, 17, 64, 255, 256, 257, 1000, 4096)


@pytest.mark.skipif(_kernels.backend_name() != "c", reason="C library not built")
@pytest.mark.parametrize("M", FIR_TAPS)
def test_fir_matches_numpy_at_every_width(M):
    rng = np.random.default_rng(M)
    h = rng.standard_normal(M)
    # valid, causal, and a lead between them
    for n, lead in itertools.product((*FIR_LENGTHS, M + 37), {0, M // 2, M - 1}):
        x = rng.standard_normal(n + M - 1 - lead)
        want = _kernels.fir_numpy(h, x, lead).tobytes()
        assert _kernels.fir(h, x, lead).tobytes() == want, (n, lead)
        for width in FIR_WIDTHS:
            assert _fir_c(h, x, lead, width).tobytes() == want, (n, lead, width)


@pytest.mark.skipif(_kernels.backend_name() != "c", reason="C library not built")
def test_fir_matches_numpy_where_outputs_overflow():
    # products and running sums past the largest double, of either sign, and
    # inf - inf; huge terms that cancel, which a sum in another order keeps
    rng = np.random.default_rng(3)
    h = rng.standard_normal(40) * 1e300
    h[::7] = 1e308
    x = np.where(rng.random(500) < 0.02, rng.choice((-1.0, 1.0), 500) * 1e10,
                 rng.standard_normal(500))
    for lead in (0, 39):
        with np.errstate(all="ignore"):
            want = _kernels.fir_numpy(h, x, lead)
        assert np.isposinf(want).any() and np.isneginf(want).any()
        assert np.isnan(want).any() and np.isfinite(want).any()
        for width in FIR_WIDTHS:
            assert _fir_c(h, x, lead, width).tobytes() == want.tobytes(), (lead, width)


def test_fir_numpy_sums_each_output_serially():
    # 1 + 1e16 - 1e16 is 0 summed in order of k, 1 in some other order
    h = np.array([1.0, 1e16, -1e16])
    assert _kernels.fir_numpy(h, np.ones(3)).tolist() == [0.0]
    rng = np.random.default_rng(9)
    h, x = rng.standard_normal(37), rng.standard_normal(120)
    src = np.concatenate((np.zeros(36), x))
    want = [_serial(h.tolist(), src[i + 36::-1][:37].tolist()) for i in range(120)]
    assert _kernels.fir_numpy(h, x, 36).tolist() == want
    assert _kernels.fir(h, x, 36).tolist() == want


@pytest.mark.parametrize("kernel", ["fir_numpy", "fir"])
@pytest.mark.parametrize("h, x, lead", [
    (np.zeros(0), np.ones(4), 0), (np.ones(3), np.ones((2, 2)), 0),
    (np.ones(3), np.ones(4), 3), (np.ones(3), np.ones(4), -1), (np.ones(3), np.ones(1), 0),
    (np.array([1.0, np.inf]), np.ones(4), 1),
], ids=["no-taps", "2-d", "lead-past-taps", "negative-lead", "short-x", "infinite-tap"])
def test_fir_refuses_what_it_cannot_sum(kernel, h, x, lead):
    with pytest.raises(ValueError):
        getattr(_kernels, kernel)(h, x, lead)


@pytest.mark.skipif(_kernels.backend_name() != "c", reason="C kernel not built")
@pytest.mark.parametrize("bad", ["w-strided", "y-float32", "e-read-only"])
def test_kernel_refuses_outputs_it_cannot_write_in_place(bad):
    x = np.ones(16)
    w, y, e = np.zeros(4), np.zeros(16), np.zeros(16)
    if bad == "w-strided":
        w = np.zeros(8)[::2]
    elif bad == "y-float32":
        y = np.zeros(16, dtype=np.float32)
    else:
        e.flags.writeable = False
    with pytest.raises(ValueError):
        _kernels.adapt_chunk(x, x, x, np.ones(2), w, y, e, 0, 16, 0.01, 0.0, False, 1e-8)


@pytest.mark.skipif(_kernels.backend_name() != "c", reason="C kernel not built")
@pytest.mark.parametrize("signal", range(4))
def test_kernel_refuses_a_signal_that_is_not_1_d(signal):
    w, y, e = np.zeros(4), np.zeros(16), np.zeros(16)
    signals = [np.ones(16), np.ones(16), np.ones(16), np.ones(2)]
    signals[signal] = signals[signal].reshape(2, -1)
    with pytest.raises(ValueError, match="x, xf, d and sec must be 1-D"):
        _kernels.adapt_chunk(*signals, w, y, e, 0, 8, 0.01, 0.0, False, 1e-8)


@pytest.mark.skipif(_kernels.backend_name() != "c", reason="C kernel not built")
def test_kernel_refuses_a_chunk_past_the_arrays():
    x, w, y, e = np.ones(16), np.zeros(4), np.zeros(16), np.zeros(16)
    with pytest.raises(ValueError, match="outside"):
        _kernels.adapt_chunk(x, x, x, np.ones(2), w, y, e, 8, 17, 0.01, 0.0, False, 1e-8)


_PROBE = """\
import sys
from hushkit import _kernels
from hushkit.cli import main
if len(sys.argv) > 1:
    code = main(sys.argv[1:])
    assert code == 0, code
print(_kernels.backend_name())
"""


def _probe(cache, path_env, *argv, code=_PROBE):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=path_env,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_kernel_is_cached_and_reused_without_a_compiler(tmp_path):
    assert _probe(tmp_path, os.environ.get("PATH", "")) == "c"
    cached = list((tmp_path / "hushkit").iterdir())
    assert len(cached) == 1 and cached[0].suffix == ".so"
    assert (tmp_path / "hushkit").stat().st_mode & 0o777 == 0o700
    assert _probe(tmp_path, "") == "c"
    assert list((tmp_path / "hushkit").iterdir()) == cached


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_a_cache_other_users_can_write_is_never_used(tmp_path):
    shared = tmp_path / "hushkit"
    shared.mkdir()
    shared.chmod(0o777)
    assert _probe(tmp_path, os.environ.get("PATH", "")) == "c"
    assert list(shared.iterdir()) == []


def test_without_a_compiler_the_numpy_kernel_gives_the_golden_report(tmp_path):
    # anc_broadband's stimulus and both its paths come from fir_numpy
    for case in ("anc_tone_2tap", "anc_broadband"):
        out = tmp_path / f"{case}.json"
        backend = _probe(tmp_path / "cache", "", "anc", "simulate", "--config",
                         str(ROOT / "configs" / f"{case}.json"), "--format",
                         "json", "--output", str(out))
        assert backend == "numpy"
        assert out.read_bytes() == (ROOT / "tests" / "golden" / f"{case}.json").read_bytes()


def test_a_failing_compiler_leaves_the_cache_empty(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n")
    (bin_dir / "cc").chmod(0o755)
    out = tmp_path / "report.json"
    backend = _probe(tmp_path / "cache", str(bin_dir), "anc", "simulate", "--config",
                     str(ROOT / "configs" / "anc_tone_2tap.json"), "--format",
                     "json", "--output", str(out))
    assert backend == "numpy"
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "anc_tone_2tap.json").read_bytes()
    assert list((tmp_path / "cache" / "hushkit").iterdir()) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_a_cache_it_may_not_write_gets_no_file(tmp_path, monkeypatch):
    # mode bits do not stop root, so the cache is made unwritable by os.access
    access = os.access
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(os, "access", lambda path, mode, **kw:
                        not mode & os.W_OK and access(path, mode, **kw))
    lib = _kernels._load("adapt-test.so")
    assert lib.adapt_chunk
    assert list((tmp_path / "hushkit").iterdir()) == []
    # built in a private temporary directory, already removed
    assert not lib._name.startswith(str(tmp_path)) and not os.path.exists(lib._name)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    done = subprocess.run(["cc", *_kernels._CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-x", "c", "-", "-o", str(tmp_path / "adapt.so")],
                          input=_kernels._C_SOURCE, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


# Every array lies between two PROT_NONE pages, and each run goes twice: with
# the arrays ending where the page after them begins, so that a read or write
# one past the last sample kills the process, then starting where the page
# before them ends, so that one before the first sample does.
_GUARD_PAGES = """\
import ctypes, itertools, mmap
import numpy as np
from hushkit import _kernels

libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)

def guarded(values, first):
    page = mmap.PAGESIZE
    size = -(-8 * len(values) // page) * page
    buf = mmap.mmap(-1, size + 2 * page)
    base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    for at in (base, base + page + size):
        assert libc.mprotect(at, page, 0) == 0, ctypes.get_errno()  # PROT_NONE
    a = np.frombuffer(buf, np.float64, len(values),
                      page if first else page + size - 8 * len(values))
    a[:] = values
    return a

"""

# The kernel under guard pages: the bound on the outputs a chunk's first
# residuals read looks back from the chunk's start. The last call is an empty
# chunk at the end. Each sweep reads x and xf one sample ahead of the sample
# it adapts, but for the chunk's last; the 40-tap path falls by 2^-4 per tap,
# so its sum may stop from tap 16 on. Filters of 1 to 4, 6 and 8 taps, and
# paths of 4, 8 and 40 taps behind 0, 1 or 3 zero taps, leave 0 to 3 taps
# past the last block of four; the weights, held in reverse while a call
# runs, turn about a middle tap (1 and 3 taps), none (2) or an even count of
# them. Chunks that end at the arrays' end start at each offset mod 4.
_GUARDED = _GUARD_PAGES + """\
N = 300
rng = np.random.default_rng(7)
paths = ((8, 0.5 ** np.arange(4)), (4, 0.5 ** np.arange(8)), (6, 16.0 ** -np.arange(40)),
         (1, 0.5 ** np.arange(4)), (2, 0.5 ** np.arange(8)), (3, 16.0 ** -np.arange(40)))
for (L, path), delay, first in itertools.product(paths, (0, 1, 3), (False, True)):
    for normalized in (False, True):
        for leak in (0.0, 1e-3):
            x, xf, d = (guarded(rng.standard_normal(N), first) for _ in range(3))
            sec = guarded(np.concatenate((np.zeros(delay), path)), first)
            w = guarded(np.zeros(L), first)
            y, e = guarded(np.zeros(N), first), guarded(np.zeros(N), first)
            for start, stop in ((0, 1), (1, N // 2), *((N // 2 + i, N) for i in range(4)),
                                (N, N)):
                _kernels.adapt_chunk(x, xf, d, sec, w, y, e, start, stop, 0.01, leak,
                                     normalized, 1e-8)
print(_kernels.backend_name())
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_never_touches_memory_past_a_chunk(tmp_path):
    assert _probe(tmp_path, os.environ.get("PATH", ""), code=_GUARDED) == "c"


# The FIR at each width reads only the n + M - 1 - lead samples of x and
# writes only its n outputs: valid and causal, n below, at and past a block
# (of up to 64 outputs), taps that a block's first outputs reach past.
_FIR_GUARDED = _GUARD_PAGES + """\
rng = np.random.default_rng(11)
fn, top = _kernels._compiled()[1], _kernels.fir_width()
for M, n, first in itertools.product((1, 3, 64, 300), (0, 1, 17, 64, 100, 1000),
                                     (False, True)):
    h = guarded(rng.standard_normal(M), first)
    for lead in sorted({0, M - 1}):
        x = guarded(rng.standard_normal(n + M - 1 - lead), first)
        want = _kernels.fir_numpy(h, x, lead).tobytes()
        for width in (w for w in (2, 4, 8) if w <= top):
            out = guarded(np.zeros(n), first)
            fn(h.ctypes.data, M, x.ctypes.data, n, lead, out.ctypes.data, width)
            assert out.tobytes() == want, (M, n, lead, width)
print(_kernels.backend_name())
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_fir_never_touches_memory_past_its_arrays(tmp_path):
    assert _probe(tmp_path, os.environ.get("PATH", ""), code=_FIR_GUARDED) == "c"


# The random runs and the FIR's widths again, on a build with UBSan that stops
# at its first report: the kernel addresses the weights newest-first, tap j
# at W[-j], and must form no pointer outside the arrays; with no taps it must
# not form w - 1, which UBSan reports off a null w.
_UBSAN = """\
import ctypes, sys
import numpy as np
from hushkit import _kernels
try:
    lib = ctypes.CDLL(sys.argv[1])
except OSError:
    print("cannot load")
    sys.exit()
_kernels._load = lambda name: lib
sys.path.insert(0, sys.argv[2])
import test_kernels
test_kernels.test_kernel_matches_numpy_reference_on_random_runs()
for M in test_kernels.FIR_TAPS:
    test_kernels.test_fir_matches_numpy_at_every_width(M)
x, y, e = np.ones(8), np.zeros(8), np.zeros(8)
_kernels._compiled()[0](x.ctypes.data, x.ctypes.data, x.ctypes.data, x.ctypes.data, 8, None,
                        0, y.ctypes.data, e.ctypes.data, 0, 8, 0.1, 1e-3, 1, 1e-8)
assert not y.any() and (e == 1.0).all()
print(_kernels.backend_name())
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_runs_clean_under_ubsan(tmp_path):
    lib = tmp_path / "adapt-ubsan.so"
    done = subprocess.run(["cc", *_kernels._CFLAGS, "-fsanitize=undefined",
                           "-fno-sanitize-recover=all", "-x", "c", "-", "-o", str(lib)],
                          input=_kernels._C_SOURCE, capture_output=True, timeout=120)
    if done.returncode != 0:
        pytest.skip("cc cannot build with UBSan")
    backend = _probe(tmp_path, os.environ.get("PATH", ""), str(lib), str(ROOT / "tests"),
                     code=_UBSAN)
    if backend == "cannot load":
        pytest.skip("a UBSan build does not load through ctypes")
    assert backend == "c"
