"""The adaptive kernel against its numpy reference, and how it is built.

``adapt_chunk`` must give the same bytes as ``adapt_chunk_numpy`` whichever
backend runs; the subprocess tests pin the compile-once cache and the numpy
fallback without a working compiler, and the build tests pin that a cache
it cannot use is left untouched.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hushkit import _kernels

ROOT = Path(__file__).resolve().parent.parent
N = 5000
CHUNK = 2000


def _run_kernel(kernel, algorithm, leak, L, M, unstable):
    rng = np.random.default_rng(1000 * L + M)
    x = rng.standard_normal(N)
    # secondary path: unit first tap, decaying taps of random sign
    sec = 0.5 ** np.arange(M) * rng.choice((-1.0, 1.0), M)
    sec[0] = 1.0
    d = np.convolve(x, 0.7 ** np.arange(24))[:N]
    xf = np.convolve(x, sec)[:N] if algorithm == "FXLMS" else x
    if algorithm == "NLMS":
        mu = 4.0 if unstable else 0.1
    else:
        mu = (4.0 if unstable else 0.01) / L
    w, y, e = np.zeros(L), np.zeros(N), np.zeros(N)
    with np.errstate(all="ignore"):
        for start in range(0, N, CHUNK):
            kernel(x, xf, d, sec, w, y, e, start, min(start + CHUNK, N), mu, leak,
                   algorithm == "NLMS", 1e-8)
    return w, y, e


@pytest.mark.parametrize("unstable", [False, True], ids=["stable", "diverging"])
@pytest.mark.parametrize("L, M", [(1, 1), (8, 16), (64, 32), (256, 512)])
@pytest.mark.parametrize("leak", [0.0, 1e-3])
@pytest.mark.parametrize("algorithm", ["LMS", "NLMS", "FXLMS"])
def test_kernel_matches_numpy_reference_bit_for_bit(algorithm, leak, L, M, unstable):
    got = _run_kernel(_kernels.adapt_chunk, algorithm, leak, L, M, unstable)
    want = _run_kernel(_kernels.adapt_chunk_numpy, algorithm, leak, L, M, unstable)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
        assert a.tobytes() == b.tobytes()
    e = want[2]
    with np.errstate(all="ignore"):
        blew_up = not np.isfinite(e).all() or np.abs(e).max() > 1e100
    assert blew_up == unstable


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


def _probe(cache, path_env, *argv):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=path_env,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
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
    out = tmp_path / "report.json"
    backend = _probe(tmp_path / "cache", "", "anc", "simulate", "--config",
                     str(ROOT / "configs" / "anc_tone_2tap.json"), "--format",
                     "json", "--output", str(out))
    assert backend == "numpy"
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "anc_tone_2tap.json").read_bytes()


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
