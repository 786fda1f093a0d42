"""Adaptive-filter inner loop.

The per-sample adaptation recursion is the only hot spot in the package.
``adapt_chunk`` fills ``y[start:stop]`` and ``e[start:stop]`` in place and
updates the weight vector ``w`` in place:

    y[n] = sum_k w[k] * x[n-k]                      (controller output)
    e[n] = d[n] - sum_m sec[m] * y[n-m]             (residual at the listener)
    g    = mu / (||xf_hist||^2 + eps)  if normalized else  mu
    w   <- (1 - mu*leak) * w + g * e[n] * xf_hist

where ``xf`` is the (possibly secondary-path-filtered) reference signal and
history samples before index 0 are zero. Callers look ``adapt_chunk`` up at
call time, so a faster kernel can replace it; ``adapt_chunk_numpy`` stays the
reference it must agree with.
"""
from __future__ import annotations


def adapt_chunk_numpy(x, xf, d, sec, w, y, e, start, stop, mu, leak, normalized, eps):
    L = w.shape[0]
    M = sec.shape[0]
    decay = 1.0 - mu * leak
    for n in range(start, stop):
        k = min(L, n + 1)
        xw = x[n - k + 1 : n + 1][::-1]
        y[n] = w[:k] @ xw
        m = min(M, n + 1)
        e[n] = d[n] - sec[:m] @ y[n - m + 1 : n + 1][::-1]
        xfw = xf[n - k + 1 : n + 1][::-1]
        if normalized:
            g = mu / ((xfw @ xfw) + eps)
        else:
            g = mu
        if leak != 0.0:
            w *= decay
        w[:k] += (g * e[n]) * xfw


adapt_chunk = adapt_chunk_numpy


def backend_name() -> str:
    """Name of the kernel backend in use."""
    return "numpy"
