"""Small log-domain helpers.

Probabilities are kept as natural logs throughout the package; exact zero
is float('-inf'). Plain 1-D sums of log values use the local max-shifted
reduction below (scipy's logsumexp spends most of its time on dispatch
overhead at the few-element row sizes this package works with); weighted
and axis reductions delegate to scipy.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp as _logsumexp_nd

LOG_ZERO = float("-inf")


def logsumexp(a, axis=None, b=None):
    """Max-shifted ``log(sum(exp(a)))``; a Python float for plain 1-D input.

    With ``axis`` or weights ``b`` this defers to scipy and keeps its
    semantics. The fast path computes the identical shifted reduction:
    an empty or all-zero-probability input gives -inf.
    """
    if axis is None and b is None:
        arr = np.asarray(a, dtype=float)
        if arr.ndim == 1:
            if not arr.size:
                return LOG_ZERO
            m = float(arr.max())
            if not math.isfinite(m):
                # All -inf (sum is zero), a +inf entry, or a nan: in each
                # case the max already equals the reduction.
                return m
            return m + math.log(float(np.exp(arr - m).sum()))
    return _logsumexp_nd(a, axis=axis, b=b)


def log_row(probs) -> np.ndarray:
    """Elementwise safe log of a linear-domain vector."""
    probs = np.asarray(probs, dtype=float)
    if (probs < 0.0).any():
        raise ValueError("negative entry in probability vector")
    with np.errstate(divide="ignore"):
        return np.log(probs)


def log_normalize(logs: np.ndarray) -> np.ndarray:
    """Shift a log-domain vector so it sums to 1 in linear domain."""
    total = logsumexp(logs)
    if total == LOG_ZERO:
        raise ValueError("cannot normalize an all-zero vector")
    return logs - total


__all__ = ["LOG_ZERO", "log_row", "log_normalize", "logsumexp"]
