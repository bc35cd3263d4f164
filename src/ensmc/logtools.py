"""Small log-domain helpers.

Probabilities are kept as natural logs throughout the package; exact zero
is float('-inf'). Two reductions live here: a max-shifted sum of a 1-D
vector, and a weighted sum down the columns of a (K, n) matrix, which
is the one kernel the power operators need.
"""
from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")


def logsumexp(a) -> float:
    """Max-shifted ``log(sum(exp(a)))`` over all of ``a``, as a Python float.

    ``a`` is a 1-D array or a list of floats. An empty or
    all-zero-probability input gives -inf. One term ``t`` gives
    ``float(t) + 0.0``: the general path's ``m + log(exp(m - m))`` is
    exactly that for every finite ``t`` (``-0.0`` becomes ``0.0``), and
    its early return of a non-finite max has the same bits.
    """
    n = len(a)
    if n <= 1:
        return float(a[0]) + 0.0 if n else LOG_ZERO
    arr = np.asarray(a, dtype=float)
    # The ufunc reductions ``arr.max()`` and ``.sum()`` call, without
    # their Python wrappers.
    m = float(np.maximum.reduce(arr, axis=None))
    if not math.isfinite(m):
        # All -inf (sum is zero), a +inf entry, or a nan: in each case
        # the max already equals the reduction.
        return m
    return m + math.log(float(np.add.reduce(np.exp(arr - m), axis=None)))


def weighted_logsumexp_columns(a, w) -> np.ndarray:
    """``log(sum_k w[k] * exp(a[k, j]))`` for each column j of a (K, n) matrix.

    ``w`` holds K nonnegative weights. The steps are those of scipy 1.17's
    real-valued ``logsumexp(a, b=w[:, None], axis=0)``, so the two agree
    to the bit: a zero-weight entry counts as -inf; the entries tied at a
    column's max leave the sum ``s`` and contribute their total weight
    ``m``, giving ``log1p(s / m) + log(m) + max``; a column where that is
    not finite falls back to the direct ``log(sum(w * exp(a)))``.
    """
    a = np.asarray(a, dtype=float)
    b = np.broadcast_to(np.asarray(w, dtype=float)[:, None], a.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log((b * np.exp(a)).sum(axis=0))
        a = a.copy(order="K")  # the memory layout sets the order of the sums
        a[b == 0.0] = LOG_ZERO
        a_max = a.max(axis=0)
        tied = a == a_max
        m = (b * tied).sum(axis=0)
        a[tied] = LOG_ZERO
        s = (b * np.exp(a - a_max)).sum(axis=0)
        s = np.where(s == 0.0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    return np.where(np.isfinite(out), out, direct)


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


__all__ = ["LOG_ZERO", "log_row", "log_normalize", "logsumexp",
           "weighted_logsumexp_columns"]
