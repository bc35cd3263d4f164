"""A fixed reference computation that measures how fast the host runs now.

The shared 2-core host the benchmark was written on changes speed by up
to 2x over seconds to minutes (other tenants; steal time stays near 0).
Raw wall times then differ between runs of the same code by more than
any useful regression bound. So each run also times this kernel after
every op (and after each set-up), and reports every time scaled by

    (NOMINAL_S / kernel median) ** EXPONENT

An op's kernel median is taken over the ``2 * HALF_WINDOW + 1`` kernel
runs nearest to it (about a second of ops), so that an op is scaled by
the speed of the host while it ran, and a pass that straddles a fast and
a slow phase keeps a steady tail as well as a steady median.

The kernel mixes the primitives the samplers spend their time in:
seeded generator construction with a cumulative-sum search, log-domain
reductions over small numpy arrays, and string slicing with dict memos.
It imports nothing from ``ensmc``. What an op leaves behind could
still reach it: garbage that triggers a collection, or a loopback
handler thread that is still closing its connection. So the collector
is paused while the kernel runs, and after an op the kernel runs twice
(``after_op``): the first run takes whatever the op left behind, and
only the second one is the yardstick. The ratio of the two is reported
(``calib.after_op_ratio``) to show that the op's leftovers do not move
the yardstick.

``EXPONENT`` is measured, not chosen. When the host slows down, the
kernel slows down more than the ops do. Over several minutes of 10 s
windows, the slope of log op time on log kernel time was 0.40 to 0.78
across the four workloads, with a mean near 0.6. A full scaling
(exponent 1) would over-correct the workloads that have the lowest
slope.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

#: Kernel time at which scaled and wall-clock times agree: about the
#: median kernel time on the host above (3.7 ms over 80 runs of 25 s,
#: quartiles 3.5 and 3.9 ms, for the first run after an op; the
#: yardstick run is 1-5 % faster).
NOMINAL_S = 0.0036
EXPONENT = 0.6
HALF_WINDOW = 5


def _draws(n: int) -> float:
    probs = np.linspace(1.0, 2.0, 9)
    probs /= probs.sum()
    total = 0.0
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i % 7, i)))
        cum = np.cumsum(probs)
        total += float(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return total


def _reductions(n: int) -> float:
    row = np.log(np.linspace(0.1, 1.0, 7))
    mat = np.full((3, 7), -np.inf)
    total = 0.0
    for i in range(n):
        mat[i % 3] = row + i * 1e-3
        top = mat.max(axis=0)
        col = top + np.log(np.exp(mat - top).sum(axis=0))
        total += float(np.exp(col - col.max()).sum())
        total += float(np.isneginf(mat).all()) + float(np.concatenate([row[:3], col[3:]])[i % 7])
    return total


def _memo(n: int) -> int:
    memo: dict[str, int] = {}
    x = ""
    total = 0
    for i in range(n):
        x = (x + "abcdefg"[i % 7])[-8:]
        memo[x] = memo.get(x, 0) + i
        total += len(x) * 3 % 5
    return total


def time_kernel() -> float:
    """Wall time of one kernel run (about 3 ms), with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _draws(32)
        _reductions(46)
        _memo(2000)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def after_op() -> tuple[float, float]:
    """Two kernel runs right after an op: (first, yardstick)."""
    first = time_kernel()
    return first, time_kernel()


def factor(samples: list[float]) -> float:
    """Multiplier from wall seconds to scaled seconds, for a whole run."""
    return (NOMINAL_S / statistics.median(samples)) ** EXPONENT


def scaled(times: list[float], kernel: list[float]) -> np.ndarray:
    """Each op's wall time, scaled by the kernel runs nearest to it.

    ``kernel[i]`` is the kernel run right after op ``i``.
    """
    k = np.asarray(kernel)
    out = np.empty(len(times))
    for i, t in enumerate(times):
        near = k[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
        out[i] = t * (NOMINAL_S / float(np.median(near))) ** EXPONENT
    return out
