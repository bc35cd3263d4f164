"""Where each benchmark op's heap peak falls.

    PYTHONPATH=src python tests/heap_probe.py [--workload W ...] [--seeds 1 2 3]

For every workload in ``bench/workloads.py`` (or those named) and seed,
this runs the ops of the benchmark's heap pass (op seeds ``seed << 20``
plus ``1 << 18`` plus 0..8) as ``bench/worker.py`` runs them: each from
a freshly collected heap under ``tracemalloc``, after two untraced
warm-up ops. It prints each op's traced heap peak, the same figure as
the benchmark's ``op_heap_mb``, and the innermost of these calls the
peak falls in: the stream kernel (``streams._first_doubles``), a
multi-particle group's draw (``inference._draw_group``), resampling
(``inference._resample``), a prefix-node build
(``PrefixPotentialShaping._build``), a bridge batch
(``TokenToByteModel.log_next_many``), a sampler run (``smc``, ``sis``,
``is``, ``local``: the rest of its round loop), the oracle
(``enumerate_ensemble``), the panel build (``runner.build_panel``:
reading and fitting the experts), or elsewhere (the config and the
records). The last line per seed gives the median peak and the call that
most ops peak in. Run by hand; tier-1 does not run it (it checks that
every wrapped call still exists), and nothing is written under
``bench/``.
"""
from __future__ import annotations

import argparse
import collections
import gc
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

import ensmc
from ensmc import bridge, inference, runner, streams
from workload_digest import load_workloads, op_config, workload_config

HEAP_OPS = 9
WARMUP = 2


class PeakSites:
    """Wraps the named calls; at each entry and exit, the traced peak since
    the last one is charged to the innermost wrapped call then open."""

    CALLS = (
        (streams, "_first_doubles", "stream kernel"),
        (inference, "_draw_group", "group draw"),
        (inference, "_resample", "resampling"),
        (inference.PrefixPotentialShaping, "_build", "node build"),
        (bridge.TokenToByteModel, "log_next_many", "bridge batch"),
        (runner, "smc", "smc run"),
        (runner, "sis", "sis run"),
        (runner, "importance_sample", "is run"),
        (runner, "local_sample", "local run"),
        (runner, "enumerate_ensemble", "oracle"),
        (runner, "build_panel", "panel build"),
    )

    def __init__(self):
        self.open: list[str] = []
        self.peak = 0
        self.site = "elsewhere"
        self.saved = []

    def _charge(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.peak:
            self.peak, self.site = peak, self.open[-1] if self.open else "elsewhere"
        tracemalloc.reset_peak()

    def _wrap(self, fn, label):
        def wrapped(*args, **kwargs):
            self._charge()
            self.open.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge()
                self.open.pop()
        return wrapped

    def install(self) -> None:
        for owner, name, label in self.CALLS:
            fn = owner.__dict__.get(name)
            if fn is not None:  # an older checkout may lack some
                self.saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(fn, label))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self.saved):
            setattr(owner, name, fn)
        self.saved.clear()

    def measure(self, op) -> tuple[int, str]:
        """The heap peak of ``op()`` above the heap it starts from, and
        the call it falls in."""
        gc.collect()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        self.peak, self.site = 0, "elsewhere"
        op()
        self._charge()
        return self.peak - start, self.site


def probe(workloads, name: str, seed: int) -> None:
    sites = PeakSites()
    with tempfile.TemporaryDirectory() as tmp, \
            workload_config(workloads, name, seed, Path(tmp)) as (config, _):
        first = (seed << 20) + (1 << 18)
        for op in range(WARMUP):
            ensmc.run_experiment(op_config(config, (seed << 20) + op, Path(tmp)))
        peaks, where = [], collections.Counter()
        sites.install()
        tracemalloc.start()
        try:
            for op in range(HEAP_OPS):
                cfg = op_config(config, first + op, Path(tmp))
                peak, site = sites.measure(lambda: ensmc.run_experiment(cfg))
                peaks.append(peak)
                where[site] += 1
                print(f"{name:16} seed {seed} op {op}  peak {peak / 2**20:.4f} MB  in {site}")
        finally:
            tracemalloc.stop()
            sites.uninstall()
    site, count = where.most_common(1)[0]
    print(f"{name:16} seed {seed} median {statistics.median(peaks) / 2**20:.4f} MB"
          f"  peak in {site} in {count} of {HEAP_OPS} ops")


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seeds", nargs="*", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    for name in args.workload:
        for seed in args.seeds:
            probe(workloads, name, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
