"""In-process A/B timing of two checkouts on one benchmark workload.

    PYTHONPATH=src python tests/ab_probe.py A B [--workload W] [--seed N] [--pairs P]

``A`` and ``B`` are checkout roots. Each one's ``src/ensmc`` is imported
under a name of its own (``ensmc_a``, ``ensmc_b``), so both run in one
process on the same inputs: the workload's config for the seed from
``bench/workloads.py``, with its files written once to a temporary
directory; a served workload gets one loopback server per side, each
built by that side's package. Op ``i`` runs op seed ``seed << 20`` plus
``i`` on both sides, as ``bench/worker.py`` numbers its ops; the first
two of them are warm-up and not timed, and each later one is a pair:
A runs first in even pairs, B in odd ones. The two sides' records of
every op, dumped as JSON without ``wall_time_s``, must be equal, or the
script stops and names the op. It prints each side's median op time,
the median over pairs of B's time relative to A's, and the pairs B won.
The process is pinned to one CPU, as ``bench/worker.py`` pins itself.
Run by hand; tier-1 runs it on two pairs of one checkout against itself.
Nothing is written under ``bench/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workload_digest import load_workloads, op_config, workload_config

WARMUP = 2


def load_package(root: Path, name: str):
    """The ``src/ensmc`` package of checkout ``root``, imported as ``name``."""
    init = root / "src" / "ensmc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its relative imports look the package up
    spec.loader.exec_module(module)
    return module


def dumped(records: list[dict]) -> list[str]:
    """Each record as JSON, without its timing field."""
    return [json.dumps({k: v for k, v in rec.items() if k != "wall_time_s"}, allow_nan=False)
            for rec in records]


def compare(roots: dict[str, Path], name: str, seed: int, pairs: int) -> dict[str, list[float]]:
    """Run ``WARMUP + pairs`` ops on every side, checking that their records
    agree, and return each side's op times of the timed pairs."""
    workloads = load_workloads()
    first_op = seed << 20
    times: dict[str, list[float]] = {label: [] for label in roots}
    with contextlib.ExitStack() as stack:
        sides = {}
        for label, root in roots.items():
            pkg = load_package(root, f"ensmc_{label.lower()}")
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            config, _ = stack.enter_context(workload_config(workloads, name, seed, workdir, pkg))
            sides[label] = pkg, config, workdir
        labels = list(sides)
        for i in range(WARMUP + pairs):
            op_seed = first_op + i
            seen = {}
            for label in labels if i % 2 == 0 else labels[::-1]:
                pkg, config, workdir = sides[label]
                cfg = op_config(config, op_seed, workdir, pkg)
                t0 = time.perf_counter()
                records = pkg.run_experiment(cfg)
                dt = time.perf_counter() - t0
                if i >= WARMUP:
                    times[label].append(dt)
                seen[label] = dumped(records)
            if len({tuple(recs) for recs in seen.values()}) != 1:
                raise RuntimeError(f"{name} seed {seed}: records of op seed {op_seed} differ")
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="checkout root of side A (the parent)")
    ap.add_argument("b", type=Path, help="checkout root of side B (the change)")
    ap.add_argument("--workload", default="ngram-long", choices=list(load_workloads().WORKLOADS))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=100)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    times = compare({"A": args.a.resolve(), "B": args.b.resolve()},
                    args.workload, args.seed, args.pairs)
    a, b = times["A"], times["B"]
    for label, root in (("A", args.a), ("B", args.b)):
        print(f"{label} {root}  p50 {statistics.median(times[label]) * 1e3:.3f} ms")
    paired = statistics.median(tb / ta - 1.0 for ta, tb in zip(a, b))
    won = sum(tb < ta for ta, tb in zip(a, b))
    print(f"{args.workload} seed {args.seed}: B/A - 1 paired median {paired * 100:+.1f} %,"
          f" B faster in {won} of {len(a)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
