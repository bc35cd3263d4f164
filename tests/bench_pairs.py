"""Alternating benchmark runs of two checkouts, summarized per metric.

    python3 tests/bench_pairs.py PARENT CHANGE [--workload W ...] [--seed N] [--pairs 10]

``PARENT`` and ``CHANGE`` are checkout roots; fresh ``git archive`` copies
of two commits keep both in the same bytecode state. For each workload
(every one ``BENCHMARK.json`` lists when none is named) and each pair, it
runs ``python3 bench/run.py --workload W --seed N --seconds 18 --trace 0``
in each checkout, the parent first in even pairs and the change first in
odd ones, and reads the JSON object on the last line of each run's output.
It then prints, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and spread, ``(q3 - q1) / median``, and the pairs the
change won (by the metric's ``better``). A metric is ``unresolved`` when
either side's spread exceeds the metric's bound: the runs spread too
widely to tell the sides apart. A last line per workload counts failed
ops on each side.
Run by hand; tier-1 feeds :func:`summarize` canned result lines and runs
no benchmark. Nothing is written under ``bench/`` beyond what
``bench/run.py`` itself writes in each checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 18
#: Longest one ``bench/run.py`` run may take: its set-ups and its timed
#: pass, which stops at three times ``SECONDS``.
RUN_TIMEOUT_S = 600


def read_result(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` run's output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run in checkout ``root``, with no inherited
    ``PYTHONPATH``: the run imports the checkout's own ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return read_result(done.stdout)


def spread(values: list[float]) -> tuple[float, float]:
    """The median of ``values`` and ``(q3 - q1) / median`` (inclusive
    quartiles); a single value has no spread."""
    p50 = statistics.median(values)
    if len(values) < 2:
        return p50, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return p50, (q3 - q1) / p50 if p50 else 0.0


def summarize(pairs: dict[str, list[tuple[dict, dict]]], end_to_end: list[dict]) -> list[str]:
    """The summary lines of ``pairs``: per workload, its ``(parent,
    change)`` results in pair order; ``end_to_end`` is ``BENCHMARK.json``'s
    list of metrics, each with its ``better`` and ``bound``."""
    lines = []
    for workload, results in pairs.items():
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            values = [[side["metrics"][name]["value"] for side in pair] for pair in results]
            parent, change = zip(*values)
            (p_med, p_spread), (c_med, c_spread) = spread(list(parent)), spread(list(change))
            won = sum(sign * (c - p) < 0 for p, c in values)
            line = (f"{workload} {name}: parent {p_med:.6g} (spread {p_spread:.3f})"
                    f" change {c_med:.6g} (spread {c_spread:.3f})"
                    f" change won {won}/{len(values)}")
            if max(p_spread, c_spread) > bound:
                line += " unresolved"
            lines.append(line)
        failed = [sum(pair[i]["failed"] for pair in results) for i in (0, 1)]
        attempted = [sum(pair[i]["attempted"] for pair in results) for i in (0, 1)]
        lines.append(f"{workload} failed ops: parent {failed[0]}/{attempted[0]}"
                     f" change {failed[1]}/{attempted[1]}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout root of the parent")
    ap.add_argument("change", type=Path, help="checkout root of the change")
    ap.add_argument("--workload", nargs="+", dest="workloads",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="the workloads to run (default every one)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        pairs[workload] = []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            got = {side: run_once(roots[side], workload, args.seed) for side in order}
            pairs[workload].append((got[0], got[1]))
            print(f"# {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    for line in summarize(pairs, spec["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
