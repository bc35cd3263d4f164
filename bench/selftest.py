"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

1. Smoke: every workload runs a few ops with tracing off and on, and
   every metric ``BENCHMARK.json`` names comes out with its unit.
2. The output checks are not vacuous: a tampered reference must fail
   them (an oracle Z scaled by 2, a served model with perturbed rows, a
   shaping whose string target is off by 1e-6).
3. Without ``src/ensmc`` next to it, the benchmark exits non-zero and
   prints no result.

Exits 1 on the first failed expectation.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKDIR = worker.OUT / "selftest"


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        raise SystemExit(1)
    print(f"ok: {what}")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(WORKLOADS), "BENCHMARK.json lists every workload")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in sorted(WORKLOADS):
            proc = run_bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--ops", "3")
            if proc.returncode != 0:
                print(proc.stderr)
            expect(proc.returncode == 0, f"{name} trace={trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} result keys")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace} outputs correct")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace} emits every {key} metric with its unit")


def tampered_oracle() -> None:
    work = worker.Workload("table-wide", 0, WORKDIR / "table-wide")
    try:
        records = [work.op(op, None) for op in range(4)]
    finally:
        work.close()
    ratios = []
    for recs in records:
        problem, ratio = checks.op_problem(recs, work.config)
        expect(problem is None, "table-wide op passes its check")
        ratios.append(ratio)
    expect(checks.ratio_problem(ratios) is None, "Z_hat/Z check passes on true Z")
    for recs in records:
        recs[-1]["log_z"] += math.log(2.0)
    doubled = [checks.op_problem(recs, work.config)[1] for recs in records]
    expect(checks.ratio_problem(doubled) is not None, "Z_hat/Z check fails when Z is doubled")
    records[0][-1]["residual_bound"] = 1e-3
    expect(checks.op_problem(records[0], work.config)[0] is not None,
           "oracle check fails on a nonzero residual bound")


def tampered_server() -> None:
    import numpy as np

    work = worker.Workload("remote-loopback", 0, WORKDIR / "remote-loopback")
    try:
        probes = work.inputs.probe_strings
        alphabet = work.config["alphabet"]
        expect(not checks.remote_problems(worker.ensmc, work.server.url, alphabet,
                                          work.served, probes),
               "wire check passes on the served model")
        served = work.served
        bumped = np.log1p(5e-3)

        class Perturbed(type(served)):
            def log_next(self, context):
                row = served.log_next(context).copy()
                row[0] += bumped
                return row

        perturbed = Perturbed(served.alphabet, served.order, served.smoothing, {})
        with worker.ensmc.ModelServer(perturbed) as server:
            problems = checks.remote_problems(worker.ensmc, server.url, alphabet, served, probes)
        expect(bool(problems), "wire check fails when served rows are perturbed")
    finally:
        work.close()


def tampered_weights() -> None:
    from ensmc import inference

    work = worker.Workload("ngram-long", 0, WORKDIR / "ngram-long")
    original = inference.PrefixPotentialShaping.log_target
    inference.PrefixPotentialShaping.log_target = lambda self, x: original(self, x) + 1e-6
    try:
        result = worker.run_pass(work, first_op=0, seconds=0.0, min_ops=0, ops=1, tracer=None)
    finally:
        inference.PrefixPotentialShaping.log_target = original
        work.close()
    expect(result.failed == result.attempted and "AssertionError" in result.problems[0],
           "weight telescoping failure counts the op as failed")


def bare_directory() -> None:
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "table-wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "without src/ensmc the benchmark exits non-zero with no result")


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        tampered_oracle()
        tampered_server()
        tampered_weights()
        bare_directory()
        smoke()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
