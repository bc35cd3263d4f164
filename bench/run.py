"""The ensmc benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload table-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it runs an untraced and a traced pass
(half the time each) and reports the per-layer metrics. Every op's
output is checked. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Set-up (importing ``ensmc``, writing the inputs, starting the loopback
server) is measured in ``SETUPS`` fresh processes, the last of which is
the measuring process itself; ``setup_s`` is their median.

Every time is wall time scaled by how fast a fixed calibration kernel ran
in the same process (``bench/calibrate.py``), which cancels most of the
host's own speed drift between runs. The wall-clock medians are printed
on the human-readable lines.

Exits 2 without a result when the checkout has no ``src/ensmc`` to
measure, and 1 when a worker process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170
#: Fresh processes that set up per run; ``setup_s`` is their median.
SETUPS = 4

# Units of everything reported, by metric name.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "particles_per_s": "1/s",
    "op_heap_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_reuse", "_frac")):
        return "fraction"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One caller, one busy thread: keep numerical libraries from adding pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str]) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed ({proc.returncode}): {' '.join(args)}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ensmc benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="timed ops per pass (smoke runs)")
    args = ap.parse_args(argv)
    if not (SRC / "ensmc" / "__init__.py").is_file():
        print(f"no package to measure: {SRC / 'ensmc'} is missing", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [run_worker(common + ["--setup-only"])["setup"] for _ in range(SETUPS - 1)]
    extra = ["--ops", str(args.ops)] if args.ops is not None else []
    summary = run_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    )
    setups.append(summary["setup"])
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}

    info = summary["machine"]
    print(f"# workload {args.workload}  seed {args.seed}  inputs {summary['inputs_sha256']}")
    print("# machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    e2e = summary["end_to_end"]
    e2e["setup_s"] = setup["setup_s"]
    attempted, failed = summary["attempted"], summary["failed"]
    for problem in summary["problems"][:10]:
        print(f"# FAILED CHECK {problem}")

    if args.trace:
        layers = summary["layers"]
        for part in ("import_s", "inputs_s", "server_start_s"):
            layers[f"setup.{part}"] = setup[part]
        layers["fail_frac"] = failed / attempted
        for name in sorted(layers):
            print(f"{name:40s} {layers[name]:14.6g} {layer_unit(name)}")
        selfs = {n: v for n, v in layers.items() if n.endswith(".self_s") or n in (
            "lmcore.draw_index_s", "toy.log_next_s", "remote.wait_s", "remote.server_s",
            "ensemble.combine_columns_s", "inference.ess_s")}
        print("# self time per op, largest first: " + ", ".join(
            f"{n} {v * 1e3:.2f} ms" for n, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        print(f"{'setup_s':18s} {e2e['setup_s']:.4f} s (median of {len(setups)} set-ups; "
              f"{setup['wall_setup_s']:.4f} s wall)")
        print(f"{'op_s_p50':18s} {e2e['op_s_p50']:.5f} s ({e2e['wall_op_s_p50']:.5f} s wall; "
              f"calibration kernel {e2e['kernel_s'] * 1e3:.3f} ms, "
              f"{e2e['after_op_ratio']:.3f} right after an op)")
        print(f"{'op_s_p90':18s} {e2e['op_s_p90']:.5f} s "
              f"({e2e['ops']} timed ops, {e2e['op_s_p90_beyond']} beyond p90)")
        print(f"{'particles_per_s':18s} {e2e['particles_per_s']:.1f} 1/s")
        print(f"{'op_heap_mb':18s} {e2e['op_heap_mb']:.3f} MB (median of {e2e['heap_ops']} ops; "
              f"process peak RSS {e2e['peak_rss_mb']:.1f} MB)")
        print(f"{'fail_frac':18s} {failed / attempted:.4g} fraction ({failed}/{attempted} ops)")
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END_UNITS.items()}

    result = {
        "correct": not summary["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
