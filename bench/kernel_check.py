"""Check that the calibration kernel does not depend on the op before it.

    python3 bench/kernel_check.py

Sets up every workload in one process, pinned to one CPU like a
measuring run. Each round runs one op of each workload, and one arm with
no op, in turn; after each, the kernel runs three times. The arms are
interleaved, so the host's own drift reaches all of them alike. If the
yardstick (the second run, see ``calibrate.after_op``) has the same
median after every workload's ops as with no op, what an op leaves
behind does not move it.
"""
from __future__ import annotations

import os
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NO_OP = "no op"
ROUNDS = 60
SEED = 5


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = worker.OUT / "kernel-check"
    works = {name: worker.Workload(name, SEED, workdir / name) for name in sorted(WORKLOADS)}
    runs: dict[str, list[tuple[float, float, float]]] = {name: [] for name in [*works, NO_OP]}
    try:
        for i in range(ROUNDS):
            for name, rows in runs.items():
                if name != NO_OP:
                    works[name].op(i, None)
                first, yardstick = calibrate.after_op()
                rows.append((first, yardstick, calibrate.time_kernel()))
    finally:
        for work in works.values():
            work.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{'after':16s} {'first ms':>9s} {'yardstick ms':>13s} {'third ms':>9s} "
          f"{'first/yardstick':>16s}")
    for name, rows in runs.items():
        rows = rows[worker.WARMUP:]
        med = [statistics.median(r[j] for r in rows) * 1e3 for j in range(3)]
        ratio = statistics.median(r[0] / r[1] for r in rows)
        print(f"{name:16s} {med[0]:9.3f} {med[1]:13.3f} {med[2]:9.3f} {ratio:16.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
