"""One workload's set-up and passes, in a process of its own.

Run by ``run.py``; the last line of standard output is a JSON summary.
With ``--setup-only`` the process sets up (imports ``ensmc``, writes the
inputs, starts the loopback server where the workload has one), tears
down and reports the set-up times only.

The load is a closed loop with one caller: the next op starts only
after the previous one returns. An op is
``ensmc.run_experiment(ensmc.config_from_dict(cfg, base_dir))`` with the
op's own sampler seed. The first ``WARMUP`` ops of a pass fill lazy
state (imports inside numpy/scipy, allocator pools) and are checked but
not timed. The calibration kernel runs after every timed op and after
set-up, and every reported time is scaled with it (see ``calibrate``).
After the timed pass, a few more ops run under ``tracemalloc`` to
measure the heap each op needs, each from a freshly collected heap: the
heap an op reaches then depends on the op alone, not on when the
collector last freed the garbage of the ops before it.
"""
from __future__ import annotations

import gc
import time

# ``import ensmc`` comes first, so that its time includes numpy and scipy
# as it does for the command line.
_t0 = time.perf_counter()
import ensmc  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json
import os
import platform
import resource
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import calibrate
import checks
from tracing import RUNNER, Tracer
from workloads import SERVER_URL, WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"
WARMUP = 2
#: A timed pass holds at least this many ops, so 10 lie beyond p90.
MIN_OPS = 100
#: Hard stop for a pass, as a multiple of its time budget.
MAX_STRETCH = 3.0
#: Calibration kernel runs right after set-up.
SETUP_KERNELS = 25
#: Ops run under ``tracemalloc`` after the timed pass (``op_heap_mb``).
#: They run 4-5x slower than untraced ops.
HEAP_OPS = 9


class Workload:
    """Set-up state: the package, the generated inputs, the loopback server."""

    def __init__(self, name: str, seed: int, workdir: Path):
        t1 = time.perf_counter()
        self.inputs = WORKLOADS[name](seed)
        self.inputs.write(workdir)
        t2 = time.perf_counter()
        self.workdir = workdir
        self.config = self.inputs.config
        self.served = self.server = None
        if self.inputs.served_corpus is not None:
            alphabet = ensmc.Alphabet(tuple(self.config["alphabet"]))
            self.served = ensmc.fit_ngram(
                self.inputs.served_corpus, order=self.inputs.served_order,
                smoothing=self.inputs.served_smoothing, alphabet=alphabet,
            )
            self.server = ensmc.ModelServer(self.served).start()
            self.config = json.loads(json.dumps(self.config).replace(SERVER_URL, self.server.url))
        t3 = time.perf_counter()
        self.setup = {
            "import_s": IMPORT_S,
            "inputs_s": t2 - t1,
            "server_start_s": t3 - t2,
            "setup_s": IMPORT_S + t3 - t1,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def op(self, op_seed: int, tracer: Tracer | None):
        cfg = dict(self.config, sampler=dict(self.config["sampler"], seed=op_seed))
        config = ensmc.config_from_dict(cfg, self.workdir)
        if tracer is None:
            return ensmc.run_experiment(config)
        return tracer.span(RUNNER, ensmc.run_experiment, config)


class Pass:
    """Timings, particle counts and check results of one pass."""

    def __init__(self):
        self.times: list[float] = []
        #: Yardstick kernel run after each timed op, and the run before it.
        self.kernel: list[float] = []
        self.kernel_first: list[float] = []
        #: Peak heap growth of each op, in bytes (under ``tracemalloc``).
        self.heap: list[int] = []
        self.particles = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ratios: list[float] = []
        self.records: list[dict] = []


def particles_of(records: list[dict], config: dict) -> int:
    """Particles (or local draws) produced by the sampler runs of one op."""
    return sum(config["sampler"]["particles"] for r in records if r["method"] != "oracle")


def run_pass(work: Workload, first_op: int, seconds: float, min_ops: int,
             ops: int | None, tracer: Tracer | None) -> Pass:
    """Closed loop: run ops until the budget is spent and ``min_ops`` are timed.

    ``ops`` fixes the number of timed ops instead (smoke runs). While
    ``tracemalloc`` traces, each op's peak heap growth is kept too, and
    there is no warm-up: such a pass follows a timed pass.
    """
    result = Pass()
    heap = tracemalloc.is_tracing()
    warmup = 0 if heap else WARMUP
    start = time.perf_counter()
    i = 0
    while True:
        timed = i - warmup
        if timed >= 0:
            elapsed = time.perf_counter() - start
            if ops is not None:
                if timed >= ops:
                    break
            elif (elapsed >= seconds and timed >= min_ops) or elapsed >= MAX_STRETCH * seconds:
                break
        op_id = first_op + i
        if tracer is not None:
            tracer.begin_op(i)
        result.attempted += 1
        if heap:
            gc.collect()
            tracemalloc.reset_peak()
            heap0 = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        try:
            records = work.op(op_id, tracer)
        except Exception as exc:  # any raise fails the op, e.g. the weight check
            problem, ratio, records = f"{type(exc).__name__}: {exc}", None, []
        else:
            problem, ratio = checks.op_problem(records, work.config)
        dt = time.perf_counter() - t0
        if heap:
            result.heap.append(tracemalloc.get_traced_memory()[1] - heap0)
        if tracer is not None:
            tracer.end_op()
        if problem is not None:
            result.failed += 1
            result.problems.append(f"op {op_id}: {problem}")
        if ratio is not None:
            result.ratios.append(ratio)
        if timed >= 0:
            result.times.append(dt)
            first, yardstick = calibrate.after_op()
            result.kernel_first.append(first)
            result.kernel.append(yardstick)
            if problem is None:
                result.particles += particles_of(records, work.config)
        if tracer is not None:
            result.records.extend(records)
        i += 1
    return result


def end_to_end(p: Pass) -> dict:
    """End-to-end figures of an untraced pass, times scaled (see ``calibrate``)."""
    times = calibrate.scaled(p.times, p.kernel)
    p90 = float(np.percentile(times, 90))
    return {
        "op_s_p50": float(np.median(times)),
        "op_s_p90": p90,
        "op_s_p90_beyond": int((times > p90).sum()),
        "ops": len(times),
        "particles_per_s": p.particles / float(times.sum()),
        "wall_op_s_p50": float(np.median(p.times)),
        "kernel_s": float(np.median(p.kernel)),
        "after_op_ratio": float(np.median(np.divide(p.kernel_first, p.kernel))),
    }


def machine_info() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="timed ops per pass (smoke runs)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # One CPU for the caller and the loopback handler threads: a request's
    # hand-off then never waits for a wake-up on the other CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    work = Workload(args.workload, args.seed, OUT / f"inputs-{os.getpid()}")
    try:
        kernel = [calibrate.time_kernel() for _ in range(SETUP_KERNELS)]
        setup = {name: value * calibrate.factor(kernel) for name, value in work.setup.items()}
        setup["wall_setup_s"] = work.setup["setup_s"]
        summary = {"setup": setup, "inputs_sha256": work.inputs.digest(),
                   "machine": machine_info()}
        if args.setup_only:
            print(json.dumps(summary))
            return 0
        # Op seeds come from the benchmark seed; ops of the two passes differ.
        first_op = args.seed << 20
        seconds = args.seconds / 2 if args.trace else args.seconds
        base = run_pass(work, first_op, seconds, MIN_OPS if not args.trace else 10,
                        args.ops, None)
        summary["end_to_end"] = end_to_end(base)
        passes = [base]
        if args.trace:
            tracer = Tracer()
            tracer.install(served=work.served)
            try:
                traced = run_pass(work, first_op + (1 << 19), seconds, 10, args.ops, tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
            scale = calibrate.factor(traced.kernel)
            layers = {
                name: value * scale if name.endswith("_s") else value
                for name, value in tracer.layer_metrics(traced.attempted, traced.records).items()
            }
            layers["trace.ops"] = traced.attempted
            layers["trace.overhead_frac"] = (
                float(np.median(calibrate.scaled(traced.times, traced.kernel)))
                / summary["end_to_end"]["op_s_p50"] - 1.0
            )
            layers["calib.kernel_s"] = float(np.median(traced.kernel))
            layers["calib.after_op_ratio"] = summary["end_to_end"]["after_op_ratio"]
            summary["layers"] = layers
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            tracemalloc.start()
            try:
                heap = run_pass(work, first_op + (1 << 18), 0.0, 0, args.ops or HEAP_OPS, None)
            finally:
                tracemalloc.stop()
            passes.append(heap)
            summary["end_to_end"].update(
                op_heap_mb=float(np.median(heap.heap)) / 2**20,
                heap_ops=len(heap.heap),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        problems = [msg for p in passes for msg in p.problems]
        ratio_problem = checks.ratio_problem([r for p in passes for r in p.ratios])
        if ratio_problem:
            problems.append(ratio_problem)
        if work.server is not None:
            problems += checks.remote_problems(
                ensmc, work.server.url, work.config["alphabet"],
                work.served, work.inputs.probe_strings,
            )
        summary["attempted"] = sum(p.attempted for p in passes)
        summary["failed"] = sum(p.failed for p in passes)
        summary["problems"] = problems
        print(json.dumps(summary))
        return 0
    finally:
        work.close()


if __name__ == "__main__":
    sys.exit(main())
