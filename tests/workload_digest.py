"""A sha256 of each benchmark workload's records, to compare commits.

    PYTHONPATH=src python tests/workload_digest.py

For every workload in ``bench/workloads.py``, seeds 1-3, this runs the
ops the benchmark's timed pass starts with (op seeds ``seed << 20`` plus
0..5), as ``bench/worker.py`` runs them: the generated config with the
sampler seed replaced by the op seed, over inputs written to a temporary
directory. Each record is dumped as JSON without ``wall_time_s``, and one
digest covers a workload's records in order. For ``remote-loopback`` the
line also gives ``RemoteModel.requests`` per op (HTTP requests sent,
retries included) and the rows served per op (the served model's
``log_next`` calls, counted on the server side). Two checkouts whose
records agree byte for byte print the same lines. :func:`digest_lines`
returns them; ``tests/golden/workloads.txt`` pins them, checked by
``tests/test_golden.py``. Nothing is written under ``bench/``.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import ensmc
from ensmc import runner

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)
OPS = 6


def load_workloads():
    """``bench/workloads.py`` as a module, leaving no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


class CountingModel(ensmc.SequenceModel):
    """A served model that counts the rows it serves."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.rows = 0

    def log_next(self, context):
        self.rows += 1
        return self.inner.log_next(context)


@contextlib.contextmanager
def workload_config(workloads, name: str, seed: int, workdir: Path, pkg=ensmc):
    """One seed's config, as ``bench/worker.py`` sets it up: inputs written
    to ``workdir`` and, for a served workload, a loopback server of
    package ``pkg`` started (and stopped on exit). Yields the config and
    the served model."""
    inputs = workloads.WORKLOADS[name](seed)
    inputs.write(workdir)
    config = inputs.config
    if inputs.served_corpus is None:
        yield config, None
        return
    served = CountingModel(pkg.fit_ngram(
        inputs.served_corpus, order=inputs.served_order,
        smoothing=inputs.served_smoothing, alphabet=pkg.Alphabet(tuple(config["alphabet"])),
    ))
    server = pkg.ModelServer(served).start()
    try:
        yield json.loads(json.dumps(config).replace(workloads.SERVER_URL, server.url)), served
    finally:
        server.stop()


def op_config(config: dict, op_seed: int, workdir: Path, pkg=ensmc):
    """The config of one op, read by package ``pkg``: ``config`` with the
    sampler seed replaced."""
    cfg = dict(config, sampler=dict(config["sampler"], seed=op_seed))
    return pkg.config_from_dict(cfg, workdir)


def workload_records(workloads, name: str, seed: int, workdir: Path, panels: list):
    """The records of one seed's ops, the remote requests they sent and the
    rows the server served."""
    records, requests = [], 0
    with workload_config(workloads, name, seed, workdir) as (config, served):
        for op in range(OPS):
            panels.clear()
            records += ensmc.run_experiment(op_config(config, (seed << 20) + op, workdir))
            requests += sum(getattr(model, "requests", 0) for panel in panels for model in panel)
    return records, requests, served.rows if served is not None else 0


def digest_lines() -> list[str]:
    """One line per workload: its record count and digest, and for a
    served workload the requests and served rows per op."""
    workloads = load_workloads()
    lines = []
    panels: list = []
    build_panel = runner.build_panel

    def recording_build_panel(config):
        panel, spec = build_panel(config)
        panels.append(panel)
        return panel, spec

    runner.build_panel = recording_build_panel
    try:
        for name in workloads.WORKLOADS:
            digest, requests, rows, ops, count = hashlib.sha256(), 0, 0, 0, 0
            for seed in SEEDS:
                with tempfile.TemporaryDirectory() as tmp:
                    records, sent, served = workload_records(
                        workloads, name, seed, Path(tmp), panels
                    )
                for rec in records:
                    rec.pop("wall_time_s", None)
                    digest.update(json.dumps(rec, allow_nan=False).encode() + b"\n")
                requests += sent
                rows += served
                ops += OPS
                count += len(records)
            line = f"{name:16} {count:3d} records  sha256 {digest.hexdigest()}"
            if requests:
                line += f"  requests/op {requests / ops:.2f}  rows/op {rows / ops:.2f}"
            lines.append(line)
    finally:
        runner.build_panel = build_panel
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
