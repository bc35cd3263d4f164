"""Run configured experiments and emit one JSON record per run.

Records are JSON Lines: each line is a self-contained object with
``schema_version`` first. Non-finite numbers are never emitted: log
values that would be infinite (zero mass) are written as null, so every
line is strict JSON.
``wall_time_s`` is informational and excluded from any determinism
guarantee; everything else in a record is a pure function of the config.
Runs that end with zero total mass carry ``"log_z_hat": null`` plus an
``error`` note and do not abort the batch.
"""
from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, _Fields, build_panel, strict_json
from .errors import DeadPrefixError, DegenerateRunError
from .inference import (
    importance_sample,
    local_sample,
    make_proposal,
    make_shaping,
    sis,
    smc,
)
from .logtools import LOG_ZERO
from .metrics import empirical_distribution, expected_accuracy
from .oracle import enumerate_ensemble

SCHEMA_VERSION = 1


def _describe_operator(spec) -> dict:
    out = {"kind": spec.kind}
    if spec.tau is not None:
        out["tau"] = spec.tau
    return out


def _finite_or_none(value: float | None):
    if value is None or not np.isfinite(value):
        return None
    return float(value)


def _sampler_records(config: ExperimentConfig, panel, spec) -> list[dict]:
    """The records of every (method, repeat) sampler cell. The shaping and
    the last estimate die on return, so an oracle run after this does not
    hold the samplers' prefix nodes."""
    # One shaping per experiment: its prefix nodes are shared by all runs.
    shaping = make_shaping(spec, panel, config.sampler)
    records: list[dict] = []
    for method in config.methods:
        for rep in range(config.repeats):
            seed = config.sampler.seed + rep
            cfg = replace(config.sampler, seed=seed)
            record = {
                "schema_version": SCHEMA_VERSION,
                "method": method,
                "repeat": rep,
                "seed": seed,
                "particles": cfg.particles,
                "operator": _describe_operator(spec),
                "weights": [float(w) for w in spec.weights],
            }
            t0 = time.perf_counter()
            try:
                if method == "local":
                    draws = local_sample(
                        spec, panel, particles=cfg.particles,
                        max_len=cfg.max_len, seed=seed, shaping=shaping,
                    )
                    record["truncated"] = draws.diagnostics.truncated
                    keys = ("x", "completed", "log_local")
                    columns = (draws.xs, draws.completed.tolist(), draws.log_proposal.tolist())
                    record["draws"] = [dict(zip(keys, draw)) for draw in zip(*columns)]
                    if record["truncated"] == len(draws):
                        record["error"] = "every draw truncated"
                    elif config.predicate is not None:
                        record["accuracy"] = expected_accuracy(
                            empirical_distribution(draws), config.predicate
                        )
                else:
                    if method == "is":
                        est = importance_sample(
                            shaping.log_target, make_proposal(cfg, shaping),
                            cfg.particles, cfg.max_len, seed, prefetch=shaping.prefetch,
                        )
                    else:
                        run = smc if method == "smc" else sis
                        est = run(spec, panel, cfg, shaping=shaping)
                    record["log_z_hat"] = _finite_or_none(est.log_z_hat)
                    if est.log_z_hat == LOG_ZERO:
                        record["error"] = "zero total mass"
                    if method != "is":
                        record["ess_trace"] = [float(e) for e in est.diagnostics.ess_trace]
                        record["resample_rounds"] = list(est.diagnostics.resample_rounds)
                    record["truncated"] = est.diagnostics.truncated
                    if config.predicate is not None and "error" not in record:
                        record["accuracy"] = expected_accuracy(est, config.predicate)
            except (DegenerateRunError, DeadPrefixError) as exc:
                record["error"] = f"degenerate run: {exc}"
            record["wall_time_s"] = time.perf_counter() - t0
            records.append(record)
    return records


def run_experiment(config: ExperimentConfig, out=None) -> list[dict]:
    """Execute every (method, repeat) cell of the config.

    When the config has an ``oracle`` section, one enumeration record is
    appended after the sampler records. ``out`` may be a path or a
    writable text file; records are written as JSON Lines.
    """
    panel, spec = build_panel(config)
    records = _sampler_records(config, panel, spec)
    if config.oracle is not None:
        t0 = time.perf_counter()
        table = enumerate_ensemble(spec, panel, **config.oracle_limits())
        record = {
            "schema_version": SCHEMA_VERSION,
            "method": "oracle",
            "operator": _describe_operator(spec),
            "weights": [float(w) for w in spec.weights],
            "strings": len(table.strings),
            "log_z": _finite_or_none(table.log_z),
            "residual_bound": (
                0.0
                if table.log_residual_bound == LOG_ZERO
                else _finite_or_none(np.exp(table.log_residual_bound))
            ),
        }
        if config.predicate is not None and table.log_z != LOG_ZERO:
            record["accuracy"] = table.expected_accuracy(config.predicate)
        record["wall_time_s"] = time.perf_counter() - t0
        records.append(record)
    if out is not None:
        write_records(records, out)
    return records


def write_records(records: list[dict], out) -> None:
    """Write records as JSON Lines to a path or open text file."""
    if hasattr(out, "write"):
        for rec in records:
            out.write(json.dumps(rec, allow_nan=False) + "\n")
    else:
        with open(Path(out), "w", encoding="utf-8") as fh:
            write_records(records, fh)


def read_records(path) -> list[dict]:
    """Read a JSON Lines file of records, skipping blank lines; the keys
    ``summarize_records`` reads are checked as config keys are, and each
    line must be strict JSON."""
    records = []
    with open(Path(path), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}: line {lineno}"
                read = _Fields(strict_json(line, where), f"{where}: record")
                read("method", "string")
                read("log_z_hat", "number", None)
                read("log_z", "number", None)
                read("accuracy", "number", 0.0)
                read("truncated", "integer", 0)
                records.append(read.obj)
    return records


def summarize_records(records: list[dict]) -> dict:
    """Aggregate a batch of run records per method.

    Normalizer estimates are summarized in linear domain (mean, standard
    error over repeats); zero-mass runs enter the mean as zero.
    """
    by_method: dict[str, list[dict]] = {}
    for rec in records:
        by_method.setdefault(rec["method"], []).append(rec)
    out = {}
    for method, recs in sorted(by_method.items()):
        entry: dict = {"runs": len(recs)}
        if method == "oracle":
            rec = recs[-1]
            entry["z"] = (
                float(np.exp(rec["log_z"])) if rec.get("log_z") is not None else 0.0
            )
            entry["residual_bound"] = rec.get("residual_bound")
            if "accuracy" in rec:
                entry["accuracy"] = rec["accuracy"]
        else:
            zs = [
                np.exp(r["log_z_hat"]) if r.get("log_z_hat") is not None else 0.0
                for r in recs
                if "log_z_hat" in r
            ]
            if zs:
                entry["z_hat_mean"] = float(np.mean(zs))
                entry["z_hat_se"] = (
                    float(np.std(zs, ddof=1) / np.sqrt(len(zs))) if len(zs) > 1 else None
                )
            accs = [r["accuracy"] for r in recs if "accuracy" in r]
            if accs:
                entry["accuracy_mean"] = float(np.mean(accs))
            entry["truncated_total"] = int(sum(r.get("truncated", 0) for r in recs))
            entry["errors"] = sum(1 for r in recs if "error" in r)
        out[method] = entry
    return out
