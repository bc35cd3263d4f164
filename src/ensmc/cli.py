"""Command-line interface.

Subcommands::

    ensmc sample CONFIG [--out RECORDS.jsonl] [--method M ...] [--seed N]
                        [--particles N]       run samplers, emit JSONL records
    ensmc enumerate CONFIG [--out TABLE.tsv]  exact enumeration of the target
    ensmc check CONFIG [--rel-tol R]          sampler vs. enumeration agreement
    ensmc intersect CONFIG [--top N]          product-ensemble concentration demo
    ensmc report RECORDS.jsonl                summarize emitted records

Exit codes: 0 success; 1 a requested check failed (agreement outside
tolerance); 2 trouble — usage or operational errors (bad config,
unreachable expert, enumeration budget, malformed input) or degenerate
runs present in a ``sample`` batch (records still written, with
``error`` fields).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .config import build_panel, load_config
from .errors import EnsmcError
from .metrics import compare_to_oracle, intersection_report
from .oracle import dump_table, enumerate_ensemble
from .runner import read_records, run_experiment, summarize_records
from .inference import smc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensmc",
        description="Compose sequence models with a mean-family operator and "
        "sample or enumerate the induced string distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run the configured sampling methods")
    p.add_argument("config")
    p.add_argument("--out", help="write JSONL here instead of stdout")
    p.add_argument("--method", action="append", dest="methods",
                   choices=("smc", "sis", "is", "local"),
                   help="override the config's methods (repeatable)")
    p.add_argument("--seed", type=int, help="override the sampler seed")
    p.add_argument("--particles", type=int, help="override the particle count")

    p = sub.add_parser("enumerate", help="exact target by level-order enumeration")
    p.add_argument("config")
    p.add_argument("--out", help="write the table as TSV here")

    p = sub.add_parser("check", help="compare the sampler against enumeration")
    p.add_argument("config")
    p.add_argument("--rel-tol", type=float, default=0.05,
                   help="maximum |Z_hat - Z| / Z (default 0.05)")

    p = sub.add_parser("intersect", help="product-ensemble concentration report")
    p.add_argument("config")
    p.add_argument("--top", type=int, default=5)

    p = sub.add_parser("report", help="summarize a JSONL record file")
    p.add_argument("records")
    return parser


def _cmd_sample(args) -> int:
    config = load_config(args.config)
    given = {"seed": args.seed, "particles": args.particles}
    sampler = replace(config.sampler, **{k: v for k, v in given.items() if v is not None})
    config = replace(config, methods=tuple(args.methods or config.methods), sampler=sampler)
    records = run_experiment(config, out=args.out)
    if args.out is None:
        for rec in records:
            print(json.dumps(rec, allow_nan=False))
    else:
        print(f"wrote {len(records)} records to {args.out}")
    degenerate = sum(1 for rec in records if "error" in rec)
    if degenerate:
        print(f"{degenerate} degenerate runs (see 'error' fields)", file=sys.stderr)
        return 2
    return 0


def _cmd_enumerate(args) -> int:
    config = load_config(args.config)
    panel, spec = build_panel(config)
    table = enumerate_ensemble(spec, panel, **config.oracle_limits())
    if args.out:
        dump_table(table, args.out)
    z = float(np.exp(table.log_z))
    residual = (
        "0" if table.is_complete else repr(float(np.exp(table.log_residual_bound)))
    )
    print(
        f"strings={len(table.strings)} Z={z!r} residual<={residual} "
        f"nodes={table.nodes_visited}"
    )
    return 0


def _cmd_check(args) -> int:
    if not args.rel_tol >= 0.0:  # NaN too, which every agreement would fail
        raise ValueError(f"--rel-tol must be a non-negative number, got {args.rel_tol}")
    config = load_config(args.config)
    panel, spec = build_panel(config)
    table = enumerate_ensemble(spec, panel, **config.oracle_limits())
    estimate = smc(spec, panel, config.sampler)
    report = compare_to_oracle(estimate, table)
    print(json.dumps(report, allow_nan=False))
    rel = report["rel_error"]
    if rel is None:
        ok = report["z_hat"] == 0.0 and report["z"] == 0.0
    else:
        ok = rel <= args.rel_tol
    if not ok:
        print(
            f"check failed: relative normalizer error {rel!r} "
            f"exceeds {args.rel_tol}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_intersect(args) -> int:
    config = load_config(args.config)
    if config.predicate is None:
        raise EnsmcError("intersect needs a 'predicate' in the config")
    panel, spec = build_panel(config)
    report = intersection_report(
        panel, config.predicate, weights=spec.weights, top=args.top, **config.oracle_limits()
    )
    print(json.dumps(report, allow_nan=False))
    return 0


def _cmd_report(args) -> int:
    records = read_records(args.records)
    print(json.dumps(summarize_records(records), allow_nan=False))
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "enumerate": _cmd_enumerate,
    "check": _cmd_check,
    "intersect": _cmd_intersect,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EnsmcError, ValueError, OSError, KeyError) as exc:
        print(f"ensmc {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
