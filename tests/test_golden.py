"""Golden records: every config under ``tests/golden/`` must reproduce its
checked-in JSON Lines byte for byte, ``wall_time_s`` aside.

The configs cover a table panel with resampling and the oracle, an
order-3 n-gram panel under all four samplers with weight telescoping
checked, a tokenized expert with the oracle, and the minimum operator
with epsilon-shift shaping (experts die on some prefixes), a table
panel with 1 024 particles (a population large enough for the
vectorised stream derivation) under ``smc``, ``sis`` and ``is``, and a
table panel with an expert proposal under ``is``, ``sis`` and ``local``,
and two tokenized experts with different decode tables over one byte
alphabet (``ab`` is a token of one, ``ba`` of the other) under all four
samplers and the oracle at the samplers' horizon. One config is in the
paper's byte regime: two order-3 n-grams over 189 symbols (U+0021-U+007E
and U+00A1-U+00FF), fit on seeded random corpora, under the minimum
operator with epsilon-shift shaping, 16 particles and strings of up to
64 symbols, so each prefix node holds a shifted row 191 entries wide and
round 64 derives the streams of its few live particles alone.
A change that alters any sampled string, weight, estimate or counter fails
here. ``workloads.txt`` pins the lines of ``tests/workload_digest.py``:
each benchmark workload's record digest, and the requests and served
rows per op of the served one.

The bytes do not depend on the BLAS build: every operator reduces each
column in a fixed order, with no BLAS call. Where numpy uses OpenBLAS on
x86_64, a kernel gate re-runs the byte comparison in child processes
forced onto other CPU kernels (``OPENBLAS_CORETYPE``).

After a deliberate change to what runs compute, regenerate with::

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the files whose bytes changed (``workloads.txt``
included) and prints their names.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ensmc
from ensmc import load_config, run_experiment
from workload_digest import digest_lines

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.json"))


def record_lines(name: str) -> list[str]:
    records = run_experiment(load_config(GOLDEN / f"{name}.json"))
    lines = []
    for rec in records:
        rec.pop("wall_time_s")
        lines.append(json.dumps(rec, allow_nan=False))
    return lines


def test_every_config_has_golden_records():
    assert CONFIGS == [
        "bytes_ngram", "epsilon", "expert", "mismatch", "ngram", "table", "tokenized", "wide"
    ]
    for name in CONFIGS:
        assert (GOLDEN / f"{name}.jsonl").is_file()


@pytest.mark.parametrize("name", CONFIGS)
def test_records_byte_identical(name):
    want = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    got = record_lines(name)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}.jsonl line {i + 1} differs"


def _openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return platform.machine() == "x86_64" and "openblas" in blas.get("name", "").lower()


def test_workload_digests_unchanged():
    want = (GOLDEN / "workloads.txt").read_text(encoding="utf-8").splitlines()
    assert digest_lines() == want


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs numpy on OpenBLAS, x86_64")
def test_records_byte_identical_under_other_blas_kernels():
    """The golden bytes hold whichever kernel OpenBLAS dispatches; the
    kernel is forced in the child's environment only."""
    src = str(Path(ensmc.__file__).resolve().parents[1])
    for core in ("Haswell", "Prescott"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::test_records_byte_identical"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, f"{core}:\n{child.stdout[-3000:]}"


if __name__ == "__main__":
    outputs = [(f"{name}.jsonl", record_lines(name)) for name in CONFIGS]
    outputs.append(("workloads.txt", digest_lines()))
    for filename, lines in outputs:
        path = GOLDEN / filename
        text = "".join(line + "\n" for line in lines)
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
            print(f"rewrote {path.name}")
