"""Golden records: every config under ``tests/golden/`` must reproduce its
checked-in JSON Lines byte for byte, ``wall_time_s`` aside.

The configs cover a table panel with resampling and the oracle, an
order-3 n-gram panel under all four samplers with weight telescoping
checked, a tokenized expert with the oracle, and the minimum operator
with epsilon-shift shaping (experts die on some prefixes). A change that
alters any sampled string, weight, estimate or counter fails here.

After a deliberate change to what runs compute, regenerate with::

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import sys
from pathlib import Path

import pytest

from ensmc import load_config, run_experiment

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
    assert CONFIGS == ["epsilon", "ngram", "table", "tokenized"]
    for name in CONFIGS:
        assert (GOLDEN / f"{name}.jsonl").is_file()


@pytest.mark.parametrize("name", CONFIGS)
def test_records_byte_identical(name):
    want = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    got = record_lines(name)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}.jsonl line {i + 1} differs"


if __name__ == "__main__":
    for name in CONFIGS:
        text = "".join(line + "\n" for line in record_lines(name))
        (GOLDEN / f"{name}.jsonl").write_text(text, encoding="utf-8")
        print(f"wrote {name}.jsonl", file=sys.stderr)
