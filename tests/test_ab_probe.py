"""``tests/ab_probe.py`` imports two checkouts side by side and checks that
their records agree; run here on two pairs of this checkout against
itself, it must finish and print its summary."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_probe_runs_one_checkout_against_itself():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_probe.py"), str(ROOT), str(ROOT),
         "--workload", "ngram-long", "--pairs", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["A", "B"]
    assert "p50" in lines[0] and "p50" in lines[1]
    assert lines[2].startswith("ngram-long seed 5: B/A - 1 paired median ")
    assert lines[2].endswith(" of 2 pairs")
