"""``tests/bench_pairs.py`` summarizes alternating ``bench/run.py`` pairs;
here its summary is fed canned result lines, and no benchmark runs."""
import json
from pathlib import Path

from bench_pairs import read_result, summarize

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def canned_output(failed=0, **values):
    """A ``bench/run.py`` output: human-readable lines, then the JSON last
    line with every end-to-end metric (1.0 unless given)."""
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
               for m in END_TO_END}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    return "# workload w  seed 1  inputs 0\nop_s_p50 1.0 s\n" + json.dumps(result) + "\n"


def test_read_result_takes_the_last_line():
    assert read_result(canned_output(op_s_p50=0.5))["metrics"]["op_s_p50"]["value"] == 0.5


def test_summary_reports_medians_spreads_wins_and_unresolved():
    parent_p50 = [10.0, 10.0, 10.0, 10.0]
    change_p50 = [9.0, 9.0, 11.0, 9.0]
    parent_rate = [100.0, 100.0, 100.0, 100.0]
    change_rate = [90.0, 110.0, 120.0, 130.0]
    # The parent's heap spreads past the 0.25 bound: q1 1.0, q3 2.0, median 1.5.
    parent_heap = [1.0, 1.0, 2.0, 2.0]
    pairs = {"w": [
        (read_result(canned_output(op_s_p50=p, particles_per_s=pr, op_heap_mb=h)),
         read_result(canned_output(failed=int(i == 1), op_s_p50=c, particles_per_s=cr)))
        for i, (p, c, pr, cr, h) in enumerate(
            zip(parent_p50, change_p50, parent_rate, change_rate, parent_heap))
    ]}
    lines = {line.split(":")[0]: line for line in summarize(pairs, END_TO_END)}
    assert set(lines) == {f"w {m['name']}" for m in END_TO_END} | {"w failed ops"}
    assert lines["w op_s_p50"] == (
        "w op_s_p50: parent 10 (spread 0.000) change 9 (spread 0.056) change won 3/4"
    )
    # Higher is better for a rate: the change won three pairs.
    assert lines["w particles_per_s"].endswith(" change won 3/4")
    assert lines["w op_heap_mb"].startswith("w op_heap_mb: parent 1.5 (spread 0.667)")
    assert lines["w op_heap_mb"].endswith(" unresolved")
    # Ties are not wins, and equal runs are resolved.
    assert lines["w setup_s"].endswith(" change won 0/4")
    assert lines["w failed ops"] == "w failed ops: parent 0/400 change 1/400"

