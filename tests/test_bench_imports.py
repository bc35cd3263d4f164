"""Every ``ensmc`` name the benchmark's scripts (``bench/*.py``) use must
resolve on the package, so trimming the public surface fails here, in
the unit suite, and not only when the benchmark runs."""
import ast
from pathlib import Path

import ensmc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_names() -> set[str]:
    """Names read as ``ensmc.<name>`` (or ``<obj>.ensmc.<name>``) or
    imported by ``from ensmc import ...`` in the benchmark's code."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id == "ensmc") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "ensmc"
                ):
                    names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "ensmc":
                names.update(alias.name for alias in node.names)
    return names


def test_every_bench_name_resolves():
    names = bench_names()
    # The collector itself must see what the benchmark is known to use.
    assert {"Alphabet", "RemoteModel", "string_log_prob", "ModelServer", "fit_ngram",
            "config_from_dict", "run_experiment", "inference"} <= names
    missing = sorted(n for n in names if not hasattr(ensmc, n))
    assert not missing, f"bench/ uses ensmc names that do not resolve: {missing}"
