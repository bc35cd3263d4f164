"""The benchmark's layer tracer (``bench/tracing.py``) wraps package
functions and the module aliases the package calls through, by name. A
refactor that drops or renames one of them must fail here, in the unit
suite, and not only in the benchmark's own self-test."""
import importlib.util
from pathlib import Path

from ensmc import inference

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_target_and_uninstall_restores_them():
    names = ("prefix_log_prob", "log_potential_columns", "draw_index")
    before = {name: getattr(inference, name) for name in names}
    log_row = inference.PrefixPotentialShaping.log_row
    tracer = load_tracing().Tracer()
    tracer.install()  # raises LookupError when a target is missing
    try:
        assert all(getattr(inference, name) is not fn for name, fn in before.items())
        assert inference.PrefixPotentialShaping.log_row is not log_row
    finally:
        tracer.uninstall()
    assert {name: getattr(inference, name) for name in names} == before
    assert inference.PrefixPotentialShaping.log_row is log_row
