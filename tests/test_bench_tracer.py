"""The benchmark's layer tracer (``bench/tracing.py``) wraps package
functions and the module aliases the package calls through, by name. A
refactor that drops or renames one of them must fail here, in the unit
suite, and not only in the benchmark's own self-test."""
import importlib.util
from pathlib import Path

from ensmc import config_from_dict, inference, run_experiment

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


def test_particle_count_reads_every_method():
    """The tracer counts particles with ``len()`` of what each sampler
    returns: an Estimate for ``smc``/``sis``/``is``, a list for ``local``."""
    config = config_from_dict({
        "experts": [
            {"type": "table", "entries": {"a": 0.5, "b": 0.25, "ab": 0.25}},
            {"type": "table", "entries": {"a": 0.25, "b": 0.5, "ab": 0.25}},
        ],
        "sampler": {"particles": 5, "max_len": 3},
        "methods": ["smc", "sis", "is", "local"],
    })
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        run_experiment(config)
        assert tracer.counts["inference.particles"] == 20
    finally:
        tracer.uninstall()
