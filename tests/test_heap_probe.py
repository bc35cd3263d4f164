"""``tests/heap_probe.py`` wraps package calls by name to say where an
op's heap peaks. Its ``install`` passes over a missing name (so it runs
on older checkouts), so a refactor that drops or renames one must fail
here instead of quietly charging that call's peaks to its caller."""
from heap_probe import PeakSites


def test_every_wrapped_call_exists_and_uninstall_restores_it():
    calls = PeakSites.CALLS
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in calls
               if not callable(owner.__dict__.get(name))]
    assert not missing, f"heap_probe wraps calls that do not exist: {missing}"
    before = [owner.__dict__[name] for owner, name, _ in calls]
    sites = PeakSites()
    sites.install()
    try:
        assert all(owner.__dict__[name] is not fn
                   for (owner, name, _), fn in zip(calls, before))
    finally:
        sites.uninstall()
    assert [owner.__dict__[name] for owner, name, _ in calls] == before
