"""Output checks: every op's records, the pass as a whole, the remote wire.

Each check returns a list of problems (empty when the output is right),
so the self-tests can feed it tampered references and expect a failure.
"""
from __future__ import annotations

import math

#: The pass-mean of Z_hat / Z must lie within this many standard errors of 1.
RATIO_SES = 5.0


def op_problem(records: list[dict], config: dict) -> tuple[str | None, float | None]:
    """Check one op's records; return (problem, Z_hat / Z of its smc run).

    Every configured method must leave exactly one record without an
    ``error``, and every estimator a finite normalizer. With an oracle
    section, the enumeration must prove its support complete
    (``residual_bound == 0``), and the smc estimate is returned as a ratio
    to the exact Z for the pass-level check.
    """
    methods = list(config["methods"]) + (["oracle"] if "oracle" in config else [])
    got = [r.get("method") for r in records]
    if got != methods:
        return f"records for {got}, expected {methods}", None
    for rec in records:
        if "error" in rec:
            return f"{rec['method']}: {rec['error']}", None
        if rec["method"] in ("smc", "sis", "is") and rec.get("log_z_hat") is None:
            return f"{rec['method']}: no normalizer estimate", None
    if "oracle" not in config:
        return None, None
    oracle = records[-1]
    if oracle.get("residual_bound") != 0.0 or oracle.get("log_z") is None:
        return f"oracle support not proven complete: {oracle.get('residual_bound')}", None
    smc = records[methods.index("smc")]
    return None, math.exp(smc["log_z_hat"] - oracle["log_z"])


def ratio_problem(ratios: list[float]) -> str | None:
    """Z_hat is unbiased for Z: the pass mean of Z_hat / Z must be near 1."""
    if not ratios:
        return None
    n = len(ratios)
    mean = math.fsum(ratios) / n
    var = math.fsum((r - mean) ** 2 for r in ratios) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(var / n)
    if abs(mean - 1.0) > RATIO_SES * se + 1e-12:
        return f"mean Z_hat/Z = {mean:.4f} over {n} ops, {RATIO_SES:g} SE = {RATIO_SES * se:.4f}"
    return None


def remote_problems(ensmc, url: str, alphabet: str, reference, strings: list[str]) -> list[str]:
    """Score strings through a fresh client; they must equal the served model's exactly."""
    client = ensmc.RemoteModel(url, alphabet=ensmc.Alphabet(tuple(alphabet)))
    problems = []
    for x in strings:
        want = ensmc.string_log_prob(reference, x)
        try:
            got = ensmc.string_log_prob(client, x)
        except Exception as exc:  # a wire failure is a failed check, not a crash
            problems.append(f"string_log_prob({x!r}) over the wire raised {exc!r}")
            continue
        if got != want:
            problems.append(f"string_log_prob({x!r}) over the wire {got!r} != {want!r}")
    if client.defects:
        problems.append(f"{len(client.defects)} renormalized rows: {client.defects[:3]}")
    return problems
