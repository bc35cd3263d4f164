"""Evaluation helpers: accuracy under a distribution, agreement reports.

A "predicate" is any ``str -> bool`` callable; expected accuracy is the
probability mass a distribution puts on strings satisfying it.
Distributions are plain ``{string: probability}`` dicts (normalized) or a
particle :class:`~ensmc.inference.Estimate`; an enumerated table has its
own ``probs()`` and ``expected_accuracy``.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

import numpy as np

from .ensemble import EnsembleSpec, ExpertPanel
from .errors import DegenerateRunError
from .inference import Estimate
from .oracle import DEFAULT_NODE_CAP, ExactTable, enumerate_ensemble, total_variation

Predicate = Callable[[str], bool]


def as_distribution(obj) -> dict[str, float]:
    """Coerce a dict or an Estimate to a normalized dict."""
    if isinstance(obj, dict):
        total = float(sum(obj.values()))
        if not total > 0.0:
            raise ValueError("distribution has no mass")
        return {x: p / total for x, p in obj.items() if p > 0.0}
    if isinstance(obj, Estimate):
        return obj.distribution()
    raise TypeError(f"cannot interpret {type(obj).__name__} as a distribution")


def expected_accuracy(obj, predicate: Predicate) -> float:
    """Probability that a draw from the distribution satisfies the predicate."""
    return float(sum(p for x, p in as_distribution(obj).items() if predicate(x)))


def empirical_distribution(samples: Iterable[str] | Estimate) -> dict[str, float]:
    """Relative frequencies of completed draws: strings, or the completed
    strings of an :class:`~ensmc.inference.Estimate` (its weights unread).

    Truncated draws are excluded; an all-truncated batch is an error
    rather than a silent empty distribution.
    """
    if isinstance(samples, Estimate):
        samples = [x for x, done in zip(samples.xs, samples.completed.tolist()) if done]
    counts = Counter(samples)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no completed samples")
    return {x: c / total for x, c in counts.items()}


def mixture_identity(
    panel: ExpertPanel,
    weights,
    predicate: Predicate,
    max_len: int,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> tuple[float, float]:
    """Expected accuracy of the weighted linear pool, two ways.

    Returns ``(ensemble, mixture)`` where ``ensemble`` enumerates the
    weighted-sum ensemble directly and ``mixture`` combines per-expert
    accuracies with the same weights. For normalized experts the two are
    equal to rounding, since the weighted-sum target *is* the mixture.
    """
    spec = EnsembleSpec.from_name("sum", weights=weights)
    table = enumerate_ensemble(spec, panel, max_len, max_nodes)
    ensemble = table.expected_accuracy(predicate)
    parts = [_expert_accuracy(model, predicate, max_len, max_nodes) for model in panel]
    mixture = float(np.dot(spec.weights, parts))
    return ensemble, mixture


def _expert_accuracy(model, predicate: Predicate, max_len: int, max_nodes: int) -> float:
    """Accuracy under one expert alone, from its one-expert oracle table
    (the geometric operator at weight 1 is the model itself). The sums
    run in the table's sorted order."""
    table = enumerate_ensemble(EnsembleSpec.geometric(1), ExpertPanel([model]), max_len, max_nodes)
    total = float(sum(np.exp(lv) for lv in table.log_values))
    hits = float(sum(np.exp(lv) for x, lv in zip(table.strings, table.log_values) if predicate(x)))
    if not total > 0.0:
        raise ValueError("model has no enumerated mass")
    return hits / total


def intersection_report(
    panel: ExpertPanel,
    predicate: Predicate,
    max_len: int,
    weights=None,
    top: int = 5,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> dict:
    """How a product ensemble concentrates where all experts agree.

    Enumerates each expert alone and the geometric (product) ensemble,
    reporting predicate accuracy for each and the ensemble's highest
    probability strings, ``top`` of them (a negative ``top`` is a
    ValueError).
    """
    if top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    spec = EnsembleSpec.geometric(weights if weights is not None else len(panel))
    table = enumerate_ensemble(spec, panel, max_len, max_nodes)
    probs = table.probs()
    ranked = sorted(probs.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "expert_accuracy": [_expert_accuracy(m, predicate, max_len, max_nodes) for m in panel],
        "ensemble_accuracy": table.expected_accuracy(predicate),
        "log_z": table.log_z if np.isfinite(table.log_z) else None,
        "top_strings": [{"x": x, "p": p} for x, p in ranked[:top]],
    }


def compare_to_oracle(estimate: Estimate, table: ExactTable) -> dict:
    """Sampler-vs-enumeration agreement: normalizer gap and TVD."""
    z_hat = float(np.exp(estimate.log_z_hat))
    z = float(np.exp(table.log_z))
    out = {
        "z_hat": z_hat,
        "z": z,
        "abs_error": abs(z_hat - z),
        "rel_error": abs(z_hat - z) / z if z > 0.0 else None,
    }
    try:
        out["tvd"] = total_variation(estimate.distribution(), table.probs())
    except DegenerateRunError:
        out["tvd"] = None
    return out
