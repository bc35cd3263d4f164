"""Combining expert sequence models into one unnormalized string target.

An ensemble applies a weighted generalized mean to the experts'
probabilities of a complete string:

    target(x) = mean_tau(p_1(x), ..., p_K(x); w)     (up to normalization)

with ``mean_tau(v; w) = (sum_k w_k v_k^tau)^(1/tau)``. The named
operators are the closures of the family: ``minimum`` (tau -> -inf),
``geometric`` (tau -> 0, the weighted product), and ``maximum``
(tau -> +inf). Harmonic, arithmetic ("sum"), and quadratic means are the
power operator at tau = -1, 1, 2.

Zero conventions
----------------
* Zero-weight experts are dropped before aggregation (this also removes
  the 0*log 0 and 0*inf corner cases at the source).
* Consensus operators (tau <= 0, including minimum and geometric): any
  exact-zero input yields an exact-zero output; for tau < 0 this is the
  continuity convention.
* Coverage-style operators (tau > 0 and maximum): the output is zero
  only when every surviving input is zero.
* Minimum and maximum are unweighted over the surviving experts, i.e.
  the limit over the support of the weight vector; with all-positive
  weights this is the plain unweighted min/max.

All values move in log domain; ``float('-inf')`` is exact zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lmcore import Alphabet, SequenceModel, prefix_log_prob, string_log_prob
from .logtools import LOG_ZERO, weighted_logsumexp_columns

WEIGHT_TOL = 1e-12

_NAMED_TAU = {"harmonic": -1.0, "sum": 1.0, "quadratic": 2.0}


class ExpertPanel:
    """An ordered collection of sequence models sharing one alphabet."""

    def __init__(self, models: Sequence[SequenceModel]):
        models = tuple(models)
        if not models:
            raise ValueError("panel must contain at least one expert")
        alphabet = models[0].alphabet
        for m in models[1:]:
            if m.alphabet != alphabet:
                raise ValueError(
                    f"experts must share one alphabet: {alphabet!r} and {m.alphabet!r}"
                )
        self.models = models
        self.alphabet: Alphabet = alphabet

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def __getitem__(self, k) -> SequenceModel:
        return self.models[k]


def _normalize_weights(weights) -> tuple[float, ...]:
    """Coerce to a point on the simplex.

    An integer K means K uniform weights. Any nonnegative, not-all-zero
    vector is rescaled to sum 1 (the normalized ensemble distribution is
    invariant to the overall weight scale; only the reported normalizer
    would change). Vectors already summing to 1 within 1e-12 pass
    through unchanged, so explicitly normalized weights stay bit-exact.
    """
    if isinstance(weights, (int, np.integer)):
        if weights < 1:
            raise ValueError("need at least one expert")
        return (1.0 / weights,) * int(weights)
    weights = tuple(float(w) for w in weights)
    if not weights:
        raise ValueError("need at least one weight")
    if any(w < 0.0 or not math.isfinite(w) for w in weights):
        raise ValueError("weights must be finite and nonnegative")
    total = math.fsum(weights)
    if not total > 0.0:
        raise ValueError("all weights are zero")
    if abs(total - 1.0) > WEIGHT_TOL:
        weights = tuple(w / total for w in weights)
    return weights


@dataclass(frozen=True)
class EnsembleSpec:
    """Operator (power tau / geometric / minimum / maximum) plus weights."""

    kind: str
    weights: tuple[float, ...]
    tau: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _normalize_weights(self.weights))
        if self.kind == "power":
            if self.tau is None or not math.isfinite(self.tau) or self.tau == 0.0:
                raise ValueError(
                    "power operator needs a finite nonzero tau "
                    "(use geometric / minimum / maximum for the limits)"
                )
        elif self.kind in ("geometric", "minimum", "maximum"):
            if self.tau is not None:
                raise ValueError(f"{self.kind} operator takes no tau")
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        # Fixed per spec, and combine_columns runs once per batch of prefix nodes.
        weights = np.asarray(self.weights)
        object.__setattr__(self, "_active", weights > 0.0)
        object.__setattr__(self, "_active_weights", weights[weights > 0.0])

    # -- constructors ---------------------------------------------------
    @classmethod
    def power(cls, tau: float, weights) -> "EnsembleSpec":
        return cls("power", _normalize_weights(weights), tau=float(tau))

    @classmethod
    def geometric(cls, weights) -> "EnsembleSpec":
        return cls("geometric", _normalize_weights(weights))

    @classmethod
    def minimum(cls, weights) -> "EnsembleSpec":
        return cls("minimum", _normalize_weights(weights))

    @classmethod
    def maximum(cls, weights) -> "EnsembleSpec":
        return cls("maximum", _normalize_weights(weights))

    @classmethod
    def from_name(cls, name: str, weights, tau: float | None = None) -> "EnsembleSpec":
        """Build from an operator name: minimum/min, maximum/max,
        geometric/product, sum, harmonic, quadratic, or power (with tau,
        which no other name takes)."""
        name = name.lower()
        if tau is not None and name != "power":
            raise ValueError(f"{name} operator takes no tau")
        if name in ("minimum", "min"):
            return cls.minimum(weights)
        if name in ("maximum", "max"):
            return cls.maximum(weights)
        if name in ("geometric", "product"):
            return cls.geometric(weights)
        if name in _NAMED_TAU:
            return cls.power(_NAMED_TAU[name], weights)
        if name == "power":
            if tau is None:
                raise ValueError("power operator needs tau")
            return cls.power(tau, weights)
        raise ValueError(f"unknown operator name {name!r}")

    @property
    def k(self) -> int:
        return len(self.weights)

    # -- evaluation -----------------------------------------------------
    def combine(self, log_values) -> float:
        """Apply the operator to one vector of log-domain values."""
        return float(self.combine_columns(np.asarray(log_values, dtype=float)[:, None])[0])

    def combine_columns(self, log_matrix: np.ndarray) -> np.ndarray:
        """Apply the operator down each column of a (K, n) log-domain matrix."""
        log_matrix = np.asarray(log_matrix, dtype=float)
        if log_matrix.ndim != 2 or log_matrix.shape[0] != self.k:
            raise ValueError(f"expected a ({self.k}, n) matrix, got {log_matrix.shape}")
        # One reduction: the max is +inf or nan exactly when some entry is.
        if log_matrix.size and not log_matrix.max() < np.inf:
            raise ValueError("values must be finite or -inf in log domain")
        w = self._active_weights
        every_weight = len(w) == self.k
        if self.kind == "geometric":
            # No mask: -inf times a positive weight is -inf, and -inf plus a
            # finite value or -inf stays -inf, so a zero input zeroes its
            # column by itself. Each column is its own products summed in
            # expert order, elementwise, so the bits depend on neither the
            # other columns nor the memory layout.
            m = log_matrix if every_weight else log_matrix[self._active]
            out = m[0] * w[0]
            for k in range(1, len(w)):
                out += m[k] * w[k]
            return out
        # Without zero weights, no masked copy; a C-ordered matrix, as the
        # mask would give, because the layout sets the order of the sums.
        m = np.ascontiguousarray(log_matrix) if every_weight else log_matrix[self._active]
        if self.kind == "minimum":
            return m.min(axis=0)
        if self.kind == "maximum":
            return m.max(axis=0)
        any_zero = (m == LOG_ZERO).any(axis=0)
        # power: shifted weighted log-sum-exp on tau * log-values.
        tau = self.tau
        if tau < 0.0:
            scaled = np.where(any_zero[None, :], 0.0, tau * m)
            out = weighted_logsumexp_columns(scaled, w) / tau
            out[any_zero] = LOG_ZERO
            return out
        out = weighted_logsumexp_columns(tau * m, w) / tau
        out[(m == LOG_ZERO).all(axis=0)] = LOG_ZERO
        return out


def is_consensus(spec: EnsembleSpec) -> bool:
    """True for operators that zero out whenever any expert does (tau <= 0)."""
    return spec.kind in ("minimum", "geometric") or (
        spec.kind == "power" and spec.tau is not None and spec.tau < 0.0
    )


# -- potentials of a (spec, panel) pair --------------------------------


def log_string_potential(spec: EnsembleSpec, panel: ExpertPanel, x: str) -> float:
    """Unnormalized log target of a complete string."""
    return spec.combine([string_log_prob(m, x) for m in panel])


def log_potential_columns(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    x: str,
) -> np.ndarray:
    """Unnormalized one-step potentials after prefix ``x``.

    Entry ``a`` is the prefix potential of ``x + a``; the end-marker
    entry is the string potential of ``x`` itself. Dividing by the
    prefix potential of ``x`` gives the next-step shaping distribution
    (not necessarily normalized).
    """
    eos = panel.alphabet.eos_index
    expert_prefixes = [prefix_log_prob(m, x) for m in panel]
    logmat = np.full((len(panel), eos + 1), LOG_ZERO)
    for k, m in enumerate(panel):
        if expert_prefixes[k] != LOG_ZERO:
            logmat[k] = expert_prefixes[k] + m.log_next(x)
    return spec.combine_columns(logmat)
