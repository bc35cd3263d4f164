"""Exact reference computations for desk-scale fixtures.

Everything here is brute force on purpose: exhaustive level-order
enumeration of the ensemble target over all strings up to a length
horizon, exact accuracy and distance evaluation on the resulting
table, and a derivative-free direct search for divergence minimization
over the simplex. These routines are the ground truth the samplers are
tested against, so they share no code path with the samplers beyond the
operator definition itself.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensemble import EnsembleSpec, ExpertPanel, _normalize_weights, is_consensus
from .errors import EnumerationBudgetError
from .lmcore import Alphabet
from .logtools import LOG_ZERO, logsumexp
from .textio import counted_rows, escape_field, unescape_field

TABLE_MAGIC = "ensmc-table"
TABLE_VERSION = 1
#: The header keys of a table file, one a line, in their written order.
_TABLE_HEADER = ("operator", "weights", "alphabet", "max_len", "log_residual_bound", "entries")

#: Default enumeration budget; exceeding it is a refusal, not an attempt.
DEFAULT_NODE_CAP = 500_000
#: Most nodes enumerate_ensemble takes in one batch: whole levels of a
#: large enumeration would hold about twice the heap of the sliced walk.
LEVEL_SLICE = 1024
#: minimize_divergence_simplex: first transfer size, the size at which
#: halving stops, and the sweep budget.
SIMPLEX_STEP0 = 0.25
SIMPLEX_STEP_MIN = 1e-7
SIMPLEX_MAX_SWEEPS = 200_000


@dataclass(frozen=True)
class ExactTable:
    """Exhaustive unnormalized target over strings up to ``max_len``.

    ``strings`` is sorted and unique: a prefix's extensions are one run of
    it. ``log_values`` aligns with it; ``log_residual_bound`` upper-bounds
    the log mass beyond the horizon (``-inf`` if proven complete).
    """

    alphabet: Alphabet
    max_len: int
    strings: tuple[str, ...]
    log_values: np.ndarray
    log_z: float
    log_residual_bound: float
    operator: str
    weights: tuple[float, ...]
    nodes_visited: int

    @property
    def is_complete(self) -> bool:
        return self.log_residual_bound == LOG_ZERO

    def _span(self, x: str) -> tuple[int, int]:
        """The index range ``[lo, hi)`` of the strings extending ``x``."""
        if len(x) > self.max_len:
            raise EnumerationBudgetError(f"{x!r} is beyond the horizon {self.max_len}")
        strings = self.strings
        lo = hi = bisect_left(strings, x)
        while hi < len(strings) and strings[hi].startswith(x):
            hi += 1
        return lo, hi

    def log_value(self, x: str) -> float:
        """Unnormalized log target of a complete string within the horizon."""
        lo, hi = self._span(x)
        return float(self.log_values[lo]) if lo < hi and self.strings[lo] == x else LOG_ZERO

    def log_prefix_target(self, x: str) -> float:
        """Log of the summed target mass over supported strings extending ``x``."""
        lo, hi = self._span(x)
        return logsumexp(self.log_values[lo:hi])

    def probs(self) -> dict[str, float]:
        """The normalized distribution as a ``{string: probability}`` dict."""
        return {
            s: math.exp(lv - self.log_z) for s, lv in zip(self.strings, self.log_values)
        }

    def expected_accuracy(self, predicate: Callable[[str], bool]) -> float:
        """Probability mass of strings satisfying the predicate."""
        mask = np.array([bool(predicate(s)) for s in self.strings])
        if not mask.any():
            return 0.0
        return math.exp(float(logsumexp(self.log_values[mask])) - self.log_z)


def _operator_label(spec: EnsembleSpec) -> str:
    if spec.kind == "power":
        return f"power(tau={spec.tau!r})"
    return spec.kind


def enumerate_ensemble(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    max_len: int,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> ExactTable:
    """Exhaustive level-order enumeration of all strings up to ``max_len``.

    Each level lists its prefixes in lexicographic order: children in
    parent order, then symbol order. A level is taken in slices of at
    most ``LEVEL_SLICE`` nodes, each with one ``log_next_many`` per expert
    live at any of its nodes and one ``combine_columns`` over all of their
    columns. The operator is column-local, so every value has the bits a
    node-at-a-time walk gives, and the residual terms come in the same
    order.

    Pruning is only applied where sound: a subtree is dropped when every
    surviving expert has zero prefix mass, or when a consensus operator
    already annihilated the prefix.

    The residual bound over the frontier (prefixes one symbol beyond the
    horizon) uses the operator applied to the experts' prefix masses for
    tau <= 1 — power means are concave and positively homogeneous there,
    hence superadditive, which makes that a sound per-subtree upper
    bound. For tau > 1 and maximum that bound is not sound (the operator
    is subadditive), so the conservative sum of surviving experts'
    prefix masses is used instead.

    ``max_nodes`` is the only budget: exceeding it raises
    EnumerationBudgetError before partial results are returned, as soon
    as the nodes visited plus the next level's children found so far
    exceed it, so no level outgrows it.
    """
    alphabet = panel.alphabet
    if max_len < 0:
        raise ValueError("max_len must be >= 0")

    entries, residual_terms, nodes = _walk_levels(spec, panel, max_len, max_nodes)
    strings = tuple(sorted(entries))
    log_values = np.array([entries[s] for s in strings])
    if not strings:
        raise EnumerationBudgetError(
            "target has no support within the horizon; nothing to normalize"
        )
    log_z = float(logsumexp(log_values))
    if residual_terms:
        log_residual = float(logsumexp(np.array(residual_terms)))
    else:
        log_residual = LOG_ZERO
    return ExactTable(
        alphabet=alphabet,
        max_len=max_len,
        strings=strings,
        log_values=log_values,
        log_z=log_z,
        log_residual_bound=log_residual,
        operator=_operator_label(spec),
        weights=spec.weights,
        nodes_visited=nodes,
    )


def _walk_levels(
    spec: EnsembleSpec, panel: ExpertPanel, max_len: int, max_nodes: int
) -> tuple[dict[str, float], list[float], int]:
    """The level walk of :func:`enumerate_ensemble`: the strings' values,
    the residual terms in level order, and the number of nodes. A function
    of its own, so the last level's arrays are freed before the table is
    built."""
    symbols = panel.alphabet.symbols
    eos = panel.alphabet.eos_index
    k = len(panel)
    active = np.asarray(spec.weights) > 0.0
    consensus = is_consensus(spec)
    summed_residual = spec.kind == "maximum" or (spec.kind == "power" and spec.tau > 1.0)

    entries: dict[str, float] = {}
    residual_terms: list[float] = []
    nodes = 0
    # One level: its prefixes and their (n, K) expert prefix masses.
    level, masses = [""], np.zeros((1, k))
    for depth in range(max_len + 1):
        nodes += len(level)
        if nodes > max_nodes:
            raise EnumerationBudgetError(f"enumeration exceeded {max_nodes} nodes")
        children: list[str] = []
        child_masses = []
        for lo in range(0, len(level), LEVEL_SLICE):
            xs = level[lo : lo + LEVEL_SLICE]
            prefixes = masses[lo : lo + LEVEL_SLICE]
            logmat = np.full((k, len(xs), eos + 1), LOG_ZERO)
            for i, model in enumerate(panel):
                at = np.flatnonzero(prefixes[:, i] != LOG_ZERO)
                if len(at):
                    rows = model.log_next_many([xs[j] for j in at])
                    logmat[i, at] = prefixes[at, i, None] + rows
            cols = spec.combine_columns(logmat.reshape(k, -1)).reshape(len(xs), eos + 1)
            for j in np.flatnonzero(cols[:, eos] != LOG_ZERO).tolist():
                entries[xs[j]] = float(cols[j, eos])
            live = (logmat[active, :, :eos] != LOG_ZERO).any(axis=0)
            if consensus:
                live &= cols[:, :eos] != LOG_ZERO
            parent, sym = np.nonzero(live)
            # Row n: the experts' prefix masses at the n-th live child.
            child = np.ascontiguousarray(logmat[:, parent, sym].T)
            if depth < max_len:
                children += [xs[p] + symbols[a] for p, a in zip(parent.tolist(), sym.tolist())]
                child_masses.append(child)
                if nodes + len(children) > max_nodes:
                    raise EnumerationBudgetError(f"enumeration exceeded {max_nodes} nodes")
            elif summed_residual:
                residual_terms += [float(logsumexp(c[active])) for c in child]
            else:
                residual_terms += cols[parent, sym].tolist()
        if not children:
            break
        level, masses = children, np.concatenate(child_masses)
    return entries, residual_terms, nodes


# -- table file format --------------------------------------------------


def dump_table(table: ExactTable, path) -> None:
    """Write the sorted ``string TAB log-value`` dump with its header."""
    lines = [
        f"{TABLE_MAGIC}\t{TABLE_VERSION}",
        f"operator\t{table.operator}",
        "weights\t" + "\t".join(repr(w) for w in table.weights),
        f"alphabet\t{escape_field(''.join(table.alphabet.symbols))}",
        f"max_len\t{table.max_len}",
        f"log_residual_bound\t{table.log_residual_bound!r}",
        f"entries\t{len(table.strings)}",
    ]
    for s, lv in zip(table.strings, table.log_values):
        lines.append(f"{escape_field(s)}\t{float(lv)!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path) -> ExactTable:
    """Read a file written by :func:`dump_table`; the normalizer is recomputed.

    A malformed file is a ValueError that names it (and the line, for a
    body row, for a header key out of its written order, for weights no
    ``EnsembleSpec`` accepts and for a negative ``max_len``). Rows must
    be strictly increasing, none past ``max_len``."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    try:
        magic, version = lines[0].split("\t")
        if magic != TABLE_MAGIC or int(version) != TABLE_VERSION:
            raise ValueError
        header = [line.split("\t", 1) for line in lines[1:7]]
        operator, weights, alpha, max_len, log_residual, n = (value for _, value in header)
    except (IndexError, ValueError):
        raise ValueError(f"{path}: not a {TABLE_MAGIC} v{TABLE_VERSION} file")
    for lineno, ((key, _), want) in enumerate(zip(header, _TABLE_HEADER), start=2):
        if key != want:
            raise ValueError(f"{path}: line {lineno}: header key {key!r}, expected {want!r}")
    try:
        weights = tuple(float(w) for w in weights.split("\t"))
        alphabet = Alphabet(unescape_field(alpha))
        max_len, log_residual, n = int(max_len), float(log_residual), int(n)
        if not log_residual < math.inf:  # NaN or +inf
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: not a {TABLE_MAGIC} v{TABLE_VERSION} file")

    def bad_header(key, why):
        lineno = 2 + _TABLE_HEADER.index(key)
        return ValueError(f"{path}: line {lineno}: bad header {lines[lineno - 1]!r}: {why}")

    try:
        _normalize_weights(weights)
    except ValueError as exc:
        raise bad_header("weights", exc)
    if max_len < 0:
        raise bad_header("max_len", "must be >= 0")
    pairs = []
    for lineno, line in counted_rows(lines, 7, n, path):
        try:
            field, lv = line.split("\t")
            string = unescape_field(field)
            alphabet.check_string(string)
            if len(string) > max_len or pairs and not pairs[-1][0] < string:
                raise ValueError(f"rows must be strictly increasing, none over {max_len} symbols")
            lv = float(lv)
            if not lv < math.inf:  # NaN or +inf
                raise ValueError(f"log value must be finite or -inf, got {lv}")
            pairs.append((string, lv))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad table row {line!r}: {exc}")
    strings = tuple(s for s, _ in pairs)
    log_values = np.array([lv for _, lv in pairs])
    return ExactTable(
        alphabet=alphabet,
        max_len=max_len,
        strings=strings,
        log_values=log_values,
        log_z=float(logsumexp(log_values)),
        log_residual_bound=log_residual,
        operator=operator,
        weights=weights,
        nodes_visited=0,
    )


# -- distances, and divergence minimization over the simplex -----------


def total_variation(q: dict[str, float], p: dict[str, float]) -> float:
    """Total variation distance between two explicit distributions."""
    keys = set(q) | set(p)
    return 0.5 * math.fsum(abs(q.get(x, 0.0) - p.get(x, 0.0)) for x in keys)


def _power_term(q: float, p: float, alpha: float) -> float:
    """q^alpha * p^(1-alpha) with the 0-and-infinity conventions spelled out."""
    if q == 0.0 and p == 0.0:
        return 0.0
    if q == 0.0:
        return 0.0 if alpha > 0.0 else math.inf
    if p == 0.0:
        return 0.0 if alpha < 1.0 else math.inf
    return math.exp(alpha * math.log(q) + (1.0 - alpha) * math.log(p))


def _alpha_divergence_arrays(
    q: Sequence[float], p: Sequence[float], alpha: float
) -> float:
    """The alpha-divergence D_alpha(q || p) of two aligned distributions.

    D_alpha = (1 - sum_x q^alpha p^(1-alpha)) / (alpha (1 - alpha)); the
    removable singularities alpha = 1 and alpha = 0 are the KL limits
    KL(q||p) and KL(p||q) respectively, with 0 log 0 = 0.
    """
    if alpha == 1.0 or alpha == 0.0:
        a, b = (q, p) if alpha == 1.0 else (p, q)
        total = 0.0
        for ai, bi in zip(a, b):
            if ai == 0.0:
                continue
            if bi == 0.0:
                return math.inf
            total += ai * math.log(ai / bi)
        return total
    s = 0.0
    for qi, pi in zip(q, p):
        t = _power_term(float(qi), float(pi), alpha)
        if math.isinf(t):
            return math.inf
        s += t
    return (1.0 - s) / (alpha * (1.0 - alpha))


def _alpha_objective(q: np.ndarray, experts: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    total = 0.0
    for w, p in zip(weights, experts):
        if w == 0.0:
            continue
        d = _alpha_divergence_arrays(q, p, alpha)
        if math.isinf(d):
            return math.inf
        total += w * d
    return total


def minimize_divergence_simplex(
    experts: np.ndarray,
    weights: Sequence[float],
    alpha: float,
) -> np.ndarray:
    """Minimize the weighted alpha-divergence to K atoms over the simplex.

    Direct search with shrinking pairwise mass transfers: starting from
    the uniform distribution, repeatedly try moving ``step`` mass
    between every ordered pair of atoms, keep strict improvements, and
    halve the step when a sweep makes no progress. The transfer
    directions positively span the simplex tangent and the objective is
    convex in the distribution, so the search converges to the global
    minimizer without ever consulting the closed form.
    """
    experts = np.asarray(experts, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _, n = experts.shape
    q = np.full(n, 1.0 / n)
    best = _alpha_objective(q, experts, weights, alpha)
    step = SIMPLEX_STEP0
    for _ in range(SIMPLEX_MAX_SWEEPS):
        improved = False
        for i in range(n):
            for j in range(n):
                # Re-checked per transfer: an accepted move inside this
                # loop replaces q and may have drained coordinate i.
                if i == j or q[i] < step:
                    continue
                trial = q.copy()
                trial[i] -= step
                trial[j] += step
                val = _alpha_objective(trial, experts, weights, alpha)
                if val < best:
                    q, best = trial, val
                    improved = True
        if not improved:
            step *= 0.5
            if step < SIMPLEX_STEP_MIN:
                break
    return q
