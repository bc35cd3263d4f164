"""Sequential Monte Carlo and importance samplers for unnormalized string
targets.

The samplers draw strings symbol-by-symbol from a proposal while
accumulating importance weights against the target, guided by a shaping
function (an inexpensive prefix potential whose per-step ratios steer
the proposal before the full string is scored). Weight bookkeeping is
entirely in log domain; ``float('-inf')`` marks dead particles, which
contribute zero mass and are never extended.

Randomness: every draw comes from a stream derived from the run seed by
counter-based key splitting — ``sis``/``smc`` draws are keyed by ``(0,
round, particle index)`` and resampling by ``(1, round)``; ``is``/``local``
draw i.i.d., particle ``m`` from stream ``(2, m)`` — so runs are
reproducible bit-for-bit, adding particles does not perturb existing
streams, and an unfired resampling pass leaves the draws untouched. The
streams are numpy's ``default_rng(SeedSequence(seed, spawn_key=key))``.
The ``_STREAM_*`` tags below name them; :mod:`ensmc.streams` derives
the particle streams and hands out each round's doubles.

Population: all four samplers run one round loop over the particles held
as arrays (the prefix strings, weights, proposal log probabilities and
status flags). Each round takes one uniform per active particle and draws
once per distinct prefix: particles on one prefix share its shaping and
proposal rows and one cumulative sum. The arrays are the :class:`Estimate`.

Degeneracy: a finished run whose particles all carry zero weight still
returns an Estimate (its normalizer estimate is exactly zero, which can
be the honest answer); operations that need normalized weights raise
DegenerateRunError instead.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

# ``log_potential_columns``, ``draw_index``, ``prefix_log_prob`` and
# ``sample_with_log_prob`` are no longer called here; they stay module
# attributes because the layer tracer in bench/tracing.py wraps them.
from .ensemble import (  # noqa: F401
    EnsembleSpec,
    ExpertPanel,
    log_potential_columns,
    log_string_potential,
)
from .errors import DeadPrefixError, DegenerateRunError
from . import streams
from .lmcore import (  # noqa: F401
    SequenceModel,
    draw_index,
    draw_indices,
    prefix_log_prob,
    sample_with_log_prob,
)
from .logtools import LOG_ZERO, log_normalize, logsumexp

_STREAM_PARTICLE = 0
_STREAM_RESAMPLE = 1
_STREAM_IID = 2


@dataclass
class Diagnostics:
    ess_trace: list[float] = field(default_factory=list)
    resample_rounds: list[int] = field(default_factory=list)
    truncated: int = 0
    rounds: int = 0


@dataclass(eq=False)
class Estimate:
    """Weighted particle population plus the normalizer estimate.

    The ``i``-th particle is the string ``xs[i]`` with log weight ``log_w[i]``;
    ``completed[i]`` tells whether it drew the end marker, and
    ``log_proposal[i]`` is the proposal log probability of its drawn path
    (diagnostic; after resampling it no longer matches the weight
    decomposition). ``log_z_hat`` is the log of the plain weight mean, so
    ``exp(log_z_hat)`` equals ``mean(exp(log_w))``. ``len()`` is the
    particle count.
    """

    xs: list[str]
    log_w: np.ndarray
    completed: np.ndarray
    log_proposal: np.ndarray
    log_z_hat: float
    diagnostics: Diagnostics

    def __len__(self) -> int:
        return len(self.xs)

    def normalized_weights(self) -> np.ndarray:
        total = logsumexp(self.log_w)
        if total == LOG_ZERO:
            raise DegenerateRunError(
                "all particles carry zero weight", diagnostics=self.diagnostics
            )
        w = np.exp(self.log_w - total)
        return w / w.sum()

    def distribution(self) -> dict[str, float]:
        """Weighted empirical distribution over the particle strings."""
        out: dict[str, float] = {}
        for x, w in zip(self.xs, self.normalized_weights().tolist()):
            if w > 0.0:
                out[x] = out.get(x, 0.0) + w
        return out


def ess(log_weights) -> float:
    """Effective sample size (sum w)^2 / sum(w^2), in log domain."""
    lw = np.asarray(log_weights, dtype=float)
    total = logsumexp(lw)
    if total == LOG_ZERO:
        raise DegenerateRunError("effective sample size undefined: all weights zero")
    return float(np.exp(2.0 * total - logsumexp(2.0 * lw)))


@dataclass(frozen=True)
class SamplerConfig:
    particles: int = 10
    resample_threshold: float = 0.9
    max_len: int = 64
    seed: int = 0
    proposal: str = "optimal"  # "optimal" or "expert:<k>"
    shaping: str = "prefix"  # "prefix" or "epsilon-shift"
    epsilon: float = 1e-6
    #: When set, finished no-resample runs assert that each completed
    #: particle's weight telescoped to target/proposal within 1e-9.
    debug_check_weights: bool = False

    def __post_init__(self):
        def reject(name: str, what: str):
            raise ValueError(f"sampler {name!r} must be {what}, got {getattr(self, name)!r}")

        # Types first, so a mistyped value never reaches a comparison;
        # bools are not numbers here.
        for names, kind, what in (
            (("particles", "max_len", "seed"), numbers.Integral, "an integer"),
            (("resample_threshold", "epsilon"), numbers.Real, "a real number"),
            (("proposal", "shaping"), str, "a string"),
            (("debug_check_weights",), bool, "true or false"),
        ):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                    reject(name, what)
        if self.particles < 1:
            reject("particles", "a positive integer")
        if not 0.0 < self.resample_threshold <= 1.0:
            reject("resample_threshold", "in (0, 1]")
        if self.max_len < 1:
            reject("max_len", "an integer >= 1")
        if self.seed < 0:
            reject("seed", "a non-negative integer")
        if self.shaping not in ("prefix", "epsilon-shift"):
            reject("shaping", "'prefix' or 'epsilon-shift'")
        if self.shaping == "epsilon-shift" and not 0.0 < self.epsilon < math.inf:
            reject("epsilon", "finite and > 0")
        if self.proposal != "optimal":
            kind, _, idx = self.proposal.partition(":")
            if kind != "expert" or not idx.isdigit():
                reject("proposal", "'optimal' or 'expert:<k>'")


# -- shaping functions --------------------------------------------------


class PrefixPotentialShaping:
    """Default shaping: the ensemble operator applied to expert prefix masses.

    ``log_row(x)`` is the next-step shaping distribution over symbols
    plus the end marker; the end-marker entry carries the complete-string
    target over the prefix potential, so the per-step ratios telescope to
    exactly target/proposal. With ``epsilon`` set, prefix potentials are
    repaired to |value| + epsilon (the target in the end-marker numerator
    is never shifted), which restores an escape route through prefixes a
    consensus operator annihilated.

    Prefixes are cached as a trie of nodes, one ``(K + 1, |Σ| + 2)``
    log-domain array per prefix ``x``. Row ``k < K`` holds expert ``k``'s
    raw ``log_next(x)`` row (all ``LOG_ZERO`` once the expert is dead)
    and, in the last column, its prefix mass at ``x``. Row ``K`` holds
    the operator applied down the prefix-plus-row columns (entry ``a`` is
    the prefix potential of ``x + a``, the end-marker entry the target of
    ``x``) and, in the last column, the prefix potential of ``x``. With
    ``epsilon`` set, row ``K`` holds the shifted potentials: its symbol
    and last columns are shifted once, when the node is built, and its
    end-marker target is not. A node is only built from its parent: a
    child ``x + a`` adds column ``a`` to the prefix masses (rows below
    ``K``, never shifted; the float additions ``prefix_log_prob`` performs),
    so each new prefix costs one ``log_next`` row per live expert. A
    direct query walks forward from the root and builds each missing
    level from its parent. The samplers :meth:`prefetch` each round's new
    prefixes, so an expert is asked once per round for all of them
    (``log_next_many``). Nodes are read-only once built: an
    :class:`ExpertProposal` hands out its rows as views. One instance can
    be shared across runs over the same (spec, panel), the step-local
    baseline included.
    """

    def __init__(self, spec: EnsembleSpec, panel: ExpertPanel, epsilon: float | None = None):
        if epsilon is not None and not 0.0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
        self.spec = spec
        self.panel = panel
        self.alphabet = panel.alphabet
        self.epsilon = epsilon
        self._log_eps = math.log(epsilon) if epsilon is not None else None
        self._nodes: dict[str, np.ndarray] = {}

    def _node(self, x: str) -> np.ndarray:
        node = self._nodes.get(x)
        if node is None:
            # Walk forward from the root, building each missing level from
            # its parent: a loop, so no query recurses.
            self.alphabet.check_string(x)
            for end in range(len(x) + 1):
                if x[:end] not in self._nodes:
                    self._build([x[:end]])
            node = self._nodes[x]
        return node

    def prefetch(self, prefixes) -> None:
        """Build together the nodes of ``prefixes`` that are missing but
        whose parent is built, as every new prefix of a sampler round is:
        one ``log_next_many`` per expert, so one request per served expert.
        Any other prefix is left to be built when it is queried."""
        nodes = self._nodes
        new = [x for x in dict.fromkeys(prefixes) if x not in nodes and (not x or x[:-1] in nodes)]
        if new:
            self.panel.alphabet.check_string("".join(x[-1:] for x in new))
            self._build(new)

    def _build(self, xs: list[str]) -> None:
        """Build the nodes of ``xs``, each the root or a built node's child,
        with one ``log_next_many`` per expert live at any of them."""
        k = len(self.panel)
        index = self.alphabet.index
        nodes = np.full((len(xs), k + 1, self.alphabet.size + 2), LOG_ZERO)
        masses = nodes[:, :k, -1]
        for x, mass in zip(xs, masses):
            if x:
                parent = self._nodes[x[:-1]]
                np.add(parent[:-1, -1], parent[:-1, index[x[-1]]], out=mass)
            else:
                mass[:] = 0.0
        # Liveness is tested once per batch: one flag list per expert.
        for j, (model, live) in enumerate(zip(self.panel, (masses != LOG_ZERO).T.tolist())):
            if all(live):
                nodes[:, j, :-1] = model.log_next_many(xs)
            elif any(live):
                at = [i for i, alive in enumerate(live) if alive]
                nodes[at, j, :-1] = model.log_next_many([xs[i] for i in at])
        # One combine per batch: each node's prefix-plus-row and mass columns.
        columns = np.empty((k, len(xs), nodes.shape[2]))
        np.add(nodes[:, :k, :-1].transpose(1, 0, 2), masses.T[:, :, None], out=columns[:, :, :-1])
        columns[:, :, -1] = masses.T
        nodes[:, k] = self.spec.combine_columns(columns.reshape(k, -1)).reshape(len(xs), -1)
        if self._log_eps is not None:
            # The prefix potentials are shifted here, once; the end-marker target never.
            shifted = np.r_[: self.alphabet.eos_index, -1]
            nodes[:, k, shifted] = np.logaddexp(nodes[:, k, shifted], self._log_eps)
        for x, node in zip(xs, nodes):
            node = node.copy()  # a view of the batch would hold more heap per node
            node.flags.writeable = False
            self._nodes[x] = node

    def log_value(self, x: str) -> float:
        """Shaping potential of the prefix ``x`` (shifted if configured)."""
        return float(self._node(x)[-1, -1])

    def log_target(self, x: str) -> float:
        """Unnormalized log target of the complete string ``x`` (never shifted)."""
        return float(self._node(x)[-1, self.panel.alphabet.eos_index])

    def log_row(self, x: str) -> np.ndarray:
        node = self._node(x)
        if node[-1, -1] == LOG_ZERO:
            raise DeadPrefixError(f"prefix {x!r} has zero shaping potential")
        return node[-1, :-1] - node[-1, -1]

    def log_local_row(self, x: str) -> np.ndarray:
        """The step-local row at ``x``: the operator on the experts' raw
        ``log_next(x)`` rows, normalized (no prefix reweighting).

        Computed from the node on every call (a run reads each prefix
        once); raises DeadPrefixError when the combination is identically
        zero.
        """
        combined = self.spec.combine_columns(self._node(x)[:-1, :-1])
        try:
            return log_normalize(combined)
        except ValueError:
            raise DeadPrefixError(f"local combination is identically zero at {x!r}")


class OracleShaping:
    """Shaping by the exact prefix target of an enumerated table.

    With this shaping the next-step row is the true conditional of the
    target, so the locally optimal proposal reproduces the normalizer
    with zero weight variance. The table knows no string longer than its
    ``max_len``, so symbol entries at that length are zero: over an
    incomplete table, a run estimates Z within the table's horizon.
    """

    def __init__(self, table):
        self.table = table
        self.alphabet = table.alphabet

    def prefetch(self, prefixes) -> None:
        """Nothing to fetch: the rows come from the table."""

    def log_value(self, x: str) -> float:
        return self.table.log_prefix_target(x)

    def log_target(self, x: str) -> float:
        return self.table.log_value(x)

    def log_row(self, x: str) -> np.ndarray:
        table = self.table
        base = table.log_prefix_target(x)
        if base == LOG_ZERO:
            raise DeadPrefixError(f"prefix {x!r} has zero target mass")
        within = len(x) < table.max_len
        return np.array(
            [table.log_prefix_target(x + s) if within else LOG_ZERO for s in self.alphabet.symbols]
            + [table.log_value(x)]
        ) - base


# -- proposals ----------------------------------------------------------


def _optimal_row(x: str, shaping_row: np.ndarray) -> np.ndarray:
    """The locally optimal proposal's row at ``x``: the shaping row read
    at ``x``, normalized to sum 1."""
    try:
        return log_normalize(shaping_row)
    except ValueError:
        raise DeadPrefixError(f"every continuation of {x!r} has zero potential")


class OptimalProposal(SequenceModel):
    """The locally optimal proposal: the shaping row normalized to sum 1.

    Each row is normalized from the shaping when it is read and kept
    nowhere (the prefix node is the one store), so one instance can be
    shared across runs. ``sis``/``smc`` over the proposal's own shaping
    normalize the shaping row they read for the weights instead of
    reading it again here. As a sequence model (``log_next`` is
    ``log_row``) it is the i.i.d. proposal of :func:`importance_sample`.
    """

    def __init__(self, shaping):
        self.shaping = shaping
        self.alphabet = shaping.alphabet

    def log_next(self, context: str) -> np.ndarray:
        return self.log_row(context)

    def log_row(self, x: str) -> np.ndarray:
        return _optimal_row(x, self.shaping.log_row(x))


class ExpertProposal(SequenceModel):
    """Propose from expert ``k``'s own conditionals: row ``k`` of the
    prefix nodes of a :class:`PrefixPotentialShaping`, so no expert is
    asked for a row twice. As a sequence model (``log_next`` is
    ``log_row``) it is the i.i.d. proposal of :func:`importance_sample`.
    """

    def __init__(self, shaping: PrefixPotentialShaping, k: int):
        self.shaping = shaping
        self.k = k
        self.alphabet = shaping.alphabet

    def log_next(self, context: str) -> np.ndarray:
        return self.log_row(context)

    def log_row(self, x: str) -> np.ndarray:
        node = self.shaping._node(x)
        if node[self.k, -1] == LOG_ZERO:
            raise DeadPrefixError(f"prefix {x!r} has zero mass under expert {self.k}")
        return node[self.k, :-1]


def make_shaping(
    spec: EnsembleSpec, panel: ExpertPanel, config: SamplerConfig
) -> PrefixPotentialShaping:
    eps = config.epsilon if config.shaping == "epsilon-shift" else None
    return PrefixPotentialShaping(spec, panel, epsilon=eps)


def make_proposal(config: SamplerConfig, shaping):
    """The configured proposal over ``shaping``; ``"expert:<k>"`` needs a
    :class:`PrefixPotentialShaping` and has ``k`` bounds-checked."""
    if config.proposal == "optimal":
        return OptimalProposal(shaping)
    if not isinstance(shaping, PrefixPotentialShaping):
        raise ValueError(
            f"proposal {config.proposal!r} needs a PrefixPotentialShaping, "
            f"got {type(shaping).__name__}"
        )
    k = int(config.proposal.partition(":")[2])
    if k >= len(shaping.panel):
        raise ValueError(f"proposal {config.proposal!r}: panel has {len(shaping.panel)} experts")
    return ExpertProposal(shaping, k)


def one_step_weight_variance(log_potentials, log_proposal) -> float:
    """Exact variance of a single-step importance weight.

    Enumerates symbols plus the end marker:
    ``Var = sum psi(y)^2 / r(y) - (sum psi(y))^2`` for potential row psi
    and normalized proposal row r (both log domain). Infinite when the
    proposal misses potential support.
    """
    psi = np.exp(np.asarray(log_potentials, dtype=float))
    r = np.exp(np.asarray(log_proposal, dtype=float))
    if abs(r.sum() - 1.0) > 1e-9:
        raise ValueError("proposal row must be normalized")
    support = psi > 0.0
    if (r[support] == 0.0).any():
        return math.inf
    mean = psi.sum()
    second = (psi[support] ** 2 / r[support]).sum()
    return float(second - mean**2)


# -- samplers -----------------------------------------------------------


def _finalize(
    xs: list[str],
    log_w: np.ndarray,
    completed: np.ndarray,
    log_proposal: np.ndarray,
    diagnostics: Diagnostics,
    debug_target=None,
) -> Estimate:
    log_z_hat = float(logsumexp(log_w)) - math.log(len(xs))
    # Resampling breaks the telescoping the check asserts.
    if debug_target is not None and not diagnostics.resample_rounds:
        for i in np.flatnonzero(completed & (log_w != LOG_ZERO)).tolist():
            w = float(log_w[i])
            want = debug_target(xs[i]) - float(log_proposal[i])
            if abs(w - want) > 1e-9:
                raise AssertionError(
                    f"weight decomposition violated at {xs[i]!r}: "
                    f"{w!r} vs target/proposal {want!r}"
                )
    return Estimate(xs, log_w, completed, log_proposal, log_z_hat, diagnostics)


def _ancestors(log_w: np.ndarray, seed: int, round_no: int) -> tuple[np.ndarray, float]:
    """Multinomial resampling: the ancestor of each new particle, and the
    weight every new particle carries (the preserved total over M)."""
    m = len(log_w)
    log_total = logsumexp(log_w)
    probs = np.exp(log_w - log_total)
    probs = probs / probs.sum()
    # One inverse-CDF draw per particle from the round's resampling stream.
    key = (_STREAM_RESAMPLE, round_no)
    u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).random(m)
    return draw_indices(probs, u), float(log_total) - math.log(m)


class _Particles(NamedTuple):
    """The round loop's population, one entry per particle. Resampling
    permutes it in place, so one tuple serves a whole run."""

    xs: list[str]
    log_w: np.ndarray
    log_proposal: np.ndarray
    completed: np.ndarray
    active: np.ndarray


def _resample(pop: _Particles, seed: int, round_no: int) -> None:
    """Multinomial resampling of ``pop`` in place: each particle takes its
    ancestor's entries, and every weight becomes the preserved total over
    M (:func:`_ancestors`)."""
    idx, log_w = _ancestors(pop.log_w, seed, round_no)
    pop.xs[:] = [pop.xs[i] for i in idx.tolist()]
    pop.log_w[:] = log_w
    for column in (pop.log_proposal, pop.completed, pop.active):
        column[:] = column[idx]


def _draw_group(pop: _Particles, ids: list[int], u, children: list[str], probs, row,
                shaping_row, at_horizon: bool) -> int:
    """The particles ``ids`` on one prefix draw from its proposal ``row``
    (``probs`` linear) with uniforms ``u[ids]``; returns how many were
    truncated. ``children`` is the prefix extended by each symbol, then
    the prefix itself, which a particle drawing the end marker keeps."""
    at = np.array(ids)
    idx = draw_indices(probs, u[at])
    drawn = row[idx]
    pop.log_proposal[at] += drawn
    log_w = pop.log_w
    if shaping_row is not None:
        log_w[at] += np.subtract(shaping_row[idx], drawn, out=drawn)
    stop = idx == len(children) - 1
    pop.completed[at[stop]] = True
    xs = pop.xs
    for i, j in zip(ids, idx.tolist()):
        xs[i] = children[j]
    truncated = 0
    if at_horizon:
        grown = at[~stop]
        truncated = int(np.count_nonzero(log_w[grown] != LOG_ZERO))
        log_w[grown] = LOG_ZERO
    pop.active[at] = ~stop & (log_w[at] != LOG_ZERO)
    return truncated


def _sequential(alphabet, particles: int, max_len: int, doubles, proposal_row, shaping=None,
                resample_threshold: float = 0.0, seed: int = 0, debug_target=None,
                prefetch=None) -> Estimate:
    """The round loop of every sampler: each round, ``doubles(round, live)``
    gives every live particle a uniform, ``prefetch`` (if given) gets the
    round's distinct prefixes before any row is read, and the particles on
    each distinct prefix draw from ``proposal_row`` at once; with
    ``proposal_row`` None they draw from the optimal proposal, the shaping
    row normalized, so each prefix's shaping row is read once. With a
    ``shaping``, weights take its per-step ratios and an ESS below
    ``resample_threshold * particles`` resamples. Without one the draws
    are i.i.d., weights stay 0 unless truncated, and a dead prefix raises
    the error of the lowest-index particle that met one. Strings of up to
    ``max_len`` symbols complete: a particle that draws a symbol at length
    ``max_len`` is truncated (zero weight, counted in ``truncated``), so
    rounds run from 0 to ``max_len``. A round's groups and index arrays die
    with it, before the next round derives its streams (a heap peak)."""
    eos = alphabet.eos_index
    symbols = alphabet.symbols
    init = shaping.log_value("") if shaping is not None else 0.0
    xs = [""] * particles
    log_w = np.full(particles, init, dtype=float)
    log_proposal = np.zeros(particles)
    active = np.full(particles, init > LOG_ZERO)
    completed = np.zeros(particles, dtype=bool)
    pop = _Particles(xs, log_w, log_proposal, completed, active)
    u = np.empty(particles)
    diag = Diagnostics()
    dead: dict[int, DeadPrefixError] = {}
    while active.any():
        live = np.flatnonzero(active)
        u[live] = doubles(diag.rounds, live)
        groups: dict[str, list[int]] = {}
        for i in live.tolist():
            groups.setdefault(xs[i], []).append(i)
        if prefetch is not None:
            prefetch(groups)
        for x, ids in groups.items():
            try:
                shaping_row = shaping.log_row(x) if shaping is not None else None
                row = proposal_row(x) if proposal_row is not None else _optimal_row(x, shaping_row)
            except DeadPrefixError as exc:
                dead[ids[0]] = exc
                log_w[ids] = LOG_ZERO
                active[ids] = False
                continue
            probs = np.exp(row)
            at_horizon = len(x) >= max_len
            if len(ids) == 1:
                # One particle: scalar updates, cheaper than fancy indexing.
                i = ids[0]
                j = int(draw_indices(probs, u[i]))
                log_proposal[i] += row[j]
                if shaping_row is not None:
                    log_w[i] += shaping_row[j] - row[j]
                completed[i] = done = j == eos
                if not done:
                    xs[i] = x + symbols[j]
                    if at_horizon and log_w[i] != LOG_ZERO:
                        log_w[i] = LOG_ZERO
                        diag.truncated += 1
                active[i] = not done and log_w[i] != LOG_ZERO
                continue
            children = [x + s for s in symbols]
            children.append(x)
            diag.truncated += _draw_group(
                pop, ids, u, children, probs, row, shaping_row, at_horizon
            )
        del groups, ids
        if shaping is not None:
            try:
                ess_val = ess(log_w)
            except DegenerateRunError:  # every weight is zero: nothing to resample
                ess_val = None
            diag.ess_trace.append(0.0 if ess_val is None else ess_val)
            if ess_val is not None and ess_val < resample_threshold * particles:
                _resample(pop, seed, diag.rounds)
                diag.resample_rounds.append(diag.rounds)
        diag.rounds += 1
    if dead and shaping is None:
        raise dead[min(dead)]
    return _finalize(xs, log_w, completed, log_proposal, diag, debug_target)


def _shaped(spec, panel, config: SamplerConfig, shaping, proposal, resample_threshold: float):
    """``sis``/``smc``: round ``r`` draws the first double of stream
    ``(seed, 0, r, m)`` for particle ``m``."""
    if shaping is None:
        shaping = make_shaping(spec, panel, config)
    if proposal is None:
        proposal = make_proposal(config, shaping)
    own_optimal = isinstance(proposal, OptimalProposal) and proposal.shaping is shaping
    return _sequential(
        panel.alphabet, config.particles, config.max_len,
        streams.particle_doubles(
            streams.pool(config.seed, _STREAM_PARTICLE), config.particles, config.max_len + 1
        ),
        None if own_optimal else proposal.log_row, shaping, resample_threshold, config.seed,
        shaping.log_target if config.debug_check_weights else None, shaping.prefetch,
    )


def sis(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    config: SamplerConfig,
    shaping=None,
    proposal=None,
) -> Estimate:
    """Sequential importance sampling: extend, reweight, never resample."""
    return _shaped(spec, panel, config, shaping, proposal, resample_threshold=0.0)


def smc(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    config: SamplerConfig,
    shaping=None,
    proposal=None,
) -> Estimate:
    """Sequential Monte Carlo: SIS plus multinomial resampling.

    After every extension round the effective sample size of the whole
    population (completed particles included) is tested against
    ``resample_threshold * particles``; below it, the population is
    redrawn from the normalized weights and every weight is reset to the
    preserved total over the particle count.
    """
    return _shaped(spec, panel, config, shaping, proposal, config.resample_threshold)


def _iid(alphabet, log_row, particles: int, max_len: int, seed: int, prefetch=None) -> Estimate:
    """I.i.d. draws from ``log_row``: particle ``m`` reads the successive
    doubles of stream ``(seed, 2, m)``, the ones ``sample_with_log_prob``
    would draw for it."""
    if particles < 1:
        raise ValueError("particles must be a positive integer")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    return _sequential(
        alphabet, particles, max_len,
        streams.iid_doubles(streams.pool(seed, _STREAM_IID), particles), log_row,
        prefetch=prefetch,
    )


def importance_sample(
    log_target: Callable[[str], float],
    proposal_model: SequenceModel,
    particles: int,
    max_len: int,
    seed: int = 0,
    prefetch: Callable[[list[str]], None] | None = None,
) -> Estimate:
    """Plain importance sampling with i.i.d. ancestral proposal draws.

    Weights are target over proposal on complete strings; truncated
    draws get zero weight and are counted in the diagnostics. ``prefetch``,
    if given, gets each round's distinct prefixes before their proposal
    rows are read (the ``prefetch`` of the shaping an
    :class:`OptimalProposal` or :class:`ExpertProposal` reads).
    """
    draws = _iid(
        proposal_model.alphabet, proposal_model.log_next, particles, max_len, seed, prefetch
    )
    log_w = draws.log_w
    for i in np.flatnonzero(draws.completed).tolist():
        log_w[i] = log_target(draws.xs[i]) - draws.log_proposal[i]
    draws.diagnostics.ess_trace.append(ess(log_w) if logsumexp(log_w) > LOG_ZERO else 0.0)
    return _finalize(draws.xs, log_w, draws.completed, draws.log_proposal, draws.diagnostics)


def ensemble_log_target(spec: EnsembleSpec, panel: ExpertPanel) -> Callable[[str], float]:
    """The unnormalized log target of a (spec, panel) pair as a callable."""
    return lambda x: log_string_potential(spec, panel, x)


def local_sample(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    particles: int,
    max_len: int,
    seed: int = 0,
    shaping: PrefixPotentialShaping | None = None,
) -> Estimate:
    """The biased token-level baseline: combine conditionals, normalize, sample.

    At each step the operator is applied to the experts' next-symbol
    conditional rows (no prefix reweighting), the result is normalized,
    and a symbol is drawn — the step-local approximation that motivates
    sampling the global target instead. Experts whose prefix mass has
    hit zero contribute zero rows; an all-zero combined row raises
    DeadPrefixError. The rows are read from the prefix nodes of
    ``shaping`` (a :class:`PrefixPotentialShaping` over ``(spec, panel)``;
    a fresh one by default), so runs sharing it share the expert rows.

    Returns an :class:`Estimate` whose ``log_proposal`` is each draw's
    local score, with weight 1 on completed draws and 0 on truncated ones.
    """
    if shaping is None:
        shaping = PrefixPotentialShaping(spec, panel)
    return _iid(panel.alphabet, shaping.log_local_row, particles, max_len, seed, shaping.prefetch)
