"""Sequential Monte Carlo and importance samplers for unnormalized string
targets.

The samplers draw strings symbol-by-symbol from a proposal while
accumulating importance weights against the target, guided by a shaping
function (an inexpensive prefix potential whose per-step ratios steer
the proposal before the full string is scored). Weight bookkeeping is
entirely in log domain; ``float('-inf')`` marks dead particles, which
contribute zero mass and are never extended.

Randomness: every draw comes from a stream derived from the run seed by
counter-based key splitting — ``sis``/``smc`` draws are keyed by ``(round,
particle index)`` and resampling by ``(round,)``; ``is``/``local`` draw
i.i.d., particle ``m`` from stream ``(m,)`` — so runs are reproducible
bit-for-bit, adding particles does not perturb existing streams, and an
unfired resampling pass leaves the draws untouched. The streams are numpy's
``default_rng(SeedSequence(seed, spawn_key=key))``, via :mod:`ensmc.streams`.

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
from typing import Callable

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
from .errors import DeadPrefixError, DegenerateRunError, UndefinedConditionalError
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


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The generator ``default_rng(SeedSequence(seed, spawn_key=key))``."""
    return streams.pool(seed, *key).generator()


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
        if self.shaping == "epsilon-shift" and not self.epsilon > 0.0:
            reject("epsilon", "> 0")
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
    ``x``) and, in the last column, the prefix potential of ``x``. A node
    is only built from its parent: a child ``x + a`` adds column ``a`` to
    the prefix masses (the float additions ``prefix_log_prob`` performs),
    so each new prefix costs one ``log_next`` row per live expert, and a
    direct query first builds the missing ancestors, root first. One
    instance can be shared across runs over the same (spec, panel),
    the step-local baseline included.
    """

    def __init__(self, spec: EnsembleSpec, panel: ExpertPanel, epsilon: float | None = None):
        if epsilon is not None and not epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        self.spec = spec
        self.panel = panel
        self.epsilon = epsilon
        self._log_eps = math.log(epsilon) if epsilon is not None else None
        self._nodes: dict[str, np.ndarray] = {}
        self._local_rows: dict[str, np.ndarray] = {}

    def _node(self, x: str) -> np.ndarray:
        node = self._nodes.get(x)
        if node is not None:
            return node
        # Build forward from the longest cached proper prefix (from a new
        # root when none is cached): a loop, so no query recurses.
        t = len(x) - 1
        while t >= 0 and x[:t] not in self._nodes:
            t -= 1
        start = max(t, 0)
        self.panel.alphabet.check_string(x[start:])
        node = self._nodes[x[:t]] if t >= 0 else self._build("", np.zeros(len(self.panel)))
        index = self.panel.alphabet.index
        for t in range(start, len(x)):
            node = self._build(x[: t + 1], node[:-1, -1] + node[:-1, index[x[t]]])
        return node

    def _build(self, x: str, prefixes: np.ndarray) -> np.ndarray:
        k = len(self.panel)
        node = np.full((k + 1, self.panel.alphabet.size + 2), LOG_ZERO)
        node[:k, -1] = prefixes
        live = prefixes != LOG_ZERO
        for j, model in enumerate(self.panel):
            if live[j]:
                node[j, :-1] = model.log_next(x)
        if live.any():
            node[k, :-1] = self.spec.combine_columns(prefixes[:, None] + node[:k, :-1])
        node[k, -1] = self.spec.combine(prefixes)
        self._nodes[x] = node
        return node

    def _shift(self, log_v: float) -> float:
        if self._log_eps is None:
            return log_v
        return float(np.logaddexp(log_v, self._log_eps))

    def log_value(self, x: str) -> float:
        """Shaping potential of the prefix ``x`` (shifted if configured)."""
        return self._shift(float(self._node(x)[-1, -1]))

    def log_target(self, x: str) -> float:
        """Unnormalized log target of the complete string ``x`` (never shifted)."""
        return float(self._node(x)[-1, self.panel.alphabet.eos_index])

    def log_string_target(self, x: str) -> float:
        """The target of ``x`` as the operator on the experts' string masses.

        Bit-identical to :func:`~ensmc.ensemble.log_string_potential`; it
        may differ from :meth:`log_target` in the last bits, because the
        operator's reductions round differently on a single column.
        """
        node = self._node(x)
        return self.spec.combine(node[:-1, -1] + node[:-1, self.panel.alphabet.eos_index])

    def log_row(self, x: str) -> np.ndarray:
        node = self._node(x)
        cols = node[-1, :-1]
        denom = self._shift(float(node[-1, -1]))
        if denom == LOG_ZERO:
            raise DeadPrefixError(f"prefix {x!r} has zero shaping potential")
        row = cols - denom
        if self._log_eps is not None:
            eos = self.panel.alphabet.eos_index
            row = np.concatenate(
                [np.logaddexp(cols[:eos], self._log_eps) - denom, row[eos:]]
            )
        return row

    def log_local_row(self, x: str) -> np.ndarray:
        """The step-local row at ``x``: the operator on the experts' raw
        ``log_next(x)`` rows, normalized (no prefix reweighting).

        Memoized per prefix; raises DeadPrefixError when the combination
        is identically zero.
        """
        row = self._local_rows.get(x)
        if row is None:
            combined = self.spec.combine_columns(self._node(x)[:-1, :-1])
            try:
                row = log_normalize(combined)
            except ValueError:
                raise DeadPrefixError(f"local combination is identically zero at {x!r}")
            self._local_rows[x] = row
        return row


class OracleShaping:
    """Shaping by the exact prefix target of an enumerated table.

    With this shaping the next-step row is the true conditional of the
    target, so the locally optimal proposal reproduces the normalizer
    with zero weight variance.
    """

    def __init__(self, table):
        self.table = table

    def log_value(self, x: str) -> float:
        return self.table.log_prefix_target(x)

    def log_target(self, x: str) -> float:
        return self.table.log_value(x)

    def log_row(self, x: str) -> np.ndarray:
        base = self.table.log_prefix_target(x)
        if base == LOG_ZERO:
            raise DeadPrefixError(f"prefix {x!r} has zero target mass")
        alphabet = self.table.alphabet
        row = np.empty(alphabet.size + 1)
        for j, sym in enumerate(alphabet.symbols):
            if len(x) < self.table.max_len:
                row[j] = self.table.log_prefix_target(x + sym)
            elif self.table.is_complete:
                row[j] = LOG_ZERO
            else:
                raise DeadPrefixError(
                    f"cannot shape beyond the horizon of an incomplete table at {x!r}"
                )
        row[alphabet.eos_index] = self.table.log_value(x)
        return row - base


# -- proposals ----------------------------------------------------------


class OptimalProposal:
    """The locally optimal proposal: the shaping row normalized to sum 1.

    Rows are memoized per context (shapings are deterministic), so one
    instance can be shared across runs over the same shaping.
    """

    def __init__(self, shaping):
        self.shaping = shaping
        self._memo: dict[str, np.ndarray] = {}

    def log_row(self, x: str) -> np.ndarray:
        row = self._memo.get(x)
        if row is None:
            try:
                row = log_normalize(self.shaping.log_row(x))
            except ValueError:
                raise DeadPrefixError(
                    f"every continuation of {x!r} has zero potential"
                )
            self._memo[x] = row
        return row


class ExpertProposal:
    """Propose from one expert's own conditionals."""

    def __init__(self, model: SequenceModel):
        self.model = model

    def log_row(self, x: str) -> np.ndarray:
        try:
            return self.model.log_next(x)
        except UndefinedConditionalError as exc:
            raise DeadPrefixError(str(exc))


def make_shaping(
    spec: EnsembleSpec, panel: ExpertPanel, config: SamplerConfig
) -> PrefixPotentialShaping:
    eps = config.epsilon if config.shaping == "epsilon-shift" else None
    return PrefixPotentialShaping(spec, panel, epsilon=eps)


def make_proposal(panel: ExpertPanel, config: SamplerConfig, shaping):
    """The configured proposal; ``"expert:<k>"`` has ``k`` bounds-checked."""
    if config.proposal == "optimal":
        return OptimalProposal(shaping)
    k = int(config.proposal.partition(":")[2])
    if k >= len(panel):
        raise ValueError(f"proposal {config.proposal!r}: panel has {len(panel)} experts")
    return ExpertProposal(panel[k])


class _RowModel(SequenceModel):
    """A row function ``x -> log row`` as a sequence model, the proposal
    :func:`importance_sample` reads. The function's errors pass through
    unchanged, so a dead prefix stays a DeadPrefixError."""

    def __init__(self, alphabet, log_row: Callable[[str], np.ndarray]):
        self.alphabet = alphabet
        self._log_row = log_row

    def log_next(self, context: str) -> np.ndarray:
        return self._log_row(context)


def make_proposal_model(panel: ExpertPanel, config: SamplerConfig, shaping) -> SequenceModel:
    """The configured proposal as a sequence model: the i.i.d. proposal of ``is``."""
    return _RowModel(panel.alphabet, make_proposal(panel, config, shaping).log_row)


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
    idx = draw_indices(probs, _rng(seed, _STREAM_RESAMPLE, round_no).random(m))
    return idx, float(log_total) - math.log(m)


def _sequential(alphabet, particles: int, max_len: int, doubles, proposal_row, shaping=None,
                resample_threshold: float = 0.0, seed: int = 0, debug_target=None) -> Estimate:
    """The round loop of every sampler: each round, ``doubles(round, live)``
    gives every live particle a uniform, and the particles on each distinct
    prefix draw from ``proposal_row`` at once. With a ``shaping``, weights
    take its per-step ratios and an ESS below ``resample_threshold *
    particles`` resamples. Without one the draws are i.i.d., weights stay 0
    unless truncated, and a dead prefix raises the error of the
    lowest-index particle that met one."""
    eos = alphabet.eos_index
    symbols = alphabet.symbols
    init = shaping.log_value("") if shaping is not None else 0.0
    xs = [""] * particles
    log_w = np.full(particles, init, dtype=float)
    log_proposal = np.zeros(particles)
    active = np.full(particles, init > LOG_ZERO)
    completed = np.zeros(particles, dtype=bool)
    u = np.empty(particles)
    diag = Diagnostics()
    dead: dict[int, DeadPrefixError] = {}
    while active.any():
        live = np.flatnonzero(active)
        u[live] = doubles(diag.rounds, live)
        groups: dict[str, list[int]] = {}
        for i in live.tolist():
            groups.setdefault(xs[i], []).append(i)
        for x, ids in groups.items():
            try:
                shaping_row = shaping.log_row(x) if shaping is not None else None
                row = proposal_row(x)
            except DeadPrefixError as exc:
                dead[ids[0]] = exc
                log_w[ids] = LOG_ZERO
                active[ids] = False
                continue
            probs = np.exp(row)
            at_horizon = len(x) + 1 >= max_len
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
            ids = np.array(ids)
            idx = draw_indices(probs, u[ids])
            log_proposal[ids] += row[idx]
            if shaping_row is not None:
                log_w[ids] += shaping_row[idx] - row[idx]
            stop = idx == eos
            completed[ids[stop]] = True
            grown = ids[~stop]
            children = [x + s for s in symbols]
            for i, j in zip(grown.tolist(), idx[~stop].tolist()):
                xs[i] = children[j]
            if at_horizon:
                diag.truncated += int(np.count_nonzero(log_w[grown] != LOG_ZERO))
                log_w[grown] = LOG_ZERO
            active[ids] = ~stop & (log_w[ids] != LOG_ZERO)
        if shaping is not None:
            alive_mass = logsumexp(log_w) > LOG_ZERO
            ess_val = ess(log_w) if alive_mass else 0.0
            diag.ess_trace.append(ess_val)
            if alive_mass and ess_val < resample_threshold * particles:
                idx, new_log_w = _ancestors(log_w, seed, diag.rounds)
                xs = [xs[i] for i in idx.tolist()]
                log_w = np.full(particles, new_log_w)
                log_proposal = log_proposal[idx]
                active = active[idx]
                completed = completed[idx]
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
        proposal = make_proposal(panel, config, shaping)
    particle_streams = streams.pool(config.seed, _STREAM_PARTICLE)
    return _sequential(
        panel.alphabet, config.particles, config.max_len,
        lambda round_no, live: streams.uniforms(particle_streams.extend(round_no), live),
        proposal.log_row, shaping, resample_threshold, config.seed,
        shaping.log_target if config.debug_check_weights else None,
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


def _iid(alphabet, log_row, particles: int, max_len: int, seed: int) -> Estimate:
    """I.i.d. draws from ``log_row``: particle ``m`` reads the successive
    doubles of stream ``(seed, 2, m)``, the ones ``sample_with_log_prob``
    would draw for it."""
    if particles < 1:
        raise ValueError("particles must be a positive integer")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    iid_streams = streams.pool(seed, _STREAM_IID)
    generators = [iid_streams.extend(m).generator() for m in range(particles)]
    return _sequential(
        alphabet, particles, max_len,
        lambda _, live: np.array([generators[i].random() for i in live.tolist()]), log_row,
    )


def importance_sample(
    log_target: Callable[[str], float],
    proposal_model: SequenceModel,
    particles: int,
    max_len: int,
    seed: int = 0,
) -> Estimate:
    """Plain importance sampling with i.i.d. ancestral proposal draws.

    Weights are target over proposal on complete strings; truncated
    draws get zero weight and are counted in the diagnostics.
    """
    draws = _iid(proposal_model.alphabet, proposal_model.log_next, particles, max_len, seed)
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
    return _iid(panel.alphabet, shaping.log_local_row, particles, max_len, seed)
