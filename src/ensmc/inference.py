"""Particle samplers for unnormalized string targets.

The samplers draw strings symbol-by-symbol from a proposal while
accumulating importance weights against the target, guided by a shaping
function (an inexpensive prefix potential whose per-step ratios steer
the proposal before the full string is scored). Weight bookkeeping is
entirely in log domain; ``float('-inf')`` marks dead particles, which
contribute zero mass and are never extended.

Randomness: every draw comes from a stream derived from the run seed by
counter-based key splitting — particle draws are keyed by
``(round, particle index)`` and resampling by ``(round,)`` — so runs are
reproducible bit-for-bit, adding particles does not perturb existing
streams, and a resampling pass that never fires leaves the sequential
sampler's draws untouched. The streams are numpy's
``default_rng(SeedSequence(seed, spawn_key=key))``, derived by
:mod:`ensmc.streams` without building a generator per particle.

Population: the sequential samplers hold the particles as arrays (the
prefix strings, weights, proposal log probabilities and status flags).
Each round derives the uniforms of all active particles at once and
draws once per distinct prefix: particles on one prefix share its
shaping and proposal rows and one cumulative sum. ``Estimate.particles``
is built when the run ends.

Degeneracy: a finished run whose particles all carry zero weight still
returns an Estimate (its normalizer estimate is exactly zero, which can
be the honest answer); operations that need normalized weights raise
DegenerateRunError instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

# ``log_potential_columns`` is no longer called here; it stays a module
# attribute because the layer tracer in bench/tracing.py wraps it.
from .ensemble import (  # noqa: F401
    EnsembleSpec,
    ExpertPanel,
    log_potential_columns,
    log_string_potential,
)
from .errors import DeadPrefixError, DegenerateRunError, UndefinedConditionalError
from . import streams
from .lmcore import (
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
class Particle:
    """One weighted string under construction."""

    x: str
    log_w: float
    active: bool
    completed: bool = False
    #: Accumulated proposal log probability of the drawn path (diagnostic;
    #: after resampling it no longer matches the weight decomposition).
    log_proposal: float = 0.0


@dataclass
class Diagnostics:
    ess_trace: list[float] = field(default_factory=list)
    resample_rounds: list[int] = field(default_factory=list)
    truncated: int = 0
    rounds: int = 0


@dataclass
class Estimate:
    """Weighted particle population plus the normalizer estimate.

    ``log_z_hat`` is the log of the plain weight mean, so
    ``exp(log_z_hat)`` equals ``mean(exp(log_w))``.
    """

    particles: list[Particle]
    log_z_hat: float
    diagnostics: Diagnostics

    def log_weights(self) -> np.ndarray:
        return np.array([p.log_w for p in self.particles])

    def normalized_weights(self) -> np.ndarray:
        lw = self.log_weights()
        total = logsumexp(lw)
        if total == LOG_ZERO:
            raise DegenerateRunError(
                "all particles carry zero weight", diagnostics=self.diagnostics
            )
        w = np.exp(lw - total)
        return w / w.sum()

    def distribution(self) -> dict[str, float]:
        """Weighted empirical distribution over the particle strings."""
        out: dict[str, float] = {}
        for p, w in zip(self.particles, self.normalized_weights()):
            if w > 0.0:
                out[p.x] = out.get(p.x, 0.0) + float(w)
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
        if not isinstance(self.particles, int) or self.particles < 1:
            raise ValueError("particles must be a positive integer")
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ValueError("resample_threshold must lie in (0, 1]")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.shaping not in ("prefix", "epsilon-shift"):
            raise ValueError(f"unknown shaping {self.shaping!r}")
        if self.shaping == "epsilon-shift" and not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        if self.proposal != "optimal":
            kind, _, idx = self.proposal.partition(":")
            if kind != "expert" or not idx.isdigit():
                raise ValueError(f"unknown proposal {self.proposal!r}")


# -- shaping functions --------------------------------------------------


class PrefixNode(NamedTuple):
    """Everything the samplers need at one prefix ``x``, built once.

    ``block`` is one ``(K + 1, |Σ| + 1)`` log-domain array. Row ``k < K``
    is expert ``k``'s prefix mass at ``x`` plus its ``log_next(x)`` row
    (all ``LOG_ZERO`` once the expert's prefix mass is zero), so entry
    ``a`` is the expert's prefix mass at ``x + a`` and the end-marker
    entry its complete-string mass at ``x``. Row ``K`` is the operator
    applied down those columns. ``base`` is the operator applied to the
    experts' prefix masses at ``x`` (the prefix potential).
    """

    block: np.ndarray
    base: float


class PrefixPotentialShaping:
    """Default shaping: the ensemble operator applied to expert prefix masses.

    ``log_row(x)`` is the next-step shaping distribution over symbols
    plus the end marker; the end-marker entry carries the complete-string
    target over the prefix potential, so the per-step ratios telescope to
    exactly target/proposal. With ``epsilon`` set, prefix potentials are
    repaired to |value| + epsilon (the target in the end-marker numerator
    is never shifted), which restores an escape route through prefixes a
    consensus operator annihilated.

    Prefixes are cached as a trie of :class:`PrefixNode`: a child
    ``x + a`` reads its experts' prefix masses from column ``a`` of the
    parent's block (the same float additions ``prefix_log_prob``
    performs), so each new prefix costs one ``log_next`` row per live
    expert. A prefix whose parent was never built (a direct query) walks
    the experts' prefixes once instead. One instance can be shared
    across runs over the same (spec, panel).
    """

    def __init__(self, spec: EnsembleSpec, panel: ExpertPanel, epsilon: float | None = None):
        if epsilon is not None and not epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        self.spec = spec
        self.panel = panel
        self.epsilon = epsilon
        self._log_eps = math.log(epsilon) if epsilon is not None else None
        self._nodes: dict[str, PrefixNode] = {}

    def _node(self, x: str) -> PrefixNode:
        node = self._nodes.get(x)
        if node is not None:
            return node
        k = len(self.panel)
        parent = self._nodes.get(x[:-1]) if x and x[-1] in self.panel.alphabet else None
        if parent is not None:
            prefixes = parent.block[:k, self.panel.alphabet.index[x[-1]]].copy()
        elif x:
            prefixes = np.array([prefix_log_prob(m, x) for m in self.panel])
        else:
            prefixes = np.zeros(k)
        block = np.full((k + 1, self.panel.alphabet.size + 1), LOG_ZERO)
        live = prefixes != LOG_ZERO
        for j, model in enumerate(self.panel):
            if live[j]:
                block[j] = prefixes[j] + model.log_next(x)
        if live.any():
            block[k] = self.spec.combine_columns(block[:k])
        node = PrefixNode(block, self.spec.combine(prefixes))
        self._nodes[x] = node
        return node

    def _shift(self, log_v: float) -> float:
        if self._log_eps is None:
            return log_v
        return float(np.logaddexp(log_v, self._log_eps))

    def log_value(self, x: str) -> float:
        """Shaping potential of the prefix ``x`` (shifted if configured)."""
        return self._shift(self._node(x).base)

    def log_target(self, x: str) -> float:
        """Unnormalized log target of the complete string ``x`` (never shifted)."""
        return float(self._node(x).block[-1, self.panel.alphabet.eos_index])

    def log_string_target(self, x: str) -> float:
        """The target of ``x`` as the operator on the experts' string masses.

        Bit-identical to :func:`~ensmc.ensemble.log_string_potential`; it
        may differ from :meth:`log_target` in the last bits, because the
        operator's reductions round differently on a single column.
        """
        return self.spec.combine(self._node(x).block[:-1, self.panel.alphabet.eos_index])

    def log_row(self, x: str) -> np.ndarray:
        node = self._node(x)
        cols = node.block[-1]
        denom = self._shift(node.base)
        if denom == LOG_ZERO:
            raise DeadPrefixError(f"prefix {x!r} has zero shaping potential")
        row = cols - denom
        if self._log_eps is not None:
            eos = self.panel.alphabet.eos_index
            row = np.concatenate(
                [np.logaddexp(cols[:eos], self._log_eps) - denom, row[eos:]]
            )
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


class ShapingProposalModel(SequenceModel):
    """The locally optimal proposal packaged as a sequence model.

    Useful as the i.i.d. proposal for plain importance sampling; its
    rows are normalized by construction.
    """

    def __init__(self, shaping, panel: ExpertPanel):
        self.alphabet = panel.alphabet
        self._proposal = OptimalProposal(shaping)

    def log_next(self, context: str) -> np.ndarray:
        try:
            return self._proposal.log_row(context)
        except DeadPrefixError as exc:
            raise UndefinedConditionalError(str(exc))


def make_shaping(
    spec: EnsembleSpec, panel: ExpertPanel, config: SamplerConfig
) -> PrefixPotentialShaping:
    eps = config.epsilon if config.shaping == "epsilon-shift" else None
    return PrefixPotentialShaping(spec, panel, epsilon=eps)


def proposal_expert(panel: ExpertPanel, config: SamplerConfig) -> SequenceModel:
    """The expert an ``"expert:<k>"`` proposal names, with ``k`` bounds-checked."""
    k = int(config.proposal.partition(":")[2])
    if k >= len(panel):
        raise ValueError(f"proposal {config.proposal!r}: panel has {len(panel)} experts")
    return panel[k]


def make_proposal(panel: ExpertPanel, config: SamplerConfig, shaping):
    if config.proposal == "optimal":
        return OptimalProposal(shaping)
    return ExpertProposal(proposal_expert(panel, config))


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
    particles: list[Particle], diagnostics: Diagnostics, debug_target=None
) -> Estimate:
    lw = np.array([p.log_w for p in particles])
    log_z_hat = float(logsumexp(lw)) - math.log(len(particles))
    if debug_target is not None:
        for p in particles:
            if p.completed and p.log_w != LOG_ZERO:
                want = debug_target(p.x) - p.log_proposal
                if abs(p.log_w - want) > 1e-9:
                    raise AssertionError(
                        f"weight decomposition violated at {p.x!r}: "
                        f"{p.log_w!r} vs target/proposal {want!r}"
                    )
    return Estimate(particles=particles, log_z_hat=log_z_hat, diagnostics=diagnostics)


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


def _resample(particles: list[Particle], seed: int, round_no: int) -> list[Particle]:
    """:func:`_ancestors` applied to a list of particles."""
    idx, new_log_w = _ancestors(np.array([p.log_w for p in particles]), seed, round_no)
    return [replace(particles[i], log_w=new_log_w) for i in idx]


def _sequential(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    config: SamplerConfig,
    shaping,
    proposal,
    resample: bool,
) -> Estimate:
    alphabet = panel.alphabet
    eos = alphabet.eos_index
    symbols = alphabet.symbols
    if shaping is None:
        shaping = make_shaping(spec, panel, config)
    if proposal is None:
        proposal = make_proposal(panel, config, shaping)
    m_total = config.particles
    init = shaping.log_value("")
    xs = [""] * m_total
    log_w = np.full(m_total, init, dtype=float)
    log_proposal = np.zeros(m_total)
    active = np.full(m_total, init > LOG_ZERO)
    completed = np.zeros(m_total, dtype=bool)
    particle_streams = streams.pool(config.seed, _STREAM_PARTICLE)
    u = np.empty(m_total)
    diag = Diagnostics()
    resampled = False
    round_no = 0
    while active.any():
        live = np.flatnonzero(active)
        u[live] = streams.uniforms(particle_streams.extend(round_no), live)
        groups: dict[str, list[int]] = {}
        for i in live.tolist():
            groups.setdefault(xs[i], []).append(i)
        for x, ids in groups.items():
            try:
                shaping_row = shaping.log_row(x)
                proposal_row = proposal.log_row(x)
            except DeadPrefixError:
                log_w[ids] = LOG_ZERO
                active[ids] = False
                continue
            probs = np.exp(proposal_row)
            at_horizon = len(x) + 1 >= config.max_len
            if len(ids) == 1:
                # One particle: scalar updates, cheaper than fancy indexing.
                i = ids[0]
                j = int(draw_indices(probs, u[i]))
                log_proposal[i] += proposal_row[j]
                log_w[i] += shaping_row[j] - proposal_row[j]
                if j == eos:
                    active[i] = False
                    completed[i] = True
                    continue
                xs[i] = x + symbols[j]
                if log_w[i] == LOG_ZERO:
                    active[i] = False
                elif at_horizon:
                    log_w[i] = LOG_ZERO
                    active[i] = False
                    diag.truncated += 1
                continue
            ids = np.array(ids)
            idx = draw_indices(probs, u[ids])
            log_proposal[ids] += proposal_row[idx]
            log_w[ids] += shaping_row[idx] - proposal_row[idx]
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
        alive_mass = logsumexp(log_w) > LOG_ZERO
        ess_val = ess(log_w) if alive_mass else 0.0
        diag.ess_trace.append(ess_val)
        if resample and alive_mass and ess_val < config.resample_threshold * m_total:
            idx, new_log_w = _ancestors(log_w, config.seed, round_no)
            xs = [xs[i] for i in idx.tolist()]
            log_w = np.full(m_total, new_log_w)
            log_proposal = log_proposal[idx]
            active = active[idx]
            completed = completed[idx]
            diag.resample_rounds.append(round_no)
            resampled = True
        round_no += 1
    diag.rounds = round_no
    particles = [
        Particle(x=x, log_w=w, active=a, completed=c, log_proposal=lp)
        for x, w, a, c, lp in zip(
            xs, log_w.tolist(), active.tolist(), completed.tolist(), log_proposal.tolist()
        )
    ]
    debug_target = None
    if config.debug_check_weights and not resampled:
        debug_target = shaping.log_target
    return _finalize(particles, diag, debug_target)


def sis(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    config: SamplerConfig,
    shaping=None,
    proposal=None,
) -> Estimate:
    """Sequential importance sampling: extend, reweight, never resample."""
    return _sequential(spec, panel, config, shaping, proposal, resample=False)


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
    return _sequential(spec, panel, config, shaping, proposal, resample=True)


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
    if particles < 1:
        raise ValueError("particles must be a positive integer")
    diag = Diagnostics(rounds=1)
    iid_streams = streams.pool(seed, _STREAM_IID)
    out = []
    for m in range(particles):
        rng = iid_streams.extend(m).generator()
        x, log_r, completed = sample_with_log_prob(proposal_model, rng, max_len)
        if completed:
            log_w = log_target(x) - log_r
        else:
            log_w = LOG_ZERO
            diag.truncated += 1
        out.append(
            Particle(x=x, log_w=log_w, active=False, completed=completed, log_proposal=log_r)
        )
    try:
        diag.ess_trace.append(ess([p.log_w for p in out]))
    except DegenerateRunError:
        diag.ess_trace.append(0.0)
    return _finalize(out, diag)


def ensemble_log_target(spec: EnsembleSpec, panel: ExpertPanel) -> Callable[[str], float]:
    """The unnormalized log target of a (spec, panel) pair as a callable."""
    return lambda x: log_string_potential(spec, panel, x)


@dataclass(frozen=True)
class LocalSample:
    """One draw from the step-local ensemble baseline."""

    x: str
    completed: bool
    #: Accumulated log probability of the draw under the locally
    #: normalized per-step combination (the baseline's own string score).
    log_local: float


def local_sample(
    spec: EnsembleSpec,
    panel: ExpertPanel,
    particles: int,
    max_len: int,
    seed: int = 0,
) -> list[LocalSample]:
    """The biased token-level baseline: combine conditionals, normalize, sample.

    At each step the operator is applied to the experts' next-symbol
    conditional rows (no prefix reweighting), the result is normalized,
    and a symbol is drawn — the step-local approximation that motivates
    sampling the global target instead. Experts whose prefix mass has
    hit zero contribute zero rows; an all-zero combined row raises
    DeadPrefixError.
    """
    if particles < 1:
        raise ValueError("particles must be a positive integer")
    alphabet = panel.alphabet
    eos = alphabet.eos_index
    memo: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def entry(x: str, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        got = memo.get(x)
        if got is None:
            logmat = np.full((len(panel), eos + 1), LOG_ZERO)
            for k, model in enumerate(panel):
                if live[k]:
                    logmat[k] = model.log_next(x)
            combined = spec.combine_columns(logmat)
            try:
                local_row = log_normalize(combined)
            except ValueError:
                raise DeadPrefixError(
                    f"local combination is identically zero at {x!r}"
                )
            got = (local_row, logmat)
            memo[x] = got
        return got

    iid_streams = streams.pool(seed, _STREAM_IID)
    out = []
    for m in range(particles):
        rng = iid_streams.extend(m).generator()
        x = ""
        live = np.ones(len(panel), dtype=bool)
        log_local = 0.0
        while True:
            local_row, logmat = entry(x, live)
            idx = draw_index(rng, np.exp(local_row))
            log_local += local_row[idx]
            if idx == eos:
                out.append(LocalSample(x=x, completed=True, log_local=log_local))
                break
            live = live & ~np.isneginf(logmat[:, idx])
            x += alphabet.symbols[idx]
            if len(x) >= max_len:
                out.append(LocalSample(x=x, completed=False, log_local=log_local))
                break
    return out
