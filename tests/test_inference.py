import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import GEO_Z, MIS_LOCAL

from ensmc import (
    LOG_ZERO,
    Alphabet,
    DeadPrefixError,
    DegenerateRunError,
    EnsembleSpec,
    Estimate,
    ExpertPanel,
    OptimalProposal,
    OracleShaping,
    Particle,
    PrefixPotentialShaping,
    SamplerConfig,
    SequenceModel,
    TableModel,
    ensemble_log_target,
    enumerate_ensemble,
    ess,
    fit_ngram,
    importance_sample,
    local_sample,
    one_step_weight_variance,
    sis,
    smc,
)
from ensmc.ensemble import log_string_potential
from ensmc.inference import _STREAM_RESAMPLE, _resample, _rng, make_proposal
from ensmc.lmcore import draw_index
from ensmc.logtools import log_normalize, logsumexp


def particle_states(estimate):
    return [(p.x, p.log_w, p.completed, p.log_proposal) for p in estimate.particles]


class TestEss:
    def test_equal_weights_count_particles(self):
        assert ess(np.zeros(4)) == 4.0
        assert ess(np.full(7, -3.2)) == pytest.approx(7.0, rel=1e-12)

    def test_hand_value(self):
        # (3+1)^2 / (9+1) = 1.6
        assert ess(np.log([3.0, 1.0])) == pytest.approx(1.6, rel=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(40)
        lw = rng.normal(size=20)
        assert_allclose(ess(lw + 123.4), ess(lw), rtol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            lw = rng.normal(size=10) * 3.0
            value = ess(lw)
            assert 1.0 - 1e-12 <= value <= 10.0 + 1e-12

    def test_zero_weight_particles_do_not_count(self):
        assert ess([0.0, 0.0, LOG_ZERO]) == pytest.approx(2.0, rel=1e-12)

    def test_all_dead_raises(self):
        with pytest.raises(DegenerateRunError):
            ess([LOG_ZERO, LOG_ZERO])


class TestSamplerConfig:
    def test_defaults_valid(self):
        SamplerConfig()

    def test_rejects_bad_particles(self):
        with pytest.raises(ValueError):
            SamplerConfig(particles=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SamplerConfig(resample_threshold=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(resample_threshold=1.5)
        SamplerConfig(resample_threshold=1.0)

    def test_rejects_bad_max_len(self):
        with pytest.raises(ValueError):
            SamplerConfig(max_len=0)

    def test_rejects_unknown_shaping(self):
        with pytest.raises(ValueError):
            SamplerConfig(shaping="magic")

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            SamplerConfig(shaping="epsilon-shift", epsilon=0.0)

    def test_rejects_malformed_proposal(self):
        with pytest.raises(ValueError):
            SamplerConfig(proposal="nearest")
        with pytest.raises(ValueError):
            SamplerConfig(proposal="expert:x")

    def test_expert_index_checked_against_panel(self, geo_panel):
        config = SamplerConfig(proposal="expert:5")
        shaping = PrefixPotentialShaping(EnsembleSpec.geometric(2), geo_panel)
        with pytest.raises(ValueError):
            make_proposal(geo_panel, config, shaping)


class TestPrefixShaping:
    def test_values_are_prefix_potentials(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        assert shaping.log_value("") == 0.0
        assert_allclose(shaping.log_value("a"), 0.5 * math.log(0.125), rtol=1e-12)

    def test_target_matches_string_potential(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        for x in ("", "a", "b"):
            assert_allclose(
                shaping.log_target(x),
                log_string_potential(geo_spec, geo_panel, x),
                rtol=1e-12,
            )

    def test_row_slots(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        row = shaping.log_row("")
        assert_allclose(row[0], shaping.log_value("a"), rtol=1e-12)
        assert_allclose(row[1], shaping.log_value("b"), rtol=1e-12)
        assert_allclose(row[2], shaping.log_target(""), rtol=1e-12)

    def test_dead_prefix_raises(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        with pytest.raises(DeadPrefixError):
            shaping.log_row("ab")

    def test_epsilon_shifts_symbols_but_not_end(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel, epsilon=1e-3)
        row = shaping.log_row("a")
        # Both one-symbol extensions of "a" are dead: shifted to epsilon
        # over the (shifted) prefix potential.
        denom = np.logaddexp(0.5 * math.log(0.125), math.log(1e-3))
        assert_allclose(row[0], math.log(1e-3) - denom, rtol=1e-12)
        assert_allclose(row[1], math.log(1e-3) - denom, rtol=1e-12)
        # The end slot keeps the exact target: never shifted.
        assert_allclose(row[2], 0.5 * math.log(0.125) - denom, rtol=1e-12)

    def test_epsilon_never_revives_dead_strings(self):
        # Disjoint single-string experts: the consensus target is zero
        # everywhere, and the end-marker slot must stay zero under the
        # shift so no particle can complete with positive weight.
        panel = ExpertPanel(
            [
                TableModel({"a": 1.0}, alphabet=Alphabet("ab")),
                TableModel({"b": 1.0}, alphabet=Alphabet("ab")),
            ]
        )
        shaping = PrefixPotentialShaping(EnsembleSpec.geometric(2), panel, epsilon=0.1)
        assert shaping.log_row("")[2] == LOG_ZERO
        assert shaping.log_row("a")[2] == LOG_ZERO


class ContextLog(SequenceModel):
    """Wraps a model and records every context its rows are asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.contexts = []

    def log_next(self, context):
        self.contexts.append(context)
        return self.inner.log_next(context)


class TestPrefixNodeCache:
    def long_panel(self):
        alphabet = Alphabet("abc")
        corpora = (
            ["abc" * 12, "cab" * 10, "bca" * 11],
            ["aabbcc" * 6, "abcabc" * 5, "bbccaa" * 5],
        )
        return ExpertPanel(
            [ContextLog(fit_ngram(c, order=3, smoothing=0.5, alphabet=alphabet)) for c in corpora]
        )

    @pytest.mark.parametrize("run", [sis, smc])
    def test_row_calls_bounded_by_distinct_prefixes(self, run):
        """Each new prefix costs one row per expert, not one per symbol of it."""
        panel = self.long_panel()
        shaping = PrefixPotentialShaping(EnsembleSpec.geometric(2), panel)
        visited = set()
        log_row = shaping.log_row
        shaping.log_row = lambda x: visited.add(x) or log_row(x)
        config = SamplerConfig(particles=24, max_len=40, seed=3)
        run(EnsembleSpec.geometric(2), panel, config, shaping=shaping)
        # The strings are long enough that re-walking every prefix would
        # cost many times more rows than there are prefixes.
        assert max(len(x) for x in visited) >= 12
        for model in panel:
            assert len(model.contexts) <= len(visited)
            assert len(set(model.contexts)) == len(model.contexts)

    def test_direct_and_incremental_queries_agree_bitwise(self):
        spec = EnsembleSpec.power(0.5, [0.3, 0.7])
        incremental = PrefixPotentialShaping(spec, self.long_panel())
        direct = PrefixPotentialShaping(spec, self.long_panel())
        x = "abcabcaabbc"
        for t in range(len(x) + 1):
            incremental.log_row(x[:t])
        for y in (x, x[:4], "cab"):
            for shaping in (incremental, direct):
                assert np.array_equal(shaping.log_row(y), incremental.log_row(y))
                assert shaping.log_value(y) == incremental.log_value(y)
                assert shaping.log_target(y) == incremental.log_target(y)
                assert shaping.log_string_target(y) == log_string_potential(
                    spec, shaping.panel, y
                )

    def test_dead_experts_are_not_queried(self):
        alphabet = Alphabet("ab")
        panel = ExpertPanel([
            ContextLog(TableModel({"a": 0.5, "ab": 0.5}, alphabet=alphabet)),
            ContextLog(TableModel({"a": 0.5, "b": 0.5}, alphabet=alphabet)),
        ])
        shaping = PrefixPotentialShaping(EnsembleSpec.maximum(2), panel)
        for x in ("", "a", "ab"):
            shaping.log_row(x)
        assert shaping.log_target("ab") == math.log(0.5)
        assert [m.contexts for m in panel] == [["", "a", "ab"], ["", "a"]]


class TestOptimalProposal:
    def test_rows_normalized_to_target_conditional(self, geo_panel, geo_spec):
        row = OptimalProposal(PrefixPotentialShaping(geo_spec, geo_panel)).log_row("")
        want = np.log([math.sqrt(0.125), math.sqrt(0.075), math.sqrt(0.1)]) - math.log(
            GEO_Z
        )
        assert_allclose(row, want, rtol=1e-12)
        assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)

    def test_matches_wrapped_shaping(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        proposal = OptimalProposal(shaping)
        assert_allclose(
            proposal.log_row(""), log_normalize(shaping.log_row("")), rtol=1e-15
        )

    def test_dead_row_raises(self):
        # Expert one stops after "a" while expert two must continue: the
        # geometric potential dies on every continuation including the end.
        panel = ExpertPanel(
            [
                TableModel({"a": 1.0}, alphabet=Alphabet("ab")),
                TableModel({"ab": 1.0}, alphabet=Alphabet("ab")),
            ]
        )
        spec = EnsembleSpec.geometric(2)
        with pytest.raises(DeadPrefixError):
            OptimalProposal(PrefixPotentialShaping(spec, panel)).log_row("a")


class TestDeterminism:
    def test_same_seed_reproduces_runs(self, geo_panel, geo_spec):
        config = SamplerConfig(particles=16, seed=7, proposal="expert:0")
        a = smc(geo_spec, geo_panel, config)
        b = smc(geo_spec, geo_panel, config)
        assert a.log_z_hat == b.log_z_hat
        assert particle_states(a) == particle_states(b)
        assert a.diagnostics.ess_trace == b.diagnostics.ess_trace
        assert a.diagnostics.resample_rounds == b.diagnostics.resample_rounds

    def test_different_seeds_differ(self, geo_panel, geo_spec):
        config = SamplerConfig(particles=16, seed=7, proposal="expert:0")
        other = SamplerConfig(particles=16, seed=8, proposal="expert:0")
        a = smc(geo_spec, geo_panel, config)
        b = smc(geo_spec, geo_panel, other)
        assert particle_states(a) != particle_states(b)

    def test_particle_streams_stable_under_population_growth(self, geo_panel, geo_spec):
        """Growing the population leaves earlier particles' draws unchanged."""
        small = sis(geo_spec, geo_panel, SamplerConfig(particles=4, seed=3, proposal="expert:0"))
        large = sis(geo_spec, geo_panel, SamplerConfig(particles=16, seed=3, proposal="expert:0"))
        assert particle_states(large)[:4] == particle_states(small)

    def test_never_firing_threshold_matches_plain_sis(self, geo_panel, geo_spec):
        sis_config = SamplerConfig(particles=32, seed=5, proposal="expert:1")
        smc_config = SamplerConfig(
            particles=32, seed=5, proposal="expert:1", resample_threshold=1e-9
        )
        a = sis(geo_spec, geo_panel, sis_config)
        b = smc(geo_spec, geo_panel, smc_config)
        assert a.log_z_hat == b.log_z_hat
        assert particle_states(a) == particle_states(b)
        assert b.diagnostics.resample_rounds == []


class TestResampling:
    def make_population(self):
        return [
            Particle(x="a", log_w=math.log(4.0), active=False, completed=True, log_proposal=-1.0),
            Particle(x="b", log_w=math.log(3.0), active=True, completed=False, log_proposal=-2.0),
            Particle(x="c", log_w=math.log(2.0), active=False, completed=True, log_proposal=-3.0),
            Particle(x="dead", log_w=LOG_ZERO, active=False, completed=False, log_proposal=-4.0),
        ]

    def test_total_weight_preserved_and_flattened(self):
        for seed in range(20):
            pop = self.make_population()
            new = _resample(pop, seed=seed, round_no=0)
            assert len(new) == len(pop)
            old_total = np.logaddexp.reduce([p.log_w for p in pop])
            for p in new:
                assert_allclose(p.log_w, old_total - math.log(4.0), rtol=1e-12)

    def test_survivors_keep_their_state(self):
        by_x = {p.x: p for p in self.make_population()}
        new = _resample(self.make_population(), seed=1, round_no=0)
        for p in new:
            src = by_x[p.x]
            assert (p.active, p.completed, p.log_proposal) == (
                src.active,
                src.completed,
                src.log_proposal,
            )

    def test_zero_weight_particles_never_selected(self):
        for seed in range(40):
            new = _resample(self.make_population(), seed=seed, round_no=0)
            assert all(p.x != "dead" for p in new)

    def test_selection_frequencies_follow_weights(self):
        counts = {"a": 0, "b": 0, "c": 0}
        n = 400
        for seed in range(n):
            for p in _resample(self.make_population(), seed=seed, round_no=0):
                counts[p.x] += 1
        total = 4 * n
        for x, w in (("a", 4 / 9), ("b", 3 / 9), ("c", 2 / 9)):
            se = math.sqrt(w * (1 - w) / total)
            assert abs(counts[x] / total - w) < 5 * se

    def test_ancestors_match_one_draw_index_per_particle(self):
        """The batched draw is the per-particle loop, bit for bit."""
        gen = np.random.default_rng(7)
        for trial in range(200):
            m = int(gen.integers(1, 40))
            log_w = gen.normal(size=m) * 3.0
            log_w[gen.random(m) < 0.3] = LOG_ZERO
            log_w[int(gen.integers(m))] = 0.0
            pop = [
                Particle(x=str(i), log_w=float(w), active=True, completed=False, log_proposal=0.0)
                for i, w in enumerate(log_w)
            ]
            probs = np.exp(log_w - logsumexp(log_w))
            probs = probs / probs.sum()
            rng = _rng(trial, _STREAM_RESAMPLE, 3)
            want = [str(draw_index(rng, probs)) for _ in range(m)]
            got = [p.x for p in _resample(pop, seed=trial, round_no=3)]
            assert got == want

    def test_greedy_threshold_triggers_resampling(self, geo_panel, geo_spec):
        config = SamplerConfig(
            particles=32, seed=11, proposal="expert:0", resample_threshold=1.0
        )
        out = smc(geo_spec, geo_panel, config)
        assert out.diagnostics.resample_rounds != []

    def test_resampled_runs_stay_unbiased(self, geo_panel, geo_spec):
        runs = 300
        z_hats = []
        for rep in range(runs):
            config = SamplerConfig(
                particles=8, seed=rep, proposal="expert:0", resample_threshold=1.0
            )
            z_hats.append(math.exp(smc(geo_spec, geo_panel, config).log_z_hat))
        z_hats = np.array(z_hats)
        se = z_hats.std(ddof=1) / math.sqrt(runs)
        assert abs(z_hats.mean() - GEO_Z) < 3.0 * se + 1e-9


class TestEpsilonShiftRuns:
    def disjoint_panel(self):
        return ExpertPanel(
            [
                TableModel({"a": 1.0}, alphabet=Alphabet("ab")),
                TableModel({"b": 1.0}, alphabet=Alphabet("ab")),
            ]
        )

    def near_disjoint_panel(self):
        return ExpertPanel(
            [
                TableModel({"a": 0.9, "c": 0.1}, alphabet=Alphabet("abc")),
                TableModel({"b": 0.9, "c": 0.1}, alphabet=Alphabet("abc")),
            ]
        )

    def test_empty_consensus_reports_zero_mass(self):
        config = SamplerConfig(
            particles=8, seed=0, shaping="epsilon-shift", epsilon=0.05, max_len=4
        )
        out = smc(EnsembleSpec.geometric(2), self.disjoint_panel(), config)
        assert isinstance(out, Estimate)
        assert out.log_z_hat == LOG_ZERO
        assert out.diagnostics.truncated == 8
        assert out.diagnostics.ess_trace[-1] == 0.0
        with pytest.raises(DegenerateRunError):
            out.normalized_weights()
        with pytest.raises(DegenerateRunError):
            out.distribution()

    def test_near_disjoint_unbiased_despite_truncations(self):
        """Wasted excursions cost variance, never bias."""
        panel = self.near_disjoint_panel()
        spec = EnsembleSpec.geometric(2)
        shaping = PrefixPotentialShaping(spec, panel, epsilon=0.05)
        runs = 200
        z_hats = []
        truncated = 0
        for rep in range(runs):
            config = SamplerConfig(particles=16, seed=rep, max_len=6)
            out = sis(spec, panel, config, shaping=shaping)
            z_hats.append(math.exp(out.log_z_hat))
            truncated += out.diagnostics.truncated
        assert truncated > 0
        z_hats = np.array(z_hats)
        se = z_hats.std(ddof=1) / math.sqrt(runs)
        assert abs(z_hats.mean() - 0.1) < 3.0 * se


class TestWeightBookkeeping:
    def test_debug_check_passes_on_expert_proposal(self, geo_panel, geo_spec):
        config = SamplerConfig(
            particles=64, seed=2, proposal="expert:0", debug_check_weights=True
        )
        out = sis(geo_spec, geo_panel, config)
        assert out.log_z_hat > LOG_ZERO

    def test_debug_check_skipped_after_resampling(self, geo_panel, geo_spec):
        config = SamplerConfig(
            particles=32,
            seed=2,
            proposal="expert:0",
            resample_threshold=1.0,
            debug_check_weights=True,
        )
        out = smc(geo_spec, geo_panel, config)
        assert out.diagnostics.resample_rounds != []

    def test_zero_variance_with_exact_shaping(self, geo_panel, geo_spec):
        """Shaping by the exact mass-to-go flattens every weight to Z."""
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        shaping = OracleShaping(table)
        config = SamplerConfig(particles=50, seed=9)
        out = sis(geo_spec, geo_panel, config, shaping=shaping, proposal=OptimalProposal(shaping))
        weights = np.exp(out.log_weights())
        assert_allclose(weights, GEO_Z, rtol=1e-12)
        assert_allclose(math.exp(out.log_z_hat), GEO_Z, rtol=1e-12)

    def test_expert_proposal_unbiased_and_noisier(self, geo_panel, geo_spec):
        runs = 300
        expert = np.array(
            [
                math.exp(
                    sis(
                        geo_spec,
                        geo_panel,
                        SamplerConfig(particles=8, seed=rep, proposal="expert:1"),
                    ).log_z_hat
                )
                for rep in range(runs)
            ]
        )
        optimal = np.array(
            [
                math.exp(
                    sis(
                        geo_spec, geo_panel, SamplerConfig(particles=8, seed=rep)
                    ).log_z_hat
                )
                for rep in range(20)
            ]
        )
        se = expert.std(ddof=1) / math.sqrt(runs)
        assert abs(expert.mean() - GEO_Z) < 3.0 * se + 1e-9
        assert expert.std(ddof=1) > 10.0 * (optimal.std(ddof=1) + 1e-15)


class TestOneStepVariance:
    def test_optimal_proposal_has_zero_variance(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        psi = shaping.log_row("")
        assert one_step_weight_variance(psi, log_normalize(psi)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_any_other_proposal_does_worse(self, geo_panel, geo_spec):
        rng = np.random.default_rng(42)
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        psi = shaping.log_row("")
        best = one_step_weight_variance(psi, log_normalize(psi))
        for _ in range(25):
            perturbed = log_normalize(log_normalize(psi) + 0.7 * rng.normal(size=psi.size))
            assert one_step_weight_variance(psi, perturbed) >= best

    def test_missing_support_is_infinite(self):
        psi = np.log([0.25, 0.25, 0.5])
        r = np.log([0.5, 0.5, 1e-300])
        r[2] = LOG_ZERO
        assert one_step_weight_variance(psi, log_normalize(r[:2]).tolist() + [LOG_ZERO]) == math.inf

    def test_unnormalized_proposal_rejected(self):
        psi = np.log([0.25, 0.25, 0.5])
        with pytest.raises(ValueError):
            one_step_weight_variance(psi, np.log([0.5, 0.5, 0.5]))


class TestImportanceSample:
    def test_mean_weight_identity_and_unbiasedness(self, geo_panel, geo_spec):
        target = ensemble_log_target(geo_spec, geo_panel)
        out = importance_sample(target, geo_panel[0], particles=4000, max_len=3, seed=0)
        weights = np.exp(out.log_weights())
        assert_allclose(math.exp(out.log_z_hat), weights.mean(), rtol=1e-12)
        se = weights.std(ddof=1) / math.sqrt(weights.size)
        assert abs(weights.mean() - GEO_Z) < 3.0 * se

    def test_truncated_draws_get_zero_weight(self, geo_panel, geo_spec):
        target = ensemble_log_target(geo_spec, geo_panel)
        out = importance_sample(target, geo_panel[0], particles=200, max_len=0, seed=1)
        assert out.diagnostics.truncated > 0
        for p in out.particles:
            assert p.completed or p.log_w == LOG_ZERO
        incomplete = sum(not p.completed for p in out.particles)
        assert incomplete == out.diagnostics.truncated

    def test_deterministic(self, geo_panel, geo_spec):
        target = ensemble_log_target(geo_spec, geo_panel)
        a = importance_sample(target, geo_panel[1], particles=64, max_len=3, seed=4)
        b = importance_sample(target, geo_panel[1], particles=64, max_len=3, seed=4)
        assert particle_states(a) == particle_states(b)

    def test_rejects_bad_particle_count(self, geo_panel, geo_spec):
        target = ensemble_log_target(geo_spec, geo_panel)
        with pytest.raises(ValueError):
            importance_sample(target, geo_panel[0], particles=0, max_len=3)


class TestLocalSample:
    def test_deterministic(self, mis_panel):
        spec = EnsembleSpec.geometric(2)
        a = local_sample(spec, mis_panel, particles=32, max_len=4, seed=6)
        b = local_sample(spec, mis_panel, particles=32, max_len=4, seed=6)
        assert a == b

    def test_scores_match_direct_recomputation(self, mis_panel):
        spec = EnsembleSpec.geometric(2)
        draws = local_sample(spec, mis_panel, particles=20, max_len=4, seed=7)
        for draw in draws:
            assert draw.completed
            log_p = 0.0
            for i, ch in enumerate(draw.x + "$"):
                prefix = draw.x[:i]
                rows = np.stack([m.log_next(prefix) for m in mis_panel])
                local = log_normalize(spec.combine_columns(rows))
                idx = (
                    mis_panel.alphabet.eos_index
                    if ch == "$"
                    else mis_panel.alphabet.index[ch]
                )
                log_p += local[idx]
            assert_allclose(draw.log_local, log_p, rtol=1e-10)

    def test_matches_expected_local_distribution(self, mis_panel):
        spec = EnsembleSpec.geometric(2)
        draws = local_sample(spec, mis_panel, particles=20_000, max_len=4, seed=8)
        counts = {}
        for d in draws:
            counts[d.x] = counts.get(d.x, 0) + 1
        for x, want in MIS_LOCAL.items():
            got = counts.get(x, 0) / len(draws)
            se = math.sqrt(want * (1 - want) / len(draws))
            assert abs(got - want) < 5 * se

    def test_dead_product_raises(self):
        panel = ExpertPanel(
            [
                TableModel({"a": 1.0}, alphabet=Alphabet("ab")),
                TableModel({"b": 1.0}, alphabet=Alphabet("ab")),
            ]
        )
        with pytest.raises(DeadPrefixError):
            local_sample(EnsembleSpec.geometric(2), panel, particles=4, max_len=3)

    def test_rejects_bad_particle_count(self, mis_panel):
        with pytest.raises(ValueError):
            local_sample(EnsembleSpec.geometric(2), mis_panel, particles=0, max_len=3)
