import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from ensmc import streams
from ensmc.inference import (
    _STREAM_RESAMPLE,
    _RowModel,
    _ancestors,
    _rng,
    make_proposal,
    make_proposal_model,
)
from ensmc.lmcore import draw_index, prefix_log_prob, sample_with_log_prob, string_log_prob
from ensmc.logtools import log_normalize, logsumexp


def particle_states(estimate):
    return list(zip(
        estimate.xs,
        estimate.log_w.tolist(),
        estimate.completed.tolist(),
        estimate.log_proposal.tolist(),
    ))


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


class ConstantRow(SequenceModel):
    """The same next-symbol row after every context."""

    def __init__(self, alphabet, probs):
        self.alphabet = alphabet
        self.row = np.log(probs)

    def log_next(self, context):
        return self.row


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

    def test_local_reads_the_nodes_sis_built(self):
        """The step-local baseline on a shaping ``sis`` already used asks
        no expert for a context twice, and draws what a fresh shaping gives."""
        spec = EnsembleSpec.geometric(2)
        panel = self.long_panel()
        shaping = PrefixPotentialShaping(spec, panel)
        sis(spec, panel, SamplerConfig(particles=24, max_len=40, seed=3), shaping=shaping)
        draws = local_sample(spec, panel, particles=24, max_len=40, seed=4, shaping=shaping)
        for model in panel:
            assert len(set(model.contexts)) == len(model.contexts)
        fresh = local_sample(spec, self.long_panel(), particles=24, max_len=40, seed=4)
        assert particle_states(draws) == particle_states(fresh)

    def test_direct_query_on_a_long_string_builds_its_ancestors(self):
        """A direct query builds every missing ancestor in a loop, root
        first: one row per prefix and expert, and no RecursionError."""
        alphabet = Alphabet("ab")
        panel = ExpertPanel([
            ContextLog(ConstantRow(alphabet, [0.5, 0.4, 0.1])),
            ContextLog(ConstantRow(alphabet, [0.3, 0.6, 0.1])),
        ])
        spec = EnsembleSpec.power(-1.0, [0.4, 0.6])
        x = "ab" * 1500
        shaping = PrefixPotentialShaping(spec, panel)
        got = shaping.log_string_target(x)
        for model in panel:
            assert model.contexts == [x[:t] for t in range(len(x) + 1)]
        assert got == log_string_potential(spec, panel, x)
        with pytest.raises(ValueError, match="not in alphabet"):
            shaping.log_row(x[:7] + "c")


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
    XS = ("a", "b", "c", "dead")

    def make_log_w(self):
        return np.array([math.log(4.0), math.log(3.0), math.log(2.0), LOG_ZERO])

    def test_total_weight_preserved_and_flattened(self):
        for seed in range(20):
            log_w = self.make_log_w()
            idx, new_log_w = _ancestors(log_w, seed=seed, round_no=0)
            assert len(idx) == len(log_w)
            old_total = np.logaddexp.reduce(log_w)
            assert_allclose(np.full(len(idx), new_log_w), old_total - math.log(4.0), rtol=1e-12)

    def test_survivors_keep_their_state(self, geo_panel, geo_spec):
        """Resampling carries each survivor's proposal score with it: a
        completed particle's ``log_proposal`` is its own string's
        probability under the proposal expert, bit for bit."""
        checked = 0
        for seed in range(50):
            config = SamplerConfig(
                particles=32, seed=seed, proposal="expert:0", resample_threshold=1.0
            )
            out = smc(geo_spec, geo_panel, config)
            assert out.diagnostics.resample_rounds != []
            for x, done, log_r in zip(out.xs, out.completed, out.log_proposal.tolist()):
                if done:
                    assert log_r == string_log_prob(geo_panel[0], x)
                    checked += 1
        assert checked > 0

    def test_zero_weight_particles_never_selected(self):
        for seed in range(40):
            idx, _ = _ancestors(self.make_log_w(), seed=seed, round_no=0)
            assert all(self.XS[i] != "dead" for i in idx)

    def test_selection_frequencies_follow_weights(self):
        counts = {"a": 0, "b": 0, "c": 0}
        n = 400
        for seed in range(n):
            idx, _ = _ancestors(self.make_log_w(), seed=seed, round_no=0)
            for i in idx:
                counts[self.XS[i]] += 1
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
            probs = np.exp(log_w - logsumexp(log_w))
            probs = probs / probs.sum()
            rng = _rng(trial, _STREAM_RESAMPLE, 3)
            want = [draw_index(rng, probs) for _ in range(m)]
            got = _ancestors(log_w, seed=trial, round_no=3)[0].tolist()
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
        weights = np.exp(out.log_w)
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
        weights = np.exp(out.log_w)
        assert_allclose(math.exp(out.log_z_hat), weights.mean(), rtol=1e-12)
        se = weights.std(ddof=1) / math.sqrt(weights.size)
        assert abs(weights.mean() - GEO_Z) < 3.0 * se

    def test_truncated_draws_get_zero_weight(self, geo_panel, geo_spec):
        target = ensemble_log_target(geo_spec, geo_panel)
        out = importance_sample(target, geo_panel[0], particles=200, max_len=0, seed=1)
        assert out.diagnostics.truncated > 0
        for done, log_w in zip(out.completed, out.log_w):
            assert done or log_w == LOG_ZERO
        incomplete = sum(not done for done in out.completed)
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


def _direct_local_row(spec, panel, x):
    """The operator on the experts' rows at ``x``, built directly."""
    dead = np.full(panel.alphabet.size + 1, LOG_ZERO)
    rows = np.stack([
        m.log_next(x) if prefix_log_prob(m, x) != LOG_ZERO else dead for m in panel
    ])
    return spec.combine_columns(rows)


def _reaches_dead_local_row(spec, panel, max_len):
    """Whether a prefix the local baseline can reach has an all-zero row."""
    frontier = [""]
    while frontier:
        x = frontier.pop()
        row = _direct_local_row(spec, panel, x)
        if (row == LOG_ZERO).all():
            return True
        if len(x) + 1 < max_len:
            frontier.extend(
                x + s for j, s in enumerate(panel.alphabet.symbols) if row[j] != LOG_ZERO
            )
    return False


@st.composite
def _local_cases(draw):
    """A random panel of one to three tables over {a, b}, with zero
    weights allowed, under any operator kind."""
    alphabet = Alphabet("ab")
    k = draw(st.integers(1, 3))
    experts = []
    for _ in range(k):
        strings = draw(st.lists(st.text("ab", max_size=3), min_size=1, max_size=6, unique=True))
        masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(strings), max_size=len(strings)))
        total = math.fsum(masses)
        experts.append(TableModel({x: m / total for x, m in zip(strings, masses)}, alphabet))
    weights = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=k, max_size=k)
                   .filter(any))
    kind = draw(st.sampled_from(["minimum", "maximum", "geometric", "power"]))
    tau = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0])) if kind == "power" else None
    max_len = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32))
    return EnsembleSpec(kind, weights, tau), ExpertPanel(experts), max_len, seed


def _reference_draws(model, particles, max_len, seed):
    """Particle by particle: draw ``m`` is ``sample_with_log_prob`` on
    stream ``(seed, 2, m)``. The first error raised ends the batch."""
    return [
        sample_with_log_prob(model, streams.pool(seed, 2).extend(m).generator(), max_len)
        for m in range(particles)
    ]


def _assert_matches_reference(run, model, particles, max_len, seed):
    """``run()`` draws exactly the reference draws, or raises its error."""
    try:
        want = _reference_draws(model, particles, max_len, seed)
    except DeadPrefixError as exc:
        with pytest.raises(DeadPrefixError) as got:
            run()
        assert str(got.value) == str(exc)
        return
    est = run()
    assert est.xs == [x for x, _, _ in want]
    assert est.completed.tolist() == [done for _, _, done in want]
    assert est.log_proposal.tolist() == [float(log_p) for _, log_p, _ in want]


class TestLockstepDraws:
    """``is`` and ``local`` draw through the lockstep round loop; each
    particle is bit for bit the draw the per-particle reference makes."""

    @settings(max_examples=150, deadline=None)
    @given(_local_cases(), st.integers(1, 12))
    def test_iid_draws_match_per_particle_reference(self, case, particles):
        spec, panel, max_len, seed = case
        shaping = PrefixPotentialShaping(spec, panel)
        for proposal in ("optimal", f"expert:{seed % len(panel)}"):
            config = SamplerConfig(proposal=proposal, max_len=max_len)
            model = make_proposal_model(panel, config, shaping)
            _assert_matches_reference(
                lambda: importance_sample(
                    shaping.log_string_target, model, particles, max_len, seed=seed
                ),
                model, particles, max_len, seed,
            )
        _assert_matches_reference(
            lambda: local_sample(spec, panel, particles, max_len, seed=seed, shaping=shaping),
            _RowModel(panel.alphabet, shaping.log_local_row), particles, max_len, seed,
        )

    def test_dead_prefix_error_is_the_lowest_particle_s(self):
        """Particle 0 meets a dead local row at 'aa' (round 2) while
        particle 2 meets one at 'b' (round 1): the error raised is
        particle 0's, as the per-particle loop raises it first."""
        alphabet = Alphabet("ab")
        panel = ExpertPanel([
            TableModel({"b": 0.5, "a": 0.25, "aa": 0.25}, alphabet=alphabet),
            TableModel({"bb": 0.5, "a": 0.25, "aab": 0.25}, alphabet=alphabet),
        ])
        spec = EnsembleSpec.geometric(2)
        model = _RowModel(alphabet, PrefixPotentialShaping(spec, panel).log_local_row)
        errors = []
        for m in range(4):
            with pytest.raises(DeadPrefixError) as exc:
                sample_with_log_prob(model, streams.pool(0, 2).extend(m).generator(), 4)
            errors.append(str(exc.value))
        assert errors[0] == "local combination is identically zero at 'aa'"
        assert errors[2] == "local combination is identically zero at 'b'"
        with pytest.raises(DeadPrefixError) as got:
            local_sample(spec, panel, particles=4, max_len=4, seed=0)
        assert str(got.value) == errors[0]


class TestLocalSample:
    def test_deterministic(self, mis_panel):
        spec = EnsembleSpec.geometric(2)
        a = local_sample(spec, mis_panel, particles=32, max_len=4, seed=6)
        b = local_sample(spec, mis_panel, particles=32, max_len=4, seed=6)
        assert particle_states(a) == particle_states(b)

    @settings(max_examples=200, deadline=None)
    @given(_local_cases())
    def test_scores_match_direct_recomputation(self, case):
        """Each draw's score is the sum of the directly recomputed local
        log probabilities, bit for bit, on random table panels (experts
        that die mid-string, zero weights, every operator kind); a shaping
        ``sis`` already used gives the same draws; and a DeadPrefixError
        means some reachable local row is identically zero."""
        spec, panel, max_len, seed = case
        warm = PrefixPotentialShaping(spec, panel)
        sis(spec, panel, SamplerConfig(particles=8, max_len=max_len, seed=seed), shaping=warm)
        try:
            draws = local_sample(spec, panel, 16, max_len, seed=seed)
        except DeadPrefixError:
            assert _reaches_dead_local_row(spec, panel, max_len)
            with pytest.raises(DeadPrefixError):
                local_sample(spec, panel, 16, max_len, seed=seed, shaping=warm)
            return
        warm_draws = local_sample(spec, panel, 16, max_len, seed=seed, shaping=warm)
        assert particle_states(warm_draws) == particle_states(draws)
        eos = panel.alphabet.eos_index
        for x, completed, log_local in zip(
            draws.xs, draws.completed.tolist(), draws.log_proposal.tolist()
        ):
            assert completed == (len(x) < max_len)
            steps = [(x[:i], panel.alphabet.index[ch]) for i, ch in enumerate(x)]
            if completed:
                steps.append((x, eos))
            log_p = 0.0
            for prefix, idx in steps:
                log_p += log_normalize(_direct_local_row(spec, panel, prefix))[idx]
            assert log_local == log_p

    def test_matches_expected_local_distribution(self, mis_panel):
        """Draw frequencies match the step-local distribution. Under the
        geometric operator it coincides with the prefix-potential one, so
        a second panel under the sum operator, where the experts' prefix
        masses at "a" differ (0.9 and 0.5), tells the two apart: the
        local row at "a" averages the conditionals (c: 0.522), the
        prefix-potential row the joint masses (c: 0.643)."""
        cond_c = (0.85 / 0.9 + 0.05 / 0.5) / 2
        sum_panel = ExpertPanel([
            TableModel({"ac": 0.85, "ad": 0.05, "b": 0.1}),
            TableModel({"ac": 0.05, "ad": 0.45, "b": 0.5}),
        ])
        cases = [
            (EnsembleSpec.geometric(2), mis_panel, 20_000, MIS_LOCAL),
            (
                EnsembleSpec.from_name("sum", 2),
                sum_panel,
                4_000,
                {"ac": 0.7 * cond_c, "ad": 0.7 * (1 - cond_c), "b": 0.3},
            ),
        ]
        for spec, panel, n, expected in cases:
            draws = local_sample(spec, panel, particles=n, max_len=4, seed=8)
            counts = {}
            for x in draws.xs:
                counts[x] = counts.get(x, 0) + 1
            assert set(counts) <= set(expected)
            for x, want in expected.items():
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
