"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints one summary line; run with ``pytest -v
tests/test_acceptance.py`` to get a pass/fail line per criterion. The
extreme-exponent tolerance check (criterion 11a) states its observed gap
in the assertion message; see the README's numerical notes for why the
weight prefactor makes that tolerance unattainable as stated.
"""
import itertools
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from conftest import GEO_Z, MIN_PROBS, MIS_PROBS

from ensmc import (
    LOG_ZERO,
    EnsembleSpec,
    OptimalProposal,
    OracleShaping,
    PrefixPotentialShaping,
    SamplerConfig,
    as_byte_model,
    check_model,
    empirical_distribution,
    ensemble_log_target,
    enumerate_ensemble,
    ess,
    importance_sample,
    is_consensus,
    local_sample,
    mixture_identity,
    minimize_divergence_simplex,
    one_step_weight_variance,
    sis,
    smc,
    string_log_prob,
    total_variation,
)
from ensmc.inference import _ancestors
from ensmc.logtools import log_normalize


def tvd_to_table(estimate, table):
    return total_variation(estimate.distribution(), table.probs())


class TestAcceptance:
    def test_01_normalizer_estimates_unbiased(self, geo_panel, geo_spec):
        """Mean of the normalizer estimate over 10,000 runs sits within 3
        standard errors of the exact value, for plain importance sampling,
        sequential importance sampling, and the resampling sampler."""
        t0 = time.perf_counter()
        runs = 10_000
        target = ensemble_log_target(geo_spec, geo_panel)
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        proposal = OptimalProposal(shaping)

        legs = {}
        legs["is"] = np.array(
            [
                math.exp(
                    importance_sample(
                        target, geo_panel[0], particles=8, max_len=3, seed=r
                    ).log_z_hat
                )
                for r in range(runs)
            ]
        )
        legs["sis"] = np.array(
            [
                math.exp(
                    sis(
                        geo_spec,
                        geo_panel,
                        SamplerConfig(particles=8, seed=r, max_len=3),
                        shaping=shaping,
                        proposal=proposal,
                    ).log_z_hat
                )
                for r in range(runs)
            ]
        )
        legs["smc"] = np.array(
            [
                math.exp(
                    smc(
                        geo_spec,
                        geo_panel,
                        SamplerConfig(
                            particles=8, seed=r, max_len=3, resample_threshold=0.9
                        ),
                        shaping=shaping,
                        proposal=proposal,
                    ).log_z_hat
                )
                for r in range(runs)
            ]
        )
        elapsed = time.perf_counter() - t0
        for name, zs in legs.items():
            se = zs.std(ddof=1) / math.sqrt(runs)
            gap = abs(zs.mean() - GEO_Z)
            assert gap < 3.0 * se + 1e-12, (
                f"{name}: mean {zs.mean():.6f} vs Z {GEO_Z:.6f}, "
                f"gap {gap:.2e} > 3 SE {3 * se:.2e}"
            )
        assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"

    def test_02_tvd_shrinks_with_population(self, geo_panel, geo_spec, min_spec):
        """Seed-averaged total variation to the exact distribution strictly
        decreases over population sizes 4, 16, 64, 256 on both the
        geometric and the minimum fixture, ending below 0.05."""
        t0 = time.perf_counter()
        seeds = 50
        for spec in (geo_spec, min_spec):
            table = enumerate_ensemble(spec, geo_panel, max_len=3)
            shaping = PrefixPotentialShaping(spec, geo_panel)
            proposal = OptimalProposal(shaping)
            means = []
            for m in (4, 16, 64, 256):
                vals = [
                    tvd_to_table(
                        smc(
                            spec,
                            geo_panel,
                            SamplerConfig(particles=m, seed=s, max_len=3),
                            shaping=shaping,
                            proposal=proposal,
                        ),
                        table,
                    )
                    for s in range(seeds)
                ]
                means.append(float(np.mean(vals)))
            assert all(a > b for a, b in zip(means, means[1:])), (
                f"{spec.kind}: seed-averaged TVD not strictly decreasing: {means}"
            )
            assert means[-1] < 0.05, f"{spec.kind}: TVD at M=256 is {means[-1]:.4f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"

    def test_03_exact_shaping_collapses_weight_variance(self, geo_panel, geo_spec):
        """With the exact mass-to-go as shaping and its normalization as
        proposal, all 100 final weights equal Z to relative spread 1e-9."""
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        shaping = OracleShaping(table)
        out = sis(
            geo_spec,
            geo_panel,
            SamplerConfig(particles=100, seed=0, max_len=3),
            shaping=shaping,
            proposal=OptimalProposal(shaping),
        )
        weights = np.exp(out.log_w)
        spread = (weights.max() - weights.min()) / weights.mean()
        assert spread < 1e-9, f"relative weight spread {spread:.2e}"
        assert_allclose(weights, GEO_Z, rtol=1e-9)

    def test_04_normalized_potentials_minimize_step_variance(self, make_random_panel):
        """The one-step weight variance of the normalized-potential proposal
        is no larger than under any of 10 random distorted proposals, on 5
        random live prefixes; zero violations."""
        rng = np.random.default_rng(104)
        spec = EnsembleSpec.geometric(2)
        violations = 0
        prefixes = ["", "a", "b", "aa", "ab", "ba", "bb"]
        panel = make_random_panel(rng, full_support=True)
        shaping = PrefixPotentialShaping(spec, panel)
        for x in rng.choice(prefixes, size=5, replace=False):
            psi = shaping.log_row(str(x))
            optimal = log_normalize(psi)
            best = one_step_weight_variance(psi, optimal)
            for _ in range(10):
                distorted = log_normalize(optimal + 0.5 * rng.normal(size=psi.size))
                if one_step_weight_variance(psi, distorted) < best - 1e-15:
                    violations += 1
        assert violations == 0, f"{violations} proposals beat the normalized row"

    def test_05_sum_ensemble_accuracy_is_weighted_mean(self, make_random_panel):
        """Over 50 randomized panels, the sum-ensemble's exact expected
        accuracy equals the weight-averaged expert accuracies to 1e-12;
        equal weights give the arithmetic mean."""
        rng = np.random.default_rng(105)
        candidates = ["", "a", "b", "aa", "ab", "ba", "bb"]
        for trial in range(50):
            panel = make_random_panel(rng, k=int(rng.integers(2, 4)))
            weights = rng.dirichlet(np.ones(len(panel)))
            chosen = frozenset(x for x in candidates if rng.random() < 0.5)
            predicate = lambda x: x in chosen
            ensemble, mixture = mixture_identity(panel, weights, predicate, max_len=2)
            assert abs(ensemble - mixture) <= 1e-12, (
                f"panel {trial}: ensemble {ensemble!r} vs mixture {mixture!r}"
            )
            if trial % 10 == 0:
                equal = np.full(len(panel), 1.0 / len(panel))
                ens_eq, mix_eq = mixture_identity(panel, equal, predicate, max_len=2)
                assert abs(ens_eq - mix_eq) <= 1e-12

    def test_06_divergence_minimizer_is_generalized_mean(self):
        """Simplex minimization of the weighted alpha-divergence sum to two
        random experts on a 4-string support recovers the normalized
        generalized mean with exponent 1 - alpha, within TVD 1e-3."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(106)
        experts = rng.dirichlet(np.ones(4), size=2)
        weights = rng.dirichlet(np.ones(2))
        for alpha in (-1.0, 0.5, 2.0):
            tau = 1.0 - alpha
            mean = (
                weights[0] * experts[0] ** tau + weights[1] * experts[1] ** tau
            ) ** (1.0 / tau)
            mean /= mean.sum()
            q = minimize_divergence_simplex(experts, weights, alpha=alpha)
            tvd = 0.5 * float(np.abs(q - mean).sum())
            assert tvd < 1e-3, f"alpha={alpha}: TVD {tvd:.2e} to the closed form"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s (budget 120s)"

    def test_07_annihilativity_matches_operator_class(self, make_random_panel):
        """Across 200 random panels and the exponent family: consensus
        operators kill every completion of a zero-potential prefix;
        coverage operators keep every string some expert supports."""
        rng = np.random.default_rng(107)
        specs = [
            EnsembleSpec.minimum(2),
            EnsembleSpec.power(-1.0, 2),
            EnsembleSpec.geometric(2),
            EnsembleSpec.power(0.5, 2),
            EnsembleSpec.power(1.0, 2),
            EnsembleSpec.power(2.0, 2),
            EnsembleSpec.maximum(2),
        ]
        strings = ["", "a", "b", "aa", "ab", "ba", "bb"]
        violations = 0
        for _ in range(200):
            panel = make_random_panel(rng)
            sp = [
                {x: math.exp(string_log_prob(m, x)) for x in strings} for m in panel
            ]
            pm = [
                {
                    x: sum(v for y, v in probs.items() if y.startswith(x))
                    for x in strings
                }
                for probs in sp
            ]
            for spec in specs:
                phi = {
                    x: spec.combine([np.log(probs[x]) if probs[x] else LOG_ZERO
                                     for probs in sp])
                    for x in strings
                }
                if is_consensus(spec):
                    for x in strings:
                        psi = spec.combine(
                            [np.log(m[x]) if m[x] else LOG_ZERO for m in pm]
                        )
                        if psi == LOG_ZERO:
                            violations += sum(
                                phi[y] != LOG_ZERO
                                for y in strings
                                if y.startswith(x)
                            )
                else:
                    violations += sum(
                        phi[x] == LOG_ZERO
                        for x in strings
                        if any(probs[x] > 0.0 for probs in sp)
                    )
        assert violations == 0, f"{violations} support-classification violations"

    def test_08_byte_marginal_equals_segmentation_sum(self, bridge_fixture):
        """For every byte string up to length 6, the frontier marginal
        equals the brute-force sum over tokenizations within 1e-10, and the
        wrapped byte model satisfies the conditional-row invariants."""
        token_model, tokenizer = bridge_fixture
        byte_model = as_byte_model(token_model, tokenizer)

        def segmentation_sum(x):
            terms = []

            def walk(pos, tokens):
                if pos == len(x):
                    terms.append(string_log_prob(token_model, tokens))
                    return
                for tok, out in tokenizer.decode.items():
                    if x.startswith(out, pos):
                        walk(pos + len(out), tokens + tok)

            walk(0, "")
            finite = [t for t in terms if t != LOG_ZERO]
            return float(np.logaddexp.reduce(finite)) if finite else LOG_ZERO

        checked = 0
        for length in range(7):
            for tup in itertools.product("ab", repeat=length):
                x = "".join(tup)
                got = math.exp(byte_model.string_log_prob(x))
                want = math.exp(segmentation_sum(x))
                assert abs(got - want) < 1e-10, (
                    f"bytes {x!r}: frontier {got!r} vs segmentation sum {want!r}"
                )
                checked += 1
        assert checked == 127
        contexts = [
            "".join(t) for n in range(4) for t in itertools.product("ab", repeat=n)
        ]
        check_model(byte_model, contexts)

    def test_09_local_sampler_mismatch_global_sampler_match(self, mis_panel):
        """On the intersection fixture the stepwise-normalized baseline
        lands > 0.05 TVD from the exact product target while the global
        sampler at M=256 lands < 0.05, and the global score ranks the
        support exactly as the target does."""
        spec = EnsembleSpec.geometric(2)
        table = enumerate_ensemble(spec, mis_panel, max_len=3)
        assert set(table.probs()) == set(MIS_PROBS)

        draws = local_sample(spec, mis_panel, particles=100_000, max_len=3, seed=0)
        local_tvd = total_variation(empirical_distribution(draws), table.probs())
        assert local_tvd > 0.05, f"local baseline TVD {local_tvd:.4f}"

        est = smc(spec, mis_panel, SamplerConfig(particles=256, seed=0, max_len=3))
        global_tvd = tvd_to_table(est, table)
        assert global_tvd < 0.05, f"global sampler TVD {global_tvd:.4f}"

        target = ensemble_log_target(spec, mis_panel)
        support = list(table.strings)
        rho = stats.spearmanr(
            [target(x) for x in support], list(table.log_values)
        ).statistic
        assert abs(rho - 1.0) < 1e-12, f"global score Spearman {rho!r}"

    def test_10_ess_values_and_resampling_mechanics(self, geo_panel, geo_spec):
        """Effective sample size takes its textbook values; resampling
        preserves total weight; a never-firing threshold reproduces the
        no-resampling sampler run for run."""
        assert ess(np.log([1.0, 1.0, 1.0, 1.0])) == 4.0
        assert ess(np.log([3.0, 1.0])) == pytest.approx(1.6, rel=1e-12)

        xs = ["a", "b", "c", "dead"]
        log_w = np.array([math.log(4.0), math.log(3.0), math.log(2.0), LOG_ZERO])
        total = np.logaddexp.reduce(log_w)
        for seed in range(10):
            idx, new_log_w = _ancestors(log_w, seed=seed, round_no=0)
            new_total = np.logaddexp.reduce(np.full(len(idx), new_log_w))
            assert_allclose(new_total, total, rtol=1e-12)
            assert all(xs[i] != "dead" for i in idx)

        for seed in range(5):
            a = sis(
                geo_spec,
                geo_panel,
                SamplerConfig(particles=16, seed=seed, proposal="expert:0", max_len=3),
            )
            b = smc(
                geo_spec,
                geo_panel,
                SamplerConfig(
                    particles=16,
                    seed=seed,
                    proposal="expert:0",
                    max_len=3,
                    resample_threshold=1e-9,
                ),
            )
            assert list(zip(a.xs, a.log_w.tolist())) == list(zip(b.xs, b.log_w.tolist()))
            assert a.log_z_hat == b.log_z_hat

    def test_11a_extreme_exponents_match_named_limits(self):
        """Power mean at exponent +/-50 vs maximum/minimum and at +/-1e-3 vs
        geometric, 1e-3 relative tolerance over 1,000 random vectors."""
        rng = np.random.default_rng(110)
        values = rng.random((1000, 2)) + 1e-12
        logmat = np.log(values.T)
        cases = {
            "tau=+50 vs maximum": (
                EnsembleSpec.power(50.0, 2),
                values.max(axis=1),
            ),
            "tau=-50 vs minimum": (
                EnsembleSpec.power(-50.0, 2),
                values.min(axis=1),
            ),
            "tau=+1e-3 vs geometric": (
                EnsembleSpec.power(1e-3, 2),
                np.exp(0.5 * np.log(values).sum(axis=1)),
            ),
            "tau=-1e-3 vs geometric": (
                EnsembleSpec.power(-1e-3, 2),
                np.exp(0.5 * np.log(values).sum(axis=1)),
            ),
        }
        worst = {}
        for name, (spec, ref) in cases.items():
            got = np.exp(spec.combine_columns(logmat))
            worst[name] = float(np.max(np.abs(got - ref) / ref))
        detail = ", ".join(f"{k}: {v:.3e}" for k, v in worst.items())
        assert max(worst.values()) <= 1e-3, (
            "worst relative gaps exceed 1e-3 — " + detail
        )

    def test_11b_sandwich_bound_never_violated(self):
        """min <= power mean <= max holds for every exponent tried on the
        same 1,000 random vectors."""
        rng = np.random.default_rng(110)
        values = rng.random((1000, 2)) + 1e-12
        logmat = np.log(values.T)
        lo = values.min(axis=1)
        hi = values.max(axis=1)
        for tau in (-50.0, -2.0, -1e-3, 1e-3, 0.5, 1.0, 2.0, 50.0):
            got = np.exp(EnsembleSpec.power(tau, 2).combine_columns(logmat))
            assert (got >= lo * (1 - 1e-12)).all() and (got <= hi * (1 + 1e-12)).all()
        for spec, ref in (
            (EnsembleSpec.minimum(2), lo),
            (EnsembleSpec.maximum(2), hi),
            (EnsembleSpec.geometric(2), np.exp(0.5 * np.log(values).sum(axis=1))),
        ):
            got = np.exp(spec.combine_columns(logmat))
            assert_allclose(got, ref, rtol=1e-12)
