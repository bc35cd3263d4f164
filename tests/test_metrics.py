import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ensmc import (
    Alphabet,
    EnsembleSpec,
    EnumerationBudgetError,
    ExpertPanel,
    SamplerConfig,
    TableModel,
    empirical_distribution,
    enumerate_ensemble,
    mixture_identity,
    smc,
)
from ensmc.inference import Diagnostics, Estimate
from ensmc.metrics import (
    as_distribution,
    compare_to_oracle,
    expected_accuracy,
    intersection_report,
)


class TestAsDistribution:
    def test_dict_is_normalized(self):
        assert as_distribution({"a": 2.0, "b": 6.0}) == {"a": 0.25, "b": 0.75}

    def test_zero_entries_dropped(self):
        assert as_distribution({"a": 1.0, "b": 0.0}) == {"a": 1.0}

    def test_empty_mass_rejected(self):
        with pytest.raises(ValueError):
            as_distribution({"a": 0.0})

    def test_estimate_coerced(self, geo_panel, geo_spec):
        out = smc(geo_spec, geo_panel, SamplerConfig(particles=16, seed=0))
        dist = as_distribution(out)
        assert_allclose(sum(dist.values()), 1.0, rtol=1e-12)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            as_distribution([("a", 1.0)])

    def test_expected_accuracy(self):
        dist = {"aa": 0.25, "ab": 0.25, "bb": 0.5}
        assert expected_accuracy(dist, lambda x: x.startswith("a")) == 0.5


def _local_draws(xs, completed, log_local):
    """Draws of the step-local baseline as ``local_sample`` returns them:
    weight 1 on completed draws, 0 on truncated ones."""
    completed = np.array(completed)
    log_w = np.where(completed, 0.0, -np.inf)
    log_z_hat = float(np.log(completed.mean())) if completed.any() else -np.inf
    return Estimate(list(xs), log_w, completed, np.array(log_local), log_z_hat, Diagnostics())


class TestEmpiricalDistribution:
    def test_counts_strings(self):
        assert empirical_distribution(["a", "b", "a", "a"]) == {"a": 0.75, "b": 0.25}

    def test_truncated_local_draws_excluded(self):
        draws = _local_draws(["a", "abcd", "b"], [True, False, True], [-1.0, -9.0, -1.0])
        assert empirical_distribution(draws) == {"a": 0.5, "b": 0.5}

    def test_all_truncated_rejected(self):
        draws = _local_draws(["abcd"], [False], [-9.0])
        with pytest.raises(ValueError):
            empirical_distribution(draws)


class TestMixtureIdentity:
    def test_linear_pool_accuracy_is_weighted_mean(self, make_random_panel):
        """The weighted-sum ensemble's accuracy equals the weighted mean
        of per-expert accuracies, for any weights and predicate."""
        rng = np.random.default_rng(50)
        for _ in range(10):
            panel = make_random_panel(rng, k=int(rng.integers(2, 4)))
            weights = rng.dirichlet(np.ones(len(panel)))
            candidates = ["", "a", "b", "aa", "ab", "ba", "bb"]
            chosen = frozenset(
                x for x in candidates if rng.random() < 0.5
            )
            predicate = lambda x: x in chosen
            ensemble, mixture = mixture_identity(panel, weights, predicate, max_len=2)
            assert_allclose(ensemble, mixture, rtol=1e-12, atol=1e-12)

    def test_equal_weights_give_arithmetic_mean(self, geo_panel):
        predicate = lambda x: x == "a"
        ensemble, mixture = mixture_identity(geo_panel, [0.5, 0.5], predicate, max_len=3)
        assert_allclose(mixture, (0.5 + 0.25) / 2.0, rtol=1e-12)
        assert_allclose(ensemble, mixture, rtol=1e-12)


    def test_expert_without_support_in_the_horizon_refused(self, geo_panel):
        """An expert whose only string is longer than the horizon has no
        one-expert table to take an accuracy from."""
        long_only = TableModel({"aaa": 1.0}, alphabet=Alphabet("ab"))
        panel = ExpertPanel([geo_panel[0], long_only])
        with pytest.raises(EnumerationBudgetError, match="no support within the horizon"):
            mixture_identity(panel, [0.5, 0.5], lambda x: x == "a", max_len=2)


class TestIntersectionReport:
    def panel(self):
        # Each expert prefers its own junk string but shares one good one.
        return ExpertPanel(
            [
                TableModel({"x": 0.6, "g": 0.4}, alphabet=Alphabet("gxy")),
                TableModel({"y": 0.6, "g": 0.4}, alphabet=Alphabet("gxy")),
            ]
        )

    def test_product_concentrates_on_agreement(self):
        report = intersection_report(self.panel(), lambda x: x == "g", max_len=1)
        assert report["expert_accuracy"] == [pytest.approx(0.4), pytest.approx(0.4)]
        assert report["ensemble_accuracy"] == pytest.approx(1.0)
        assert report["ensemble_accuracy"] > max(report["expert_accuracy"])
        assert report["top_strings"][0]["x"] == "g"
        assert report["top_strings"][0]["p"] == pytest.approx(1.0)
        assert_allclose(math.exp(report["log_z"]), 0.4, rtol=1e-12)

    def test_top_is_truncated_and_sorted(self, geo_panel):
        report = intersection_report(geo_panel, lambda x: True, max_len=3, top=2)
        assert len(report["top_strings"]) == 2
        assert report["top_strings"][0]["p"] >= report["top_strings"][1]["p"]


class TestCompareToOracle:
    def test_fields_and_agreement(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        out = smc(geo_spec, geo_panel, SamplerConfig(particles=64, seed=0))
        report = compare_to_oracle(out, table)
        assert report["z"] == pytest.approx(math.exp(table.log_z), rel=1e-12)
        assert report["rel_error"] == pytest.approx(
            report["abs_error"] / report["z"], rel=1e-12
        )
        assert report["rel_error"] < 0.05
        assert 0.0 <= report["tvd"] <= 1.0

    def test_all_zero_weights_report_no_tvd(self, geo_panel, geo_spec):
        """A population with no weight has no distribution to compare;
        the report says so instead of failing."""
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        dead = Estimate(
            xs=["a"],
            log_w=np.array([-math.inf]),
            completed=np.array([True]),
            log_proposal=np.zeros(1),
            log_z_hat=-math.inf,
            diagnostics=Diagnostics(),
        )
        report = compare_to_oracle(dead, table)
        assert report["tvd"] is None
        assert report["z_hat"] == 0.0
