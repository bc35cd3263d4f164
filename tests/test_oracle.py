import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import GEO_PROBS, GEO_Z, MIN_PROBS, MIN_Z

from ensmc import (
    LOG_ZERO,
    Alphabet,
    EnsembleSpec,
    EnumerationBudgetError,
    ExpertPanel,
    PFSAModel,
    TableModel,
    dump_table,
    enumerate_ensemble,
    load_table,
    minimize_divergence_simplex,
    string_log_prob,
    total_variation,
)
from ensmc.oracle import alpha_divergence, kl_divergence, model_log_probs


def brute_force_table(spec, panel, max_len):
    """Independent target: combine expert string probs over all strings."""
    out = {}
    symbols = panel.alphabet.symbols
    for length in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=length):
            x = "".join(tup)
            phi = spec.combine([string_log_prob(m, x) for m in panel])
            if phi != LOG_ZERO:
                out[x] = phi
    return out


class TestEnumerateEnsemble:
    def test_geometric_fixture_closed_form(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        assert_allclose(math.exp(table.log_z), GEO_Z, rtol=1e-14)
        probs = table.probs()
        assert set(probs) == set(GEO_PROBS)
        for x, p in GEO_PROBS.items():
            assert_allclose(probs[x], p, rtol=1e-12)
        assert table.is_complete

    def test_minimum_fixture_closed_form(self, geo_panel, min_spec):
        table = enumerate_ensemble(min_spec, geo_panel, max_len=3)
        assert_allclose(math.exp(table.log_z), MIN_Z, rtol=1e-14)
        for x, p in MIN_PROBS.items():
            assert_allclose(table.probs()[x], p, rtol=1e-12)

    def test_matches_brute_force_across_operators(self, make_random_panel):
        """DFS with pruning agrees with the unpruned product-space scan."""
        rng = np.random.default_rng(30)
        specs = [
            EnsembleSpec.geometric(2),
            EnsembleSpec.minimum(2),
            EnsembleSpec.maximum(2),
            EnsembleSpec.power(-1.0, 2),
            EnsembleSpec.power(0.5, 2),
            EnsembleSpec.power(2.0, 2),
            EnsembleSpec.from_name("sum", [0.3, 0.7]),
        ]
        for _ in range(12):
            panel = make_random_panel(rng)
            for spec in specs:
                want = brute_force_table(spec, panel, max_len=2)
                if not want:
                    continue
                table = enumerate_ensemble(spec, panel, max_len=2)
                got = dict(zip(table.strings, table.log_values))
                assert set(got) == set(want)
                for x in want:
                    assert_allclose(got[x], want[x], rtol=1e-10, atol=1e-12)

    def test_prefix_target_of_empty_prefix_is_z(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        assert table.log_prefix_target("") == table.log_z

    def test_prefix_target_sums_extensions(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        assert_allclose(
            math.exp(table.log_prefix_target("a")),
            math.sqrt(0.125),
            rtol=1e-12,
        )

    def test_beyond_horizon_queries_rejected(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=2)
        with pytest.raises(EnumerationBudgetError):
            table.log_value("aaa")
        with pytest.raises(EnumerationBudgetError):
            table.log_prefix_target("aaa")

    def test_to_model_round_trip(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        model = table.to_model()
        for x, lv in zip(table.strings, table.log_values):
            assert_allclose(
                string_log_prob(model, x), lv - table.log_z, rtol=1e-12
            )

    def test_expected_accuracy(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        acc = table.expected_accuracy(lambda x: x == "a")
        assert_allclose(acc, GEO_PROBS["a"], rtol=1e-12)


class TestResidualBound:
    def pfsa_panel(self):
        # One looping automaton: p(a^n) = 0.5^(n+1); tail mass is exact.
        model = PFSAModel(
            Alphabet("a"),
            start="s",
            transitions={"s": {"a": ("s", 0.5)}},
            stops={"s": 0.5},
        )
        return ExpertPanel([model, model])

    def test_residual_equals_exact_tail_for_consensus(self):
        panel = self.pfsa_panel()
        table = enumerate_ensemble(EnsembleSpec.geometric(2), panel, max_len=5)
        # Geometric of identical experts is the expert; tail = 0.5^6.
        assert not table.is_complete
        assert_allclose(math.exp(table.log_residual_bound), 0.5**6, rtol=1e-12)

    def test_residual_soundness_across_horizons(self, make_random_panel):
        """Z at a longer horizon never exceeds Z + residual at a shorter one."""
        rng = np.random.default_rng(31)
        specs = [
            EnsembleSpec.geometric(2),
            EnsembleSpec.minimum(2),
            EnsembleSpec.maximum(2),
            EnsembleSpec.power(-2.0, 2),
            EnsembleSpec.power(0.5, 2),
            EnsembleSpec.power(3.0, 2),
        ]
        for _ in range(10):
            panel = make_random_panel(rng, max_len=2)
            for spec in specs:
                try:
                    short = enumerate_ensemble(spec, panel, max_len=1)
                except EnumerationBudgetError:
                    continue  # no support at the short horizon
                full = enumerate_ensemble(spec, panel, max_len=2)
                cap = np.logaddexp(short.log_z, short.log_residual_bound)
                assert full.log_z <= cap + 1e-10

    def test_complete_support_has_zero_residual(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        assert table.log_residual_bound == LOG_ZERO


class TestBudgets:
    def test_alphabet_cap(self):
        big = Alphabet("abcdefgh")
        model = TableModel({"a": 1.0}, alphabet=big)
        with pytest.raises(EnumerationBudgetError):
            enumerate_ensemble(EnsembleSpec.geometric(1), ExpertPanel([model]), max_len=2)

    def test_length_cap(self, geo_panel, geo_spec):
        with pytest.raises(EnumerationBudgetError):
            enumerate_ensemble(geo_spec, geo_panel, max_len=11)

    def test_node_cap(self, geo_panel, geo_spec):
        with pytest.raises(EnumerationBudgetError):
            enumerate_ensemble(geo_spec, geo_panel, max_len=3, max_nodes=2)


class TestTableSerialization:
    def test_round_trip_bitwise(self, geo_panel, geo_spec, tmp_path):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        path = tmp_path / "table.tsv"
        dump_table(table, path)
        back = load_table(path)
        assert back.strings == table.strings
        assert (back.log_values == table.log_values).all()
        assert back.log_z == table.log_z
        assert back.log_residual_bound == table.log_residual_bound
        assert back.alphabet == table.alphabet
        assert back.weights == table.weights
        assert back.operator == table.operator

    def test_escaped_strings_survive(self, tmp_path):
        model = TableModel({"\t": 0.5, "\\": 0.5}, alphabet=Alphabet("\t\\"))
        table = enumerate_ensemble(
            EnsembleSpec.geometric(1), ExpertPanel([model]), max_len=1
        )
        path = tmp_path / "table.tsv"
        dump_table(table, path)
        assert load_table(path).strings == table.strings

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("not a table\n")
        with pytest.raises(ValueError):
            load_table(path)


class TestModelLogProbs:
    def test_matches_direct_scoring(self, make_random_table):
        rng = np.random.default_rng(32)
        model = make_random_table(rng)
        out = model_log_probs(model, max_len=2)
        assert set(out) == set(model.entries)
        for x, lv in out.items():
            assert_allclose(lv, math.log(model.entries[x]), rtol=1e-12)


class TestDivergences:
    def test_kl_hand_value(self):
        q = {"a": 0.5, "b": 0.5}
        p = {"a": 0.25, "b": 0.75}
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert_allclose(kl_divergence(q, p), want, rtol=1e-12)

    def test_tvd_hand_value(self):
        q = {"a": 0.5, "b": 0.5}
        p = {"a": 0.25, "b": 0.5, "c": 0.25}
        assert_allclose(total_variation(q, p), 0.25, rtol=1e-15)

    def test_alpha_limits_are_kl(self):
        q = {"a": 0.4, "b": 0.6}
        p = {"a": 0.7, "b": 0.3}
        assert_allclose(alpha_divergence(q, p, 1.0), kl_divergence(q, p), rtol=1e-12)
        assert_allclose(alpha_divergence(q, p, 0.0), kl_divergence(p, q), rtol=1e-12)

    def test_alpha_continuity_near_limits(self):
        q = {"a": 0.4, "b": 0.6}
        p = {"a": 0.7, "b": 0.3}
        assert_allclose(
            alpha_divergence(q, p, 1e-7), alpha_divergence(q, p, 0.0), atol=1e-6
        )

    def test_nonnegative_and_zero_at_equality(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            v = rng.dirichlet(np.ones(4))
            q = {s: float(p) for s, p in zip("abcd", v)}
            assert alpha_divergence(q, q, 0.5) == pytest.approx(0.0, abs=1e-12)
            w = rng.dirichlet(np.ones(4))
            p = {s: float(x) for s, x in zip("abcd", w)}
            assert alpha_divergence(q, p, 0.5) >= -1e-12


class TestDivergenceMinimizer:
    def test_single_expert_recovered(self):
        """With one expert the divergence minimizer is that expert."""
        expert = np.array([[0.1, 0.2, 0.3, 0.4]])
        q = minimize_divergence_simplex(expert, [1.0], alpha=0.5)
        assert_allclose(q, expert[0], atol=1e-5)

    def test_two_experts_match_closed_form(self):
        """The minimizer is the normalized power mean with tau = 1 - alpha."""
        rng = np.random.default_rng(34)
        p = rng.dirichlet(np.ones(4), size=2)
        w = np.array([0.4, 0.6])
        for alpha in (-1.0, 0.5, 2.0):
            tau = 1.0 - alpha
            mean = (w[0] * p[0] ** tau + w[1] * p[1] ** tau) ** (1.0 / tau)
            mean /= mean.sum()
            q = minimize_divergence_simplex(p, w, alpha=alpha)
            assert 0.5 * np.abs(q - mean).sum() < 1e-3
