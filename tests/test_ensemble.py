import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ensmc import (
    LOG_ZERO,
    DeadPrefixError,
    EnsembleSpec,
    ExpertPanel,
    PrefixPotentialShaping,
    TableModel,
    is_consensus,
    prefix_log_prob,
    string_log_prob,
)
from ensmc.ensemble import log_potential_columns, log_string_potential


def _logs(values):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(values, dtype=float))


def reference_geometric(spec, log_matrix):
    """The masked geometric combine: on a C-ordered copy of the active
    rows, every column holding a zero is summed as zeros and then set to
    ``LOG_ZERO``; the other columns are their products summed in expert
    order."""
    active = np.asarray(spec.weights) > 0.0
    m = np.ascontiguousarray(log_matrix)[active]
    w = np.asarray(spec.weights)[active]
    any_zero = (m == LOG_ZERO).any(axis=0)
    z = np.where(any_zero[None, :], 0.0, m) * w[:, None]
    out = sum(z[1:], z[0])
    out[any_zero] = LOG_ZERO
    return out


class TestWeights:
    def test_integer_means_uniform(self):
        assert EnsembleSpec.geometric(4).weights == (0.25,) * 4

    def test_normalization(self):
        assert_allclose(EnsembleSpec.geometric([2, 6]).weights, (0.25, 0.75), rtol=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec.geometric([0.5, -0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec.geometric([0.0, 0.0])


class TestSpecConstruction:
    def test_named_operators_map_to_power(self):
        assert EnsembleSpec.from_name("harmonic", 2).tau == -1.0
        assert EnsembleSpec.from_name("sum", 2).tau == 1.0
        assert EnsembleSpec.from_name("quadratic", 2).tau == 2.0

    def test_aliases(self):
        assert EnsembleSpec.from_name("product", 2).kind == "geometric"
        assert EnsembleSpec.from_name("min", 2).kind == "minimum"
        assert EnsembleSpec.from_name("max", 2).kind == "maximum"

    def test_power_requires_finite_nonzero_tau(self):
        for tau in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                EnsembleSpec.power(tau, 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec.from_name("median", 2)

    def test_bad_kind_or_tau_rejected(self):
        with pytest.raises(ValueError, match="minimum operator takes no tau"):
            EnsembleSpec("minimum", (1.0,), tau=2.0)
        with pytest.raises(ValueError, match="unknown operator kind 'median'"):
            EnsembleSpec("median", (1.0,))

    @pytest.mark.parametrize("name", ["sum", "harmonic", "geometric", "product", "min", "max"])
    def test_named_operator_rejects_tau(self, name):
        """A name other than ``power`` fixes its exponent or limit, so a
        ``tau`` given with it is an error, not silently replaced."""
        with pytest.raises(ValueError, match=f"{name} operator takes no tau"):
            EnsembleSpec.from_name(name, 2, tau=3.0)

    def test_consensus_classification(self):
        assert is_consensus(EnsembleSpec.minimum(2))
        assert is_consensus(EnsembleSpec.geometric(2))
        assert is_consensus(EnsembleSpec.power(-0.5, 2))
        assert not is_consensus(EnsembleSpec.power(0.5, 2))
        assert not is_consensus(EnsembleSpec.maximum(2))


class TestCombine:
    """The operator on positive vectors matches its closed form."""

    def test_geometric_closed_form(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            v = rng.random(3) + 1e-3
            w = rng.dirichlet(np.ones(3))
            spec = EnsembleSpec.geometric(w)
            want = math.exp(float(np.dot(spec.weights, np.log(v))))
            assert_allclose(math.exp(spec.combine(_logs(v))), want, rtol=1e-12)

    def test_power_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.random(4) + 1e-3
            w = rng.dirichlet(np.ones(4))
            tau = float(rng.uniform(-4, 4)) or 1.0
            spec = EnsembleSpec.power(tau, w)
            want = float(np.dot(spec.weights, v**tau)) ** (1.0 / tau)
            assert_allclose(math.exp(spec.combine(_logs(v))), want, rtol=1e-10)

    def test_sum_is_weighted_mean(self):
        spec = EnsembleSpec.from_name("sum", [1, 3])
        assert_allclose(math.exp(spec.combine(_logs([0.2, 0.6]))), 0.5, rtol=1e-12)

    def test_min_max_ignore_weight_values_on_support(self):
        v = _logs([0.3, 0.7])
        for w in ([0.5, 0.5], [0.9, 0.1]):
            assert_allclose(math.exp(EnsembleSpec.minimum(w).combine(v)), 0.3)
            assert_allclose(math.exp(EnsembleSpec.maximum(w).combine(v)), 0.7)

    def test_zero_weight_expert_dropped(self):
        """An expert with zero weight cannot veto or contribute."""
        v = _logs([0.0, 0.5])
        assert math.exp(EnsembleSpec.minimum([0, 1]).combine(v)) == 0.5
        assert math.exp(EnsembleSpec.geometric([0, 1]).combine(v)) == 0.5
        assert EnsembleSpec.maximum([1, 0]).combine(_logs([0.0, 0.9])) == LOG_ZERO

    def test_sandwich_bound(self):
        """min <= power mean <= max for every tau and weights."""
        rng = np.random.default_rng(22)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            v = rng.random(k) + 1e-6
            w = rng.dirichlet(np.ones(k))
            tau = float(rng.uniform(-30, 30)) or 0.5
            m = math.exp(EnsembleSpec.power(tau, w).combine(_logs(v)))
            assert v.min() - 1e-12 <= m <= v.max() + 1e-12

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = rng.random(3) + 1e-3
            w = rng.dirichlet(np.ones(3))
            taus = np.sort(rng.uniform(-5, 5, size=2))
            if taus[0] == 0.0 or taus[1] == 0.0:
                continue
            lo = EnsembleSpec.power(float(taus[0]), w).combine(_logs(v))
            hi = EnsembleSpec.power(float(taus[1]), w).combine(_logs(v))
            assert lo <= hi + 1e-10

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda k: st.tuples(
            st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=k, max_size=k).filter(any),
            st.lists(
                st.lists(st.one_of(st.floats(-40.0, 0.0), st.just(LOG_ZERO)),
                         min_size=k, max_size=k),
                min_size=1, max_size=9,
            ),
        )),
        st.booleans(),
    )
    def test_matrix_and_vector_paths_agree(self, case, fortran):
        """Column locality: each column of ``combine_columns`` has the
        bytes ``combine`` gives that column alone, for every operator,
        whatever the batch width, zero weights or memory order."""
        weights, columns = case
        logmat = np.array(columns).T  # (K, n), F-ordered
        if not fortran:
            logmat = np.ascontiguousarray(logmat)
        specs = [EnsembleSpec.geometric(weights), EnsembleSpec.minimum(weights),
                 EnsembleSpec.maximum(weights)]
        specs += [EnsembleSpec.power(tau, weights) for tau in (-3.0, -1.0, 0.5, 1.0, 2.0)]
        for spec in specs:
            cols = spec.combine_columns(logmat)
            for j in range(logmat.shape[1]):
                want = np.float64(spec.combine(logmat[:, j]))
                assert cols[j].tobytes() == want.tobytes(), (spec, j)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda k: st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=k, max_size=k,
        ).filter(any)),
        st.integers(1, 257),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["C", "F", "strided"]),
    )
    def test_geometric_bytes_equal_the_masked_reference(self, weights, width, seed, layout):
        """The unmasked geometric combine gives the masked formula's bytes
        for any K, zero weights, ``-inf`` entries and all-``-inf``
        columns, in C order, F order or a ``node[:-1, :-1]``-style view."""
        rng = np.random.default_rng(seed)
        k = len(weights)
        logmat = rng.uniform(-700.0, 5.0, size=(k, width))
        logmat[rng.random((k, width)) < rng.uniform(0.0, 0.5)] = LOG_ZERO
        logmat[:, rng.integers(width)] = LOG_ZERO
        if layout == "F":
            logmat = np.asfortranarray(logmat)
        elif layout == "strided":
            node = np.zeros((k + 1, width + 1))
            node[:-1, :-1] = logmat
            logmat = node[:-1, :-1]
        spec = EnsembleSpec.geometric(weights)
        assert spec.combine_columns(logmat).tobytes() == reference_geometric(spec, logmat).tobytes()

    def test_rejects_nan_and_positive_inf(self):
        spec = EnsembleSpec.geometric(2)
        with pytest.raises(ValueError):
            spec.combine([0.0, np.nan])
        with pytest.raises(ValueError):
            spec.combine([0.0, np.inf])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            EnsembleSpec.geometric(2).combine([0.0, 0.0, 0.0])


class TestZeroHandling:
    """Support algebra: consensus kills on any zero, coverage on all."""

    def test_consensus_zero_on_any_zero(self):
        v = _logs([0.0, 0.9])
        for spec in (
            EnsembleSpec.minimum(2),
            EnsembleSpec.geometric(2),
            EnsembleSpec.power(-2.0, 2),
        ):
            assert spec.combine(v) == LOG_ZERO

    def test_coverage_positive_on_some_positive(self):
        v = _logs([0.0, 0.9])
        for spec in (
            EnsembleSpec.maximum(2),
            EnsembleSpec.power(0.5, 2),
            EnsembleSpec.power(1.0, 2),
            EnsembleSpec.power(2.0, 2),
        ):
            assert spec.combine(v) > LOG_ZERO

    def test_all_zero_gives_zero_for_every_operator(self):
        v = np.array([LOG_ZERO, LOG_ZERO])
        for spec in (
            EnsembleSpec.minimum(2),
            EnsembleSpec.maximum(2),
            EnsembleSpec.geometric(2),
            EnsembleSpec.power(-1.0, 2),
            EnsembleSpec.power(2.0, 2),
        ):
            assert spec.combine(v) == LOG_ZERO


class TestLimits:
    """Finite tau approaches the named limits at the analytic rates."""

    def test_large_negative_tau_brackets_minimum(self):
        # For tau < 0: min <= M_tau <= min * w_argmin^(1/tau); the weight
        # prefactor exp(-log w / |tau|) is the entire gap.
        rng = np.random.default_rng(25)
        tau = -50.0
        for _ in range(200):
            k = int(rng.integers(2, 5))
            v = rng.random(k) + 1e-6
            w = rng.dirichlet(np.ones(k))
            m = math.exp(EnsembleSpec.power(tau, w).combine(_logs(v)))
            cap = v.min() * math.exp(-math.log(w.min()) / abs(tau))
            assert v.min() * (1 - 1e-12) <= m <= cap * (1 + 1e-12)

    def test_large_positive_tau_brackets_maximum(self):
        rng = np.random.default_rng(26)
        tau = 50.0
        for _ in range(200):
            k = int(rng.integers(2, 5))
            v = rng.random(k) + 1e-6
            w = rng.dirichlet(np.ones(k))
            m = math.exp(EnsembleSpec.power(tau, w).combine(_logs(v)))
            floor = v.max() * math.exp(math.log(w.min()) / tau)
            assert floor * (1 - 1e-12) <= m <= v.max() * (1 + 1e-12)

    def test_small_tau_approaches_geometric_quadratically(self):
        # |log M_tau - log G| <= |tau| * range(log v)^2 / 8 by a Taylor
        # bound on the cumulant of the log-values.
        rng = np.random.default_rng(27)
        for tau in (-1e-3, 1e-3):
            for _ in range(200):
                k = int(rng.integers(2, 5))
                v = rng.random(k) + 1e-6
                w = rng.dirichlet(np.ones(k))
                u = np.log(v)
                g = float(np.dot(w / w.sum(), u))
                m = EnsembleSpec.power(tau, w).combine(_logs(v))
                assert abs(m - g) <= abs(tau) * np.ptp(u) ** 2 / 8 + 1e-12


class TestEpsilonShift:
    """The shaping's additive repair: a prefix potential v becomes v + eps."""

    def test_shift_value(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel, epsilon=1e-4)
        # "ab" is dead under the product, so its potential is eps alone.
        assert math.exp(shaping.log_value("ab")) == pytest.approx(1e-4, rel=1e-13)
        want = math.sqrt(0.5 * 0.25) + 1e-4
        assert math.exp(shaping.log_value("a")) == pytest.approx(want, rel=1e-13)

    def test_rejects_nonpositive_eps(self, geo_panel, geo_spec):
        with pytest.raises(ValueError):
            PrefixPotentialShaping(geo_spec, geo_panel, epsilon=0.0)
        with pytest.raises(ValueError, match="finite"):
            PrefixPotentialShaping(geo_spec, geo_panel, epsilon=float("inf"))


class TestPotentials:
    def test_string_potential_combines_expert_string_probs(self, geo_panel, geo_spec):
        want = math.sqrt(0.5 * 0.25)
        assert_allclose(
            math.exp(log_string_potential(geo_spec, geo_panel, "a")), want, rtol=1e-12
        )

    def test_prefix_potential_combines_expert_prefix_probs(self, geo_panel, geo_spec):
        shaping = PrefixPotentialShaping(geo_spec, geo_panel)
        assert_allclose(math.exp(shaping.log_value("")), 1.0)
        want = math.sqrt(0.5 * 0.25)
        assert_allclose(math.exp(shaping.log_value("a")), want, rtol=1e-12)

    def test_columns_layout(self, make_random_panel):
        """Column a holds the potential of x+a; the last column is phi(x)."""
        rng = np.random.default_rng(28)
        for _ in range(20):
            panel = make_random_panel(rng)
            spec = EnsembleSpec.power(float(rng.uniform(-2, 2)) or 1.0, 2)
            for x in ("", "a", "b"):
                if all(prefix_log_prob(m, x) == LOG_ZERO for m in panel):
                    continue
                cols = log_potential_columns(spec, panel, x)
                for j, s in enumerate(panel.alphabet.symbols):
                    want = spec.combine([prefix_log_prob(m, x + s) for m in panel])
                    assert_allclose(cols[j], want, rtol=1e-10, atol=1e-12)
                want = spec.combine([string_log_prob(m, x) for m in panel])
                assert_allclose(cols[panel.alphabet.eos_index], want, rtol=1e-10, atol=1e-12)

    def test_coverage_column_with_one_dead_expert(self):
        """A dead expert must not drag a coverage combination to zero."""
        from ensmc import Alphabet

        panel = ExpertPanel([
            TableModel({"a": 1.0}, alphabet=Alphabet("ab")),
            TableModel({"b": 1.0}, alphabet=Alphabet("ab")),
        ])
        spec = EnsembleSpec.maximum(2)
        cols = log_potential_columns(spec, panel, "a")
        assert_allclose(math.exp(cols[panel.alphabet.eos_index]), 1.0, rtol=1e-12)

    def test_next_potentials_dead_prefix_raises(self, geo_panel):
        spec = EnsembleSpec.minimum(2)
        with pytest.raises(DeadPrefixError):
            PrefixPotentialShaping(spec, geo_panel).log_row("ab")


class TestExpertPanel:
    def test_rejects_mismatched_alphabets(self):
        with pytest.raises(ValueError):
            ExpertPanel([TableModel({"a": 1.0}), TableModel({"b": 1.0})])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExpertPanel([])

    def test_iteration_and_indexing(self, geo_panel):
        assert len(geo_panel) == 2
        assert list(geo_panel)[1] is geo_panel[1]
