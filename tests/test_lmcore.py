import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ensmc import (
    EOS_KEY,
    LOG_ZERO,
    Alphabet,
    TableModel,
    UndefinedConditionalError,
    prefix_log_prob,
    string_log_prob,
)
from ensmc.lmcore import draw_index, draw_indices, sample_with_log_prob, validate_log_row


class TestAlphabet:
    def test_dense_layout(self):
        """Symbol i sits at index i; the end marker takes the final slot."""
        a = Alphabet("xyz")
        assert a.index == {"x": 0, "y": 1, "z": 2}
        assert a.size == 3 and a.eos_index == 3

    def test_rejects_duplicates_and_multichar(self):
        with pytest.raises(ValueError):
            Alphabet("aa")
        with pytest.raises(ValueError):
            Alphabet(["ab"])
        with pytest.raises(ValueError):
            Alphabet([])

    def test_dict_row_round_trip(self):
        a = Alphabet("ab")
        row = a.row_from_dict({"a": 0.25, EOS_KEY: 0.75})
        assert row[a.index["b"]] == LOG_ZERO
        back = a.row_to_dict(row)
        assert_allclose([back["a"], back[EOS_KEY]], [0.25, 0.75], rtol=1e-15)
        assert "b" not in back

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("ab").row_from_dict({"c": 1.0})

    def test_check_string(self):
        with pytest.raises(ValueError):
            Alphabet("ab").check_string("abc")


class TestValidateLogRow:
    def test_accepts_normalized(self):
        a = Alphabet("ab")
        validate_log_row(np.log([0.2, 0.3, 0.5]), a)

    def test_rejects_defective_sum(self):
        a = Alphabet("ab")
        with pytest.raises(ValueError):
            validate_log_row(np.log([0.2, 0.3, 0.49]), a)

    def test_rejects_nan_and_positive_inf(self):
        a = Alphabet("a")
        with pytest.raises(ValueError):
            validate_log_row(np.array([np.nan, 0.0]), a)
        with pytest.raises(ValueError):
            validate_log_row(np.array([np.inf, LOG_ZERO]), a)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_log_row(np.zeros(2), Alphabet("ab"))


class TestFactorization:
    """String and prefix probabilities are products of conditionals."""

    def test_string_prob_matches_table_entry(self, make_random_table):
        rng = np.random.default_rng(3)
        for _ in range(25):
            model = make_random_table(rng)
            for x, p in model.entries.items():
                assert_allclose(np.exp(string_log_prob(model, x)), p, rtol=1e-12)

    def test_off_support_string_has_zero_prob(self, make_random_table):
        rng = np.random.default_rng(4)
        model = make_random_table(rng)
        outside = [x for x in ("", "a", "b", "ab", "ba", "aa", "bb")
                   if x not in model.entries]
        for x in outside:
            assert string_log_prob(model, x) == LOG_ZERO

    def test_prefix_mass_conservation(self, make_random_table):
        """p_prefix(x) = p(x) + sum_b p_prefix(x + b) at every live prefix."""
        rng = np.random.default_rng(5)
        for _ in range(25):
            model = make_random_table(rng)
            for x in ("", "a", "b", "aa", "ab", "ba", "bb"):
                total = np.exp(prefix_log_prob(model, x))
                parts = np.exp(string_log_prob(model, x)) + sum(
                    np.exp(prefix_log_prob(model, x + s)) for s in "ab"
                )
                assert_allclose(total, parts, rtol=1e-12, atol=1e-15)

    def test_prefix_of_empty_string_is_one(self, make_random_table):
        model = make_random_table(np.random.default_rng(6))
        assert prefix_log_prob(model, "") == 0.0


class TestCondNext:
    def test_dead_context_raises(self):
        model = TableModel({"a": 1.0}, alphabet=Alphabet("ab"))
        with pytest.raises(UndefinedConditionalError):
            model.log_next("b")

    def test_live_context_row_normalized(self, make_random_table):
        rng = np.random.default_rng(7)
        model = make_random_table(rng)
        row = model.log_next("")
        assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)


class TestDrawIndex:
    def test_never_selects_zero_cells(self):
        """Zero-probability cells are unreachable for any RNG draw."""
        rng = np.random.default_rng(8)
        probs = np.array([0.0, 0.4, 0.0, 0.6, 0.0])
        for _ in range(2000):
            assert probs[draw_index(rng, probs)] > 0.0

    def test_matches_probabilities(self):
        rng = np.random.default_rng(9)
        probs = np.array([0.2, 0.5, 0.3])
        n = 20000
        counts = np.bincount([draw_index(rng, probs) for _ in range(n)], minlength=3)
        se = np.sqrt(probs * (1 - probs) / n)
        assert (np.abs(counts / n - probs) < 5 * se).all()

    def test_deterministic_given_stream(self):
        probs = np.array([0.3, 0.7])
        a = [draw_index(np.random.default_rng(1), probs) for _ in range(1)]
        b = [draw_index(np.random.default_rng(1), probs) for _ in range(1)]
        assert a == b


class _FixedUniform:
    """A generator stand-in whose ``random()`` returns the given double."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


#: Uniforms that ``Generator.random()`` can return, weighted toward the
#: top of [0, 1), where ``u * cum[-1]`` may round up to ``cum[-1]``.
_UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 64).map(lambda k: 1.0 - (k + 1) * 2.0**-53),
    st.just(0.0),
)


@st.composite
def _rows(draw):
    """Linear-domain rows with zero cells and cumulative sums short of 1:
    normalized, scaled just below 1, or scaled down to subnormal cells,
    where ``u * cum[-1]`` rounds to ``cum[-1]`` and the fallback runs."""
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(1e-6, 1.0)),
        min_size=n, max_size=n,
    ))
    probs = np.array(cells)
    top = draw(st.integers(0, n - 1))
    probs[top] = draw(st.floats(1e-3, 1.0))
    probs = probs / probs.sum()
    probs = probs * draw(st.one_of(
        st.just(1.0),
        st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0**-52),
        st.integers(1, 8).map(lambda k: k * 2.0**-1074),
    ))
    probs[top] = max(probs[top], 2.0**-1074)
    return probs


def _inverse_cdf(probs, u) -> int:
    """The inverse-CDF rule written out for one uniform: the reference."""
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
    if idx >= len(probs):
        idx = int(np.flatnonzero(probs > 0.0)[-1])
    return idx


class TestDrawIndices:
    @settings(max_examples=400, deadline=None)
    @given(_rows(), st.lists(_UNIFORMS, min_size=1, max_size=40))
    def test_matches_one_draw_index_per_uniform(self, probs, us):
        """The batched draw of the sequential samplers is ``draw_index``
        per uniform, fallback included, for arrays and for one double;
        both follow the scalar inverse-CDF rule."""
        want = [draw_index(_FixedUniform(u), probs) for u in us]
        assert want == [_inverse_cdf(probs, u) for u in us]
        assert draw_indices(probs, np.array(us)).tolist() == want
        assert [int(draw_indices(probs, u)) for u in us] == want


class TestSampling:
    def test_completed_draw_scores_like_string_log_prob(self, make_random_table):
        rng = np.random.default_rng(10)
        model = make_random_table(rng)
        for _ in range(50):
            x, log_p, completed = sample_with_log_prob(model, rng, max_len=8)
            assert completed
            assert_allclose(log_p, string_log_prob(model, x), rtol=1e-12)

    def test_truncation_is_flagged(self):
        model = TableModel({"aaaa": 1.0})
        x, log_p, completed = sample_with_log_prob(model, np.random.default_rng(0), max_len=2)
        assert x == "aa" and not completed
        assert log_p == prefix_log_prob(model, "aa")

    def test_negative_max_len_rejected(self, make_random_table):
        model = make_random_table(np.random.default_rng(11))
        with pytest.raises(ValueError):
            sample_with_log_prob(model, np.random.default_rng(0), max_len=-1)
