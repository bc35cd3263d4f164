import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ensmc import (
    LOG_ZERO,
    Alphabet,
    NGramModel,
    PFSAModel,
    TableModel,
    UndefinedConditionalError,
    check_model,
    fit_ngram,
    string_log_prob,
)
from ensmc.toy import load_corpus


class TestLoadCorpus:
    def test_blank_lines_are_empty_strings(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("ab\n\nb\n")
        assert load_corpus(p) == ["ab", "", "b"]

    def test_only_newline_ends_a_line(self, tmp_path):
        """Form feed, NEL, the separators and the Unicode line breaks stay
        inside their strings; CR LF ends a line as LF does."""
        p = tmp_path / "c.txt"
        p.write_text("a\x0cb\nab\n", encoding="utf-8")
        assert load_corpus(p) == ["a\x0cb", "ab"]
        text = "".join(f"a{ch}b\n" for ch in "\v\x1c\x1d\x1e\x85\u2028\u2029")
        p.write_text(text, encoding="utf-8")
        assert load_corpus(p) == text.split("\n")[:-1]
        p.write_bytes(b"ab\r\n\r\nb")
        assert load_corpus(p) == ["ab", "", "b"]
        p.write_text("")
        assert load_corpus(p) == []


class TestTableModel:
    def test_rejects_defective_mass(self):
        with pytest.raises(ValueError):
            TableModel({"a": 0.5, "b": 0.5 - 1e-9})
        with pytest.raises(ValueError, match="sum to nan"):
            TableModel({"a": float("nan"), "b": 0.5})

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            TableModel({"a": 1.5, "b": -0.5})

    def test_conditionals_are_exact_mass_ratios(self):
        model = TableModel({"a": 0.2, "ab": 0.3, "b": 0.5})
        row = model.log_next("a")
        # After "a": continue with "b" w.p. 0.3/0.5, stop w.p. 0.2/0.5.
        assert_allclose(np.exp(row[model.alphabet.index["b"]]), 0.6, rtol=1e-12)
        assert_allclose(np.exp(row[model.alphabet.eos_index]), 0.4, rtol=1e-12)

    def test_off_support_context_raises(self):
        model = TableModel({"a": 1.0}, alphabet=Alphabet("ab"))
        with pytest.raises(UndefinedConditionalError):
            model.log_next("b")

    def test_alphabet_derived_sorted(self):
        assert TableModel({"ba": 1.0}).alphabet.symbols == ("a", "b")

    def test_rows_normalized_everywhere(self, make_random_table):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = make_random_table(rng)
            check_model(model, ["", "a", "b", "aa", "ab", "ba", "bb"])


def per_symbol_table_row(entries, alphabet, context):
    """A table row as one entry per symbol: suffix sums accumulated in
    table order, each ratio stored in an array, then one safe log."""
    mass: dict[str, float] = {}
    for x, p in entries.items():
        if p > 0.0:
            for t in range(len(x) + 1):
                mass[x[:t]] = mass.get(x[:t], 0.0) + p
    row = np.empty(alphabet.size + 1)
    for i, s in enumerate(alphabet.symbols):
        row[i] = mass.get(context + s, 0.0) / mass[context]
    row[alphabet.eos_index] = entries.get(context, 0.0) / mass[context]
    with np.errstate(divide="ignore"):
        return np.log(row)


class TestTableRowsBitForBit:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text("abc", max_size=4), st.floats(1e-3, 1.0),
                           min_size=1, max_size=12))
    def test_rows_equal_the_per_symbol_rows(self, masses):
        total = sum(masses.values())
        entries = {x: m / total for x, m in masses.items()}
        model = TableModel(entries, alphabet=Alphabet("abc"))
        for context in {x[:t] for x in entries for t in range(len(x) + 1)}:
            want = per_symbol_table_row(model.entries, model.alphabet, context)
            assert model.log_next(context).tobytes() == want.tobytes(), context


def reference_fit_ngram(corpus, order, smoothing, alphabet):
    """The per-symbol counter ``fit_ngram`` must match: one dict entry per
    context key in first-seen order, one increment per event."""
    counts = {}

    def bump(ctx, idx):
        vec = counts.setdefault(ctx, np.zeros(alphabet.size + 1))
        vec[idx] += 1

    key_len = order - 1
    for x in corpus:
        alphabet.check_string(x)
        for t, ch in enumerate(x):
            ctx = x[:t][-key_len:] if key_len else ""
            bump(ctx, alphabet.index[ch])
        ctx = x[-key_len:] if key_len else ""
        bump(ctx, alphabet.eos_index)
    return NGramModel(alphabet, order, smoothing, counts)


@st.composite
def _fit_cases(draw):
    """An alphabet of 1-6 symbols, a corpus over some of them (empty
    strings and strings shorter than the key included), an order and a
    smoothing that may be 0."""
    symbols = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
    used = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=len(symbols), unique=True))
    corpus = draw(st.lists(st.text(alphabet="".join(used), max_size=12), max_size=15))
    order = draw(st.integers(1, 5))
    smoothing = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    return Alphabet(symbols), corpus, order, smoothing


class TestFitNGram:
    @settings(max_examples=300, deadline=None)
    @given(case=_fit_cases())
    def test_matches_per_symbol_counter(self, case, tmp_path_factory):
        """The one-pass fit gives the reference's keys in the same order,
        bit-equal rows and totals, and the same ``save()`` bytes."""
        alphabet, corpus, order, smoothing = case
        model = fit_ngram(corpus, order, smoothing, alphabet)
        ref = reference_fit_ngram(corpus, order, smoothing, alphabet)
        assert list(model._key_row) == list(ref._key_row)
        assert model._rows.tobytes() == ref._rows.tobytes()
        assert model._totals.tobytes() == ref._totals.tobytes()
        out = tmp_path_factory.mktemp("fit")
        model.save(out / "fit.tsv")
        ref.save(out / "ref.tsv")
        assert (out / "fit.tsv").read_bytes() == (out / "ref.tsv").read_bytes()

    def test_foreign_symbol_named(self):
        with pytest.raises(ValueError, match="symbol 'x' not in alphabet"):
            fit_ngram(["ab", "", "abxa"], order=3, smoothing=0.1, alphabet=Alphabet("ab"))

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            fit_ngram(["ab"], order=0, smoothing=0.1)

    def test_heap_bounded_by_distinct_events(self):
        """Counting keeps one entry per distinct event, not the corpus: an
        order-3 fit of about 25 000 symbols peaks under 64 KB of traced
        heap (the corpus as one int64 array alone would be about 200 KB)."""
        rng = np.random.default_rng(3)
        corpus = ["".join(rng.choice(list("abcdef"), size=n))
                  for n in rng.integers(0, 24, size=2_000)]
        alphabet = Alphabet("abcdef")
        assert 20_000 < sum(map(len, corpus)) < 30_000
        tracemalloc.start()
        try:
            fit_ngram(corpus, order=3, smoothing=0.5, alphabet=alphabet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestNGramModel:
    def test_fit_counts_and_scores(self):
        """Unsmoothed bigram reproduces corpus conditional frequencies."""
        model = fit_ngram(["ab", "aa", "a"], order=2, smoothing=0.0)
        row = model.log_next("a")
        # Events after context "a": a once ("aa"), b once ("ab"), and
        # two stops ("aa" and "a" both end in this context).
        assert_allclose(np.exp(row[model.alphabet.index["a"]]), 0.25, rtol=1e-12)
        assert_allclose(np.exp(row[model.alphabet.index["b"]]), 0.25, rtol=1e-12)
        assert_allclose(np.exp(row[model.alphabet.eos_index]), 0.5, rtol=1e-12)

    def test_smoothing_gives_full_support(self):
        model = fit_ngram(["ab"], order=2, smoothing=0.5)
        assert string_log_prob(model, "bbba") > LOG_ZERO

    def test_unsmoothed_unseen_context_raises(self):
        model = fit_ngram(["aa"], order=2, smoothing=0.0, alphabet=Alphabet("ab"))
        with pytest.raises(UndefinedConditionalError):
            model.log_next("b")

    def test_context_key_is_last_order_minus_one(self):
        model = fit_ngram(["abab"], order=2, smoothing=0.1)
        assert_allclose(model.log_next("ab"), model.log_next("bbb" + "ab"[-1:]))

    def test_rows_depend_on_the_key_and_check_the_whole_context(self):
        """Contexts sharing their last ``order - 1`` symbols get equal rows,
        and a symbol outside the alphabet anywhere in the context is
        rejected even where the key alone would be known."""
        model = fit_ngram(["abab", "bba", "aab"], order=3, smoothing=0.0)
        assert model.log_next("aab").tobytes() == model.log_next("bab").tobytes()
        assert model.log_next("ab").tobytes() == model.log_next("babab").tobytes()
        for context in ("xab", "axb", "abx", "x"):
            with pytest.raises(ValueError):
                model.log_next(context)

    def test_save_writes_sorted_nonzero_counts(self, tmp_path):
        model = fit_ngram(["ab", "aab", "b"], order=2, smoothing=0.25)
        path = tmp_path / "model.tsv"
        model.save(path)
        assert path.read_text() == (
            "ensmc-ngram\t1\norder\t2\nsmoothing\t0.25\nalphabet\tab\ncounts\t5\n"
            "\ta\t2\n\tb\t1\na\ta\t1\na\tb\t2\nb\t<eos>\t3\n"
        )

    def test_rows_normalized(self):
        model = fit_ngram(["ab", "ba", ""], order=3, smoothing=0.3)
        check_model(model, ["", "a", "ab", "ba", "bb", "abab"])

    def test_save_load_round_trip(self, tmp_path):
        """Persisted counts reload to bitwise-identical conditionals."""
        model = fit_ngram(["ab", "aab", "b"], order=2, smoothing=0.25)
        path = tmp_path / "model.tsv"
        model.save(path)
        back = NGramModel.load(path)
        assert back.alphabet == model.alphabet
        assert back.order == model.order and back.smoothing == model.smoothing
        for ctx in ("", "a", "b", "ab"):
            assert (back.log_next(ctx) == model.log_next(ctx)).all()

    def test_load_rejects_tampered_header(self, tmp_path):
        model = fit_ngram(["ab"], order=2, smoothing=0.1)
        path = tmp_path / "model.tsv"
        model.save(path)
        saved = path.read_text().splitlines()
        assert saved[5:] == ["\ta\t1", "a\tb\t1", "b\t<eos>\t1"]
        # Each is a ValueError naming the file, never a bare KeyError.
        for at, line in [
            (0, "ensmc-ngram\t9"),  # unknown version
            (1, "order\t2.5"),  # non-integer order
            (2, "smoothing\tlow"),  # non-number smoothing
            (2, "smoothing\tnan"),  # refused by the constructor
            (4, "counts\tthree"),  # non-integer row count
            (1, "order\t0"),  # refused by the constructor
            (5, "\tz\t1"),  # symbol outside the file's alphabet
            (5, "\ta"),  # too few fields
            (5, "\ta\t1\t1"),  # too many fields
            (5, "\ta\t1.5"),  # non-integer count
        ]:
            lines = list(saved)
            lines[at] = line
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=re.escape(str(path))):
                NGramModel.load(path)
        # Each header line carries its own key: swapped or renamed keys
        # would read one value as another.
        for lines, lineno, key, want in [
            ([saved[0], "smoothing\t2", "order\t0.1", *saved[3:]], 2, "smoothing", "order"),
            ([saved[0], "bogus\t3", *saved[2:]], 2, "bogus", "order"),
        ]:
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {lineno}: header key {key!r}, expected {want!r}"
            )):
                NGramModel.load(path)
        # save writes each (context, event) pair once; a repeat would add
        # into one count (two "\ta\t1" rows: p(a | "") = 2/3).
        lines = [*saved[:4], "counts\t4", saved[5], *saved[5:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 7: repeated (context, event) row {saved[5]!r}"
        )):
            NGramModel.load(path)
        # No row past the counted ones.
        path.write_text("\n".join([*saved, "b\ta\t1"]) + "\n")
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 9: row past the 3 counted 'b\\ta\\t1'"
        )):
            NGramModel.load(path)

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            NGramModel(Alphabet("ab"), order=0, smoothing=0.1, counts={})
        for smoothing in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NGramModel(Alphabet("ab"), order=2, smoothing=smoothing, counts={})
        for count in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="bad count vector for context ''"):
                NGramModel(Alphabet("ab"), order=2, smoothing=0.1, counts={"": [count, 1, 1]})


def first_count_defect(alphabet, counts):
    """The per-context check ``NGramModel`` must agree with: the error
    for the first bad context in dict order (a foreign symbol before its
    vector's conversion, shape or values), as its type and message, or
    None."""
    try:
        for ctx, vec in counts.items():
            alphabet.check_string(ctx)
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (alphabet.size + 1,) or not (np.isfinite(vec) & (vec >= 0)).all():
                raise ValueError(f"bad count vector for context {ctx!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


_COUNT_ENTRIES = [
    ("", [1.0, 2.0, 0.0]),
    ("a", [0, 1, 3]),
    ("ab", np.array([2.0, 0.0, 1.0])),
    ("x", [1, 1, 1]),  # foreign symbol
    ("ax", [-1, 1, 1]),  # foreign symbol and a negative count
    ("b", [1, 1]),  # short
    ("ba", [[1, 1, 1]]),  # two-dimensional
    ("bb", [-1.0, 1, 1]),
    ("aa", [float("nan"), 1, 1]),
    ("bab", [1, float("inf"), 1]),
    ("abb", [{}, 1, 1]),  # not a number: a TypeError
    ("baa", [1, "x", 1]),  # not a number: a ValueError
    ("bba", [10**400, 1, 1]),  # too large for a float
]


class TestCountChecks:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_COUNT_ENTRIES), unique_by=lambda e: e[0], min_size=1))
    def test_names_the_first_bad_context_in_dict_order(self, entries):
        """With several defects in one counts dict, in any order, the model
        raises the per-context check's error: its type, and its message
        naming the first bad context."""
        alphabet, counts = Alphabet("ab"), dict(entries)
        want = first_count_defect(alphabet, counts)
        if want is None:
            model = NGramModel(alphabet, order=3, smoothing=0.5, counts=counts)
            assert list(model._key_row) == list(counts)
            for ctx, vec in counts.items():
                assert model._counts[model._key_row[ctx]].tolist() == np.asarray(vec, float).tolist()
        else:
            with pytest.raises(want[0]) as got:
                NGramModel(alphabet, order=3, smoothing=0.5, counts=counts)
            assert (type(got.value), str(got.value)) == want


class TestSharedRowsAreReadOnly:
    def test_writing_into_a_row_raises(self):
        """Memoized rows are shared by every caller, so they refuse writes."""
        table = TableModel({"a": 0.2, "ab": 0.3, "b": 0.5})
        ngram = fit_ngram(["ab", "ba"], order=2, smoothing=0.5, alphabet=Alphabet("abc"))
        rows = [table.log_next(""), table.log_next("a"),
                ngram.log_next("a"), ngram.log_next("c")]  # "c" is an unseen key
        for row in rows:
            with pytest.raises(ValueError):
                row[0] = 0.0
        assert table.log_next("a")[0] != 0.0


class TestPFSAModel:
    def build(self):
        # Two states: s emits a and loops or stops; t only stops via b.
        return PFSAModel(
            Alphabet("ab"),
            start="s",
            transitions={
                "s": {"a": ("s", 0.5), "b": ("t", 0.25)},
                "t": {},
            },
            stops={"s": 0.25, "t": 1.0},
        )

    def test_path_products(self):
        model = self.build()
        # "aab": 0.5 * 0.5 * 0.25 * stop(t)=1.
        assert_allclose(np.exp(string_log_prob(model, "aab")), 0.0625, rtol=1e-12)
        assert_allclose(np.exp(string_log_prob(model, "")), 0.25, rtol=1e-12)

    def test_rows_normalized(self):
        check_model(self.build(), ["", "a", "ab", "aaab"])

    def test_dead_walk_raises(self):
        model = self.build()
        with pytest.raises(UndefinedConditionalError):
            model.log_next("b" + "a")  # t has no outgoing arcs

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            PFSAModel(
                Alphabet("a"),
                start="s",
                transitions={"s": {"a": ("s", 0.5)}},
                stops={"s": 0.4},
            )
        with pytest.raises(ValueError, match="sums to nan"):
            PFSAModel(
                Alphabet("a"),
                start="s",
                transitions={"s": {"a": ("s", float("nan"))}},
                stops={"s": 0.5},
            )

    @pytest.mark.parametrize("start, transitions, stops, match", [
        ("s", {"s": {"a": ("s", 1.5)}}, {"s": -0.5}, "negative probability at state 's'"),
        ("s", {"s": {"b": ("s", 0.5)}}, {"s": 0.5}, "arc symbol 'b' not in alphabet"),
        ("s", {"s": {"a": ("u", 0.5)}}, {"s": 0.5}, "arc target 'u' is not a state"),
        ("u", {"s": {"a": ("s", 0.5)}}, {"s": 0.5}, "start state 'u' unknown"),
    ], ids=["negative probability", "foreign symbol", "unknown target", "unknown start"])
    def test_rejects_malformed_automaton(self, start, transitions, stops, match):
        with pytest.raises(ValueError, match=match):
            PFSAModel(Alphabet("a"), start=start, transitions=transitions, stops=stops)

    def test_rejects_unreachable_state(self):
        with pytest.raises(ValueError):
            PFSAModel(
                Alphabet("a"),
                start="s",
                transitions={"s": {"a": ("s", 0.5)}, "u": {"a": ("u", 0.5)}},
                stops={"s": 0.5, "u": 0.5},
            )
