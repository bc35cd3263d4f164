import itertools
import math
import random
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ensmc import (
    LOG_ZERO,
    Alphabet,
    PFSAModel,
    SequenceModel,
    TableModel,
    Tokenizer,
    UndefinedConditionalError,
    as_byte_model,
    check_model,
    fit_ngram,
    prefix_log_prob,
    string_log_prob,
)
from ensmc.bridge import TokenToByteModel
from ensmc.lmcore import ROW_TOL


def segmentation_log_prob(token_model, tokenizer, x):
    """Sum token-string probabilities over every exact segmentation of x.

    Recursive split search over the decode table: independent of the
    incremental frontier the byte marginal maintains.
    """
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
    return np.logaddexp.reduce(finite) if finite else LOG_ZERO


def covering_log_prob(token_model, tokenizer, x):
    """Byte-prefix mass of x by brute force: sum the token-prefix
    probabilities of every token sequence whose last token is the first
    to reach or cross the end of x."""
    if x == "":
        return 0.0
    terms = []

    def walk(pos, tokens):
        for tok, out in tokenizer.decode.items():
            if out.startswith(x[pos:]):
                terms.append(prefix_log_prob(token_model, tokens + tok))
            elif x.startswith(out, pos):
                walk(pos + len(out), tokens + tok)

    walk(0, "")
    finite = [t for t in terms if t != LOG_ZERO]
    return np.logaddexp.reduce(finite) if finite else LOG_ZERO


@st.composite
def _byte_marginal_cases(draw):
    """A random decode table over 2-3 bytes, a random token table, a
    pruning floor or none, and a random query order over byte prefixes.

    Every byte has a one-byte token, and the other tokens decode to one
    to three bytes, so byte strings have several segmentations and two
    tokens may share a decoding."""
    byte_alphabet = Alphabet("abc"[: draw(st.integers(2, 3))])
    outs = list(byte_alphabet.symbols) + draw(st.lists(
        st.text(byte_alphabet.symbols, min_size=1, max_size=3), min_size=1, max_size=3,
    ))
    token_alphabet = Alphabet("ABCDEF"[: len(outs)])
    tokenizer = Tokenizer(
        token_alphabet, dict(zip(token_alphabet.symbols, outs)), byte_alphabet=byte_alphabet
    )
    strings = draw(st.lists(
        st.text(token_alphabet.symbols, max_size=3), min_size=1, max_size=10, unique=True,
    ))
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(strings), max_size=len(strings)))
    total = math.fsum(masses)
    token_model = TableModel({y: m / total for y, m in zip(strings, masses)}, token_alphabet)
    log_floor = draw(st.sampled_from([None, math.log(0.3), math.log(0.05)]))
    prefixes = ["".join(t) for n in range(5)
                for t in itertools.product(byte_alphabet.symbols, repeat=n)]
    contexts = [x for x in prefixes if len(x) < 4]
    # Prefix queries first (as the oracle's level walk and the prefix nodes ask),
    # then rows in any order, revisits included (as sampler particles ask).
    queries = draw(st.lists(st.sampled_from(prefixes), max_size=12))
    order = draw(st.permutations(contexts))
    revisits = draw(st.lists(st.sampled_from(contexts), max_size=12))
    return token_model, tokenizer, log_floor, queries, order + revisits


def _row_or_none(model, x):
    try:
        return model.log_next(x)
    except UndefinedConditionalError:
        return None


def per_context_row(model, x):
    """A byte row computed alone, from the public prefix and string
    masses: each extension's prefix mass minus the context's, one
    Python float subtraction per entry."""
    base = model.prefix_log_prob(x)
    if base == LOG_ZERO:
        raise UndefinedConditionalError(
            f"byte context {x!r} has zero probability under the marginal"
        )
    row = np.empty(model.alphabet.size + 1)
    for j, b in enumerate(model.alphabet.symbols):
        row[j] = model.prefix_log_prob(x + b) - base
    row[model.alphabet.eos_index] = model.string_log_prob(x) - base
    return row


class BatchingModel(SequenceModel):
    """A token model that overrides ``log_next_many``, as a served one does;
    ``batches`` lists the contexts of each ``log_next_many`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.batches = []

    def log_next(self, context):
        return self.inner.log_next(context)

    def log_next_many(self, contexts):
        self.batches.append(list(contexts))
        return super().log_next_many(contexts)


class TestByteMarginalProperties:
    @settings(max_examples=60, deadline=None)
    @given(_byte_marginal_cases())
    def test_warm_rows_equal_fresh_rows(self, case):
        """However earlier queries filled the frontier cache, every row
        equals the row a new model gives for that context alone, bit for
        bit, and dead contexts stay dead."""
        token_model, tokenizer, log_floor, queries, order = case
        warm = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
        for x in queries:
            warm.prefix_log_prob(x)
        for x in order:
            got = _row_or_none(warm, x)
            want = _row_or_none(TokenToByteModel(token_model, tokenizer, log_floor=log_floor), x)
            if want is None:
                assert got is None, x
            else:
                assert got is not None and got.tobytes() == want.tobytes(), x

    @settings(max_examples=60, deadline=None)
    @given(_byte_marginal_cases(), st.data())
    def test_batched_rows_equal_per_context_rows(self, case, data):
        """``log_next_many`` over batches cut from the query order gives,
        bit for bit, the rows a new model computes one context at a time;
        a batch holding a dead context raises that reference's error for
        its first one. Over a token model that batches, too."""
        token_model, tokenizer, log_floor, queries, order = case
        if data.draw(st.booleans()):
            token_model = BatchingModel(token_model)
        model = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
        for x in queries:
            model.prefix_log_prob(x)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=4)))
        for start, end in zip([0] + cuts, cuts + [len(order)]):
            batch = order[start:end]
            reference = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
            try:
                want = [per_context_row(reference, x) for x in batch]
            except UndefinedConditionalError as exc:
                with pytest.raises(UndefinedConditionalError, match=re.escape(str(exc))):
                    model.log_next_many(batch)
                continue
            got = model.log_next_many(batch)
            assert got.shape == (len(batch), tokenizer.byte_alphabet.size + 1)
            assert [row.tobytes() for row in got] == [row.tobytes() for row in want]

    @settings(max_examples=60, deadline=None)
    @given(_byte_marginal_cases())
    def test_rows_conserve_mass(self, case):
        """Exact rows sum to 1 within ROW_TOL. A pruned row sums to at
        most 1, and it falls short by no more than the dropped-mass bound
        over the context's prefix mass."""
        token_model, tokenizer, log_floor, _, order = case
        model = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
        for x in order:
            row = _row_or_none(model, x)
            if row is None:
                continue
            total = math.fsum(np.exp(row))
            if log_floor is None:
                assert abs(total - 1.0) <= ROW_TOL, x
            else:
                slack = math.exp(model.log_dropped_bound - model.prefix_log_prob(x))
                assert 1.0 - slack - ROW_TOL <= total <= 1.0 + ROW_TOL, x

    @settings(max_examples=60, deadline=None)
    @given(_byte_marginal_cases())
    def test_prefix_mass_is_the_covering_sum(self, case):
        """``prefix_log_prob`` equals the brute-force sum over token
        sequences covering the prefix; with a floor it lies below that sum
        by at most the dropped-mass bound."""
        token_model, tokenizer, log_floor, queries, order = case
        model = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
        for x in queries + order:
            got = model.prefix_log_prob(x)
            want = covering_log_prob(token_model, tokenizer, x)
            if log_floor is None:
                assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=x)
            else:
                assert got <= want + 1e-12, x
                assert math.exp(want) - math.exp(got) <= (
                    math.exp(model.log_dropped_bound) + 1e-12
                ), x

    @settings(max_examples=40, deadline=None)
    @given(_byte_marginal_cases(), st.integers(0, 3), st.data())
    def test_answered_contexts_drop_states_and_keep_bits(self, case, depth, data):
        """A model that answered every live context up to ``depth`` with
        ``log_next_many``, level by level, has dropped those frontiers'
        states. Every prefix up to one byte past ``depth``, queried in any
        order, still gives the masses and row of a new model bit for bit,
        and the dropped-mass bound of a model that asked the same
        prefixes through the public masses, which never drops states."""
        token_model, tokenizer, log_floor, _, _ = case
        if data.draw(st.booleans()):
            token_model = BatchingModel(token_model)
        symbols = tokenizer.byte_alphabet.symbols
        model = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
        mirror = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
        level = [""]
        for _ in range(depth + 1):
            live = [x for x in level if mirror.prefix_log_prob(x) != LOG_ZERO]
            for x in live:
                per_context_row(mirror, x)
            model.log_next_many(live)
            assert all(model._frontiers[x].entries is None for x in live)
            level = [x + b for x in live for b in symbols]
        prefixes = ["".join(t) for n in range(depth + 2)
                    for t in itertools.product(symbols, repeat=n)]
        for x in data.draw(st.permutations(prefixes)):
            fresh = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
            for query in ("prefix_log_prob", "string_log_prob"):
                got = getattr(model, query)(x)
                assert got.hex() == getattr(fresh, query)(x).hex(), (query, x)
                getattr(mirror, query)(x)
            got, want = _row_or_none(model, x), _row_or_none(fresh, x)
            assert (got is None) == (want is None), x
            if want is not None:
                assert got.tobytes() == want.tobytes(), x
                per_context_row(mirror, x)
        assert model.log_dropped_bound.hex() == mirror.log_dropped_bound.hex()


class CountingModel(SequenceModel):
    """Delegating wrapper that records the context of each conditional-row
    request in ``asked``."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.asked = []

    def log_next(self, context):
        self.asked.append(context)
        return self.inner.log_next(context)


class TestRowsAsked:
    @pytest.mark.parametrize("batching", [False, True])
    def test_root_row_reads_only_the_root_token_row(self, bridge_fixture, batching):
        """Answering ``""`` reads the token row of ``""`` alone: the prefix
        masses of ``"a"`` and ``"b"`` sum over the root's states, so the new
        token contexts ``"A"`` and ``"B"`` wait until they are contexts."""
        token_model, tokenizer = bridge_fixture
        counted = CountingModel(token_model)
        model = TokenToByteModel(BatchingModel(counted) if batching else counted, tokenizer)
        model.log_next_many([""])
        assert counted.asked == [""]

    def test_batch_after_a_complete_string_query_asks_once(self):
        """``"b"`` has no one-byte token, so building its frontier reads no
        row, and ``string_log_prob`` sums its complete-string mass from no
        tail-less state. A batch that then answers ``"b"`` still asks for
        the pending state's row in its one call."""
        tokenizer = Tokenizer(Alphabet("AB"), {"A": "a", "B": "bb"})
        token_model = fit_ngram(["AB", "BA", "A"], order=1, smoothing=0.2,
                                alphabet=tokenizer.token_alphabet)
        counted = CountingModel(token_model)
        batching = BatchingModel(counted)
        model = TokenToByteModel(batching, tokenizer)
        assert model.string_log_prob("b") == LOG_ZERO
        assert counted.asked == []
        model.log_next_many(["b"])
        assert batching.batches == [[""]] and counted.asked == [""]

    @settings(max_examples=60, deadline=None)
    @given(_byte_marginal_cases(), st.data())
    def test_rows_asked_are_named_by_the_batch(self, case, data):
        """Every token row asked while a batch of stored contexts is
        answered is named by a state of a frontier in that batch; a token
        model that batches is asked in at most one call per batch, and for
        no row outside it, whichever masses earlier queries summed."""
        token_model, tokenizer, log_floor, queries, order = case
        counted = CountingModel(token_model)
        batching = data.draw(st.booleans())
        asked_model = BatchingModel(counted) if batching else counted
        model = TokenToByteModel(asked_model, tokenizer, log_floor=log_floor)
        mirror = TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
        for x in queries:
            getattr(model, data.draw(st.sampled_from(["prefix_log_prob", "string_log_prob"])))(x)
        live = [x for x in order if mirror.prefix_log_prob(x) != LOG_ZERO]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(live)), max_size=4)))
        for start, end in zip([0] + cuts, cuts + [len(live)]):
            batch = live[start:end]
            named = {context for x in batch for context, _, _ in model._frontier(x).entries or ()}
            counted.asked.clear()
            if batching:
                asked_model.batches.clear()
            model.log_next_many(batch)
            assert set(counted.asked) <= named, batch
            if batching:
                assert len(asked_model.batches) <= 1, batch
                assert counted.asked == sum(asked_model.batches, []), batch


class TestTokenizer:
    def test_decode_table_must_cover_alphabet(self):
        with pytest.raises(ValueError):
            Tokenizer(Alphabet("AB"), {"A": "a"})
        with pytest.raises(ValueError):
            Tokenizer(Alphabet("A"), {"A": "a", "B": "b"})

    def test_empty_decoding_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer(Alphabet("AB"), {"A": "a", "B": ""})

    def test_decoding_outside_byte_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer(Alphabet("A"), {"A": "ab"}, byte_alphabet=Alphabet("a"))

    def test_byte_alphabet_derived_sorted(self):
        tok = Tokenizer(Alphabet("AB"), {"A": "ba", "B": "c"})
        assert tok.byte_alphabet.symbols == ("a", "b", "c")

    def test_save_load_round_trip(self, bridge_fixture, tmp_path):
        _, tokenizer = bridge_fixture
        path = tmp_path / "tok.tsv"
        tokenizer.save(path)
        back = Tokenizer.load(path)
        assert back.token_alphabet == tokenizer.token_alphabet
        assert back.byte_alphabet == tokenizer.byte_alphabet
        assert back.decode == tokenizer.decode

    def test_save_load_escapes_special_characters(self, tmp_path):
        tok = Tokenizer(Alphabet(["\t", "\\"]), {"\t": "a\nb", "\\": "\\"})
        path = tmp_path / "tok.tsv"
        tok.save(path)
        assert Tokenizer.load(path).decode == tok.decode

    def test_load_rejects_tampered_files(self, bridge_fixture, tmp_path):
        _, tokenizer = bridge_fixture
        path = tmp_path / "tok.tsv"
        tokenizer.save(path)
        lines = path.read_text().splitlines()

        bad_magic = tmp_path / "magic.tsv"
        bad_magic.write_text("\n".join(["other\t1\t3"] + lines[1:]) + "\n")
        with pytest.raises(ValueError):
            Tokenizer.load(bad_magic)

        bad_version = tmp_path / "version.tsv"
        bad_version.write_text(
            "\n".join([lines[0].replace("\t1\t", "\t9\t")] + lines[1:]) + "\n"
        )
        with pytest.raises(ValueError):
            Tokenizer.load(bad_version)

        short = tmp_path / "short.tsv"
        short.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            Tokenizer.load(short)

    @pytest.mark.parametrize("text", [
        "ensmc-tokenizer\tone\t3\nA\ta\nB\tb\nC\tab\n",
        "ensmc-tokenizer\t1\t3.0\nA\ta\nB\tb\nC\tab\n",
        "ensmc-tokenizer\t1\t3\nA\ta\nB\tb\nA\tab\n",
        "ensmc-tokenizer\t1\t3\nA\ta\nB\t\nC\tab\n",
        "",
        "ensmc-tokenizer\t1\t3\nA\ta\nB\tb\tb\nC\tab\n",
        "ensmc-tokenizer\t1\t3\nA\ta\n\nB\tb\nC\tab\n",
    ], ids=["non-integer version", "non-integer count", "duplicate token", "empty decoding",
            "empty file", "three-field row", "blank row"])
    def test_load_names_the_file_of_a_malformed_input(self, text, tmp_path):
        path = tmp_path / "tampered.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            Tokenizer.load(path)


class TestByteMarginal:
    def test_matches_segmentation_sum(self, bridge_fixture):
        """Frontier string probabilities equal the brute-force split sum."""
        token_model, tokenizer = bridge_fixture
        byte_model = as_byte_model(token_model, tokenizer)
        for length in range(5):
            for tup in itertools.product("ab", repeat=length):
                x = "".join(tup)
                want = segmentation_log_prob(token_model, tokenizer, x)
                assert_allclose(
                    byte_model.string_log_prob(x), want, rtol=1e-12, atol=1e-12
                )

    def test_hand_ambiguity_value(self):
        """p(bytes "ab") adds the two-token and the one-token segmentations."""
        token_model = TableModel(
            {"AB": 0.3, "C": 0.2, "A": 0.4, "B": 0.1}, alphabet=Alphabet("ABC")
        )
        tokenizer = Tokenizer(Alphabet("ABC"), {"A": "a", "B": "b", "C": "ab"})
        byte_model = as_byte_model(token_model, tokenizer)
        assert_allclose(math.exp(byte_model.string_log_prob("ab")), 0.5, rtol=1e-12)
        assert_allclose(math.exp(byte_model.string_log_prob("a")), 0.4, rtol=1e-12)
        assert_allclose(math.exp(byte_model.string_log_prob("b")), 0.1, rtol=1e-12)

    def test_rows_are_normalized(self, bridge_fixture):
        token_model, tokenizer = bridge_fixture
        byte_model = as_byte_model(token_model, tokenizer)
        check_model(byte_model, ["", "a", "b", "ab", "ba", "abab"])

    def test_prefix_matches_chained_rows(self, bridge_fixture):
        """The closed-form prefix mass agrees with multiplying rows out."""
        token_model, tokenizer = bridge_fixture
        byte_model = as_byte_model(token_model, tokenizer)
        for x in ("a", "ab", "ba", "abb", "abab"):
            assert_allclose(
                byte_model.prefix_log_prob(x),
                prefix_log_prob(byte_model, x),
                rtol=1e-12,
            )

    def test_alphabet_is_byte_alphabet(self, bridge_fixture):
        token_model, tokenizer = bridge_fixture
        byte_model = as_byte_model(token_model, tokenizer)
        assert byte_model.alphabet == tokenizer.byte_alphabet

    def test_token_alphabet_mismatch_rejected(self, bridge_fixture):
        _, tokenizer = bridge_fixture
        wrong = TableModel({"x": 1.0}, alphabet=Alphabet("xy"))
        with pytest.raises(ValueError):
            TokenToByteModel(wrong, tokenizer)

    @pytest.mark.parametrize("query", ["log_next", "prefix_log_prob"])
    @pytest.mark.parametrize("x", ["c", "abc", "abac"])
    def test_out_of_alphabet_byte_rejected_cold_and_warm(self, bridge_fixture, query, x):
        """Only a newly built frontier is checked, so the check must still
        catch a bad byte after a cached prefix, on a cold model and on a
        warm one."""
        token_model, tokenizer = bridge_fixture
        cold = as_byte_model(token_model, tokenizer)
        warm = as_byte_model(token_model, tokenizer)
        for y in ("", "a", "ab", "aba", "abab"):
            warm.log_next(y)
        for model in (cold, warm):
            with pytest.raises(ValueError, match="not in alphabet"):
                getattr(model, query)(x)
        assert warm.log_next("ab").tolist() == cold.log_next("ab").tolist()

    def test_dead_byte_context_raises(self):
        token_model = TableModel({"A": 1.0}, alphabet=Alphabet("A"))
        tokenizer = Tokenizer(Alphabet("A"), {"A": "a"})
        byte_model = as_byte_model(token_model, tokenizer)
        with pytest.raises(UndefinedConditionalError):
            byte_model.log_next("aa")

    def test_fresh_model_matches_warm_methods(self, bridge_fixture):
        """A one-off query on a new model equals one on a model whose
        frontier cache other queries have already filled."""
        token_model, tokenizer = bridge_fixture
        warm = as_byte_model(token_model, tokenizer)
        check_model(warm, ["", "a", "b", "ab", "ba", "abab"])
        for x in ("ab", "ba", "abab"):
            fresh = TokenToByteModel(token_model, tokenizer)
            assert fresh.string_log_prob(x) == warm.string_log_prob(x)
            fresh = TokenToByteModel(token_model, tokenizer)
            assert fresh.prefix_log_prob(x) == warm.prefix_log_prob(x)

    def test_row_requests_are_memoized(self, bridge_fixture):
        token_model, tokenizer = bridge_fixture
        counted = CountingModel(token_model)
        byte_model = as_byte_model(counted, tokenizer)
        byte_model.string_log_prob("abab")
        first = len(counted.asked)
        assert first > 0
        byte_model.string_log_prob("abab")
        byte_model.prefix_log_prob("aba")
        assert len(counted.asked) == first


    def test_memoized_token_rows_are_read_only(self):
        """Token rows are shared by every frontier, so the memo holds them
        read-only, also for a token model that hands out writable rows."""
        token_model = PFSAModel(
            Alphabet("AB"), start="s",
            transitions={"s": {"A": ("s", 0.5), "B": ("s", 0.25)}}, stops={"s": 0.25},
        )
        assert token_model.log_next("").flags.writeable
        tokenizer = Tokenizer(Alphabet("AB"), {"A": "a", "B": "ab"})
        byte_model = as_byte_model(token_model, tokenizer)
        check_model(byte_model, ["", "a", "ab", "aab"])
        assert byte_model._token_rows
        for row in byte_model._token_rows.values():
            with pytest.raises(ValueError):
                row[0] = 0.0


class TestFloorPruning:
    def test_floor_must_be_negative(self, bridge_fixture):
        token_model, tokenizer = bridge_fixture
        for log_floor in (0.0, float("nan")):
            with pytest.raises(ValueError, match="log_floor must be negative"):
                TokenToByteModel(token_model, tokenizer, log_floor=log_floor)

    def test_dropped_mass_is_reported_and_bounds_error(self, bridge_fixture):
        token_model, tokenizer = bridge_fixture
        exact = as_byte_model(token_model, tokenizer)
        pruned = as_byte_model(token_model, tokenizer, log_floor=math.log(0.25))
        x = "ab"  # the two-token path is ~0.22x the one-token path: dropped
        lo = pruned.prefix_log_prob(x)
        hi = exact.prefix_log_prob(x)
        assert pruned.log_dropped_bound > LOG_ZERO
        assert lo <= hi + 1e-12
        assert math.exp(hi) - math.exp(lo) <= math.exp(pruned.log_dropped_bound) + 1e-12

    def test_no_floor_reports_zero_dropped(self, bridge_fixture):
        token_model, tokenizer = bridge_fixture
        byte_model = as_byte_model(token_model, tokenizer)
        byte_model.string_log_prob("abab")
        assert byte_model.log_dropped_bound == LOG_ZERO

    def test_concurrent_pruning_loses_no_dropped_mass(self):
        """Threads pruning disjoint subtrees at once add up the same
        dropped-mass bound as one thread querying the same prefixes."""
        tokenizer = Tokenizer(Alphabet("ABCDEFGHIJ"), {
            "A": "a", "B": "b", "C": "c", "D": "d", "E": "ab",
            "F": "bc", "G": "cd", "H": "da", "I": "abc", "J": "bcd",
        })
        token_model = fit_ngram(
            ["AEB", "IJ", "CGH", "FDA", "JIE", "HB"], order=2, smoothing=0.3,
            alphabet=tokenizer.token_alphabet,
        )
        roots = ["".join(p) for p in itertools.product("abcd", repeat=2)]
        subtrees = [
            [root + "".join(t) for n in range(1, 4)
             for t in itertools.product("abcd", repeat=n)]
            for root in roots
        ]

        def pruned_model():
            model = as_byte_model(token_model, tokenizer, log_floor=math.log(0.3))
            for x in ["", *"abcd", *roots]:
                model.prefix_log_prob(x)
            return model

        serial = pruned_model()
        for prefixes in subtrees:
            for x in prefixes:
                serial.prefix_log_prob(x)
        assert serial.log_dropped_bound > LOG_ZERO

        shared = pruned_model()
        errors = []

        def work(prefixes):
            try:
                for x in prefixes:
                    shared.prefix_log_prob(x)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(subtrees[i] + subtrees[i + 8],))
            for i in range(8)
        ]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert_allclose(
            math.exp(shared.log_dropped_bound),
            math.exp(serial.log_dropped_bound),
            rtol=1e-12,
        )

    def test_shared_prefixes_count_each_frontier_once(self):
        """Threads querying the same prefixes at once keep one frontier per
        prefix and add its dropped terms once: the bound one thread gets."""
        tokenizer = Tokenizer(Alphabet("ABCDEFGHIJ"), {
            "A": "a", "B": "b", "C": "c", "D": "d", "E": "ab",
            "F": "bc", "G": "cd", "H": "da", "I": "abc", "J": "bcd",
        })
        token_model = fit_ngram(
            ["AEB", "IJ", "CGH", "FDA", "JIE", "HB"], order=2, smoothing=0.3,
            alphabet=tokenizer.token_alphabet,
        )
        prefixes = ["".join(t) for n in range(1, 6)
                    for t in itertools.product("abcd", repeat=n)]
        floor = math.log(0.3)
        serial = as_byte_model(token_model, tokenizer, log_floor=floor)
        for x in prefixes:
            serial.prefix_log_prob(x)
        assert serial.log_dropped_bound > LOG_ZERO

        shared = as_byte_model(token_model, tokenizer, log_floor=floor)
        errors = []

        def work():
            try:
                for x in prefixes:
                    shared.prefix_log_prob(x)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert_allclose(
            math.exp(shared.log_dropped_bound),
            math.exp(serial.log_dropped_bound),
            rtol=1e-12,
        )

    def test_loose_floor_changes_nothing(self, bridge_fixture):
        token_model, tokenizer = bridge_fixture
        exact = as_byte_model(token_model, tokenizer)
        loose = as_byte_model(token_model, tokenizer, log_floor=math.log(1e-9))
        for x in ("ab", "ba", "abab"):
            assert loose.string_log_prob(x) == exact.string_log_prob(x)
        assert loose.log_dropped_bound == LOG_ZERO


class TestDroppedStates:
    @pytest.mark.parametrize("batching", [False, True])
    def test_extension_from_a_frontier_dropped_meanwhile(self, bridge_fixture, batching):
        """A thread extends ``"ab"`` from the stored ``"a"``; before its
        ``_advance`` reads ``"a"``'s states, another thread answers ``"a"``
        as a context, which stores ``"ab"`` and replaces ``"a"``'s frontier
        by one with no states. Both get the rows one thread alone gets, bit
        for bit, with no exception."""
        token_model, tokenizer = bridge_fixture
        if batching:
            token_model = BatchingModel(token_model)
        model = TokenToByteModel(token_model, tokenizer)
        model.prefix_log_prob("a")
        stored = model._frontiers["a"]
        advance = model._advance
        other = []

        def racing_advance(frontier, byte):
            if frontier is stored and not other:
                other.append(None)
                racer = threading.Thread(
                    target=lambda: other.append(model.log_next_many(["a"]))
                )
                racer.start()
                racer.join(timeout=60)
                replaced = model._frontiers["a"]
                assert replaced is not frontier and not replaced.entries
            return advance(frontier, byte)

        model._advance = racing_advance
        got = model.log_next_many(["ab"])
        assert len(other) == 2, "the racing thread raised"
        want = TokenToByteModel(token_model, tokenizer)
        assert got.tobytes() == want.log_next_many(["ab"]).tobytes()
        want = TokenToByteModel(token_model, tokenizer)
        assert other[1].tobytes() == want.log_next_many(["a"]).tobytes()

    @pytest.mark.parametrize("batching", [False, True])
    def test_ancestor_answered_during_the_lookup(self, bridge_fixture, batching):
        """A thread finds ``"ab"`` missing; before it reads the stored
        ``"a"``, another thread answers ``"a"`` as a context, which stores
        ``"ab"`` and replaces ``"a"``'s frontier by one with no states. The
        lookup still extends from states or finds ``"ab"``, and both threads
        get the rows one thread alone gets, bit for bit."""
        token_model, tokenizer = bridge_fixture
        if batching:
            token_model = BatchingModel(token_model)
        model = TokenToByteModel(token_model, tokenizer)
        model.prefix_log_prob("a")
        missed, other = [], []

        class RacingDict(dict):
            def get(self, key, default=None):
                if key == "a" and missed and not other:
                    other.append(None)
                    racer = threading.Thread(
                        target=lambda: other.append(model.log_next_many(["a"]))
                    )
                    racer.start()
                    racer.join(timeout=60)
                    assert not super().get("a").entries
                found = super().get(key, default)
                if key == "ab" and found is None:
                    missed.append(key)
                return found

        model._frontiers = RacingDict(model._frontiers)
        got = model.log_next_many(["ab"])
        assert len(other) == 2, "the racing thread raised"
        want = TokenToByteModel(token_model, tokenizer)
        assert got.tobytes() == want.log_next_many(["ab"]).tobytes()
        want = TokenToByteModel(token_model, tokenizer)
        assert other[1].tobytes() == want.log_next_many(["a"]).tobytes()

    def test_threads_answering_shared_contexts_get_the_serial_rows(self):
        """Four threads answer the same contexts in different orders while
        querying longer prefixes, so frontiers are replaced while others
        look them up and extend from them. Every row and mass equals the
        one a single thread gets, bit for bit."""
        tokenizer = Tokenizer(Alphabet("ABCDEFG"), {
            "A": "a", "B": "b", "C": "c", "D": "ab", "E": "bc", "F": "ca", "G": "abc",
        })
        token_model = fit_ngram(
            ["ADB", "GE", "CFA", "EGD", "FB"], order=2, smoothing=0.3,
            alphabet=tokenizer.token_alphabet,
        )
        contexts = ["".join(t) for n in range(4) for t in itertools.product("abc", repeat=n)]
        serial = as_byte_model(token_model, tokenizer)
        want = {x: (serial.log_next(x).tobytes(), serial.prefix_log_prob(x + "ab").hex())
                for x in contexts}
        shared = as_byte_model(token_model, tokenizer)
        got, errors = [], []

        def work(seed):
            order = list(contexts)
            random.Random(seed).shuffle(order)
            try:
                for x in order:
                    got.append((x, shared.log_next_many([x])[0].tobytes(),
                                shared.prefix_log_prob(x + "ab").hex()))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(got) == 4 * len(contexts)
        for x, row, mass in got:
            assert (row, mass) == want[x], x

    @staticmethod
    def bridge_oracle_run(monkeypatch, tmp_path):
        """Run one ``bridge-oracle`` op (seed 1) as the benchmark does.
        Returns its bridge, the contexts its ``log_next_many`` answered,
        and whether the run's shaping was alive when the oracle started."""
        from ensmc import runner
        from workload_digest import load_workloads, op_config, workload_config

        panels, answered, shaping_refs, alive_at_oracle = [], set(), [], []
        build_panel, make_shaping = runner.build_panel, runner.make_shaping
        log_next_many, enumerate_ensemble = (
            TokenToByteModel.log_next_many, runner.enumerate_ensemble
        )

        def recording_build_panel(config):
            panel, spec = build_panel(config)
            panels.append(panel)
            return panel, spec

        def recording_make_shaping(*args):
            shaping = make_shaping(*args)
            shaping_refs.append(weakref.ref(shaping))
            return shaping

        def recording_log_next_many(self, contexts):
            rows = log_next_many(self, contexts)
            answered.update(contexts)
            return rows

        def checking_enumerate_ensemble(*args, **kwargs):
            alive_at_oracle.extend(ref() is not None for ref in shaping_refs)
            return enumerate_ensemble(*args, **kwargs)

        monkeypatch.setattr(runner, "build_panel", recording_build_panel)
        monkeypatch.setattr(runner, "make_shaping", recording_make_shaping)
        monkeypatch.setattr(TokenToByteModel, "log_next_many", recording_log_next_many)
        monkeypatch.setattr(runner, "enumerate_ensemble", checking_enumerate_ensemble)
        with workload_config(load_workloads(), "bridge-oracle", 1, tmp_path) as (config, _):
            runner.run_experiment(op_config(config, 1 << 20, tmp_path))
        (bridge,) = [m for panel in panels for m in panel if isinstance(m, TokenToByteModel)]
        return bridge, answered, alive_at_oracle

    def test_bridge_oracle_frontiers_keep_states_only_until_answered(
        self, monkeypatch, tmp_path
    ):
        """The frontiers that still hold states after a ``bridge-oracle``
        op are those never answered as a context."""
        bridge, answered, _ = self.bridge_oracle_run(monkeypatch, tmp_path)
        frontiers = bridge._frontiers
        assert frontiers.keys() > answered
        holding = {x for x, f in frontiers.items() if f.entries is not None}
        assert holding == frontiers.keys() - answered

    def test_bridge_oracle_shaping_is_freed_before_the_oracle(self, monkeypatch, tmp_path):
        """The samplers' shaping, and with it their prefix nodes, is gone
        when a ``bridge-oracle`` op's oracle starts."""
        _, _, alive_at_oracle = self.bridge_oracle_run(monkeypatch, tmp_path)
        assert alive_at_oracle == [False]
