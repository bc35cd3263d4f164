import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import GEO_PROBS, GEO_Z, MIN_PROBS, MIN_Z

from ensmc import (
    LOG_ZERO,
    Alphabet,
    EnsembleSpec,
    EnumerationBudgetError,
    ExactTable,
    ExpertPanel,
    OracleShaping,
    PFSAModel,
    PrefixPotentialShaping,
    SamplerConfig,
    TableModel,
    Tokenizer,
    as_byte_model,
    dump_table,
    enumerate_ensemble,
    fit_ngram,
    load_table,
    minimize_divergence_simplex,
    sis,
    string_log_prob,
    total_variation,
)
from ensmc.ensemble import is_consensus
from ensmc.lmcore import validate_log_row
from ensmc.logtools import logsumexp
from ensmc.oracle import _alpha_divergence_arrays as divergence


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


def reference_enumerate(spec, panel, max_len, max_nodes=500_000):
    """The node-at-a-time depth-first walk ``enumerate_ensemble`` must match
    bit for bit: one ``log_next`` per node and live expert, one
    ``combine_columns`` per node, children in symbol order."""
    alphabet = panel.alphabet
    eos = alphabet.eos_index
    k = len(panel)
    active = np.asarray(spec.weights) > 0.0
    consensus = is_consensus(spec)
    entries = {}
    residual_terms = []
    nodes = 0

    def visit(x, prefixes):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise EnumerationBudgetError(f"enumeration exceeded {max_nodes} nodes")
        logmat = np.full((k, eos + 1), LOG_ZERO)
        for i, model in enumerate(panel):
            if prefixes[i] != LOG_ZERO:
                logmat[i] = prefixes[i] + model.log_next(x)
        cols = spec.combine_columns(logmat)
        if cols[eos] != LOG_ZERO:
            entries[x] = float(cols[eos])
        for j, sym in enumerate(alphabet.symbols):
            child = logmat[:, j]
            if (child[active] == LOG_ZERO).all():
                continue
            if consensus and cols[j] == LOG_ZERO:
                continue
            if len(x) < max_len:
                visit(x + sym, child)
            elif spec.kind == "maximum" or (spec.kind == "power" and spec.tau > 1.0):
                residual_terms.append(float(logsumexp(child[active])))
            else:
                residual_terms.append(float(cols[j]))

    visit("", np.zeros(k))
    strings = tuple(sorted(entries))
    log_values = np.array([entries[s] for s in strings])
    if not strings:
        raise EnumerationBudgetError(
            "target has no support within the horizon; nothing to normalize"
        )
    return ExactTable(
        alphabet=alphabet,
        max_len=max_len,
        strings=strings,
        log_values=log_values,
        log_z=float(logsumexp(log_values)),
        log_residual_bound=(
            float(logsumexp(np.array(residual_terms))) if residual_terms else LOG_ZERO
        ),
        operator=spec.kind,
        weights=spec.weights,
        nodes_visited=nodes,
    )


def _outcome(enumerate_fn, spec, panel, max_len, max_nodes):
    """What an enumeration gives, as bytes and numbers: its table's fields,
    or the budget error's message."""
    try:
        table = enumerate_fn(spec, panel, max_len, max_nodes)
    except EnumerationBudgetError as err:
        return "error", str(err)
    return (
        table.strings,
        table.log_values.tobytes(),
        np.float64(table.log_residual_bound).tobytes(),
        np.float64(table.log_z).tobytes(),
        table.nodes_visited,
    )


def _draw_expert(draw, symbols):
    """A random table, or an n-gram fitted to a random corpus, over ``symbols``."""
    alphabet = Alphabet(symbols)
    strings = st.text(alphabet=symbols, max_size=4)
    if draw(st.booleans()):
        support = draw(st.dictionaries(strings, st.floats(0.05, 1.0), min_size=1, max_size=8))
        total = math.fsum(support.values())
        return TableModel({x: p / total for x, p in support.items()}, alphabet=alphabet)
    corpus = draw(st.lists(strings, min_size=1, max_size=6))
    order = draw(st.integers(1, 3))
    smoothing = draw(st.sampled_from([0.0, 0.5]))
    return fit_ngram(corpus, order, smoothing, alphabet)


@st.composite
def _enumeration_cases(draw):
    """A random table or n-gram panel of 1-3 experts, an operator of every
    kind (consensus or not, tau above and below 1), weights that may be
    zero, a horizon and a node budget that may be small."""
    symbols = draw(st.sampled_from(["a", "ab", "abc"]))
    k = draw(st.integers(1, 3))
    experts = [_draw_expert(draw, symbols) for _ in range(k)]
    weights = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0]), min_size=k, max_size=k)
                   .filter(lambda w: sum(w) > 0))
    kind = draw(st.sampled_from(["geometric", "minimum", "maximum", "power"]))
    if kind == "power":
        spec = EnsembleSpec.power(draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0])), weights)
    else:
        spec = EnsembleSpec(kind, weights)
    max_len = draw(st.integers(0, 4))
    max_nodes = draw(st.one_of(st.integers(1, 40), st.just(500_000)))
    return spec, ExpertPanel(experts), max_len, max_nodes


class TestLevelOrder:
    @settings(max_examples=300, deadline=None)
    @given(case=_enumeration_cases())
    def test_equals_depth_first_walk_bitwise(self, case):
        """Strings, value bytes, residual bound, node count and the budget
        error come out as the node-at-a-time walk gives them."""
        assert _outcome(enumerate_ensemble, *case) == _outcome(reference_enumerate, *case)

    def test_slices_bound_memory(self):
        """A 9 331-node enumeration (3 order-3 n-grams over ``abcdef``,
        ``max_len`` 5, every prefix live) peaks within 1.1x the traced heap
        of the node-at-a-time walk; its last level whole (7 776 nodes at
        once) needs about twice. At ``max_len`` 6 the ratios are the same,
        and tracing the node-at-a-time walk takes about 20 s."""
        rng = np.random.default_rng(7)
        alphabet = Alphabet("abcdef")
        panel = ExpertPanel([
            fit_ngram(
                ["".join(rng.choice(list("abcdef"), size=n)) for n in rng.integers(0, 10, size=60)],
                order=3, smoothing=0.5, alphabet=alphabet,
            )
            for _ in range(3)
        ])
        spec = EnsembleSpec.geometric(3)
        peaks = []
        for enumerate_fn in (reference_enumerate, enumerate_ensemble):
            tracemalloc.start()
            try:
                table = enumerate_fn(spec, panel, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert table.nodes_visited == 9_331
            del table
        assert peaks[1] <= 1.1 * peaks[0]


@st.composite
def _sampler_cases(draw):
    """A panel of 1-3 random tables over ``ab`` (strings up to 4 symbols),
    one of the six named operators or a power at tau -3, 0.5 or 3, weights
    that may be zero, a horizon of 1-4 and a sampler seed; with the oracle
    table at that horizon, or None when the target has no support there."""
    alphabet = Alphabet("ab")
    k = draw(st.integers(1, 3))
    experts = []
    for _ in range(k):
        support = draw(st.dictionaries(st.text(alphabet="ab", max_size=4), st.floats(0.05, 1.0),
                                       min_size=1, max_size=8))
        total = math.fsum(support.values())
        experts.append(TableModel({x: p / total for x, p in support.items()}, alphabet=alphabet))
    weights = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0]), min_size=k, max_size=k)
                   .filter(lambda w: sum(w) > 0))
    name = draw(st.sampled_from(
        ["minimum", "maximum", "product", "sum", "harmonic", "quadratic", "power"]
    ))
    tau = draw(st.sampled_from([-3.0, 0.5, 3.0])) if name == "power" else None
    spec, panel = EnsembleSpec.from_name(name, weights, tau), ExpertPanel(experts)
    max_len = draw(st.integers(1, 4))
    try:
        table = enumerate_ensemble(spec, panel, max_len)
    except EnumerationBudgetError:  # no supported string within the horizon
        table = None
    config = SamplerConfig(particles=16, max_len=max_len, seed=draw(st.integers(0, 2**16)),
                           debug_check_weights=True)
    return spec, panel, config, table


class TestSamplersAgainstTheOracle:
    """Deterministic properties of the oracle and of ``sis`` on random small
    panels, checked against the enumerated table at the samplers' horizon."""

    @settings(max_examples=150, deadline=None)
    @given(_sampler_cases())
    def test_values_lie_between_the_active_experts(self, case):
        spec, panel, config, table = case
        if table is None:
            return
        active = [model for model, w in zip(panel, spec.weights) if w > 0.0]
        for x, value in zip(table.strings, table.log_values.tolist()):
            experts = [string_log_prob(model, x) for model in active]
            assert min(experts) - 1e-12 <= value <= max(experts) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(_sampler_cases())
    def test_sis_weights_are_the_oracle_target_over_the_proposal(self, case):
        spec, panel, config, table = case
        if table is None:
            return
        estimate = sis(spec, panel, config)
        for x, log_w, log_q, done in zip(estimate.xs, estimate.log_w.tolist(),
                                         estimate.log_proposal.tolist(),
                                         estimate.completed.tolist()):
            if done:
                want = table.log_value(x) - log_q
                assert log_w == want or abs(log_w - want) <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(_sampler_cases())
    def test_sis_over_exact_shaping_gives_z(self, case):
        spec, panel, config, table = case
        if table is None:
            return
        estimate = sis(spec, panel, config, shaping=OracleShaping(table))
        assert abs(math.expm1(estimate.log_z_hat - table.log_z)) <= 1e-12


@st.composite
def _mismatched_cases(draw):
    """Two tokenized experts over the bytes ``ab`` with different
    vocabularies: each decode table has the one-byte tokens ``A`` and
    ``B`` plus one or two tokens of 2-3 bytes, and the two tables' sets
    of decodings differ. Each token model is a random table over token
    strings of up to 3 tokens or an add-0.5 bigram fit on a random token
    corpus. One of the six named operators, weights, a horizon of 1-4
    and a sampler seed; with the oracle table at that horizon, or None
    when the target has no support there."""
    byte_alphabet = Alphabet("ab")
    experts, vocabularies = [], []
    for _ in range(2):
        outs = ["a", "b"] + draw(st.lists(st.text("ab", min_size=2, max_size=3),
                                          min_size=1, max_size=2, unique=True))
        vocabularies.append(frozenset(outs))
        tokens = Alphabet("ABCD"[: len(outs)])
        tokenizer = Tokenizer(tokens, dict(zip(tokens.symbols, outs)), byte_alphabet)
        strings = draw(st.lists(st.text(tokens.symbols, max_size=3), min_size=1, max_size=8,
                                unique=True))
        if draw(st.booleans()):
            masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(strings),
                                   max_size=len(strings)))
            total = math.fsum(masses)
            token_model = TableModel({y: m / total for y, m in zip(strings, masses)}, tokens)
        else:
            token_model = fit_ngram(strings, order=2, smoothing=0.5, alphabet=tokens)
        experts.append(as_byte_model(token_model, tokenizer))
    assume(vocabularies[0] != vocabularies[1])
    name = draw(st.sampled_from(["minimum", "maximum", "product", "sum", "harmonic", "quadratic"]))
    weights = draw(st.lists(st.sampled_from([0.2, 1.0]), min_size=2, max_size=2))
    spec, panel = EnsembleSpec.from_name(name, weights), ExpertPanel(experts)
    max_len = draw(st.integers(1, 4))
    try:
        table = enumerate_ensemble(spec, panel, max_len)
    except EnumerationBudgetError:  # no supported string within the horizon
        table = None
    config = SamplerConfig(particles=16, max_len=max_len, seed=draw(st.integers(0, 2**16)),
                           debug_check_weights=True)
    return spec, panel, config, table


class TestMismatchedVocabularies:
    """The paper's headline case: experts whose tokenizers differ, ensembled
    in their shared byte space. Deterministic properties only; the 3-SE
    check of the estimates is not made here."""

    @settings(max_examples=100, deadline=None)
    @given(_mismatched_cases())
    def test_every_byte_row_is_normalized(self, case):
        _, panel, config, _ = case
        contexts = ["".join(t) for n in range(config.max_len + 1)
                    for t in itertools.product("ab", repeat=n)]
        for model in panel:
            live = [x for x in contexts if model.prefix_log_prob(x) != LOG_ZERO]
            for row in model.log_next_many(live):
                validate_log_row(row, model.alphabet)

    @settings(max_examples=100, deadline=None)
    @given(_mismatched_cases())
    def test_sis_targets_are_the_oracle_values(self, case):
        """``sis`` passes its weight check, and each completed particle's
        target is the enumerated value."""
        spec, panel, config, table = case
        if table is None:
            return
        shaping = PrefixPotentialShaping(spec, panel)
        estimate = sis(spec, panel, config, shaping=shaping)
        for x, done in zip(estimate.xs, estimate.completed.tolist()):
            if done:
                got, want = shaping.log_target(x), table.log_value(x)
                assert got == want or abs(got - want) <= 1e-12, x


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
        """Enumeration with pruning agrees with the unpruned product-space scan."""
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

    def test_expected_accuracy(self, geo_panel, geo_spec):
        table = enumerate_ensemble(geo_spec, geo_panel, max_len=3)
        acc = table.expected_accuracy(lambda x: x == "a")
        assert_allclose(acc, GEO_PROBS["a"], rtol=1e-12)


@st.composite
def _tables(draw):
    """A table of 1-3 random table experts over 1-3 symbols at a horizon of
    0-4, under an operator that leaves some strings of the horizon absent."""
    symbols = draw(st.sampled_from(["a", "ab", "ba", "abc", "cab"]))
    alphabet = Alphabet(symbols)
    experts = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.dictionaries(st.text(alphabet=symbols, max_size=4), st.floats(0.05, 1.0),
                                       min_size=1, max_size=8))
        total = math.fsum(support.values())
        experts.append(TableModel({x: p / total for x, p in support.items()}, alphabet=alphabet))
    kind = draw(st.sampled_from(["geometric", "minimum", "maximum"]))
    spec = EnsembleSpec(kind, [1.0] * len(experts))
    try:
        return enumerate_ensemble(spec, ExpertPanel(experts), draw(st.integers(0, 4)))
    except EnumerationBudgetError:  # no supported string within the horizon
        assume(False)


class TestTableLookups:
    @settings(max_examples=200, deadline=None)
    @given(_tables())
    def test_lookups_have_the_bits_of_a_scan(self, table):
        """``log_value`` and ``log_prefix_target`` read a range of the sorted
        strings; for every string within the horizon they give the bits of
        the scans written out here, and past it both refuse."""
        def bits(value):
            return np.float64(value).tobytes()

        symbols = table.alphabet.symbols
        for length in range(table.max_len + 2):
            for tup in itertools.product(symbols, repeat=length):
                x = "".join(tup)
                if length > table.max_len:
                    for read in (table.log_value, table.log_prefix_target):
                        with pytest.raises(EnumerationBudgetError, match="beyond the horizon"):
                            read(x)
                    continue
                found = [lv for s, lv in zip(table.strings, table.log_values) if s == x]
                assert bits(table.log_value(x)) == bits(found[0] if found else LOG_ZERO)
                mask = np.array([s.startswith(x) for s in table.strings])
                want = logsumexp(table.log_values[mask]) if mask.any() else LOG_ZERO
                assert bits(table.log_prefix_target(x)) == bits(want)


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

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_load_rejects_a_residual_bound_that_is_nan_or_inf(self, geo_panel, geo_spec,
                                                              tmp_path, bound):
        path = tmp_path / "table.tsv"
        dump_table(enumerate_ensemble(geo_spec, geo_panel, max_len=3), path)
        saved = path.read_text().splitlines()
        assert saved[5].startswith("log_residual_bound\t")
        saved[5] = f"log_residual_bound\t{bound}"
        path.write_text("\n".join(saved) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a ")):
            load_table(path)

    @pytest.mark.parametrize("line, lineno", [
        ("weights\tnan\t-1.0", 3),
        ("weights\tinf\t0.5", 3),
        ("weights\t-0.5\t1.5", 3),
        ("weights\t0.0\t0.0", 3),
        ("max_len\t-3", 5),
    ])
    def test_load_rejects_weights_or_max_len_no_ensemble_accepts(self, geo_panel, geo_spec,
                                                                  tmp_path, line, lineno):
        path = tmp_path / "table.tsv"
        dump_table(enumerate_ensemble(geo_spec, geo_panel, max_len=3), path)
        saved = path.read_text().splitlines()
        key = line.split("\t")[0]
        assert saved[lineno - 1].startswith(key + "\t")
        saved[lineno - 1] = line
        path.write_text("\n".join(saved) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {lineno}: bad header {line!r}")):
            load_table(path)

    def test_load_rejects_header_keys_out_of_order(self, geo_panel, geo_spec, tmp_path):
        """The six header keys come in their written order, as in an
        n-gram file: swapping the ``operator`` and ``max_len`` lines is
        rejected, naming the file and the first line out of place."""
        path = tmp_path / "table.tsv"
        dump_table(enumerate_ensemble(geo_spec, geo_panel, max_len=3), path)
        saved = path.read_text().splitlines()
        assert saved[1].startswith("operator\t") and saved[4].startswith("max_len\t")
        saved[1], saved[4] = saved[4], saved[1]
        path.write_text("\n".join(saved) + "\n")
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 2: header key 'max_len', expected 'operator'"
        )):
            load_table(path)

    def test_load_rejects_tampered_rows(self, geo_panel, geo_spec, tmp_path):
        path = tmp_path / "table.tsv"
        dump_table(enumerate_ensemble(geo_spec, geo_panel, max_len=3), path)
        saved = path.read_text().splitlines()
        assert saved[8].split("\t")[0] == "a"
        # Each is a ValueError naming the file and the line.
        for line in [
            "a\tx",  # non-number value
            "a",  # too few fields
            "a\t-1.0\t-1.0",  # too many fields
            "z\t-1.0",  # symbol outside the header's alphabet
            "a\tnan",  # not a number
            "a\tinf",  # +inf is no log value
            "\\x\t-1.0",  # a malformed escape
        ]:
            path.write_text("\n".join([*saved[:8], line, *saved[9:]]) + "\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}: line 9: ")):
                load_table(path)
        # Rows dump_table never writes: a repeated or out-of-order string
        # (rows "", "a", "b" on lines 8-10), or one beyond max_len 3.
        for lineno, line in [(9, "\t-1.0"), (10, "a\t-1.0"), (10, "\t-1.0"), (9, "aaaa\t-1.0")]:
            lines = list(saved)
            lines[lineno - 1] = line
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {lineno}: bad table row {line!r}: rows must be strictly increasing, "
                "none over 3 symbols"
            )):
                load_table(path)
        # No row past the counted entries: one dump_table never writes ("bb"
        # would sort last), or a blank one.
        for extra in ["bb\t-1.0", ""]:
            path.write_text("\n".join([*saved, extra]) + "\n")
            with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 11: row past the 3 counted {extra!r}"
            )):
                load_table(path)


class TestOneExpertTable:
    @settings(max_examples=200, deadline=None)
    @given(
        symbols=st.sampled_from(["a", "ab", "ba", "abc", "cab", "bca"]),
        max_len=st.integers(0, 4),
        data=st.data(),
    )
    def test_matches_direct_scoring(self, symbols, max_len, data):
        """The geometric operator at weight 1 is the model itself: a
        one-expert table holds exactly the strings of positive probability
        within the horizon, each with the bits ``string_log_prob`` gives,
        for alphabets in and out of code-point order."""
        model = _draw_expert(data.draw, symbols)
        want = {}
        for length in range(max_len + 1):
            for tup in itertools.product(symbols, repeat=length):
                lv = string_log_prob(model, "".join(tup))
                if lv != LOG_ZERO:
                    want["".join(tup)] = lv
        spec, panel = EnsembleSpec.geometric(1), ExpertPanel([model])
        if not want:
            with pytest.raises(EnumerationBudgetError, match="no support"):
                enumerate_ensemble(spec, panel, max_len)
            return
        table = enumerate_ensemble(spec, panel, max_len)
        assert table.strings == tuple(sorted(want))
        assert table.log_values.tobytes() == np.array([want[x] for x in table.strings]).tobytes()


class TestDivergences:
    """The alpha-divergence objective of ``minimize_divergence_simplex``,
    on aligned lists."""

    def test_kl_hand_value(self):
        q = [0.5, 0.5]
        p = [0.25, 0.75]
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert_allclose(divergence(q, p, 1.0), want, rtol=1e-12)

    def test_tvd_hand_value(self):
        q = {"a": 0.5, "b": 0.5}
        p = {"a": 0.25, "b": 0.5, "c": 0.25}
        assert_allclose(total_variation(q, p), 0.25, rtol=1e-15)

    def test_alpha_limits_are_kl(self):
        q = [0.4, 0.6]
        p = [0.7, 0.3]
        kl_qp = 0.4 * math.log(0.4 / 0.7) + 0.6 * math.log(0.6 / 0.3)
        kl_pq = 0.7 * math.log(0.7 / 0.4) + 0.3 * math.log(0.3 / 0.6)
        assert_allclose(divergence(q, p, 1.0), kl_qp, rtol=1e-12)
        assert_allclose(divergence(q, p, 0.0), kl_pq, rtol=1e-12)

    def test_alpha_continuity_near_limits(self):
        q = [0.4, 0.6]
        p = [0.7, 0.3]
        assert_allclose(divergence(q, p, 1e-7), divergence(q, p, 0.0), atol=1e-6)

    def test_nonnegative_and_zero_at_equality(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            q = rng.dirichlet(np.ones(4)).tolist()
            assert divergence(q, q, 0.5) == pytest.approx(0.0, abs=1e-12)
            p = rng.dirichlet(np.ones(4)).tolist()
            assert divergence(q, p, 0.5) >= -1e-12


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
