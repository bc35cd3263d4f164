"""The v1 streams that ``ensmc.streams`` derives are numpy's, bit for bit.

Reference: ``np.random.default_rng(np.random.SeedSequence(seed,
spawn_key=key))``, the generator the seed policy names. Keys cover seed
0, one-, two-, three- and five-word seeds, every stream tag, ``m = 0``
and ``m >= 2**32``, rounds beyond 2**32, and the blocks of rounds the
samplers derive.
"""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensmc
from ensmc import streams
from ensmc.inference import _STREAM_IID, _STREAM_PARTICLE, _STREAM_RESAMPLE

SEEDS = [0, 1, 20240611, 2**32 - 1, 2**32, 2**40 + 3, 2**64, 2**64 + 7, 2**128 + 5]
TAGS = (_STREAM_PARTICLE, _STREAM_RESAMPLE, _STREAM_IID)
ROUNDS = (0, 1, 6, 2**32 + 1)


def reference(seed, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_and_scalar_uniforms_match_numpy(seed):
    """5 184 keys (48 per seed, tag and round): the whole batch, and the
    same keys in batches of 1 and of 19, give each stream's first double."""
    gen = np.random.default_rng(seed % 1000)
    ms = np.concatenate([np.arange(24), [2**31, 2**32 - 1], gen.integers(0, 2**32, 22)])
    for tag in TAGS:
        for round_no in ROUNDS:
            base = streams.pool(seed, tag, round_no)
            want = np.array([reference(seed, tag, round_no, m).random() for m in ms.tolist()])
            bulk = streams.uniforms(base, ms)
            assert bulk.tobytes() == want.tobytes()
            for size in (1, 19):
                scalar = np.concatenate([
                    streams.uniforms(base, ms[i:i + size]) for i in range(0, len(ms), size)
                ])
                assert scalar.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_particle_doubles_blocks_match_numpy(seed, monkeypatch):
    """Every round hands particle ``m`` stream ``(seed, 0, r, m)``'s first
    double. With 9 particles and 16 rounds, round 0 starts one vectorised
    block of all 16 rounds. Rounds up to 2**32 + 1 are exact: no block
    would reach round 2**32, so each of the four rounds around it derives
    its streams alone, through the same kernel."""
    blocks = []
    first_doubles = streams._first_doubles

    def recording(base, *key):
        out = first_doubles(base, *key)
        blocks.append(out.shape)
        return out

    monkeypatch.setattr(streams, "_first_doubles", recording)
    live = np.arange(9)
    for rounds, horizon in [(range(16), 16), (range(2**32 - 2, 2**32 + 2), 2**32 + 5)]:
        doubles = streams.particle_doubles(streams.pool(seed, _STREAM_PARTICLE), 9, horizon)
        for r in rounds:
            want = np.array([reference(seed, _STREAM_PARTICLE, r, m).random() for m in range(9)])
            assert doubles(r, live).tobytes() == want.tobytes()
    assert blocks == [(16, 9), (9,), (9,), (9,), (9,)]


def test_small_population_run_derives_few_blocks(monkeypatch):
    """An ``smc`` run of 8 particles over an n-gram panel, up to 40
    symbols, derives its particle streams in at most ``ceil(41 / span)``
    vectorised blocks of ``span = BLOCK_STREAMS // 8`` rounds, and no
    round derives its streams alone."""
    blocks, alone = [], []
    first_doubles, uniforms = streams._first_doubles, streams.uniforms
    monkeypatch.setattr(
        streams, "_first_doubles", lambda *a: blocks.append(a) or first_doubles(*a)
    )
    monkeypatch.setattr(streams, "uniforms", lambda *a: alone.append(a) or uniforms(*a))
    alphabet = ensmc.Alphabet("abc")
    panel = ensmc.ExpertPanel([
        ensmc.fit_ngram(corpus, order=3, smoothing=0.5, alphabet=alphabet)
        for corpus in (["abc" * 12, "cab" * 12], ["abcabc" * 6, "bcabca" * 6])
    ])
    config = ensmc.SamplerConfig(particles=8, max_len=40, seed=5)
    estimate = ensmc.smc(ensmc.EnsembleSpec.geometric(2), panel, config)
    span = streams.BLOCK_STREAMS // config.particles
    assert estimate.diagnostics.rounds == config.max_len + 1
    assert 1 <= len(blocks) <= -(-(config.max_len + 1) // span)
    assert alone == []


@settings(max_examples=60, deadline=None)
@given(
    particles=st.integers(1, 300),
    max_len=st.integers(1, 40),
    seed=st.integers(0, 2**64),
    pick=st.integers(0, 2**32 - 1),
)
def test_particle_doubles_are_each_rounds_streams(particles, max_len, seed, pick):
    """Whatever blocks ``sis``/``smc`` derive, each round hands every live
    particle ``m`` the first double of stream ``(seed, 0, round, m)``."""
    base = streams.pool(seed, _STREAM_PARTICLE)
    doubles = streams.particle_doubles(base, particles, max_len)
    gen = np.random.default_rng(pick)
    for round_no in range(max_len):
        live = np.flatnonzero(gen.random(particles) < gen.random())
        want = streams.uniforms(base.extend(round_no), live)
        assert doubles(round_no, live).tobytes() == want.tobytes()


def test_vector_derivation_heap_is_bounded():
    """Deriving 1 024 streams at once, as one batch and as a block of 32
    rounds by 32 particles, peaks below 10 times the bytes of the doubles
    it returns (about 7 times measured)."""
    base = streams.pool(3, _STREAM_PARTICLE, 7)
    ms = np.arange(1024)
    rounds, particles = np.arange(32, dtype=np.uint32)[:, None], np.arange(32, dtype=np.uint32)
    for derive in (lambda: streams.uniforms(base, ms),
                   lambda: streams._first_doubles(base, rounds, particles)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = derive()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.size == 1024
        assert peak < 10 * out.nbytes


WORD = st.integers(0, 2**32 - 1) | st.sampled_from([0, 2**32 - 1])


@settings(max_examples=200, deadline=None)
@given(
    words=st.tuples(WORD, WORD, WORD, WORD),
    hash_const=WORD,
    key=st.lists(WORD, max_size=2),
    last=st.lists(WORD, min_size=1, max_size=6),
)
def test_fused_seed_and_step_is_pcg64s(words, hash_const, key, last):
    """The state PCG64 holds after seeding and one draw is ``initstate A +
    initseq B + C`` mod 2**128, and the vectorised kernel's doubles are
    :class:`~ensmc.streams.Stream`'s first ones, for any pool and key words."""
    base = streams.Pool(words, hash_const)
    for m in last:
        pool = base.extend(*key, m).words
        s = streams._seed_words(pool)
        initstate, initseq = s[0] << 64 | s[1], s[2] << 64 | s[3]
        stream = streams.Stream(pool)
        assert (stream.state, stream.inc) == streams._pcg_state(pool)
        stream.random()
        fused = initstate * streams._FUSED_A + initseq * streams._FUSED_B + streams._FUSED_C
        assert fused % 2**128 == stream.state
    want = np.array([streams.Stream(base.extend(*key, m).words).random() for m in last])
    got = streams._first_doubles(
        base, *[np.array([w], dtype=np.uint32) for w in key], np.array(last, dtype=np.uint32)
    )
    assert got.tobytes() == want.tobytes()


U128 = st.integers(0, 2**128 - 1) | st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(U128, min_size=1, max_size=8), mult=U128, add=U128,
       per_value=st.booleans())
def test_mul_add_is_128_bit_arithmetic(values, mult, add, per_value):
    """``_mul_add`` is ``value * mult + add`` mod 2**128 on (hi, lo) uint64
    arrays, with the addend a scalar pair or one array pair per value."""
    def split(xs):
        return (np.array([x >> 64 for x in xs], dtype=np.uint64),
                np.array([x & (2**64 - 1) for x in xs], dtype=np.uint64))

    hi, lo = split(values)
    addends = [(add + i) % 2**128 for i in range(len(values))] if per_value else [add]
    add_hi, add_lo = split(addends)
    if not per_value:
        add_hi, add_lo = add_hi[0], add_lo[0]
    streams._mul_add(hi, lo, mult, add_hi, add_lo)
    got = [int(h) << 64 | int(lo_) for h, lo_ in zip(hi.tolist(), lo.tolist())]
    want = [(x * mult + addends[i if per_value else 0]) % 2**128 for i, x in enumerate(values)]
    assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_rng_state_and_first_doubles_match_numpy(seed):
    """A pool's ``(state, inc)`` is the one numpy's PCG64 derives, and its
    :class:`~ensmc.streams.Stream` steps it to numpy's first 16 doubles."""
    for key in [(_STREAM_RESAMPLE, 0), (_STREAM_RESAMPLE, 9), (_STREAM_IID, 0),
                (_STREAM_IID, 77), (_STREAM_PARTICLE, 3, 0), (_STREAM_PARTICLE, 0, 2**33)]:
        want = reference(seed, *key)
        state = want.bit_generator.state["state"]
        assert streams._pcg_state(streams.pool(seed, *key).words) == (
            state["state"], state["inc"]
        )
        stream = streams.Stream(streams.pool(seed, *key).words)
        got = np.array([stream.random() for _ in range(16)])
        assert got.tobytes() == want.random(16).tobytes()


def test_import_leaves_numpy_random_unloaded():
    """``import ensmc`` does not pay for importing ``numpy.random``."""
    code = "import sys, ensmc; assert 'numpy.random' not in sys.modules"
    src = str(Path(ensmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_particle_index_beyond_one_word_is_exact():
    """An ``m`` of 2**32 or more is a two-word key: handled exactly, in
    a batch large enough to be vectorised and alone."""
    base = streams.pool(5, _STREAM_PARTICLE, 2)
    ms = [2**32, 2**33 + 1, 2**64 - 1, 2**64, 3] * 5
    want = np.array([reference(5, _STREAM_PARTICLE, 2, m).random() for m in ms])
    assert streams.uniforms(base, np.array(ms, dtype=object)).tobytes() == want.tobytes()
    assert streams.uniforms(base, ms[:2]).tobytes() == want[:2].tobytes()


def test_negative_keys_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence(3, spawn_key=(0, -1))
    with pytest.raises(ValueError):
        streams.pool(3, 0, -1)
    with pytest.raises(ValueError):
        streams.pool(-3, 0)
    base = streams.pool(3, 0)
    for ms in ([-1], [-1] + list(range(40))):
        with pytest.raises(ValueError):
            streams.uniforms(base, np.array(ms))
