"""The seed policy's random streams, computed without numpy generators.

Stream ``key`` of run seed ``seed`` is, by the seed policy,
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``.
Everything that generator does for its doubles is integer arithmetic:
``SeedSequence`` hashes the seed and key words (32-bit) into a four-word
pool, expands the pool into four 64-bit seed words, and PCG64 turns
those into a 128-bit state and increment, then for each double steps
and outputs XSL-RR bits. This module does the same arithmetic itself:

* :class:`Pool` is the hashed pool of ``(seed, *key)``, extendable by
  more key words, so a prefix shared by many streams is hashed once.
* :func:`uniforms` is the first double of the streams ``key + (m,)`` for
  many ``m`` at once, numpy-vectorised over ``m`` whatever the batch's
  size; only an ``m`` of 2**32 or more (two key words) takes Python ints.
* :class:`Stream` is a stream's successive doubles, PCG64 stepped in
  Python ints, for callers that draw many doubles from one stream.
* :func:`particle_doubles` and :func:`iid_doubles` hand the samplers
  their doubles round by round. The first derives every particle's
  streams for a block of rounds in one vectorised call, from the first
  round on (a small population's whole run is one block), and a round
  no block covers derives its live particles' streams alone, through
  the same kernel. The vectorised kernel stacks the four pool words on
  one axis and mixes each key word at its own shape before
  broadcasting.

The results are the same bits as numpy's (pinned by
``tests/test_streams.py``), so the seed policy is unchanged.
"""
from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = 16
# ``SeedSequence``'s hash constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Seeding PCG64 with (initstate, initseq) sets inc = 2 initseq + 1 and
# state = (inc + initstate) M + inc; one step gives state M + inc. So the
# state the first double is output from is initstate A + initseq B + C
# mod 2**128, with A = M**2, C = M**2 + M + 1 and B = 2C.
_FUSED_A = _PCG_MULT**2 & _MASK128
_FUSED_C = (_PCG_MULT**2 + _PCG_MULT + 1) & _MASK128
_FUSED_B = 2 * _FUSED_C & _MASK128
_TO_DOUBLE = 1.0 / 9007199254740992.0

#: At most about this many particle streams are derived in one block of
#: rounds. The vectorised kernel's cost is nearly flat up to a few hundred
#: streams (medians of 0.12 ms at 24 streams and 0.14 ms at 512, 0.17 ms
#: at 1 024, on a 2-core Xeon host whose speed varies between runs), and
#: 512 is the smallest power of two that covers a whole run in one block
#: at 8 particles and 41 rounds, 12 and 31, and 32 and 12. The rounds a
#: block holds past the run's end cost little, and the block (8 bytes a
#: stream) is freed with the run.
BLOCK_STREAMS = 512


def _words(value) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, ``[0]`` for 0."""
    n = operator.index(value)
    if n < 0:
        raise ValueError("expected non-negative integer")
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


#: ``generate_state``'s running multipliers: INIT_B * MULT_B**i mod 2**32.
_EXPAND_CONSTS = tuple((_INIT_B * pow(_MULT_B, i, 1 << 32)) & _MASK32 for i in range(9))


def _absorb(words, h: int, w: int) -> tuple[list[int], int]:
    """Mix the 32-bit word ``w`` into every pool word.

    Returns the new pool words and the hash multiplier after the four
    ``hashmix`` calls. (In ``(w ^ h) * (h := ...)`` the left operand
    still sees the old ``h``, as ``hashmix`` does.)
    """
    out = []
    for x in words:
        v = ((w ^ h) * (h := (h * _MULT_A) & _MASK32)) & _MASK32
        r = (_MIX_MULT_L * x - _MIX_MULT_R * (v ^ (v >> _XSHIFT))) & _MASK32
        out.append(r ^ (r >> _XSHIFT))
    return out, h


def _seed_words(words) -> tuple[int, int, int, int]:
    """``generate_state(4, uint64)``: PCG64's four 64-bit seed words."""
    hashed = [
        ((words[i & 3] ^ _EXPAND_CONSTS[i]) * _EXPAND_CONSTS[i + 1]) & _MASK32
        for i in range(2 * _POOL_SIZE)
    ]
    lo0, hi0, lo1, hi1, lo2, hi2, lo3, hi3 = [v ^ (v >> _XSHIFT) for v in hashed]
    return lo0 | (hi0 << 32), lo1 | (hi1 << 32), lo2 | (hi2 << 32), lo3 | (hi3 << 32)


def _pcg_state(words) -> tuple[int, int]:
    """The seeded PCG64 ``(state, inc)`` of a pool."""
    s = _seed_words(words)
    inc = ((((s[2] << 64) | s[3]) << 1) | 1) & _MASK128
    return ((inc + ((s[0] << 64) | s[1])) * _PCG_MULT + inc) & _MASK128, inc


def _double(state: int) -> float:
    """The ``Generator.random()`` double of a stepped PCG64 state: the
    XSL-RR output's top 53 bits."""
    rot = state >> 122
    x = ((state >> 64) ^ state) & _MASK64
    return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * _TO_DOUBLE


class Stream:
    """A stream's successive ``Generator.random()`` doubles, with PCG64's
    ``(state, inc)`` held and stepped as Python ints."""

    __slots__ = ("state", "inc")

    def __init__(self, words):
        self.state, self.inc = _pcg_state(words)

    def random(self) -> float:
        """The stream's next double."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        return _double(state)


class Pool(NamedTuple):
    """``SeedSequence``'s mixing pool after absorbing some entropy words.

    ``hash_const`` is the running multiplier of its hash, which the
    words still to come continue from. Build one with :func:`pool`.
    """

    words: tuple[int, int, int, int]
    hash_const: int

    def extend(self, *key: int) -> "Pool":
        """The pool with further key words absorbed."""
        words = self.words
        h = self.hash_const
        for value in key:
            for w in _words(value):
                words, h = _absorb(words, h, w)
        return Pool(tuple(words), h)


def pool(seed: int, *key: int) -> Pool:
    """The hashed pool of ``SeedSequence(seed, spawn_key=key)``."""
    entropy = _words(seed)
    # A seed shorter than the pool fills it with zeros, and the key words
    # come after the pool-size head: ``SeedSequence`` pads the seed with
    # zeros before a spawn key, and hashes zeros for missing head words.
    h = _INIT_A
    words = []
    for i in range(_POOL_SIZE):
        w = entropy[i] if i < len(entropy) else 0
        v = ((w ^ h) * (h := (h * _MULT_A) & _MASK32)) & _MASK32
        words.append(v ^ (v >> _XSHIFT))
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v = ((words[src] ^ h) * (h := (h * _MULT_A) & _MASK32)) & _MASK32
                r = (_MIX_MULT_L * words[dst] - _MIX_MULT_R * (v ^ (v >> _XSHIFT))) & _MASK32
                words[dst] = r ^ (r >> _XSHIFT)
    # Seed words beyond the pool size (a seed of 2**128 or more) are
    # absorbed like key words.
    return Pool(tuple(words), h).extend(*entropy[_POOL_SIZE:], *key)


_U32 = np.uint32
_U64 = np.uint64
_EXPAND_WORDS = np.array(_EXPAND_CONSTS, dtype=_U32)


def _first_doubles(base: Pool, *key: np.ndarray) -> np.ndarray:
    """First doubles of the streams ``base.extend(*words)`` for the key
    words broadcast from ``key``, uint32 arrays (so each below 2**32).

    The steps of the scalar path on uint32 and uint64 arrays, with the
    four pool words stacked on a leading axis, so each step is one array
    operation whatever the output's size: at a few hundred streams the
    count of operations, not their width, sets the cost. Each key word is
    mixed at its own shape (a round word once per round, a particle word
    once per particle) before the pool words broadcast to the output's
    shape. PCG64's seeding and first step are one affine map of the seed
    words (``_FUSED_*``), applied as two 128-bit multiply-adds, one per
    pair of seed words, each pair hashed just before its multiply-add
    into a buffer whose little-endian uint64 view is the pair. The heap
    peaks at about 7 times the output's bytes.
    """
    lead = (_POOL_SIZE,) + (1,) * max(w.ndim for w in key)
    words = np.array(base.words, dtype=_U32).reshape(lead)
    h = base.hash_const
    for w in key:
        # _absorb: pool word i mixes ``w`` with the hash multiplier before
        # and after its own update; the multipliers do not depend on the data.
        hs = [h]
        for _ in range(_POOL_SIZE):
            hs.append(h := (h * _MULT_A) & _MASK32)
        v = w ^ np.array(hs[:-1], dtype=_U32).reshape(lead)
        v *= np.array(hs[1:], dtype=_U32).reshape(lead)
        v ^= v >> _U32(_XSHIFT)
        v *= _U32(_MIX_MULT_R)
        words = words * _U32(_MIX_MULT_L) - v
        del v
        words ^= words >> _U32(_XSHIFT)
    state = _U64(_FUSED_C >> 64), _U64(_FUSED_C & _MASK64)
    for pair, mult in enumerate((_FUSED_A, _FUSED_B)):
        # _seed_words: half n = 4 * pair + 2a + b, half b of seed word
        # 2 * pair + a, hashes pool word n & 3 with constants n and n + 1.
        # One half at a time, with scalar constants: numpy buffers a copy
        # of an operation's size for a broadcast array operand.
        seed = np.empty((2,) + words.shape[1:] + (2,), dtype="<u4")
        for n in range(4 * pair, 4 * pair + 4):
            half = seed[(n >> 1) & 1, ..., n & 1]
            np.bitwise_xor(words[n & 3], _EXPAND_WORDS[n], out=half)
            half *= _EXPAND_WORDS[n + 1]
        if pair:  # the pool words' last use: gone before the temporaries below
            del words
        seed ^= seed >> _U32(_XSHIFT)
        hi, lo = seed.view("<u8")[..., 0]
        _mul_add(hi, lo, mult, *state)
        state = hi, lo
    lo ^= hi
    hi >>= _U64(58)
    out = lo >> hi
    np.subtract(_U64(64), hi, out=hi)
    hi &= _U64(63)
    lo <<= hi
    out |= lo
    out >>= _U64(11)
    return out.astype(np.float64) * _TO_DOUBLE


def _mul_add(hi: np.ndarray, lo: np.ndarray, mult: int, add_hi, add_lo) -> None:
    """``(hi, lo) * mult + (add_hi, add_lo)`` mod 2**128, in place on the
    (hi, lo) uint64 arrays; the addend is uint64 arrays or scalars.

    The high word is ``mulhi(lo, mult_lo) + lo * mult_hi + hi * mult_lo``,
    with the 64x64-bit high product from 32-bit halves in two temporaries:
    the middle sum ``(a0 c0 >> 32) + a0 c1 + a1 c0`` can pass 2**64, and
    its carry is added back after the shift.
    """
    k, k_hi = _U64(mult & _MASK64), _U64(mult >> 64)
    c0, c1 = _U64(mult & _MASK32), _U64((mult >> 32) & _MASK32)
    half = _U64(32)
    t = lo & _U64(_MASK32)
    mid = t * c0
    mid >>= half
    t *= c1
    mid += t
    np.right_shift(lo, half, out=t)
    t *= c0
    mid += t
    carry = mid < t
    mid >>= half
    np.add(mid, _U64(1 << 32), out=mid, where=carry)
    np.right_shift(lo, half, out=t)
    t *= c1
    t += mid
    hi *= k
    hi += t
    np.multiply(lo, k_hi, out=t)
    hi += t
    lo *= k
    lo += add_lo
    hi += add_hi
    np.add(hi, _U64(1), out=hi, where=lo < add_lo)


def uniforms(base: Pool, ms: np.ndarray) -> np.ndarray:
    """First doubles of the streams ``base.extend(m)`` for each ``m`` in ``ms``.

    A batch whose every ``m`` is one key word (``0 <= m < 2**32``) is
    vectorised, whatever its size; any other batch uses Python ints,
    which handle an ``m`` of any number of words and reject a negative one.
    """
    ms = np.asarray(ms)
    if len(ms) and 0 <= ms.min() and ms.max() <= _MASK32:
        return _first_doubles(base, ms.astype(np.uint32))
    return np.array([Stream(base.extend(m).words).random() for m in ms.tolist()])


def particle_doubles(base: Pool, particles: int, horizon: int):
    """``doubles(round, live)``: the first double of stream ``base.extend(round,
    m)`` for each live particle ``m``.

    Streams are derived a block of rounds at a time, for every particle:
    the first round that needs streams starts a block of
    ``BLOCK_STREAMS // particles`` rounds, none past ``horizon`` (the
    number of rounds a run can take), and the next block starts where
    the held one ends. A block of one round or reaching round 2**32 is
    not made; that round derives the live particles' streams alone,
    through :func:`uniforms`. Rounds must be asked for in order.
    """
    every = np.arange(particles, dtype=_U32)
    start = end = 0
    block = None

    def doubles(round_no: int, live: np.ndarray) -> np.ndarray:
        nonlocal start, end, block
        if not start <= round_no < end:
            size = min(BLOCK_STREAMS // particles, horizon - round_no)
            if size <= 1 or round_no + size > 1 << 32:
                return uniforms(base.extend(round_no), live)
            start, end = round_no, round_no + size
            block = _first_doubles(base, np.arange(start, end, dtype=_U32)[:, None], every)
        return block[round_no - start][live]

    return doubles


def iid_doubles(base: Pool, particles: int):
    """``doubles(round, live)``: each live particle ``m``'s next double of
    stream ``base.extend(m)``, the ones ``sample_with_log_prob`` would
    draw from that stream's generator."""
    particle_streams = [Stream(base.extend(m).words) for m in range(particles)]
    return lambda _, live: np.array([particle_streams[i].random() for i in live.tolist()])
