"""Small exactly-computable sequence models used as ensemble experts.

Three families:

* ``TableModel`` — an explicit finite distribution over complete
  strings; conditionals come from exact suffix sums.
* ``NGramModel`` — an add-lambda smoothed character n-gram fit from a
  corpus (one string per line).
* ``PFSAModel`` — a deterministic probabilistic finite-state automaton;
  per-state stop mass becomes the end-marker probability.

"Prompting" a toy expert means fitting it on a different corpus (or
table); prompt-pair experiments simply use two differently-fit experts.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Iterable, Sequence

import numpy as np

from .errors import UndefinedConditionalError
from .lmcore import EOS_KEY, Alphabet, SequenceModel
from .logtools import LOG_ZERO, log_row
from .textio import counted_rows, escape_field, unescape_field

NGRAM_MAGIC = "ensmc-ngram"
NGRAM_VERSION = 1
#: The header keys :meth:`NGramModel.save` writes on lines 2-5, in order.
_HEADER_KEYS = ("order", "smoothing", "alphabet", "counts")

#: Normalization tolerance for explicit string tables.
TABLE_TOL = 1e-12


def load_corpus(path) -> list[str]:
    """Read a corpus file: one training string per line, newline stripped.

    Only a line feed ends a line (CR LF reads as one), so a form feed or
    NEL stays inside its string. Blank lines denote the empty string.
    """
    with open(path, encoding="utf-8") as fh:
        return [line.removesuffix("\n") for line in fh]


class TableModel(SequenceModel):
    """Distribution given by an explicit ``{string: probability}`` table.

    Entries must be nonnegative and sum to 1 within 1e-12. Conditionals
    are exact ratios of suffix sums; contexts off the support of any
    prefix raise UndefinedConditionalError.
    """

    def __init__(self, entries: dict, alphabet: Alphabet | None = None):
        if not entries:
            raise ValueError("table must have at least one entry")
        total = math.fsum(entries.values())
        if not abs(total - 1.0) <= TABLE_TOL:  # NaN fails too
            raise ValueError(f"table probabilities sum to {total!r}, not 1 within {TABLE_TOL}")
        for x, p in entries.items():
            if p < 0.0:
                raise ValueError(f"negative probability for {x!r}")
        if alphabet is None:
            chars = sorted({ch for x in entries for ch in x})
            if not chars:
                raise ValueError("cannot derive an alphabet from an empty-string-only table")
            alphabet = Alphabet(chars)
        for x in entries:
            alphabet.check_string(x)
        self.alphabet = alphabet
        self.entries = {x: float(p) for x, p in entries.items() if p > 0.0}
        # Exact prefix masses for every prefix of every supported string.
        self._prefix_mass: dict[str, float] = defaultdict(float)
        for x, p in self.entries.items():
            for t in range(len(x) + 1):
                self._prefix_mass[x[:t]] += p
        # Conditional rows, memoized per context (the table is fixed).
        self._row_memo: dict[str, np.ndarray] = {}

    def log_next(self, context: str) -> np.ndarray:
        memoized = self._row_memo.get(context)
        if memoized is not None:
            return memoized
        mass = self._prefix_mass.get(context, 0.0)
        if mass <= 0.0:
            raise UndefinedConditionalError(f"context {context!r} off the table support")
        prefix_mass = self._prefix_mass
        probs = [prefix_mass.get(context + s, 0.0) / mass for s in self.alphabet.symbols]
        probs.append(self.entries.get(context, 0.0) / mass)
        # Entering errstate costs about as much as the log of a short row.
        if 0.0 in probs:
            with np.errstate(divide="ignore"):
                out = np.log(probs)
        else:
            out = np.log(probs)
        out.flags.writeable = False  # shared by every caller of this context
        self._row_memo[context] = out
        return out


class NGramModel(SequenceModel):
    """Add-lambda smoothed character n-gram model.

    The conditioning context is the last ``order - 1`` symbols; shorter
    prefixes near the string start condition on the whole prefix, which
    is equivalent to padding with a begin marker (the marker itself is
    internal bookkeeping and never appears in the alphabet). Events
    include the end marker, so with smoothing ``lam``:

        p(s | ctx) = (count(ctx, s) + lam) / (total(ctx) + lam * (|alphabet| + 1))

    With ``lam > 0`` every conditional is strictly positive, hence every
    string has positive prefix probability. With ``lam = 0`` an unseen
    context has no conditional and raises UndefinedConditionalError.
    """

    def __init__(self, alphabet: Alphabet, order: int, smoothing: float, counts: dict):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 <= smoothing < math.inf:
            raise ValueError("smoothing must be finite and >= 0")
        self.alphabet = alphabet
        self.order = int(order)
        self.smoothing = float(smoothing)
        width = alphabet.size + 1
        # One count row per context key, then an all-zero row that every
        # unseen key shares.
        self._key_row: dict[str, int] = dict(zip(counts, range(len(counts))))
        self._counts = np.zeros((len(counts) + 1, width))
        # One vector pass over every key and count; on any defect, the
        # per-context pass below names the first bad context in dict order.
        try:
            alphabet.check_string("".join(counts))
            stacked = np.array(list(counts.values()), dtype=float)
            valid = stacked.shape == (len(counts), width) and bool(
                (np.isfinite(stacked) & (stacked >= 0)).all()
            )
        except (TypeError, ValueError, OverflowError):
            valid = False
        if valid:
            self._counts[:-1] = stacked
        else:
            for i, (ctx, vec) in enumerate(counts.items()):
                alphabet.check_string(ctx)
                vec = np.asarray(vec, dtype=float)
                if vec.shape != (width,) or not (np.isfinite(vec) & (vec >= 0)).all():
                    raise ValueError(f"bad count vector for context {ctx!r}")
                self._counts[i] = vec
        # A row depends only on its key, so each one is built once here;
        # a key with no events (total 0, unsmoothed) has no row.
        self._totals = self._counts.sum(axis=1) + self.smoothing * width
        with np.errstate(divide="ignore", invalid="ignore"):
            self._rows = log_row((self._counts + self.smoothing) / self._totals[:, None])
        self._rows.flags.writeable = False

    def _context_key(self, context: str) -> str:
        return context[-(self.order - 1):] if self.order > 1 else ""

    def log_next(self, context: str) -> np.ndarray:
        self.alphabet.check_string(context)
        i = self._key_row.get(self._context_key(context), len(self._key_row))
        if self._totals[i] <= 0.0:
            raise UndefinedConditionalError(
                f"unsmoothed n-gram has no events for context {context!r}"
            )
        return self._rows[i]

    def save(self, path) -> None:
        """Write the versioned plain-text serialization (header + count table)."""
        lines = [
            f"{NGRAM_MAGIC}\t{NGRAM_VERSION}",
            f"order\t{self.order}",
            f"smoothing\t{self.smoothing!r}",
            f"alphabet\t{escape_field(''.join(self.alphabet.symbols))}",
        ]
        rows = []
        for ctx in sorted(self._key_row):
            vec = self._counts[self._key_row[ctx]]
            for i, s in enumerate(self.alphabet.symbols):
                if vec[i]:
                    rows.append((ctx, s, int(vec[i])))
            if vec[self.alphabet.eos_index]:
                rows.append((ctx, EOS_KEY, int(vec[self.alphabet.eos_index])))
        lines.append(f"counts\t{len(rows)}")
        for ctx, sym, c in rows:
            key = sym if sym == EOS_KEY else escape_field(sym)
            lines.append(f"{escape_field(ctx)}\t{key}\t{c}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        """Read a file written by :meth:`save`; a malformed file is a
        ValueError that names it."""
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        try:
            magic, version = lines[0].split("\t")
            if magic != NGRAM_MAGIC or int(version) != NGRAM_VERSION:
                raise ValueError
            header = [line.split("\t") for line in lines[1:5]]
            order, smoothing, alpha, n_rows = (value for _, value in header)
        except (IndexError, ValueError):
            raise ValueError(f"{path}: not a {NGRAM_MAGIC} v{NGRAM_VERSION} file")
        for lineno, ((key, _), want) in enumerate(zip(header, _HEADER_KEYS), start=2):
            if key != want:
                raise ValueError(f"{path}: line {lineno}: header key {key!r}, expected {want!r}")
        try:
            alphabet = Alphabet(unescape_field(alpha))
            order, smoothing, n_rows = int(order), float(smoothing), int(n_rows)
        except ValueError as exc:
            raise ValueError(f"{path}: bad header: {exc}")
        counts: dict[str, np.ndarray] = {}
        seen = set()
        for lineno, line in counted_rows(lines, 5, n_rows, path):
            try:
                ctx_f, sym_f, c = line.split("\t")
                ctx = unescape_field(ctx_f)
                if sym_f == EOS_KEY:
                    event = alphabet.eos_index
                else:
                    event = alphabet.index[unescape_field(sym_f)]
                count = int(c)
            except (KeyError, ValueError):
                raise ValueError(f"{path}: line {lineno}: bad count row {line!r}")
            if (ctx, event) in seen:
                raise ValueError(f"{path}: line {lineno}: repeated (context, event) row {line!r}")
            seen.add((ctx, event))
            counts.setdefault(ctx, np.zeros(alphabet.size + 1))[event] = count
        try:
            return cls(alphabet, order, smoothing, counts)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}")


def fit_ngram(
    corpus: Sequence[str],
    order: int,
    smoothing: float,
    alphabet: Alphabet | None = None,
) -> NGramModel:
    """Count-and-normalize an :class:`NGramModel` from training strings.

    One counting pass: each event is the int ``key * width + event``
    with ``width = |alphabet| + 1``. The key is a rolling base-``width``
    code of the last ``order - 1`` symbols in which digit 0 means "no
    symbol", so the shorter keys near a string's start stay distinct.
    Counting ints in one ``Counter`` does no numpy work per symbol, and
    its memory grows with the distinct events, not the corpus length.
    """
    if alphabet is None:
        chars = sorted({ch for x in corpus for ch in x})
        if not chars:
            raise ValueError("cannot derive an alphabet from an empty corpus")
        alphabet = Alphabet(chars)
    if order < 1:
        raise ValueError("order must be >= 1")
    width = alphabet.size + 1
    modulus = width ** (order - 1)
    index = alphabet.index
    eos = alphabet.eos_index

    def events():
        for x in corpus:
            alphabet.check_string(x)
            key = 0
            for ch in x:
                i = index[ch]
                yield key * width + i
                key = (key * width + i + 1) % modulus
            yield key * width + eos

    # Counter keeps first-seen order, so keys get rows in the order they
    # first occur in the corpus; one scatter fills the count matrix.
    counted = Counter(events())
    key_row: dict[int, int] = {}
    rows = [key_row.setdefault(code // width, len(key_row)) for code in counted]
    matrix = np.zeros((len(key_row), width))
    matrix[rows, [code % width for code in counted]] = list(counted.values())
    contexts = []
    for key in key_row:
        ctx = []
        while key:
            key, digit = divmod(key, width)
            ctx.append(alphabet.symbols[digit - 1])
        contexts.append("".join(reversed(ctx)))
    return NGramModel(alphabet, order, smoothing, dict(zip(contexts, matrix)))


class PFSAModel(SequenceModel):
    """Deterministic probabilistic finite-state automaton.

    ``transitions[state][symbol] = (next_state, probability)`` and
    ``stops[state]`` is the stop mass, which becomes the end-marker
    probability. Per state, stop plus outgoing mass must equal 1 within
    1e-9, and every state must be reachable from the start state.
    """

    def __init__(self, alphabet: Alphabet, start, transitions: dict, stops: dict):
        self.alphabet = alphabet
        self.start = start
        self.transitions = {
            state: dict(arcs) for state, arcs in transitions.items()
        }
        self.stops = dict(stops)
        states = set(self.transitions) | set(self.stops)
        for state in states:
            arcs = self.transitions.get(state, {})
            stop = self.stops.get(state, 0.0)
            if stop < 0.0 or any(p < 0.0 for _, p in arcs.values()):
                raise ValueError(f"negative probability at state {state!r}")
            for sym, (nxt, _) in arcs.items():
                if sym not in alphabet:
                    raise ValueError(f"arc symbol {sym!r} not in alphabet")
                if nxt not in states:
                    raise ValueError(f"arc target {nxt!r} is not a state")
            total = stop + math.fsum(p for _, p in arcs.values())
            if not abs(total - 1.0) <= 1e-9:  # NaN fails too
                raise ValueError(f"state {state!r} mass sums to {total!r}, not 1")
        if start not in states:
            raise ValueError(f"start state {start!r} unknown")
        seen = {start}
        queue = [start]
        while queue:
            state = queue.pop()
            for nxt, p in self.transitions.get(state, {}).values():
                if p > 0.0 and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if seen != states:
            raise ValueError(f"unreachable states: {sorted(states - seen, key=repr)}")

    def _state_at(self, context: str):
        state = self.start
        for ch in context:
            arc = self.transitions.get(state, {}).get(ch)
            if arc is None or arc[1] <= 0.0:
                return None
            state = arc[0]
        return state

    def log_next(self, context: str) -> np.ndarray:
        self.alphabet.check_string(context)
        state = self._state_at(context)
        if state is None:
            raise UndefinedConditionalError(f"context {context!r} leaves the automaton")
        row = np.zeros(self.alphabet.size + 1)
        for sym, (_, p) in self.transitions.get(state, {}).items():
            row[self.alphabet.index[sym]] = p
        row[self.alphabet.eos_index] = self.stops.get(state, 0.0)
        return log_row(row)
