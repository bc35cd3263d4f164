"""Byte-level view of a token-level model.

A tokenizer decodes each token symbol to a non-empty string over a finer
alphabet (called bytes here, though entries are ordinary single
characters). Marginalizing a token-level autoregressive model over all
tokenizations induces a byte-level distribution; this module exposes
that induced distribution as an ordinary :class:`~ensmc.lmcore.SequenceModel`,
so byte-level experts built from token-level models drop into ensembles
unchanged.

The marginal is computed exactly with a frontier of segmentation states.
A frontier for byte prefix ``x`` holds entries ``(Y, s)`` where ``Y`` is
a token context whose decoding is a prefix of ``x`` and
``s = x[len(decode(Y)):]`` is the pending tail still to be covered by
the next token; each entry carries the token-level prefix probability of
``Y``. Entries are keyed by ``Y`` (the tail is determined by ``x``), and
a token completing exactly at a byte boundary immediately spawns the
extended ``(Y + token, "")`` entry, so the frontier covers every
tokenization state at once. With a decoding trie annotated by the tokens
strictly below each node, the byte prefix mass is

    sum over tail-less entries of  weight
  + sum over pending entries of   weight * P(next token strictly extends s | Y)

and the complete-string mass is the tail-less weights times their
end-marker conditionals. Both sums range over disjoint continuation
events, so no renormalization is needed: next-byte rows conserve mass by
construction.
"""
from __future__ import annotations

import threading

import numpy as np

from .errors import UndefinedConditionalError
from .lmcore import Alphabet, SequenceModel
from .logtools import LOG_ZERO, logsumexp
from .textio import counted_rows, escape_field, unescape_field

TOKENIZER_MAGIC = "ensmc-tokenizer"
TOKENIZER_VERSION = 1


class _TrieNode:
    __slots__ = ("children", "exact", "strict")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.exact: list[int] = []
        #: Token indices whose decoding lies strictly below this node.
        self.strict: np.ndarray | list[int] = []


class Tokenizer:
    """A token-to-bytes decoding table.

    ``decode`` maps each token symbol (a single character of
    ``token_alphabet``) to a non-empty string over ``byte_alphabet``.
    Distinct tokens may share a decoding; the marginal handles the
    ambiguity. When ``byte_alphabet`` is omitted it is derived as the
    sorted set of characters appearing in the decodings. ``root`` is the
    root of the trie of decodings.
    """

    def __init__(
        self,
        token_alphabet: Alphabet,
        decode: dict[str, str],
        byte_alphabet: Alphabet | None = None,
    ):
        if set(decode) != set(token_alphabet.symbols):
            raise ValueError("decode table must cover the token alphabet exactly")
        for tok, out in decode.items():
            if not out:
                raise ValueError(f"token {tok!r} decodes to the empty string")
        if byte_alphabet is None:
            byte_alphabet = Alphabet(sorted({ch for out in decode.values() for ch in out}))
        for tok, out in decode.items():
            byte_alphabet.check_string(out)
        self.token_alphabet = token_alphabet
        self.byte_alphabet = byte_alphabet
        self.decode = dict(decode)
        self.root = self._build_trie()

    def _build_trie(self) -> _TrieNode:
        root = _TrieNode()
        for tok, out in self.decode.items():
            node = root
            for ch in out:
                node = node.children.setdefault(ch, _TrieNode())
            node.exact.append(self.token_alphabet.index[tok])

        def annotate(node: _TrieNode) -> list[int]:
            below: list[int] = []
            for child in node.children.values():
                below.extend(child.exact)
                below.extend(annotate(child))
            node.strict = np.array(sorted(below), dtype=int)
            node.exact.sort()
            return below

        annotate(root)
        return root

    def save(self, path: str) -> None:
        lines = [f"{TOKENIZER_MAGIC}\t{TOKENIZER_VERSION}\t{self.token_alphabet.size}"]
        for tok in self.token_alphabet.symbols:
            lines.append(f"{escape_field(tok)}\t{escape_field(self.decode[tok])}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "Tokenizer":
        """Read a file written by :meth:`save`; a malformed file is a
        ValueError that names it."""
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty tokenizer file")
        head = lines[0].split("\t")
        if len(head) != 3 or head[0] != TOKENIZER_MAGIC:
            raise ValueError(f"{path}: not a tokenizer file")
        try:
            version, count = int(head[1]), int(head[2])
        except ValueError as exc:
            raise ValueError(f"{path}: bad header: {exc}")
        if version != TOKENIZER_VERSION:
            raise ValueError(f"{path}: unsupported version {head[1]}")
        tokens = []
        decode = {}
        for lineno, line in counted_rows(lines, 1, count, path):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: malformed row {line!r}")
            tok = unescape_field(parts[0])
            tokens.append(tok)
            decode[tok] = unescape_field(parts[1])
        try:
            return cls(Alphabet(tokens), decode)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}")


class _Frontier:
    """Segmentation states for one byte prefix: (token context, trie node
    of the pending tail, log weight); a tail-less entry holds the root.

    ``entries`` never changes. ``prefix`` and ``stop`` hold the prefix's
    log prefix and complete-string masses, each once summed (``None``
    before). A context :meth:`TokenToByteModel.log_next_many` answered is
    stored as a new frontier with both masses and no states (``None``).
    """

    __slots__ = ("entries", "prefix", "stop")

    def __init__(self, entries, prefix: float | None = None, stop: float | None = None):
        self.entries = entries
        self.prefix = prefix
        self.stop = stop


class TokenToByteModel(SequenceModel):
    """The byte-level marginal of a token-level model, as a sequence model.

    Frontiers are cached per byte context and extended incrementally, so
    sampling walks and prefix queries reuse earlier work; each frontier
    keeps its prefix and complete-string masses once summed, and
    token-model rows are kept (read-only) per token context, so the token
    model is asked for each row once. A context :meth:`log_next_many`
    answered has its masses and all its one-byte extensions stored, so
    its frontier is replaced by one that keeps the masses and no states:
    a longer prefix extends from a stored extension, and nothing is
    rebuilt. An extension's prefix mass reads only the rows of the
    context's own states, so :meth:`log_next_many` asks a token model
    that batches (a served one) for a batch's rows in one call. With
    ``log_floor`` set, frontier entries whose weight falls below
    ``log_floor`` plus the frontier's best weight are dropped;
    ``log_dropped_bound`` then tracks a running upper bound (log domain)
    on the total prefix mass ever discarded. By default no pruning
    happens and the marginal is exact.
    """

    def __init__(
        self,
        token_model: SequenceModel,
        tokenizer: Tokenizer,
        log_floor: float | None = None,
    ):
        if token_model.alphabet != tokenizer.token_alphabet:
            raise ValueError("token model and tokenizer disagree on the token alphabet")
        if log_floor is not None and not log_floor < 0.0:
            raise ValueError("log_floor must be negative (a log-domain ratio)")
        self.token_model = token_model
        self.tokenizer = tokenizer
        self.alphabet = tokenizer.byte_alphabet
        self.log_floor = log_floor
        self.log_dropped_bound = LOG_ZERO
        # Guards the frontier cache and the bound: a frontier's pruned
        # terms count once, when that frontier is the one stored.
        self._lock = threading.Lock()
        self._root = tokenizer.root
        self._frontiers: dict[str, _Frontier] = {
            "": _Frontier(entries=(("", self._root, 0.0),))
        }
        self._token_rows: dict[str, np.ndarray] = {}

    # -- internals ------------------------------------------------------

    def _token_row(self, context: str) -> np.ndarray:
        row = self._token_rows.get(context)
        if row is None:
            row = self.token_model.log_next(context)
            if row.flags.writeable:
                row = row.view()
                row.flags.writeable = False
            self._token_rows[context] = row
        return row

    def _frontier(self, x: str) -> _Frontier:
        have = self._frontiers.get(x)
        if have is not None:
            return have
        # Extend from the longest stored ancestor. An answered frontier is
        # replaced only after its extensions are stored, so an ancestor read
        # before its next byte's frontier is seen missing holds its states.
        start = len(x) - 1
        while (frontier := self._frontiers.get(x[:start])) is None:
            start -= 1
        while start < len(x) and (later := self._frontiers.get(x[: start + 1])) is not None:
            frontier, start = later, start + 1
        # Only the new bytes need checking; a stored prefix was checked when built.
        self.alphabet.check_string(x[start:])
        stored = frontier
        for t in range(start, len(x)):
            # Advance from this thread's frontier: a stored one may be answered since.
            frontier, dropped = self._advance(frontier, x[t])
            with self._lock:
                stored = self._frontiers.setdefault(x[: t + 1], frontier)
                if stored is frontier:
                    for w in dropped:
                        self.log_dropped_bound = float(
                            np.logaddexp(self.log_dropped_bound, w)
                        )
        return stored

    def _advance(self, frontier: _Frontier, byte: str) -> tuple[_Frontier, list[float]]:
        """The frontier one byte on, and the weights its pruning dropped."""
        out: dict[str, tuple[str, _TrieNode, float]] = {}
        symbols = self.tokenizer.token_alphabet.symbols
        for context, node, log_w in frontier.entries:
            node = node.children.get(byte)
            if node is None:
                continue
            if node.exact:
                row = self._token_row(context)
                for tok_idx in node.exact:
                    lp = row[tok_idx]
                    if lp != LOG_ZERO:
                        key = context + symbols[tok_idx]
                        assert key not in out
                        out[key] = (key, self._root, log_w + lp)
            if len(node.strict):
                assert context not in out
                out[context] = (context, node, log_w)
        entries = tuple(out[ctx] for ctx in sorted(out))
        dropped = []
        if self.log_floor is not None and entries:
            cut = max(w for _, _, w in entries) + self.log_floor
            dropped = [w for _, _, w in entries if w < cut]
            entries = tuple(e for e in entries if e[2] >= cut)
        return _Frontier(entries=entries), dropped

    def _prefix(self, frontier: _Frontier) -> float:
        """Log prefix mass of ``frontier``'s byte prefix, summed once. A
        tail-less state's term is its weight: only pending states' token
        rows are read."""
        if frontier.prefix is None:
            terms = []
            for context, node, log_w in frontier.entries:
                if node is self._root:
                    terms.append(log_w)
                else:
                    # A pending state's tail has tokens strictly below it.
                    total = logsumexp(self._token_row(context)[node.strict])
                    if total != LOG_ZERO:
                        terms.append(log_w + total)
            frontier.prefix = logsumexp(terms)
        return frontier.prefix

    def _stop(self, frontier: _Frontier) -> float:
        """Log complete-string mass of ``frontier``'s byte prefix, summed
        once over its tail-less states."""
        if frontier.stop is None:
            terms = []
            eos_index = self.tokenizer.token_alphabet.eos_index
            for context, node, log_w in frontier.entries:
                if node is self._root:
                    eos = self._token_row(context)[eos_index]
                    if eos != LOG_ZERO:
                        terms.append(log_w + eos)
            frontier.stop = logsumexp(terms)
        return frontier.stop

    def _fetch_token_rows(self, frontiers) -> None:
        """Ask the token model, in one ``log_next_many`` call, for the rows
        the states of ``frontiers`` lack, and keep them (read-only) where
        :meth:`_token_row` reads. A frontier needs them while either mass is
        unsummed: an extension has only its prefix mass summed."""
        rows = self._token_rows
        missing = sorted({
            context for f in frontiers if f.prefix is None or f.stop is None
            for context, _, _ in f.entries if context not in rows
        })
        if missing:
            fetched = self.token_model.log_next_many(missing)
            fetched.flags.writeable = False
            rows.update(zip(missing, fetched))

    # -- model interface ------------------------------------------------

    def log_next(self, context: str) -> np.ndarray:
        return self.log_next_many((context,))[0]

    def log_next_many(self, contexts) -> np.ndarray:
        """The rows of ``contexts``, in one ``(n, |Σ| + 1)`` array: each
        row holds the prefix masses of the context's one-byte extensions
        and its complete-string mass, and the contexts' prefix masses are
        subtracted once. The first context with zero prefix mass raises.

        A token model that fetches rows together (one that overrides
        ``log_next_many``, as a served model does) is asked once, for the
        token rows of the contexts' frontiers' states: an extension's
        prefix mass reads only those. Any other one is asked row by row,
        and each row once."""
        symbols = self.alphabet.symbols
        if type(self.token_model).log_next_many is not SequenceModel.log_next_many:
            self._fetch_token_rows([self._frontier(x) for x in contexts])
        out = np.empty((len(contexts), len(symbols) + 1))
        bases = np.empty((len(contexts), 1))
        for i, x in enumerate(contexts):
            frontier = self._frontier(x)
            base = self._prefix(frontier)
            if base == LOG_ZERO:
                raise UndefinedConditionalError(
                    f"byte context {x!r} has zero probability under the marginal"
                )
            bases[i] = base
            row = out[i]
            for j, b in enumerate(symbols):
                row[j] = self._prefix(self._frontier(x + b))
            row[-1] = stop = self._stop(frontier)
            # Every extension is stored: no query reads the states again.
            self._frontiers[x] = _Frontier(None, base, stop)
        out -= bases
        return out

    def prefix_log_prob(self, x: str) -> float:
        """Log byte-prefix mass (direct frontier evaluation)."""
        return self._prefix(self._frontier(x))

    def string_log_prob(self, x: str) -> float:
        """Log probability of the complete byte string (sum over tokenizations)."""
        return self._stop(self._frontier(x))


def as_byte_model(
    token_model: SequenceModel, tokenizer: Tokenizer, log_floor: float | None = None
) -> TokenToByteModel:
    """Wrap a token-level model as its exact byte-level marginal."""
    return TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
