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
from .textio import escape_field, unescape_field

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
    sorted set of characters appearing in the decodings.
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
        self._root = self._build_trie()

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

    def node_at(self, tail: str) -> _TrieNode | None:
        node = self._root
        for ch in tail:
            node = node.children.get(ch)
            if node is None:
                return None
        return node

    def decode_sequence(self, tokens: str) -> str:
        self.token_alphabet.check_string(tokens)
        return "".join(self.decode[t] for t in tokens)

    def encode_greedy(self, text: str) -> str:
        """Longest-match tokenization (ties broken by token-alphabet order).

        Raises ValueError when no token matches at some position; note a
        greedy encoding is just one tokenization among those the
        marginal sums over.
        """
        by_len = sorted(
            self.token_alphabet.symbols,
            key=lambda t: (-len(self.decode[t]), self.token_alphabet.index[t]),
        )
        out = []
        i = 0
        while i < len(text):
            for tok in by_len:
                piece = self.decode[tok]
                if text.startswith(piece, i):
                    out.append(tok)
                    i += len(piece)
                    break
            else:
                raise ValueError(f"no token matches {text[i:]!r} at position {i}")
        return "".join(out)

    def save(self, path: str) -> None:
        lines = [f"{TOKENIZER_MAGIC}\t{TOKENIZER_VERSION}\t{self.token_alphabet.size}"]
        for tok in self.token_alphabet.symbols:
            lines.append(f"{escape_field(tok)}\t{escape_field(self.decode[tok])}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str, byte_alphabet: Alphabet | None = None) -> "Tokenizer":
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty tokenizer file")
        head = lines[0].split("\t")
        if len(head) != 3 or head[0] != TOKENIZER_MAGIC:
            raise ValueError(f"{path}: not a tokenizer file")
        if int(head[1]) != TOKENIZER_VERSION:
            raise ValueError(f"{path}: unsupported version {head[1]}")
        count = int(head[2])
        rows = [line for line in lines[1:] if line]
        if len(rows) != count:
            raise ValueError(f"{path}: expected {count} rows, found {len(rows)}")
        tokens = []
        decode = {}
        for line in rows:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed row {line!r}")
            tok = unescape_field(parts[0])
            tokens.append(tok)
            decode[tok] = unescape_field(parts[1])
        return cls(Alphabet(tokens), decode, byte_alphabet=byte_alphabet)


class _Frontier:
    """Segmentation states for one byte prefix: (token context, tail, log weight).

    ``prefix`` and ``stop`` hold the prefix's log prefix and
    complete-string masses once they have been summed (``None`` before).
    """

    __slots__ = ("entries", "prefix", "stop")

    def __init__(self, entries: tuple[tuple[str, str, float], ...]):
        self.entries = entries
        self.prefix: float | None = None
        self.stop: float | None = None


class TokenToByteModel(SequenceModel):
    """The byte-level marginal of a token-level model, as a sequence model.

    Frontiers are cached per byte context and extended incrementally, so
    sampling walks and prefix queries reuse earlier work; each frontier
    keeps its prefix and complete-string masses once summed, and
    token-model rows are memoized (read-only) per token context. With
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
        if log_floor is not None and log_floor >= 0.0:
            raise ValueError("log_floor must be negative (a log-domain ratio)")
        self.token_model = token_model
        self.tokenizer = tokenizer
        self.alphabet = tokenizer.byte_alphabet
        self.log_floor = log_floor
        self.log_dropped_bound = LOG_ZERO
        # Guards the frontier cache and the bound: a frontier's pruned
        # terms count once, when that frontier is the one stored.
        self._lock = threading.Lock()
        self._frontiers: dict[str, _Frontier] = {
            "": _Frontier(entries=(("", "", 0.0),))
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
        # Extend from the longest cached ancestor; only the new bytes need
        # checking, since a cached prefix was checked when it was built.
        start = len(x)
        while x[:start] not in self._frontiers:
            start -= 1
        self.alphabet.check_string(x[start:])
        frontier = self._frontiers[x[:start]]
        for t in range(start, len(x)):
            computed, dropped = self._advance(frontier, x[t])
            with self._lock:
                frontier = self._frontiers.setdefault(x[: t + 1], computed)
                if frontier is computed:
                    for w in dropped:
                        self.log_dropped_bound = float(
                            np.logaddexp(self.log_dropped_bound, w)
                        )
        return frontier

    def _advance(self, frontier: _Frontier, byte: str) -> tuple[_Frontier, list[float]]:
        """The frontier one byte on, and the weights its pruning dropped."""
        out: dict[str, tuple[str, float]] = {}
        for context, tail, log_w in frontier.entries:
            node = self.tokenizer.node_at(tail + byte)
            if node is None:
                continue
            if len(node.exact) or len(node.strict):
                row = None
                for tok_idx in node.exact:
                    if row is None:
                        row = self._token_row(context)
                    lp = row[tok_idx]
                    if lp == LOG_ZERO:
                        continue
                    key = context + self.tokenizer.token_alphabet.symbols[tok_idx]
                    assert key not in out
                    out[key] = ("", log_w + lp)
                if len(node.strict):
                    assert context not in out
                    out[context] = (tail + byte, log_w)
        entries = tuple(
            (ctx, tail, w) for ctx, (tail, w) in sorted(out.items())
        )
        dropped = []
        if self.log_floor is not None and entries:
            cut = max(w for _, _, w in entries) + self.log_floor
            dropped = [w for _, _, w in entries if w < cut]
            entries = tuple(e for e in entries if e[2] >= cut)
        return _Frontier(entries=entries), dropped

    def _prefix_and_stop(self, x: str) -> tuple[float, float]:
        """(log prefix mass, log complete-string mass) at byte prefix ``x``.

        Summed once per frontier and kept on it: every later query for
        ``x`` reads the stored pair.
        """
        frontier = self._frontier(x)
        if frontier.prefix is not None:
            return frontier.prefix, frontier.stop
        prefix_terms = []
        stop_terms = []
        for context, tail, log_w in frontier.entries:
            if tail == "":
                prefix_terms.append(log_w)
                row = self._token_row(context)
                eos = row[self.tokenizer.token_alphabet.eos_index]
                if eos != LOG_ZERO:
                    stop_terms.append(log_w + eos)
            else:
                node = self.tokenizer.node_at(tail)
                row = self._token_row(context)
                compat = row[node.strict]
                total = logsumexp(compat) if len(compat) else LOG_ZERO
                if total != LOG_ZERO:
                    prefix_terms.append(log_w + total)
        prefix = float(logsumexp(np.array(prefix_terms))) if prefix_terms else LOG_ZERO
        stop = float(logsumexp(np.array(stop_terms))) if stop_terms else LOG_ZERO
        # ``stop`` first: a reader that sees ``prefix`` set finds both.
        frontier.stop = stop
        frontier.prefix = prefix
        return prefix, stop

    # -- model interface ------------------------------------------------

    def log_next(self, context: str) -> np.ndarray:
        base, stop = self._prefix_and_stop(context)
        if base == LOG_ZERO:
            raise UndefinedConditionalError(
                f"byte context {context!r} has zero probability under the marginal"
            )
        row = np.empty(self.alphabet.size + 1)
        for j, b in enumerate(self.alphabet.symbols):
            child, _ = self._prefix_and_stop(context + b)
            row[j] = child - base
        row[self.alphabet.eos_index] = stop - base
        return row

    def prefix_log_prob(self, x: str) -> float:
        """Log byte-prefix mass (direct frontier evaluation)."""
        return self._prefix_and_stop(x)[0]

    def string_log_prob(self, x: str) -> float:
        """Log probability of the complete byte string (sum over tokenizations)."""
        return self._prefix_and_stop(x)[1]


def as_byte_model(
    token_model: SequenceModel, tokenizer: Tokenizer, log_floor: float | None = None
) -> TokenToByteModel:
    """Wrap a token-level model as its exact byte-level marginal."""
    return TokenToByteModel(token_model, tokenizer, log_floor=log_floor)
