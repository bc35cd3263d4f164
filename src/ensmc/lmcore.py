"""Core sequence-model formalism.

A sequence model assigns conditional probabilities over the next symbol
given a context string, where "next symbol" ranges over the alphabet
plus a distinguished end marker. Complete-string probabilities factor as
the product of the per-symbol conditionals times the end-marker
conditional at the final context; prefix probabilities drop the final
end-marker factor.

Conventions
-----------
* Symbols are single characters; a string over the alphabet is a plain
  Python str.
* A conditional distribution is a dense log-domain numpy vector of
  length ``alphabet.size + 1``; the end marker lives at the fixed final
  index ``alphabet.eos_index``. The marker is never a member of the
  alphabet (it has no character), so it can never be appended to a
  string.
* Exact zero probability is ``float('-inf')``.
"""
from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

from .logtools import LOG_ZERO

#: Reserved key naming the end marker in n-gram count files.
#: Deliberately longer than one character so it cannot collide with a symbol.
EOS_KEY = "<eos>"

#: Tolerance on |sum - 1| for conditional rows.
ROW_TOL = 1e-9


class Alphabet:
    """An ordered set of single-character symbols.

    The ordering fixes the dense-vector layout: symbol ``symbols[i]`` has
    index ``i`` and the end marker has index ``size`` (the last slot).
    """

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        for s in symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"symbols must be single characters, got {s!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbols in alphabet")
        self.symbols = symbols
        self.index = {s: i for i, s in enumerate(symbols)}
        self.symbols_set = frozenset(symbols)
        self.size = len(symbols)
        self.eos_index = self.size

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({''.join(self.symbols)!r})"

    def check_string(self, x: str) -> None:
        """Raise ValueError if ``x`` contains a symbol outside the alphabet."""
        # The set test loops in C; only a failing string is searched for
        # its first foreign symbol.
        if not self.symbols_set.issuperset(x):
            for ch in x:
                if ch not in self.index:
                    raise ValueError(f"symbol {ch!r} not in alphabet {self!r}")


def validate_log_row(row: np.ndarray, alphabet: Alphabet) -> None:
    """Reject a conditional row whose linear-domain sum strays from 1.

    Models are validated at registration rather than silently
    renormalized, so a defect here is a ValueError.
    """
    row = np.asarray(row, dtype=float)
    if row.shape != (alphabet.size + 1,):
        raise ValueError(f"row has shape {row.shape}, expected ({alphabet.size + 1},)")
    if np.isnan(row).any() or (row == np.inf).any():
        raise ValueError("row contains nan or +inf")
    total = float(np.exp(row).sum())
    if abs(total - 1.0) > ROW_TOL:
        raise ValueError(f"conditional row sums to {total!r}, not 1 within {ROW_TOL}")


class SequenceModel(abc.ABC):
    """Abstract autoregressive model over strings from one alphabet.

    Subclasses implement :meth:`log_next`; everything else (string and
    prefix probabilities, ancestral sampling) is derived. Queries are
    pure functions of the context: implementations may cache internally
    but must stay safe for concurrent read-only use.
    """

    alphabet: Alphabet

    @abc.abstractmethod
    def log_next(self, context: str) -> np.ndarray:
        """Log conditional distribution over symbols + end marker at ``context``.

        Raises UndefinedConditionalError when the context has zero
        probability under the model (the conditional does not exist).
        """

    def log_next_many(self, contexts: Sequence[str]) -> np.ndarray:
        """The :meth:`log_next` rows of ``contexts``, one per row of an
        ``(n, |Σ| + 1)`` array. Models whose rows are cheaper to fetch
        together (a served model: one request) override this loop."""
        out = np.empty((len(contexts), self.alphabet.size + 1))
        for i, context in enumerate(contexts):
            out[i] = self.log_next(context)
        return out


def prefix_log_prob(model: SequenceModel, x: str) -> float:
    """Log probability that a draw from the model starts with ``x``."""
    model.alphabet.check_string(x)
    total = 0.0
    for t, ch in enumerate(x):
        row = model.log_next(x[:t])
        lp = row[model.alphabet.index[ch]]
        if lp == LOG_ZERO:
            return LOG_ZERO
        total += lp
    return total


def string_log_prob(model: SequenceModel, x: str) -> float:
    """Log probability of the complete string ``x`` (prefix plus end marker)."""
    prefix = prefix_log_prob(model, x)
    if prefix == LOG_ZERO:
        return LOG_ZERO
    return prefix + model.log_next(x)[model.alphabet.eos_index]


def draw_indices(probs: np.ndarray, u):
    """Inverse-CDF draws from a linear-domain vector: the index each ``u`` selects.

    ``u`` is one uniform double or an array of them. Uses a strict
    cumulative comparison (searchsorted side='right') against
    ``u * cum[-1]``, so ties and zero-probability cells are resolved
    deterministically given the uniforms; a terminal rounding shortfall
    falls back to the last positive cell.
    """
    cum = probs.cumsum()
    idx = cum.searchsorted(u * cum[-1], side="right")
    if isinstance(u, float):
        return idx if idx < len(probs) else np.flatnonzero(probs > 0.0)[-1]
    over = idx >= len(probs)
    if over.any():
        idx = np.where(over, np.flatnonzero(probs > 0.0)[-1], idx)
    return idx


def draw_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    """:func:`draw_indices` for one uniform from ``rng``."""
    return int(draw_indices(probs, rng.random()))


def sample_with_log_prob(
    model: SequenceModel, rng: np.random.Generator, max_len: int
) -> tuple[str, float, bool]:
    """Ancestral sample plus its accumulated log probability under the model.

    The accumulated value includes the final end-marker factor when the
    draw completed, i.e. it equals ``string_log_prob(model, x)`` then.
    Strings of up to ``max_len`` symbols can complete; a draw that adds a
    symbol past them stops incomplete, with ``max_len + 1`` symbols.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    eos = model.alphabet.eos_index
    x = ""
    log_p = 0.0
    while True:
        row = model.log_next(x)
        idx = draw_index(rng, np.exp(row))
        log_p += row[idx]
        if idx == eos:
            return x, log_p, True
        x += model.alphabet.symbols[idx]
        if len(x) > max_len:
            return x, log_p, False


def check_model(model: SequenceModel, contexts: Iterable[str]) -> None:
    """Spot-check row normalization at the given contexts.

    Contexts with zero prefix probability are skipped (their
    conditionals are undefined). Raises ValueError on the first defect.
    """
    for ctx in contexts:
        if prefix_log_prob(model, ctx) == LOG_ZERO:
            continue
        validate_log_row(model.log_next(ctx), model.alphabet)
