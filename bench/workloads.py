"""Seeded input generation for the benchmark workloads.

Each workload turns the benchmark seed into an experiment config (a dict
in the shape ``ensmc.config_from_dict`` reads) plus the files it names.
The program under test only ever sees these generated inputs. One op
runs the config with the sampler seed replaced by the op's own seed, so
inputs are fixed for a pass and only the particle draws change.

This module imports nothing from ``ensmc``: generating inputs is part
of set-up, and must not hide the package's import time.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Placeholder for the loopback server URL, filled in once it is bound.
SERVER_URL = "{server}"


@dataclass
class Inputs:
    """A workload's generated config and files, before they are written."""

    config: dict
    files: dict[str, str]
    #: Corpus of the n-gram served over loopback (remote-loopback only).
    served_corpus: list[str] | None = None
    served_order: int = 0
    served_smoothing: float = 0.0
    #: Strings scored through the wire after the pass (remote-loopback only).
    probe_strings: list[str] = field(default_factory=list)

    def digest(self) -> str:
        """Hash of the config and every file, to compare commits on identical inputs."""
        h = hashlib.sha256()
        h.update(json.dumps(self.config, sort_keys=True).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        if self.served_corpus is not None:
            h.update("\n".join(self.served_corpus).encode())
            h.update(f"{self.served_order} {self.served_smoothing!r}".encode())
        return h.hexdigest()[:16]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def _strings_up_to(alphabet: str, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=n))
    return out


def _normalized(masses: np.ndarray) -> list[float]:
    p = masses / masses.sum()
    return [float(v) for v in p]


def _markov_corpus(
    rng: np.random.Generator, alphabet: str, n_strings: int, mean_len: float
) -> list[str]:
    """Strings from a random first-order chain over ``alphabet``.

    Lengths are the geometric quantiles at ``(i + 1/2) / n_strings``, so
    every seed gets the same length profile (and about the same per-op
    cost); the seed only changes the chain and its symbols.
    """
    size = len(alphabet)
    trans = rng.dirichlet(np.full(size, 5.0), size=size)
    stop = 1.0 / (mean_len + 1.0)
    quantiles = (np.arange(n_strings) + 0.5) / n_strings
    lengths = np.ceil(np.log1p(-quantiles) / np.log1p(-stop)).astype(int) - 1
    out = []
    for length in rng.permutation(np.maximum(lengths, 0)):
        state = int(rng.integers(size))
        chars = []
        for _ in range(int(length)):
            chars.append(alphabet[state])
            state = int(rng.choice(size, p=trans[state]))
        out.append("".join(chars))
    return out


def table_wide(seed: int) -> Inputs:
    """Three full-support tables over 4 symbols (lengths 4, 3, 2), product, smc.

    Expert 0 (support to length 4) is the proposal, so particles that
    step past length 2 hit zero target and resampling fires. The product
    support (length <= 2) sits strictly inside both horizons.
    """
    rng = _rng(seed, "table-wide")
    alphabet = "abcd"
    experts = []
    for max_len in (4, 3, 2):
        strings = _strings_up_to(alphabet, max_len)
        # Decay with length keeps a useful share of expert 0's mass on
        # the short strings the product supports.
        decay = np.array([0.35 ** len(x) for x in strings])
        probs = _normalized(rng.gamma(2.0, size=len(strings)) * decay)
        experts.append({"type": "table", "entries": dict(zip(strings, probs))})
    config = {
        "alphabet": alphabet,
        "experts": experts,
        "operator": "product",
        "sampler": {"particles": 1024, "max_len": 6, "proposal": "expert:0",
                    "resample_threshold": 0.9, "seed": 0},
        "oracle": {"max_len": 5},
        "methods": ["smc"],
    }
    return Inputs(config=config, files={})


def ngram_long(seed: int) -> Inputs:
    """Three order-3 add-lambda n-grams over 6 symbols, long strings, four methods."""
    rng = _rng(seed, "ngram-long")
    alphabet = "abcdef"
    files = {}
    experts = []
    for k in range(3):
        corpus = _markov_corpus(rng, alphabet, n_strings=200, mean_len=12.0)
        name = f"corpus{k}.txt"
        files[name] = "\n".join(corpus) + "\n"
        experts.append({"type": "ngram", "corpus": name, "order": 3, "smoothing": 0.5})
    config = {
        "alphabet": alphabet,
        "experts": experts,
        "operator": "product",
        "sampler": {"particles": 8, "max_len": 40, "seed": 0,
                    "debug_check_weights": True},
        "methods": ["smc", "sis", "is", "local"],
    }
    return Inputs(config=config, files=files)


def bridge_oracle(seed: int) -> Inputs:
    """A tokenized expert with an ambiguous decoder times a byte 3-gram.

    Token ``C`` decodes to ``ab``, the bytes of ``A`` then ``B``, so most
    byte strings have several tokenizations. Token strings are drawn so
    their decodings have at most 10 bytes: strictly inside the sampler
    horizon (11) and within the oracle horizon (10).
    """
    rng = _rng(seed, "bridge-oracle")
    decode = {"A": "a", "B": "b", "C": "ab"}
    entries: dict[str, float] = {}
    while len(entries) < 60:
        n_tokens = int(rng.integers(0, 9))
        toks = "".join(rng.choice(list("ABC"), size=n_tokens))
        if len("".join(decode[t] for t in toks)) <= 10:
            entries.setdefault(toks, 0.0)
    keys = sorted(entries)
    probs = _normalized(rng.gamma(2.0, size=len(keys)))
    corpus = _markov_corpus(rng, "ab", n_strings=60, mean_len=6.0)
    files = {
        "tokens.tsv": "ensmc-tokenizer\t1\t3\n" + "".join(
            f"{tok}\t{out}\n" for tok, out in decode.items()
        ),
        "bytes.txt": "\n".join(corpus) + "\n",
    }
    config = {
        "alphabet": "ab",
        "experts": [
            {"type": "tokenized", "tokenizer": "tokens.tsv",
             "model": {"type": "table", "entries": dict(zip(keys, probs))}},
            {"type": "ngram", "corpus": "bytes.txt", "order": 3, "smoothing": 0.5},
        ],
        "operator": "product",
        "sampler": {"particles": 32, "max_len": 11, "seed": 0},
        "oracle": {"max_len": 10},
        "methods": ["smc"],
    }
    return Inputs(config=config, files=files)


def remote_loopback(seed: int) -> Inputs:
    """One n-gram served over loopback HTTP plus one local n-gram, smc."""
    rng = _rng(seed, "remote-loopback")
    alphabet = "abcd"
    served = _markov_corpus(rng, alphabet, n_strings=80, mean_len=8.0)
    local = _markov_corpus(rng, alphabet, n_strings=80, mean_len=8.0)
    probes = sorted(set(_markov_corpus(rng, alphabet, n_strings=8, mean_len=6.0)))
    config = {
        "alphabet": alphabet,
        "experts": [
            {"type": "remote", "url": SERVER_URL},
            {"type": "ngram", "corpus": "local.txt", "order": 2, "smoothing": 0.5},
        ],
        "operator": "product",
        "sampler": {"particles": 12, "max_len": 30, "seed": 0},
        "methods": ["smc"],
    }
    return Inputs(
        config=config,
        files={"local.txt": "\n".join(local) + "\n"},
        served_corpus=served,
        served_order=2,
        served_smoothing=0.5,
        probe_strings=probes,
    )


WORKLOADS = {
    "table-wide": table_wide,
    "ngram-long": ngram_long,
    "bridge-oracle": bridge_oracle,
    "remote-loopback": remote_loopback,
}
