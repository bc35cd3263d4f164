"""Experiment configuration: one JSON file describing experts, operator,
sampler, oracle budget, and an optional predicate.

Shape (all keys except ``experts`` optional)::

    {
      "alphabet": "ab",
      "experts": [
        {"type": "table", "entries": {"": 0.2, "a": 0.5, "b": 0.3}},
        {"type": "ngram", "corpus": "corpus.txt", "order": 2, "smoothing": 0.1},
        {"type": "ngram_file", "path": "model.tsv"},
        {"type": "pfsa", "start": "s",
         "transitions": {"s": {"a": ["s", 0.5]}}, "stops": {"s": 0.5}},
        {"type": "tokenized", "tokenizer": "tok.tsv", "model": {...expert...}},
        {"type": "remote", "url": "http://127.0.0.1:8080"}
      ],
      "weights": [0.5, 0.5],
      "operator": "product" | {"kind": "power", "tau": 0.5} | {"kind": "minimum"},
      "sampler": {"particles": 10, "resample_threshold": 0.9, "max_len": 16,
                  "seed": 0, "proposal": "optimal", "shaping": "prefix",
                  "epsilon": 1e-6},
      "oracle": {"max_len": 16, "max_nodes": 500000},
      "predicate": {"kind": "in_set", "strings": ["ab"]}
                 | {"kind": "regex", "pattern": "a.*"},
      "methods": ["smc"],
      "repeats": 1
    }

Relative paths are resolved against the config file's directory.
``weights`` defaults to uniform. ``alphabet`` may be omitted when every
expert determines its own (tables, files); it is required for n-grams
fit from a corpus. The ``regex`` predicate uses full-string matching.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .bridge import Tokenizer, as_byte_model
from .ensemble import EnsembleSpec, ExpertPanel
from .inference import SamplerConfig
from .lmcore import Alphabet, SequenceModel
from .remote import DEFAULT_DEFECT_TOL, RemoteModel
from .toy import NGramModel, PFSAModel, TableModel, fit_ngram, load_corpus

KNOWN_METHODS = ("smc", "sis", "is", "local")


@dataclass(frozen=True)
class ExperimentConfig:
    experts: tuple[dict, ...]
    operator: dict | str = "product"
    weights: tuple[float, ...] | None = None
    alphabet: str | None = None
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    oracle: dict | None = None
    predicate: dict | None = None
    methods: tuple[str, ...] = ("smc",)
    repeats: int = 1
    base_dir: Path = field(default_factory=Path.cwd)

    def __post_init__(self):
        if not self.experts:
            raise ValueError("config needs at least one expert")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}; known: {KNOWN_METHODS}")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return config_from_dict(raw, base_dir=path.parent)


def config_from_dict(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    known = {
        "experts", "operator", "weights", "alphabet", "sampler",
        "oracle", "predicate", "methods", "repeats",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    sampler = SamplerConfig(**raw.get("sampler", {}))
    return ExperimentConfig(
        experts=tuple(raw.get("experts", ())),
        operator=raw.get("operator", "product"),
        weights=tuple(raw["weights"]) if raw.get("weights") is not None else None,
        alphabet=raw.get("alphabet"),
        sampler=sampler,
        oracle=raw.get("oracle"),
        predicate=raw.get("predicate"),
        methods=tuple(raw.get("methods", ("smc",))),
        repeats=raw.get("repeats", 1),
        base_dir=Path(base_dir),
    )


def build_expert(
    spec: dict, alphabet: Alphabet | None, base_dir: Path
) -> SequenceModel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError(f"expert spec must be an object with a 'type': {spec!r}")
    kind = spec["type"]
    if kind == "table":
        return TableModel(dict(spec["entries"]), alphabet=alphabet)
    if kind == "ngram":
        corpus = load_corpus(base_dir / spec["corpus"])
        if alphabet is None:
            raise ValueError("n-gram experts fit from a corpus need 'alphabet'")
        return fit_ngram(
            corpus,
            order=spec.get("order", 2),
            smoothing=spec.get("smoothing", 0.1),
            alphabet=alphabet,
        )
    if kind == "ngram_file":
        return NGramModel.load(base_dir / spec["path"])
    if kind == "pfsa":
        if alphabet is None:
            raise ValueError("pfsa experts need 'alphabet'")
        transitions = {
            state: {sym: (arc[0], float(arc[1])) for sym, arc in arcs.items()}
            for state, arcs in spec["transitions"].items()
        }
        stops = {state: float(p) for state, p in spec.get("stops", {}).items()}
        return PFSAModel(alphabet, spec["start"], transitions, stops)
    if kind == "tokenized":
        tokenizer = Tokenizer.load(base_dir / spec["tokenizer"])
        inner = build_expert(spec["model"], tokenizer.token_alphabet, base_dir)
        return as_byte_model(inner, tokenizer, log_floor=spec.get("log_floor"))
    if kind == "remote":
        return RemoteModel(
            spec["url"],
            alphabet=alphabet,
            timeout=spec.get("timeout", 5.0),
            retries=spec.get("retries", 3),
            backoff=spec.get("backoff", 0.05),
            defect_tol=spec.get("defect_tol", DEFAULT_DEFECT_TOL),
        )
    raise ValueError(f"unknown expert type {kind!r}")


def build_panel(config: ExperimentConfig) -> tuple[ExpertPanel, EnsembleSpec]:
    """Instantiate the experts and the ensemble operator from a config."""
    alphabet = Alphabet(tuple(config.alphabet)) if config.alphabet else None
    models = [build_expert(e, alphabet, config.base_dir) for e in config.experts]
    panel = ExpertPanel(models)
    weights = config.weights if config.weights is not None else len(models)
    op = config.operator
    if isinstance(op, str):
        spec = EnsembleSpec.from_name(op, weights=weights)
    elif isinstance(op, dict):
        kind = op.get("kind")
        if kind == "power":
            spec = EnsembleSpec.power(op["tau"], weights=weights)
        elif kind in ("minimum", "maximum", "geometric", "product",
                      "sum", "harmonic", "quadratic"):
            spec = EnsembleSpec.from_name(kind, weights=weights)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
    else:
        raise ValueError(f"operator must be a name or an object, got {op!r}")
    if spec.k != len(models):
        raise ValueError(
            f"{len(models)} experts but {spec.k} weights"
        )
    return panel, spec


def build_predicate(spec: dict | None) -> Callable[[str], bool] | None:
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "in_set":
        allowed = frozenset(spec["strings"])
        return lambda x: x in allowed
    if kind == "regex":
        pattern = re.compile(spec["pattern"])
        return lambda x: pattern.fullmatch(x) is not None
    raise ValueError(f"unknown predicate kind {kind!r}")
