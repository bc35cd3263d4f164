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
Unknown keys are rejected with a ValueError that names them: at the top
level, in ``sampler`` and ``oracle``, in each expert object (per
``type``), and in the ``operator`` and ``predicate`` objects.
``weights`` defaults to uniform. ``alphabet`` may be omitted when every
expert determines its own (tables, files); it is required for n-grams
fit from a corpus. The ``regex`` predicate uses full-string matching.
"""
from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from .bridge import Tokenizer, as_byte_model
from .ensemble import EnsembleSpec, ExpertPanel
from .inference import SamplerConfig
from .lmcore import Alphabet, SequenceModel
from .oracle import DEFAULT_NODE_CAP
from .remote import DEFAULT_DEFECT_TOL, RemoteModel
from .toy import NGramModel, PFSAModel, TableModel, fit_ngram, load_corpus

KNOWN_METHODS = ("smc", "sis", "is", "local")

#: The fields each expert ``type`` reads, besides ``type`` itself.
EXPERT_FIELDS = {
    "table": {"entries"},
    "ngram": {"corpus", "order", "smoothing"},
    "ngram_file": {"path"},
    "pfsa": {"start", "transitions", "stops"},
    "tokenized": {"tokenizer", "model", "log_floor"},
    "remote": {"url", "timeout", "retries", "backoff", "defect_tol"},
}


def _is_number(value) -> bool:
    """A real number, numpy's included; a bool is not one here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_keys(obj, allowed, what: str) -> None:
    """Reject a non-object, or an object with keys outside ``allowed``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what!r} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


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
        if type(self.repeats) is not int or self.repeats < 1:  # a bool is no count
            raise ValueError(f"'repeats' must be an integer >= 1, got {self.repeats!r}")
        if self.alphabet is not None and not isinstance(self.alphabet, str):
            raise ValueError(f"'alphabet' must be a string of symbols, got {self.alphabet!r}")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}; known: {KNOWN_METHODS}")
        for key, value in (self.oracle or {}).items():
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
                raise ValueError(f"oracle {key!r} must be an integer >= 0, got {value!r}")

    def oracle_limits(self) -> dict:
        """The oracle's ``max_len``/``max_nodes``: the ``oracle`` block's
        values, else the sampler's horizon and ``DEFAULT_NODE_CAP``."""
        oracle = self.oracle or {}
        return {
            "max_len": oracle.get("max_len", self.sampler.max_len),
            "max_nodes": oracle.get("max_nodes", DEFAULT_NODE_CAP),
        }


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return config_from_dict(raw, base_dir=path.parent)


def config_from_dict(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    _check_keys(raw, {
        "experts", "operator", "weights", "alphabet", "sampler",
        "oracle", "predicate", "methods", "repeats",
    }, "config")
    sampler = raw.get("sampler", {})
    _check_keys(sampler, {f.name for f in fields(SamplerConfig)}, "sampler")
    if raw.get("oracle") is not None:
        _check_keys(raw["oracle"], {"max_len", "max_nodes"}, "oracle")
    return ExperimentConfig(
        experts=_list_value(raw, "experts", ()),
        operator=raw.get("operator", "product"),
        weights=_list_value(raw, "weights", None),
        alphabet=raw.get("alphabet"),
        sampler=SamplerConfig(**sampler),
        oracle=raw.get("oracle"),
        predicate=raw.get("predicate"),
        methods=_list_value(raw, "methods", ("smc",)),
        repeats=raw.get("repeats", 1),
        base_dir=Path(base_dir),
    )


def _list_value(raw: dict, key: str, default):
    """``raw[key]`` as a tuple, or ``default`` when the key is absent.

    A value that is not a list is rejected with a ValueError naming ``key``.
    """
    value = raw.get(key, default)
    if value is default:
        return value
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    return tuple(value)


def build_expert(
    spec: dict, alphabet: Alphabet | None, base_dir: Path
) -> SequenceModel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError(f"expert spec must be an object with a 'type': {spec!r}")
    kind = spec["type"]
    if kind not in EXPERT_FIELDS:
        raise ValueError(f"unknown expert type {kind!r}")
    _check_keys(spec, EXPERT_FIELDS[kind] | {"type"}, f"{kind} expert")
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


def build_panel(config: ExperimentConfig) -> tuple[ExpertPanel, EnsembleSpec]:
    """Instantiate the experts and the ensemble operator from a config."""
    alphabet = Alphabet(tuple(config.alphabet)) if config.alphabet else None
    models = [build_expert(e, alphabet, config.base_dir) for e in config.experts]
    panel = ExpertPanel(models)
    if config.weights is not None:
        for w in config.weights:
            if not _is_number(w):
                raise ValueError(f"'weights' entries must be numbers, got {w!r}")
    weights = config.weights if config.weights is not None else len(models)
    op = config.operator
    if isinstance(op, str):
        spec = EnsembleSpec.from_name(op, weights=weights)
    elif isinstance(op, dict):
        kind = op.get("kind")
        if not isinstance(kind, str):
            raise ValueError(f"operator 'kind' must be an operator name, got {kind!r}")
        allowed = {"kind", "tau"} if kind.lower() == "power" else {"kind"}
        _check_keys(op, allowed, f"{kind} operator")
        tau = op.get("tau")
        if tau is not None and not _is_number(tau):
            raise ValueError(f"operator 'tau' must be a number, got {tau!r}")
        spec = EnsembleSpec.from_name(kind, weights, tau=tau)
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
    _check_keys(spec, {"kind", "strings", "pattern"}, "predicate")
    kind = spec.get("kind")
    if kind == "in_set":
        _check_keys(spec, {"kind", "strings"}, "in_set predicate")
        strings = spec.get("strings")
        if not isinstance(strings, (list, tuple)) or not all(isinstance(x, str) for x in strings):
            raise ValueError(f"'strings' must be a list of strings, got {strings!r}")
        allowed = frozenset(strings)
        return lambda x: x in allowed
    if kind == "regex":
        _check_keys(spec, {"kind", "pattern"}, "regex predicate")
        try:
            pattern = re.compile(spec.get("pattern"))
        except (TypeError, re.error) as exc:
            raise ValueError(f"'pattern' must be a regular expression: {exc}") from None
        return lambda x: pattern.fullmatch(x) is not None
    raise ValueError(f"unknown predicate kind {kind!r}")
