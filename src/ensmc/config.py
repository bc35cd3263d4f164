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

Relative paths are resolved against the config file's directory, which
must hold strict JSON (no ``NaN`` or ``Infinity``). ``config_from_dict``
reads every JSON object through ``_Fields``, which names each key once,
with its JSON kind: a value of the wrong kind (a string or bool where a
number belongs) or a key nothing reads is a ValueError naming the key,
raised at load; ``build_panel`` alone reads expert files or opens
connections. ``sampler`` values are checked by ``SamplerConfig`` itself.
``weights`` defaults to uniform. ``alphabet`` may be omitted when every
expert determines its own (tables, files). The ``regex`` predicate uses
full-string matching.
"""
from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from .ensemble import EnsembleSpec, ExpertPanel
from .inference import SamplerConfig
from .lmcore import Alphabet, SequenceModel
from .oracle import DEFAULT_NODE_CAP
from .toy import NGramModel, PFSAModel, TableModel, fit_ngram, load_corpus

KNOWN_METHODS = ("smc", "sis", "is", "local")


def _is_number(value) -> bool:
    """A real number, numpy's included; a bool is not one here."""
    # Plain floats and ints skip the ABC check, which costs about 1 us a
    # value: a table's entries are checked on every config parse.
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


#: The JSON kinds a config value is checked against, by name.
_KINDS = {
    "integer": lambda v: type(v) is int or (
        isinstance(v, numbers.Integral) and not isinstance(v, bool)
    ),
    "number": _is_number,
    "string": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "name or object": lambda v: isinstance(v, (str, dict)),
    "list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "object of numbers": lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "object of [state, number] pairs": lambda v: isinstance(v, dict) and all(
        isinstance(a, list) and len(a) == 2 and isinstance(a[0], str) and _is_number(a[1])
        for a in v.values()
    ),
}

_REQUIRED = object()


class _Fields:
    """One JSON object of a config or of a run record. ``read(key, kind,
    default)`` returns the key's value checked against ``_KINDS[kind]``
    (None: checked by the caller), or ``default`` when the key is absent,
    or null with a None default; without a default the key is required.
    ``done()`` rejects every key not read.
    """

    def __init__(self, obj, what: str):
        if not isinstance(obj, dict):
            raise ValueError(f"{what} must be a JSON object, got {obj!r}")
        self.obj = obj
        self.what = what
        self.unread = set(obj)

    def __call__(self, key: str, kind: str | None, default=_REQUIRED):
        self.unread.discard(key)
        value = self.obj.get(key, default)
        if value is _REQUIRED:
            raise ValueError(f"{self.what} needs {key!r}")
        if value is not default and kind is not None and not _KINDS[kind](value):
            article = "an" if kind[0] in "aeiou" else "a"
            raise ValueError(f"{self.what} {key!r} must be {article} {kind}, got {value!r}")
        return value

    def done(self) -> None:
        if self.unread:
            raise ValueError(f"unknown {self.what} keys: {sorted(self.unread)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config. ``experts`` holds one builder per expert, a
    function of ``(alphabet, base_dir)``; only ``build_panel`` calls them."""

    spec: EnsembleSpec
    experts: tuple[Callable[..., SequenceModel], ...]
    alphabet: Alphabet | None = None
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    oracle: dict | None = None
    predicate: Callable[[str], bool] | None = None
    methods: tuple[str, ...] = ("smc",)
    repeats: int = 1
    base_dir: Path = field(default_factory=Path.cwd)

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
        raw = strict_json(fh.read(), path)
    return config_from_dict(raw, base_dir=path.parent)


def config_from_dict(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    """Check every key of a config, experts' and predicate's included; build nothing."""
    read = _Fields(raw, "config")
    experts = read("experts", "list", ())
    if not experts:
        raise ValueError("config needs at least one expert")
    weights = read("weights", "list of numbers", None)
    op = read("operator", "name or object", "product")
    read_op = _Fields({"kind": op} if isinstance(op, str) else op, "operator")
    kind = read_op("kind", "string")
    read_op.what = f"{kind} operator"
    tau = read_op("tau", "number", None) if kind.lower() == "power" else None
    read_op.done()
    spec = EnsembleSpec.from_name(kind, len(experts) if weights is None else weights, tau=tau)
    if spec.k != len(experts):
        raise ValueError(f"config 'weights' has {spec.k} entries for {len(experts)} experts")
    symbols = read("alphabet", "string", None)
    alphabet = None if symbols is None else Alphabet(tuple(symbols))
    builders = tuple(_read_expert(e, alphabet is not None) for e in experts)
    methods = read("methods", "list of strings", ("smc",))
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ValueError(f"unknown method {m!r}; known: {KNOWN_METHODS}")
    repeats = read("repeats", "integer", 1)
    if repeats < 1:
        raise ValueError(f"config 'repeats' must be an integer >= 1, got {repeats!r}")
    oracle = read("oracle", "object", None)
    if oracle is not None:
        limits = _Fields(oracle, "oracle")
        for key in ("max_len", "max_nodes"):
            value = limits(key, "integer", 0)
            if value < 0:
                raise ValueError(f"oracle {key!r} must be an integer >= 0, got {value!r}")
        limits.done()
    read_sampler = _Fields(read("sampler", "object", {}), "sampler")
    sampler = SamplerConfig(
        **{f.name: read_sampler(f.name, None, f.default) for f in fields(SamplerConfig)}
    )
    read_sampler.done()
    predicate = build_predicate(read("predicate", "object", None))
    read.done()
    return ExperimentConfig(
        spec=spec, experts=builders, alphabet=alphabet, sampler=sampler, oracle=oracle,
        predicate=predicate, methods=tuple(methods), repeats=repeats, base_dir=Path(base_dir),
    )


def strict_json(text: str, where) -> object:
    """``json.loads``, but a syntax error, ``NaN`` or ``Infinity`` is a
    ValueError naming ``where``."""
    def refuse(constant):
        raise ValueError(f"{where}: {constant} is not JSON")
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def build_expert(spec: dict, alphabet: Alphabet | None, base_dir: str | Path) -> SequenceModel:
    """Check every key of one expert object, then build the expert."""
    return _read_expert(spec, alphabet is not None)(alphabet, Path(base_dir))


def _read_expert(spec: dict, has_alphabet: bool) -> Callable[..., SequenceModel]:
    """Check an expert object's keys, a tokenized expert's nested ``model``
    included, and return the function of ``(alphabet, base_dir)`` that
    builds the expert: only that function reads files or opens connections."""
    read = _Fields(spec, "expert")
    kind = read("type", "string")
    read.what = f"{kind} expert"
    if kind == "table":
        entries = read("entries", "object of numbers")
        read.done()
        return lambda alphabet, base_dir: TableModel(entries, alphabet=alphabet)
    if kind == "ngram":
        corpus = read("corpus", "string")
        order = read("order", "integer", 2)
        smoothing = read("smoothing", "number", 0.1)
        read.done()
        if not has_alphabet:
            raise ValueError("n-gram experts fit from a corpus need 'alphabet'")
        return lambda alphabet, base_dir: fit_ngram(
            load_corpus(base_dir / corpus), order=order, smoothing=smoothing, alphabet=alphabet
        )
    if kind == "ngram_file":
        path = read("path", "string")
        read.done()
        return lambda alphabet, base_dir: NGramModel.load(base_dir / path)
    if kind == "pfsa":
        start = read("start", "string")
        transitions = read("transitions", "object")
        read_arcs = _Fields(transitions, "pfsa 'transitions'")
        for state in transitions:
            read_arcs(state, "object of [state, number] pairs")
        stops = read("stops", "object of numbers", {})
        read.done()
        if not has_alphabet:
            raise ValueError("pfsa experts need 'alphabet'")
        return lambda alphabet, base_dir: PFSAModel(alphabet, start, transitions, stops)
    if kind == "tokenized":
        path = read("tokenizer", "string")
        build_inner = _read_expert(read("model", "object"), True)
        log_floor = read("log_floor", "number", None)
        read.done()

        def build(alphabet, base_dir):
            from .bridge import Tokenizer, as_byte_model
            tokenizer = Tokenizer.load(base_dir / path)
            if alphabet is not None:  # the bytes are the config's, in its order
                try:
                    tokenizer = Tokenizer(tokenizer.token_alphabet, tokenizer.decode, alphabet)
                except ValueError as exc:
                    raise ValueError(f"{base_dir / path}: {exc}") from None
            inner = build_inner(tokenizer.token_alphabet, base_dir)
            return as_byte_model(inner, tokenizer, log_floor=log_floor)
        return build
    if kind == "remote":
        from .remote import DEFAULT_DEFECT_TOL, RemoteModel
        url = read("url", "string")
        timeout = read("timeout", "number", 5.0)
        retries = read("retries", "integer", 3)
        backoff = read("backoff", "number", 0.05)
        defect_tol = read("defect_tol", "number", DEFAULT_DEFECT_TOL)
        read.done()
        return lambda alphabet, base_dir: RemoteModel(
            url, alphabet=alphabet, timeout=timeout, retries=retries,
            backoff=backoff, defect_tol=defect_tol,
        )
    raise ValueError(f"unknown expert type {kind!r}")


def build_panel(config: ExperimentConfig) -> tuple[ExpertPanel, EnsembleSpec]:
    """Build the config's experts: the one step that reads their files or
    opens their connections."""
    models = [build(config.alphabet, config.base_dir) for build in config.experts]
    return ExpertPanel(models), config.spec


def build_predicate(spec: dict | None) -> Callable[[str], bool] | None:
    """Check a predicate object's keys and return the predicate."""
    if spec is None:
        return None
    read = _Fields(spec, "predicate")
    kind = read("kind", "string")
    read.what = f"{kind} predicate"
    if kind == "in_set":
        allowed = frozenset(read("strings", "list of strings"))
        read.done()
        return lambda x: x in allowed
    if kind == "regex":
        source = read("pattern", "string")
        read.done()
        try:
            pattern = re.compile(source)
        except re.error as exc:
            raise ValueError(f"'pattern' must be a regular expression: {exc}") from None
        return lambda x: pattern.fullmatch(x) is not None
    raise ValueError(f"unknown predicate kind {kind!r}")
