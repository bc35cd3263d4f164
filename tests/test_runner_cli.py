import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import GEO_P1, GEO_P2, GEO_PROBS

from ensmc import (
    Alphabet,
    EnsembleSpec,
    ExpertPanel,
    ModelServer,
    NGramModel,
    PFSAModel,
    RemoteModel,
    SamplerConfig,
    TableModel,
    Tokenizer,
    build_expert,
    config_from_dict,
    fit_ngram,
    load_config,
    load_table,
    main,
    read_records,
    run_experiment,
)
from ensmc.bridge import TokenToByteModel
from ensmc.config import build_panel, build_predicate
from ensmc.metrics import intersection_report
from ensmc.oracle import DEFAULT_NODE_CAP
from ensmc.runner import summarize_records, write_records

BASE_CONFIG = {
    "experts": [
        {"type": "table", "entries": GEO_P1},
        {"type": "table", "entries": GEO_P2},
    ],
    "operator": "product",
    "sampler": {"particles": 16, "max_len": 4, "seed": 0},
    "oracle": {"max_len": 3},
    "predicate": {"kind": "in_set", "strings": ["a"]},
    "methods": ["smc", "sis", "is", "local"],
    "repeats": 2,
}


GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"


def beside_table(expert):
    """Overrides for a panel of a table over {a, b} and ``expert``."""
    return {"alphabet": "ab", "experts": [{"type": "table", "entries": GEO_P1}, expert]}


NGRAM = {"type": "ngram", "corpus": str(GOLDEN / "bytes.txt")}
REMOTE = {"type": "remote", "url": "http://127.0.0.1:1"}
TOKENIZED = {"type": "tokenized", "tokenizer": str(GOLDEN / "tokens.tsv"),
             "model": {"type": "table", "entries": {"A": 0.5, "AB": 0.5}}}


def alone(expert):
    """Overrides for a panel of ``expert`` alone over {a}."""
    return {"alphabet": "a", "experts": [expert]}


PFSA = {"type": "pfsa", "start": "s", "transitions": {"s": {"a": ["s", 0.5]}},
        "stops": {"s": 0.5}}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = dict(BASE_CONFIG)
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigLoading:
    def test_full_config_loads(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert len(config.experts) == 2
        assert config.sampler == SamplerConfig(particles=16, max_len=4, seed=0)
        assert config.methods == ("smc", "sis", "is", "local")
        assert config.repeats == 2
        assert config.base_dir == tmp_path

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {"particles": 5})
        with pytest.raises(ValueError):
            load_config(path)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict([1, 2, 3])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({**BASE_CONFIG, "methods": ["mcmc"]})

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({**BASE_CONFIG, "repeats": 0})

    def test_missing_experts_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"methods": ["smc"]})

    def test_sampler_validation_applies(self):
        with pytest.raises(ValueError):
            config_from_dict({**BASE_CONFIG, "sampler": {"particles": 0}})

    @pytest.mark.parametrize("overrides, key", [
        ({"sampler": {"particle": 4}}, "particle"),
        ({"sampler": {"particles": 4, "max_len": 4, "sed": 1}}, "sed"),
        ({"oracle": {"maxlen": 3}}, "maxlen"),
        ({"experts": [{"type": "table", "entries": GEO_P1, "wieght": 2},
                      {"type": "table", "entries": GEO_P2}]}, "wieght"),
        ({"experts": [{"type": "table", "entries": GEO_P1},
                      {"type": "remote", "url": "http://127.0.0.1:1", "order": 2}]},
         "order"),
        ({"experts": [{"type": "table", "entries": GEO_P1},
                      {"type": "remote", "url": "http://127.0.0.1:1", "alphabet": "ab"}]},
         "alphabet"),
        ({"operator": {"kind": "power", "tau": 0.5, "tua": 1.0}}, "tua"),
        ({"operator": {"kind": "minimum", "tau": 1.0}}, "tau"),
        ({"predicate": {"kind": "regex", "pattern": "a", "strings": ["a"]}}, "strings"),
        ({"predicate": "a"}, "predicate"),
        ({"weights": 5}, "weights"),
        ({"methods": 5}, "methods"),
        ({"experts": 5}, "experts"),
        ({"repeats": "2"}, "repeats"),
        ({"oracle": {"max_len": "3"}}, "max_len"),
        ({"oracle": {"max_nodes": True}}, "max_nodes"),
        ({"oracle": {"max_len": -1}}, "max_len"),
        ({"repeats": True}, "repeats"),
        ({"alphabet": 5}, "alphabet"),
        ({"predicate": {"kind": "in_set", "strings": "ab"}}, "strings"),
        ({"predicate": {"kind": "regex", "pattern": 5}}, "pattern"),
        ({"predicate": {"kind": "regex", "pattern": "("}}, "pattern"),
        (beside_table({**NGRAM, "order": "3"}), "order"),
        (beside_table({**NGRAM, "order": 2.5}), "order"),
        (beside_table({**NGRAM, "order": True}), "order"),
        (beside_table({**NGRAM, "smoothing": "0.5"}), "smoothing"),
        (beside_table({"type": "table", "entries": {"a": "1"}}), "entries"),
        (beside_table({**REMOTE, "retries": "3"}), "retries"),
        (beside_table({**REMOTE, "timeout": "5"}), "timeout"),
        (beside_table({**REMOTE, "backoff": "0.05"}), "backoff"),
        (beside_table({**REMOTE, "defect_tol": True}), "defect_tol"),
        (beside_table({**TOKENIZED, "log_floor": "-5"}), "log_floor"),
        (alone({**NGRAM, "corpus": 5}), "corpus"),
        (alone({"type": "ngram_file", "path": 7}), "path"),
        (alone({**REMOTE, "url": 5}), "url"),
        (alone({**TOKENIZED, "tokenizer": 3}), "tokenizer"),
        (alone({**PFSA, "transitions": ["s"]}), "transitions"),
        (alone({**PFSA, "transitions": {"s": {"a": "s"}}}), "transitions"),
        (alone({**PFSA, "transitions": {"s": {"a": ["s", "0.5"]}}}), "transitions"),
        (alone({**PFSA, "transitions": {"s": {}}, "stops": {"s": True}}), "stops"),
        (alone({**PFSA, "stops": {"s": "0.5"}}), "stops"),
        (alone({**TOKENIZED, "tokenizer": "missing.tsv",
                "model": {"type": "table", "entries": {"A": 1.0}, "entires": {}}}), "entires"),
        ({"alphabet": "ab", "experts": [{"type": "ngram", "corpus": "missing.txt"},
                                        {"type": "table", "entries": GEO_P1, "wieght": 2}]},
         "wieght"),
    ])
    def test_unknown_nested_keys_named(self, tmp_path, capsys, overrides, key):
        """An unknown key anywhere, or a known key holding a value of the
        wrong JSON type, is a ValueError naming the key, so the CLI
        reports it and exits 2 before any run, and before any expert's
        files are read."""
        assert main(["sample", str(write_config(tmp_path, overrides))]) == 2
        captured = capsys.readouterr()
        assert repr(key) in captured.err and captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("max_len", "5"),
        ("seed", 1.5),
        ("resample_threshold", "0.5"),
        ("particles", True),
        ("max_len", 2.5),
        ("debug_check_weights", "no"),
        ("seed", -1),
        ("proposal", 5),
    ])
    def test_mistyped_sampler_value_named(self, tmp_path, capsys, key, value):
        """A sampler value of the wrong type or range is a config error:
        exit 2 and a message naming the key, not a traceback."""
        raw = {
            "experts": [{"type": "table", "entries": {"a": 0.5, "b": 0.5}}],
            "sampler": {key: value},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["sample", str(path)]) == 2
        captured = capsys.readouterr()
        assert repr(key) in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["enumerate", "check", "sample", "intersect"])
    @pytest.mark.parametrize("overrides, named", [
        ({"predicate": {"kind": "bogus", "x": 1}}, "'bogus'"),
        ({"predicate": {"kind": "in_set", "strings": ["a"], "strngs": []}}, "'strngs'"),
        ({"predicate": {"kind": "regex", "pattern": "("}}, "'pattern'"),
        ({"operator": {"kind": "median"}}, "'median'"),
        ({"weights": [0.2, 0.3, 0.5]}, "'weights'"),
    ], ids=["predicate-kind", "predicate-key", "bad-regex", "operator", "weights-count"])
    def test_every_command_checks_the_whole_config_at_load(
        self, tmp_path, capsys, monkeypatch, command, overrides, named
    ):
        """A bad predicate, operator or weights count is a ValueError from
        ``config_from_dict`` naming the key or value, so every command
        exits 2 on it before any expert is built."""
        monkeypatch.setattr(RemoteModel, "__init__", lambda *a, **k: pytest.fail("expert built"))
        raw = {**BASE_CONFIG, **beside_table(REMOTE), **overrides}
        with pytest.raises(ValueError, match=re.escape(named)):
            config_from_dict(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    def test_empty_alphabet_is_a_config_error(self, tmp_path, capsys):
        """``"alphabet": ""`` names no symbols: a config error (exit 2), not
        an alphabet left out."""
        with pytest.raises(ValueError, match="alphabet must be non-empty"):
            config_from_dict({**BASE_CONFIG, "alphabet": ""})
        assert main(["sample", str(write_config(tmp_path, {"alphabet": ""}))]) == 2
        captured = capsys.readouterr()
        assert "alphabet must be non-empty" in captured.err and captured.out == ""

    def test_oracle_limits_default_to_horizon_and_node_cap(self):
        bare = {k: v for k, v in BASE_CONFIG.items() if k != "oracle"}
        assert config_from_dict(bare).oracle_limits() == {
            "max_len": 4,
            "max_nodes": DEFAULT_NODE_CAP,
        }
        given = config_from_dict({**bare, "oracle": {"max_len": 3, "max_nodes": 7}})
        assert given.oracle_limits() == {"max_len": 3, "max_nodes": 7}


class TestBuilders:
    def test_build_panel_product(self):
        panel, spec = build_panel(config_from_dict(BASE_CONFIG))
        assert len(panel) == 2
        assert spec.kind == "geometric"
        assert spec.weights == (0.5, 0.5)

    def test_build_panel_power_operator(self):
        raw = {**BASE_CONFIG, "operator": {"kind": "power", "tau": 0.5}}
        _, spec = build_panel(config_from_dict(raw))
        assert spec.kind == "power"
        assert spec.tau == 0.5

    def test_build_panel_named_operator_object(self):
        raw = {**BASE_CONFIG, "operator": {"kind": "minimum"}}
        _, spec = build_panel(config_from_dict(raw))
        assert spec.kind == "minimum"
        # An object's ``kind`` takes every name the string form takes.
        for name in ("min", "max", "product", "geometric", "sum", "harmonic", "quadratic"):
            _, spec = build_panel(config_from_dict({**BASE_CONFIG, "operator": {"kind": name}}))
            _, want = build_panel(config_from_dict({**BASE_CONFIG, "operator": name}))
            assert (spec.kind, spec.tau) == (want.kind, want.tau)

    def test_power_operator_without_tau_is_a_config_error(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="tau"):
            config_from_dict({**BASE_CONFIG, "operator": {"kind": "power"}})
        path = write_config(tmp_path, {"operator": {"kind": "power"}})
        assert main(["sample", str(path)]) == 2
        assert "power operator needs tau" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", [
        ({"operator": {"kind": "power", "tau": "0.5"}}, "tau"),
        ({"operator": {"kind": "power", "tau": True}}, "tau"),
        ({"weights": ["1", 1]}, "weights"),
        ({"weights": [True, True]}, "weights"),
    ])
    def test_mistyped_operator_number_named(self, tmp_path, capsys, overrides, key):
        """A string or bool ``tau`` or weight is a config error (exit 2,
        the key named), not a number coerced by ``float()``."""
        assert main(["sample", str(write_config(tmp_path, overrides))]) == 2
        captured = capsys.readouterr()
        assert repr(key) in captured.err and captured.out == ""

    def test_numpy_numbers_accepted(self):
        raw = {**BASE_CONFIG, "weights": [np.float64(1.0), np.int64(3)],
               "operator": {"kind": "power", "tau": np.float32(0.5)},
               "oracle": {"max_len": np.int64(3), "max_nodes": np.int32(100)}}
        config = config_from_dict(raw)
        _, spec = build_panel(config)
        assert spec.weights == (0.25, 0.75) and spec.tau == 0.5
        assert config.oracle_limits() == {"max_len": 3, "max_nodes": 100}

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({**BASE_CONFIG, "operator": {"kind": "median"}})
        with pytest.raises(ValueError):
            config_from_dict({**BASE_CONFIG, "operator": 7})
        for kind in (None, 7, ["power"]):
            with pytest.raises(ValueError):
                config_from_dict({**BASE_CONFIG, "operator": {"kind": kind}})

    def test_weights_rescaled(self):
        raw = {**BASE_CONFIG, "weights": [2.0, 6.0]}
        _, spec = build_panel(config_from_dict(raw))
        assert spec.weights == (0.25, 0.75)

    def test_weight_count_mismatch_rejected(self):
        raw = {**BASE_CONFIG, "weights": [0.2, 0.3, 0.5]}
        with pytest.raises(ValueError):
            config_from_dict(raw)

    def test_build_expert_table(self):
        model = build_expert({"type": "table", "entries": GEO_P1}, None, ".")
        assert isinstance(model, TableModel)

    def test_build_expert_ngram_from_corpus(self, tmp_path):
        (tmp_path / "corpus.txt").write_text("ab\naa\nb\n")
        model = build_expert(
            {"type": "ngram", "corpus": "corpus.txt", "order": 2, "smoothing": 0.5},
            Alphabet("ab"),
            tmp_path,
        )
        assert isinstance(model, NGramModel)
        with pytest.raises(ValueError):
            build_expert({"type": "ngram", "corpus": "corpus.txt"}, None, tmp_path)

    def test_build_expert_ngram_file(self, tmp_path):
        fitted = fit_ngram(["ab", "aa"], order=2, smoothing=0.3)
        fitted.save(tmp_path / "model.tsv")
        model = build_expert({"type": "ngram_file", "path": "model.tsv"}, None, tmp_path)
        assert np.array_equal(model.log_next("a"), fitted.log_next("a"))

    def test_build_expert_pfsa(self):
        spec = {
            "type": "pfsa",
            "start": "s",
            "transitions": {"s": {"a": ["s", 0.5]}},
            "stops": {"s": 0.5},
        }
        model = build_expert(spec, Alphabet("a"), ".")
        assert isinstance(model, PFSAModel)
        assert_allclose(math.exp(model.log_next("aa")[1]), 0.5, rtol=1e-12)
        with pytest.raises(ValueError, match="pfsa experts need 'alphabet'"):
            config_from_dict({"experts": [spec]})

    def test_build_expert_tokenized(self, tmp_path):
        tokenizer = Tokenizer(Alphabet("ABC"), {"A": "a", "B": "b", "C": "ab"})
        tokenizer.save(tmp_path / "tok.tsv")
        spec = {
            "type": "tokenized",
            "tokenizer": "tok.tsv",
            "model": {"type": "table", "entries": {"AB": 0.3, "C": 0.2, "A": 0.5}},
        }
        model = build_expert(spec, None, tmp_path)
        assert isinstance(model, TokenToByteModel)
        assert_allclose(math.exp(model.string_log_prob("ab")), 0.5, rtol=1e-12)

    def test_tokenized_expert_takes_the_config_alphabet(self, tmp_path):
        """With ``alphabet`` set, a tokenized expert's bytes are that
        alphabet: a superset of its decodings' bytes runs beside an n-gram
        over it, every method and the oracle included."""
        Tokenizer(Alphabet("ABC"), {"A": "a", "B": "b", "C": "ab"}).save(tmp_path / "tok.tsv")
        (tmp_path / "corpus.txt").write_text("abc\ncab\nbca\nab\n")
        raw = {
            "alphabet": "abc",
            "experts": [
                {"type": "ngram", "corpus": "corpus.txt", "order": 2, "smoothing": 0.5},
                {"type": "tokenized", "tokenizer": "tok.tsv",
                 "model": {"type": "table", "entries": {"AB": 0.3, "C": 0.2, "A": 0.5}}},
            ],
            "sampler": {"particles": 64, "max_len": 4, "seed": 1},
            "oracle": {"max_len": 4},
            "methods": ["smc", "sis", "is", "local"],
        }
        config = config_from_dict(raw, tmp_path)
        panel, _ = build_panel(config)
        assert [m.alphabet for m in panel] == [Alphabet("abc")] * 2
        records = {r["method"]: r for r in run_experiment(config)}
        assert sorted(records) == ["is", "local", "oracle", "sis", "smc"]
        assert all("error" not in r for r in records.values())
        assert math.isfinite(records["oracle"]["log_z"])
        assert math.isfinite(records["smc"]["log_z_hat"])

    def test_tokenized_expert_bytes_in_the_config_order(self, tmp_path):
        """The same bytes in another order give the same marginal, laid
        out in the config's order."""
        Tokenizer(Alphabet("ABC"), {"A": "a", "B": "b", "C": "ab"}).save(tmp_path / "tok.tsv")
        spec = {"type": "tokenized", "tokenizer": "tok.tsv",
                "model": {"type": "table", "entries": {"AB": 0.3, "C": 0.2, "BA": 0.5}}}
        derived = build_expert(spec, None, tmp_path)
        ordered = build_expert(spec, Alphabet("ba"), tmp_path)
        assert derived.alphabet == Alphabet("ab") and ordered.alphabet == Alphabet("ba")
        for context in ("", "a", "b", "ba"):
            want = derived.log_next(context)[[1, 0, 2]]
            assert ordered.log_next(context).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match=re.escape(
            "experts must share one alphabet: Alphabet('ab') and Alphabet('ba')"
        )):
            ExpertPanel([derived, ordered])

    def test_tokenized_decoding_outside_the_config_alphabet_rejected(self, tmp_path):
        Tokenizer(Alphabet("ABC"), {"A": "a", "B": "b", "C": "ab"}).save(tmp_path / "tok.tsv")
        raw = {"alphabet": "a", "experts": [
            {"type": "tokenized", "tokenizer": "tok.tsv",
             "model": {"type": "table", "entries": {"A": 1.0}}},
        ]}
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'tok.tsv'}: symbol 'b'")):
            build_panel(config_from_dict(raw, tmp_path))

    def test_build_expert_remote(self):
        with ModelServer(TableModel(GEO_P1)) as server:
            model = build_expert({"type": "remote", "url": server.url}, None, ".")
            assert isinstance(model, RemoteModel)
            assert model.alphabet.symbols == ("a", "b")

    def test_unknown_expert_type_rejected(self):
        for expert in ({"type": "markov"}, {"entries": {}}):
            with pytest.raises(ValueError):
                build_expert(expert, None, ".")
            with pytest.raises(ValueError):
                config_from_dict({**BASE_CONFIG, "experts": [expert]})

    def test_build_predicate(self):
        in_set = build_predicate({"kind": "in_set", "strings": ["ab", "ba"]})
        assert in_set("ab") and not in_set("a")
        regex = build_predicate({"kind": "regex", "pattern": "a."})
        assert regex("ab") and not regex("a") and not regex("abc")
        assert build_predicate(None) is None
        with pytest.raises(ValueError):
            build_predicate({"kind": "glob", "pattern": "*"})


class TestRunner:
    def test_record_layout(self):
        config = config_from_dict(BASE_CONFIG)
        records = run_experiment(config)
        assert len(records) == 4 * 2 + 1
        for rec in records:
            assert list(rec)[0] == "schema_version"
            assert rec["schema_version"] == 1
            assert "wall_time_s" in rec
        smc_recs = [r for r in records if r["method"] == "smc"]
        assert [r["seed"] for r in smc_recs] == [0, 1]
        for rec in smc_recs:
            assert set(rec) >= {
                "log_z_hat", "ess_trace", "resample_rounds", "truncated", "accuracy",
            }
        is_rec = next(r for r in records if r["method"] == "is")
        assert "truncated" in is_rec and "ess_trace" not in is_rec
        local_rec = next(r for r in records if r["method"] == "local")
        assert {d["x"] for d in local_rec["draws"]} <= {"", "a", "b"}
        oracle = records[-1]
        assert oracle["method"] == "oracle"
        assert oracle["strings"] == 3
        assert oracle["residual_bound"] == 0.0
        assert_allclose(oracle["accuracy"], GEO_PROBS["a"], rtol=1e-12)

    def test_records_deterministic_up_to_wall_time(self):
        config = config_from_dict(BASE_CONFIG)

        def strip(records):
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in records]

        assert strip(run_experiment(config)) == strip(run_experiment(config))

    @pytest.mark.parametrize("method", ["smc", "sis", "is"])
    def test_expert_proposal_index_bounds_checked(self, method):
        """Every method resolves ``expert:<k>`` through one bounds check."""
        raw = {
            **BASE_CONFIG,
            "methods": [method],
            "sampler": {**BASE_CONFIG["sampler"], "proposal": "expert:5"},
        }
        with pytest.raises(ValueError, match="panel has 2 experts"):
            run_experiment(config_from_dict(raw))

    def test_sampler_accuracy_approaches_oracle(self):
        raw = {**BASE_CONFIG, "sampler": {"particles": 4096, "max_len": 4}, "repeats": 1}
        records = run_experiment(config_from_dict(raw))
        smc_rec = next(r for r in records if r["method"] == "smc")
        # Weighted particle frequency: a statistical estimate of the
        # oracle accuracy, not an exact identity.
        se = math.sqrt(GEO_PROBS["a"] * (1 - GEO_PROBS["a"]) / 4096)
        assert abs(smc_rec["accuracy"] - GEO_PROBS["a"]) < 5 * se

    def test_zero_mass_runs_recorded_not_raised(self):
        raw = {
            "experts": [
                {"type": "table", "entries": {"a": 1.0}},
                {"type": "table", "entries": {"b": 1.0}},
            ],
            "alphabet": "ab",
            "operator": "product",
            "sampler": {"particles": 4, "max_len": 3},
            "methods": ["smc", "local"],
            "repeats": 2,
        }
        records = run_experiment(config_from_dict(raw))
        assert len(records) == 4
        smc_recs = [r for r in records if r["method"] == "smc"]
        for rec in smc_recs:
            assert rec["log_z_hat"] is None
            assert rec["error"] == "zero total mass"
        local_recs = [r for r in records if r["method"] == "local"]
        for rec in local_recs:
            assert rec["error"].startswith("degenerate run:")

    def test_all_truncated_local_run_recorded_not_raised(self):
        """A ``local`` run with no completed draw has no distribution to
        score: its record carries ``error`` and no ``accuracy``, and the
        other methods' records are kept."""
        raw = {
            "experts": [{"type": "table", "entries": {"aaa": 0.5, "bbb": 0.5}}],
            "alphabet": "ab",
            "sampler": {"particles": 4, "max_len": 2},
            "predicate": {"kind": "in_set", "strings": ["aaa"]},
            "methods": ["local", "smc"],
        }
        local_rec, smc_rec = run_experiment(config_from_dict(raw))
        assert local_rec["truncated"] == 4
        assert local_rec["error"] == "every draw truncated"
        assert "accuracy" not in local_rec
        assert smc_rec["method"] == "smc" and smc_rec["error"] == "zero total mass"

    def test_round_trip_and_no_raw_infinities(self, tmp_path):
        raw = {
            "experts": [
                {"type": "table", "entries": {"a": 1.0}},
                {"type": "table", "entries": {"b": 1.0}},
            ],
            "alphabet": "ab",
            "sampler": {"particles": 4, "max_len": 3},
            "methods": ["smc"],
        }
        path = tmp_path / "records.jsonl"
        records = run_experiment(config_from_dict(raw), out=path)
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert read_records(path) == records

    def test_write_records_accepts_open_file(self, tmp_path):
        records = [{"schema_version": 1, "method": "smc"}]
        path = tmp_path / "out.jsonl"
        with open(path, "w") as fh:
            write_records(records, fh)
        assert read_records(path) == records

    def test_summarize(self):
        records = run_experiment(config_from_dict(BASE_CONFIG))
        summary = summarize_records(records)
        assert set(summary) == {"smc", "sis", "is", "local", "oracle"}
        assert summary["smc"]["runs"] == 2
        assert summary["smc"]["errors"] == 0
        assert summary["smc"]["z_hat_se"] is not None
        assert_allclose(summary["oracle"]["z"], math.exp(
            np.log(sum(math.sqrt(p * q) for p, q in (
                (0.2, 0.5), (0.5, 0.25), (0.3, 0.25))))), rtol=1e-12)
        assert summary["oracle"]["residual_bound"] == 0.0
        assert 0.0 <= summary["local"]["accuracy_mean"] <= 1.0

    def test_summarize_counts_errors(self):
        raw = {
            "experts": [
                {"type": "table", "entries": {"a": 1.0}},
                {"type": "table", "entries": {"b": 1.0}},
            ],
            "alphabet": "ab",
            "sampler": {"particles": 4, "max_len": 3},
            "methods": ["smc"],
            "repeats": 3,
        }
        summary = summarize_records(run_experiment(config_from_dict(raw)))
        assert summary["smc"]["errors"] == 3
        assert summary["smc"]["z_hat_mean"] == 0.0


class TestCli:
    def test_sample_to_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "records.jsonl"
        assert main(["sample", str(config), "--out", str(out)]) == 0
        assert "wrote 9 records" in capsys.readouterr().out
        assert len(read_records(out)) == 9

    def test_sample_to_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path, {"methods": ["smc"], "repeats": 1})
        assert main(["sample", str(config)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert all(isinstance(json.loads(l), dict) for l in lines)

    def test_sample_overrides(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "records.jsonl"
        code = main([
            "sample", str(config), "--out", str(out),
            "--method", "sis", "--seed", "42", "--particles", "3",
        ])
        assert code == 0
        records = read_records(out)
        runs = [r for r in records if r["method"] != "oracle"]
        assert {r["method"] for r in runs} == {"sis"}
        assert [r["seed"] for r in runs] == [42, 43]
        assert all(r["particles"] == 3 for r in runs)

    def test_enumerate(self, tmp_path, capsys):
        config = write_config(tmp_path)
        table_path = tmp_path / "table.tsv"
        assert main(["enumerate", str(config), "--out", str(table_path)]) == 0
        out = capsys.readouterr().out
        assert "strings=3" in out and "residual<=0" in out
        assert len(load_table(table_path).strings) == 3

    def test_check_passes_and_fails_by_tolerance(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["check", str(config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rel_error"] < 0.05
        # A zero tolerance turns the same (inexact) agreement into a failure.
        assert report["rel_error"] > 0.0
        assert main(["check", str(config), "--rel-tol", "0"]) == 1
        assert "check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "-0.5"])
    def test_check_tolerance_must_be_a_non_negative_number(self, tmp_path, capsys, tol):
        """A NaN or negative ``--rel-tol`` is a usage mistake (exit 2), not
        a failed check (exit 1)."""
        assert main(["check", str(write_config(tmp_path)), "--rel-tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--rel-tol must be a non-negative number" in err
        assert "check failed" not in err

    def test_intersect(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["intersect", str(config), "--top", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["top_strings"]) == 2
        assert report["ensemble_accuracy"] == pytest.approx(GEO_PROBS["a"], rel=1e-9)

    @pytest.mark.parametrize("top", ["-1", "-100"])
    def test_intersect_negative_top_is_a_usage_error(self, tmp_path, capsys, top):
        """``--top -1`` would print all top strings but the last, and
        ``--top -100`` none; both exit 2 and print no report."""
        assert main(["intersect", str(write_config(tmp_path)), "--top", top]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "top must be non-negative" in err

    def test_intersection_report_rejects_negative_top(self, tmp_path):
        config = load_config(write_config(tmp_path))
        panel, spec = build_panel(config)
        with pytest.raises(ValueError, match="top must be non-negative"):
            intersection_report(panel, config.predicate, max_len=3, top=-1)
        report = intersection_report(panel, config.predicate, max_len=3, top=0)
        assert report["top_strings"] == []

    def test_readme_worked_example(self, tmp_path, capsys, monkeypatch):
        """The README's ``ensemble.json`` prints the lines the README shows
        for ``enumerate`` and ``intersect``."""
        text = README.read_text(encoding="utf-8")
        config = text.split("cat > ensemble.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
        (tmp_path / "ensemble.json").write_text(config)
        monkeypatch.chdir(tmp_path)
        line = "strings=3 Z=0.9436424353626948 residual<=0 nodes=3"
        assert f"# {line}\n" in text
        assert main(["enumerate", "ensemble.json", "--out", "exact.tsv"]) == 0
        assert capsys.readouterr().out == line + "\n"
        assert '# {"expert_accuracy": [0.5, 0.25], ' in text
        assert main(["intersect", "ensemble.json", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('{"expert_accuracy": [0.5, 0.25], ')
        assert [x["x"] for x in json.loads(out)["top_strings"]] == ["a", "", "b"]

    def test_intersect_requires_predicate(self, tmp_path, capsys):
        config = write_config(tmp_path, {"predicate": None})
        assert main(["intersect", str(config)]) == 2
        assert "error" in capsys.readouterr().err

    def test_report(self, tmp_path, capsys):
        config = write_config(tmp_path, {"methods": ["smc"], "repeats": 2})
        out = tmp_path / "records.jsonl"
        assert main(["sample", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["smc"]["runs"] == 2

    def test_operational_errors_exit_2(self, tmp_path, capsys):
        assert main(["sample", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sample", str(bad)]) == 2
        assert main(["enumerate", str(bad)]) == 2
        assert capsys.readouterr().err.count(f"{bad}: Expecting property name") == 2
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        capsys.readouterr()
        records = tmp_path / "records.jsonl"
        for line, why in [
            ('{"method":"smc","log_z_hat":"x"}', "record 'log_z_hat' must be a number, got 'x'"),
            ("[1,2]", "record must be a JSON object, got [1, 2]"),
            ('{"method":"smc","truncated":"3"}', "record 'truncated' must be an integer, got '3'"),
            ('{"method":3}', "record 'method' must be a string, got 3"),
            ('{"method":"smc","accuracy":null}', "record 'accuracy' must be a number, got None"),
            ('{"method":"smc","log_z_hat":NaN}', "NaN is not JSON"),
            ("{oops", "Expecting property name"),
        ]:
            records.write_text('{"method":"oracle","log_z":null}\n\n' + line + "\n")
            assert main(["report", str(records)]) == 2
            assert f"{records}: line 3: {why}" in capsys.readouterr().err
        # A config must be strict JSON too.
        bad.write_text(json.dumps(BASE_CONFIG).replace('"max_len": 3', '"max_len": Infinity'))
        assert main(["sample", str(bad)]) == 2
        assert f"{bad}: Infinity is not JSON" in capsys.readouterr().err

    def test_degenerate_sample_runs_exit_2(self, tmp_path, capsys):
        raw = {
            "experts": [
                {"type": "table", "entries": {"a": 1.0}},
                {"type": "table", "entries": {"b": 1.0}},
            ],
            "alphabet": "ab",
            "sampler": {"particles": 4, "max_len": 3},
            "methods": ["smc"],
        }
        config = tmp_path / "dead.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "records.jsonl"
        assert main(["sample", str(config), "--out", str(out)]) == 2
        assert "degenerate" in capsys.readouterr().err
        # Records are still written for inspection.
        assert read_records(out)[0]["error"] == "zero total mass"

    def test_dead_ensemble_gives_every_method_an_error_record(self, tmp_path, capsys):
        """Disjoint experts under the product: every method, ``is`` and
        ``local`` included, writes a record with ``error``, and the batch
        exits 2 instead of aborting."""
        raw = {
            "experts": [
                {"type": "table", "entries": {"a": 1.0}},
                {"type": "table", "entries": {"b": 1.0}},
            ],
            "alphabet": "ab",
            "operator": "product",
            "sampler": {"particles": 4, "max_len": 3},
            "methods": ["smc", "sis", "local", "is"],
        }
        config = tmp_path / "dead.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "records.jsonl"
        assert main(["sample", str(config), "--out", str(out)]) == 2
        assert "4 degenerate runs" in capsys.readouterr().err
        records = read_records(out)
        assert [r["method"] for r in records] == ["smc", "sis", "local", "is"]
        assert all("error" in r for r in records)

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


#: Two experts whose longest string, "ab", is exactly ``max_len`` long;
#: the oracle (``max_len`` defaults to the sampler's) includes it, so
#: Z = sqrt(0.6 * 0.5) + sqrt(0.4 * 0.5) = 0.99494.
HORIZON = {
    "alphabet": "ab",
    "experts": [
        {"type": "table", "entries": {"ab": 0.6, "a": 0.4}},
        {"type": "table", "entries": {"ab": 0.5, "a": 0.5}},
    ],
    "operator": "product",
    "sampler": {"particles": 2000, "max_len": 2, "seed": 1},
    "oracle": {},
    "methods": ["smc", "sis", "is", "local"],
    "repeats": 1,
}
HORIZON_Z = math.sqrt(0.6 * 0.5) + math.sqrt(0.4 * 0.5)


class TestHorizon:
    """``max_len`` means one thing in every sampler and in the oracle:
    strings of up to ``max_len`` symbols complete, and only a particle that
    draws a symbol at length ``max_len`` is truncated."""

    def test_strings_of_max_len_complete_in_every_method(self, tmp_path):
        records = run_experiment(load_config(write_config(tmp_path, HORIZON)))
        assert [r["method"] for r in records] == ["smc", "sis", "is", "local", "oracle"]
        for rec in records[:-1]:
            assert rec["truncated"] == 0, rec["method"]
            if rec["method"] != "local":
                assert_allclose(math.exp(rec["log_z_hat"]), HORIZON_Z, rtol=1e-12)
        assert_allclose(math.exp(records[-1]["log_z"]), HORIZON_Z, rtol=1e-12)
        assert {d["x"] for d in records[3]["draws"]} == {"a", "ab"}

    def test_check_passes_at_the_oracle_horizon(self, tmp_path, capsys):
        assert main(["check", str(write_config(tmp_path, HORIZON))]) == 0
        assert json.loads(capsys.readouterr().out)["rel_error"] < 1e-12
