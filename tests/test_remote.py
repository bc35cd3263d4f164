import contextlib
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import GEO_P1, GEO_P2

from ensmc import (
    Alphabet,
    EnsembleSpec,
    ExpertPanel,
    ExpertUnavailableError,
    ModelServer,
    RemoteModel,
    SequenceModel,
    TableModel,
    UndefinedConditionalError,
    check_remote,
    cond_next,
    enumerate_ensemble,
    string_log_prob,
)
from ensmc.config import build_expert
from ensmc.remote import POLL_INTERVAL_S


@contextlib.contextmanager
def scripted_server(respond):
    """Serve ``respond(method, path, payload) -> (code, body)`` over HTTP.

    ``body`` may be a dict (sent as JSON) or raw bytes (sent verbatim),
    for exercising client behavior on broken servers.
    """

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _reply(self, method):
            length = int(self.headers.get("Content-Length", "0"))
            payload = None
            if length:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            code, body = respond(method, self.path, payload)
            if isinstance(body, dict):
                body = json.dumps(body).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            self._reply("GET")

        def do_POST(self):
            self._reply("POST")

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(POLL_INTERVAL_S,), daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5.0)


class CountingModel(SequenceModel):
    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.calls = 0

    def log_next(self, context):
        self.calls += 1
        return self.inner.log_next(context)


class TestLoopback:
    def test_rows_match_served_model_exactly(self):
        local = TableModel(GEO_P1)
        with ModelServer(local) as server:
            remote = RemoteModel(server.url)
            assert remote.alphabet == local.alphabet
            for context in ("", "a", "b"):
                assert np.array_equal(remote.log_next(context), local.log_next(context))
            assert remote.defects == []

    def test_string_scores_round_trip(self):
        local = TableModel(GEO_P1)
        with ModelServer(local) as server:
            remote = RemoteModel(server.url)
            scores = check_remote(remote, ["", "a", "b"])
            for x, lp in scores.items():
                assert lp == string_log_prob(local, x)

    def test_dead_context_maps_to_undefined_conditional(self):
        with ModelServer(TableModel(GEO_P1)) as server:
            remote = RemoteModel(server.url)
            with pytest.raises(UndefinedConditionalError):
                remote.log_next("ab")

    def test_mixed_remote_local_panel_enumerates_identically(self, geo_spec):
        local_panel = ExpertPanel([TableModel(GEO_P1), TableModel(GEO_P2)])
        want = enumerate_ensemble(geo_spec, local_panel, max_len=3)
        with ModelServer(TableModel(GEO_P1)) as server:
            mixed = ExpertPanel([RemoteModel(server.url), TableModel(GEO_P2)])
            got = enumerate_ensemble(geo_spec, mixed, max_len=3)
        assert got.strings == want.strings
        assert np.array_equal(got.log_values, want.log_values)
        assert got.log_z == want.log_z

    def test_stop_returns_promptly(self):
        server = ModelServer(TableModel(GEO_P1)).start()
        t0 = time.perf_counter()
        server.stop()
        assert time.perf_counter() - t0 < 0.25

    def test_explicit_alphabet_skips_fetch(self):
        calls = []

        def respond(method, path, payload):
            calls.append((method, path))
            return 200, {"log_probs": {"a": math.log(0.5)}, "eos_log_prob": math.log(0.5)}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"))
            remote.log_next("")
        assert ("GET", "/alphabet") not in calls


class TestRowValidation:
    def alphabet(self):
        return Alphabet("ab")

    def test_small_defect_renormalized_and_recorded(self):
        def respond(method, path, payload):
            return 200, {
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.205),
            }

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            row = remote.log_next("")
            assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)
            assert len(remote.defects) == 1
            context, total = remote.defects[0]
            assert context == ""
            assert total == pytest.approx(1.005, rel=1e-9)

    def test_large_defect_rejected(self):
        def respond(method, path, payload):
            return 200, {
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.25),
            }

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            with pytest.raises(ExpertUnavailableError):
                remote.log_next("")

    def test_defect_tolerance_is_configurable(self):
        def respond(method, path, payload):
            return 200, {
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.25),
            }

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet(), defect_tol=0.1)
            row = remote.log_next("")
            assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)
            assert remote.defects == [("", pytest.approx(1.05, rel=1e-9))]

    def test_config_keys_reach_the_client(self):
        def respond(method, path, payload):
            return 200, {
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.25),
            }

        with scripted_server(respond) as url:
            spec = {"type": "remote", "url": url, "backoff": 0.001, "defect_tol": 0.1}
            remote = build_expert(spec, self.alphabet(), ".")
            assert remote.backoff == 0.001
            # Within the configured tolerance (but not the default 1e-2).
            remote.log_next("")
            assert remote.defects == [("", pytest.approx(1.05, rel=1e-9))]

    def test_unknown_symbol_rejected(self):
        def respond(method, path, payload):
            return 200, {"log_probs": {"z": -0.5}, "eos_log_prob": -1.0}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            with pytest.raises(ExpertUnavailableError):
                remote.log_next("")

    def test_non_finite_values_rejected(self):
        def respond(method, path, payload):
            return 200, {"log_probs": {"a": float("nan")}, "eos_log_prob": -1.0}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            with pytest.raises(ExpertUnavailableError):
                remote.log_next("")

    def test_missing_symbols_mean_zero_probability(self):
        def respond(method, path, payload):
            return 200, {"log_probs": {"a": math.log(0.5)}, "eos_log_prob": math.log(0.5)}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            row = remote.log_next("")
            assert row[1] == -math.inf

    def test_misshapen_reply_rejected_without_retry(self):
        attempts = []

        def respond(method, path, payload):
            attempts.append(path)
            return 200, {"not": "a row"}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet(), retries=3, backoff=0.001)
            with pytest.raises(ExpertUnavailableError):
                remote.log_next("")
        assert len(attempts) == 1


class TestRetriesAndCaching:
    def test_transient_failures_retried(self):
        state = {"failures": 2, "attempts": 0}

        def respond(method, path, payload):
            state["attempts"] += 1
            if state["failures"] > 0:
                state["failures"] -= 1
                return 500, {"error": "transient"}
            return 200, {"log_probs": {"a": math.log(0.5)}, "eos_log_prob": math.log(0.5)}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=3, backoff=0.001)
            row = remote.log_next("")
            assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)
        assert state["attempts"] == 3

    def test_retry_budget_exhausted(self):
        def respond(method, path, payload):
            return 500, {"error": "down"}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=2, backoff=0.001)
            with pytest.raises(ExpertUnavailableError):
                remote.log_next("")

    def test_unparseable_body_retried(self):
        attempts = []

        def respond(method, path, payload):
            attempts.append(path)
            return 200, b"not json at all"

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=3, backoff=0.001)
            with pytest.raises(ExpertUnavailableError):
                remote.log_next("")
        assert len(attempts) == 3

    def test_client_errors_never_retried(self):
        attempts = []

        def respond(method, path, payload):
            attempts.append(path)
            return 404, {"error": "no such route"}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=3, backoff=0.001)
            with pytest.raises(ExpertUnavailableError):
                remote.log_next("")
        assert len(attempts) == 1

    def test_rows_cached_per_context(self):
        counted = CountingModel(TableModel(GEO_P1))
        with ModelServer(counted) as server:
            remote = RemoteModel(server.url)
            remote.log_next("")
            remote.log_next("")
            remote.log_next("a")
            remote.log_next("")
        assert counted.calls == 2

    def test_rejects_nonpositive_retries(self):
        with pytest.raises(ValueError):
            RemoteModel("http://127.0.0.1:1", alphabet=Alphabet("a"), retries=0)


class TestSampling:
    def test_remote_expert_drives_ensemble(self, geo_spec):
        """A remote expert slots into a panel anywhere a local one does."""
        with ModelServer(TableModel(GEO_P2)) as server:
            panel = ExpertPanel([TableModel(GEO_P1), RemoteModel(server.url)])
            row = cond_next(panel[1], "")
            assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)
            table = enumerate_ensemble(geo_spec, panel, max_len=3)
            assert math.isfinite(table.log_z)
