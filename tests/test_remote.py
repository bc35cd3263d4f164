import contextlib
import http.client
import itertools
import json
import math
import socket
import struct
import sys
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
    enumerate_ensemble,
    fit_ngram,
    string_log_prob,
)
from ensmc.config import build_expert
from ensmc.remote import MAX_BODY_BYTES, POLL_INTERVAL_S


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
            row = remote.log_next("")
        assert counted.calls == 2
        with pytest.raises(ValueError):  # the cached row is shared: read-only
            row[0] = 0.0

    def test_rejects_nonpositive_retries(self):
        with pytest.raises(ValueError):
            RemoteModel("http://127.0.0.1:1", alphabet=Alphabet("a"), retries=0)


class TestSampling:
    def test_remote_expert_drives_ensemble(self, geo_spec):
        """A remote expert slots into a panel anywhere a local one does."""
        with ModelServer(TableModel(GEO_P2)) as server:
            panel = ExpertPanel([TableModel(GEO_P1), RemoteModel(server.url)])
            row = panel[1].log_next("")
            assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)
            table = enumerate_ensemble(geo_spec, panel, max_len=3)
            assert math.isfinite(table.log_z)


def contexts_up_to(max_len):
    return ["".join(p) for n in range(max_len + 1) for p in itertools.product("ab", repeat=n)]


@pytest.fixture
def connects(monkeypatch):
    """Count the TCP connections the client opens during a test."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def counting_connect(self):
        opened.append(self.port)
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    return opened


class TestKeepAlive:
    def test_many_rows_share_one_connection(self, connects):
        local = fit_ngram(["abab", "ba", "aab"], order=2, smoothing=0.1)
        contexts = contexts_up_to(3)
        with ModelServer(local) as server:
            remote = RemoteModel(server.url)
            for context in contexts:
                assert np.array_equal(remote.log_next(context), local.log_next(context))
        assert len(connects) == 1

    def test_rows_are_not_held_back_by_delayed_acks(self):
        # With Nagle's algorithm on the server's sockets, each kept-alive
        # reply waits for the client's delayed ACK: about 40 ms a row.
        local = fit_ngram(["abab", "ba", "aab"], order=2, smoothing=0.1)
        contexts = contexts_up_to(5)
        with ModelServer(local) as server:
            remote = RemoteModel(server.url)
            t0 = time.perf_counter()
            for context in contexts[:40]:
                remote.log_next(context)
            assert time.perf_counter() - t0 < 1.0

    def test_422_then_row_on_the_same_connection(self, connects):
        local = TableModel(GEO_P1)
        with ModelServer(local) as server:
            remote = RemoteModel(server.url, retries=1)
            with pytest.raises(UndefinedConditionalError) as info:
                remote.log_next("ab")
            assert str(info.value)
            assert np.array_equal(remote.log_next("a"), local.log_next("a"))
        assert len(connects) == 1

    def test_server_closed_connection_reopened_without_a_retry(self, connects, monkeypatch):
        monkeypatch.setattr("ensmc.remote.IDLE_TIMEOUT_S", 0.05)
        local = TableModel(GEO_P1)
        with ModelServer(local) as server:
            # One attempt and a long backoff: a retry would fail, a sleep would show.
            remote = RemoteModel(server.url, retries=1, backoff=10.0)
            remote.log_next("")
            time.sleep(0.3)  # the server drops the idle connection
            t0 = time.perf_counter()
            assert np.array_equal(remote.log_next("a"), local.log_next("a"))
            assert time.perf_counter() - t0 < 1.0
        assert len(connects) == 2

    def test_threads_sharing_one_model_get_exact_rows(self, connects):
        local = fit_ngram(["abab", "ba", "aab"], order=3, smoothing=0.1)
        contexts = contexts_up_to(4)
        threads = 4
        got = [dict() for _ in range(threads)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ModelServer(local) as server:
                remote = RemoteModel(server.url)

                def work(i):
                    # Each worker starts elsewhere; odd ones walk backwards.
                    order = contexts[i:] + contexts[:i]
                    for context in order[:: -1 if i % 2 else 1]:
                        got[i][context] = remote.log_next(context)

                workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in workers)
        finally:
            sys.setswitchinterval(switch)
        for rows in got:
            assert rows.keys() == set(contexts)
            for context, row in rows.items():
                assert np.array_equal(row, local.log_next(context))
        # The alphabet fetch on this thread, then one connection per worker.
        assert len(connects) == 1 + threads

    def test_close_then_a_row_opens_a_new_connection(self, connects):
        local = TableModel(GEO_P1)
        with ModelServer(local) as server:
            remote = RemoteModel(server.url)
            remote.close()
            assert np.array_equal(remote.log_next(""), local.log_next(""))
            remote.close()
        assert len(connects) == 2

    def test_base_url_path_prefix_is_kept(self):
        paths = []

        def respond(method, path, payload):
            paths.append(path)
            return 200, {"log_probs": {"a": math.log(0.5)}, "eos_log_prob": math.log(0.5)}

        with scripted_server(respond) as url:
            RemoteModel(url + "/experts/e0/", alphabet=Alphabet("a")).log_next("")
        assert paths == ["/experts/e0/next"]

    def test_non_http_url_rejected(self):
        with pytest.raises(ValueError):
            RemoteModel("ftp://127.0.0.1:1", alphabet=Alphabet("a"))

    def test_stop_returns_promptly_with_an_idle_client_connection(self):
        server = ModelServer(TableModel(GEO_P1)).start()
        remote = RemoteModel(server.url)
        remote.log_next("")  # the connection now stays open, idle
        t0 = time.perf_counter()
        server.stop()
        assert time.perf_counter() - t0 < 0.25


    def test_stopped_server_serves_no_kept_alive_connection(self):
        server = ModelServer(TableModel(GEO_P1)).start()
        remote = RemoteModel(server.url, retries=1)
        remote.log_next("")
        server.stop()
        with pytest.raises(ExpertUnavailableError):
            remote.log_next("a")


class TestRequestBodyBound:
    @pytest.mark.parametrize(
        "length, code",
        [
            (None, 400),
            ("twelve", 400),
            ("-1", 400),
            (str(MAX_BODY_BYTES + 1), 413),
        ],
    )
    def test_bad_content_length_rejected_and_connection_closed(self, length, code):
        with ModelServer(TableModel(GEO_P1)) as server:
            host, port = server.url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            try:
                conn.putrequest("POST", "/next")
                if length is not None:
                    conn.putheader("Content-Length", length)
                conn.endheaders()
                resp = conn.getresponse()
                body = json.loads(resp.read().decode("utf-8"))
            finally:
                conn.close()
            assert resp.status == code
            assert body["error"]
            assert resp.will_close
            # The server still serves new connections.
            assert RemoteModel(server.url).log_next("")[0] == math.log(GEO_P1["a"])

    def test_body_at_the_bound_is_read(self):
        payload = json.dumps({"context": ""}).encode("utf-8")
        payload += b" " * (MAX_BODY_BYTES - len(payload))
        local = TableModel(GEO_P1)
        with ModelServer(local) as server:
            host, port = server.url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            try:
                conn.request("POST", "/next", body=payload)
                resp = conn.getresponse()
                reply = json.loads(resp.read().decode("utf-8"))
            finally:
                conn.close()
        assert resp.status == 200
        assert reply["log_probs"]


class TestClientReset:
    def test_reset_after_a_reply_prints_nothing(self, capfd):
        """A client that reads its reply and then resets the connection
        (SO_LINGER 0) has only disconnected: the server reports nothing."""
        with ModelServer(TableModel(GEO_P1)) as server:
            host, port = server.url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            conn.request("POST", "/next", body=json.dumps({"context": ""}))
            assert conn.getresponse().read()
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
            # The handler forgets the connection after any error is handled.
            deadline = time.monotonic() + 5.0
            while server._httpd._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._httpd._connections
        assert capfd.readouterr().err == ""

    def test_other_errors_still_reported(self, capfd):
        with ModelServer(TableModel(GEO_P1)) as server:
            try:
                raise ValueError("handler failed")
            except ValueError:
                server._httpd.handle_error(None, ("127.0.0.1", 0))
        assert "ValueError: handler failed" in capfd.readouterr().err
