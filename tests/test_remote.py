import collections
import contextlib
import http.client
import itertools
import json
import math
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import GEO_P1, GEO_P2

import ensmc
from ensmc import (
    Alphabet,
    EnsembleSpec,
    ExpertPanel,
    ExpertUnavailableError,
    ModelServer,
    RemoteModel,
    SequenceModel,
    TableModel,
    Tokenizer,
    UndefinedConditionalError,
    check_model,
    enumerate_ensemble,
    fit_ngram,
    string_log_prob,
)
from ensmc import runner
from ensmc.config import build_expert, config_from_dict
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


#: A row over ``Alphabet("a")``, as an entry of a ``/next_many`` reply.
ROW_A = {"log_probs": {"a": math.log(0.5)}, "eos_log_prob": math.log(0.5)}


class CountingModel(SequenceModel):
    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.calls = 0

    def log_next(self, context):
        self.calls += 1
        return self.inner.log_next(context)


class DriftingModel(SequenceModel):
    """``inner`` with rows that change on every request for a context: the
    first, third, ... get ``inner``'s row and the second, fourth, ... the
    uniform row. A consumer that asked again for a row it had used would
    see another answer. ``asked`` counts the requests for each context."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.asked = collections.Counter()

    def log_next(self, context):
        self.asked[context] += 1
        if self.asked[context] % 2:
            return self.inner.log_next(context)
        return np.full(self.alphabet.size + 1, -math.log(self.alphabet.size + 1))


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
            for x in ("", "a", "b"):
                assert string_log_prob(remote, x) == string_log_prob(local, x)

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
            return 200, {"rows": [ROW_A]}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"))
            remote.log_next("")
        assert ("GET", "/alphabet") not in calls

    @pytest.mark.parametrize("reply", [{"symbols": "a"}, {}, b'["a"]'])
    def test_malformed_alphabet_reply_rejected(self, reply):
        with scripted_server(lambda method, path, payload: (200, reply)) as url:
            with pytest.raises(ExpertUnavailableError, match="malformed /alphabet reply"):
                RemoteModel(url)


class TestRowValidation:
    def alphabet(self):
        return Alphabet("ab")

    def test_small_defect_renormalized_and_recorded(self):
        def respond(method, path, payload):
            return 200, {"rows": [{
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.205),
            }]}

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
            return 200, {"rows": [{
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.25),
            }]}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            with pytest.raises(ExpertUnavailableError, match="defect exceeds"):
                remote.log_next("")

    def test_defect_tolerance_is_configurable(self):
        def respond(method, path, payload):
            return 200, {"rows": [{
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.25),
            }]}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet(), defect_tol=0.1)
            row = remote.log_next("")
            assert_allclose(np.exp(row).sum(), 1.0, rtol=1e-12)
            assert remote.defects == [("", pytest.approx(1.05, rel=1e-9))]

    def test_config_keys_reach_the_client(self):
        def respond(method, path, payload):
            return 200, {"rows": [{
                "log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
                "eos_log_prob": math.log(0.25),
            }]}

        with scripted_server(respond) as url:
            spec = {"type": "remote", "url": url, "backoff": 0.001, "defect_tol": 0.1}
            remote = build_expert(spec, self.alphabet(), ".")
            assert remote.backoff == 0.001
            # Within the configured tolerance (but not the default 1e-2).
            remote.log_next("")
            assert remote.defects == [("", pytest.approx(1.05, rel=1e-9))]

    def test_unknown_symbol_rejected(self):
        def respond(method, path, payload):
            return 200, {"rows": [{"log_probs": {"z": -0.5}, "eos_log_prob": -1.0}]}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            with pytest.raises(ExpertUnavailableError, match="unknown symbol 'z'"):
                remote.log_next("")

    def test_non_finite_values_rejected(self):
        for value, match in [
            (float("nan"), "non-finite"),
            ("-0.5", "non-numeric log probability '-0.5' for ''"),
        ]:
            attempts = []

            def respond(method, path, payload):
                attempts.append(path)
                return 200, {"rows": [{"log_probs": {"a": value}, "eos_log_prob": -1.0}]}

            with scripted_server(respond) as url:
                remote = RemoteModel(url, alphabet=self.alphabet(), retries=3, backoff=0.001)
                with pytest.raises(ExpertUnavailableError, match=match):
                    remote.log_next("")
            assert len(attempts) == 1

    def test_missing_symbols_mean_zero_probability(self):
        def respond(method, path, payload):
            return 200, {"rows": [ROW_A]}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet())
            row = remote.log_next("")
            assert row[1] == -math.inf

    def test_misshapen_reply_rejected_without_retry(self):
        attempts = []

        def respond(method, path, payload):
            attempts.append(path)
            return 200, {"rows": [{"not": "a row"}]}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=self.alphabet(), retries=3, backoff=0.001)
            with pytest.raises(ExpertUnavailableError, match="malformed row reply for ''"):
                remote.log_next("")
        assert len(attempts) == 1


class TestRetries:
    def test_transient_failures_retried(self):
        state = {"failures": 2, "attempts": 0}

        def respond(method, path, payload):
            state["attempts"] += 1
            if state["failures"] > 0:
                state["failures"] -= 1
                return 500, {"error": "transient"}
            return 200, {"rows": [ROW_A]}

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

    def test_failing_served_model_gets_500_retried_then_unavailable(self):
        class FailingModel(CountingModel):
            def log_next(self, context):
                super().log_next(context)
                raise RuntimeError("model crashed")

        failing = FailingModel(TableModel(GEO_P1))
        with ModelServer(failing) as server:
            remote = RemoteModel(server.url, retries=2, backoff=0.001)
            with pytest.raises(ExpertUnavailableError, match="after 2 attempts: HTTP 500"):
                remote.log_next("")
            assert remote.requests == 3  # the alphabet, then two tries
        assert failing.calls == 2

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
        # A body that is not JSON gives no detail, and is not retried either.
        for body, message in [
            ({"error": "no such route"}, "HTTP 404: no such route"),
            (b"<html>not found</html>", "HTTP 404$"),
        ]:
            attempts = []

            def respond(method, path, payload):
                attempts.append(path)
                return 404, body

            with scripted_server(respond) as url:
                remote = RemoteModel(url, alphabet=Alphabet("a"), retries=3, backoff=0.001)
                with pytest.raises(ExpertUnavailableError, match=message):
                    remote.log_next("")
            assert len(attempts) == 1

    def test_each_call_is_one_request_with_the_served_bits(self):
        counted = CountingModel(TableModel(GEO_P1))
        contexts = ["", "", "a", ""]
        with ModelServer(counted) as server:
            remote = RemoteModel(server.url)
            sent = remote.requests
            rows = [remote.log_next(context) for context in contexts]
            assert remote.requests == sent + 4  # the client keeps no rows
        assert counted.calls == 4
        for row, context in zip(rows, contexts):
            assert row.tobytes() == counted.inner.log_next(context).tobytes()
        rows[0][0] = 0.0  # each call's row is new and belongs to the caller
        assert rows[1].tobytes() == counted.inner.log_next("").tobytes()

    def test_rejects_nonpositive_retries(self):
        # Bad settings are rejected when the model is built, not at the
        # first row or the first transport failure.
        nan, inf = float("nan"), float("inf")
        for setting in [
            {"retries": 0},
            {"retries": 1.5},
            *({"timeout": t} for t in (-1.0, 0.0, nan, inf)),
            *({"backoff": b} for b in (-1.0, nan, inf)),
            *({"defect_tol": d} for d in (-0.1, nan, inf)),
        ]:
            with pytest.raises(ValueError, match=next(iter(setting))):
                RemoteModel("http://127.0.0.1:1", alphabet=Alphabet("a"), **setting)


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

    def test_dead_context_then_row_on_the_same_connection(self, connects):
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
            return 200, {"rows": [ROW_A]}

        with scripted_server(respond) as url:
            RemoteModel(url + "/experts/e0/", alphabet=Alphabet("a")).log_next("")
        assert paths == ["/experts/e0/next_many"]

    def test_non_http_url_rejected(self):
        with pytest.raises(ValueError, match="must be http or https"):
            RemoteModel("ftp://127.0.0.1:1", alphabet=Alphabet("a"))
        # A query or fragment would be dropped from every request path.
        for url in [
            "http://127.0.0.1:9/api?k=v#f",
            "http://127.0.0.1:9/api?k=v",
            "http://127.0.0.1:9/api#f",
            "http://127.0.0.1:9?",
        ]:
            with pytest.raises(ValueError, match=re.escape(f"no query or fragment: {url!r}")):
                RemoteModel(url, alphabet=Alphabet("a"))

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
                conn.putrequest("POST", "/next_many")
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
        payload = json.dumps({"contexts": [""]}).encode("utf-8")
        payload += b" " * (MAX_BODY_BYTES - len(payload))
        local = TableModel(GEO_P1)
        with ModelServer(local) as server:
            host, port = server.url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            try:
                conn.request("POST", "/next_many", body=payload)
                resp = conn.getresponse()
                reply = json.loads(resp.read().decode("utf-8"))
            finally:
                conn.close()
        assert resp.status == 200
        assert reply["rows"][0]["log_probs"]


class TestClientReset:
    def test_reset_after_a_reply_prints_nothing(self, capfd):
        """A client that reads its reply and then resets the connection
        (SO_LINGER 0) has only disconnected: the server reports nothing."""
        with ModelServer(TableModel(GEO_P1)) as server:
            host, port = server.url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            conn.request("POST", "/next_many", body=json.dumps({"contexts": [""]}))
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


def post(url, path, body):
    """One raw POST: ``(status, decoded JSON reply)``; ``body`` is JSON-encoded
    unless it is bytes."""
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
    try:
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        conn.request("POST", path, body=data)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def abc_ngram():
    return fit_ngram(["abcab", "bca", "cc"], order=2, smoothing=0.1, alphabet=Alphabet("abc"))


class TestOneRowEndpoint:
    """``/next_many`` is the protocol's only row request."""

    def test_client_sends_only_alphabet_and_next_many(self):
        local = TableModel(GEO_P1)
        seen = set()

        def entry(context):
            try:
                *values, eos = local.log_next(context).tolist()
            except UndefinedConditionalError as exc:
                return {"error": str(exc)}
            log_probs = {s: v for s, v in zip(local.alphabet.symbols, values) if v > -math.inf}
            return {"log_probs": log_probs, "eos_log_prob": eos}

        def respond(method, path, payload):
            seen.add((method, path))
            if (method, path) == ("GET", "/alphabet"):
                return 200, {"symbols": list(local.alphabet.symbols)}
            if (method, path) == ("POST", "/next_many"):
                return 200, {"rows": [entry(c) for c in payload["contexts"]]}
            return 404, {"error": "unknown path"}

        with scripted_server(respond) as url:
            remote = RemoteModel(url)
            assert remote.log_next("a").tobytes() == local.log_next("a").tobytes()
            assert remote.log_next_many(["", "b"]).tobytes() == local.log_next_many(["", "b"]).tobytes()
            remote = RemoteModel(url)
            for x in ("", "a", "b"):
                assert string_log_prob(remote, x) == string_log_prob(local, x)
            assert string_log_prob(RemoteModel(url), "ab") == -math.inf
            with pytest.raises(UndefinedConditionalError):
                RemoteModel(url).log_next("ab")
        assert seen == {("GET", "/alphabet"), ("POST", "/next_many")}

    def test_server_answers_next_with_404_without_asking_the_model(self):
        model = CountingModel(abc_ngram())
        with ModelServer(model) as server:
            status, reply = post(server.url, "/next", {"context": "a"})
        assert status == 404
        assert reply["error"]
        assert model.calls == 0


class TestClientErrors:
    """Malformed requests are typed, immediate errors: never retried."""

    def test_foreign_symbol_is_a_value_error_before_any_request(self):
        with ModelServer(abc_ngram()) as server:
            remote = RemoteModel(server.url, retries=3, backoff=1.0)
            sent = remote.requests
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="not in alphabet"):
                remote.log_next("abz")
            with pytest.raises(ValueError, match="not in alphabet"):
                remote.log_next_many(["a", "abz"])
            assert time.perf_counter() - t0 < 0.5
            assert remote.requests == sent

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/next_many", {"ctx": ["a"]}),
            ("/next_many", {"context": "a"}),  # the body of the retired /next request
            ("/next_many", ["a"]),
            ("/next_many", b"not json"),
            ("/next_many", b"\xff\xfe"),
            ("/next_many", {"contexts": ["abz"]}),
            ("/next_many", {}),
            ("/next_many", {"contexts": "ab"}),
            ("/next_many", {"contexts": ["a", 5]}),
            ("/next_many", {"contexts": ["a", "abz"]}),
        ],
    )
    def test_bad_request_gets_400(self, path, body):
        model = CountingModel(abc_ngram())
        with ModelServer(model) as server:
            status, reply = post(server.url, path, body)
        assert status == 400
        assert reply["error"]
        assert model.calls == 0

    def test_400_reaches_the_client_once(self):
        # A client whose alphabet has a symbol the server's lacks.
        with ModelServer(abc_ngram()) as server:
            remote = RemoteModel(server.url, alphabet=Alphabet("abcz"), retries=3, backoff=1.0)
            for ask in (remote.log_next, lambda c: remote.log_next_many([c])):
                sent = remote.requests
                with pytest.raises(ExpertUnavailableError, match="HTTP 400.*not in alphabet"):
                    ask("abz")
                assert remote.requests == sent + 1


class TestNextMany:
    def test_rows_match_the_served_model_in_one_request(self):
        local = abc_ngram()
        contexts = ["", "a", "cab", "a", "bb"]
        with ModelServer(local) as server:
            remote = RemoteModel(server.url, alphabet=local.alphabet)
            rows = remote.log_next_many(contexts)
            assert remote.requests == 1
            assert rows.shape == (5, 4)
            for row, context in zip(rows, contexts):
                assert row.tobytes() == local.log_next(context).tobytes()
            # Rows already fetched are asked for again: one more request.
            again = remote.log_next_many(["cab", "c"])
            assert remote.requests == 2
            assert again[0].tobytes() == rows[2].tobytes()
            assert again[1].tobytes() == local.log_next("c").tobytes()
            assert remote.log_next_many([]).shape == (0, 4)
            assert remote.requests == 2

    def test_mixed_batch_raises_for_the_dead_context_without_a_retry(self):
        served = CountingModel(TableModel(GEO_P1))
        with ModelServer(served) as server:
            remote = RemoteModel(server.url, retries=3, backoff=1.0)
            sent = remote.requests
            t0 = time.perf_counter()
            with pytest.raises(UndefinedConditionalError, match="'ab'"):
                remote.log_next_many(["", "ab", "a"])
            assert time.perf_counter() - t0 < 0.5
            assert remote.requests == sent + 1  # no retry
        assert served.calls == 3

    def test_batches_bounded_by_the_body_limit(self, monkeypatch):
        local = fit_ngram(["abab", "ba", "aab"], order=2, smoothing=0.1)
        # Six contexts of about 200 KB each: 1.2 MB of JSON in all.
        contexts = [("ab" * 100_000)[: 200_000 - i] for i in range(6)]
        bodies = []
        exchange = RemoteModel._exchange

        def spy(self, method, url_path, body):
            bodies.append(len(body))
            return exchange(self, method, url_path, body)

        monkeypatch.setattr(RemoteModel, "_exchange", spy)
        with ModelServer(local) as server:
            remote = RemoteModel(server.url, alphabet=local.alphabet)
            rows = remote.log_next_many(contexts)
        assert sum(len(json.dumps(c)) for c in contexts) > MAX_BODY_BYTES
        assert len(bodies) == remote.requests >= 2
        assert max(bodies) <= MAX_BODY_BYTES
        for row, context in zip(rows, contexts):
            assert np.array_equal(row, local.log_next(context))

    def test_each_row_is_validated(self):
        rows = [
            {"log_probs": {"a": math.log(0.5)}, "eos_log_prob": math.log(0.5)},
            {"log_probs": {"a": math.log(0.5), "b": math.log(0.3)},
             "eos_log_prob": math.log(0.205)},
        ]

        def respond(method, path, payload):
            assert path == "/next_many"
            return 200, {"rows": rows[: len(payload["contexts"])]}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("ab"))
            got = remote.log_next_many(["a", "b"])
            assert got[0][1] == -math.inf
            assert_allclose(np.exp(got[1]).sum(), 1.0, rtol=1e-12)
            assert remote.defects == [("b", pytest.approx(1.005, rel=1e-9))]

    @pytest.mark.parametrize(
        "reply",
        [
            {"rows": [{"log_probs": {"a": 0.0}}]},  # one entry for two contexts
            {"rows": [{"log_probs": {"a": 0.0}}, {"not": "a row"}]},
            {"rows": "none"},
            b'["not", "an", "object"]',
        ],
    )
    def test_misshapen_reply_rejected_without_retry(self, reply):
        attempts = []

        def respond(method, path, payload):
            attempts.append(path)
            return 200, reply

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=3, backoff=0.001)
            with pytest.raises(ExpertUnavailableError):
                remote.log_next_many(["", "a"])
        assert attempts == ["/next_many"]

    def test_transient_failure_retried_per_request(self):
        state = {"failures": 1}

        def respond(method, path, payload):
            if state["failures"]:
                state["failures"] -= 1
                return 503, {"error": "busy"}
            row = {"log_probs": {"a": math.log(0.5)}, "eos_log_prob": math.log(0.5)}
            return 200, {"rows": [row] * len(payload["contexts"])}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=3, backoff=0.001)
            rows = remote.log_next_many(["", "a", "aa"])
            assert remote.requests == 2
        assert_allclose(np.exp(rows).sum(axis=1), 1.0, rtol=1e-12)


class TestOneRequestPerRound:
    """Every sampler asks a served expert for a round's new rows in one
    request (a served token model behind a ``tokenized`` expert: two), the
    oracle asks once per level (twice), and both give the records of the
    same panel run in-process."""

    SERVED = ["abcab", "bcaacb", "cab", "aabbc", "ca", "bcbca"]
    LOCAL = ["bacab", "abcc", "cbab", "acb", "bbca"]
    # Tokens over the bytes {a, b}: C and D decode to what A, B spell too.
    TOKENS = {"A": "a", "B": "b", "C": "ab", "D": "ba"}
    TOKEN_CORPUS = ["ACB", "DAB", "CCD", "BAD", "A", "CDBA"]
    BYTE_CORPUS = ["abab", "ba", "aabb", "bab", "abba"]

    def write_inputs(self, tmp_path):
        (tmp_path / "served.txt").write_text("\n".join(self.SERVED) + "\n")
        (tmp_path / "local.txt").write_text("\n".join(self.LOCAL) + "\n")
        (tmp_path / "tokens.txt").write_text("\n".join(self.TOKEN_CORPUS) + "\n")
        (tmp_path / "bytes.txt").write_text("\n".join(self.BYTE_CORPUS) + "\n")
        Tokenizer(Alphabet("ABCD"), self.TOKENS).save(tmp_path / "tok.tsv")

    def config(self, expert, methods, proposal, tokenized=False, oracle_len=None, **sampler):
        """Expert 0 is ``expert``, or, with ``tokenized``, the byte view of
        ``expert`` as a token model; expert 1 is a local n-gram. ``sampler``
        holds further sampler keys."""
        if tokenized:
            expert = {"type": "tokenized", "tokenizer": "tok.tsv", "model": expert}
            alphabet, local = "ab", "bytes.txt"
        else:
            alphabet, local = "abc", "local.txt"
        config = {
            "alphabet": alphabet,
            "experts": [
                expert,
                {"type": "ngram", "corpus": local, "order": 2, "smoothing": 0.5},
            ],
            "operator": "product",
            "sampler": {"particles": 12, "max_len": 20, "seed": 5, "proposal": proposal,
                        **sampler},
            "methods": methods,
            "repeats": 2,
        }
        if oracle_len is not None:
            config["oracle"] = {"max_len": oracle_len}
        return config

    @staticmethod
    def servable(tokenized):
        """The expert that gets served (with ``tokenized``, the token model
        behind expert 0), and its alphabet."""
        if tokenized:
            return ({"type": "ngram", "corpus": "tokens.txt", "order": 3, "smoothing": 0.5},
                    Alphabet("ABCD"))
        return ({"type": "ngram", "corpus": "served.txt", "order": 2, "smoothing": 0.5},
                Alphabet("abc"))

    def served_run(self, tmp_path, monkeypatch, tokenized, counted_name, drift=False, **config):
        """Check that the in-process run and the run with expert 0 (its
        token model, with ``tokenized``) served give the same records.
        Return, for each call of ``runner.<counted_name>`` in the served
        run, the requests it sent and what it returned; the model the
        server served (a ``DriftingModel``, with ``drift``); and the served
        run's panel."""
        self.write_inputs(tmp_path)
        inner, alphabet = self.servable(tokenized)
        want = runner.run_experiment(
            config_from_dict(self.config(inner, tokenized=tokenized, **config), tmp_path)
        )

        panels, calls = [], []
        build_panel = runner.build_panel
        counted_fn = getattr(runner, counted_name)

        def kept(config):
            panels.append(build_panel(config))
            return panels[-1]

        def counted(*args, **kwargs):
            expert = panels[-1][0][0]
            remote = expert.token_model if tokenized else expert
            sent = remote.requests
            out = counted_fn(*args, **kwargs)
            calls.append((remote.requests - sent, out))
            return out

        monkeypatch.setattr(runner, "build_panel", kept)
        monkeypatch.setattr(runner, counted_name, counted)
        served = build_expert(inner, alphabet, tmp_path)
        if drift:
            served = DriftingModel(served)
        with ModelServer(served) as server:
            remote = {"type": "remote", "url": server.url}
            config = self.config(remote, tokenized=tokenized, **config)
            got = runner.run_experiment(config_from_dict(config, tmp_path))
        for records in (got, want):
            for record in records:
                del record["wall_time_s"]
        assert json.dumps(got) == json.dumps(want)
        return calls, served, panels[-1][0]

    @pytest.mark.parametrize("method, proposal", [
        *(pytest.param(m, "optimal", id=m) for m in ("smc", "sis", "is", "local")),
        # The served expert is the proposal: its rows come from the nodes.
        pytest.param("is", "expert:0", id="is-expert"),
    ])
    def test_requests_per_run_at_most_rounds(self, tmp_path, monkeypatch, method, proposal):
        name = {"is": "importance_sample", "local": "local_sample"}.get(method, method)
        runs, _, _ = self.served_run(tmp_path, monkeypatch, False, name,
                                     methods=[method], proposal=proposal)
        assert len(runs) == 2
        # The first run starts from an empty cache; the second shares its shaping.
        assert runs[0][0] > 0
        for requests, estimate in runs:
            assert requests <= estimate.diagnostics.rounds

    @pytest.mark.parametrize("method", ["smc", "sis", "is", "local"])
    def test_token_requests_per_run_at_most_rounds(self, tmp_path, monkeypatch, method):
        """Behind the byte bridge, a round's token rows come in one request:
        the rows of the frontiers' states, which are all that the prefix
        masses of their one-byte extensions read."""
        name = {"is": "importance_sample", "local": "local_sample"}.get(method, method)
        runs, _, _ = self.served_run(tmp_path, monkeypatch, True, name,
                                     methods=[method], proposal="optimal")
        assert len(runs) == 2
        assert runs[0][0] > 0
        for requests, estimate in runs:
            assert requests <= estimate.diagnostics.rounds

    @pytest.mark.parametrize("tokenized", [False, True], ids=["served", "token"])
    def test_oracle_requests_per_level(self, tmp_path, monkeypatch, tokenized):
        """The oracle sends one request per level to a served expert or a
        served token model, and its table equals the in-process one."""
        max_len = 6 if tokenized else 4
        calls, _, _ = self.served_run(tmp_path, monkeypatch, tokenized, "enumerate_ensemble",
                                      methods=["smc"], proposal="optimal", oracle_len=max_len)
        assert len(calls) == 1
        assert calls[0][0] > 0
        assert calls[0][0] <= max_len + 1

        # On its own, with nothing cached: the table of the in-process panel.
        inner, alphabet = self.servable(tokenized)
        config = config_from_dict(
            self.config(inner, ["smc"], "optimal", tokenized=tokenized), tmp_path
        )
        panel, spec = runner.build_panel(config)
        want = enumerate_ensemble(spec, panel, max_len)
        with ModelServer(build_expert(inner, alphabet, tmp_path)) as server:
            remote = {"type": "remote", "url": server.url}
            config = config_from_dict(
                self.config(remote, ["smc"], "optimal", tokenized=tokenized), tmp_path
            )
            panel, spec = runner.build_panel(config)
            got = enumerate_ensemble(spec, panel, max_len)
            sent = (panel[0].token_model if tokenized else panel[0]).requests
        assert 0 < sent <= max_len + 1
        assert got.strings == want.strings
        assert got.log_values.tobytes() == want.log_values.tobytes()
        assert got.log_residual_bound == want.log_residual_bound
        assert got.nodes_visited == want.nodes_visited

    @pytest.mark.parametrize("tokenized", [False, True], ids=["served", "token"])
    def test_consumers_keep_the_rows_they_read(self, tmp_path, monkeypatch, tokenized):
        """The served rows change on every request for a context, and every
        method still gives the in-process records: the prefix nodes and the
        bridge's token-row store keep the rows they read, so one experiment
        asks the server for each context once. Behind the bridge that
        includes the oracle, which reads the same token rows; over a plain
        served expert the oracle has its own level arrays, so it is left out.
        """
        oracle = {"oracle_len": 6} if tokenized else {}
        _, served, panel = self.served_run(
            tmp_path, monkeypatch, tokenized, "smc", drift=True,
            methods=["smc", "sis", "is", "local"], proposal="optimal",
            debug_check_weights=True, **oracle,
        )
        assert served.asked and max(served.asked.values()) == 1
        if tokenized:
            # Every byte row the bridge builds over the drifting server is
            # normalized, and still no token context is asked twice.
            check_model(panel[0], contexts_up_to(4))
            assert max(served.asked.values()) == 1


@contextlib.contextmanager
def raw_server(reply):
    """Answer each HTTP request with ``reply(n) -> (raw bytes, close)``, the
    ``n``-th reply (from 0) sent verbatim, for client framing tests. With
    ``close``, the server closes the connection after the reply. Yields
    the base URL and the list of ``(connection, request line)`` seen."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(POLL_INTERVAL_S)
    seen = []
    stop = threading.Event()

    def serve():
        connection = 0
        while not stop.is_set():
            try:
                sock, _ = listener.accept()
            except TimeoutError:
                continue
            connection += 1
            with sock, sock.makefile("rb") as rfile:
                while True:
                    request_line = rfile.readline()
                    if not request_line:
                        break
                    length = 0
                    while (line := rfile.readline()) not in (b"\r\n", b""):
                        name, _, value = line.partition(b":")
                        if name.lower() == b"content-length":
                            length = int(value)
                    rfile.read(length)
                    data, close = reply(len(seen))
                    seen.append((connection, request_line.split()[1].decode()))
                    sock.sendall(data)
                    if close:
                        break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1], seen
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()


def http_reply(head: str, body: bytes) -> bytes:
    return head.replace("\n", "\r\n").encode("ascii") + b"\r\n" + body


class TestWire:
    """The client's HTTP/1.1 exchange: one write per request, replies framed
    by ``Content-Length``, by chunks or by the server closing the
    connection, and a malformed reply retried like a transport failure."""

    def test_one_write_per_request(self, monkeypatch):
        client = threading.get_ident()
        writes = []
        sendall = socket.socket.sendall

        def counting_sendall(sock, data, *args):
            if threading.get_ident() == client:
                writes.append(len(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
        local = abc_ngram()
        with ModelServer(local) as server:
            remote = RemoteModel(server.url)
            remote.log_next("a")
            remote.log_next_many(["b", "cab", "ca"])
        assert remote.requests == 3  # the alphabet, one row, one batch
        assert len(writes) == 3

    @pytest.mark.parametrize(
        "head",
        [
            "HTTP/1.0 200 OK\nContent-Type: application/json\n",  # read to the close
            "HTTP/1.1 200 OK\nConnection: close\n",  # likewise
            "HTTP/1.1 200 OK\nConnection: close\nContent-Length: {n}\n",
            "HTTP/1.0 200 OK\nContent-Length: {n}\n",
        ],
        ids=["1.0-to-close", "close-to-close", "close-with-length", "1.0-with-length"],
    )
    def test_closing_replies_read_whole_then_reconnected(self, connects, head):
        body = json.dumps({"rows": [ROW_A]}).encode("utf-8")
        reply = http_reply(head.format(n=len(body)), body)
        with raw_server(lambda n: (reply, True)) as (url, seen):
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=1)
            for context in ("", "a", "aa"):
                assert np.array_equal(remote.log_next(context), [math.log(0.5)] * 2)
        assert seen == [(1, "/next_many"), (2, "/next_many"), (3, "/next_many")]
        assert len(connects) == 3

    def test_kept_alive_replies_share_a_connection(self, connects):
        body = json.dumps({"rows": [ROW_A]}).encode("utf-8")
        # An interim 100 reply comes first and is skipped.
        reply = http_reply("HTTP/1.1 100 Continue\n", b"") + http_reply(
            f"HTTP/1.1 200 OK\nContent-Length: {len(body)}\n", body
        )
        with raw_server(lambda n: (reply, False)) as (url, seen):
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=1)
            for context in ("", "a", "aa"):
                assert np.array_equal(remote.log_next(context), [math.log(0.5)] * 2)
            remote.close()  # so that the server's connection ends
        assert [connection for connection, _ in seen] == [1, 1, 1]
        assert len(connects) == 1

    def test_chunked_replies_are_decoded(self, connects):
        # Servers without a Content-Length for a large body send it in chunks
        # (here three, with a chunk extension and a trailer) and keep the
        # connection open.
        def respond(n):
            body = json.dumps({"rows": [ROW_A, ROW_A] if n == 0 else [ROW_A]}).encode("utf-8")
            parts = (body[:5], body[5:9], body[9:])
            chunks = b"".join(b"%x;x=1\r\n%s\r\n" % (len(part), part) for part in parts)
            head = "HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n"
            return http_reply(head, chunks + b"0\r\nX-Trailer: 1\r\n\r\n"), False

        with raw_server(respond) as (url, seen):
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=1)
            rows = remote.log_next_many(["", "a"])
            row = remote.log_next("aa")
            remote.close()  # so that the server's connection ends
        assert rows.tolist() == [[math.log(0.5)] * 2] * 2
        assert row.tolist() == [math.log(0.5)] * 2
        assert seen == [(1, "/next_many"), (1, "/next_many")]
        assert len(connects) == 1

    def test_no_content_reply_has_no_body(self):
        # Without a Content-Length, a 204 on a kept-alive connection must not
        # be read to the close: each attempt fails at once on the empty body.
        reply = http_reply("HTTP/1.1 204 No Content\n", b"")
        with raw_server(lambda n: (reply, False)) as (url, seen):
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=2, backoff=0.001)
            t0 = time.perf_counter()
            with pytest.raises(ExpertUnavailableError, match="after 2 attempts"):
                remote.log_next("")
            assert time.perf_counter() - t0 < 1.0
            remote.close()
        assert seen == [(1, "/next_many"), (1, "/next_many")]

    @pytest.mark.parametrize(
        "reply",
        [
            http_reply("SPDY/9 200 OK\nContent-Length: 2\n", b"{}"),  # garbage status line
            http_reply("HTTP/1.1 OK 200\nContent-Length: 2\n", b"{}"),
            http_reply("HTTP/1.1 200 OK\nContent-Length: 80\n", b'{"log_probs": '),  # cut short
            http_reply("HTTP/1.1 200 OK\nContent-Length: -2\n", b"{}"),
            http_reply("HTTP/1.1 200 OK\nTransfer-Encoding: gzip\n", b"{}"),
            http_reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"-2\r\n{}\r\n0\r\n\r\n"),
            http_reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"8\r\n{}"),  # cut short
            http_reply("HTTP/1.1 200 OK\nX-Pad: " + "x" * 70_000 + "\n", b"{}"),  # over 64 KiB
            http_reply("HTTP/1.1 200 OK\n" + "X-Pad: x\n" * 101, b"{}"),  # too many headers
            # The last value alone would frame a whole (misshapen) reply.
            http_reply("HTTP/1.1 200 OK\nContent-Length: 5\nContent-Length: 2\n", b"{}"),
            # 1 PiB announced, a few bytes sent: read as they arrive, a body cut short.
            http_reply(f"HTTP/1.1 200 OK\nContent-Length: {2 ** 50}\n", b"{}"),
            http_reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"%x\r\n{}" % 2 ** 50),
            http_reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"2\r\n{}XX\r\n0\r\n\r\n"),
            http_reply(
                "HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n",
                b"2\r\n{}\r\n0\r\n" + b"X-Trailer: 1\r\n" * 101 + b"\r\n",
            ),
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",  # the connection ends in the headers
        ],
        ids=["status-protocol", "status-code", "truncated", "negative-length", "transfer-coding",
             "chunk-size", "chunk-truncated", "long-header", "many-headers", "conflicting-length",
             "huge-length", "huge-chunk", "chunk-without-crlf", "many-trailers", "head-cut-short"],
    )
    def test_bad_framing_retried_then_unavailable(self, reply):
        with raw_server(lambda n: (reply, True)) as (url, seen):
            remote = RemoteModel(url, alphabet=Alphabet("a"), retries=3, backoff=0.001)
            with pytest.raises(ExpertUnavailableError, match="after 3 attempts"):
                remote.log_next("")
        assert len(seen) == 3

    def test_url_must_be_printable_ascii(self):
        # It goes into the request line and the Host header as it is.
        for url in ("http://127.0.0.1:1/a b", "http://127.0.0.1:1/\u00e9", "http://127.0.0.1:1/\x7f"):
            with pytest.raises(ValueError, match="printable ASCII"):
                RemoteModel(url, alphabet=Alphabet("a"))

    def test_tight_defect_tolerance_checks_each_row_exactly(self):
        # A sum off by 3e-10 is within the row tolerance, so the default
        # keeps the row as sent, but it exceeds a defect_tol of 1e-10.
        values = [math.log(0.5), math.log(0.5 + 3e-10)]
        row = {"log_probs": {"a": values[0]}, "eos_log_prob": values[1]}

        def respond(method, path, payload):
            return 200, {"rows": [row] * len(payload["contexts"])}

        with scripted_server(respond) as url:
            remote = RemoteModel(url, alphabet=Alphabet("a"))
            assert remote.log_next_many(["", "a"]).tolist() == [values] * 2
            assert remote.defects == []
            tight = RemoteModel(url, alphabet=Alphabet("a"), defect_tol=1e-10)
            with pytest.raises(ExpertUnavailableError, match="defect exceeds"):
                tight.log_next_many(["", "a"])

    def test_https_rows_match_the_local_model(self, tmp_path, monkeypatch, connects):
        x509 = pytest.importorskip("cryptography.x509")
        import datetime
        import ipaddress
        import ssl

        from cryptography.hazmat.primitives import hashes, serialization
        from cryptography.hazmat.primitives.asymmetric import ec

        key = ec.generate_private_key(ec.SECP256R1())
        name = x509.Name([x509.NameAttribute(x509.oid.NameOID.COMMON_NAME, "localhost")])
        now = datetime.datetime.now(datetime.timezone.utc)
        cert = (
            x509.CertificateBuilder()
            .subject_name(name)
            .issuer_name(name)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(minutes=5))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(
                x509.SubjectAlternativeName(
                    [x509.DNSName("localhost"), x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]
                ),
                critical=False,
            )
            .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
            .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()), False)
            .add_extension(
                x509.AuthorityKeyIdentifier.from_issuer_public_key(key.public_key()), False
            )
            .sign(key, hashes.SHA256())
        )
        cert_file, key_file = tmp_path / "cert.pem", tmp_path / "key.pem"
        cert_file.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
        key_file.write_bytes(
            key.private_bytes(
                serialization.Encoding.PEM,
                serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption(),
            )
        )
        monkeypatch.setenv("SSL_CERT_FILE", str(cert_file))  # the client trusts the certificate
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(cert_file, key_file)
        server = ModelServer(abc_ngram()).start()
        server._httpd.socket = context.wrap_socket(server._httpd.socket, server_side=True)
        local = abc_ngram()
        contexts = ["", "a", "cab", "bb", "ca"]
        try:
            remote = RemoteModel("https" + server.url.removeprefix("http"))
            assert remote.alphabet == local.alphabet
            rows = remote.log_next_many(contexts)
            row = remote.log_next("abc")
        finally:
            server.stop()
        for got, context in zip(rows, contexts):
            assert got.tobytes() == local.log_next(context).tobytes()
        assert row.tobytes() == local.log_next("abc").tobytes()
        assert remote.requests == 3
        assert len(connects) == 1


def exchange(url: str, data: bytes) -> bytes:
    """Send ``data`` in one write on a fresh connection and read until the
    server closes it (a timeout fails the test if it never does)."""
    host, port = url.removeprefix("http://").split(":")
    received = []
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(data)
        while True:
            try:
                chunk = sock.recv(1 << 16)
            except ConnectionResetError:  # closed with part of the request unread
                break
            if not chunk:
                break
            received.append(chunk)
    return b"".join(received)


def split_replies(data: bytes) -> list[tuple[int, dict, dict]]:
    """``(status, headers, JSON body)`` of each reply in ``data``, framed by
    ``Content-Length``; header names are lowercased."""
    replies = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *fields = head.decode("latin-1").split("\r\n")
        headers = {}
        for field in fields:
            name, _, value = field.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        replies.append((int(status_line.split()[1]), headers, json.loads(data[:length])))
        data = data[length:]
    return replies


def wire_row(model, context: str) -> dict:
    """The ``/next_many`` reply entry for a row with no zero entry."""
    *values, eos = model.log_next(context).tolist()
    return {"log_probs": dict(zip(model.alphabet.symbols, values)), "eos_log_prob": eos}


def raw_post(path: str, payload: dict, *headers: str, version: str = "HTTP/1.1") -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = "".join(f"{h}\r\n" for h in (*headers, f"Content-Length: {len(body)}"))
    return f"POST {path} {version}\r\nHost: x\r\n{head}\r\n".encode("ascii") + body


class TestServerWire:
    """``ModelServer``'s HTTP/1.1 framing: requests read in order from one
    connection, one write per reply, and a closing reply for a request it
    cannot frame or a client that asks to close."""

    def test_pipelined_requests_answered_in_order_on_one_connection(self):
        local = abc_ngram()
        data = raw_post("/next_many", {"contexts": ["ca"]}) + raw_post(
            "/next_many", {"contexts": ["", "b"]}, "Connection: close"
        )
        with ModelServer(local) as server:
            replies = split_replies(exchange(server.url, data))
        assert [(status, "connection" in headers) for status, headers, _ in replies] == [
            (200, False),
            (200, True),
        ]
        assert replies[0][2] == {"rows": [wire_row(local, "ca")]}
        assert replies[1][2] == {"rows": [wire_row(local, ""), wire_row(local, "b")]}

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /next_many\r\nContent-Length: 2\r\n\r\n{}",  # no version
            b"POST /next_many SPDY/9\r\nContent-Length: 2\r\n\r\n{}",
            b"POST /next_many HTTP/1.1\r\nX-Pad: " + b"x" * 70_000 + b"\r\n\r\n",  # over 64 KiB
            b"GET /alphabet HTTP/1.1\r\n" + b"X-Pad: x\r\n" * 101 + b"\r\n",  # too many headers
        ],
        ids=["request-line-parts", "request-line-version", "long-header", "many-headers"],
    )
    def test_malformed_request_gets_400_and_the_connection_closes(self, request_bytes):
        model = CountingModel(abc_ngram())
        with ModelServer(model) as server:
            # A valid request pipelined after the bad one is never answered.
            data = request_bytes + raw_post("/next_many", {"contexts": ["a"]})
            replies = split_replies(exchange(server.url, data))
        assert [(status, headers["connection"]) for status, headers, _ in replies] == [
            (400, "close")
        ]
        assert replies[0][2]["error"]
        assert model.calls == 0

    def test_body_shorter_than_its_length_gets_no_reply(self):
        """A client that ends its side within the announced body gets the
        connection closed without a reply, and the model is not asked."""
        model = CountingModel(abc_ngram())
        body = json.dumps({"contexts": ["a"]}).encode("utf-8")
        head = b"POST /next_many HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (len(body) + 10)
        with ModelServer(model) as server:
            host, port = server.url.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=5.0) as sock:
                sock.sendall(head + body)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1 << 16) == b""
        assert model.calls == 0

    def test_url_before_start_raises(self):
        server = ModelServer(abc_ngram())
        with pytest.raises(RuntimeError, match="not running"):
            server.url

    def test_unknown_method_gets_501(self):
        with ModelServer(abc_ngram()) as server:
            data = b"PUT /next_many HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
            [(status, headers, reply)] = split_replies(exchange(server.url, data))
        assert (status, headers["connection"]) == (501, "close")
        assert "PUT" in reply["error"]

    @pytest.mark.parametrize(
        "headers, version",
        [((), "HTTP/1.0"), (("Connection: close",), "HTTP/1.1")],
        ids=["http-1.0", "connection-close"],
    )
    def test_closing_request_gets_a_closing_reply(self, headers, version):
        local = abc_ngram()
        data = raw_post("/next_many", {"contexts": ["b"]}, *headers, version=version)
        with ModelServer(local) as server:
            # exchange reads to the server's close, which must follow the reply.
            [(status, reply_headers, reply)] = split_replies(exchange(server.url, data))
        assert (status, reply_headers["connection"]) == (200, "close")
        assert reply_headers["content-type"] == "application/json"
        assert reply_headers["date"]
        assert reply == {"rows": [wire_row(local, "b")]}

    def test_conflicting_content_lengths_get_400_and_the_connection_closes(self):
        model = CountingModel(abc_ngram())
        body = json.dumps({"contexts": ["a"]}).encode("utf-8")
        head = b"POST /next_many HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: %d\r\n\r\n"
        with ModelServer(model) as server:
            replies = split_replies(exchange(server.url, head % len(body) + body))
        assert [(status, headers["connection"]) for status, headers, _ in replies] == [
            (400, "close")
        ]
        assert "Content-Length" in replies[0][2]["error"]
        assert model.calls == 0

    def test_repeated_equal_content_lengths_are_accepted(self):
        local = abc_ngram()
        data = raw_post("/next_many", {"contexts": ["a"]}, "Connection: close",
                        f"Content-Length: {len(json.dumps({'contexts': ['a']}))}")
        with ModelServer(local) as server:
            [(status, _, reply)] = split_replies(exchange(server.url, data))
        assert status == 200
        assert reply == {"rows": [wire_row(local, "a")]}

    def test_one_write_per_reply(self, monkeypatch):
        client = threading.get_ident()
        writes = []
        sendall = socket.socket.sendall

        def counting_sendall(sock, data, *args):
            if threading.get_ident() != client:
                writes.append(data)
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
        with ModelServer(abc_ngram()) as server:
            remote = RemoteModel(server.url)
            remote.log_next("a")
            remote.log_next_many(["b", "cab", "ca"])
            status, _ = post(server.url, "/nowhere", {})
        assert remote.requests == 3  # the alphabet, one row, one batch
        assert status == 404
        assert len(writes) == 4
        assert all(w.startswith(b"HTTP/1.1 ") and w.endswith((b"}", b"]")) for w in writes)


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this ``ensmc``."""
    src = str(Path(ensmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_import_leaves_http_server_unloaded():
    """``import ensmc`` does not pay for ``http.server`` (nor ``html`` and
    ``mimetypes``, which it imports)."""
    run_fresh("import sys, ensmc; assert 'http.server' not in sys.modules")


def test_import_loads_the_remote_stack_bridge_and_cli_on_first_use():
    """``import ensmc`` leaves the HTTP client and server, the byte bridge
    and the command line unloaded; their top-level names load them when
    first read, and every other name of ``__all__`` still resolves."""
    run_fresh("""if True:
        import sys, ensmc
        unused = ("http.client", "email", "ssl", "socketserver", "argparse",
                  "ensmc.remote", "ensmc.bridge", "ensmc.cli")
        loaded = [name for name in unused if name in sys.modules]
        assert not loaded, loaded
        assert ensmc.RemoteModel.__module__ == "ensmc.remote"
        assert "RemoteModel" in vars(ensmc)  # kept: the next read is plain
        from ensmc import ModelServer
        assert ModelServer.__module__ == "ensmc.remote"
        assert ensmc.main.__module__ == "ensmc.cli"
        assert ensmc.Tokenizer.__module__ == "ensmc.bridge"
        for name in ensmc.__all__:
            getattr(ensmc, name)
        try:
            ensmc.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown name resolved")
    """)
