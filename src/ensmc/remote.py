"""Remote experts over a small HTTP + JSON wire protocol.

Protocol (all bodies JSON, UTF-8):

* ``GET /alphabet`` → ``{"symbols": ["a", "b", ...]}`` — the server's
  alphabet, in dense-row order.
* ``POST /next`` with ``{"context": "<string>"}`` →
  ``{"log_probs": {"a": -0.3, ...}, "eos_log_prob": -1.2}``.
  Symbols absent from ``log_probs`` have zero probability; a missing or
  null ``eos_log_prob`` means a zero-probability end marker. Values are
  natural-log probabilities.
* A context with zero probability under the server's model yields HTTP
  422 with ``{"error": "<message>"}``; the client raises
  UndefinedConditionalError without retrying.

A request body larger than ``MAX_BODY_BYTES``, or one whose
``Content-Length`` is missing, not an integer or negative, gets HTTP 413 or
400 with ``{"error": ...}`` and the server closes the connection.

Transport: HTTP/1.1 with persistent connections. Each client thread keeps
one connection per ``RemoteModel`` and reuses it for every row; the server
closes a connection after ``IDLE_TIMEOUT_S`` idle seconds. A request that
fails on a reused connection because the server had closed it is resent
once on a fresh connection; that resend is not a retry and does not sleep.

Client behavior: transport failures, HTTP 5xx, and unparseable bodies
are retried with exponential backoff (``retries`` attempts total); after
that, ExpertUnavailableError. Returned rows are checked for
normalization: a linear-domain sum off by more than the standard row
tolerance but within ``defect_tol`` (default 1e-2) of 1 is renormalized
and the defect recorded on ``RemoteModel.defects``; a larger defect
raises ExpertUnavailableError immediately. Rows are cached per context,
so retries and re-queries cannot change an answer already used.
"""
from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np

from .errors import ExpertUnavailableError, UndefinedConditionalError
from .lmcore import ROW_TOL, Alphabet, SequenceModel, string_log_prob
from .logtools import LOG_ZERO, logsumexp

DEFAULT_DEFECT_TOL = 1e-2
#: Seconds between the serving thread's shutdown checks; ``stop`` waits
#: for at most one of them.
POLL_INTERVAL_S = 0.05
#: Seconds a served connection may sit idle before the server closes it,
#: so an abandoned connection frees its handler thread.
IDLE_TIMEOUT_S = 30.0
#: Largest request body the server reads.
MAX_BODY_BYTES = 1 << 20


def _close_all(connections: dict) -> None:
    for thread in list(connections):
        conn = connections.pop(thread, None)
        if conn is not None:
            conn.close()


class RemoteModel(SequenceModel):
    """A sequence model served by a remote endpoint."""

    def __init__(
        self,
        base_url: str,
        alphabet: Alphabet | None = None,
        timeout: float = 5.0,
        retries: int = 3,
        backoff: float = 0.05,
        defect_tol: float = DEFAULT_DEFECT_TOL,
    ):
        if retries < 1:
            raise ValueError("retries must be >= 1")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"remote expert URL must be http or https: {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._netloc = url.netloc
        self._path_prefix = url.path
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.defect_tol = defect_tol
        #: (context, linear-domain row sum) pairs for every renormalized row.
        self.defects: list[tuple[str, float]] = []
        self._cache: dict[str, np.ndarray] = {}
        # One kept-alive connection per calling thread (keyed by thread id),
        # since concurrent read-only use must stay safe. They are closed
        # with the model, or by ``close``.
        self._connections: dict[int, http.client.HTTPConnection] = {}
        weakref.finalize(self, _close_all, self._connections)
        self.alphabet = alphabet if alphabet is not None else self._fetch_alphabet()

    def close(self) -> None:
        """Close the model's open connections; a later row opens a new one."""
        _close_all(self._connections)

    # -- transport ------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                status, data = self._exchange(method, self._path_prefix + path, body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if 200 <= status < 300:
                try:
                    return json.loads(data.decode("utf-8"))
                except ValueError as exc:
                    last_error = exc
                    continue
            if status == 422:
                detail = ""
                try:
                    detail = json.loads(data.decode("utf-8")).get("error", "")
                except Exception:
                    pass
                raise UndefinedConditionalError(
                    detail or f"server rejected the context ({path})"
                )
            if 400 <= status < 500:
                raise ExpertUnavailableError(f"{method} {path} failed with HTTP {status}")
            last_error = ExpertUnavailableError(f"HTTP {status}")
        raise ExpertUnavailableError(
            f"{method} {path} failed after {self.retries} attempts: {last_error}"
        )

    def _exchange(self, method: str, url_path: str, body: bytes | None) -> tuple[int, bytes]:
        """One request on this thread's connection: ``(status, whole body)``.

        The body is read for every status, so the connection stays usable.
        """
        thread = threading.get_ident()
        conn = self._connections.get(thread)
        reused = conn is not None
        if not reused:
            conn = self._connections[thread] = self._connection_class(
                self._netloc, timeout=self.timeout
            )
        try:
            conn.request(
                method, url_path, body=body, headers={"Content-Type": "application/json"}
            )
            resp = conn.getresponse()
            data = resp.read()
        except (ConnectionResetError, BrokenPipeError):
            # Also http.client.RemoteDisconnected. On a reused connection this
            # means the server closed it while idle: resend once, fresh. Both
            # endpoints are pure functions, so a resend is safe.
            self._drop(thread, conn)
            if not reused:
                raise
            return self._exchange(method, url_path, body)
        except BaseException:
            self._drop(thread, conn)
            raise
        if resp.will_close:
            self._drop(thread, conn)
        return resp.status, data

    def _drop(self, thread: int, conn: http.client.HTTPConnection) -> None:
        self._connections.pop(thread, None)
        conn.close()

    def _fetch_alphabet(self) -> Alphabet:
        reply = self._request("GET", "/alphabet")
        symbols = reply.get("symbols") if isinstance(reply, dict) else None
        if not isinstance(symbols, list):
            raise ExpertUnavailableError("malformed /alphabet reply")
        return Alphabet(symbols)

    # -- model interface ------------------------------------------------

    def log_next(self, context: str) -> np.ndarray:
        cached = self._cache.get(context)
        if cached is not None:
            return cached
        reply = self._request("POST", "/next", {"context": context})
        row = self._parse_row(context, reply)
        row.flags.writeable = False  # shared by every caller of this context
        self._cache[context] = row
        return row

    def _parse_row(self, context: str, reply) -> np.ndarray:
        if not isinstance(reply, dict) or not isinstance(reply.get("log_probs"), dict):
            raise ExpertUnavailableError(f"malformed /next reply for {context!r}")
        row = np.full(self.alphabet.size + 1, LOG_ZERO)
        for sym, lp in reply["log_probs"].items():
            if sym not in self.alphabet.index:
                raise ExpertUnavailableError(
                    f"server sent unknown symbol {sym!r} for {context!r}"
                )
            row[self.alphabet.index[sym]] = self._parse_value(context, lp)
        eos = reply.get("eos_log_prob")
        if eos is not None:
            row[self.alphabet.eos_index] = self._parse_value(context, eos)
        if np.isnan(row).any() or (row == np.inf).any():
            raise ExpertUnavailableError(f"non-finite log probability for {context!r}")
        total = float(np.exp(logsumexp(row))) if not np.isneginf(row).all() else 0.0
        if abs(total - 1.0) > self.defect_tol:
            raise ExpertUnavailableError(
                f"row for {context!r} sums to {total!r}; defect exceeds {self.defect_tol}"
            )
        if abs(total - 1.0) > ROW_TOL:
            self.defects.append((context, total))
            row = row - logsumexp(row)
        return row

    @staticmethod
    def _parse_value(context: str, value) -> float:
        if not isinstance(value, (int, float)):
            raise ExpertUnavailableError(
                f"non-numeric log probability {value!r} for {context!r}"
            )
        return float(value)


class _Server(ThreadingHTTPServer):
    """A threaded HTTP server whose ``server_close`` also ends open connections.

    Each kept-alive connection has a daemon handler thread, which
    ``server_close`` neither waits for nor stops. Without this, a client
    holding a connection would go on getting rows from a stopped server
    for up to ``IDLE_TIMEOUT_S``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()

    def process_request(self, request, client_address):
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        # Forget the socket before it is closed, so server_close never
        # touches a closed (or reused) descriptor.
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        """Report the request's exception, unless the client just hung up."""
        if not isinstance(sys.exc_info()[1], (ConnectionResetError, BrokenPipeError)):
            super().handle_error(request, client_address)

    def server_close(self):
        with self._lock:
            for sock in self._connections:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        super().server_close()


class ModelServer:
    """Serve a local model over the wire protocol (loopback demos, tests).

    Runs a threaded HTTP/1.1 server with one handler thread per client
    connection; use as a context manager or call ``start``/``stop``.
    ``stop`` also closes open connections. ``url`` gives the base URL
    once started.
    """

    def __init__(self, model: SequenceModel, host: str = "127.0.0.1", port: int = 0):
        self.model = model
        self._host = host
        self._port = port
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise RuntimeError("server is not running")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ModelServer":
        model = self.model
        alphabet = model.alphabet

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body are separate writes; with Nagle's algorithm the
            # body waits for the client's delayed ACK (about 40 ms a row).
            disable_nagle_algorithm = True
            timeout = IDLE_TIMEOUT_S

            def log_message(self, *args):  # keep test output quiet
                pass

            def _send(self, code: int, payload: dict, close: bool = False) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if close:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/alphabet":
                    self._send(200, {"symbols": list(alphabet.symbols)})
                else:
                    self._send(404, {"error": "unknown path"})

            def _read_body(self) -> bytes | None:
                """The request body, or None once a 400/413 reply is sent.

                An unread body would be parsed as the next request, so an
                error reply here also closes the connection.
                """
                try:
                    length = int(self.headers["Content-Length"])
                except (TypeError, ValueError):  # missing or not an integer
                    length = -1
                if not 0 <= length <= MAX_BODY_BYTES:
                    self._send(
                        413 if length > MAX_BODY_BYTES else 400,
                        {"error": f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]"},
                        close=True,
                    )
                    return None
                return self.rfile.read(length)

            def do_POST(self):
                body = self._read_body()
                if body is None:
                    return
                if self.path != "/next":
                    self._send(404, {"error": "unknown path"})
                    return
                try:
                    payload = json.loads(body.decode("utf-8"))
                    context = payload["context"]
                    row = model.log_next(context)
                except UndefinedConditionalError as exc:
                    self._send(422, {"error": str(exc)})
                    return
                except Exception as exc:
                    self._send(500, {"error": str(exc)})
                    return
                log_probs = {
                    sym: float(row[i])
                    for i, sym in enumerate(alphabet.symbols)
                    if row[i] != LOG_ZERO
                }
                eos = row[alphabet.eos_index]
                reply = {"log_probs": log_probs}
                if eos != LOG_ZERO:
                    reply["eos_log_prob"] = float(eos)
                self._send(200, reply)

        self._httpd = _Server((self._host, self._port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def check_remote(model: RemoteModel, strings: list[str]) -> dict[str, float]:
    """Score a few strings through the wire (connectivity smoke check)."""
    return {x: string_log_prob(model, x) for x in strings}
