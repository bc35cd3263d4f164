"""Remote experts over a small HTTP + JSON wire protocol.

Protocol (all bodies JSON, UTF-8):

* ``GET /alphabet`` → ``{"symbols": ["a", "b", ...]}`` — the server's
  alphabet, in dense-row order.
* ``POST /next_many`` with ``{"contexts": ["<string>", ...]}`` →
  ``{"rows": [<entry>, ...]}``, one entry per context in order. A row
  entry is ``{"log_probs": {"a": -0.3, ...}, "eos_log_prob": -1.2}``:
  symbols absent from ``log_probs`` have zero probability, a missing or
  null ``eos_log_prob`` means a zero-probability end marker, and values
  are natural-log probabilities. A context with zero probability under
  the server's model gets ``{"error": "<message>"}`` in place of its row;
  the client raises UndefinedConditionalError for the first such context,
  without retrying. This is the only row request: ``log_next`` asks for
  one context with it.
* A body that is not JSON, ``contexts`` that are not a list of strings,
  and a context with a symbol outside the alphabet get HTTP 400 with
  ``{"error": ...}``. The client checks its contexts against its alphabet
  before sending, and raises ValueError for a foreign symbol, as a local
  model does. Any other path gets 404.

A request body larger than ``MAX_BODY_BYTES``, or one whose
``Content-Length`` is missing, not an integer or negative, gets HTTP 413 or
400 with ``{"error": ...}`` and the server closes the connection. The
client splits a ``/next_many`` batch so that no body exceeds the bound.

Transport: HTTP/1.1 with persistent connections. Each client thread keeps
one connection per ``RemoteModel`` and reuses it for every request; the server
closes a connection after ``IDLE_TIMEOUT_S`` idle seconds. A request that
fails on a reused connection because the server had closed it is resent
once on a fresh connection; that resend is not a retry and does not sleep.
Both sides send each message (start line, headers and body) in one write
and read the other's start line and headers with one small reader,
``_read_head``. A start, header or chunk-size line over 64 KiB, more than
100 header or trailer lines and conflicting ``Content-Length`` values are
malformed on either side.

The client frames a reply's body by chunks (``Transfer-Encoding:
chunked``), by ``Content-Length`` or, without either, by the server
closing the connection. After an HTTP/1.0 or ``Connection: close`` reply
the next request opens a new connection. A transfer coding other than
chunked, a malformed status line or chunk size, a malformed head as above
and a body cut short are transport failures. A body is read 64 KiB at a
time, so an announced length costs memory only for the bytes that arrive.

The server (``ModelServer``) frames a request's body by ``Content-Length``
alone: a POST without one, a chunked request and a malformed request line
or head get HTTP 400, and a method other than GET and POST gets 501; these
replies close the connection. It answers requests in the order they come,
pipelined ones included, each with ``Content-Length``, and closes the
connection after answering an HTTP/1.0 or ``Connection: close`` request.

Client behavior: transport failures, HTTP 5xx, and unparseable bodies
are retried with exponential backoff (``retries`` attempts total); after
that, ExpertUnavailableError. Other 4xx replies raise it at once. Returned
rows are checked for normalization: a linear-domain sum off by more than
the standard row tolerance but within ``defect_tol`` (default 1e-2) of 1
is renormalized and the defect recorded on ``RemoteModel.defects``; a
larger defect raises ExpertUnavailableError immediately. Retry and
backoff apply per request, and the row checks to each row of a reply.
``RemoteModel.requests`` counts the requests sent, retries included.

The client keeps no rows: every call is a request, and the rows it
returns are new and belong to the caller. The consumers keep the rows
they read (the samplers' prefix nodes, the bridge's token rows, the
oracle's level arrays), so a run asks for each row once and an answer
it has used cannot change. The samplers ask each expert for all of a
round's new rows at once (``log_next_many``), so a run makes one
``/next_many`` request per round per remote expert.
"""
from __future__ import annotations

import http.client
import json
import math
import numbers
import socket
import socketserver
import sys
import threading
import time
import weakref
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import urlsplit

import numpy as np

from .errors import ExpertUnavailableError, UndefinedConditionalError
from .lmcore import ROW_TOL, Alphabet, SequenceModel
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
#: Longest start or header line, and most header lines, a request or reply may have.
_MAX_LINE = 1 << 16
_MAX_HEADERS = 100
#: Most bytes one read of a body asks for: memory follows the bytes that
#: arrive, not the length the other side announced.
_READ_PIECE = 1 << 16
#: The types ``json.loads`` gives numbers (``bool`` is an ``int``).
_JSON_NUMBERS = frozenset({int, float, bool})


def _close_all(connections: dict) -> None:
    for thread in list(connections):
        conn = connections.pop(thread, None)
        if conn is not None:
            conn.close()


def _json_body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


class _Connection:
    """A kept-alive connection: the socket that the URL's connection class
    opened (TLS-wrapped for ``https``) and one buffered reader over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock):
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()  # the socket stays open while a reader holds it
        self.sock.close()


def _read_line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("line")
    return line


def _read_exactly(rfile, n: int) -> bytes:
    pieces = []
    while n:
        piece = rfile.read(min(n, _READ_PIECE))
        if not piece:
            raise http.client.IncompleteRead(b"".join(pieces), n)
        pieces.append(piece)
        n -= len(piece)
    return b"".join(pieces)


def _read_chunks(rfile) -> bytes:
    """A chunked body: hex-sized chunks up to a zero one, then trailer lines."""
    chunks = []
    while True:
        line = _read_line(rfile)
        size = line.split(b";", 1)[0].strip()  # a chunk extension is ignored
        if not size or size.strip(b"0123456789abcdefABCDEF"):  # hex digits only
            raise http.client.HTTPException(f"bad chunk size line {line!r}")
        size = int(size, 16)
        if size == 0:
            break
        chunks.append(_read_exactly(rfile, size))
        if _read_line(rfile) not in (b"\r\n", b"\n"):
            raise http.client.HTTPException("chunk not followed by CRLF")
    for _ in range(_MAX_HEADERS + 1):
        if _read_line(rfile) in (b"\r\n", b"\n", b""):
            return b"".join(chunks)
    raise http.client.HTTPException(f"more than {_MAX_HEADERS} trailer lines")


def _read_head(rfile) -> tuple[bytes, int | None, bool, bool]:
    """Read the start line and header lines of one HTTP/1.x message, request
    or reply: ``(start line, Content-Length or None, whether the body is
    chunked, whether a Connection header says close)``.

    The start line is empty when the connection ends before it. A line over
    64 KiB, more than 100 header lines, a Content-Length that is not a
    non-negative integer or differs from an earlier one, a transfer coding
    other than chunked and an end within the headers are ``HTTPException``s.
    """
    start = _read_line(rfile)
    length, chunked, close = None, False, False
    if not start:
        return start, length, chunked, close
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return start, length, chunked, close
        if not line:
            raise http.client.IncompleteRead(b"")
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            if not value.strip().isdigit():
                raise http.client.HTTPException(f"bad Content-Length {value!r}")
            if length is not None and int(value) != length:
                raise http.client.HTTPException("conflicting Content-Length headers")
            length = int(value)
        elif name == b"connection":
            close = close or b"close" in [t.strip() for t in value.lower().split(b",")]
        elif name == b"transfer-encoding":
            chunked = value.strip().lower() == b"chunked"
            if not chunked:
                raise http.client.HTTPException(f"unsupported Transfer-Encoding {value!r}")
    raise http.client.HTTPException(f"more than {_MAX_HEADERS} header lines")


def _read_reply(rfile) -> tuple[int, bytes, bool]:
    """Read one HTTP/1.x reply: ``(status, body, whether the server closes)``.

    Interim 1xx replies are skipped. The body is framed by chunks, by
    ``Content-Length`` or, without either, by the server closing the
    connection. A connection that ends before the status line is
    ``RemoteDisconnected``; any other malformed reply is an ``HTTPException``.
    """
    status = 100
    while status < 200:
        line, length, chunked, close = _read_head(rfile)
        if not line:
            raise http.client.RemoteDisconnected("remote end closed connection without a reply")
        parts = line.split(None, 2)
        if (
            len(parts) < 2
            or parts[0] not in (b"HTTP/1.0", b"HTTP/1.1")
            or len(parts[1]) != 3
            or not parts[1].isdigit()
        ):
            raise http.client.BadStatusLine(repr(line))
        status = int(parts[1])
        close = close or parts[0] == b"HTTP/1.0"
    if status in (204, 304):  # never a body
        return status, b"", close
    if chunked:
        return status, _read_chunks(rfile), close
    if length is None:
        return status, rfile.read(), True
    return status, _read_exactly(rfile, length), close


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
        if not (isinstance(retries, numbers.Integral) and retries >= 1):
            raise ValueError(f"retries must be an integer >= 1, got {retries!r}")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be finite and > 0, got {timeout!r}")
        for name, value in (("backoff", backoff), ("defect_tol", defect_tol)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"remote expert URL must be http or https: {base_url!r}")
        if not (self.base_url.isascii() and self.base_url.isprintable()) or " " in self.base_url:
            raise ValueError(f"remote expert URL must be printable ASCII: {base_url!r}")
        if "?" in self.base_url or "#" in self.base_url:
            raise ValueError(f"remote expert URL must have no query or fragment: {base_url!r}")
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
        #: HTTP requests sent, retries included.
        self.requests = 0
        self._requests_lock = threading.Lock()
        # One kept-alive connection per calling thread (keyed by thread id),
        # since concurrent read-only use must stay safe. They are closed
        # with the model, or by ``close``.
        self._connections: dict[int, _Connection] = {}
        weakref.finalize(self, _close_all, self._connections)
        self.alphabet = alphabet if alphabet is not None else self._fetch_alphabet()

    def close(self) -> None:
        """Close the model's open connections; a later row opens a new one."""
        _close_all(self._connections)

    # -- transport ------------------------------------------------------

    def _request(self, method: str, path: str, body: bytes | None = None):
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
            if 400 <= status < 500:
                try:
                    detail = json.loads(data.decode("utf-8")).get("error") or ""
                except Exception:
                    detail = ""
                raise ExpertUnavailableError(
                    f"{method} {path} failed with HTTP {status}" + (f": {detail}" if detail else "")
                )
            last_error = ExpertUnavailableError(f"HTTP {status}")
        raise ExpertUnavailableError(
            f"{method} {path} failed after {self.retries} attempts: {last_error}"
        )

    def _exchange(self, method: str, url_path: str, body: bytes | None) -> tuple[int, bytes]:
        """One request on this thread's connection: ``(status, whole body)``.

        The request line, headers and body go out in one write. The reply
        is read whole for every status, so the connection stays usable
        unless the server says it closes it.
        """
        with self._requests_lock:
            self.requests += 1
        head = (
            f"{method} {url_path} HTTP/1.1\r\nHost: {self._netloc}\r\n"
            "Accept-Encoding: identity\r\n"
        )
        if body is None:
            message = (head + "\r\n").encode("ascii")
        else:
            message = (
                head + f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii") + body
        thread = threading.get_ident()
        conn = self._connections.get(thread)
        reused = conn is not None
        if not reused:
            opener = self._connection_class(self._netloc, timeout=self.timeout)
            try:
                opener.connect()
            except BaseException:
                opener.close()  # a TLS handshake that failed leaves the TCP socket open
                raise
            conn = self._connections[thread] = _Connection(opener.sock)
        try:
            conn.sock.sendall(message)
            status, data, close = _read_reply(conn.rfile)
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
        if close:
            self._drop(thread, conn)
        return status, data

    def _drop(self, thread: int, conn: _Connection) -> None:
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
        return self.log_next_many([context])[0]

    def log_next_many(self, contexts) -> np.ndarray:
        """The rows of ``contexts`` from one ``/next_many`` request (more
        only if the body would exceed ``MAX_BODY_BYTES``), as a new
        ``(n, |Σ|+1)`` array that belongs to the caller. A context the
        server rejects raises UndefinedConditionalError, without retrying."""
        contexts = list(contexts)
        self.alphabet.check_string("".join(contexts))
        entries: list = []
        for batch, body in self._batches(contexts):
            reply = self._request("POST", "/next_many", body)
            rows = reply.get("rows") if isinstance(reply, dict) else None
            if not isinstance(rows, list) or len(rows) != len(batch):
                raise ExpertUnavailableError(
                    f"malformed /next_many reply for {len(batch)} contexts"
                )
            for context, entry in zip(batch, rows):
                if isinstance(entry, dict) and "error" in entry:
                    raise UndefinedConditionalError(
                        f"server rejected context {context!r}: {entry['error']}"
                    )
            entries += rows
        return self._parse_rows(contexts, entries)

    @staticmethod
    def _batches(contexts: list[str]):
        """``(batch, body)`` pairs for ``contexts``: one ``/next_many`` body
        for all of them, split only where it would exceed ``MAX_BODY_BYTES``
        (a lone context larger than that gets the 413)."""
        if not contexts:
            return
        body = _json_body({"contexts": contexts})
        if len(body) <= MAX_BODY_BYTES:
            yield contexts, body
            return
        room = MAX_BODY_BYTES - len(json.dumps({"contexts": []}))
        batch: list[str] = []
        used = 0
        for context in contexts:
            size = len(json.dumps(context)) + 2  # its separator ", " included
            if batch and used + size > room:
                yield batch, _json_body({"contexts": batch})
                batch, used = [], 0
            batch.append(context)
            used += size
        yield batch, _json_body({"contexts": batch})

    def _parse_rows(self, contexts: list[str], entries: list) -> np.ndarray:
        """The rows of reply ``entries``, one per context, as one new
        ``(n, |Σ|+1)`` array.

        Every entry's shape, symbols and value types are checked first;
        then one vector sum per row finds the rows whose linear-domain sum
        is off by more than ``ROW_TOL / 2``, and only those take
        ``_checked_row`` (non-finite values, defect bound, renormalization).
        Every other row keeps the server's bits, as that check would leave it.
        """
        index, eos, width = self.alphabet.index, self.alphabet.eos_index, self.alphabet.size + 1
        cells: list[int] = []
        values: list = []
        for i, (context, entry) in enumerate(zip(contexts, entries)):
            log_probs = entry.get("log_probs") if isinstance(entry, dict) else None
            if not isinstance(log_probs, dict):
                raise ExpertUnavailableError(f"malformed row reply for {context!r}")
            base = i * width
            for sym in log_probs:
                col = index.get(sym)
                if col is None:
                    raise ExpertUnavailableError(
                        f"server sent unknown symbol {sym!r} for {context!r}"
                    )
                cells.append(base + col)
            values += log_probs.values()
            eos_lp = entry.get("eos_log_prob")
            if eos_lp is not None:
                cells.append(base + eos)
                values.append(eos_lp)
        if not set(map(type, values)) <= _JSON_NUMBERS:
            for cell, value in zip(cells, values):
                if type(value) not in _JSON_NUMBERS:
                    raise ExpertUnavailableError(
                        f"non-numeric log probability {value!r} for {contexts[cell // width]!r}"
                    )
        rows = np.full((len(contexts), width), LOG_ZERO)
        rows.reshape(-1)[cells] = values
        with np.errstate(over="ignore"):
            sums = np.exp(rows).sum(axis=1)
        # A quick sum within ROW_TOL / 2 puts the exact total within ROW_TOL
        # (and within a defect_tol that is at least ROW_TOL): nothing to do.
        # NaN and +inf rows fail the test, as does every row when a tighter
        # defect_tol needs the exact total.
        limit = ROW_TOL / 2 if self.defect_tol >= ROW_TOL else -1.0
        for i, total in enumerate(sums.tolist()):
            if not abs(total - 1.0) <= limit:
                rows[i] = self._checked_row(contexts[i], rows[i])
        return rows

    def _checked_row(self, context: str, row: np.ndarray) -> np.ndarray:
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


def _row_reply(alphabet: Alphabet, row: np.ndarray) -> dict:
    """A row as the wire sends it: nonzero symbol entries, and the end
    marker's only when nonzero. The values are Python floats, which
    ``json`` writes as their repr, so the client reads the same bits."""
    values = row.tolist()
    reply = {
        "log_probs": {sym: v for sym, v in zip(alphabet.symbols, values) if v != LOG_ZERO}
    }
    eos = values[alphabet.eos_index]
    if eos != LOG_ZERO:
        reply["eos_log_prob"] = eos
    return reply


def _request_contexts(alphabet: Alphabet, body: bytes) -> list[str]:
    """The contexts of a ``/next_many`` request body; a ValueError says
    what is wrong with it."""
    payload = json.loads(body.decode("utf-8"))  # not JSON or not UTF-8: a ValueError
    contexts = payload.get("contexts") if isinstance(payload, dict) else None
    if not isinstance(contexts, list) or not all(isinstance(c, str) for c in contexts):
        raise ValueError("'contexts' must be a list of strings")
    for context in contexts:
        alphabet.check_string(context)
    return contexts


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: read a request with ``_read_head``, answer it
    in one write, and repeat until the client or a reply closes the
    connection, or it sits idle for ``IDLE_TIMEOUT_S``."""

    # A reply is one write, but one longer than a TCP segment ends in a short
    # segment, which Nagle's algorithm would hold back until the client's
    # delayed ACK (about 40 ms).
    disable_nagle_algorithm = True

    def setup(self):
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def handle(self):
        while True:
            try:
                answer = self._answer()
            except OSError:  # the idle timeout, or the client is gone
                return
            if answer is None:  # the client closed the connection
                return
            code, payload, close = answer
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
                f"Date: {formatdate(usegmt=True)}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            )
            if close:
                head += "Connection: close\r\n"
            self.connection.sendall((head + "\r\n").encode("ascii") + body)
            if close:
                return

    def _answer(self) -> tuple[int, dict, bool] | None:
        """Read one request: ``(status, JSON reply, whether to close)``, or
        None when the client has closed the connection.

        A request that cannot be framed gets a reply that closes the
        connection, since its unread bytes would be read as the next request.
        """
        try:
            line, length, chunked, close = _read_head(self.rfile)
        except http.client.HTTPException as exc:
            return 400, {"error": str(exc)}, True
        if not line:
            return None
        parts = line.split()
        if len(parts) != 3 or parts[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
            return 400, {"error": f"malformed request line {line!r}"}, True
        method, path, version = parts
        if method not in (b"GET", b"POST"):
            return 501, {"error": f"unsupported method {method.decode('latin-1')}"}, True
        framed = not chunked and (length is not None or method == b"GET")
        if not framed or (length or 0) > MAX_BODY_BYTES:
            error = f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]"
            return (413 if framed else 400), {"error": error}, True
        try:
            body = _read_exactly(self.rfile, length or 0)
        except http.client.IncompleteRead:
            return None
        close = close or version == b"HTTP/1.0"
        model = self.server.model
        alphabet = model.alphabet
        if method == b"GET" and path == b"/alphabet":
            return 200, {"symbols": list(alphabet.symbols)}, close
        if method == b"GET" or path != b"/next_many":
            return 404, {"error": "unknown path"}, close
        try:
            contexts = _request_contexts(alphabet, body)
        except ValueError as exc:
            return 400, {"error": str(exc)}, close
        entries = []
        try:
            for context in contexts:
                try:
                    entries.append(_row_reply(alphabet, model.log_next(context)))
                except UndefinedConditionalError as exc:
                    entries.append({"error": str(exc)})
        except Exception as exc:
            return 500, {"error": str(exc)}, close
        return 200, {"rows": entries}, close


class _Server(socketserver.ThreadingTCPServer):
    """A threaded TCP server for ``_Handler`` whose ``server_close`` also
    ends open connections.

    Each kept-alive connection has a daemon handler thread, which
    ``server_close`` neither waits for nor stops. Without this, a client
    holding a connection would go on getting rows from a stopped server
    for up to ``IDLE_TIMEOUT_S``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, model: SequenceModel):
        self.model = model
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        super().__init__(address, _Handler)

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
        self._httpd = _Server((self._host, self._port), self.model)
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

