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

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .errors import ExpertUnavailableError, UndefinedConditionalError
from .lmcore import ROW_TOL, Alphabet, SequenceModel, string_log_prob
from .logtools import LOG_ZERO, logsumexp

DEFAULT_DEFECT_TOL = 1e-2
#: Seconds between the serving thread's shutdown checks; ``stop`` waits
#: for at most one of them.
POLL_INTERVAL_S = 0.05


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
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.defect_tol = defect_tol
        #: (context, linear-domain row sum) pairs for every renormalized row.
        self.defects: list[tuple[str, float]] = []
        self._cache: dict[str, np.ndarray] = {}
        self.alphabet = alphabet if alphabet is not None else self._fetch_alphabet()

    # -- transport ------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            req = urllib.request.Request(
                self.base_url + path,
                data=body,
                method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    return json.loads(resp.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                if exc.code == 422:
                    detail = ""
                    try:
                        detail = json.loads(exc.read().decode("utf-8")).get("error", "")
                    except Exception:
                        pass
                    raise UndefinedConditionalError(
                        detail or f"server rejected the context ({path})"
                    )
                if 400 <= exc.code < 500:
                    raise ExpertUnavailableError(
                        f"{method} {path} failed with HTTP {exc.code}"
                    )
                last_error = exc
            except (urllib.error.URLError, OSError, ValueError) as exc:
                last_error = exc
        raise ExpertUnavailableError(
            f"{method} {path} failed after {self.retries} attempts: {last_error}"
        )

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


class ModelServer:
    """Serve a local model over the wire protocol (loopback demos, tests).

    Runs a threaded HTTP server; use as a context manager or call
    ``start``/``stop``. ``url`` gives the base URL once started.
    """

    def __init__(self, model: SequenceModel, host: str = "127.0.0.1", port: int = 0):
        self.model = model
        self._host = host
        self._port = port
        self._httpd: ThreadingHTTPServer | None = None
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
            def log_message(self, *args):  # keep test output quiet
                pass

            def _send(self, code: int, payload: dict) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/alphabet":
                    self._send(200, {"symbols": list(alphabet.symbols)})
                else:
                    self._send(404, {"error": "unknown path"})

            def do_POST(self):
                if self.path != "/next":
                    self._send(404, {"error": "unknown path"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    payload = json.loads(self.rfile.read(length).decode("utf-8"))
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

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
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
