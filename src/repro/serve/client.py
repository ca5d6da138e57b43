"""A keep-alive HTTP client for the admission-control service.

Used by the test-suite, the benchmarks and the CI smoke storm; thin on
purpose — one keep-alive request helper plus one method per endpoint,
each returning ``(status, payload, headers)`` so callers can assert on
shed responses (503 + ``Retry-After``) as easily as on successes.  It
speaks the service's own framing (:mod:`repro.serve.wire`) over a plain
socket.
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
import urllib.parse

from repro.serve import wire

__all__ = ["ServeClient"]


class _Connection:
    """One persistent connection: the socket and its buffered reader."""

    __slots__ = ("sock", "rfile")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class ServeClient:
    """Client for one :class:`~repro.serve.server.AdmissionServer`.

    Each thread that uses the client gets one persistent HTTP/1.1
    connection, kept open between its requests.  Before an idle
    connection is reused it is checked for a close by the server (the
    idle timeout or a drain), and replaced if so.  A request is never
    sent twice: when the connection fails after the request went out,
    the connection is dropped and the call raises an :class:`OSError`,
    because an admit or a remove may already have been applied.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8787"`` (no trailing slash needed).
    timeout:
        Socket timeout in seconds — a client-side backstop strictly
        above the server's deadline budget, so the server's watchdog
        (not the socket) is what bounds a slow request.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme != "http":
            raise ValueError(f"ServeClient speaks plain http, not "
                             f"{self.base_url!r}")
        self._host, self._port, self._prefix = url.hostname, \
            url.port or 80, url.path
        self._fields = {"Host": url.netloc}
        self._json_fields = {"Host": url.netloc,
                             "Content-Type": "application/json"}
        self._local = threading.local()

    def _connection(self) -> _Connection:
        """This thread's connection, replaced if the server closed it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None \
                and select.select([connection.sock], [], [], 0)[0]:
            # An idle keep-alive socket only turns readable when the
            # server closed it; no request is in flight on it.
            self.close()
            connection = None
        if connection is None:
            connection = _Connection(self._host, self._port, self.timeout)
            self._local.connection = connection
        return connection

    def close(self) -> None:
        """Close the calling thread's connection (reopened on demand)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def request(self, method: str, path: str, payload: dict | None = None
                ) -> tuple[int, dict, dict]:
        """One round-trip; returns ``(status, payload, headers)``.

        Non-2xx responses are returned, not raised — the service speaks
        JSON on every status code it emits.  A failed connection, or a
        truncated or garbled response, raises an :class:`OSError` and is
        never retried.
        """
        if payload is None:
            body, fields = None, self._fields
        else:
            body, fields = json.dumps(payload).encode("utf-8"), \
                self._json_fields
        message = wire.encode(f"{method} {self._prefix}{path} HTTP/1.1",
                              fields, body)
        connection = self._connection()
        try:
            connection.sock.sendall(message)
            status, headers, raw = _read_response(connection.rfile)
        except OSError:
            self.close()
            raise
        if "close" in headers.tokens("connection"):
            self.close()
        text = raw.decode("utf-8", "replace")
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError:
            decoded = {"error": text}
        return status, decoded, headers.as_sent()

    # -- endpoints ---------------------------------------------------------

    def health(self) -> tuple[int, dict, dict]:
        """``GET /health``."""
        return self.request("GET", "/health")

    def stats(self) -> tuple[int, dict, dict]:
        """``GET /stats``."""
        return self.request("GET", "/stats")

    def check(self, flow: dict | None = None) -> tuple[int, dict, dict]:
        """``POST /check`` — committed bounds, or a what-if with a flow."""
        return self.request("POST", "/check",
                            {} if flow is None else {"flow": flow})

    def admit(self, flow: dict, *, force: bool = False
              ) -> tuple[int, dict, dict]:
        """``POST /admit``."""
        return self.request("POST", "/admit",
                            {"flow": flow, "force": force})

    def remove(self, name: str) -> tuple[int, dict, dict]:
        """``POST /remove``."""
        return self.request("POST", "/remove", {"name": name})

    # -- readiness ---------------------------------------------------------

    def wait_ready(self, timeout: float = 10.0) -> dict:
        """Poll ``/health`` until the server answers; returns the body.

        Raises ``TimeoutError`` when the server never comes up — the
        smoke tests use this as the readiness gate after (re)start.
        """
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                status, payload, _ = self.health()
                if status == 200:
                    return payload
            except OSError as error:
                last_error = error
            time.sleep(0.05)
        raise TimeoutError(
            f"server at {self.base_url} not ready after {timeout:g}s "
            f"(last error: {last_error})")


def _read_response(rfile) -> tuple[int, wire.Fields, bytes]:
    """``(status, fields, body)`` of the response to one request."""
    line = wire.read_start_line(rfile)
    if line is None:
        raise ConnectionError("the server closed the connection without "
                              "a response")
    status = wire.parse_status_line(line)
    fields = wire.read_fields(rfile)
    length = wire.parse_length(fields.get("content-length", ""))
    if length is None or "transfer-encoding" in fields:
        raise wire.FramingError(502, f"a {status} response without a "
                                     f"usable Content-Length")
    return status, fields, wire.read_body(rfile, length)
