"""A stdlib HTTP client for the admission-control service.

Used by the test-suite, the benchmarks and the CI smoke storm; thin on
purpose — one keep-alive request helper plus one method per endpoint,
each returning ``(status, payload, headers)`` so callers can assert on
shed responses (503 + ``Retry-After``) as easily as on successes.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse

__all__ = ["ServeClient"]


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
        self._host, self._port, self._prefix = url.hostname, url.port, \
            url.path
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, replaced if the server closed it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and connection.sock is not None \
                and select.select([connection.sock], [], [], 0)[0]:
            # An idle keep-alive socket only turns readable when the
            # server closed it; no request is in flight on it.
            connection.close()
            connection = None
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout)
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
        JSON on every status code it emits.  A failed connection raises
        an :class:`OSError` and is never retried.
        """
        body = None if payload is None else \
            json.dumps(payload).encode("utf-8")
        connection = self._connection()
        try:
            connection.request(method, self._prefix + path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read().decode("utf-8", "replace")
        except OSError:
            self.close()
            raise
        except http.client.HTTPException as error:  # a garbled response
            self.close()
            raise ConnectionError(f"{method} {path}: {error!r}") from error
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError:
            decoded = {"error": raw}
        return response.status, decoded, dict(response.headers)

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
