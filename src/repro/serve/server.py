"""The HTTP/JSON admission-control server (stdlib only).

One :class:`AdmissionServer` fronts one
:class:`~repro.serve.engine.AdmissionEngine` with the robustness
contract the service promises:

* **Serialised engine access.**  Handler threads never touch the engine
  for mutations; they enqueue jobs on a *bounded* queue drained by a
  single worker thread, so every admit/remove/check is totally ordered
  and the incremental invariants can never race.
* **Per-request deadline budget.**  Each request carries a watchdog: if
  the worker has not answered within the budget, the handler stops
  waiting and degrades to the last *committed* snapshot, flagged
  ``"degraded": true`` — a request is answered, degraded, or shed, but
  never hangs.  An un-started job whose deadline passed is abandoned
  (compare-and-swap ``PENDING -> ABANDONED``) so the worker skips it
  instead of burning budget on a response nobody is waiting for.
* **Load shedding.**  Once queue depth or the rolling p99 latency
  crosses its threshold the request is shed immediately with ``503``
  and a ``Retry-After`` header — backpressure instead of collapse.
* **Write-ahead durability.**  Committed mutations are journaled before
  the response goes out; a journal append failure (including an
  injected ``journal-eio``) rolls the engine mutation back and answers
  ``500``, so acknowledged state and journaled state never diverge.
* **Graceful drain.**  SIGTERM stops accepting work (``503`` on new
  requests), drains the in-flight queue, folds a final checkpoint and
  exits 0.  SIGKILL needs no cooperation: recovery replays the journal.
* **Keep-alive connections.**  HTTP/1.1 connections persist between
  requests (HTTP/1.0 ones only on request).  Requests are read and
  responses written by :mod:`repro.serve.wire`, each response in one
  send with ``TCP_NODELAY``; an idle connection is closed after
  :data:`IDLE_TIMEOUT`, every route reads the request body before
  answering (so it is never parsed as the next request), framing errors
  answer a JSON error and close, and once the server is draining every
  response closes its connection.

Chaos testing hooks: a :class:`~repro.exec.faults.FaultPlan` makes the
worker wrap each job in :class:`~repro.exec.faults.request_context`
keyed by the request sequence number, so ``req-slow``/``req-exc`` (and
the store/journal fault kinds) fire deterministically at chosen
requests.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Full, Queue

from repro.analysis.engines import DEFAULT_ENGINE
from repro.errors import ConfigurationError
from repro.exec.faults import FaultInjectedError, FaultPlan, request_context
from repro.serve import wire
from repro.serve.engine import AdmissionEngine
from repro.serve.journal import AdmissionJournal
from repro.store import code_version

__all__ = ["AdmissionServer", "ServeConfig"]

#: Seconds a keep-alive connection may sit idle (or a request body may
#: take to arrive) before the server closes it and frees its handler
#: thread.
IDLE_TIMEOUT = 30.0

#: Largest request body accepted, in bytes (one flow is a few hundred).
MAX_BODY = 1 << 20

#: Seconds a connection closed on an error keeps reading (and dropping)
#: what the client still sends, so the client reads the error reply
#: instead of a reset.
LINGER_TIMEOUT = 2.0

#: Rolling window, in requests, of every latency sample kept.
LATENCY_WINDOW = 512

#: Request stages timed for ``/stats`` ``stages_ms``: reading and
#: decoding the request in the handler, waiting for the engine worker,
#: the engine call, the journal append (and checkpoint) of an applied
#: mutation, and writing the response.
STAGES = ("parse", "queue_wait", "engine", "journal", "respond")


@dataclass(frozen=True)
class ServeConfig:
    """Robustness knobs of one server instance (see DESIGN.md §14)."""

    #: Bind address.
    host: str = "127.0.0.1"
    #: Bind port; 0 lets the kernel pick (the bound port is reported by
    #: :attr:`AdmissionServer.port` and on stdout by the CLI).
    port: int = 0
    #: Per-request deadline budget in seconds — the watchdog that turns
    #: a slow analysis into a degraded (cached) answer.
    deadline: float = 0.25
    #: Bounded admission-queue depth; a full queue sheds with 503.
    queue_depth: int = 64
    #: Shed new work once the rolling p99 latency (seconds) crosses
    #: this; ``None`` defaults to twice the deadline budget.
    shed_p99: float | None = None
    #: Seconds clients are told to back off when shed (``Retry-After``).
    retry_after: int = 1
    #: Fold the journal into a checkpoint every this many appends.
    checkpoint_every: int = 256
    #: Bound engine behind the served admission bounds.  The incremental
    #: admission math is calculus-only, so the CLI rejects any other
    #: selection; ``/health`` reports the name with the ``engines``
    #: code-version token so clients can tell which bound implementation
    #: (and source revision) produced their answers.
    engine: str = DEFAULT_ENGINE

    def effective_shed_p99(self) -> float:
        """The p99 shedding threshold actually applied."""
        return self.shed_p99 if self.shed_p99 is not None \
            else 2.0 * self.deadline


# Job lifecycle: PENDING -> RUNNING -> DONE, or PENDING -> ABANDONED
# when the watchdog gave up before the worker picked the job up.
_PENDING, _RUNNING, _DONE, _ABANDONED = "pending", "running", "done", \
    "abandoned"

_STOP = object()


class _Job:
    """One queued engine operation with its watchdog handshake."""

    __slots__ = ("seq", "op", "payload", "force", "state", "status",
                 "result", "lock", "done", "enqueued", "journal_s")

    def __init__(self, seq: int, op: str, payload, force: bool = False
                 ) -> None:
        self.seq = seq
        self.op = op
        self.payload = payload
        self.force = force
        self.state = _PENDING
        self.status = 500
        self.result = None
        self.lock = threading.Lock()
        self.done = threading.Event()
        #: ``perf_counter`` instant the job was queued, and the seconds
        #: its journal append took (0 when nothing was journaled).
        self.enqueued = time.perf_counter()
        self.journal_s = 0.0

    def try_abandon(self) -> bool:
        """CAS ``PENDING -> ABANDONED``; False if the worker got there."""
        with self.lock:
            if self.state == _PENDING:
                self.state = _ABANDONED
                return True
            return False

    def try_start(self) -> bool:
        """CAS ``PENDING -> RUNNING``; False if the watchdog gave up."""
        with self.lock:
            if self.state == _PENDING:
                self.state = _RUNNING
                return True
            return False


class AdmissionServer:
    """The long-lived service; see the module docstring for the contract.

    Parameters
    ----------
    engine:
        The (already recovered) admission engine to serve.
    config:
        Robustness knobs.
    journal:
        Write-ahead journal, or ``None`` to run without persistence.
    faults:
        Deterministic chaos plan applied per request sequence number.
    """

    def __init__(self, engine: AdmissionEngine,
                 config: ServeConfig | None = None,
                 journal: AdmissionJournal | None = None,
                 faults: FaultPlan | None = None) -> None:
        self.engine = engine
        self.config = config or ServeConfig()
        self.journal = journal
        self.faults = faults
        self.draining = False
        self._queue: Queue = Queue(maxsize=self.config.queue_depth)
        self._seq_lock = threading.Lock()
        self._seq = 0
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._stages = {stage: deque(maxlen=LATENCY_WINDOW)
                        for stage in STAGES}
        self._counters = {"served": 0, "degraded": 0, "shed": 0,
                          "errors": 0, "abandoned": 0}
        self._counters_lock = threading.Lock()
        self._httpd: _HTTPServer | None = None
        self._worker: threading.Thread | None = None
        self._started = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[1]

    def start(self) -> None:
        """Bind the socket and start the worker + acceptor threads."""
        server = self

        class _Handler(_RequestHandler):
            serve_ref = server

        self._httpd = _HTTPServer((self.config.host, self.config.port),
                                  _Handler)
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="serve-worker", daemon=True)
        self._worker.start()
        self._acceptor = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-acceptor", daemon=True)
        self._acceptor.start()

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting, finish queued work, checkpoint; True if clean.

        This is the SIGTERM path: already-accepted requests are answered
        (or degraded by their own watchdogs), then the final flow table
        is checkpointed so the next start recovers instantly.
        """
        self.draining = True
        deadline = time.monotonic() + timeout
        clean = True
        while not self._queue.empty():
            if time.monotonic() >= deadline:
                clean = False
                break
            time.sleep(0.01)
        self._queue.put(_STOP)
        if self._worker is not None:
            self._worker.join(timeout=max(0.1,
                                          deadline - time.monotonic()))
            clean = clean and not self._worker.is_alive()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self.journal is not None:
            self.journal.checkpoint(self.engine.flow_payloads())
            self.journal.close()
        return clean

    # -- the single engine worker ------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            if not job.try_start():
                self._bump("abandoned")
                continue
            started = time.perf_counter()
            try:
                if self.faults is not None:
                    with request_context(self.faults, job.seq):
                        status, payload = self._dispatch(job)
                else:
                    status, payload = self._dispatch(job)
            except FaultInjectedError as error:
                status, payload = 500, {"error": str(error),
                                        "injected": True}
            except ConfigurationError as error:
                status, payload = 400, {"error": str(error)}
            except OSError as error:
                status, payload = 500, {"error": f"journal append "
                                        f"failed: {error}"}
            except Exception as error:  # never kill the worker
                status, payload = 500, {"error": f"internal error: "
                                        f"{error}"}
            elapsed = time.perf_counter() - started
            self._latencies.append(elapsed)
            self._stages["queue_wait"].append(started - job.enqueued)
            self._stages["engine"].append(elapsed - job.journal_s)
            job.status = status
            job.result = payload
            with job.lock:
                job.state = _DONE
            job.done.set()

    def _dispatch(self, job: _Job) -> tuple[int, dict]:
        engine, journal = self.engine, self.journal
        if job.op == "check":
            decision = engine.check(job.payload)
            return 200, decision.to_payload()
        if job.op == "admit":
            decision = engine.admit(job.payload, force=job.force)
            if decision.applied and journal is not None:
                flow = engine.flow_payload(decision.flow)
                # Roll back so acknowledged state == journaled state;
                # removal restores the pre-admit aggregates
                # bit-identically (the metamorphic property).
                self._journal(job, {"op": "admit", "flow": flow},
                              lambda: engine.remove(decision.flow))
            return (200 if decision.applied else 409), \
                decision.to_payload()
        if job.op == "remove":
            name = job.payload
            rollback = engine.flow_payload(name) if name in engine else None
            decision = engine.remove(name)
            if decision.applied and journal is not None:
                self._journal(job, {"op": "remove", "name": name},
                              lambda: engine.admit(rollback, force=True))
            return (200 if decision.applied else 404), \
                decision.to_payload()
        return 400, {"error": f"unknown operation {job.op!r}"}

    def _journal(self, job: _Job, record: dict, rollback) -> None:
        """Append an applied mutation; on failure undo it and re-raise."""
        started = time.perf_counter()
        try:
            self.journal.append(record)
        except OSError:
            rollback()
            raise
        self.journal.maybe_checkpoint(self.engine.flow_payloads)
        job.journal_s = time.perf_counter() - started
        self._stages["journal"].append(job.journal_s)

    # -- request-side helpers ----------------------------------------------

    def next_seq(self) -> int:
        """The request sequence number (doubles as the fault cell)."""
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _bump(self, counter: str) -> None:
        with self._counters_lock:
            self._counters[counter] += 1

    def record_stage(self, stage: str, seconds: float) -> None:
        """Add one sample to a request stage's rolling window."""
        self._stages[stage].append(seconds)

    def p99_latency(self) -> float:
        """Rolling p99 of worker-side latencies (seconds)."""
        return _quantile(self._latencies, 0.99)

    def should_shed(self) -> str | None:
        """A human reason to shed the request right now, or ``None``."""
        if self.draining:
            return "server is draining"
        if self._queue.qsize() >= self.config.queue_depth:
            return "admission queue is full"
        if self.p99_latency() > self.config.effective_shed_p99():
            return "rolling p99 latency over threshold"
        return None

    def submit(self, op: str, payload, *, force: bool = False
               ) -> tuple[int, dict, dict]:
        """Enqueue one engine operation and await it under the budget.

        Returns ``(status, payload, extra_headers)``.  Every path is
        bounded: shed (503), answered (worker), or degraded (watchdog).
        """
        seq = self.next_seq()
        reason = self.should_shed()
        if reason is None:
            job = _Job(seq, op, payload, force)
            try:
                self._queue.put_nowait(job)
            except Full:
                reason = "admission queue is full"
        if reason is not None:
            self._bump("shed")
            return 503, {"error": reason, "shed": True,
                         "request_seq": seq}, \
                {"Retry-After": str(self.config.retry_after)}
        if job.done.wait(timeout=self.config.deadline):
            self._bump("served")
            body = dict(job.result)
            body["degraded"] = False
            body["request_seq"] = seq
            if job.status >= 500:
                self._bump("errors")
            return job.status, body, {}
        # Watchdog fired: degrade to the last committed snapshot.
        job.try_abandon()
        self._bump("degraded")
        snapshot = self.engine.snapshot()
        return 200, {"operation": op, "applied": False, "flow": None,
                     "degraded": True, "request_seq": seq,
                     "reasons": [f"deadline budget "
                                 f"{self.config.deadline:g}s exceeded; "
                                 f"returning last committed bounds"],
                     "snapshot": snapshot.to_payload()}, {}

    def health_payload(self) -> dict:
        """The ``GET /health`` body (also the CLI's readiness probe)."""
        snapshot = self.engine.snapshot()
        store = self.engine.store
        body = {
            "status": "draining" if self.draining else "ok",
            "ready": not self.draining,
            "flow_count": snapshot.flow_count,
            "feasible": snapshot.feasible,
            "policy": snapshot.policy,
            "engine": {"name": self.config.engine,
                       "token": code_version("engines")},
            "state_fingerprint": snapshot.state_fingerprint,
            "bounds_fingerprint": snapshot.bounds_fingerprint(),
        }
        if store is not None:
            body["store"] = store.health()
            if body["store"]["degraded"]:
                body["status"] = "degraded"
        if self.journal is not None:
            body["journal"] = {"path": str(self.journal.journal_path),
                               "seq": self.journal._seq}
        return body

    def stats_payload(self) -> dict:
        """The ``GET /stats`` body."""
        with self._counters_lock:
            counters = dict(self._counters)
        counters.update({
            "queue_depth": self._queue.qsize(),
            "p99_latency": self.p99_latency(),
            "deadline": self.config.deadline,
            "incremental_hits": self.engine.incremental_hits,
            "full_recomputes": self.engine.full_recomputes,
            "uptime": time.monotonic() - self._started,
            "stages_ms": {stage: {"p50": _quantile(sample, 0.5) * 1e3,
                                  "p99": _quantile(sample, 0.99) * 1e3}
                          for stage, sample in self._stages.items()},
        })
        return counters


def _quantile(sample, q: float) -> float:
    """The nearest-rank ``q`` quantile of ``sample``; 0 when empty."""
    ordered = sorted(sample)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


class _HTTPServer(socketserver.ThreadingTCPServer):
    """Accepts connections; one daemon handler thread per connection."""

    allow_reuse_address = True
    #: The drain never waits for a handler thread (an idle keep-alive
    #: connection would hold it up to :data:`IDLE_TIMEOUT`).
    daemon_threads = True


class _RequestHandler(socketserver.StreamRequestHandler):
    """Reads requests off one connection and routes them onto the server.

    The framing is :mod:`repro.serve.wire`; no engine access in here.
    """

    serve_ref: AdmissionServer = None  # patched per server instance
    #: Each response goes out in one send, but a pipelined response or
    #: the tail of a large one can still follow an unacknowledged
    #: segment; ``TCP_NODELAY`` keeps Nagle's algorithm from holding it
    #: for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._handle_one()
        except OSError:
            pass  # the client went away, or the idle timeout fired

    def _handle_one(self) -> None:
        """Read one request, answer it, and note whether to keep going."""
        self._version = (1, 1)  # until the request line says otherwise
        try:
            line = wire.read_start_line(self.rfile)
            if line == "":  # an empty line before a request (RFC 9112 §2.2)
                line = wire.read_start_line(self.rfile)
            if line is None:
                self.close_connection = True
                return
            self._received = time.perf_counter()
            self.command, self.path, self._version = \
                wire.parse_request_line(line)
            self.headers = wire.read_fields(self.rfile)
        except wire.FramingError as error:
            self._respond_and_close(error.status, {"error": str(error)})
            return
        connection = self.headers.tokens("connection")
        if self._version >= (1, 1):
            self.close_connection = "close" in connection
        else:  # HTTP/1.0 persists only on request
            self.close_connection = "keep-alive" not in connection
        route = _ROUTES.get(self.command)
        if route is None:
            self._respond_and_close(501, {
                "error": f"Unsupported method ({self.command!r})"})
            return
        route(self)

    def _respond(self, status: int, payload: dict,
                 headers: dict | None = None) -> None:
        """Send one JSON response in a single write."""
        body = json.dumps(payload).encode("utf-8")
        fields = {"Date": wire.http_date(),
                  "Content-Type": "application/json"}
        if headers:
            fields.update(headers)
        if self.serve_ref.draining:
            self.close_connection = True
        if self.close_connection:
            fields["Connection"] = "close"
        elif self._version < (1, 1):
            fields["Connection"] = "keep-alive"
        self.connection.sendall(
            wire.encode(wire.status_line(status), fields, body))

    def _respond_and_close(self, status: int, payload: dict) -> None:
        """An error reply that closes a connection whose input may hold
        an unread body.

        Closing a socket with unread input resets the connection, and
        the client may lose the reply (or fail its own send of the
        body).  So the write side is shut first and what the client
        still sends is dropped until it closes, up to
        :data:`LINGER_TIMEOUT` seconds and :data:`MAX_BODY` bytes.
        """
        self.close_connection = True
        deadline = time.monotonic() + LINGER_TIMEOUT
        dropped = 0
        try:
            self._respond(status, payload)
            self.connection.shutdown(socket.SHUT_WR)
            while dropped <= MAX_BODY:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self.connection.settimeout(left)
                chunk = self.connection.recv(65536)
                if not chunk:
                    break
                dropped += len(chunk)
        except OSError:
            pass  # reset or timed out: the reply went out either way

    def _read_raw(self) -> bytes | None:
        """The request body, or ``None`` once a framing error is answered.

        Every route reads the body before it answers, so an unread body
        is never parsed as the next request on a keep-alive connection.
        A body whose length cannot be known closes the connection.
        """
        headers = self.headers
        length = headers.get("content-length", "0")
        size = wire.parse_length(length)
        if "transfer-encoding" in headers:
            status, error = 501, "Transfer-Encoding is not supported; " \
                "send a Content-Length"
        elif size is None:
            status, error = 400, f"invalid Content-Length {length!r}"
        elif size > MAX_BODY:
            status, error = 413, f"Content-Length {length[:20]} is over " \
                f"the {MAX_BODY}-byte limit"
        else:
            if size and self._version >= (1, 1) \
                    and headers.get("expect", "").lower() == "100-continue":
                self.connection.sendall(wire.CONTINUE)
            return wire.read_body(self.rfile, size)
        self._respond_and_close(status, {"error": error})
        return None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - HTTP method casing
        """Answer ``GET /health`` and ``GET /stats``."""
        server = self.serve_ref
        if self._read_raw() is None:
            return
        if self.path == "/health":
            self._respond(200, server.health_payload())
        elif self.path == "/stats":
            self._respond(200, server.stats_payload())
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - HTTP method casing
        """Answer ``POST /admit``, ``/remove`` and ``/check``."""
        server = self.serve_ref
        raw = self._read_raw()
        if raw is None:
            return
        route = self.path.rstrip("/")
        if route not in ("/admit", "/remove", "/check"):
            self._respond(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            body = _decode_body(raw)
        except ConfigurationError as error:
            self._respond(400, {"error": str(error)})
            return
        server.record_stage("parse", time.perf_counter() - self._received)
        if route == "/admit":
            status, payload, headers = server.submit(
                "admit", body.get("flow"), force=bool(body.get("force")))
        elif route == "/remove":
            name = body.get("name")
            if not isinstance(name, str) or not name:
                self._respond(400, {"error": "remove needs a non-empty "
                                    "'name' string"})
                return
            status, payload, headers = server.submit("remove", name)
        else:
            status, payload, headers = server.submit(
                "check", body.get("flow"))
        started = time.perf_counter()
        self._respond(status, payload, headers)
        server.record_stage("respond", time.perf_counter() - started)


_ROUTES = {"GET": _RequestHandler.do_GET, "POST": _RequestHandler.do_POST}


def _decode_body(raw: bytes) -> dict:
    """A request body as a JSON object (``{}`` when empty)."""
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ConfigurationError(f"request body is not valid JSON: "
                                 f"{error}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError("request body must be a JSON object")
    return payload
