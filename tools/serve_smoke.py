#!/usr/bin/env python3
"""End-to-end chaos smoke of ``repro serve`` (the CI ``serve-smoke`` job).

Drives a real server subprocess through the full robustness contract:

1. start ``repro serve`` on an ephemeral port with a journal and a
   deterministic fault plan (``req-exc``, ``req-slow``, ``journal-eio``,
   ``journal-torn``), parse the bound port off the startup line;
2. fire a sequential fault-injected request storm and assert every
   request is answered, degraded or shed — never hung (a client-side
   socket timeout is the failure detector) — with the injected faults
   surfacing as their documented status codes, then probe the server's
   framing over raw sockets: two pipelined requests in one send, a
   request sent one byte at a time and an ``Expect: 100-continue``
   request;
3. SIGKILL the server mid-life, restart it on the same journal and
   assert the recovered state and bounds fingerprints are **byte
   identical** to the last acknowledged pre-kill state (the torn journal
   line is survivable because its flow was removed again before the
   kill — at-most-once semantics);
4. SIGTERM the restarted server while the client holds an idle
   keep-alive connection, and assert it drains and exits 0.

Run from the repository root::

    python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import socket
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

from repro.serve import ServeClient, wire  # noqa: E402

#: Client-side timeout: any request slower than this counts as hung.
CLIENT_TIMEOUT = 10.0

#: The deterministic chaos plan, keyed by request sequence number (POST
#: requests only; health/readiness GETs never consume a sequence).  The
#: storm below is built so each fault lands on the intended request.
#: The req-slow sleep (0.4s) sits between the 0.25s deadline budget
#: (so the request degrades) and the 0.5s p99 shed threshold (so the
#: storm's tail is answered, not shed).
FAULT_PLAN = "req-exc@5,journal-eio@7,journal-torn@9,req-slow@12:0.4"


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}")
    sys.exit(1)


def start_server(journal: Path, *, faults: str | None = None
                 ) -> tuple[subprocess.Popen, ServeClient, str]:
    command = [sys.executable, "-m", "repro", "serve",
               "--scenario", "paper-real-case",
               "--policy", "strict-priority",
               "--host", "127.0.0.1", "--port", "0",
               "--no-store", "--journal", str(journal)]
    if faults:
        command += ["--faults", faults]
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"),
               PYTHONUNBUFFERED="1")
    process = subprocess.Popen(command, cwd=_ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT)
    line = process.stdout.readline().strip()
    print(f"serve-smoke: startup: {line}")
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    if not match:
        process.kill()
        fail(f"could not parse the bound port from {line!r}")
    client = ServeClient(f"http://127.0.0.1:{match.group(1)}",
                         timeout=CLIENT_TIMEOUT)
    body = client.wait_ready(timeout=30.0)
    if not body.get("ready"):
        fail(f"server came up not ready: {body}")
    return process, client, line


def flow(name: str) -> dict:
    return {"name": name, "kind": "sporadic", "period": 1.0,
            "size": 100.0, "source": "station-00",
            "destination": "station-01", "deadline": None}


def expect(label: str, got, wanted) -> None:
    if got != wanted:
        fail(f"{label}: expected {wanted!r}, got {got!r}")
    print(f"serve-smoke: ok: {label}")


def storm(client: ServeClient) -> None:
    """The fault-injected request storm (sequence numbers matter)."""
    status, body, _ = client.check()                              # seq 1
    expect("seq 1 baseline check", status, 200)
    status, body, _ = client.admit(flow("smoke-a"), force=True)   # seq 2
    expect("seq 2 admit smoke-a", (status, body["applied"]), (200, True))
    status, body, _ = client.admit(flow("smoke-b"), force=True)   # seq 3
    expect("seq 3 admit smoke-b", (status, body["applied"]), (200, True))
    status, body, _ = client.check(flow("smoke-whatif"))          # seq 4
    expect("seq 4 what-if check", status, 200)
    status, body, _ = client.admit(flow("smoke-x"), force=True)   # seq 5
    expect("seq 5 injected req-exc is a 500",
           (status, body.get("injected")), (500, True))
    status, body, _ = client.admit(flow("smoke-x"), force=True)   # seq 6
    expect("seq 6 retry after req-exc", (status, body["applied"]),
           (200, True))
    status, body, _ = client.admit(flow("smoke-y"), force=True)   # seq 7
    if status != 500 or "journal append failed" not in body.get("error", ""):
        fail(f"seq 7 journal-eio: expected a journal 500, got "
             f"{status} {body}")
    print("serve-smoke: ok: seq 7 journal-eio rolled back with a 500")
    status, body, _ = client.admit(flow("smoke-y"), force=True)   # seq 8
    expect("seq 8 retry after journal-eio", (status, body["applied"]),
           (200, True))
    status, body, _ = client.admit(flow("smoke-z"), force=True)   # seq 9
    expect("seq 9 admit under journal-torn is acknowledged",
           (status, body["applied"]), (200, True))
    status, body, _ = client.remove("smoke-z")                    # seq 10
    expect("seq 10 remove the torn-line flow",
           (status, body["applied"]), (200, True))
    status, body, _ = client.remove("smoke-b")                    # seq 11
    expect("seq 11 remove smoke-b", (status, body["applied"]), (200, True))
    status, body, _ = client.check()                              # seq 12
    if not (status == 200 and body.get("degraded")):
        fail(f"seq 12 req-slow: expected a degraded 200, got "
             f"{status} {body}")
    print("serve-smoke: ok: seq 12 req-slow degraded to cached bounds")
    # Let the worker finish the injected sleep so the next request is
    # served inside its own deadline budget instead of degrading too.
    time.sleep(1.0)
    status, body, _ = client.admit(flow("smoke-a"))               # seq 13
    expect("seq 13 duplicate admit is a 409", status, 409)
    status, body, _ = client.remove("never-admitted")             # seq 14
    expect("seq 14 unknown remove is a 404", status, 404)


def _read_response(rfile) -> tuple[int, dict | None]:
    """``(status, JSON body)`` of the next response (no body for 1xx)."""
    line = wire.read_start_line(rfile)
    if line is None:
        fail("the server closed the connection without a response")
    status = wire.parse_status_line(line)
    fields = wire.read_fields(rfile)
    if status < 200:
        return status, None
    body = wire.read_body(rfile, int(fields.get("content-length", "0")))
    return status, json.loads(body)


def probe_framing(client: ServeClient) -> None:
    """Requests the service's own client never sends, over raw sockets.

    Each ``/check`` consumes a request sequence number, so this runs
    after the storm: the fault plan's numbers stay where they were.
    """
    port = int(client.base_url.rsplit(":", 1)[1])
    check = (b"POST /check HTTP/1.1\r\nHost: smoke\r\n"
             b"Content-Length: 2\r\n\r\n{}")
    health = b"GET /health HTTP/1.1\r\nHost: smoke\r\n\r\n"
    whatif = json.dumps({"flow": flow("smoke-probe")}).encode("utf-8")

    def connect():
        sock = socket.create_connection(("127.0.0.1", port),
                                        timeout=CLIENT_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    sock, rfile = connect()
    with sock, rfile:
        sock.sendall(check + health)
        (first, checked), (second, healthy) = \
            _read_response(rfile), _read_response(rfile)
        expect("probe: pipelined pair in one send",
               (first, checked["operation"], second, healthy["status"]),
               (200, "check", 200, "ok"))
    sock, rfile = connect()
    with sock, rfile:
        for index in range(len(check)):
            sock.sendall(check[index:index + 1])
        status, body = _read_response(rfile)
        expect("probe: request sent one byte at a time",
               (status, body["operation"]), (200, "check"))
    sock, rfile = connect()
    with sock, rfile:
        sock.sendall(b"POST /check HTTP/1.1\r\nHost: smoke\r\n"
                     b"Expect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(whatif))
        expect("probe: Expect: 100-continue is answered",
               _read_response(rfile)[0], 100)
        sock.sendall(whatif)
        status, body = _read_response(rfile)
        expect("probe: the body after 100 Continue is served",
               (status, body["flow"]), (200, "smoke-probe"))


def main() -> None:
    journal = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-")) \
        / "journal"

    # -- phase 1: fault-injected storm ----------------------------------
    process, client, _ = start_server(journal, faults=FAULT_PLAN)
    try:
        started = time.monotonic()
        storm(client)
        print(f"serve-smoke: storm finished in "
              f"{time.monotonic() - started:.1f}s with no hung requests")
        probe_framing(client)
        # Wait out the req-slow worker sleep so the degraded check's
        # eventual completion is not racing the SIGKILL below.
        time.sleep(1.0)
        _, health, _ = client.health()
        pre_kill_state = health["state_fingerprint"]
        pre_kill_bounds = health["bounds_fingerprint"]
        pre_kill_flows = health["flow_count"]
        _, stats, _ = client.stats()
        print(f"serve-smoke: pre-kill: {pre_kill_flows} flows, "
              f"served={stats['served']} degraded={stats['degraded']} "
              f"errors={stats['errors']}")
        if stats["errors"] < 2:
            fail("expected at least the two injected 500s in the "
                 "error counter")
    finally:
        # -- phase 2: SIGKILL (no drain, no final checkpoint) -----------
        process.kill()
        process.wait(timeout=30)
    print("serve-smoke: SIGKILLed the server")

    # -- phase 3: restart + byte-identical journal recovery -------------
    process, client, line = start_server(journal)
    try:
        if "recovered" not in line:
            fail(f"restart did not report journal recovery: {line!r}")
        _, health, _ = client.health()
        expect("recovered state fingerprint is byte-identical",
               health["state_fingerprint"], pre_kill_state)
        expect("recovered bounds fingerprint is byte-identical",
               health["bounds_fingerprint"], pre_kill_bounds)
        expect("recovered flow count", health["flow_count"],
               pre_kill_flows)
        expect("recovered server is ready", health["ready"], True)
        status, body, _ = client.remove("smoke-a")
        expect("recovered server serves mutations",
               (status, body["applied"]), (200, True))
    except BaseException:
        process.kill()
        raise

    # -- phase 4: SIGTERM drains and exits 0 ----------------------------
    # The client's connection stays open and idle across the signal: an
    # idle keep-alive connection must not hold the drain up.
    status, _, headers = client.health()
    expect("connection held open before SIGTERM",
           (status, headers.get("Connection")), (200, None))
    process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        fail("SIGTERM did not drain within 30s")
    tail = process.stdout.read()
    print(f"serve-smoke: drain output: {tail.strip()}")
    expect("SIGTERM exits 0", code, 0)
    if "drained:" not in tail:
        fail(f"drain summary missing from output: {tail!r}")
    print("serve-smoke: PASS")


if __name__ == "__main__":
    main()
