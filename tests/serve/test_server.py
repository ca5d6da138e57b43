"""The HTTP admission-control server: routing, watchdogs, shedding,
fault injection, journal durability, crash recovery and keep-alive
connections."""

import contextlib
import http.client
import io
import json
import socket
import sys
import threading
import time

import pytest

from repro import units
from repro.campaigns.scenario import Scenario, TopologySpec, WorkloadSpec
from repro.exec.faults import FaultPlan, request_context
from repro.serve import (
    AdmissionEngine,
    AdmissionJournal,
    AdmissionServer,
    ServeClient,
    ServeConfig,
)
from repro.serve import server as server_module
from repro.serve import wire
from repro.store import ResultStore


def scenario():
    return Scenario(name="serve-http", description="server test scenario",
                    workload=WorkloadSpec(station_count=6, seed=3),
                    topology=TopologySpec("single-switch-star"),
                    capacity=units.mbps(10.0),
                    technology_delay=units.us(16.0),
                    policies=("strict-priority", "fcfs"))


def probe(name="probe-1", **overrides):
    payload = {"name": name, "kind": "sporadic", "period": 1.0,
               "size": 100.0, "source": "station-00",
               "destination": "station-01", "deadline": None}
    payload.update(overrides)
    return payload


@contextlib.contextmanager
def serving(engine=None, config=None, journal=None, faults=None):
    engine = engine or AdmissionEngine(scenario(), "strict-priority")
    server = AdmissionServer(engine,
                             config or ServeConfig(port=0, deadline=2.0),
                             journal=journal, faults=faults)
    server.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    client.wait_ready()
    try:
        yield server, client
    finally:
        server.drain(timeout=10.0)
        client.close()


class TestRoutes:
    def test_health_reports_the_committed_state(self):
        with serving() as (server, client):
            status, body, _ = client.health()
            assert status == 200
            assert body["status"] == "ok"
            assert body["ready"] is True
            assert body["policy"] == "strict-priority"
            assert body["flow_count"] == \
                server.engine.snapshot().flow_count
            assert body["state_fingerprint"] == \
                server.engine.state_fingerprint()
            assert body["bounds_fingerprint"] == \
                server.engine.snapshot().bounds_fingerprint()

    def test_admit_remove_round_trip(self):
        with serving() as (server, client):
            status, body, _ = client.admit(probe())
            assert status == 200
            assert body["applied"] is True
            assert body["degraded"] is False
            status, body, _ = client.admit(probe())
            assert status == 409  # duplicate name
            status, body, _ = client.remove("probe-1")
            assert status == 200
            assert body["applied"] is True
            status, body, _ = client.remove("probe-1")
            assert status == 404
            assert "not admitted" in body["reasons"][0]

    def test_check_is_a_pure_what_if(self):
        with serving() as (server, client):
            before = server.engine.state_fingerprint()
            status, body, _ = client.check(probe())
            assert status == 200
            assert body["snapshot"]["flow_count"] == \
                server.engine.snapshot().flow_count + 1
            assert server.engine.state_fingerprint() == before

    def test_bad_flow_payload_is_a_400(self):
        with serving() as (_, client):
            status, body, _ = client.admit(probe(bogus_field=1))
            assert status == 400
            assert "unknown flow field" in body["error"]

    def test_malformed_json_body_is_a_400(self):
        with serving() as (_, client):
            import urllib.request
            request = urllib.request.Request(
                client.base_url + "/admit", data=b"{torn", method="POST")
            import urllib.error
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 400

    def test_remove_requires_a_name(self):
        with serving() as (_, client):
            status, body, _ = client.request("POST", "/remove", {})
            assert status == 400
            assert "name" in body["error"]

    def test_unknown_paths_are_404(self):
        with serving() as (_, client):
            assert client.request("GET", "/nope")[0] == 404
            assert client.request("POST", "/nope", {})[0] == 404

    def test_stats_counts_served_requests(self):
        with serving() as (_, client):
            client.admit(probe())
            client.remove("probe-1")
            status, body, _ = client.stats()
            assert status == 200
            assert body["served"] >= 2
            assert body["shed"] == 0
            assert body["incremental_hits"] >= 2
            assert body["p99_latency"] >= 0.0
            stages = body["stages_ms"]
            assert tuple(stages) == ("parse", "queue_wait", "engine",
                                     "journal", "respond")
            for stage, quantiles in stages.items():
                assert set(quantiles) == {"p50", "p99"}, stage
                assert 0.0 <= quantiles["p50"] <= quantiles["p99"], stage
            for stage in ("parse", "engine", "respond"):
                assert stages[stage]["p50"] > 0.0, stage
            # No journal: nothing was appended, so its window is empty.
            assert stages["journal"] == {"p50": 0.0, "p99": 0.0}

    def test_journal_stage_is_timed_when_journaling(self, tmp_path):
        with serving(journal=AdmissionJournal(tmp_path / "j")) \
                as (_, client):
            client.admit(probe())
            _, body, _ = client.stats()
            assert body["stages_ms"]["journal"]["p50"] > 0.0


class TestWatchdogAndShedding:
    def test_slow_request_degrades_to_the_committed_snapshot(self):
        # shed_p99 far above the injected latency so this test sees the
        # watchdog, not the shedder (that one has its own test below).
        config = ServeConfig(port=0, deadline=0.15, shed_p99=10.0)
        faults = FaultPlan.parse("req-slow@1:1.0")
        with serving(config=config, faults=faults) as (server, client):
            committed = server.engine.snapshot()
            status, body, _ = client.admit(probe())
            assert status == 200
            assert body["degraded"] is True
            assert body["applied"] is False
            assert "deadline budget" in body["reasons"][0]
            assert body["snapshot"]["state_fingerprint"] == \
                committed.state_fingerprint
            # Wait the injected sleep out, then the worker serves again.
            deadline = time.monotonic() + 5.0
            while not server._latencies and time.monotonic() < deadline:
                time.sleep(0.02)
            status, body, _ = client.admit(probe("probe-2"))
            assert status == 200
            assert body["degraded"] is False
            assert body["applied"] is True
            assert server._counters["degraded"] == 1

    def test_draining_server_sheds_with_retry_after(self):
        with serving() as (server, client):
            server.draining = True
            status, body, headers = client.admit(probe())
            assert status == 503
            assert body["shed"] is True
            assert headers.get("Retry-After") == "1"
            assert headers.get("Connection") == "close"
            server.draining = False  # let the fixture drain cleanly

    def test_p99_over_threshold_sheds(self):
        with serving(config=ServeConfig(port=0, deadline=0.2)) \
                as (server, client):
            server._latencies.extend([1.0] * 100)
            assert server.should_shed() == \
                "rolling p99 latency over threshold"
            status, body, _ = client.admit(probe())
            assert status == 503
            server._latencies.clear()

    def test_full_queue_sheds(self):
        config = ServeConfig(port=0, deadline=0.1, queue_depth=1)
        faults = FaultPlan.parse("req-slow@1:1.0")
        with serving(config=config, faults=faults) as (server, client):
            # Request 1 blocks the worker; its watchdog degrades it.
            status, body, _ = client.check()
            assert body["degraded"] is True
            # The queue (depth 1) still holds nothing, but a second
            # blocked worker cycle fills it deterministically:
            server._queue.put(object())
            status, body, headers = client.check()
            assert status == 503
            assert "Retry-After" in headers
            server._queue.get()  # unblock the drain

    def test_p99_latency_of_an_empty_sample_is_zero(self):
        engine = AdmissionEngine(scenario(), "strict-priority")
        server = AdmissionServer(engine, ServeConfig(port=0))
        assert server.p99_latency() == 0.0


class TestRequestFaults:
    def test_req_exc_is_a_deterministic_500(self):
        faults = FaultPlan.parse("req-exc@1")
        with serving(faults=faults) as (server, client):
            status, body, _ = client.admit(probe())
            assert status == 500
            assert body["injected"] is True
            # The engine never saw the mutation.
            assert "probe-1" not in server.engine.flow_names()
            status, body, _ = client.admit(probe())
            assert status == 200 and body["applied"] is True
            assert server._counters["errors"] == 1


class TestJournalDurability:
    def test_committed_mutations_are_journaled(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "j")
        with serving(journal=journal) as (_, client):
            client.admit(probe())
            client.remove("probe-1")
        state = AdmissionJournal(tmp_path / "j").recover()
        # drain() folded the final checkpoint; the table is the preload.
        assert state.checkpoint_seq == 2
        assert state.operations == ()
        assert len(state.flows) > 0

    def test_rejected_admits_are_not_journaled(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "j")
        with serving(journal=journal) as (server, client):
            status, _, _ = client.admit(probe(bogus=1))
            assert status == 400
            status, _, _ = client.admit(probe("probe-1", period=0.001,
                                              size=64000.0,
                                              deadline=0.001))
            assert status == 409
            assert journal._seq == 0

    def test_journal_eio_rolls_the_admit_back(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "j")
        faults = FaultPlan.parse("journal-eio@1")
        with serving(journal=journal, faults=faults) as (server, client):
            before_state = server.engine.state_fingerprint()
            before_bounds = server.engine.snapshot().bounds_fingerprint()
            status, body, _ = client.admit(probe())
            assert status == 500
            assert "journal append failed" in body["error"]
            # Acknowledged state == journaled state: the mutation was
            # rolled back bit-identically.
            assert server.engine.state_fingerprint() == before_state
            assert server.engine.snapshot().bounds_fingerprint() == \
                before_bounds
            assert "probe-1" not in server.engine.flow_names()
            # The very next request works and journals normally.
            status, body, _ = client.admit(probe())
            assert status == 200 and body["applied"] is True

    def test_journal_eio_rolls_the_remove_back(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "j")
        faults = FaultPlan.parse("journal-eio@2")
        with serving(journal=journal, faults=faults) as (server, client):
            client.admit(probe())
            state = server.engine.state_fingerprint()
            status, body, _ = client.remove("probe-1")
            assert status == 500
            assert "probe-1" in server.engine.flow_names()
            assert server.engine.state_fingerprint() == state

    def test_journal_torn_write_is_skipped_on_recovery(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "j")
        faults = FaultPlan.parse("journal-torn@1")
        engine = AdmissionEngine(scenario(), "strict-priority")
        server = AdmissionServer(engine, ServeConfig(port=0, deadline=2.0),
                                 journal=journal, faults=faults)
        server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        client.wait_ready()
        status, body, _ = client.admit(probe())
        assert status == 200 and body["applied"] is True
        client.admit(probe("probe-2"))
        # SIGKILL-equivalent: stop without draining (no final checkpoint).
        server._httpd.shutdown()
        server._httpd.server_close()
        client.close()
        journal.close()
        state = AdmissionJournal(tmp_path / "j").recover()
        assert state.corrupt_lines == 1  # the torn probe-1 append
        assert [op["flow"]["name"] for op in state.operations] == \
            ["probe-2"]


class TestCrashRecovery:
    def test_recovery_is_byte_identical_after_an_unclean_stop(self,
                                                              tmp_path):
        journal = AdmissionJournal(tmp_path / "j")
        engine = AdmissionEngine(scenario(), "strict-priority")
        # The CLI seeds a checkpoint of the preloaded table on fresh
        # start; mirror that so recovery has the base state.
        journal.checkpoint(engine.flow_payloads())
        server = AdmissionServer(engine, ServeConfig(port=0, deadline=2.0),
                                 journal=journal)
        server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        client.wait_ready()
        client.admit(probe("crash-1"))
        client.admit(probe("crash-2", size=200.0))
        client.remove("crash-1")
        expected_state = engine.state_fingerprint()
        expected_bounds = engine.snapshot().bounds_fingerprint()
        # SIGKILL-equivalent: no drain, no final checkpoint.
        server._httpd.shutdown()
        server._httpd.server_close()
        client.close()
        journal.close()

        recovered_journal = AdmissionJournal(tmp_path / "j")
        state = recovered_journal.recover()
        assert not state.empty
        recovered = AdmissionEngine(scenario(), "strict-priority",
                                    preload=False)
        recovered.replay(
            [{"op": "admit", "flow": flow} for flow in state.flows]
            + list(state.operations))
        assert recovered.state_fingerprint() == expected_state
        assert recovered.snapshot().bounds_fingerprint() == expected_bounds
        assert recovered.verify()


class TestStoreStaysOffTheRequestPath:
    def test_served_mutations_never_touch_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        engine = AdmissionEngine(scenario(), "strict-priority", store)
        lookups = store.stats.hits + store.stats.misses
        writes = store.stats.writes
        assert lookups == writes == 1  # the start-up snapshot only
        with serving(engine=engine) as (_, client):
            assert client.check(probe("what-if"))[0] == 200
            assert client.admit(probe())[0] == 200
            assert client.admit(probe("huge", size=1e9))[0] == 409
            assert client.remove("probe-1")[0] == 200
            assert client.check()[0] == 200
        assert store.stats.hits + store.stats.misses == lookups
        assert store.stats.writes == writes
        assert engine.verify()


class TestStoreDegradationMidServe:
    """Regression: a store degraded under a live server must surface in
    /health with the same counter shape ``ResultStore.health()`` (and
    therefore ``repro store stats``) reports."""

    def test_store_eio_mid_serve_degrades_health(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        # Requests never write to the store: its one write is the
        # start-up snapshot, which fails with an injected EIO that the
        # hardened store degrades to an unpersisted write.
        with request_context(FaultPlan.parse("store-eio@1"), 1):
            engine = AdmissionEngine(scenario(), "strict-priority", store)
        with serving(engine=engine) as (server, client):
            status, body, _ = client.admit(probe())
            assert status == 200 and body["applied"] is True
            status, body, _ = client.health()
            assert body["status"] == "degraded"
            assert body["store"]["write_errors"] >= 1
            assert body["store"]["degraded"] is True
            # One counter shape across every surface (the CLI `store
            # stats` integrity line prints the same dict).
            assert set(body["store"]) == set(store.health())

    def test_a_healthy_store_reports_ok(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        engine = AdmissionEngine(scenario(), "strict-priority", store)
        with serving(engine=engine) as (_, client):
            _, body, _ = client.health()
            assert body["status"] == "ok"
            assert body["store"]["degraded"] is False

    def test_health_without_a_store_has_no_store_section(self):
        with serving() as (_, client):
            _, body, _ = client.health()
            assert "store" not in body


class TestDrain:
    def test_drain_is_clean_and_checkpoints(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "j")
        engine = AdmissionEngine(scenario(), "strict-priority")
        server = AdmissionServer(engine, ServeConfig(port=0, deadline=2.0),
                                 journal=journal)
        server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        client.wait_ready()
        client.admit(probe())
        assert server.drain(timeout=10.0) is True
        client.close()
        state = AdmissionJournal(tmp_path / "j").recover()
        assert state.operations == ()
        names = [flow["name"] for flow in state.flows]
        assert "probe-1" in names

    def test_drained_server_reports_not_ready(self):
        engine = AdmissionEngine(scenario(), "strict-priority")
        server = AdmissionServer(engine, ServeConfig(port=0, deadline=2.0))
        server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        client.wait_ready()
        server.draining = True
        _, body, _ = client.health()
        assert body["status"] == "draining"
        assert body["ready"] is False
        assert server.drain(timeout=10.0) is True
        client.close()


def raw_connection(server):
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)


def exchange(connection, method, path, body=None, headers=None):
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    return response, json.loads(response.read())


class TestKeepAliveFraming:
    """Requests and responses on one persistent connection stay framed."""

    @pytest.mark.parametrize("method, path, status", [
        ("POST", "/nope", 404), ("GET", "/nope", 404),
        ("GET", "/health", 200)])
    def test_a_body_is_read_before_the_answer(self, method, path, status):
        with serving() as (server, _):
            connection = raw_connection(server)
            response, _ = exchange(connection, method, path,
                                   b'{"flow": null}')
            assert response.status == status
            response, body = exchange(connection, "POST", "/check", b"{}")
            assert response.status == 200
            assert body["degraded"] is False
            connection.close()

    @pytest.mark.parametrize("length, status", [
        ("abc", 400), ("-1", 400), ("+2", 400), ("", 400),
        (str(server_module.MAX_BODY + 1), 413), ("9" * 30, 413)])
    def test_a_bad_content_length_is_a_json_error_that_closes(self, length,
                                                              status):
        with serving() as (server, _):
            connection = raw_connection(server)
            connection.putrequest("POST", "/check")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == status
            assert "Content-Length" in body["error"]
            assert response.getheader("Connection") == "close"
            connection.close()

    def test_a_chunked_body_is_a_json_501_that_closes(self):
        with serving() as (server, _):
            connection = raw_connection(server)
            connection.request("POST", "/check", body=iter([b"{}"]),
                               encode_chunked=True)
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 501
            assert "Transfer-Encoding" in body["error"]
            assert response.getheader("Connection") == "close"
            connection.close()

    def test_an_oversized_body_sent_in_full_still_gets_the_413(self):
        # The server answers after the headers; the body it never reads
        # must be drained, not reset, or the client loses the reply.
        size = server_module.MAX_BODY + 1
        with serving() as (server, _):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5) as sock:
                sock.sendall(b"POST /check HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: %d\r\n\r\n" % size)
                sock.sendall(b" " * size)
                response = http.client.HTTPResponse(sock)
                response.begin()
                body = json.loads(response.read())
            assert response.status == 413
            assert "Content-Length" in body["error"]
            assert response.getheader("Connection") == "close"

    def test_an_unsupported_method_is_a_json_501(self):
        with serving() as (server, client):
            status, body, headers = client.request("PUT", "/admit", {})
            assert status == 501
            assert "Unsupported method" in body["error"]
            assert headers["Content-Type"] == "application/json"
            assert headers["Connection"] == "close"
            assert client.health()[0] == 200  # reconnects

    def test_a_malformed_request_line_is_a_json_400(self):
        with serving() as (server, _):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5) as sock:
                sock.sendall(b"GET /a b HTTP/1.1\r\nHost: x\r\n\r\n")
                response = http.client.HTTPResponse(sock)
                response.begin()
                body = json.loads(response.read())
            assert response.status == 400
            assert "Bad request syntax" in body["error"]
            assert response.getheader("Content-Type") == "application/json"


class _OpenReader(io.BufferedReader):
    def close(self):
        pass  # http.client closes its file after every response


class Responses:
    """The responses on one socket, read one after another by the
    stdlib's parser (a reference independent of the service's codec)."""

    def __init__(self, sock):
        self._file = _OpenReader(socket.SocketIO(sock, "rb"))

    def makefile(self, mode):
        return self._file

    def next(self):
        response = http.client.HTTPResponse(self)
        response.begin()
        return response, json.loads(response.read())

    def closed(self):
        return self._file.read(1) == b""


def raw_socket(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestServerFraming:
    """The server's codec against requests http.client never sends."""

    def test_two_pipelined_requests_in_one_send(self):
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"POST /check HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 2\r\n\r\n{}"
                             b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
                responses = Responses(sock)
                first, body = responses.next()
                assert first.status == 200 and body["degraded"] is False
                second, body = responses.next()
                assert second.status == 200 and body["status"] == "ok"
                assert second.getheader("Connection") is None

    def test_an_empty_line_after_a_body_is_ignored(self):
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"POST /check HTTP/1.1\r\nContent-Length: 2"
                             b"\r\n\r\n{}\r\nGET /health HTTP/1.1\r\n\r\n")
                responses = Responses(sock)
                assert responses.next()[0].status == 200
                response, body = responses.next()
                assert response.status == 200 and body["status"] == "ok"

    def test_a_request_sent_one_byte_at_a_time(self):
        request = (b"POST /check HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: 2\r\n\r\n{}")
        with serving() as (server, _):
            with raw_socket(server) as sock:
                for index in range(len(request)):
                    sock.sendall(request[index:index + 1])
                response, body = Responses(sock).next()
            assert response.status == 200
            assert body["operation"] == "check"

    @pytest.mark.parametrize("name", ["content-length", "CONTENT-LENGTH",
                                      "Content-length"])
    def test_header_names_are_case_insensitive(self, name):
        body = json.dumps({"flow": probe()}).encode()
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"POST /admit HTTP/1.1\r\nhost: x\r\n"
                             + name.encode() + b": %d\r\n\r\n" % len(body)
                             + body)
                response, payload = Responses(sock).next()
            assert response.status == 200 and payload["applied"] is True
            assert "probe-1" in server.engine.flow_names()

    def test_expect_100_continue_is_answered_before_the_body(self):
        body = json.dumps({"flow": probe()}).encode()
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"POST /check HTTP/1.1\r\nHost: x\r\n"
                             b"Expect: 100-continue\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body))
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    chunk = sock.recv(1)
                    assert chunk, "closed before the interim response"
                    interim += chunk
                assert interim == wire.CONTINUE
                sock.sendall(body)
                response, payload = Responses(sock).next()
            assert response.status == 200
            assert payload["flow"] == "probe-1"

    def test_http_1_0_closes_after_the_response(self):
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
                responses = Responses(sock)
                response, body = responses.next()
                assert response.status == 200 and body["ready"] is True
                assert response.getheader("Connection") == "close"
                assert responses.closed()

    def test_http_1_0_keep_alive_persists(self):
        request = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with serving() as (server, _):
            with raw_socket(server) as sock:
                responses = Responses(sock)
                for _ in range(2):
                    sock.sendall(request)
                    response, body = responses.next()
                    assert response.status == 200 and body["ready"] is True
                    assert response.getheader("Connection") == "keep-alive"

    @pytest.mark.parametrize("head", [
        b"X-Long: " + b"a" * wire.MAX_LINE + b"\r\n",
        b"".join(b"X-Field-%d: %d\r\n" % (index, index)
                 for index in range(wire.MAX_HEADERS + 1))])
    def test_an_oversized_head_is_a_json_error_that_closes(self, head):
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n" + head
                             + b"\r\n")
                responses = Responses(sock)
                response, body = responses.next()
                assert response.status == 431
                assert "error" in body
                assert response.getheader("Connection") == "close"
                assert responses.closed()

    def test_a_content_length_too_long_for_int_is_a_413(self):
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"POST /check HTTP/1.1\r\nContent-Length: "
                             + b"9" * 5000 + b"\r\n\r\n")
                responses = Responses(sock)
                response, body = responses.next()
                assert response.status == 413
                assert "Content-Length" in body["error"]
                assert responses.closed()

    def test_a_head_with_the_most_headers_allowed_is_served(self):
        head = b"".join(b"X-Field-%d: %d\r\n" % (index, index)
                        for index in range(wire.MAX_HEADERS))
        with serving() as (server, _):
            with raw_socket(server) as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\n" + head + b"\r\n")
                response, body = Responses(sock).next()
            assert response.status == 200 and body["ready"] is True

    def test_responses_carry_a_date(self):
        with serving() as (_, client):
            _, _, headers = client.health()
            assert headers["Date"].endswith(" GMT")


def fake_server(reply):
    """A one-connection server: records what it receives and answers
    each request with ``reply(connection)``; returns (url, seen, stop)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    seen = []

    def serve():
        with listener:
            connection, _ = listener.accept()
            with connection:
                connection.settimeout(5)
                connection.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
                seen.append(connection.recv(65536))
                reply(connection)

    thread = threading.Thread(target=serve)
    thread.start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}", seen, thread


class TestClientFraming:
    """The client's codec against responses the service never sends."""

    def test_a_response_split_across_segments(self):
        body = b'{"applied": true, "flow": "probe-1"}'
        response = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Retry-After: 1\r\nContent-Length: %d\r\n\r\n"
                    % len(body)) + body
        pieces = [response[:5], response[5:31], response[31:60],
                  response[60:-7], response[-7:]]

        def reply(connection):
            for piece in pieces:
                connection.sendall(piece)
                time.sleep(0.02)

        url, seen, thread = fake_server(reply)
        client = ServeClient(url, timeout=5)
        try:
            status, payload, headers = client.admit(probe())
        finally:
            client.close()
            thread.join(timeout=5)
        assert status == 200
        assert payload == {"applied": True, "flow": "probe-1"}
        assert headers["Retry-After"] == "1"
        assert headers["Content-Type"] == "application/json"
        assert len(seen) == 1

    def test_a_close_mid_body_raises_and_is_not_resent(self):
        def reply(connection):
            connection.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100"
                               b"\r\n\r\n{\"applied\": tr")

        url, seen, thread = fake_server(reply)
        client = ServeClient(url, timeout=5)
        try:
            with pytest.raises(OSError):
                client.admit(probe())
        finally:
            client.close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(seen) == 1
        assert seen[0].startswith(b"POST /admit ")

    @pytest.mark.parametrize("response", [
        b"HTTP/1.1 2OO OK\r\n\r\n", b"SSH-2.0-OpenSSH\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nbroken header\r\n\r\n"])
    def test_a_garbled_response_raises(self, response):
        url, _, thread = fake_server(lambda connection:
                                     connection.sendall(response))
        client = ServeClient(url, timeout=5)
        try:
            with pytest.raises(ConnectionError):
                client.check()
            assert client._local.connection is None
        finally:
            client.close()
            thread.join(timeout=5)


class TestClientConnections:
    def test_one_client_shared_by_four_threads(self):
        per_thread = 25
        errors = []
        with serving() as (server, client):
            def work(index):
                try:
                    for step in range(per_thread):
                        name = f"t{index}-{step}"
                        status, body, _ = client.admit(probe(name))
                        assert (status, body["flow"]) == (200, name), body
                        status, body, _ = client.check(probe(name + "-w"))
                        assert status == 200
                        assert body["flow"] == name + "-w", body
                except Exception as error:  # reported by the main thread
                    errors.append(error)
                finally:
                    client.close()

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=work, args=(index,))
                           for index in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            names = set(server.engine.flow_names())
            assert {f"t{index}-{step}" for index in range(4)
                    for step in range(per_thread)} <= names
            assert server.engine.verify()

    def test_a_connection_closed_by_the_server_is_replaced(self,
                                                          monkeypatch):
        monkeypatch.setattr(server_module._RequestHandler, "timeout", 0.2)
        with serving() as (_, client):
            assert client.health()[0] == 200
            first = client._local.connection.sock
            assert first is not None  # kept open for the next request
            time.sleep(0.6)  # the server closes the idle connection
            status, body, _ = client.admit(probe())
            assert status == 200 and body["applied"] is True
            assert client._local.connection.sock is not first

    def test_a_failed_request_is_never_replayed(self):
        """A server that reads one request and hangs up: the client
        raises, and the server saw that one request only."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        seen = []
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    connection, _ = listener.accept()
                except TimeoutError:
                    continue
                with connection:
                    connection.settimeout(5)
                    seen.append(connection.recv(65536))

        thread = threading.Thread(target=serve)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:"
                             f"{listener.getsockname()[1]}")
        try:
            with pytest.raises(OSError):
                client.admit(probe())
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()
        assert len(seen) == 1
        assert seen[0].startswith(b"POST /admit ")


class TestDrainWithOpenConnections:
    def test_drain_is_not_held_up_by_an_idle_connection(self):
        engine = AdmissionEngine(scenario(), "strict-priority")
        server = AdmissionServer(engine, ServeConfig(port=0, deadline=2.0))
        server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        try:
            client.wait_ready()
            assert client._local.connection.sock is not None  # held open
            started = time.monotonic()
            assert server.drain(timeout=10.0) is True
            assert time.monotonic() - started < 1.0
            # The held connection still gets an answer: shed, and closed.
            status, body, headers = client.admit(probe())
            assert status == 503
            assert body["error"] == "server is draining"
            assert headers.get("Connection") == "close"
            assert engine.flow_names().count("probe-1") == 0
            with pytest.raises(OSError):
                client.health()  # nothing listens any more
        finally:
            client.close()
