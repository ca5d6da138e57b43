"""The HTTP admission-control server: routing, watchdogs, shedding,
fault injection, journal durability and crash recovery."""

import contextlib
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
