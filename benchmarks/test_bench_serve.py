"""Admission-service acceptance: a warm server answers fast and bounded.

Starts one in-process :class:`~repro.serve.server.AdmissionServer` over
the paper's warm 16-station case study and measures four paths:

* the admission boundary (``submit``: queue + watchdog + engine), which
  must sustain at least :data:`QUERY_FLOOR_QPS` queries/s with a worker
  p99 under :data:`P99_FLOOR_S` — the service's acceptance criterion;
* sequential HTTP round trips on one keep-alive connection, which must
  finish :data:`KEEPALIVE_ROUND_TRIPS` requests within
  :data:`KEEPALIVE_CEILING_S` — the gate against a response held back
  by Nagle's algorithm (~40 ms per request without ``TCP_NODELAY``);
* the full HTTP round trip from concurrent :class:`ServeClient` threads,
  one keep-alive connection each (reported, with a conservative floor
  so slow CI machines don't flake);
* the mutation path (admit+remove pairs through the incremental
  engine), which must sustain at least :data:`MUTATION_FLOOR_OPS`
  mutations/s: per-class O(1) updates, one flow fragment encoded per
  state fingerprint, and no result-store round trip.

The submit and mutation paths are each timed :data:`SERVE_REPEATS`
times and their floors apply to the median rate, so one pass slowed by
another process on the machine does not fail the gate; the table shows
the slowest and fastest repeat beside the median.

The measured numbers land in ``benchmarks/results/serve_throughput.
{csv,txt}`` and the docs-facing keys in ``BENCH_values.json`` (the
committed file ``tools/docgen.py`` substitutes into README.md).
"""

from __future__ import annotations

import statistics
import threading
import time

from repro import units
from repro.campaigns.scenario import Scenario, TopologySpec, WorkloadSpec
from repro.serve import (
    AdmissionEngine,
    AdmissionServer,
    ServeClient,
    ServeConfig,
)

#: Acceptance floor at the admission boundary (queries per second).
QUERY_FLOOR_QPS = 1000.0
#: Worker-side p99 latency ceiling (seconds) — well under the default
#: 0.25 s deadline budget, so the watchdog never fires on a warm server.
P99_FLOOR_S = 0.05
#: Conservative floor for the concurrent HTTP round trip.
HTTP_FLOOR_QPS = 250.0
#: Sequential round trips on one connection, and the ceiling (seconds)
#: they must finish within: ~30 ms with ``TCP_NODELAY``, >= 2 s without.
KEEPALIVE_ROUND_TRIPS, KEEPALIVE_CEILING_S = 50, 1.0
#: Floor for admit/remove mutations through the submit path.
MUTATION_FLOOR_OPS = 1000.0

#: Queries fired at the submit path.
SUBMIT_QUERIES = 3000
#: Queries per HTTP client thread, and the thread count.
HTTP_QUERIES, HTTP_THREADS = 400, 4
#: Admit+remove pairs through the incremental engine.
MUTATION_PAIRS = 300
#: Timed repeats of the submit and mutation paths; each floor applies
#: to the median of its path's repeats.
SERVE_REPEATS = 3

DEADLINE = 0.25


def _flow(index: int) -> dict:
    return {"name": f"bench-flow-{index}", "kind": "sporadic",
            "period": 1.0, "size": 100.0, "source": "station-00",
            "destination": "station-01", "deadline": None}


def _rate(operations: int, run) -> float:
    """Operations per second of one timed call of ``run``."""
    started = time.perf_counter()
    run()
    return operations / (time.perf_counter() - started)


def test_bench_serve_throughput(report, bench_values):
    scenario = Scenario(
        name="bench-serve", description="admission-service benchmark",
        workload=WorkloadSpec(station_count=16, seed=7),
        topology=TopologySpec("single-switch-star"),
        capacity=units.mbps(10.0), technology_delay=units.us(16.0),
        policies=("strict-priority",))
    engine = AdmissionEngine(scenario, "strict-priority")
    server = AdmissionServer(engine, ServeConfig(port=0, deadline=DEADLINE))
    server.start()
    try:
        base = f"http://127.0.0.1:{server.port}"
        client = ServeClient(base)
        client.wait_ready()

        # -- sequential round trips on one keep-alive connection ----------
        started = time.perf_counter()
        for _ in range(KEEPALIVE_ROUND_TRIPS):
            status, _, _ = client.check()
            assert status == 200
        keepalive_s = time.perf_counter() - started
        client.close()

        # -- admission boundary: queue + watchdog + engine ----------------
        def _submit_checks() -> None:
            for _ in range(SUBMIT_QUERIES):
                status, _, _ = server.submit("check", None)
                assert status == 200

        submit_rates = [_rate(SUBMIT_QUERIES, _submit_checks)
                        for _ in range(SERVE_REPEATS)]
        submit_qps = statistics.median(submit_rates)
        submit_p99 = server.p99_latency()

        # -- concurrent HTTP round trip -----------------------------------
        def _client_loop() -> None:
            client = ServeClient(base)
            for _ in range(HTTP_QUERIES):
                status, _, _ = client.check()
                assert status == 200
            client.close()

        threads = [threading.Thread(target=_client_loop)
                   for _ in range(HTTP_THREADS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        http_qps = HTTP_QUERIES * HTTP_THREADS \
            / (time.perf_counter() - started)

        # -- mutation path: incremental admit + remove pairs --------------
        def _mutations() -> None:
            for index in range(MUTATION_PAIRS):
                status, body, _ = server.submit("admit", _flow(index),
                                                force=True)
                assert status == 200 and body["applied"], body
                status, body, _ = server.submit("remove",
                                                f"bench-flow-{index}")
                assert status == 200 and body["applied"], body

        mutation_rates = [_rate(2 * MUTATION_PAIRS, _mutations)
                          for _ in range(SERVE_REPEATS)]
        mutation_ops = statistics.median(mutation_rates)
        worker_p99 = server.p99_latency()
        stats = server.stats_payload()
        assert stats["degraded"] == 0, "a warm server must never degrade"
        assert stats["shed"] == 0, "a warm server must never shed"
    finally:
        assert server.drain(timeout=30.0)

    report(
        "serve_throughput",
        "Admission service: warm-server throughput and latency",
        ["metric", "value"],
        [("submit_qps", f"{submit_qps:.0f}"),
         ("submit_qps_min", f"{min(submit_rates):.0f}"),
         ("submit_qps_max", f"{max(submit_rates):.0f}"),
         ("http_qps", f"{http_qps:.0f}"),
         ("keepalive_round_trip_ms",
          f"{keepalive_s / KEEPALIVE_ROUND_TRIPS * 1e3:.3f}"),
         ("mutation_ops_per_s", f"{mutation_ops:.0f}"),
         ("mutation_ops_per_s_min", f"{min(mutation_rates):.0f}"),
         ("mutation_ops_per_s_max", f"{max(mutation_rates):.0f}"),
         ("timed_repeats", SERVE_REPEATS),
         ("worker_p99_ms", f"{worker_p99 * 1e3:.3f}"),
         ("deadline_budget_ms", f"{DEADLINE * 1e3:.0f}"),
         ("incremental_hits", engine.incremental_hits),
         ("full_recomputes", engine.full_recomputes),
         ("query_floor_qps", f"{QUERY_FLOOR_QPS:.0f}"),
         ("mutation_floor_ops", f"{MUTATION_FLOOR_OPS:.0f}"),
         ("p99_floor_ms", f"{P99_FLOOR_S * 1e3:.0f}")])

    bench_values({
        "bench.serve-qps": f"{submit_qps:,.0f}",
        "bench.serve-http-qps": f"{http_qps:,.0f}",
        "bench.serve-round-trip-ms":
            f"{keepalive_s / KEEPALIVE_ROUND_TRIPS * 1e3:.2f} ms",
        "bench.serve-mutations-per-s": f"{mutation_ops:,.0f}",
        "bench.serve-p99-ms": f"{worker_p99 * 1e3:.2f} ms",
    })

    assert submit_qps >= QUERY_FLOOR_QPS, (
        f"warm server sustained only {submit_qps:.0f} queries/s at the "
        f"admission boundary (median of {SERVE_REPEATS}, floor "
        f"{QUERY_FLOOR_QPS:.0f}) — the serve path has regressed")
    assert submit_p99 <= P99_FLOOR_S and worker_p99 <= P99_FLOOR_S, (
        f"worker p99 {max(submit_p99, worker_p99) * 1e3:.1f} ms over the "
        f"{P99_FLOOR_S * 1e3:.0f} ms floor — requests are at risk of "
        f"degrading under the {DEADLINE:g}s budget")
    assert keepalive_s < KEEPALIVE_CEILING_S, (
        f"{KEEPALIVE_ROUND_TRIPS} sequential keep-alive round trips took "
        f"{keepalive_s:.2f}s (ceiling {KEEPALIVE_CEILING_S:g}s) — responses "
        f"are being held back (is TCP_NODELAY off?)")
    assert http_qps >= HTTP_FLOOR_QPS, (
        f"concurrent HTTP round trip sustained only {http_qps:.0f} "
        f"queries/s (floor {HTTP_FLOOR_QPS:.0f})")
    assert mutation_ops >= MUTATION_FLOOR_OPS, (
        f"the mutation path sustained only {mutation_ops:.0f} ops/s "
        f"(median of {SERVE_REPEATS}, floor {MUTATION_FLOOR_OPS:.0f}) — "
        f"admit/remove is no longer incremental")
