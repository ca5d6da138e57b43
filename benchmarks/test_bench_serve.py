"""Admission-service acceptance: a warm server answers fast and bounded.

Starts one in-process :class:`~repro.serve.server.AdmissionServer` over
the paper's warm 16-station case study and measures three paths:

* the admission boundary (``submit``: queue + watchdog + engine), which
  must sustain at least :data:`QUERY_FLOOR_QPS` queries/s with a worker
  p99 under :data:`P99_FLOOR_S` — the service's acceptance criterion;
* the full HTTP round trip from concurrent stdlib clients (reported,
  with a conservative floor so slow CI machines don't flake);
* the mutation path (admit+remove pairs through the incremental
  engine), which must sustain at least :data:`MUTATION_FLOOR_OPS`
  mutations/s: per-class O(1) updates, one flow fragment encoded per
  state fingerprint, and no result-store round trip.

The measured numbers land in ``benchmarks/results/serve_throughput.
{csv,txt}`` and the docs-facing keys in ``BENCH_values.json`` (the
committed file ``tools/docgen.py`` substitutes into README.md).
"""

from __future__ import annotations

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
#: Floor for admit/remove mutations through the submit path.
MUTATION_FLOOR_OPS = 1000.0

#: Queries fired at the submit path.
SUBMIT_QUERIES = 3000
#: Queries per HTTP client thread, and the thread count.
HTTP_QUERIES, HTTP_THREADS = 400, 4
#: Admit+remove pairs through the incremental engine.
MUTATION_PAIRS = 300

DEADLINE = 0.25


def _flow(index: int) -> dict:
    return {"name": f"bench-flow-{index}", "kind": "sporadic",
            "period": 1.0, "size": 100.0, "source": "station-00",
            "destination": "station-01", "deadline": None}


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
        ServeClient(base).wait_ready()

        # -- admission boundary: queue + watchdog + engine ----------------
        started = time.perf_counter()
        for _ in range(SUBMIT_QUERIES):
            status, _, _ = server.submit("check", None)
            assert status == 200
        submit_qps = SUBMIT_QUERIES / (time.perf_counter() - started)
        submit_p99 = server.p99_latency()

        # -- concurrent HTTP round trip -----------------------------------
        def _client_loop() -> None:
            client = ServeClient(base)
            for _ in range(HTTP_QUERIES):
                status, _, _ = client.check()
                assert status == 200

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
        started = time.perf_counter()
        for index in range(MUTATION_PAIRS):
            status, body, _ = server.submit("admit", _flow(index),
                                            force=True)
            assert status == 200 and body["applied"], body
            status, body, _ = server.submit("remove",
                                            f"bench-flow-{index}")
            assert status == 200 and body["applied"], body
        mutation_ops = 2 * MUTATION_PAIRS \
            / (time.perf_counter() - started)
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
         ("http_qps", f"{http_qps:.0f}"),
         ("mutation_ops_per_s", f"{mutation_ops:.0f}"),
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
        "bench.serve-mutations-per-s": f"{mutation_ops:,.0f}",
        "bench.serve-p99-ms": f"{worker_p99 * 1e3:.2f} ms",
    })

    assert submit_qps >= QUERY_FLOOR_QPS, (
        f"warm server sustained only {submit_qps:.0f} queries/s at the "
        f"admission boundary (floor {QUERY_FLOOR_QPS:.0f}) — the serve "
        f"path has regressed")
    assert submit_p99 <= P99_FLOOR_S and worker_p99 <= P99_FLOOR_S, (
        f"worker p99 {max(submit_p99, worker_p99) * 1e3:.1f} ms over the "
        f"{P99_FLOOR_S * 1e3:.0f} ms floor — requests are at risk of "
        f"degrading under the {DEADLINE:g}s budget")
    assert http_qps >= HTTP_FLOOR_QPS, (
        f"concurrent HTTP round trip sustained only {http_qps:.0f} "
        f"queries/s (floor {HTTP_FLOOR_QPS:.0f})")
    assert mutation_ops >= MUTATION_FLOOR_OPS, (
        f"the mutation path sustained only {mutation_ops:.0f} ops/s "
        f"(floor {MUTATION_FLOOR_OPS:.0f}) — admit/remove is no longer "
        f"incremental")
