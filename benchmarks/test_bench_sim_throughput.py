"""Perf regression guard: the discrete-event simulation kernel.

The kernel rewrite (slim ``(time, sequence)``-keyed heap entries, inlined
run loop, ``__slots__`` frames, trace-guarded hot paths, zero-propagation
delivery fusion) took the bound-vs-sim workload from ~135k to ~700k
events/second on the development container — a ≥5x speedup, verified
bit-identical by ``tests/simulation/test_golden_equivalence.py``.  The
shorter hop path that followed (a same-instant slot in the kernel, idle
cut-through and inlined lanes in the link transmitters, a switch relay
on zero-propagation links, direct sample sinks) roughly halved the
Python calls per delivered instance; the refreshed table reads 772k
(FCFS) and 749k (strict priority) events/second, best of three.  This
workload releases every source at once, so its shaper releases tie and
skip the same-instant slot, and the 2-vCPU development host swings by up
to 2x between runs: compare commits with alternating pairs, not with
this table.

Two measurements are recorded into ``benchmarks/results/``:

* ``sim_throughput`` — events/second of the bound-vs-sim workload (the
  paper's 16-station case study on the single-switch star, both
  multiplexing policies) against the pre-rewrite baseline,
* ``monte_carlo_grid`` — wall time of a 32-cell Monte-Carlo campaign
  (8 seeds × 2 scenarios × 2 policies) with ``jobs=2`` process fan-out.

The assertions are deliberately generous (CI machines are slower and
noisier than the development container): they catch a return of the
interpreted hot paths, not a few percent of jitter.
"""

from __future__ import annotations

import time

from repro import units
from repro.analysis.validation import star_for_stations
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.simulation.campaign import SimulationCampaign

#: Pre-rewrite kernel throughput (events/second) on this workload, measured
#: on the development container as the best of five interleaved A/B runs
#: (see DESIGN.md §6, "Simulation performance").  Kept fixed as the
#: "before" of the recorded speedup.
PRE_PR_EVENTS_PER_SEC = {"fcfs": 135_006, "strict-priority": 116_815}

#: The simulated horizon: 20 × the validation default (6.4 s of network
#: time), long enough to amortise per-run setup out of the measurement.
DURATION = units.ms(320) * 20

#: Generous CI floor: the rewrite measures ≥5x on the development
#: container; regressing below 2.5x means an interpreted hot path came
#: back, not that the runner is slow.
MIN_SPEEDUP = 2.5

#: Wall-time ceiling for the 32-cell Monte-Carlo grid (measured ~1 s).
GRID_THRESHOLD_S = 60.0


def _throughput(network, message_set, policy: str) -> float:
    """Best-of-three events/second of one simulation configuration."""
    best = 0.0
    for _ in range(3):
        simulator = EthernetNetworkSimulator(
            network, message_set.messages, policy=policy,
            scenario="synchronized", seed=1)
        started = time.perf_counter()
        simulator.run(duration=DURATION)
        elapsed = time.perf_counter() - started
        best = max(best, simulator.simulator.events_processed / elapsed)
    return best


def test_bench_sim_throughput(real_case, report):
    network = star_for_stations(real_case.stations(), units.mbps(10),
                                units.us(16))
    rows = []
    speedups = {}
    for policy in ("fcfs", "strict-priority"):
        rate = _throughput(network, real_case, policy)
        baseline = PRE_PR_EVENTS_PER_SEC[policy]
        speedups[policy] = rate / baseline
        rows.append((policy, f"{rate:,.0f}", f"{baseline:,}",
                     f"{rate / baseline:.2f}x", f"{MIN_SPEEDUP:.1f}x"))
    report("sim_throughput",
           "Simulation kernel throughput vs the pre-rewrite baseline",
           ["policy", "events_per_sec", "pre_rewrite_events_per_sec",
            "speedup", "min_required"],
           rows)
    for policy, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{policy} kernel throughput regressed to {speedup:.2f}x of the "
            f"pre-rewrite baseline (floor {MIN_SPEEDUP}x) — an interpreted "
            f"hot path is back")


def test_bench_monte_carlo_grid(report):
    campaign = SimulationCampaign(
        station_count=16, workload_seed=7,
        seeds=tuple(range(1, 9)),
        scenarios=("synchronized", "random"),
        policies=("fcfs", "strict-priority"),
        jobs=2)
    assert len(campaign.cells()) == 32
    started = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - started
    report("monte_carlo_grid",
           "32-cell Monte-Carlo campaign (8 seeds x 2 scenarios x "
           "2 policies, jobs=2)",
           ["metric", "value"],
           [("cells", result.cells),
            ("rows", len(result.rows)),
            ("events_total", result.events_processed),
            ("all_bounds_hold", result.all_bounds_hold),
            ("max_tightness", f"{result.max_tightness:.3f}"),
            ("wall_time_s", f"{elapsed:.3f}"),
            ("threshold_s", f"{GRID_THRESHOLD_S:.1f}")])
    assert result.cells == 32
    assert result.all_bounds_hold, "a simulated latency exceeded its bound"
    assert elapsed < GRID_THRESHOLD_S, (
        f"32-cell Monte-Carlo grid took {elapsed:.2f}s "
        f"(threshold {GRID_THRESHOLD_S}s) — the simulation kernel or the "
        f"fan-out machinery has regressed")
