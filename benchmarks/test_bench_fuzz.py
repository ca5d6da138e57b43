"""Fuzzing throughput: scenario generation and cell evaluation rates.

Two measurements land in ``benchmarks/results/fuzz_throughput.{csv,txt}``:

* ``generated scenarios/s`` — the rate of the seeded
  :class:`~repro.fuzz.generator.ScenarioGenerator` alone (pure spec
  derivation, no evaluation); the CI fuzz-smoke budget is a direct
  function of this and of the evaluation rate,
* ``fuzzed cells/s`` — full fuzz-campaign cells per second, each cell
  double-evaluated (memoized + fresh naive) with every invariant checked.
  The same 12-cell campaign is timed :data:`FUZZ_REPEATS` times; the
  table reports the median rate with the slowest and fastest repeat
  (one timing of 12 cells swung by a third between back-to-back runs).

The floors are deliberately loose — they catch an accidentally quadratic
generator or a cell evaluation that stopped reusing the memoized campaign
runner, not scheduler jitter on a busy CI machine.
"""

from __future__ import annotations

import statistics
import time

from repro import units
from repro.fuzz import FuzzCampaign, ScenarioGenerator

#: Scenario derivation is hashing plus a few ``random.choice`` draws;
#: even a slow container manages thousands per second.
MIN_GENERATED_PER_SEC = 1_000.0

#: Each cell runs two full analysis + simulation evaluations; measured
#: ~15 cells/s on the development container at the 160 ms horizon.
MIN_CELLS_PER_SEC = 1.0

#: Generator sample: large enough to amortise timer overhead.
GENERATE_COUNT = 2_000

#: Campaign sample: small, but past the per-process warm-up.
FUZZ_COUNT = 12

#: Timed repeats of the campaign sample; the floor applies to the median.
FUZZ_REPEATS = 3


def test_bench_fuzz_throughput(report):
    started = time.perf_counter()
    scenarios = ScenarioGenerator(0).generate(GENERATE_COUNT)
    generation_elapsed = time.perf_counter() - started
    generated_rate = len(scenarios) / generation_elapsed

    rates = []
    events = set()
    for _ in range(FUZZ_REPEATS):
        campaign = FuzzCampaign(count=FUZZ_COUNT, seed=0,
                                duration=units.ms(160))
        started = time.perf_counter()
        result = campaign.run()
        rates.append(result.cells / (time.perf_counter() - started))
        events.add(result.events_processed)
    cell_rate = statistics.median(rates)

    report("fuzz_throughput",
           "Fuzzing throughput: generation vs full cell evaluation",
           ["metric", "value"],
           [("generated_scenarios", len(scenarios)),
            ("generated_per_sec", f"{generated_rate:,.0f}"),
            ("fuzzed_cells", result.cells),
            ("cells_per_sec", f"{cell_rate:.2f}"),
            ("cells_per_sec_min", f"{min(rates):.2f}"),
            ("cells_per_sec_max", f"{max(rates):.2f}"),
            ("timed_repeats", FUZZ_REPEATS),
            ("events_total", result.events_processed),
            ("violations", result.violation_count),
            ("max_tightness", f"{result.max_tightness:.3f}"),
            ("min_generated_per_sec", f"{MIN_GENERATED_PER_SEC:,.0f}"),
            ("min_cells_per_sec", f"{MIN_CELLS_PER_SEC:.1f}")])

    assert result.all_invariants_hold, "fuzz invariants violated"
    assert len(events) == 1, "repeats of one seeded campaign diverged"
    assert generated_rate >= MIN_GENERATED_PER_SEC, (
        f"scenario generation at {generated_rate:,.0f}/s "
        f"(floor {MIN_GENERATED_PER_SEC:,.0f}/s) — the generator has "
        f"regressed to something worse than hashing")
    assert cell_rate >= MIN_CELLS_PER_SEC, (
        f"fuzz evaluation at {cell_rate:.2f} cells/s "
        f"(median of {FUZZ_REPEATS}, floor {MIN_CELLS_PER_SEC:.1f}/s) — "
        f"cell evaluation no longer "
        f"amortises the memoized campaign runner")
