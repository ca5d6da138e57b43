"""Monte-Carlo simulation campaigns: seeds × scenarios × policies × scales.

The bound-vs-simulation exhibits used to rest on a *single* seed of a
*single* scenario.  :class:`SimulationCampaign` turns them into a
statistical statement: it sweeps a grid of simulation cells — random
seeds × release scenarios (synchronized / staggered / random) ×
multiplexing policies × workload size factors — runs the full
discrete-event simulation for every cell, and aggregates, per
(size factor, scenario, policy, priority class):

* the worst latency observed across every seed,
* the analytic worst-case delay bound for the same configuration,
* whether the bound dominates every observation (``bound_holds``) and how
  tight it is (``tightness`` = worst observed / bound).

Cells are value-level (frozen, picklable) specs, so wide campaigns fan
out over worker processes exactly like the analytic campaign runner
(``jobs=N``, the machinery of :class:`repro.campaigns.runner.CampaignRunner`);
each worker lazily builds and caches the per-size-factor workload and
topology.  Every cell is fully deterministic given its seed, so the
aggregated rows are identical regardless of ``jobs``.  Seed-free scenarios
(:data:`~repro.ethernet.network_sim.SEED_FREE_SCENARIOS`) give the same
results for every seed, so each worker simulates such a configuration
once per run and hands every other seed a copy of that outcome.

The grid is exposed on the CLI as ``repro simulate`` and feeds the
``monte-carlo`` report experiment (REPORT.md's all-bounds-hold badge).
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path
from typing import Iterable, Sequence

from repro import units
from repro.analysis.engines import (DEFAULT_ENGINE, DEFAULT_ENGINES,
                                   resolve_engines)
from repro.analysis.engines.base import ScenarioInputs
from repro.analysis.validation import (engine_bounds, lower, simulate,
                                       tightness_of, within_bound)
from repro.campaigns.scenario import TopologySpec
from repro.errors import ConfigurationError
from repro.ethernet.network_sim import SEED_FREE_SCENARIOS
from repro.exec import ExecPolicy, ExecutionReport, ParallelExecutor
from repro.flows.message_set import MessageSet
from repro.flows.priorities import PriorityClass
from repro.reporting import (
    format_ms,
    render_markdown_table,
    render_table,
    write_csv,
    yes_no,
)
from repro.store import ResultStore
from repro.topology.graph import GraphTopologySpec
from repro.workloads import RealCaseParameters, generate_real_case

__all__ = [
    "SimulationCell",
    "CellOutcome",
    "MonteCarloRow",
    "MonteCarloEngineRow",
    "MonteCarloResult",
    "SimulationCampaign",
    "SCENARIOS",
    "POLICIES",
]

#: Every release scenario the simulator understands.
SCENARIOS = ("synchronized", "staggered", "random")
#: Every multiplexing policy the simulator understands.
POLICIES = ("fcfs", "strict-priority")

#: Short policy labels reused from the analytic campaign tables.
_POLICY_LABELS = {"fcfs": "FCFS", "strict-priority": "priority"}


def _format_tightness(ratio: float) -> str:
    """A tightness cell: ``-`` for the ``nan`` sentinel, else 3 decimals."""
    return "-" if math.isnan(ratio) else f"{ratio:.3f}"


@dataclass(frozen=True)
class SimulationCell:
    """One cell of the Monte-Carlo grid (a single simulation run)."""

    #: Master seed of the run's random streams.
    seed: int
    #: Release scenario: ``synchronized`` / ``staggered`` / ``random``.
    scenario: str
    #: Multiplexing policy: ``fcfs`` / ``strict-priority``.
    policy: str
    #: Workload scale: multiplies the base station count.
    size_factor: int


@dataclass(frozen=True)
class CellOutcome:
    """Everything one simulated cell contributes to the aggregation."""

    cell: SimulationCell
    #: Worst observed latency per priority class (seconds).
    worst_per_class: dict[PriorityClass, float]
    #: Mean observed latency per priority class (seconds).
    mean_per_class: dict[PriorityClass, float]
    #: Number of latency samples per priority class.
    samples_per_class: dict[PriorityClass, int]
    instances_sent: int
    instances_delivered: int
    frames_dropped: int
    events_processed: int
    elapsed: float
    #: True when this cell was served from the result store (``--resume``);
    #: ``elapsed``/``events_processed`` then describe the original run.
    resumed: bool = False
    #: True when this seed-free cell copies the outcome another seed of
    #: the same configuration simulated earlier in the run; ``elapsed`` /
    #: ``events_processed`` then describe that simulation.  Not stored.
    copied: bool = False


@dataclass(frozen=True)
class MonteCarloRow:
    """Aggregate over every seed of one (scale, scenario, policy, class)."""

    size_factor: int
    scenario: str
    policy: str
    priority: PriorityClass
    #: Number of seeds aggregated into this row.
    seeds: int
    #: Analytic worst-case delay bound for this configuration (seconds).
    analytic_bound: float
    #: Worst latency observed across every seed (seconds).
    worst_simulated: float
    #: Mean of the per-seed mean latencies (seconds).
    mean_simulated: float
    #: Total latency samples across every seed.
    samples: int

    @property
    def bound_holds(self) -> bool:
        """True when the bound dominates every observation of the row."""
        return within_bound(self.worst_simulated, self.analytic_bound)

    @property
    def tightness(self) -> float:
        """Worst observation divided by the bound (:func:`tightness_of`)."""
        return tightness_of(self.worst_simulated, self.analytic_bound)


@dataclass(frozen=True)
class MonteCarloEngineRow:
    """One bound engine's validation against the simulated worst case.

    Produced only for non-default engine selections
    (``repro simulate --engine ...``); every selected engine — the
    calculus reference included — is checked against the same worst
    observation the canonical :class:`MonteCarloRow` aggregates.
    """

    size_factor: int
    scenario: str
    policy: str
    priority: PriorityClass
    engine: str
    #: The engine's end-to-end delay bound (seconds).
    bound: float
    #: Worst latency observed across every seed (seconds).
    worst_simulated: float
    #: Total latency samples behind the observation.
    samples: int

    @property
    def bound_holds(self) -> bool:
        """True when the engine's bound dominates every observation."""
        return within_bound(self.worst_simulated, self.bound)

    @property
    def tightness(self) -> float:
        """Worst observation divided by the engine bound
        (:func:`tightness_of`)."""
        return tightness_of(self.worst_simulated, self.bound)


@dataclass
class MonteCarloResult:
    """The combined outcome of a Monte-Carlo simulation campaign."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    rows: list[MonteCarloRow] = field(default_factory=list)
    #: Cross-engine validation rows; empty under the default selection.
    engine_rows: list[MonteCarloEngineRow] = field(default_factory=list)
    elapsed: float = 0.0
    #: What the fault-tolerant executor observed (retries, recoveries,
    #: structured failures); ``None`` only for hand-built results.
    exec_report: ExecutionReport | None = None

    ROW_HEADERS = ("scale", "scenario", "policy", "class", "seeds",
                   "bound", "worst sim", "tightness", "holds")
    ENGINE_ROW_HEADERS = ("scale", "scenario", "policy", "class", "engine",
                          "bound", "worst sim", "tightness", "holds")

    @property
    def failures(self) -> list:
        """Cells that exhausted their retries (empty when all ran)."""
        return [] if self.exec_report is None else self.exec_report.failures

    @property
    def all_bounds_hold(self) -> bool:
        """True when every aggregated row respects its analytic bound."""
        return bool(self.rows) and all(row.bound_holds for row in self.rows)

    @property
    def all_engine_bounds_hold(self) -> bool:
        """True when every cross-engine row is sound (vacuously true for
        default runs, which produce no engine rows)."""
        return all(row.bound_holds for row in self.engine_rows)

    @property
    def cells(self) -> int:
        """Number of simulated cells."""
        return len(self.outcomes)

    @property
    def events_processed(self) -> int:
        """Total events processed across every cell."""
        return sum(outcome.events_processed for outcome in self.outcomes)

    @property
    def frames_dropped(self) -> int:
        """Total frames dropped across every cell (0 for shaped traffic)."""
        return sum(outcome.frames_dropped for outcome in self.outcomes)

    @property
    def resumed(self) -> int:
        """Number of cells served from the result store."""
        return sum(1 for outcome in self.outcomes if outcome.resumed)

    @property
    def max_tightness(self) -> float:
        """Largest finite worst-observed / bound ratio across the rows.

        Returns the documented ``nan`` sentinel when no row has a finite
        ratio (an all-unstable or sample-free grid) — callers must test
        with ``math.isnan`` rather than compare against a magic number.
        """
        ratios = [row.tightness for row in self.rows
                  if math.isfinite(row.tightness)]
        return max(ratios) if ratios else float("nan")

    def row_cells(self) -> list[tuple]:
        """One formatted line per aggregated row."""
        return [(f"x{row.size_factor}", row.scenario,
                 _POLICY_LABELS[row.policy], row.priority.label, row.seeds,
                 format_ms(row.analytic_bound),
                 format_ms(row.worst_simulated),
                 _format_tightness(row.tightness), yes_no(row.bound_holds))
                for row in self.rows]

    def engine_row_cells(self) -> list[tuple]:
        """One formatted line per cross-engine validation row."""
        return [(f"x{row.size_factor}", row.scenario,
                 _POLICY_LABELS[row.policy], row.priority.label, row.engine,
                 format_ms(row.bound), format_ms(row.worst_simulated),
                 _format_tightness(row.tightness), yes_no(row.bound_holds))
                for row in self.engine_rows]

    def to_table(self) -> str:
        """The aggregated rows as aligned ASCII tables (runs with a
        non-default engine selection append the cross-engine table)."""
        table = render_table(self.ROW_HEADERS, self.row_cells(),
                             title="Monte-Carlo bound validation")
        if self.engine_rows:
            table += "\n" + render_table(
                self.ENGINE_ROW_HEADERS, self.engine_row_cells(),
                title="Cross-engine bound validation")
        return table

    def to_markdown(self) -> str:
        """The same tables in GitHub-flavoured markdown."""
        table = render_markdown_table(self.ROW_HEADERS, self.row_cells(),
                                      title="Monte-Carlo bound validation")
        if self.engine_rows:
            table += "\n" + render_markdown_table(
                self.ENGINE_ROW_HEADERS, self.engine_row_cells(),
                title="Cross-engine bound validation")
        return table

    def write_csv(self, path: str | Path) -> None:
        """Dump the raw (unformatted) aggregated rows to ``path``."""
        write_csv(path,
                  ["size_factor", "scenario", "policy", "priority", "seeds",
                   "bound_s", "worst_simulated_s", "mean_simulated_s",
                   "samples", "tightness", "bound_holds"],
                  [(row.size_factor, row.scenario, row.policy,
                    row.priority.name, row.seeds, repr(row.analytic_bound),
                    repr(row.worst_simulated), repr(row.mean_simulated),
                    row.samples, repr(row.tightness), row.bound_holds)
                   for row in self.rows])


class SimulationCampaign:
    """Run the Monte-Carlo grid and aggregate it against the bounds.

    Parameters
    ----------
    station_count:
        Base station count of the synthetic workload; every cell's
        workload is ``station_count × size_factor`` stations.
    workload_seed:
        Seed of the synthetic workload generator (*not* the simulation
        seed — every cell reuses the same message set).
    message_set:
        Explicit workload to simulate instead of the synthetic one (e.g. a
        CSV-loaded set).  Only ``size_factors == (1,)`` is supported then,
        because foreign sets cannot be regenerated at other scales.
    seeds:
        The simulation seeds of the grid.
    scenarios / policies / size_factors:
        The remaining grid axes.
    duration:
        Simulated horizon per cell, seconds (320 ms = two 1553B major
        frames, the validation default).
    capacity / technology_delay:
        Link rate and switch relaying-delay bound shared by the analytic
        and simulated sides.
    jobs:
        Number of worker processes to spread the cells over (default 1:
        evaluate in-process).  Results are identical for any value.
    store:
        An optional :class:`~repro.store.ResultStore`.  Every simulated
        cell is written to it (fingerprinted by the cell spec, the
        workload and the ``simulation`` code-version token); cells are
        only read back with ``resume=True``.
    resume:
        Reuse cells already present in the store — ``repro simulate
        --resume``: after an interruption only the unfinished cells are
        simulated, and the aggregated rows (and CSV) are byte-identical
        to an uninterrupted run because every cell is deterministic.
    topology:
        ``None`` (default) keeps the legacy single-switch star derived
        from the message set — cell fingerprints are unchanged, so old
        stores stay valid.  A campaign
        :class:`~repro.campaigns.scenario.TopologySpec` (any kind) or an
        explicit :class:`~repro.topology.graph.GraphTopologySpec` runs
        the grid on that multi-hop network instead, with the analytic
        side switched to
        :class:`~repro.analysis.multihop.GraphPathAnalysis` on the same
        spec.  An explicit graph spec fixes the station names, so it
        only supports ``size_factors=(1,)``.
    engines:
        Bound-engine selection (``repro simulate --engine ...``), as
        accepted by :func:`repro.analysis.engines.resolve_engines`.
        The canonical rows always validate the calculus bound; a
        non-default selection additionally validates every selected
        engine's bound against the same simulated worst case
        (``result.engine_rows``).  Cell simulation — and therefore the
        store fingerprints — is engine-independent, so old stores stay
        warm for any selection.
    """

    def __init__(self, *, station_count: int = 16, workload_seed: int = 7,
                 message_set: MessageSet | None = None,
                 seeds: Sequence[int] = (1, 2, 3, 4, 5),
                 scenarios: Sequence[str] = SCENARIOS,
                 policies: Sequence[str] = POLICIES,
                 size_factors: Sequence[int] = (1,),
                 duration: float = units.ms(320),
                 capacity: float = units.mbps(10),
                 technology_delay: float = units.us(16),
                 jobs: int = 1,
                 store: ResultStore | None = None,
                 resume: bool = False,
                 exec_policy: ExecPolicy | None = None,
                 faults: str | None = None,
                 topology: TopologySpec | GraphTopologySpec | None = None,
                 engines: "str | Sequence[str] | None" = None) -> None:
        if not scenarios:
            raise ConfigurationError("at least one scenario is required")
        for scenario in scenarios:
            if scenario not in SCENARIOS:
                raise ConfigurationError(
                    f"unknown scenario {scenario!r}; known: {SCENARIOS}")
        if not policies:
            raise ConfigurationError("at least one policy is required")
        for policy in policies:
            if policy not in POLICIES:
                raise ConfigurationError(
                    f"unknown policy {policy!r}; known: {POLICIES}")
        if not seeds:
            raise ConfigurationError("at least one seed is required")
        if not size_factors:
            raise ConfigurationError("at least one size factor is required")
        if any(factor < 1 for factor in size_factors):
            raise ConfigurationError("size factors must be positive")
        if message_set is not None and tuple(size_factors) != (1,):
            raise ConfigurationError(
                "an explicit message set only supports size_factors=(1,)")
        if isinstance(topology, GraphTopologySpec) and \
                tuple(size_factors) != (1,):
            raise ConfigurationError(
                "an explicit graph topology only supports size_factors=(1,)")
        if duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {duration!r}")
        if jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs!r}")
        self.station_count = int(station_count)
        self.workload_seed = int(workload_seed)
        self.message_set = message_set
        self.seeds = tuple(int(seed) for seed in seeds)
        self.scenarios = tuple(scenarios)
        self.policies = tuple(policies)
        self.size_factors = tuple(int(factor) for factor in size_factors)
        self.duration = float(duration)
        self.capacity = float(capacity)
        self.technology_delay = float(technology_delay)
        self.jobs = int(jobs)
        self.store = store
        self.resume = bool(resume)
        self.exec_policy = exec_policy
        self.faults = faults
        self.topology = topology
        self.engines = resolve_engines(engines)

    # -- grid ----------------------------------------------------------------

    def cells(self) -> list[SimulationCell]:
        """The full grid, in deterministic (factor, scenario, policy, seed)
        order."""
        return [SimulationCell(seed=seed, scenario=scenario, policy=policy,
                               size_factor=factor)
                for factor in self.size_factors
                for scenario in self.scenarios
                for policy in self.policies
                for seed in self.seeds]

    def _context(self) -> dict:
        """The picklable workload/topology context shipped to workers."""
        context = {
            "station_count": self.station_count,
            "workload_seed": self.workload_seed,
            "messages": (None if self.message_set is None
                         else list(self.message_set.messages)),
            "duration": self.duration,
            "capacity": self.capacity,
            "technology_delay": self.technology_delay,
        }
        if self.topology is not None:
            # Only present for multi-hop runs, so the fingerprints (and
            # stored results) of legacy star campaigns are untouched.
            context["topology"] = self.topology
        return context

    # -- execution -----------------------------------------------------------

    def run(self) -> MonteCarloResult:
        """Simulate every cell, then aggregate against the analytic bounds.

        Cells that exhaust their retries become structured
        :class:`~repro.exec.CellFailure` records on
        ``result.exec_report``; the aggregation simply spans the cells
        that completed (a partial grid still aggregates — re-run with
        ``--resume`` to fill the holes from the store).
        """
        started = time.perf_counter()
        cells = self.cells()
        store_root = None if self.store is None else str(self.store.root)
        executor = ParallelExecutor(jobs=self.jobs,
                                    policy=self.exec_policy,
                                    fault_spec=self.faults, label="cell")
        report = executor.map(
            _evaluate_cell, cells,
            initializer=_init_worker,
            initargs=(self._context(), store_root, self.resume),
            serial_setup=lambda: _init_worker(
                self._context(), store_root, self.resume, store=self.store),
            labels=[_cell_label(cell) for cell in cells])
        result = MonteCarloResult(outcomes=report.ordered_results())
        result.exec_report = report
        bounds = {factor: self._bounds_for(factor)
                  for factor in self.size_factors}
        result.rows = self._aggregate(result.outcomes, bounds)
        result.engine_rows = self._aggregate_engines(result.rows, bounds)
        result.elapsed = time.perf_counter() - started
        return result

    # -- aggregation ---------------------------------------------------------

    def _bounds_for(self, factor: int) -> dict[str, dict]:
        """``{policy: {engine: NetworkBounds}}`` for one size factor.

        The factor's workload is lowered once, and the check's bound half
        evaluates ``calculus`` (which the canonical rows validate) and
        every selected engine on it.
        """
        inputs = _lower(self._context(), factor)
        return {policy: engine_bounds(inputs, policy, self.engines)
                for policy in self.policies}

    def _aggregate(self, outcomes: Iterable[CellOutcome],
                   bounds_per_factor: dict[int, dict]
                   ) -> list[MonteCarloRow]:
        """Fold the per-cell outcomes into per-configuration rows."""
        grouped: dict[tuple, list[CellOutcome]] = {}
        for outcome in outcomes:
            cell = outcome.cell
            key = (cell.size_factor, cell.scenario, cell.policy)
            grouped.setdefault(key, []).append(outcome)
        rows: list[MonteCarloRow] = []
        for factor in self.size_factors:
            for scenario in self.scenarios:
                for policy in self.policies:
                    group = grouped.get((factor, scenario, policy), [])
                    if not group:
                        continue
                    bounds = bounds_per_factor[factor][policy][
                        DEFAULT_ENGINE].classes
                    for cls in sorted(bounds):
                        samples = sum(
                            outcome.samples_per_class.get(cls, 0)
                            for outcome in group)
                        if samples == 0:
                            continue
                        worst = max(
                            outcome.worst_per_class[cls]
                            for outcome in group
                            if cls in outcome.worst_per_class)
                        means = [outcome.mean_per_class[cls]
                                 for outcome in group
                                 if cls in outcome.mean_per_class]
                        rows.append(MonteCarloRow(
                            size_factor=factor,
                            scenario=scenario,
                            policy=policy,
                            priority=cls,
                            seeds=len(group),
                            analytic_bound=bounds[cls],
                            worst_simulated=worst,
                            mean_simulated=reduce(operator.add, means, 0)
                            / len(means),
                            samples=samples))
        return rows

    def _aggregate_engines(self, rows: Iterable[MonteCarloRow],
                           bounds_per_factor: dict[int, dict]
                           ) -> list[MonteCarloEngineRow]:
        """Validate every selected engine against the aggregated worsts.

        Empty under the default selection: the canonical rows already
        validate the calculus bound, so default runs stay byte-identical
        to the pre-engine output.
        """
        if self.engines == DEFAULT_ENGINES:
            return []
        engine_rows: list[MonteCarloEngineRow] = []
        for row in rows:
            per_engine = bounds_per_factor[row.size_factor][row.policy]
            for name in self.engines:
                engine_rows.append(MonteCarloEngineRow(
                    size_factor=row.size_factor,
                    scenario=row.scenario,
                    policy=row.policy,
                    priority=row.priority,
                    engine=name,
                    bound=per_engine[name].classes.get(row.priority,
                                                       math.inf),
                    worst_simulated=row.worst_simulated,
                    samples=row.samples))
        return engine_rows


# ---------------------------------------------------------------------------
# Worker-process plumbing (shared by jobs=1, which runs it in-process)
# ---------------------------------------------------------------------------

#: Per-process campaign context set by :func:`_init_worker`.
_WORKER_CONTEXT: dict | None = None
#: Per-process cache: size factor -> its lowering (network, routed flows).
_WORKER_WORKLOADS: dict[int, ScenarioInputs] = {}
#: Per-run memo of seed-free outcomes:
#: (size factor, scenario, policy) -> the one simulated outcome.
_WORKER_SEED_FREE: dict[tuple[int, str, str], CellOutcome] = {}
#: Per-process result store handle (``None`` disables persistence).
_WORKER_STORE: ResultStore | None = None
#: Whether stored cells may be reused (the ``--resume`` mode).
_WORKER_RESUME: bool = False


def _cell_label(cell: SimulationCell) -> str:
    """Compact human label of one grid cell for failure tables."""
    return (f"x{cell.size_factor}/{cell.scenario}/{cell.policy}"
            f"/seed{cell.seed}")


def _graph_spec(context: dict, factor: int) -> GraphTopologySpec | None:
    """The multi-hop topology of a cell, or ``None`` for the legacy star."""
    topology = context.get("topology")
    if topology is None:
        return None
    if isinstance(topology, GraphTopologySpec):
        return topology
    stations = context["station_count"] * factor
    if topology.kind == "graph":
        return topology.build_graph(
            stations, capacity=context["capacity"],
            technology_delay=context["technology_delay"])
    return topology.build(
        stations, capacity=context["capacity"],
        technology_delay=context["technology_delay"]).spec


def _workload(context: dict, factor: int) -> MessageSet:
    """The (possibly scaled) message set of one size factor."""
    if context["messages"] is not None:
        message_set = MessageSet(name="simulate-workload")
        for message in context["messages"]:
            message_set.add(message)
        return message_set
    return generate_real_case(
        RealCaseParameters(
            station_count=context["station_count"] * factor),
        seed=context["workload_seed"])


def _lower(context: dict, factor: int) -> ScenarioInputs:
    """The lowering of one size factor: its workload on its network."""
    return lower(_workload(context, factor), capacity=context["capacity"],
                 technology_delay=context["technology_delay"],
                 graph_spec=_graph_spec(context, factor))


def _init_worker(context: dict, store_root: str | None = None,
                 resume: bool = False, *,
                 store: ResultStore | None = None) -> None:
    """Process-pool initializer: stash the campaign context and store.

    The in-process path passes its live ``store`` handle so hit/miss
    statistics accumulate on the campaign's own store; workers rebuild a
    handle from ``store_root``.
    """
    global _WORKER_CONTEXT, _WORKER_STORE, _WORKER_RESUME
    _WORKER_CONTEXT = context
    if store is None and store_root is not None:
        store = ResultStore(store_root)
    _WORKER_STORE = store
    _WORKER_RESUME = bool(resume)
    _WORKER_WORKLOADS.clear()
    _WORKER_SEED_FREE.clear()


def _cell_key(context: dict, cell: SimulationCell) -> dict:
    """The value-level spec fingerprinted for one simulation cell."""
    key = {"cell": cell,
           "station_count": context["station_count"],
           "workload_seed": context["workload_seed"],
           "messages": context["messages"],
           "duration": context["duration"],
           "capacity": context["capacity"],
           "technology_delay": context["technology_delay"]}
    if "topology" in context:
        # Absent for star runs, keeping their legacy fingerprints stable.
        key["topology"] = context["topology"]
    return key


def _outcome_to_payload(outcome: CellOutcome) -> dict:
    """One cell outcome as a JSON payload for the result store."""
    return {
        "worst": {cls.name: value
                  for cls, value in outcome.worst_per_class.items()},
        "mean": {cls.name: value
                 for cls, value in outcome.mean_per_class.items()},
        "samples": {cls.name: count
                    for cls, count in outcome.samples_per_class.items()},
        "instances_sent": outcome.instances_sent,
        "instances_delivered": outcome.instances_delivered,
        "frames_dropped": outcome.frames_dropped,
        "events_processed": outcome.events_processed,
        "elapsed": outcome.elapsed,
    }


def _outcome_from_payload(cell: SimulationCell,
                          payload: dict) -> CellOutcome:
    """Rebuild a stored cell outcome (marked ``resumed``)."""
    return CellOutcome(
        cell=cell,
        worst_per_class={PriorityClass[name]: float(value)
                         for name, value in payload["worst"].items()},
        mean_per_class={PriorityClass[name]: float(value)
                        for name, value in payload["mean"].items()},
        samples_per_class={PriorityClass[name]: int(count)
                           for name, count in payload["samples"].items()},
        instances_sent=int(payload["instances_sent"]),
        instances_delivered=int(payload["instances_delivered"]),
        frames_dropped=int(payload["frames_dropped"]),
        events_processed=int(payload["events_processed"]),
        elapsed=float(payload["elapsed"]),
        resumed=True)


def _evaluate_cell(cell: SimulationCell) -> CellOutcome:
    """One cell via the store (runs inside a worker process/in-process)."""
    context = _WORKER_CONTEXT
    assert context is not None, "worker used before initialization"
    if _WORKER_STORE is None:
        return _simulate_cell(context, cell)
    outcome, _ = _WORKER_STORE.cached(
        "simulation-cell", _cell_key(context, cell),
        lambda: _simulate_cell(context, cell),
        subsystem="simulation",
        encode=_outcome_to_payload,
        decode=lambda payload: _outcome_from_payload(cell, payload),
        reuse=_WORKER_RESUME)
    return outcome


def _simulate_cell(context: dict, cell: SimulationCell) -> CellOutcome:
    """Run one cell's discrete-event simulation.

    A seed-free cell whose configuration this worker already simulated
    in the current run gets a copy of that outcome instead.
    """
    seed_free = cell.scenario in SEED_FREE_SCENARIOS
    configuration = (cell.size_factor, cell.scenario, cell.policy)
    if seed_free and configuration in _WORKER_SEED_FREE:
        return replace(_WORKER_SEED_FREE[configuration], cell=cell,
                       copied=True)
    inputs = _WORKER_WORKLOADS.get(cell.size_factor)
    if inputs is None:
        inputs = _WORKER_WORKLOADS[cell.size_factor] = _lower(
            context, cell.size_factor)
        inputs.flows  # routed once per worker, outside the timed run
    started = time.perf_counter()
    results = simulate(inputs, cell.policy, scenario=cell.scenario,
                       seed=cell.seed, duration=context["duration"])
    elapsed = time.perf_counter() - started
    worst: dict[PriorityClass, float] = {}
    mean: dict[PriorityClass, float] = {}
    samples: dict[PriorityClass, int] = {}
    for cls, recorder in results.class_latencies.items():
        if recorder.count == 0:
            continue
        summary = recorder.summary()
        worst[cls] = summary.maximum
        mean[cls] = summary.mean
        samples[cls] = summary.count
    outcome = CellOutcome(
        cell=cell,
        worst_per_class=worst,
        mean_per_class=mean,
        samples_per_class=samples,
        instances_sent=results.instances_sent,
        instances_delivered=results.instances_delivered,
        frames_dropped=results.frames_dropped,
        events_processed=results.events_processed,
        elapsed=elapsed)
    if seed_free:
        _WORKER_SEED_FREE[configuration] = outcome
    return outcome
