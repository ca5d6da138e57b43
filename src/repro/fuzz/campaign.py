"""Soundness fuzzing: generated scenarios vs the invariants that must hold.

:class:`FuzzCampaign` pushes :class:`~repro.fuzz.generator.ScenarioGenerator`
scenarios through the *existing* evaluation paths — the analytic campaign
runner (:class:`~repro.campaigns.runner.CampaignRunner`) and the
discrete-event simulator behind :class:`~repro.simulation.campaign.
SimulationCampaign` — and checks, for every cell, the invariants the paper's
soundness claim rests on:

1. **soundness** — the wire-level analytic bound of every (policy, class)
   dominates the simulated worst case on the shared star (the multi-hop
   campaign bound dominates the single-point bound by construction, so the
   star is a valid floor for every legacy topology kind); ``"graph"``
   scenarios are simulated on their actual routed topology instead and
   checked against the per-path bounds of
   :class:`~repro.analysis.multihop.GraphPathAnalysis`, including the
   per-port backlog bounds vs the simulator's observed queue peaks,
2. **stability consistency** — a campaign row is ``stable`` iff its delay
   and backlog bounds are finite (and a stable delay bound is
   non-negative),
3. **byte-determinism** — evaluating the cell twice, once through the
   memoized campaign cache and once through a fresh naive runner plus a
   fresh simulator, yields byte-identical canonical-JSON measurements,
4. **store round-trip identity** — encoding the outcome to its result-store
   payload and decoding it back reproduces the identical payload.

Cells are value-level and deterministic, so campaigns fan out over worker
processes (``jobs=N``), persist per-cell results in the content-addressed
store (subsystem ``fuzz``) and resume byte-identically with ``--resume`` —
the same machinery the analytic and Monte-Carlo campaigns use.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro import units
from repro.analysis.engines import (DEFAULT_ENGINE, DEFAULT_ENGINES,
                                    resolve_engines, scenario_inputs)
from repro.analysis.validation import (PortValidationRow, check,
                                       tightness_of, within_bound)
from repro.campaigns.runner import CampaignRow, CampaignRunner
from repro.campaigns.scenario import Scenario
from repro.errors import ConfigurationError
from repro.exec import ExecPolicy, ExecutionReport, ParallelExecutor
from repro.flows.priorities import PriorityClass
from repro.fuzz.generator import GeneratorConfig, ScenarioGenerator
from repro.reporting import (
    format_ms,
    render_markdown_table,
    render_table,
    write_csv,
    yes_no,
)
from repro.store import ResultStore, canonical_json

__all__ = [
    "FuzzCell",
    "FuzzBoundRow",
    "FuzzPortRow",
    "FuzzEngineRow",
    "FuzzOutcome",
    "FuzzResult",
    "FuzzCampaign",
    "evaluate_scenario",
]

#: Default simulated horizon per cell: one 1553B major frame.
DEFAULT_DURATION = units.ms(160)
#: Default simulation seed shared by every cell (the scenario spec is the
#: randomised axis; the release draw stays fixed and reproducible).
DEFAULT_SIM_SEED = 1
#: Default near-tight threshold: cells whose simulated worst reaches 90 %
#: of the analytic bound are corpus-worthy edge cases.
DEFAULT_TIGHTNESS_THRESHOLD = 0.9

#: Short policy labels reused from the campaign tables.
_POLICY_LABELS = {"fcfs": "FCFS", "strict-priority": "priority"}


@dataclass(frozen=True)
class FuzzCell:
    """One unit of fuzzing work: a generated scenario plus its sim config."""

    #: Position in the generator stream (part of the store key).
    index: int
    scenario: Scenario
    #: Seed of the simulator's random streams.
    sim_seed: int
    #: Simulated horizon in seconds.
    duration: float


@dataclass(frozen=True)
class FuzzBoundRow:
    """Wire-level analytic bound vs simulated worst for one (policy, class)."""

    policy: str
    priority: PriorityClass
    #: Wire-level single-point bound on the shared star (seconds);
    #: ``inf`` when the wire-level aggregate overloads the link.
    analytic_bound: float
    #: Worst latency observed by the simulator (seconds).
    worst_simulated: float
    #: Mean observed latency (seconds).
    mean_simulated: float
    #: Number of latency samples behind the observation.
    samples: int

    @property
    def bound_holds(self) -> bool:
        """True when the bound dominates the simulated worst case."""
        return within_bound(self.worst_simulated, self.analytic_bound)

    @property
    def tightness(self) -> float:
        """Simulated worst over bound (:func:`tightness_of`)."""
        return tightness_of(self.worst_simulated, self.analytic_bound)


#: Analytic per-port backlog bound vs observed queue peak, one row per
#: ``(policy, directed port)`` of a ``"graph"`` cell: the soundness
#: check's port row.
FuzzPortRow = PortValidationRow


@dataclass(frozen=True)
class FuzzEngineRow:
    """One alternative engine's bound vs the simulated floor.

    The ``calculus`` engine's verdicts are the :class:`FuzzBoundRow`
    rows (the harness' historical floor check, kept byte-identical);
    rows of this type cover the *other* registered engines when a
    campaign runs with ``--engine holistic|trajectory|all``.
    """

    engine: str
    policy: str
    priority: PriorityClass
    #: The engine's wire-level bound (seconds); ``inf`` when flagged
    #: unstable.
    bound: float
    #: Worst latency observed by the simulator (seconds).
    worst_simulated: float
    #: Number of latency samples behind the observation.
    samples: int

    @property
    def bound_holds(self) -> bool:
        """True when the engine's bound dominates the simulated worst."""
        return within_bound(self.worst_simulated, self.bound)

    @property
    def tightness(self) -> float:
        """Simulated worst over bound (:func:`tightness_of`)."""
        return tightness_of(self.worst_simulated, self.bound)


@dataclass(frozen=True)
class FuzzOutcome:
    """Everything one fuzzed cell contributes to the campaign."""

    cell: FuzzCell
    #: The analytic campaign rows of the scenario (multi-hop bounds).
    campaign_rows: tuple[CampaignRow, ...]
    #: Wire-level bound vs simulation rows (classes with samples only).
    bound_rows: tuple[FuzzBoundRow, ...]
    #: Human-readable invariant violations; empty when all hold.
    violations: tuple[str, ...]
    events_processed: int
    frames_dropped: int
    elapsed: float
    #: True when served from the result store (``--resume``).
    resumed: bool = False
    #: Per-port backlog bound vs observation rows (``"graph"`` cells only).
    port_rows: tuple[FuzzPortRow, ...] = ()
    #: Bounds of the non-default engines (``--engine`` beyond calculus).
    engine_rows: tuple[FuzzEngineRow, ...] = ()

    @property
    def engines(self) -> tuple[str, ...]:
        """Every engine this cell validated (the floor engine first)."""
        names = [DEFAULT_ENGINE]
        for row in self.engine_rows:
            if row.engine not in names:
                names.append(row.engine)
        return tuple(names)

    def near_tight_engines(self, threshold: float) -> tuple[str, ...]:
        """Engines whose worst/bound ratio reaches ``threshold`` here."""
        names = []
        if math.isfinite(self.max_tightness) and \
                self.max_tightness >= threshold:
            names.append(DEFAULT_ENGINE)
        for row in self.engine_rows:
            if row.engine not in names and math.isfinite(row.tightness) \
                    and row.tightness >= threshold:
                names.append(row.engine)
        return tuple(names)

    @property
    def max_tightness(self) -> float:
        """Largest finite worst/bound ratio of the cell; ``nan`` if none."""
        ratios = [row.tightness for row in self.bound_rows
                  if math.isfinite(row.tightness)]
        return max(ratios) if ratios else float("nan")

    @property
    def holds(self) -> bool:
        """True when every invariant held for this cell."""
        return not self.violations


@dataclass
class FuzzResult:
    """The combined outcome of one fuzz campaign."""

    outcomes: list[FuzzOutcome] = field(default_factory=list)
    #: Cells at or above this tightness ratio count as *interesting*.
    tightness_threshold: float = DEFAULT_TIGHTNESS_THRESHOLD
    elapsed: float = 0.0
    #: What the fault-tolerant executor observed (retries, recoveries,
    #: structured failures); ``None`` only for hand-built results.
    exec_report: ExecutionReport | None = None

    ROW_HEADERS = ("scenario", "configuration", "policy", "class",
                   "bound", "worst sim", "tightness", "ok")

    @property
    def failures(self) -> list:
        """Cells that exhausted their retries (empty when all ran)."""
        return [] if self.exec_report is None else self.exec_report.failures

    @property
    def cells(self) -> int:
        """Number of fuzzed cells."""
        return len(self.outcomes)

    @property
    def resumed(self) -> int:
        """Number of cells served from the result store."""
        return sum(1 for outcome in self.outcomes if outcome.resumed)

    @property
    def events_processed(self) -> int:
        """Total simulation events across every cell."""
        return sum(outcome.events_processed for outcome in self.outcomes)

    @property
    def violations(self) -> list[tuple[FuzzOutcome, str]]:
        """Every invariant violation, paired with its cell outcome."""
        return [(outcome, message) for outcome in self.outcomes
                for message in outcome.violations]

    @property
    def violation_count(self) -> int:
        """Number of invariant violations across the campaign."""
        return len(self.violations)

    @property
    def all_invariants_hold(self) -> bool:
        """True when at least one cell ran and no invariant was violated."""
        return bool(self.outcomes) and all(outcome.holds
                                           for outcome in self.outcomes)

    @property
    def max_tightness(self) -> float:
        """Largest finite worst/bound ratio of the campaign.

        Returns the documented ``nan`` sentinel when no cell produced a
        finite ratio (e.g. every generated scenario was overloaded).
        """
        ratios = [outcome.max_tightness for outcome in self.outcomes
                  if math.isfinite(outcome.max_tightness)]
        return max(ratios) if ratios else float("nan")

    def interesting(self) -> list[FuzzOutcome]:
        """Violating or near-tight cells, most interesting first.

        Violations come first (generator order); near-tight cells follow by
        decreasing tightness, scenario name breaking ties — a deterministic
        order the corpus writer relies on.
        """
        violating = [outcome for outcome in self.outcomes
                     if not outcome.holds]
        near_tight = sorted(
            (outcome for outcome in self.outcomes
             if outcome.holds
             and math.isfinite(outcome.max_tightness)
             and outcome.max_tightness >= self.tightness_threshold),
            key=lambda outcome: (-outcome.max_tightness,
                                 outcome.cell.scenario.name))
        return violating + near_tight

    def tightest_rows(self, limit: int = 10
                      ) -> list[tuple[FuzzOutcome, FuzzBoundRow]]:
        """The ``limit`` tightest (cell, row) pairs, deterministic order."""
        pairs = [(outcome, row) for outcome in self.outcomes
                 for row in outcome.bound_rows
                 if math.isfinite(row.tightness)]
        pairs.sort(key=lambda pair: (-pair[1].tightness,
                                     pair[0].cell.scenario.name,
                                     pair[1].policy, pair[1].priority))
        return pairs[:limit]

    def row_cells(self, limit: int = 10) -> list[tuple]:
        """One formatted line per tightest row."""
        return [(outcome.cell.scenario.name,
                 outcome.cell.scenario.describe(),
                 _POLICY_LABELS[row.policy], row.priority.label,
                 format_ms(row.analytic_bound),
                 format_ms(row.worst_simulated),
                 f"{row.tightness:.3f}", yes_no(row.bound_holds))
                for outcome, row in self.tightest_rows(limit)]

    def to_table(self, limit: int = 10) -> str:
        """The tightest rows as an aligned ASCII table."""
        return render_table(self.ROW_HEADERS, self.row_cells(limit),
                            title="Tightest fuzzed cells")

    def to_markdown(self, limit: int = 10) -> str:
        """The tightest rows in GitHub-flavoured markdown."""
        return render_markdown_table(self.ROW_HEADERS, self.row_cells(limit),
                                     title="Tightest fuzzed cells")

    def write_csv(self, path: str | Path) -> None:
        """Dump the raw (unformatted) bound rows of every cell to ``path``.

        The rows depend only on the generator seed and the cell specs, so
        two runs of the same campaign write byte-identical files (wall
        -clock quantities are deliberately excluded).
        """
        stable_by_key = {
            (outcome.cell.index, row.policy, row.priority): row.stable
            for outcome in self.outcomes for row in outcome.campaign_rows}
        write_csv(path,
                  ["index", "scenario", "stations", "replication",
                   "size_factor", "topology", "capacity_bps", "policy",
                   "priority", "bound_s", "worst_simulated_s", "samples",
                   "tightness", "bound_holds", "stable", "violations"],
                  [(outcome.cell.index, outcome.cell.scenario.name,
                    outcome.cell.scenario.workload.station_count,
                    outcome.cell.scenario.workload.replication,
                    repr(outcome.cell.scenario.workload.size_factor),
                    outcome.cell.scenario.topology.kind,
                    repr(outcome.cell.scenario.capacity),
                    row.policy, row.priority.name,
                    repr(row.analytic_bound), repr(row.worst_simulated),
                    row.samples, repr(row.tightness), row.bound_holds,
                    stable_by_key.get(
                        (outcome.cell.index, row.policy, row.priority), ""),
                    len(outcome.violations))
                   for outcome in self.outcomes
                   for row in outcome.bound_rows])


class FuzzCampaign:
    """Generate ``count`` scenarios and check every invariant on each.

    Parameters
    ----------
    count:
        Number of scenarios to draw from the generator stream.
    seed:
        Master seed of the :class:`ScenarioGenerator` — the same
        ``(seed, count)`` pair always fuzzes the identical cells.
    config:
        Generator choice lists (defaults to :class:`GeneratorConfig`).
    sim_seed / duration:
        Simulation seed and horizon shared by every cell.
    jobs:
        Worker processes to spread the cells over (default 1, in-process);
        results are identical for any value.
    store / resume:
        Result-store handle and reuse flag, exactly like
        :class:`~repro.simulation.campaign.SimulationCampaign`: cells are
        always written, and only read back with ``resume=True``, so an
        interrupted ``repro fuzz`` picks up where it stopped with
        byte-identical results.
    tightness_threshold:
        Cells whose worst/bound ratio reaches this value are flagged
        *interesting* (corpus candidates) even when every invariant holds.
    engines:
        Bound engines to validate against the simulated floor (any
        :func:`repro.analysis.engines.resolve_engines` selection).  The
        default validates only the historical ``calculus`` floor; every
        additional engine contributes :class:`FuzzEngineRow` rows and an
        ``engine-soundness`` invariant per (policy, class).
    """

    def __init__(self, *, count: int, seed: int = 0,
                 config: GeneratorConfig | None = None,
                 sim_seed: int = DEFAULT_SIM_SEED,
                 duration: float = DEFAULT_DURATION,
                 jobs: int = 1,
                 store: ResultStore | None = None,
                 resume: bool = False,
                 tightness_threshold: float = DEFAULT_TIGHTNESS_THRESHOLD,
                 exec_policy: ExecPolicy | None = None,
                 faults: str | None = None,
                 engines: "str | Sequence[str] | None" = None) -> None:
        if count < 1:
            raise ConfigurationError(
                f"count must be at least 1, got {count!r}")
        if duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {duration!r}")
        if jobs < 1:
            raise ConfigurationError(
                f"jobs must be at least 1, got {jobs!r}")
        if not 0 < tightness_threshold:
            raise ConfigurationError(
                f"tightness threshold must be positive, "
                f"got {tightness_threshold!r}")
        self.generator = ScenarioGenerator(seed, config)
        self.count = int(count)
        self.sim_seed = int(sim_seed)
        self.duration = float(duration)
        self.jobs = int(jobs)
        self.store = store
        self.resume = bool(resume)
        self.tightness_threshold = float(tightness_threshold)
        self.exec_policy = exec_policy
        self.faults = faults
        self.engines = resolve_engines(engines)

    @property
    def seed(self) -> int:
        """Master seed of the generator stream."""
        return self.generator.seed

    def cells(self) -> list[FuzzCell]:
        """The campaign's cells, in generator-stream order."""
        return [FuzzCell(index=index,
                         scenario=self.generator.scenario(index),
                         sim_seed=self.sim_seed,
                         duration=self.duration)
                for index in range(self.count)]

    def run(self) -> FuzzResult:
        """Fuzz every cell and collect the invariant verdicts.

        Cells that exhaust their retries become structured
        :class:`~repro.exec.CellFailure` records on
        ``result.exec_report`` instead of killing the campaign; re-run
        with ``--resume`` to fill the holes from the store.
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
            initargs=(store_root, self.resume, self.engines),
            serial_setup=lambda: _init_worker(store_root, self.resume,
                                              self.engines,
                                              store=self.store),
            labels=[cell.scenario.name for cell in cells])
        result = FuzzResult(outcomes=report.ordered_results(),
                            tightness_threshold=self.tightness_threshold)
        result.exec_report = report
        result.elapsed = time.perf_counter() - started
        return result


def evaluate_scenario(scenario: Scenario, *,
                      duration: float = DEFAULT_DURATION,
                      sim_seed: int = DEFAULT_SIM_SEED,
                      engines: "str | Sequence[str] | None" = None
                      ) -> FuzzOutcome:
    """Evaluate one scenario in-process, store-free.

    This is the entry point the shrinker and the corpus replay tests use:
    no result store is consulted, so a replay exercises the live code and
    nothing else.  With the default ``engines`` the outcome is
    byte-identical to the pre-engine harness; additional engines add
    :class:`FuzzEngineRow` rows and their soundness verdicts.
    """
    return _compute_cell(FuzzCell(index=0, scenario=scenario,
                                  sim_seed=int(sim_seed),
                                  duration=float(duration)),
                         engines=resolve_engines(engines))


# ---------------------------------------------------------------------------
# Per-cell evaluation (runs inside worker processes; jobs=1 runs in-process)
# ---------------------------------------------------------------------------

#: Per-process result store handle (``None`` disables persistence).
_WORKER_STORE: ResultStore | None = None
#: Whether stored cells may be reused (the ``--resume`` mode).
_WORKER_RESUME: bool = False
#: Per-process memoized campaign runner, shared across the worker's cells.
_MEMO_RUNNER: CampaignRunner | None = None
#: Engines validated per cell (the campaign's resolved ``--engine``).
_WORKER_ENGINES: tuple[str, ...] = DEFAULT_ENGINES


def _init_worker(store_root: str | None = None, resume: bool = False,
                 engines: tuple[str, ...] = DEFAULT_ENGINES, *,
                 store: ResultStore | None = None) -> None:
    """Process-pool initializer: stash the store handle, reset the cache."""
    global _WORKER_STORE, _WORKER_RESUME, _MEMO_RUNNER, _WORKER_ENGINES
    if store is None and store_root is not None:
        store = ResultStore(store_root)
    _WORKER_STORE = store
    _WORKER_RESUME = bool(resume)
    _MEMO_RUNNER = None
    _WORKER_ENGINES = tuple(engines)


def _memoized_runner() -> CampaignRunner:
    """The worker's shared memoized campaign runner (built lazily)."""
    global _MEMO_RUNNER
    if _MEMO_RUNNER is None:
        _MEMO_RUNNER = CampaignRunner(memoize=True)
    return _MEMO_RUNNER


def _evaluate_cell(cell: FuzzCell) -> FuzzOutcome:
    """One cell via the store (or directly when the store is disabled)."""
    engines = _WORKER_ENGINES
    if _WORKER_STORE is None:
        return _compute_cell(cell, engines=engines)
    # The bare cell stays the store key of default runs (pre-engine cells
    # remain addressable); multi-engine runs get their own identity.
    key = cell if engines == DEFAULT_ENGINES else \
        {"cell": cell, "engines": list(engines)}
    outcome, _ = _WORKER_STORE.cached(
        "fuzz-cell", key,
        lambda: _compute_cell(cell, engines=engines),
        subsystem="fuzz",
        encode=_outcome_to_payload,
        decode=lambda payload: _outcome_from_payload(cell, payload),
        reuse=_WORKER_RESUME)
    return outcome


def _measure(cell: FuzzCell, runner: CampaignRunner,
             engines: tuple[str, ...] = DEFAULT_ENGINES
             ) -> tuple[tuple[tuple[CampaignRow, ...],
                              tuple[FuzzBoundRow, ...],
                              tuple[FuzzPortRow, ...], int, int],
                        tuple[FuzzEngineRow, ...]]:
    """One full evaluation of a cell through the given campaign runner.

    Returns ``((campaign_rows, bound_rows, port_rows, events_processed,
    frames_dropped), engine_rows)``: the measurement, deterministic given
    the cell spec, and the rows of every requested engine beyond
    ``calculus``.  The scenario is lowered here (:func:`scenario_inputs`)
    and every policy runs the soundness check on it: legacy cells on the
    shared star (replicas use ``-rk`` station suffixes) against the
    wire-level end-to-end bound, ``"graph"`` cells on their routed
    topology against the per-path and per-port bounds.
    """
    scenario = cell.scenario
    campaign_rows = tuple(runner.run([scenario]).results[0].rows)
    inputs = scenario_inputs(scenario)
    checks = [check(inputs, policy, engines=engines, seed=cell.sim_seed,
                    duration=cell.duration) for policy in scenario.policies]
    bound_rows = tuple(
        FuzzBoundRow(policy=row.policy, priority=row.priority,
                     analytic_bound=row.analytic_bound,
                     worst_simulated=row.simulated_worst,
                     mean_simulated=row.simulated_mean, samples=row.samples)
        for result in checks for row in result.rows
        if row.engine == DEFAULT_ENGINE)
    # Star cells keep no port rows: only graph lowerings bound ports.
    port_rows = tuple(port for result in checks for port in result.ports)
    engine_rows = tuple(
        FuzzEngineRow(engine=name, policy=row.policy, priority=row.priority,
                      bound=row.analytic_bound,
                      worst_simulated=row.simulated_worst,
                      samples=row.samples)
        for name in engines if name != DEFAULT_ENGINE
        for result in checks for row in result.rows if row.engine == name)
    measurement = (campaign_rows, bound_rows, port_rows,
                   sum(result.events for result in checks),
                   sum(result.dropped for result in checks))
    return measurement, engine_rows


def _invariant_violations(campaign_rows: Iterable[CampaignRow],
                          bound_rows: Iterable[FuzzBoundRow],
                          port_rows: Iterable[FuzzPortRow] = (),
                          engine_rows: Iterable[FuzzEngineRow] = ()
                          ) -> list[str]:
    """The static invariant violations of one measurement (usually none)."""
    violations: list[str] = []
    for row in campaign_rows:
        finite = math.isfinite(row.bound)
        if row.stable != finite:
            violations.append(
                f"stability: {row.policy}/{row.priority.name} "
                f"stable={row.stable} but bound={row.bound!r}")
        if row.stable != math.isfinite(row.backlog_bits):
            violations.append(
                f"stability: {row.policy}/{row.priority.name} "
                f"stable={row.stable} but backlog={row.backlog_bits!r}")
        if row.stable and row.bound < 0:
            violations.append(
                f"stability: {row.policy}/{row.priority.name} "
                f"negative bound {row.bound!r}")
    for row in bound_rows:
        if not row.bound_holds:
            violations.append(
                f"soundness: {row.policy}/{row.priority.name} simulated "
                f"worst {row.worst_simulated!r} exceeds analytic bound "
                f"{row.analytic_bound!r}")
    for port in port_rows:
        if not port.bound_holds:
            violations.append(
                f"backlog: {port.policy} port {port.node}->{port.toward} "
                f"observed {port.observed_bits!r} bits exceeds bound "
                f"{port.backlog_bound!r}")
    for row in engine_rows:
        if not row.bound_holds:
            violations.append(
                f"engine-soundness: {row.engine} {row.policy}/"
                f"{row.priority.name} simulated worst "
                f"{row.worst_simulated!r} exceeds engine bound "
                f"{row.bound!r}")
    return violations


def _compute_cell(cell: FuzzCell,
                  engines: tuple[str, ...] = DEFAULT_ENGINES) -> FuzzOutcome:
    """Evaluate one cell twice and check every invariant."""
    started = time.perf_counter()
    first, engine_rows = _measure(cell, _memoized_runner(), engines)
    # Second evaluation from scratch: a fresh naive runner (no shared
    # cache, no arithmetic replication shortcuts), a fresh lowering and a
    # fresh simulator.  Byte-equality of the two measurements checks
    # determinism *and* the memoized-equals-naive contract in one
    # comparison.
    second, _ = _measure(cell, CampaignRunner(memoize=False))
    violations = _invariant_violations(first[0], first[1], first[2],
                                       engine_rows)
    first_json = canonical_json(_measurement_payload(*first))
    second_json = canonical_json(_measurement_payload(*second))
    if first_json != second_json:
        violations.append(
            "determinism: memoized and fresh naive evaluations disagree "
            "(measurement payloads are not byte-identical)")
    campaign_rows, bound_rows, port_rows, events, dropped = first
    outcome = FuzzOutcome(
        cell=cell,
        campaign_rows=campaign_rows,
        bound_rows=bound_rows,
        port_rows=port_rows,
        engine_rows=engine_rows,
        violations=tuple(violations),
        events_processed=events,
        frames_dropped=dropped,
        elapsed=time.perf_counter() - started)
    payload = _outcome_to_payload(outcome)
    round_tripped = _outcome_to_payload(_outcome_from_payload(cell, payload))
    if canonical_json(round_tripped) != canonical_json(payload):
        outcome = FuzzOutcome(
            cell=cell,
            campaign_rows=campaign_rows,
            bound_rows=bound_rows,
            port_rows=port_rows,
            engine_rows=engine_rows,
            violations=tuple(violations) + (
                "round-trip: store payload is not identical after "
                "encode/decode",),
            events_processed=events,
            frames_dropped=dropped,
            elapsed=outcome.elapsed)
    return outcome


# ---------------------------------------------------------------------------
# Result-store (de)serialisation
# ---------------------------------------------------------------------------

def _campaign_row_payload(row: CampaignRow) -> dict:
    return {"scenario": row.scenario,
            "policy": row.policy,
            "priority": row.priority.name,
            "message_count": row.message_count,
            "deadline": row.deadline,
            "bound": row.bound,
            "backlog_bits": row.backlog_bits,
            "stable": row.stable,
            "hops": row.hops}


def _campaign_row_from_payload(payload: dict) -> CampaignRow:
    return CampaignRow(scenario=payload["scenario"],
                       policy=payload["policy"],
                       priority=PriorityClass[payload["priority"]],
                       message_count=int(payload["message_count"]),
                       deadline=payload["deadline"],
                       bound=float(payload["bound"]),
                       backlog_bits=float(payload["backlog_bits"]),
                       stable=bool(payload["stable"]),
                       hops=int(payload["hops"]))


def _bound_row_payload(row: FuzzBoundRow) -> dict:
    return {"policy": row.policy,
            "priority": row.priority.name,
            "bound": row.analytic_bound,
            "worst": row.worst_simulated,
            "mean": row.mean_simulated,
            "samples": row.samples}


def _bound_row_from_payload(payload: dict) -> FuzzBoundRow:
    return FuzzBoundRow(policy=payload["policy"],
                        priority=PriorityClass[payload["priority"]],
                        analytic_bound=float(payload["bound"]),
                        worst_simulated=float(payload["worst"]),
                        mean_simulated=float(payload["mean"]),
                        samples=int(payload["samples"]))


def _port_row_payload(row: FuzzPortRow) -> dict:
    return {"policy": row.policy,
            "node": row.node,
            "toward": row.toward,
            "bound_bits": row.backlog_bound,
            "observed_bits": row.observed_bits}


def _port_row_from_payload(payload: dict) -> FuzzPortRow:
    return FuzzPortRow(policy=payload["policy"],
                       node=payload["node"],
                       toward=payload["toward"],
                       backlog_bound=float(payload["bound_bits"]),
                       observed_bits=float(payload["observed_bits"]))


def _engine_row_payload(row: FuzzEngineRow) -> dict:
    return {"engine": row.engine,
            "policy": row.policy,
            "priority": row.priority.name,
            "bound": row.bound,
            "worst": row.worst_simulated,
            "samples": row.samples}


def _engine_row_from_payload(payload: dict) -> FuzzEngineRow:
    return FuzzEngineRow(engine=payload["engine"],
                         policy=payload["policy"],
                         priority=PriorityClass[payload["priority"]],
                         bound=float(payload["bound"]),
                         worst_simulated=float(payload["worst"]),
                         samples=int(payload["samples"]))


def _measurement_payload(campaign_rows: Iterable[CampaignRow],
                         bound_rows: Iterable[FuzzBoundRow],
                         port_rows: Iterable[FuzzPortRow],
                         events: int, dropped: int,
                         engine_rows: Iterable[FuzzEngineRow] = ()) -> dict:
    """The deterministic part of a cell's outcome as a JSON payload.

    This is both the store payload's ``measurement`` entry and the object
    whose canonical JSON the byte-determinism invariant compares.  The
    ``engines`` key appears only when non-default engines ran, keeping
    default payloads (and the committed corpus) byte-identical to the
    pre-engine format.
    """
    payload = {"campaign": [_campaign_row_payload(row)
                            for row in campaign_rows],
               "rows": [_bound_row_payload(row) for row in bound_rows],
               "ports": [_port_row_payload(row) for row in port_rows],
               "events": int(events),
               "frames_dropped": int(dropped)}
    engine_rows = list(engine_rows)
    if engine_rows:
        payload["engines"] = [_engine_row_payload(row)
                              for row in engine_rows]
    return payload


def _outcome_to_payload(outcome: FuzzOutcome) -> dict:
    """One cell outcome as a JSON payload for the result store."""
    return {"measurement": _measurement_payload(
                outcome.campaign_rows, outcome.bound_rows,
                outcome.port_rows,
                outcome.events_processed, outcome.frames_dropped,
                outcome.engine_rows),
            "violations": list(outcome.violations),
            "elapsed": outcome.elapsed}


def _outcome_from_payload(cell: FuzzCell, payload: dict) -> FuzzOutcome:
    """Rebuild a stored cell outcome (marked ``resumed``)."""
    measurement = payload["measurement"]
    return FuzzOutcome(
        cell=cell,
        campaign_rows=tuple(_campaign_row_from_payload(row)
                            for row in measurement["campaign"]),
        bound_rows=tuple(_bound_row_from_payload(row)
                         for row in measurement["rows"]),
        port_rows=tuple(_port_row_from_payload(row)
                        for row in measurement.get("ports", [])),
        engine_rows=tuple(_engine_row_from_payload(row)
                          for row in measurement.get("engines", [])),
        violations=tuple(payload["violations"]),
        events_processed=int(measurement["events"]),
        frames_dropped=int(measurement["frames_dropped"]),
        elapsed=float(payload["elapsed"]),
        resumed=True)
