"""Batched execution of scenarios with shared-intermediate memoization.

:class:`CampaignRunner` evaluates every scenario's per-class worst-case
delay and backlog bounds in one pass.  In the default *memoized* mode all
scenarios share one :class:`~repro.campaigns.cache.AnalysisCache`, so the
base message set is generated and aggregated once per distinct workload and
the scalability ladder's replicated sets are never materialised.  With
``memoize=False`` the runner does what a user would do by hand — rebuild the
full message set and recompute every aggregate for each scenario — which is
the baseline the campaign benchmark compares against.

Every row comes from :func:`repro.analysis.engines.calculus.scenario_rows`:
the scenario-level closed form
(:func:`repro.core.multiplexer.single_point_rows`, whose docstring states
the multi-hop composition rule) or, on graph topologies, the ``calculus``
verdict on the scenario's lowered network
(:func:`repro.analysis.engines.scenario_inputs`).  Each scenario
evaluation lowers at most once, on first need: the graph rows of every
policy, the cross-engine table and a fuzz cell's soundness check
(:meth:`CampaignRunner.evaluate`) all read that one lowering, and nothing
keeps it once the evaluation's caller lets it go.

Large campaigns can opt into process-level fan-out with ``jobs=N`` (the CLI
flag ``repro campaign --jobs N``): scenarios are distributed over worker
processes with :mod:`concurrent.futures`, each worker memoizing within its
own :class:`AnalysisCache`.  The single-process memoized path stays the
default and the naive path stays the correctness oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro.analysis.engines import (DEFAULT_ENGINES, EngineSpec, get_engine,
                                    resolve_engines, scenario_inputs)
from repro.analysis.engines.calculus import scenario_rows
from repro.campaigns.cache import AnalysisCache, CacheStats
from repro.campaigns.scenario import Scenario
from repro.core.multiplexer import aggregate_flows
from repro.exec import ExecPolicy, ExecutionReport, ParallelExecutor
from repro.flows.priorities import PriorityClass
from repro.reporting import (
    format_bound,
    format_bytes,
    format_ms,
    render_markdown_table,
    render_table,
    write_csv,
    yes_no,
)
from repro.store import ResultStore, StoreStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engines.base import ScenarioInputs

__all__ = ["CampaignRow", "CampaignEngineRow", "ScenarioResult",
           "CampaignResult", "CampaignRunner"]

#: Short policy labels used in the result tables.
POLICY_LABELS = {"fcfs": "FCFS", "strict-priority": "priority"}


@dataclass(frozen=True)
class CampaignRow:
    """Per-(scenario, policy, class) worst-case bounds."""

    scenario: str
    policy: str
    priority: PriorityClass
    #: Number of messages of the class (replication included).
    message_count: int
    #: Binding deadline of the class, or ``None``.
    deadline: float | None
    #: End-to-end worst-case delay bound in seconds; ``inf`` when the
    #: class is unstable under this scenario.
    bound: float
    #: Per-point backlog bound in bits (buffer dimensioning); ``inf`` when
    #: the class aggregate overruns its residual service rate.
    backlog_bits: float
    #: False when the bound is not a valid worst case (overload).
    stable: bool
    #: Multiplexing points on the worst-case route.
    hops: int

    @property
    def meets_deadline(self) -> bool:
        """True when the bound respects the class constraint."""
        return self.deadline is None or self.bound <= self.deadline


@dataclass(frozen=True)
class CampaignEngineRow:
    """One bound engine's verdict on one (scenario, policy, class) cell.

    Produced only when the runner is asked for a non-default engine
    selection (``repro campaign --engine ...``); the canonical
    :class:`CampaignRow` bounds stay the calculus results either way.
    """

    scenario: str
    engine: str
    policy: str
    priority: PriorityClass
    #: The engine's end-to-end delay bound in seconds (``inf`` when the
    #: engine flags the class unstable under this scenario).
    bound: float
    stable: bool


@dataclass
class ScenarioResult:
    """Every row produced by one scenario, plus its wall-clock cost."""

    scenario: Scenario
    rows: list[CampaignRow]
    elapsed: float
    #: True when the rows were served by the result store (``--resume``)
    #: instead of being recomputed; ``elapsed`` is then the *original*
    #: computation's cost, as stored.
    resumed: bool = False
    #: Cross-engine bounds of the scenario; empty under the default
    #: (calculus-only) engine selection.
    engine_rows: list[CampaignEngineRow] = field(default_factory=list)

    def rows_for(self, policy: str) -> list[CampaignRow]:
        """The rows of one multiplexing policy."""
        return [row for row in self.rows if row.policy == policy]

    def feasible(self, policy: str) -> bool:
        """True when every class is stable and meets its constraint."""
        rows = self.rows_for(policy)
        return bool(rows) and all(row.stable and row.meets_deadline
                                  for row in rows)


@dataclass
class CampaignResult:
    """The combined outcome of a campaign run."""

    results: list[ScenarioResult] = field(default_factory=list)
    elapsed: float = 0.0
    #: Cache statistics of the run (empty in naive mode).
    stats: dict[str, CacheStats] = field(default_factory=dict)
    #: Result-store counters of the run; ``None`` without a store or when
    #: the workers kept their own stores (``jobs > 1``).
    store_stats: StoreStats | None = None
    #: What the fault-tolerant executor observed (retries, recoveries,
    #: structured failures); ``None`` only for hand-built results.
    exec_report: ExecutionReport | None = None

    @property
    def failures(self) -> list:
        """Scenarios that exhausted their retries (empty when all ran)."""
        return [] if self.exec_report is None else self.exec_report.failures

    @property
    def resumed(self) -> int:
        """Number of scenarios served from the result store."""
        return sum(1 for result in self.results if result.resumed)

    SUMMARY_HEADERS = ("scenario", "configuration", "policy", "classes",
                      "feasible")
    DETAIL_HEADERS = ("scenario", "policy", "class", "messages",
                      "constraint", "bound", "ok", "backlog", "stable")
    ENGINE_HEADERS = ("scenario", "engine", "policy", "class", "bound",
                      "stable")

    def rows(self) -> list[CampaignRow]:
        """Every row of every scenario, in campaign order."""
        return [row for result in self.results for row in result.rows]

    def engine_rows(self) -> list[CampaignEngineRow]:
        """Every cross-engine row (empty under the default selection)."""
        return [row for result in self.results
                for row in result.engine_rows]

    def summary_cells(self) -> list[tuple]:
        """One summary line per (scenario, policy)."""
        cells = []
        for result in self.results:
            for policy in result.scenario.policies:
                cells.append((
                    result.scenario.name,
                    result.scenario.describe(),
                    POLICY_LABELS[policy],
                    len(result.rows_for(policy)),
                    yes_no(result.feasible(policy))))
        return cells

    def detail_cells(self) -> list[tuple]:
        """One formatted line per result row."""
        return [(row.scenario, POLICY_LABELS[row.policy],
                 row.priority.label, row.message_count,
                 format_ms(row.deadline), format_bound(row.bound),
                 yes_no(row.meets_deadline),
                 format_bytes(row.backlog_bits), yes_no(row.stable))
                for row in self.rows()]

    def engine_cells(self) -> list[tuple]:
        """One formatted line per cross-engine row."""
        return [(row.scenario, row.engine, POLICY_LABELS[row.policy],
                 row.priority.label, format_bound(row.bound),
                 yes_no(row.stable))
                for row in self.engine_rows()]

    def to_table(self) -> str:
        """Summary plus per-class detail as aligned ASCII tables.

        Runs with a non-default engine selection append a third table
        comparing every selected engine's bound per cell; default runs
        render exactly the pre-engine layout.
        """
        summary = render_table(self.SUMMARY_HEADERS, self.summary_cells(),
                               title="Campaign summary")
        detail = render_table(self.DETAIL_HEADERS, self.detail_cells(),
                              title="Per-class worst-case bounds")
        tables = summary + "\n" + detail
        if self.engine_rows():
            tables += "\n" + render_table(
                self.ENGINE_HEADERS, self.engine_cells(),
                title="Cross-engine bounds")
        return tables

    def to_markdown(self) -> str:
        """The same tables in GitHub-flavoured markdown."""
        summary = render_markdown_table(
            self.SUMMARY_HEADERS, self.summary_cells(),
            title="Campaign summary")
        detail = render_markdown_table(
            self.DETAIL_HEADERS, self.detail_cells(),
            title="Per-class worst-case bounds")
        tables = summary + "\n" + detail
        if self.engine_rows():
            tables += "\n" + render_markdown_table(
                self.ENGINE_HEADERS, self.engine_cells(),
                title="Cross-engine bounds")
        return tables

    def write_csv(self, path: str | Path) -> None:
        """Dump the raw (unformatted) rows to ``path``."""
        write_csv(path,
                  ["scenario", "policy", "priority", "messages",
                   "deadline_s", "bound_s", "backlog_bits", "meets_deadline",
                   "stable", "hops"],
                  [(row.scenario, row.policy, row.priority.name,
                    row.message_count,
                    "" if row.deadline is None else repr(row.deadline),
                    repr(row.bound), repr(row.backlog_bits),
                    row.meets_deadline, row.stable, row.hops)
                   for row in self.rows()])


class CampaignRunner:
    """Run scenarios in one batch, sharing intermediates when allowed.

    Parameters
    ----------
    cache:
        The shared :class:`AnalysisCache`; a fresh one is created when
        omitted.  Passing a warm cache lets successive campaigns reuse each
        other's intermediates.  Single-process only: with ``jobs > 1`` the
        workers build their own caches and this one is not consulted.
    memoize:
        ``True`` (default) shares intermediates across scenarios and scales
        replicated aggregates arithmetically.  ``False`` rebuilds and
        re-aggregates every scenario's full message set from scratch — the
        naive baseline used by the campaign benchmark.
    jobs:
        Number of worker processes to spread the scenarios over
        (default 1: evaluate in-process).  With ``jobs > 1`` every worker
        keeps its own memoization cache, so cross-scenario sharing happens
        per worker and the combined result carries no cache statistics;
        the rows are identical to a single-process run.
    store:
        An optional :class:`~repro.store.ResultStore`.  Finished
        scenarios are always *written* to it (fingerprinted by the
        scenario spec plus the ``campaigns`` code-version token); they
        are only *read back* with ``resume=True``, so a plain run still
        reports honest wall-clock numbers.
    resume:
        Reuse scenarios already present in the store — the
        ``repro campaign --resume`` mode that skips everything a previous
        (possibly interrupted) run completed.  Rows are identical either
        way because scenario evaluation is deterministic.
    exec_policy:
        The failure policy of the run (retries, per-scenario timeout,
        ``fail_fast`` / ``max_failures``); defaults to
        :class:`~repro.exec.ExecPolicy`'s retry-twice-never-abort.
    faults:
        Fault-plan text for chaos runs (see :mod:`repro.exec.faults`);
        defaults to ``$REPRO_FAULTS``.
    engines:
        Bound-engine selection (``repro campaign --engine ...``), as
        accepted by :func:`repro.analysis.engines.resolve_engines`.
        The canonical :class:`CampaignRow` bounds are always the
        calculus results; any non-default selection additionally
        populates ``engine_rows`` with every selected engine's bound
        per cell, and stored scenarios are keyed by the selection so
        cross-engine runs never collide with default runs.
    """

    def __init__(self, cache: AnalysisCache | None = None, *,
                 memoize: bool = True, jobs: int = 1,
                 store: ResultStore | None = None,
                 resume: bool = False,
                 exec_policy: ExecPolicy | None = None,
                 faults: str | None = None,
                 engines: "str | Iterable[str] | None" = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs!r}")
        self.memoize = memoize
        self.jobs = int(jobs)
        self.cache = cache if cache is not None else AnalysisCache()
        self.store = store
        self.resume = bool(resume)
        self.exec_policy = exec_policy
        self.faults = faults
        self.engines = resolve_engines(engines)

    # -- public API ----------------------------------------------------------

    def run(self, scenarios: Iterable[Scenario]) -> CampaignResult:
        """Evaluate every scenario and return the combined result.

        Scenarios that exhaust their retries become structured
        :class:`~repro.exec.CellFailure` records on
        ``result.exec_report`` instead of aborting the run; scenarios are
        value-level (frozen, picklable) specs, so with ``jobs > 1`` they
        ship to worker processes as-is and each worker builds one runner
        (and one cache) on initialization.
        """
        started = time.perf_counter()
        scenarios = list(scenarios)
        result = CampaignResult()
        executor = ParallelExecutor(jobs=self.jobs,
                                    policy=self.exec_policy,
                                    fault_spec=self.faults,
                                    label="scenario")
        store_root = None if self.store is None else str(self.store.root)
        report = executor.map(
            _evaluate_scenario, scenarios,
            initializer=_init_worker,
            initargs=(self.memoize, store_root, self.resume, self.engines),
            serial_fn=self._run_scenario,
            serial_setup=_serial_noop,
            labels=[scenario.name for scenario in scenarios])
        result.results = report.ordered_results()
        result.exec_report = report
        result.elapsed = time.perf_counter() - started
        ran_in_process = (self.jobs == 1 or len(scenarios) <= 1
                          or report.serial_fallback)
        if ran_in_process and self.memoize:
            # Snapshot the counters: the cache keeps mutating across runs.
            result.stats = {level: CacheStats(stats.hits, stats.misses)
                            for level, stats in self.cache.stats.items()}
        if ran_in_process and self.store is not None:
            result.store_stats = replace(self.store.stats)
        return result

    # -- internals -----------------------------------------------------------

    def _run_scenario(self, scenario: Scenario) -> ScenarioResult:
        """Evaluate one scenario, consulting the result store if present."""
        if self.store is None:
            return self._compute_scenario(scenario)
        if self.engines == DEFAULT_ENGINES:
            key: object = scenario  # pre-engine key: bit-identical store
        else:
            key = {"scenario": scenario,
                   "engines": [EngineSpec(name) for name in self.engines]}
        result, _ = self.store.cached(
            "campaign-scenario", key,
            lambda: self._compute_scenario(scenario),
            subsystem="campaigns",
            encode=_scenario_result_to_payload,
            decode=lambda payload: _scenario_result_from_payload(scenario,
                                                                 payload),
            reuse=self.resume)
        return result

    def evaluate(self, scenario: Scenario
                 ) -> "tuple[ScenarioResult, ScenarioInputs]":
        """One scenario in-process and store-free, with its lowering.

        The lowering is the one the scenario's rows were read from
        (graph topologies, cross-engine runs), else it is lowered here:
        the fuzz harness checks a cell's rows against a simulation of
        exactly this network.  The runner keeps no reference to it.
        """
        lowering = _lowering(scenario)
        return self._compute_scenario(scenario, lowering), lowering()

    def _compute_scenario(self, scenario: Scenario,
                          lowering: "Callable[[], ScenarioInputs] | None"
                          = None) -> ScenarioResult:
        """Per-class rows of one scenario under each of its policies.

        Each policy's rows come from
        :func:`~repro.analysis.engines.calculus.scenario_rows`.  Memoized
        mode reads the aggregates from the shared cache, naive mode
        builds them fresh; the inputs are bit-identical either way, and
        so are the rows.  ``lowering`` returns the scenario's lowering,
        built on its first call (here unless the caller passes one); the
        graph rows and the cross-engine table share it.
        """
        started = time.perf_counter()
        if lowering is None:
            lowering = _lowering(scenario)
        spec = scenario.workload
        if self.memoize:
            aggregates = self.cache.aggregates(spec)
            deadlines = self.cache.class_deadlines(spec)
        else:
            message_set = spec.build()
            aggregates = aggregate_flows(message_set.messages)
            deadlines = message_set.class_deadlines()
        rows: list[CampaignRow] = []
        rows_by_policy = {}
        for policy in scenario.policies:
            class_rows = scenario_rows(scenario, policy, aggregates, lowering)
            rows_by_policy[policy] = class_rows
            rows.extend(CampaignRow(
                scenario=scenario.name,
                policy=policy,
                priority=cls,
                message_count=aggregates[cls].count,
                deadline=deadlines.get(cls),
                bound=bound,
                backlog_bits=backlog,
                stable=math.isfinite(bound),
                hops=scenario.hops) for cls, (bound, backlog)
                in class_rows.items())
        engine_rows = self._engine_rows(scenario, rows_by_policy, lowering)
        return ScenarioResult(scenario=scenario, rows=rows,
                              elapsed=time.perf_counter() - started,
                              engine_rows=engine_rows)

    def _engine_rows(self, scenario: Scenario,
                     rows_by_policy: dict[str, dict[PriorityClass,
                                                    tuple[float, float]]],
                     lowering: "Callable[[], ScenarioInputs]"
                     ) -> list[CampaignEngineRow]:
        """Every selected engine's per-class bounds for one scenario.

        Empty under the default selection (the canonical rows *are* the
        calculus bounds); a non-default selection evaluates each engine
        — including ``calculus``, so the comparison table is complete —
        through the :class:`~repro.analysis.engines.base.BoundEngine`
        scenario interface.  Every engine × policy evaluation shares the
        scenario's one lowering (the rows' own, on graphs) and its
        routes.  Each policy's :func:`scenario_rows`, from
        ``rows_by_policy``, goes along, so an engine whose bounds are
        those rows reuses them.
        """
        if self.engines == DEFAULT_ENGINES:
            return []
        inputs = lowering()
        rows: list[CampaignEngineRow] = []
        for name in self.engines:
            engine = get_engine(name)
            if not engine.supports(scenario):
                continue
            for policy in scenario.policies:
                result = engine.class_bounds(scenario, policy, inputs=inputs,
                                             rows=rows_by_policy[policy])
                for bound in result.bounds:
                    rows.append(CampaignEngineRow(
                        scenario=scenario.name,
                        engine=name,
                        policy=policy,
                        priority=bound.priority,
                        bound=bound.bound,
                        stable=bound.stable))
        return rows


def _lowering(scenario: Scenario) -> "Callable[[], ScenarioInputs]":
    """:func:`scenario_inputs` of ``scenario``, lowered on the first call
    and kept by the returned callable only."""
    return cache(partial(scenario_inputs, scenario))


# ---------------------------------------------------------------------------
# Result-store (de)serialisation
# ---------------------------------------------------------------------------

def _scenario_result_to_payload(result: ScenarioResult) -> dict:
    """One scenario's rows as a JSON payload for the result store.

    The ``engine_rows`` key appears only for cross-engine runs, so the
    stored payload of every default run stays byte-identical to the
    pre-engine format.
    """
    payload = {
        "elapsed": result.elapsed,
        "rows": [{
            "scenario": row.scenario,
            "policy": row.policy,
            "priority": row.priority.name,
            "message_count": row.message_count,
            "deadline": row.deadline,
            "bound": row.bound,
            "backlog_bits": row.backlog_bits,
            "stable": row.stable,
            "hops": row.hops,
        } for row in result.rows],
    }
    if result.engine_rows:
        payload["engine_rows"] = [{
            "scenario": row.scenario,
            "engine": row.engine,
            "policy": row.policy,
            "priority": row.priority.name,
            "bound": row.bound,
            "stable": row.stable,
        } for row in result.engine_rows]
    return payload


def _scenario_result_from_payload(scenario: Scenario,
                                  payload: dict) -> ScenarioResult:
    """Rebuild a stored scenario result (marked ``resumed``)."""
    rows = [CampaignRow(
        scenario=row["scenario"],
        policy=row["policy"],
        priority=PriorityClass[row["priority"]],
        message_count=int(row["message_count"]),
        deadline=row["deadline"],
        bound=float(row["bound"]),
        backlog_bits=float(row["backlog_bits"]),
        stable=bool(row["stable"]),
        hops=int(row["hops"]),
    ) for row in payload["rows"]]
    engine_rows = [CampaignEngineRow(
        scenario=row["scenario"],
        engine=row["engine"],
        policy=row["policy"],
        priority=PriorityClass[row["priority"]],
        bound=float(row["bound"]),
        stable=bool(row["stable"]),
    ) for row in payload.get("engine_rows", [])]
    return ScenarioResult(scenario=scenario, rows=rows,
                          elapsed=float(payload["elapsed"]), resumed=True,
                          engine_rows=engine_rows)


# ---------------------------------------------------------------------------
# Worker-process plumbing for CampaignRunner(jobs=N)
# ---------------------------------------------------------------------------

#: The per-process runner of the fan-out mode, built by :func:`_init_worker`.
_WORKER_RUNNER: CampaignRunner | None = None


def _serial_noop() -> None:
    """Serial-execution setup: the live runner already has cache/store."""


def _init_worker(memoize: bool, store_root: str | None = None,
                 resume: bool = False,
                 engines: tuple[str, ...] = DEFAULT_ENGINES) -> None:
    """Process-pool initializer: one runner (and cache/store) per worker."""
    global _WORKER_RUNNER
    store = None if store_root is None else ResultStore(store_root)
    _WORKER_RUNNER = CampaignRunner(memoize=memoize, store=store,
                                    resume=resume, engines=engines)


def _evaluate_scenario(scenario: Scenario) -> ScenarioResult:
    """Evaluate one scenario inside a worker process."""
    assert _WORKER_RUNNER is not None, "worker used before initialization"
    return _WORKER_RUNNER._run_scenario(scenario)
