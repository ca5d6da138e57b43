"""Command-line interface: run the paper's experiments from a terminal.

The CLI mirrors the benchmark harness for users who just want the tables
without pytest::

    python -m repro figure1                  # E1 - Figure 1
    python -m repro violations               # E2 - FCFS violations vs capacity
    python -m repro baseline-1553            # E3 - 1553B schedule & simulation
    python -m repro compare                  # E4 - 1553B vs Ethernet
    python -m repro validate                 # E5 - bounds vs simulation
    python -m repro jitter                   # E6 - jitter comparison
    python -m repro buffers                  # buffer dimensioning
    python -m repro export --output set.csv  # dump the synthetic message set
    python -m repro campaign --list          # the scenario catalogue
    python -m repro campaign --run all       # batched scenario analysis
    python -m repro simulate --seeds 8       # Monte-Carlo bound validation
    python -m repro fuzz --count 500         # randomized soundness fuzzing
    python -m repro report                   # regenerate artifacts/
    python -m repro report --check           # CI drift gate on artifacts/
    python -m repro store stats              # inspect the result store
    python -m repro serve --port 8787        # admission-control service
    python -m repro --version                # version + store cache key

Every workload-based command accepts ``--seed``, ``--stations`` and
``--capacity-mbps`` to vary the workload and the link rate, and
``--workload path.csv`` to run on a user-provided message set instead of
the synthetic one.  Commands are registered in the :data:`COMMANDS` table;
adding one means adding a handler and one table entry, not another copy of
the parser/dispatch plumbing.  Shared flag groups (the store trio, the
executor flags) live in argparse *parent parsers*, so a new command picks
them up by listing the parent, never by copy-pasting ``add_argument``
blocks.

The heavy subcommands (``campaign``, ``simulate``, ``report``) persist
every finished unit of work in the content-addressed result store
(:mod:`repro.store`, ``.repro-store/`` by default, ``--store DIR`` /
``$REPRO_STORE_DIR`` to relocate, ``--no-store`` to disable).  ``report``
reuses stored experiments automatically (a warm re-run recomputes
nothing); ``campaign``/``simulate`` reuse finished cells with
``--resume`` — e.g. to pick an interrupted run back up.  The same four
commands run their cells through the fault-tolerant executor
(:mod:`repro.exec`): ``--retries``/``--timeout`` bound how hard a cell
is retried, ``--max-failures``/``--fail-fast`` bound how much failure a
run tolerates, and ``--faults`` injects deterministic faults for chaos
testing.  ``serve`` reuses the same flags with service semantics:
``--timeout`` is the per-request deadline budget and ``--faults`` drives
the request/journal chaos kinds.  Failed cells are listed in a summary
table before the final ``error: ...`` line.  Errors are reported as a
single ``error: ...`` line with exit code 2, never a traceback.

The same five commands share one ``--engine`` flag selecting the WCRT
bound engine(s) (``calculus``, ``holistic``, ``trajectory``, a comma
list, or ``all``; see :mod:`repro.analysis.engines`).  The default is
always the paper's calculus engine and the canonical outputs never
change shape; a non-default selection adds cross-engine tables and
soundness checks.  ``serve`` only accepts the calculus engine (its
incremental admission math has no other backend) and an unknown engine
name dies on the usual ``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import units
from repro.analysis.engines import (
    DEFAULT_ENGINE,
    DEFAULT_ENGINES,
    ENGINE_CHOICES,
    engine_names,
    resolve_engines,
)
from repro.analysis import (
    baseline_1553_report,
    fcfs_violation_table,
    jitter_comparison,
    technology_comparison,
    validate_bounds,
)
from repro.analysis.buffers import validate_buffer_requirements
from repro.analysis.paper_model import PaperCaseStudy
from repro import reports
from repro.campaigns import CampaignRunner, builtin_scenarios, select
from repro.campaigns.scenario import TopologySpec
from repro.errors import (
    ConfigurationError,
    ExecutionFailedError,
    ReproError,
    UnknownExperimentError,
    UnknownScenarioError,
)
from repro.exec import (
    FAULTS_ENV,
    ExecPolicy,
    ExecutionReport,
    FaultPlan,
    RunHalted,
)
from repro.fuzz import FuzzCampaign, persist_interesting
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR
from repro.fuzz.generator import GeneratorConfig
from repro.serve import (
    AdmissionEngine,
    AdmissionJournal,
    AdmissionServer,
    ServeConfig,
)
from repro.store import (
    DEFAULT_STORE_DIR,
    ResultStore,
    all_code_versions,
    code_version,
    combined_token,
    fingerprint,
)
from repro.simulation.campaign import POLICIES, SCENARIOS, SimulationCampaign
from repro.flows.message_set import MessageSet
from repro.flows.priorities import PriorityClass
from repro.topology.graph import load_topology_file
from repro.topology.routing import RoutingEngine
from repro.reporting import format_bound, format_ms, render_table, yes_no
from repro.workloads import (
    RealCaseParameters,
    generate_real_case,
    load_message_set_csv,
    save_message_set_csv,
)

__all__ = ["main", "build_parser", "COMMANDS"]


@dataclass(frozen=True)
class CommandContext:
    """Everything a command handler may need, resolved once in :func:`main`."""

    args: argparse.Namespace
    #: The selected message set; ``None`` for commands that manage their own
    #: workloads (the campaign subcommand).
    message_set: MessageSet | None
    capacity: float
    technology_delay: float


@dataclass(frozen=True)
class CommandSpec:
    """One row of the CLI dispatch table."""

    name: str
    help: str
    handler: Callable[[CommandContext], int]
    #: Adds command-specific arguments to the subparser, if any.
    configure: Callable[[argparse.ArgumentParser], None] | None = None
    #: False for commands that do not analyse the shared workload.
    needs_workload: bool = True
    #: Shared flag groups (parent parsers) the subcommand inherits —
    #: the store trio and/or the executor flags.
    parents: tuple[argparse.ArgumentParser, ...] = ()


def _print(table: str) -> None:
    sys.stdout.write(table)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Experiment handlers
# ---------------------------------------------------------------------------

def _command_figure1(ctx: CommandContext) -> int:
    study = PaperCaseStudy(ctx.message_set, capacity=ctx.capacity,
                           technology_delay=ctx.technology_delay)
    rows = [(row.priority.label, row.message_count, format_ms(row.deadline),
             format_ms(row.fcfs_bound), yes_no(row.fcfs_meets_deadline),
             format_ms(row.priority_bound),
             yes_no(row.priority_meets_deadline))
            for row in study.figure1_rows()]
    _print(render_table(
        ["class", "messages", "constraint", "FCFS", "ok", "priority", "ok"],
        rows, title="Delay bounds for the two approaches"))
    return 0 if study.priority_meets_all_constraints() else 1


def _command_violations(ctx: CommandContext) -> int:
    rows = [(f"{row.capacity / 1e6:.0f} Mbps", row.priority.name,
             format_ms(row.fcfs_bound), row.fcfs_violated_messages,
             format_ms(row.priority_bound), row.priority_violated_messages)
            for row in fcfs_violation_table(
                ctx.message_set, technology_delay=ctx.technology_delay)]
    _print(render_table(
        ["capacity", "class", "FCFS bound", "FCFS violations",
         "priority bound", "priority violations"],
        rows, title="Constraint violations vs link capacity"))
    return 0


def _command_baseline(ctx: CommandContext) -> int:
    report = baseline_1553_report(ctx.message_set)
    rows = [(index, format_ms(duration), f"{utilization * 100:.1f} %")
            for index, (duration, utilization)
            in enumerate(zip(report.minor_frame_durations,
                             report.minor_frame_utilizations))]
    _print(render_table(["minor frame", "busy time", "utilisation"], rows,
                        title="MIL-STD-1553B minor frames"))
    _print(render_table(
        ["class", "analytic worst", "simulated worst"],
        [(cls.label, format_ms(report.analytic_worst_per_class.get(cls)),
          format_ms(report.simulated_worst_per_class.get(cls)))
         for cls in PriorityClass],
        title="1553B response times per class"))
    return 0 if report.feasible else 1


def _command_compare(ctx: CommandContext) -> int:
    rows = [(row.priority.label, format_ms(row.deadline),
             format_ms(row.milstd1553_bound), yes_no(row.milstd1553_ok),
             format_ms(row.ethernet_fcfs_bound), yes_no(row.fcfs_ok),
             format_ms(row.ethernet_priority_bound), yes_no(row.priority_ok))
            for row in technology_comparison(
                ctx.message_set, capacity=ctx.capacity,
                technology_delay=ctx.technology_delay)]
    _print(render_table(
        ["class", "constraint", "1553B", "ok", "FCFS", "ok", "priority",
         "ok"], rows, title="1553B vs switched Ethernet"))
    return 0


def _command_validate(ctx: CommandContext) -> int:
    rows = validate_bounds(ctx.message_set, capacity=ctx.capacity,
                           technology_delay=ctx.technology_delay)
    _print(render_table(
        ["policy", "class", "bound", "simulated worst", "holds"],
        [(row.policy, row.priority.name, format_bound(row.analytic_bound),
          format_ms(row.simulated_worst), yes_no(row.bound_holds))
         for row in rows],
        title="Analytic bounds vs simulated worst delays"))
    return 0 if all(row.bound_holds for row in rows) else 1


def _command_jitter(ctx: CommandContext) -> int:
    rows = jitter_comparison(ctx.message_set, capacity=ctx.capacity,
                             technology_delay=ctx.technology_delay)
    _print(render_table(
        ["technology", "class", "worst jitter", "mean jitter", "streams"],
        [(row.technology, row.priority.name, format_ms(row.worst_jitter),
          format_ms(row.mean_jitter), row.streams) for row in rows],
        title="Per-stream delivery jitter"))
    return 0


def _command_buffers(ctx: CommandContext) -> int:
    rows = validate_buffer_requirements(
        ctx.message_set, technology_delay=ctx.technology_delay,
        capacity=ctx.capacity)
    _print(render_table(
        ["egress port", "flows", "backlog bound (bytes)",
         "observed max (bytes)", "within bound"],
        [(f"{row.node}->{row.toward}", row.flow_count,
          f"{row.backlog_bytes:.0f}",
          "-" if row.observed_bits != row.observed_bits
          else f"{units.to_bytes(row.observed_bits):.0f}",
          yes_no(row.observed_within_bound)) for row in rows],
        title="Buffer dimensioning per egress port"))
    return 0 if all(row.observed_within_bound for row in rows) else 1


def _command_export(ctx: CommandContext) -> int:
    save_message_set_csv(ctx.message_set, ctx.args.output)
    sys.stdout.write(f"wrote {len(ctx.message_set)} messages to "
                     f"{ctx.args.output}\n")
    return 0


# ---------------------------------------------------------------------------
# Result-store plumbing shared by campaign / simulate / report / serve
# ---------------------------------------------------------------------------

def _store_parent(resume_help: str | None = None
                  ) -> argparse.ArgumentParser:
    """A parent parser carrying the ``--store``/``--no-store``/``--resume``
    trio.

    Commands opt in by listing the shared instance in their
    :attr:`CommandSpec.parents` — one definition, not one copy per
    subcommand.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--store", metavar="DIR", default=None,
                        help="result-store directory (default: "
                             f"$REPRO_STORE_DIR or {DEFAULT_STORE_DIR})")
    parent.add_argument("--no-store", action="store_true",
                        help="do not read or write the result store")
    parent.add_argument("--resume", action="store_true",
                        help=resume_help
                        or "reuse units of work already in the store "
                           "(e.g. cells finished before an interruption)")
    return parent


#: The store trio shared by campaign / simulate / fuzz / serve.
_STORE_FLAGS = _store_parent()
#: Report's variant differs only in the ``--resume`` help text.
_REPORT_STORE_FLAGS = _store_parent(
    "accepted for symmetry with campaign/simulate: report already "
    "reuses stored experiments by default (--no-store forces a full "
    "rebuild)")


def _resolve_store(args: argparse.Namespace) -> ResultStore | None:
    """The run's store handle, honouring ``--no-store``/``--store``."""
    if getattr(args, "no_store", False):
        return None
    return ResultStore(getattr(args, "store", None))


def _store_line(store: ResultStore | None, *, resumed: int | None = None,
                total: int | None = None, unit: str = "cells",
                show_stats: bool = True) -> str:
    """One ``store: ...`` status line for the end of a run.

    ``show_stats=False`` drops the hit/miss/write counters — worker
    processes keep their own counters under ``--jobs N``, so the parent's
    would read as all zeros.
    """
    if store is None:
        return "store: disabled\n"
    parts = []
    if show_stats:
        parts.append(store.stats.describe())
    if resumed is not None and total is not None:
        parts.append(f"resumed {resumed}/{total} {unit}")
    return f"store: {', '.join(parts)} under {store.root}\n"


# ---------------------------------------------------------------------------
# Fault-tolerant execution flags shared by campaign / simulate / fuzz /
# report / serve
# ---------------------------------------------------------------------------

def _exec_parent() -> argparse.ArgumentParser:
    """A parent parser carrying the executor policy flags.

    For the batch commands these bound retries and the failure budget;
    ``serve`` reuses the same surface with service semantics
    (``--timeout`` = per-request deadline budget, ``--faults`` = the
    request/journal chaos plan).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--retries", type=int, default=2, metavar="N",
                        help="re-run a failed cell up to N times before "
                             "recording it as failed (default: 2)")
    parent.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell watchdog: a cell running longer "
                             "than this counts as a failed attempt "
                             "(default: none); for serve, the "
                             "per-request deadline budget")
    parent.add_argument("--max-failures", type=int, default=None,
                        metavar="N",
                        help="abort the run once more than N cells have "
                             "failed for good (default: no budget)")
    parent.add_argument("--fail-fast", action="store_true",
                        help="abort the run at the first permanently "
                             "failed cell")
    parent.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic fault-injection plan, e.g. "
                             "'crash@3,exc@5.1' (default: $"
                             f"{FAULTS_ENV}; chaos testing only)")
    return parent


#: The executor flags shared by campaign / simulate / fuzz / report / serve.
_EXEC_FLAGS = _exec_parent()


def _resolve_exec(args: argparse.Namespace) -> tuple[ExecPolicy, str | None]:
    """``(policy, fault spec)`` from the exec flags, validated up front.

    The fault plan is parsed here — including one inherited from
    ``$REPRO_FAULTS`` — so a bad spec dies on the usual ``error:`` line
    before any work starts, not inside a worker process.
    """
    try:
        policy = ExecPolicy(retries=args.retries, timeout=args.timeout,
                            fail_fast=args.fail_fast,
                            max_failures=args.max_failures)
        spec = (args.faults if args.faults is not None
                else os.environ.get(FAULTS_ENV))
        FaultPlan.parse(spec)
    except ValueError as error:
        raise ConfigurationError(str(error)) from None
    return policy, args.faults


# ---------------------------------------------------------------------------
# Bound-engine selection shared by campaign / simulate / fuzz / report /
# serve
# ---------------------------------------------------------------------------

def _engine_parent() -> argparse.ArgumentParser:
    """A parent parser carrying the shared ``--engine`` flag.

    One definition keeps the vocabulary (and the error message for an
    unknown engine) identical across every subcommand that analyses
    bounds.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--engine", metavar="NAME", default=None,
                        help="WCRT bound engine(s) to run: one of "
                             f"{', '.join(ENGINE_CHOICES)}, or a comma "
                             f"list (default: {DEFAULT_ENGINE})")
    return parent


#: The ``--engine`` flag shared by campaign / simulate / fuzz / report /
#: serve.
_ENGINE_FLAGS = _engine_parent()


def _resolve_engines(args: argparse.Namespace) -> tuple[str, ...]:
    """The validated ``--engine`` selection of a run.

    Raises :class:`~repro.errors.UnknownEngineError` (a
    :class:`~repro.errors.ConfigurationError`) for names outside the
    registry, which :func:`main` renders as the one-line ``error:``
    convention with exit code 2.
    """
    return resolve_engines(getattr(args, "engine", None))


def _write_failure_table(failures, *, unit: str = "cell") -> None:
    """The one-line-per-cell failure summary, on stderr."""
    rows = [(failure.index, failure.label, failure.attempts, failure.kind,
             failure.error) for failure in sorted(failures,
                                                  key=lambda f: f.index)]
    sys.stderr.write(render_table(
        ["cell", unit, "attempts", "kind", "last error"], rows,
        title=f"Failed {unit}s") + "\n")


def _report_exec_failures(report: ExecutionReport | None, *,
                          unit: str = "cell") -> int | None:
    """Render failed cells and the ``error:`` line; ``None`` when clean.

    Partial results were already printed by the caller — this adds the
    per-cell table and the single trailing error line the exit-code-2
    contract promises, so scripts keep a one-line failure signal while
    humans still get the details.
    """
    if report is None or report.ok:
        return None
    if report.failures:
        _write_failure_table(report.failures, unit=unit)
    sys.stderr.write(f"error: {report.describe()}"
                     " (completed cells were kept in the store; re-run"
                     " with --resume to retry the rest)\n")
    return 2


# ---------------------------------------------------------------------------
# Campaign subcommand
# ---------------------------------------------------------------------------

def _configure_campaign(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--list", action="store_true", dest="list_scenarios",
                     help="list the registered scenarios and exit")
    sub.add_argument("--run", metavar="NAMES", default=None,
                     help="run scenarios: 'all', or a comma-separated list "
                          "of names/tags (e.g. 'paper-real-case,ladder')")
    sub.add_argument("--naive", action="store_true",
                     help="disable cross-scenario memoization (baseline "
                          "mode used by the benchmarks)")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="evaluate scenarios in N worker processes "
                          "(default: 1, in-process)")
    sub.add_argument("--csv", metavar="PATH", default=None,
                     help="also write the raw result rows to a CSV file")
    sub.add_argument("--markdown", action="store_true",
                     help="render the result tables as markdown")


def _command_campaign(ctx: CommandContext) -> int:
    args = ctx.args
    try:
        # Validate the engine selection before any other branch (the bare
        # listing included): a typo should fail fast, not print a table.
        engines = _resolve_engines(args)
    except ConfigurationError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    ignored = [flag for flag, is_default in (
        ("--workload", args.workload is None),
        ("--stations", args.stations == 16),
        ("--seed", args.seed == 7),
        ("--capacity-mbps", args.capacity_mbps == 10.0),
        ("--technology-delay-us", args.technology_delay_us == 16.0),
    ) if not is_default]
    if ignored:
        sys.stderr.write(
            f"warning: campaign scenarios define their own workloads and "
            f"link parameters; ignoring {', '.join(ignored)}\n")
    if args.list_scenarios or not args.run:
        _print(render_table(
            ["name", "configuration", "description"],
            [(s.name, s.describe(), s.description)
             for s in builtin_scenarios()],
            title=f"Registered scenarios ({len(builtin_scenarios())})"))
        return 0
    if args.jobs < 1:
        sys.stderr.write(f"error: --jobs must be at least 1, "
                         f"got {args.jobs}\n")
        return 2
    try:
        scenarios = select(args.run)
    except UnknownScenarioError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    store = _resolve_store(args)
    policy, fault_spec = _resolve_exec(args)
    runner = CampaignRunner(memoize=not args.naive, jobs=args.jobs,
                            store=store, resume=args.resume,
                            exec_policy=policy, faults=fault_spec,
                            engines=engines)
    result = runner.run(scenarios)
    _print(result.to_markdown() if args.markdown else result.to_table())
    mode = "naive" if args.naive else "memoized"
    if args.jobs > 1:
        mode += f", {args.jobs} jobs"
    sys.stdout.write(
        f"{len(result.results)} scenarios, {len(result.rows())} rows in "
        f"{result.elapsed * 1e3:.1f} ms ({mode})\n")
    if store is not None:
        sys.stdout.write(_store_line(
            store, resumed=result.resumed, total=len(result.results),
            unit="scenarios", show_stats=args.jobs == 1))
    if args.csv:
        result.write_csv(args.csv)
        sys.stdout.write(f"wrote {len(result.rows())} rows to {args.csv}\n")
    failed = _report_exec_failures(result.exec_report, unit="scenario")
    return failed if failed is not None else 0


# ---------------------------------------------------------------------------
# Simulate subcommand (Monte-Carlo simulation campaigns)
# ---------------------------------------------------------------------------

def _configure_simulate(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seeds", type=int, default=5, metavar="N",
                     help="number of simulation seeds per cell "
                          "(seeds 1..N; default: 5)")
    sub.add_argument("--scenarios", default=",".join(SCENARIOS),
                     metavar="LIST",
                     help="comma-separated release scenarios "
                          f"(default: {','.join(SCENARIOS)})")
    sub.add_argument("--policies", default=",".join(POLICIES),
                     metavar="LIST",
                     help="comma-separated multiplexing policies "
                          f"(default: {','.join(POLICIES)})")
    sub.add_argument("--size-factors", default="1", metavar="LIST",
                     help="comma-separated station-count multipliers "
                          "(default: 1)")
    sub.add_argument("--duration-ms", type=float, default=320.0,
                     help="simulated horizon per cell in ms (default: 320)")
    sub.add_argument("--topology", metavar="FAMILY|FILE", default=None,
                     help="simulate on a multi-hop graph topology instead "
                          "of the shared star: a family name (diamond, "
                          "ring, star, random) or a .json/.csv topology "
                          "file whose end systems are named like the "
                          "workload's stations")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="simulate cells in N worker processes "
                          "(default: 1, in-process)")
    sub.add_argument("--csv", metavar="PATH", default=None,
                     help="also write the aggregated rows to a CSV file")
    sub.add_argument("--markdown", action="store_true",
                     help="render the result table as markdown")


def _resolve_simulate_topology(args: argparse.Namespace):
    """The ``--topology`` value as a spec the campaign accepts.

    A family name becomes a scalable :class:`TopologySpec` (it follows
    ``--stations`` and ``--size-factors``); a path is loaded, validated
    and checked against the synthetic workload's station names.
    """
    if args.topology is None:
        return None
    if args.topology in TopologySpec._FAMILIES:
        return TopologySpec(kind="graph", graph_family=args.topology)
    spec = load_topology_file(args.topology).validated()
    expected = {f"station-{index:02d}"
                for index in range(len(spec.end_systems))}
    if set(spec.end_systems) != expected:
        raise ConfigurationError(
            f"{args.topology}: end systems must be named station-00.."
            f"station-{len(spec.end_systems) - 1:02d} to carry the "
            f"synthetic workload; got {sorted(spec.end_systems)}")
    if args.stations != len(spec.end_systems):
        raise ConfigurationError(
            f"{args.topology}: the file defines "
            f"{len(spec.end_systems)} end systems; pass --stations "
            f"{len(spec.end_systems)} to match")
    return spec


def _command_simulate(ctx: CommandContext) -> int:
    args = ctx.args
    if args.seeds < 1:
        sys.stderr.write(f"error: --seeds must be at least 1, "
                         f"got {args.seeds}\n")
        return 2
    if args.jobs < 1:
        sys.stderr.write(f"error: --jobs must be at least 1, "
                         f"got {args.jobs}\n")
        return 2
    try:
        size_factors = tuple(int(part) for part
                             in args.size_factors.split(",") if part)
    except ValueError:
        sys.stderr.write(f"error: --size-factors must be a comma-separated "
                         f"list of integers, got {args.size_factors!r}\n")
        return 2
    message_set = None
    if args.workload:
        message_set = load_message_set_csv(args.workload)
        if size_factors != (1,):
            sys.stderr.write("error: --size-factors other than 1 need the "
                             "synthetic workload (drop --workload)\n")
            return 2
        if args.topology is not None:
            sys.stderr.write("error: --topology needs the synthetic "
                             "workload (drop --workload)\n")
            return 2
    store = _resolve_store(args)
    policy, fault_spec = _resolve_exec(args)
    try:
        topology = _resolve_simulate_topology(args)
        campaign = SimulationCampaign(
            station_count=args.stations,
            workload_seed=args.seed,
            message_set=message_set,
            seeds=tuple(range(1, args.seeds + 1)),
            scenarios=tuple(part for part in args.scenarios.split(",")
                            if part),
            policies=tuple(part for part in args.policies.split(",")
                           if part),
            size_factors=size_factors,
            duration=units.ms(args.duration_ms),
            capacity=ctx.capacity,
            technology_delay=ctx.technology_delay,
            jobs=args.jobs,
            store=store,
            resume=args.resume,
            topology=topology,
            exec_policy=policy,
            faults=fault_spec,
            engines=_resolve_engines(args))
    except ConfigurationError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    result = campaign.run()
    _print(result.to_markdown() if args.markdown else result.to_table())
    # Resumed and copied cells carry the event counts of a simulation
    # run elsewhere; only this run's simulations may enter the throughput
    # figure, or a warm --resume run would report an absurd events/s.
    fresh_events = sum(outcome.events_processed
                       for outcome in result.outcomes
                       if not (outcome.resumed or outcome.copied))
    jobs_note = f", {args.jobs} jobs" if args.jobs > 1 else ""
    if fresh_events and result.elapsed > 0:
        rate_note = (f" ({fresh_events / result.elapsed:,.0f} events/s"
                     f"{jobs_note})")
    else:
        rate_note = f" (all cells resumed{jobs_note})"
    engine_note = ""
    if result.engine_rows:
        engine_note = (f"; engine bounds hold: "
                       f"{'yes' if result.all_engine_bounds_hold else 'NO'}")
    sys.stdout.write(
        f"{result.cells} cells, {len(result.rows)} rows, "
        f"{fresh_events} events in {result.elapsed:.2f} s"
        f"{rate_note}; "
        f"bounds hold: {'yes' if result.all_bounds_hold else 'NO'}"
        f"{engine_note}\n")
    if store is not None:
        sys.stdout.write(_store_line(
            store, resumed=result.resumed, total=result.cells,
            unit="cells", show_stats=args.jobs == 1))
    if args.csv:
        result.write_csv(args.csv)
        sys.stdout.write(f"wrote {len(result.rows)} rows to {args.csv}\n")
    failed = _report_exec_failures(result.exec_report)
    if failed is not None:
        return failed
    return 0 if result.all_bounds_hold and result.all_engine_bounds_hold \
        else 1


# ---------------------------------------------------------------------------
# Fuzz subcommand (randomized soundness campaigns)
# ---------------------------------------------------------------------------

def _configure_fuzz(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--count", type=int, default=100, metavar="N",
                     help="number of generated scenarios (default: 100)")
    sub.add_argument("--seed", type=int, default=0, metavar="N",
                     help="generator master seed (default: 0; same seed "
                          "=> bit-identical scenario stream)")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="evaluate cells in N worker processes "
                          "(default: 1, in-process)")
    sub.add_argument("--duration-ms", type=float, default=160.0,
                     help="simulated horizon per cell in ms (default: 160)")
    sub.add_argument("--multi-hop", action="store_true", dest="multi_hop",
                     help="draw only multi-hop graph topologies (diamond/"
                          "ring/star/random families) instead of the "
                          "default star-weighted kind mix")
    sub.add_argument("--tightness", type=float, default=0.9,
                     metavar="RATIO",
                     help="near-tight corpus threshold on simulated/bound "
                          "(default: 0.9)")
    sub.add_argument("--corpus", metavar="DIR", default=None,
                     help="regression-corpus directory "
                          f"(default: {DEFAULT_CORPUS_DIR})")
    sub.add_argument("--no-corpus", action="store_true",
                     help="do not minimize/persist interesting scenarios "
                          "into the corpus")
    sub.add_argument("--csv", metavar="PATH", default=None,
                     help="also write the per-cell rows to a CSV file")
    sub.add_argument("--markdown", action="store_true",
                     help="render the result table as markdown")


def _command_fuzz(ctx: CommandContext) -> int:
    args = ctx.args
    if args.count < 1:
        sys.stderr.write(f"error: --count must be at least 1, "
                         f"got {args.count}\n")
        return 2
    if args.seed < 0:
        sys.stderr.write(f"error: --seed must be non-negative, "
                         f"got {args.seed}\n")
        return 2
    if args.jobs < 1:
        sys.stderr.write(f"error: --jobs must be at least 1, "
                         f"got {args.jobs}\n")
        return 2
    store = _resolve_store(args)
    policy, fault_spec = _resolve_exec(args)
    try:
        campaign = FuzzCampaign(
            count=args.count,
            seed=args.seed,
            config=(GeneratorConfig.multi_hop() if args.multi_hop
                    else None),
            duration=units.ms(args.duration_ms),
            jobs=args.jobs,
            store=store,
            resume=args.resume,
            tightness_threshold=args.tightness,
            exec_policy=policy,
            faults=fault_spec,
            engines=_resolve_engines(args))
    except ConfigurationError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    result = campaign.run()
    _print(result.to_markdown() if args.markdown else result.to_table())
    # As in `simulate`: resumed cells report their original event counts,
    # so only freshly evaluated cells may enter the throughput figure.
    fresh_events = sum(outcome.events_processed
                      for outcome in result.outcomes
                      if not outcome.resumed)
    jobs_note = f", {args.jobs} jobs" if args.jobs > 1 else ""
    if fresh_events and result.elapsed > 0:
        rate_note = (f" ({fresh_events / result.elapsed:,.0f} events/s"
                     f"{jobs_note})")
    else:
        rate_note = f" (all cells resumed{jobs_note})"
    tightness_note = ("-" if result.max_tightness != result.max_tightness
                      else f"{result.max_tightness:.3f}")
    engine_note = ""
    if len(campaign.engines) > 1:
        engine_note = f"; engines: {', '.join(campaign.engines)}"
    sys.stdout.write(
        f"{result.cells} cells, {result.violation_count} violations, "
        f"max tightness {tightness_note} in {result.elapsed:.2f} s"
        f"{rate_note}; "
        f"invariants hold: "
        f"{'yes' if result.all_invariants_hold else 'NO'}"
        f"{engine_note}\n")
    if store is not None:
        sys.stdout.write(_store_line(
            store, resumed=result.resumed, total=result.cells,
            unit="cells", show_stats=args.jobs == 1))
    if not args.no_corpus:
        update = persist_interesting(
            result, generator_seed=args.seed,
            directory=args.corpus)
        sys.stdout.write(update.describe() + "\n")
    if args.csv:
        result.write_csv(args.csv)
        row_count = sum(len(outcome.bound_rows)
                        for outcome in result.outcomes)
        sys.stdout.write(f"wrote {row_count} rows to {args.csv}\n")
    failed = _report_exec_failures(result.exec_report)
    if failed is not None:
        return failed
    return 0 if result.all_invariants_hold else 1


# ---------------------------------------------------------------------------
# Report subcommand
# ---------------------------------------------------------------------------

def _configure_report(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--list", action="store_true", dest="list_experiments",
                     help="list the registered experiments and exit")
    sub.add_argument("--experiment", metavar="NAMES", default=None,
                     help="render only these experiments (comma-separated; "
                          "default: the whole catalogue)")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="build experiments in N worker processes "
                          "(default: 1, in-process)")
    sub.add_argument("--output", metavar="DIR",
                     default=reports.DEFAULT_ARTIFACTS_DIR,
                     help="artifacts directory (default: artifacts/)")
    sub.add_argument("--check", action="store_true",
                     help="re-render into a temporary directory and fail "
                          "on any difference with the committed artifacts "
                          "(the CI drift gate); writes nothing")


def _command_report(ctx: CommandContext) -> int:
    args = ctx.args
    if args.jobs < 1:
        sys.stderr.write(f"error: --jobs must be at least 1, "
                         f"got {args.jobs}\n")
        return 2
    # Validated for the shared exit-2 contract; the `engines` report
    # experiment always ranks every registered engine, so any known
    # selection renders the same committed artifacts.
    _resolve_engines(args)
    if args.list_experiments:
        _print(render_table(
            ["name", "exhibit", "description"],
            [(spec.name, spec.exhibit, spec.description)
             for spec in reports.all_experiments()],
            title=f"Registered experiments "
                  f"({len(reports.all_experiments())})"))
        return 0
    try:
        selected = reports.select_experiments(args.experiment)
    except UnknownExperimentError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    store = _resolve_store(args)
    policy, fault_spec = _resolve_exec(args)
    pipeline = reports.ReportPipeline(args.output, experiments=selected,
                                      store=store, exec_policy=policy,
                                      faults=fault_spec)
    try:
        return _run_report(pipeline, args, store, selected)
    except ExecutionFailedError as error:
        # The pipeline needs every experiment to stitch the artifact
        # tree, so failed builds surface as an exception; render the same
        # per-cell table the campaign commands print.
        _write_failure_table(error.failures, unit="experiment")
        sys.stderr.write(f"error: {error}\n")
        return 2


def _run_report(pipeline, args: argparse.Namespace,
                store: ResultStore | None, selected) -> int:
    if args.check:
        problems = pipeline.check(jobs=args.jobs)
        for problem in problems:
            sys.stderr.write(f"report-check: {problem}\n")
        if not problems:
            sys.stdout.write(
                f"report-check: OK ({len(selected)} experiments match "
                f"the committed artifacts under {args.output})\n")
        if store is not None:
            sys.stdout.write(_store_line(
                store, resumed=len(pipeline.last_cached),
                total=len(selected), unit="experiments"))
        return 1 if problems else 0
    run = pipeline.run(jobs=args.jobs)
    sys.stdout.write(f"wrote {len(run.files)} artifacts under "
                     f"{args.output}: {run.summary()}\n")
    if store is not None:
        sys.stdout.write(_store_line(
            store, resumed=len(run.cached_experiments),
            total=len(run.experiments), unit="experiments"))
    if not pipeline.full_catalogue:
        sys.stdout.write("note: partial run — REPORT.md and values.json "
                         "are only refreshed by a full `repro report`\n")
    return 0


# ---------------------------------------------------------------------------
# Store subcommand (inspect / manage the result store)
# ---------------------------------------------------------------------------

def _configure_store(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("action", choices=("stats", "gc", "clear", "key"),
                     help="stats: summarise the store; gc: drop records "
                          "invalidated by code edits; clear: drop "
                          "everything; key: print the combined "
                          "code-version token (the CI cache key)")
    sub.add_argument("--store", metavar="DIR", default=None,
                     help="result-store directory (default: "
                          f"$REPRO_STORE_DIR or {DEFAULT_STORE_DIR})")


def _command_store(ctx: CommandContext) -> int:
    args = ctx.args
    if args.action == "key":
        sys.stdout.write(combined_token() + "\n")
        return 0
    store = ResultStore(args.store)
    if args.action == "clear":
        removed = store.clear()
        sys.stdout.write(f"store: removed {removed} records "
                         f"from {store.root}\n")
        return 0
    tokens = all_code_versions()
    if args.action == "gc":
        kept, removed, freed = store.gc(tokens)
        sys.stdout.write(f"store: gc kept {kept} records, removed "
                         f"{removed} stale ones ({freed} bytes) "
                         f"under {store.root}\n")
        return 0
    # stats
    groups: dict[tuple[str, str], list] = {}
    for entry in store.entries():
        groups.setdefault((entry.subsystem, entry.kind), []).append(entry)
    rows = [(subsystem, kind, len(entries),
             sum(entry.size_bytes for entry in entries),
             sum(1 for entry in entries
                 if tokens.get(subsystem) != entry.token))
            for (subsystem, kind), entries in sorted(groups.items())]
    _print(render_table(
        ["subsystem", "kind", "records", "bytes", "stale"], rows,
        title=f"Result store under {store.root}"))
    for name, token in sorted(tokens.items()):
        sys.stdout.write(f"token {name}: {token[:16]}\n")
    total = sum(len(entries) for entries in groups.values())
    sys.stdout.write(f"{total} records, {store.size_bytes()} bytes; "
                     f"cache key {combined_token()[:16]}\n")
    # Same counter shape the serve health endpoint reports, so the CLI
    # and the service can never disagree about store integrity.
    health = store.health(audit=True)
    sys.stdout.write(
        f"integrity: {health['corrupt_records']} corrupt records, "
        f"{health['corrupt_index_lines']} corrupt index lines, "
        f"{health['write_errors']} write errors — "
        f"{'DEGRADED' if health['degraded'] else 'healthy'} "
        f"(corrupt entries are skipped; `store gc` removes them)\n")
    return 0


# ---------------------------------------------------------------------------
# Serve subcommand (the long-lived admission-control service)
# ---------------------------------------------------------------------------

#: Deadline budget applied when ``--timeout`` is not given (seconds).
DEFAULT_SERVE_DEADLINE = 0.25


def _configure_serve(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", metavar="NAME",
                     default="paper-real-case",
                     help="campaign scenario whose workload and topology "
                          "the service answers against "
                          "(default: paper-real-case)")
    sub.add_argument("--policy", metavar="NAME", default=None,
                     help="multiplexing policy admission is decided "
                          "under (default: the scenario's first policy)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8787,
                     help="bind port; 0 picks a free port and reports "
                          "it on the startup line (default: 8787)")
    sub.add_argument("--queue-depth", type=int, default=64, metavar="N",
                     help="bounded admission-queue depth; beyond it "
                          "requests are shed with 503 (default: 64)")
    sub.add_argument("--shed-p99-ms", type=float, default=None,
                     metavar="MS",
                     help="shed new requests once the rolling p99 "
                          "latency crosses this (default: twice the "
                          "deadline budget)")
    sub.add_argument("--journal", metavar="DIR", default=None,
                     help="journal directory for crash-safe admission "
                          "state (default: no persistence)")
    sub.add_argument("--checkpoint-every", type=int, default=256,
                     metavar="N",
                     help="fold the journal into a checkpoint every N "
                          "appends (default: 256)")


def _command_serve(ctx: CommandContext) -> int:
    args = ctx.args
    try:
        scenarios = select(args.scenario)
    except UnknownScenarioError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    if len(scenarios) != 1:
        sys.stderr.write(
            f"error: --scenario must select exactly one scenario; "
            f"{args.scenario!r} selects {len(scenarios)}\n")
        return 2
    scenario = scenarios[0]
    engines = _resolve_engines(args)
    if engines != DEFAULT_ENGINES:
        sys.stderr.write(
            f"error: serve only supports --engine {DEFAULT_ENGINE} (the "
            f"incremental admission math has no other backend); got "
            f"{','.join(engines)}\n")
        return 2
    store = _resolve_store(args)
    _, fault_spec = _resolve_exec(args)
    plan = FaultPlan.parse(fault_spec if fault_spec is not None
                           else os.environ.get(FAULTS_ENV))
    config = ServeConfig(
        host=args.host, port=args.port,
        deadline=(args.timeout if args.timeout is not None
                  else DEFAULT_SERVE_DEADLINE),
        queue_depth=args.queue_depth,
        shed_p99=(units.ms(args.shed_p99_ms)
                  if args.shed_p99_ms is not None else None),
        checkpoint_every=args.checkpoint_every)
    journal = None
    engine = None
    if args.journal:
        journal = AdmissionJournal(args.journal,
                                   checkpoint_every=args.checkpoint_every)
        state = journal.recover()
        if not state.empty or state.checkpoint_seq:
            engine = AdmissionEngine(scenario, policy=args.policy,
                                     store=store, preload=False)
            engine.replay([{"op": "admit", "flow": flow}
                           for flow in state.flows]
                          + list(state.operations))
            note = (f"recovered {len(state.flows)} flows + "
                    f"{len(state.operations)} journaled ops")
            if state.corrupt_lines:
                note += f", skipped {state.corrupt_lines} torn lines"
    if engine is None:
        engine = AdmissionEngine(scenario, policy=args.policy, store=store)
        note = (f"loaded {len(engine.flow_names())} flows from the "
                f"scenario workload")
        if journal is not None:
            # Seed the checkpoint so a crash before the first periodic
            # checkpoint still recovers the preloaded base table.
            journal.checkpoint(engine.flow_payloads())
    server = AdmissionServer(engine, config, journal=journal,
                             faults=plan if plan else None)
    server.start()
    sys.stdout.write(
        f"serving {scenario.name} ({engine.policy}) on "
        f"http://{args.host}:{server.port} — {note}\n")
    sys.stdout.flush()
    stop = threading.Event()

    def _graceful(signum, frame):
        server.draining = True
        stop.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    while not stop.is_set():
        stop.wait(0.5)
    clean = server.drain()
    stats = server.stats_payload()
    sys.stdout.write(
        f"drained: {stats['served']} served, {stats['degraded']} "
        f"degraded, {stats['shed']} shed, {stats['errors']} errors\n")
    return 0 if clean else 1


# ---------------------------------------------------------------------------
# Topology subcommand (multi-hop graph file tooling)
# ---------------------------------------------------------------------------

def _configure_topology(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("action", choices=("validate",),
                     help="validate: load a topology file, check its "
                          "structure and routability, print a summary")
    sub.add_argument("file", help="topology file (.json or .csv)")


def _command_topology(ctx: CommandContext) -> int:
    args = ctx.args
    # Any structural problem (malformed document, duplicate node, port
    # clash, end-system-to-end-system link, disconnected pair) raises a
    # ReproError that main() turns into one `error: ...` line, exit 2.
    spec = load_topology_file(args.file).validated()
    engine = RoutingEngine(spec)
    problems = engine.diagnostics()
    if problems:
        suffix = "" if len(problems) == 1 \
            else f" (and {len(problems) - 1} more problems)"
        sys.stderr.write(f"error: {args.file}: {problems[0]}{suffix}\n")
        return 2
    end_systems = spec.end_systems
    longest: tuple[str, ...] = ()
    for source in end_systems:
        for destination in end_systems:
            if source == destination:
                continue
            path = engine.shortest_path(source, destination)
            if len(path) > len(longest):
                longest = path
    sys.stdout.write(
        f"topology {spec.name}: {len(end_systems)} end systems, "
        f"{len(spec.switches)} switches, {len(spec.links)} links; "
        f"fingerprint {fingerprint(spec)[:16]}\n")
    if longest:
        sys.stdout.write(
            f"longest route: {len(longest) - 2} switch hops "
            f"({' -> '.join(longest)})\n")
    return 0


# ---------------------------------------------------------------------------
# Dispatch table, parser, entry point
# ---------------------------------------------------------------------------

def _configure_export(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", required=True, help="destination CSV path")


#: The dispatch table: every subcommand of ``repro`` in display order.
COMMANDS: tuple[CommandSpec, ...] = (
    CommandSpec("figure1", "per-class delay bounds, FCFS vs strict priority",
                _command_figure1),
    CommandSpec("violations", "FCFS violations vs link capacity",
                _command_violations),
    CommandSpec("baseline-1553", "MIL-STD-1553B schedule and simulation",
                _command_baseline),
    CommandSpec("compare", "1553B vs Ethernet FCFS vs Ethernet priority",
                _command_compare),
    CommandSpec("validate", "analytic bounds vs simulated worst delays",
                _command_validate),
    CommandSpec("jitter", "per-class jitter under the three technologies",
                _command_jitter),
    CommandSpec("buffers", "per-port buffer dimensioning",
                _command_buffers),
    CommandSpec("export", "write the workload to a CSV file",
                _command_export, configure=_configure_export),
    CommandSpec("campaign", "list or batch-run the scenario catalogue",
                _command_campaign, configure=_configure_campaign,
                needs_workload=False,
                parents=(_STORE_FLAGS, _EXEC_FLAGS, _ENGINE_FLAGS)),
    CommandSpec("simulate", "Monte-Carlo simulation campaign: seeds x "
                            "scenarios x policies x scales vs the bounds",
                _command_simulate, configure=_configure_simulate,
                needs_workload=False,
                parents=(_STORE_FLAGS, _EXEC_FLAGS, _ENGINE_FLAGS)),
    CommandSpec("fuzz", "randomized soundness fuzzing: generated scenarios "
                        "vs the analytic invariants",
                _command_fuzz, configure=_configure_fuzz,
                needs_workload=False,
                parents=(_STORE_FLAGS, _EXEC_FLAGS, _ENGINE_FLAGS)),
    CommandSpec("topology", "validate a multi-hop topology file "
                            "(.json or .csv)",
                _command_topology, configure=_configure_topology,
                needs_workload=False),
    CommandSpec("report", "regenerate or drift-check the artifacts/ "
                          "reproduction report",
                _command_report, configure=_configure_report,
                needs_workload=False,
                parents=(_REPORT_STORE_FLAGS, _EXEC_FLAGS, _ENGINE_FLAGS)),
    CommandSpec("store", "inspect or manage the result store "
                         "(stats, gc, clear, key)",
                _command_store, configure=_configure_store,
                needs_workload=False),
    CommandSpec("serve", "serve admit/remove/check admission queries "
                         "over HTTP against a loaded scenario",
                _command_serve, configure=_configure_serve,
                needs_workload=False,
                parents=(_STORE_FLAGS, _EXEC_FLAGS, _ENGINE_FLAGS)),
)

_COMMAND_INDEX = {spec.name: spec for spec in COMMANDS}


class _VersionAction(argparse.Action):
    """``repro --version``: package version plus the store cache key.

    The cache key is ``repro store key`` (the combined code-version
    token), so one line tells both which release is installed and
    whether two checkouts would share warm store results.  A third line
    names the active (default) bound engine, the registered
    alternatives, and the ``engines`` subsystem token — which source
    revision of the bound implementations this build carries.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro import __version__
        sys.stdout.write(f"repro {__version__}\n")
        sys.stdout.write(f"store key {combined_token()}\n")
        sys.stdout.write(
            f"engine {DEFAULT_ENGINE} (registered: "
            f"{', '.join(engine_names())}); engines token "
            f"{code_version('engines')}\n")
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Real-time switched Ethernet for military applications: "
                    "reproduce the paper's experiments.")
    parser.add_argument("--version", action=_VersionAction,
                        help="print the package version and the store "
                             "cache key, then exit")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default: 7)")
    parser.add_argument("--stations", type=int, default=16,
                        help="number of stations in the synthetic workload")
    parser.add_argument("--capacity-mbps", type=float, default=10.0,
                        help="Ethernet link capacity in Mbps (default: 10)")
    parser.add_argument("--technology-delay-us", type=float, default=16.0,
                        help="switch relaying-delay bound in µs (default: 16)")
    parser.add_argument("--workload", type=str, default=None,
                        help="CSV message set to use instead of the "
                             "synthetic case study")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for spec in COMMANDS:
        sub = subparsers.add_parser(spec.name, help=spec.help,
                                    parents=list(spec.parents))
        if spec.configure is not None:
            spec.configure(sub)
    return parser


def _load_workload(args: argparse.Namespace) -> MessageSet:
    if args.workload:
        return load_message_set_csv(args.workload)
    parameters = RealCaseParameters(station_count=args.stations)
    return generate_real_case(parameters, seed=args.seed)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro``; returns the process exit code.

    Bad arguments and bad inputs (a missing workload CSV, an invalid
    station count, an unwritable output path) exit with code 2 and a
    single ``error: ...`` line on stderr — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = _COMMAND_INDEX[args.command]
    try:
        context = CommandContext(
            args=args,
            message_set=(_load_workload(args) if spec.needs_workload
                         else None),
            capacity=units.mbps(args.capacity_mbps),
            technology_delay=units.us(args.technology_delay_us))
        return spec.handler(context)
    except BrokenPipeError:
        # `repro ... | head` closes stdout early; that is the consumer's
        # choice, not a usage error — keep the historical behaviour.
        raise
    except (ReproError, OSError) as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    except RunHalted as error:
        # An injected halt fault stopped the run mid-campaign (chaos
        # testing); finished cells are already in the store.
        sys.stderr.write(f"halted: {error}\n")
        return 130
    except KeyboardInterrupt:
        # Ctrl-C or SIGTERM: the executor already tore its workers down;
        # exit with the conventional 128+SIGINT code, no traceback.
        sys.stderr.write("interrupted\n")
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
