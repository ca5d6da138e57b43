"""The four seeded workloads of the benchmark.

Each workload turns the run's seed into inputs (:meth:`Workload.inputs`),
sets up what its first timed operation needs (:meth:`Workload.setup`),
then repeats timed units of work through the public ``repro`` API
(:meth:`Workload.measure`), checking every unit's outputs.  Every unit
writes to a fresh result-store directory, so no unit reads what an
earlier one cached.

=================  =========================================================
``sweep-engines``  all three bound engines over the scalability ladder and
                   three multi-hop graphs: bound-only, routing-heavy.
``fuzz-multihop``  multi-hop fuzz cells: the ``GraphPathAnalysis`` fixed
                   point plus simulation; the control for routing changes.
``simulate``       Monte-Carlo simulation of the 16-station paper case: the
                   simulator kernel.
``admission``      ``repro serve`` driven in an open loop over HTTP: the
                   incremental engine, the store fingerprint and the journal.
=================  =========================================================

Every timed call into the program is recorded as a wall interval; the
run converts the intervals to reference seconds afterwards (see
:mod:`perfbench.speed`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def digest(obj) -> str:
    """Canonical-JSON SHA-256, computed by the benchmark, not the program."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass
class Measurement:
    """What one timed phase of a workload produced."""

    #: Units of work done (rows, cells, events or requests).
    work: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: Output checks that did not hold (empty when the run is correct).
    problems: list = dataclasses.field(default_factory=list)
    #: Canonical-JSON digest of the first unit's results.
    digest: str = ""
    #: Workload-specific figures for the human report: name -> (value, unit).
    extra: dict = dataclasses.field(default_factory=dict)
    #: Timed calls into the program: ``(start, end, latency group)``, one
    #: group per unit of user work (a sweep, a batch of fuzz cells, a
    #: simulate campaign, a request).
    pieces: list = dataclasses.field(default_factory=list)
    #: Wall intervals in which the program alone sets the pace (the round
    #: trips of an offered-load workload, whose pieces also hold the time
    #: a request waits for its due time).  When present, throughput is
    #: work per reference second of these.
    service: list = dataclasses.field(default_factory=list)
    #: Set by :meth:`finalize`: reference and wall seconds of the pieces,
    #: reference seconds of the service intervals, and the reference-second
    #: latency of each group.
    busy_s: float = 0.0
    wall_s: float = 0.0
    service_s: float = 0.0
    latencies: list = dataclasses.field(default_factory=list)
    wall_latencies: list = dataclasses.field(default_factory=list)

    def timed(self, function, group: int):
        """Call ``function`` and record its wall interval under ``group``."""
        started = time.perf_counter()
        value = function()
        self.pieces.append((started, time.perf_counter(), group))
        return value

    def finalize(self, sampler) -> None:
        """Convert the recorded intervals with a
        :class:`~perfbench.speed.SpeedSampler`."""
        scaled: dict[int, float] = {}
        wall: dict[int, float] = {}
        for start, end, group in self.pieces:
            scaled[group] = scaled.get(group, 0.0) + \
                sampler.reference_seconds(start, end)
            wall[group] = wall.get(group, 0.0) + (end - start)
        self.latencies = list(scaled.values())
        self.wall_latencies = list(wall.values())
        self.busy_s = sum(self.latencies)
        self.wall_s = sum(self.wall_latencies)
        self.service_s = sum(sampler.reference_seconds(start, end)
                             for start, end in self.service)

    @property
    def throughput(self) -> float:
        """Work per reference second of the program's own time."""
        busy = self.service_s if self.service else self.busy_s
        return self.work / busy if busy else 0.0


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    #: What the throughput counts, for the human report.
    unit = ""
    #: The workload's own name for its throughput figure.
    throughput_name = ""
    #: The layer that cProfile runs of this workload found dominant; the
    #: ``--trace 1`` run checks it is still the top layer by self time.
    predicted_top = ""

    def __init__(self, seed: int, workdir: Path, *, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self._stores = 0
        #: The installed :class:`~perfbench.tracer.Tracer` of a traced phase.
        self.tracer = None

    def untraced(self):
        """Benchmark-side work (output checks) stays out of the trace."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.suspended()

    def fresh_store(self):
        from repro.store import ResultStore
        self._stores += 1
        return ResultStore(self.workdir / f"store-{self._stores}")

    def inputs(self) -> list:
        """The generated inputs as plain data (byte-identical per seed)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Everything the first timed operation needs."""
        raise NotImplementedError

    def run_unit(self, unit: int, result: Measurement) -> None:
        """One unit of user work, timed into ``result`` and checked."""
        raise NotImplementedError

    def measure(self, seconds: float, *, max_units: int | None = None
                ) -> Measurement:
        """Run units until ``seconds`` pass or ``max_units`` are done."""
        result = Measurement()
        started = time.perf_counter()
        while (max_units is None and time.perf_counter() - started < seconds
               or max_units is not None and result.units < max_units):
            self.run_unit(result.units, result)
            result.units += 1
        return result

    def describe(self, result: Measurement) -> None:
        """Add the workload's own figures to a finalized measurement."""
        result.extra[self.throughput_name] = (result.throughput, "1/s")
        result.extra[f"{self.throughput_name}_wall"] = (
            result.work / result.wall_s, "1/s")

    def close(self) -> None:
        """Stop whatever the workload started."""


def warm_code_versions() -> None:
    """Hash the source tree once, as every CLI process does on first use."""
    from repro.store import all_code_versions
    all_code_versions()


# ---------------------------------------------------------------------------
# sweep-engines
# ---------------------------------------------------------------------------

SWEEP_SELECTION = "ladder,graph-diamond,graph-ring,graph-random"


class SweepEngines(Workload):
    """``repro campaign --engine all`` over the selection, one unit a sweep.

    Each scenario is run as its own campaign on the sweep's runner (the
    memoization cache is shared exactly as in one campaign), so the
    per-scenario intervals are scaled separately.
    """

    name = "sweep-engines"
    unit = "rows"
    throughput_name = "sweep_rows_per_s"
    predicted_top = "topology.route"

    def scenarios(self, unit: int) -> list:
        """The selection with workload and graph seeds drawn per unit."""
        from repro.campaigns import select
        rng = random.Random(self.seed * 1_000_003 + unit)
        chosen = []
        for scenario in select(SWEEP_SELECTION):
            workload = dataclasses.replace(scenario.workload,
                                           seed=rng.randrange(1000))
            topology = scenario.topology
            if topology.kind == "graph":
                topology = dataclasses.replace(
                    topology, graph_seed=rng.randrange(1000))
            elif self.smoke:
                workload = dataclasses.replace(workload, replication=2)
            chosen.append(dataclasses.replace(scenario, workload=workload,
                                              topology=topology))
        return chosen[:3] if self.smoke else chosen

    def inputs(self) -> list:
        from repro.store.fingerprint import canonical
        return [canonical(scenario) for unit in range(3)
                for scenario in self.scenarios(unit)]

    def expected_cells(self, scenarios) -> set:
        """Every (scenario, engine, policy, class) row the run must hold."""
        from repro.analysis.engines import engine_names, present_classes
        cells = set()
        for scenario in scenarios:
            classes = present_classes(scenario.workload.build().messages)
            for engine in engine_names():
                for policy in scenario.policies:
                    for cls in classes:
                        cells.add((scenario.name, engine, policy, cls.name))
        return cells

    def setup(self) -> None:
        warm_code_versions()
        self._next = self.scenarios(0)
        self._expected = self.expected_cells(self._next)

    def run_unit(self, unit, result):
        from repro.campaigns import CampaignRunner
        scenarios, expected = self._next, self._expected
        runner = CampaignRunner(store=self.fresh_store(), engines="all")
        campaigns = [result.timed(lambda s=scenario: runner.run([s]), unit)
                     for scenario in scenarios]
        rows = [row for campaign in campaigns for row in campaign.rows()]
        engine_rows = [row for campaign in campaigns
                       for row in campaign.engine_rows()]
        failures = sum(len(campaign.failures) for campaign in campaigns)
        result.work += len(engine_rows)
        result.attempted += len(scenarios)
        with self.untraced():
            problems = self.check(rows, engine_rows, failures, expected)
            self._next = self.scenarios(unit + 1)
            self._expected = self.expected_cells(self._next)
        result.failed += failures + (1 if problems else 0)
        result.problems.extend(problems)
        if unit == 0:
            result.digest = digest([
                [row.scenario, row.engine, row.policy, row.priority.name,
                 row.bound, row.stable] for row in engine_rows])

    @staticmethod
    def check(rows, engine_rows, failures, expected) -> list:
        problems = []
        if failures:
            problems.append(f"{failures} scenarios failed")
        seen = {(row.scenario, row.engine, row.policy, row.priority.name)
                for row in engine_rows}
        if seen != expected:
            problems.append(f"engine rows differ from the expected cells: "
                            f"{len(expected - seen)} missing, "
                            f"{len(seen - expected)} unexpected")
        for row in rows + engine_rows:
            if row.stable != math.isfinite(row.bound):
                problems.append(f"{row.scenario}/{row.policy}/"
                                f"{row.priority.name}: stable={row.stable} "
                                f"but bound={row.bound!r}")
        return problems


# ---------------------------------------------------------------------------
# fuzz-multihop
# ---------------------------------------------------------------------------

#: Cells per unit, one row of the strata square (one cell per station
#: count of the multi-hop generator); the unit's cells share one fresh
#: store.  Two-row units cost more alike, but the fewer units per run made
#: the median unit time vary more between seeds (10% against 6%).
FUZZ_BATCH = 8


class FuzzMultihop(Workload):
    """``repro fuzz --multi-hop`` cells, one campaign per cell."""

    name = "fuzz-multihop"
    unit = "cells"
    throughput_name = "fuzz_cells_per_s"
    predicted_top = "analysis.multihop.analyze"

    def cell_order(self) -> list[int]:
        """Stream indices of the seed's cells, one per stratum.

        A cell's cost is driven by its station count, its policy count,
        its graph family and, less, its hop count and burst size factor:
        cells differ by 40x.  Every seed therefore runs the same strata in
        the same order, taking for each stratum the first cell of the
        seed's stream that falls in it, with four switches and unscaled
        bursts (capacity, relaying delay, workload and graph seeds stay
        free).  The order is a Latin square: each batch of
        :data:`FUZZ_BATCH` cells holds every (policy count, family) pair
        once and every station count once, so batches cost alike and the
        cells/s of two seeds compare like with like.
        """
        from repro.fuzz.generator import GeneratorConfig, ScenarioGenerator
        config = GeneratorConfig.multi_hop()
        generator = ScenarioGenerator(self.seed, config)
        stations = sorted(set(config.station_counts))
        families = config.graph_families
        if len(stations) != FUZZ_BATCH or 2 * len(families) != FUZZ_BATCH:
            raise RuntimeError("the fuzz strata assume 8 station counts and "
                               "4 graph families")
        # Row b gives one policy to the station counts of b's parity and
        # two policies to the others, which keeps the rows' costs within
        # a few percent of each other.
        strata = []
        for batch in range(FUZZ_BATCH):
            for column, family in enumerate(families):
                strata.append((stations[(batch + 2 * column) % 8], 1,
                               family))
                strata.append((stations[(7 - batch - 2 * column) % 8], 2,
                               family))
        first: dict[tuple, int] = {}
        index = 0
        while len(first) < len(strata):
            scenario = generator.scenario(index)
            topology = scenario.topology
            if scenario.workload.size_factor == 1.0 and (
                    topology.graph_family in ("diamond", "star")
                    or topology.graph_switches == 4):
                key = (scenario.workload.station_count,
                       len(scenario.policies), topology.graph_family)
                first.setdefault(key, index)
            index += 1
        return [first[stratum] for stratum in strata]

    def inputs(self) -> list:
        from repro.fuzz.generator import GeneratorConfig, ScenarioGenerator
        from repro.store.fingerprint import canonical
        generator = ScenarioGenerator(self.seed, GeneratorConfig.multi_hop())
        return [canonical(generator.scenario(index))
                for index in self.cell_order()[:32]]

    def setup(self) -> None:
        warm_code_versions()
        self._order = self.cell_order()

    def campaign(self, index: int, store):
        from repro import units
        from repro.fuzz import FuzzCampaign
        from repro.fuzz.campaign import FuzzCell
        from repro.fuzz.generator import GeneratorConfig

        class _Cell(FuzzCampaign):
            """``repro fuzz --multi-hop`` over one chosen stream index."""

            def cells(self):
                return [FuzzCell(index=index,
                                 scenario=self.generator.scenario(index),
                                 sim_seed=self.sim_seed,
                                 duration=self.duration)]

        return _Cell(count=1, seed=self.seed,
                     config=GeneratorConfig.multi_hop(),
                     duration=units.ms(40 if self.smoke else 160),
                     store=store)

    def run_unit(self, unit, result):
        batch = 2 if self.smoke else FUZZ_BATCH
        position = (unit * batch) % len(self._order)
        store = self.fresh_store()
        outcomes = []
        for index in self._order[position:position + batch]:
            fuzz = result.timed(self.campaign(index, store).run, unit)
            result.work += 1
            result.attempted += 1
            outcomes.extend(fuzz.outcomes)
            bad = sum(1 for outcome in fuzz.outcomes if not outcome.holds)
            result.failed += bad + len(fuzz.failures)
            if not fuzz.all_invariants_hold or fuzz.violation_count:
                result.problems.append(
                    f"cell {index}: {fuzz.violation_count} invariant "
                    f"violations, {len(fuzz.failures)} failures")
        if unit == 0:
            result.digest = digest([
                [outcome.cell.index, list(outcome.violations),
                 [[row.policy, row.priority.name, row.analytic_bound,
                   row.worst_simulated] for row in outcome.bound_rows]]
                for outcome in outcomes])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_SCENARIOS = ("synchronized", "random")
SIM_SEEDS = 4
SIM_HORIZON_MS = 1280.0


class Simulate(Workload):
    """``repro simulate`` on the paper case, one campaign per unit."""

    name = "simulate"
    unit = "events"
    throughput_name = "sim_events_per_s"
    predicted_top = "simulation.run"

    def workload_seed(self, unit: int) -> int:
        return random.Random(self.seed * 1_000_003 + unit).randrange(1000)

    def inputs(self) -> list:
        from repro.workloads import RealCaseParameters, generate_real_case
        sets = []
        for unit in range(2):
            message_set = generate_real_case(RealCaseParameters(),
                                             seed=self.workload_seed(unit))
            sets.append([[m.name, m.kind.value, m.period, m.size, m.source,
                          m.destination, m.deadline]
                         for m in message_set.messages])
        return sets

    def setup(self) -> None:
        from repro.workloads import RealCaseParameters, generate_real_case
        warm_code_versions()
        generate_real_case(RealCaseParameters(), seed=self.workload_seed(0))

    def run_unit(self, unit, result):
        from repro import units
        from repro.simulation.campaign import SimulationCampaign
        campaign = SimulationCampaign(
            station_count=8 if self.smoke else 16,
            workload_seed=self.workload_seed(unit),
            seeds=tuple(range(1, (1 if self.smoke else SIM_SEEDS) + 1)),
            scenarios=SIM_SCENARIOS,
            duration=units.ms(40 if self.smoke else SIM_HORIZON_MS),
            store=self.fresh_store())
        sim = result.timed(campaign.run, unit)
        result.work += sim.events_processed
        result.attempted += sim.cells
        broken = sum(1 for row in sim.rows if not row.bound_holds)
        result.failed += broken + len(sim.failures)
        if not sim.all_bounds_hold or sim.failures:
            result.problems.append(
                f"campaign {unit}: {broken} rows over their bound, "
                f"{len(sim.failures)} failed cells")
        if unit == 0:
            result.digest = digest([
                [row.scenario, row.policy, row.priority.name,
                 row.analytic_bound, row.worst_simulated, row.mean_simulated,
                 row.samples] for row in sim.rows])


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

SERVE_SCENARIO = "paper-real-case"
SERVE_POLICY = "strict-priority"
#: Offered rate of the latency phase, well below the server's saturation
#: even while the host runs at half speed.
SERVE_RATE = 64.0
#: Offered rates of the capacity ladder (requests per second).
SERVE_LADDER = (32.0, 64.0, 96.0, 128.0, 192.0, 256.0)
#: p99 latency limit of the capacity ladder.
SERVE_P99_LIMIT_S = 0.05
#: Flows the benchmark holds admitted on top of the paper case's own 150
#: or so: one per station.  :meth:`Admission.setup` admits them untimed,
#: so every timed request meets a flow table of the same size.
SERVE_WINDOW = 16
#: Shares of the request mix.  No trace of real admission traffic exists,
#: so reads (committed and what-if checks) and writes get equal shares: a
#: change to either path moves the latency alike.  A write admits while
#: the benchmark holds fewer than :data:`SERVE_WINDOW` flows and removes
#: the oldest one otherwise, so admits and removes balance and the table
#: stays at the window size (one less after a remove or a refusal).
SERVE_MIX = (("check", 0.25), ("what-if", 0.25), ("write", 0.5))
#: Share of the timed phase spent at the fixed rate; the ladder gets the rest.
SERVE_FIXED_SHARE = 0.8
#: Statuses that are answers: 200 applied, 409 refused.
SERVE_ANSWERS = frozenset({200, 409})


class _Server:
    """One ``repro serve`` process with a fresh journal and store."""

    def __init__(self, workdir: Path, index: int, trace_out: Path | None):
        serve_args = ["serve", "--scenario", SERVE_SCENARIO,
                      "--policy", SERVE_POLICY, "--port", "0",
                      "--journal", str(workdir / f"journal-{index}"),
                      "--store", str(workdir / f"serve-store-{index}")]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        if trace_out is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--trace-out", str(trace_out), "--"] + serve_args
        self.trace_out = trace_out
        # The server's stderr goes to a file: a pipe nobody reads could
        # fill up and stall the server mid-run.
        self.log = workdir / f"serve-{index}.log"
        #: Launch and ``/health``-ready instants (``time.perf_counter``).
        self.launched = time.perf_counter()
        with open(self.log, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, cwd=str(workdir), env=env, stdout=subprocess.PIPE,
                stderr=log, text=True)
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(
                f"repro serve did not start: {line!r} "
                f"{self.log.read_text(encoding='utf-8')[-2000:]!r}")
        from repro.serve import ServeClient
        url = line.split("http://", 1)[1].split()[0]
        # The service's own client: one connection per request, one
        # request at a time.
        self.client = ServeClient(f"http://{url}", timeout=30)
        deadline = time.monotonic() + 60
        while True:
            try:
                status, body = self.request("GET", "/health")
                if status == 200 and body.get("ready"):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve never reported ready")
            time.sleep(0.01)
        self.ready = time.perf_counter()

    def request(self, method: str, path: str, payload=None):
        status, body, _headers = self.client.request(method, path, payload)
        return status, body

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (Linux ``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> dict | None:
        """SIGTERM (graceful drain), wait; returns the launcher's trace."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        if self.trace_out is not None and self.trace_out.is_file():
            return json.loads(self.trace_out.read_text(encoding="utf-8"))
        return None


class Admission(Workload):
    """``repro serve`` in an open loop: one client, one connection."""

    name = "admission"
    unit = "requests"
    throughput_name = "served_per_s"
    predicted_top = "store.fingerprint"

    def __init__(self, seed, workdir, *, smoke=False):
        super().__init__(seed, workdir, smoke=smoke)
        self.server: _Server | None = None
        self._servers = 0
        #: Launch the server through the tracing launcher.
        self.traced = False

    def flows(self, count: int, *, window: bool = False) -> list[dict]:
        """``count`` flows drawn from the paper case's own generator.

        The candidates are the messages of fresh seeded draws of the
        served scenario's workload (periodic, 3 ms urgent, medium and
        background sporadic messages in its proportions), renamed so that
        none clashes with a served flow.  ``window`` draws the flows that
        fill the window in set-up, from a stream of their own.
        """
        from repro.serve import message_to_payload
        from repro.workloads import RealCaseParameters, generate_real_case
        rng = random.Random(2 * self.seed + window)
        prefix = f"pb-{self.seed}-{'w' if window else ''}"
        flows: list[dict] = []
        while len(flows) < count:
            messages = list(generate_real_case(
                RealCaseParameters(), seed=rng.randrange(1_000_000)).messages)
            rng.shuffle(messages)
            for message in messages[:count - len(flows)]:
                flow = message_to_payload(message)
                flow["name"] = f"{prefix}{len(flows)}"
                flows.append(flow)
        return flows

    def schedule(self, count: int) -> list:
        """``count`` (op, flow) draws from :data:`SERVE_MIX`; a write
        becomes an admit or a remove online."""
        rng = random.Random(self.seed + 1)
        ops = []
        for flow in self.flows(count):
            draw, op = rng.random(), SERVE_MIX[-1][0]
            for candidate, share in SERVE_MIX:
                if draw < share:
                    op = candidate
                    break
                draw -= share
            ops.append((op, flow))
        return ops

    def inputs(self) -> list:
        return [[op, flow] for op, flow in self.schedule(512)]

    def launch(self, traced: bool = False) -> _Server:
        self._servers += 1
        trace_out = None
        if traced:
            trace_out = self.workdir / f"server-trace-{self._servers}.json"
        return _Server(self.workdir, self._servers, trace_out)

    def setup(self) -> None:
        """Launch the server and fill the window with untimed admits."""
        self.server = self.launch(traced=self.traced)
        self._ops = self.schedule(int(SERVE_RATE * 64))
        self._position = 0
        self._admitted: list[str] = []
        self._committed: list[dict] = []
        self._log: list = []
        #: Client round trip of every request by its ``request_seq``.
        self.round_trips: dict[int, float] = {}
        for flow in self.flows(4 * SERVE_WINDOW, window=True):
            if len(self._admitted) == SERVE_WINDOW:
                break
            started = time.perf_counter()
            _op, status, body, committed = self._send("write", flow)
            self._note(body, time.perf_counter() - started, committed)
            if status not in SERVE_ANSWERS:
                raise RuntimeError(f"filling the window: status {status}")
        if len(self._admitted) < SERVE_WINDOW:
            raise RuntimeError("the server refused too many window flows")

    def _send(self, op: str, flow: dict):
        """One request; returns (op, status, body, committed operation)."""
        server = self.server
        if op == "check":
            status, body = server.request("POST", "/check", {})
            return op, status, body, None
        if op == "what-if":
            status, body = server.request("POST", "/check", {"flow": flow})
            return op, status, body, None
        if len(self._admitted) < SERVE_WINDOW:
            status, body = server.request("POST", "/admit",
                                          {"flow": flow, "force": False})
            if status == 200 and body.get("applied"):
                self._admitted.append(flow["name"])
                return "admit", status, body, {"op": "admit", "flow": flow}
            return "admit", status, body, None
        name = self._admitted[0]
        status, body = server.request("POST", "/remove", {"name": name})
        if status == 200 and body.get("applied"):
            self._admitted.pop(0)
            return "remove", status, body, {"op": "remove", "name": name}
        return "remove", status, body, None

    def _note(self, body: dict, round_trip: float, committed) -> None:
        seq = body.get("request_seq")
        if seq is not None:
            self.round_trips[seq] = round_trip
        if committed is not None:
            self._committed.append(committed)

    def open_loop(self, rate: float, seconds: float,
                  result: Measurement | None = None) -> dict:
        """Send at ``rate`` for ``seconds``; latency counts from due time.

        With ``result``, each request's interval from due time to answer
        is recorded as its own latency group, and each answered request's
        round trip as service time.
        """
        count = max(1, int(rate * seconds))
        latencies, lateness = [], []
        bad = 0
        origin = time.perf_counter() + 0.005
        for index in range(count):
            due = origin + index / rate
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            op, flow = self._ops[self._position % len(self._ops)]
            self._position += 1
            op, status, body, committed = self._send(op, flow)
            done = time.perf_counter()
            latencies.append(done - due)
            lateness.append(sent - due)
            self._note(body, done - sent, committed)
            answered = status in SERVE_ANSWERS and not (
                body.get("degraded") or body.get("shed"))
            if result is not None:
                result.pieces.append((due, done, index))
                if answered:
                    result.service.append((sent, done))
                    result.work += 1
            bad += not answered
            self._log.append([op, status, bool(body.get("applied"))])
        elapsed = time.perf_counter() - origin
        return {"latencies": latencies, "lateness": lateness, "bad": bad,
                "count": count, "achieved": count / elapsed}

    def mix(self) -> dict:
        """Shares of the timed requests by what they did."""
        kinds = {"check": 0, "what-if": 0, "admit_applied": 0,
                 "admit_refused": 0, "remove_applied": 0, "other": 0}
        for op, status, applied in self._log:
            if op in ("check", "what-if") and status == 200:
                kinds[op] += 1
            elif op == "admit" and status in SERVE_ANSWERS:
                kinds["admit_applied" if applied else "admit_refused"] += 1
            elif op == "remove" and status == 200 and applied:
                kinds["remove_applied"] += 1
            else:
                kinds["other"] += 1
        return {kind: count / len(self._log) for kind, count in kinds.items()}

    def measure(self, seconds, *, max_units=None):
        """The fixed-rate phase, then (untraced) the capacity ladder.

        ``max_units`` (the traced run) keeps to the fixed-rate phase for
        the whole of ``seconds``.  The ladder is informational: its rungs
        are short, so ``admission_max_rate`` is printed, not gated.
        """
        result = Measurement()
        fixed_s = seconds if max_units is not None \
            else seconds * SERVE_FIXED_SHARE
        fixed = self.open_loop(SERVE_RATE, fixed_s, result)
        result.units = result.attempted = fixed["count"]
        result.failed = fixed["bad"]
        result.extra.update({
            "offered_rate": (SERVE_RATE, "1/s"),
            "achieved_rate": (fixed["achieved"], "1/s"),
            "generator_late_max_ms": (max(fixed["lateness"]) * 1e3, "ms"),
            "generator_late_p99_ms": (
                percentile(fixed["lateness"], 0.99) * 1e3, "ms"),
        })
        result.extra.update({f"mix_{kind}_share": (share, "ratio")
                             for kind, share in self.mix().items()})
        if max_units is None:
            ladder = SERVE_LADDER[:2] if self.smoke else SERVE_LADDER
            rung_s = seconds * (1 - SERVE_FIXED_SHARE) / len(ladder)
            best = 0.0
            for rate in ladder:
                rung = self.open_loop(rate, rung_s)
                result.attempted += rung["count"]
                result.failed += rung["bad"]
                p99 = percentile(rung["latencies"], 0.99)
                # A growing backlog leaves the last requests of the rung
                # later than two inter-arrival times.
                tail = rung["lateness"][-max(1, len(rung["lateness"]) // 10):]
                if p99 > SERVE_P99_LIMIT_S or max(tail) > 2.0 / rate \
                        or rung["bad"]:
                    break
                best = rate
            result.extra["admission_max_rate"] = (best, "1/s")
        _status, health = self.server.request("GET", "/health")
        _status, stats = self.server.request("GET", "/stats")
        self.server_stats = stats
        result.problems.extend(self.check(health))
        for counter in ("shed", "degraded", "errors"):
            if stats.get(counter):
                result.problems.append(f"/stats reports {stats[counter]} "
                                       f"{counter}")
        result.digest = digest({"responses": self._log,
                                "state": health.get("state_fingerprint"),
                                "bounds": health.get("bounds_fingerprint")})
        return result

    def describe(self, result):
        result.extra.update({
            "served_per_s": (result.throughput, "1/s"),
            "served_per_s_wall": (result.work / max(1e-9, sum(
                end - start for start, end in result.service)), "1/s"),
            "admission_p50_ms": (percentile(result.latencies, 0.5) * 1e3,
                                 "ms"),
            "admission_p99_ms": (percentile(result.latencies, 0.99) * 1e3,
                                 "ms"),
            "admission_p50_ms_wall": (
                percentile(result.wall_latencies, 0.5) * 1e3, "ms"),
            "admission_p99_ms_wall": (
                percentile(result.wall_latencies, 0.99) * 1e3, "ms"),
        })

    def check(self, health: dict) -> list:
        """The served state equals an in-process replay of the commits."""
        from repro.campaigns import select
        from repro.serve import AdmissionEngine
        engine = AdmissionEngine(select(SERVE_SCENARIO)[0],
                                 policy=SERVE_POLICY)
        engine.replay(self._committed)
        problems = []
        if health.get("state_fingerprint") != engine.state_fingerprint():
            problems.append("served state fingerprint differs from the "
                            "in-process replay")
        if health.get("bounds_fingerprint") != \
                engine.snapshot().bounds_fingerprint():
            problems.append("served bounds fingerprint differs from the "
                            "in-process replay")
        return problems

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (SweepEngines, FuzzMultihop, Simulate,
                                       Admission)}


def peak_rss_mb() -> float:
    """This process's high-water resident set in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
