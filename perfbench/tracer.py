"""Layer tracing from outside the program: patch, record, restore.

The benchmark measures end-to-end metrics with tracing off; a separate
traced run installs a :class:`Tracer`, which wraps the public functions
at each layer boundary of ``repro`` (see :data:`LAYER_HOOKS`).  Every
wrapper patches the name where callers bound it -- the defining class,
or the defining module plus every ``repro.*`` module that imported the
function by name -- records one span per call with the span that caused
it, and keeps counters in memory.  :meth:`Tracer.uninstall` puts every
original back.

Spans of the same name nested directly inside each other (``fingerprint``
calling ``canonical_json``, ``route_flow`` calling ``shortest_path``) are
merged into the outer span, so a layer's call count is the number of
times the layer was entered.  A span's self time is its duration minus
the time of the spans it caused.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Chrome trace events kept per run; aggregates always count every call.
MAX_EVENTS = 200_000


@dataclass(frozen=True)
class Hook:
    """One function to wrap: where it lives and which span it records."""

    module: str
    qualname: str
    span: str
    #: ``before(tracer, args, kwargs) -> state`` runs before the call.
    before: Callable[..., Any] | None = None
    #: ``after(tracer, state, args, kwargs, result, elapsed_s)``.
    after: Callable[..., None] | None = None


# ---------------------------------------------------------------------------
# Counter hooks
# ---------------------------------------------------------------------------

def _count_bytes(tracer, state, args, kwargs, result, elapsed):
    tracer.add("store.fingerprint.bytes", len(result))


def _store_stats_before(tracer, args, kwargs):
    stats = args[0].stats
    return stats.hits, stats.misses, stats.write_errors


def _store_stats_after(prefix):
    def after(tracer, state, args, kwargs, result, elapsed):
        stats = args[0].stats
        tracer.add(f"{prefix}.hits", stats.hits - state[0])
        tracer.add(f"{prefix}.misses", stats.misses - state[1])
        tracer.add(f"{prefix}.write_errors", stats.write_errors - state[2])
    return after


def _route_key(tracer, args, kwargs):
    source = args[1] if len(args) > 1 else kwargs.get("source")
    destination = args[2] if len(args) > 2 else kwargs.get("destination")
    tracer.route_key(args[0], source, destination)


def _count_events(tracer, state, args, kwargs, result, elapsed):
    tracer.add("simulation.events", args[0].simulator.events_processed)


def _mark_seq(tracer, state, args, kwargs, result, elapsed):
    tracer.request_started(result)


def _mark_dispatch(tracer, args, kwargs):
    tracer.request_dispatched(args[1].seq)


def _mark_submit(tracer, state, args, kwargs, result, elapsed):
    tracer.request_submitted(result[1].get("request_seq"), elapsed)


#: Every layer boundary the traced run records, named ``<layer>.<fn>``.
LAYER_HOOKS: tuple[Hook, ...] = (
    Hook("repro.campaigns.scenario", "WorkloadSpec.build", "workloads.build"),
    Hook("repro.campaigns.scenario", "TopologySpec.build_graph",
         "topology.lower"),
    Hook("repro.topology.graph", "GraphTopologySpec.to_network",
         "topology.lower"),
    Hook("repro.analysis.validation", "star_for_stations", "topology.lower"),
    Hook("repro.analysis.engines.base", "scenario_inputs", "topology.lower"),
    Hook("repro.topology.network", "Network.route", "topology.route",
         before=_route_key),
    Hook("repro.topology.routing", "RoutingEngine.route_flow",
         "topology.route"),
    Hook("repro.topology.routing", "RoutingEngine.shortest_path",
         "topology.route", before=_route_key),
    Hook("repro.analysis.engines.calculus",
         "CalculusEngine.network_class_bounds",
         "analysis.engines.calculus.network_class_bounds"),
    Hook("repro.analysis.engines.holistic",
         "HolisticEngine.network_class_bounds",
         "analysis.engines.holistic.network_class_bounds"),
    Hook("repro.analysis.engines.trajectory",
         "TrajectoryEngine.network_class_bounds",
         "analysis.engines.trajectory.network_class_bounds"),
    Hook("repro.analysis.engines.iteration", "run_fixed_point",
         "analysis.engines.run_fixed_point"),
    Hook("repro.analysis.multihop", "GraphPathAnalysis.analyze",
         "analysis.multihop.analyze"),
    Hook("repro.core.endtoend", "EndToEndAnalysis.analyze",
         "core.endtoend.analyze"),
    Hook("repro.core.multiplexer", "compute_class_bounds",
         "core.compute_class_bounds"),
    Hook("repro.ethernet.network_sim", "EthernetNetworkSimulator.__init__",
         "simulation.build"),
    Hook("repro.ethernet.network_sim", "EthernetNetworkSimulator.run",
         "simulation.run", after=_count_events),
    Hook("repro.store.fingerprint", "fingerprint", "store.fingerprint"),
    Hook("repro.store.fingerprint", "canonical_json", "store.fingerprint",
         after=_count_bytes),
    Hook("repro.store.store", "ResultStore.cached", "store.cached",
         before=_store_stats_before, after=_store_stats_after("store.cached")),
    Hook("repro.store.store", "ResultStore.get_payload", "store.get_payload",
         before=_store_stats_before,
         after=_store_stats_after("store.get_payload")),
    Hook("repro.store.store", "ResultStore.put_payload", "store.put_payload",
         before=_store_stats_before,
         after=_store_stats_after("store.put_payload")),
    Hook("repro.serve.engine", "AdmissionEngine.check", "serve.engine.check"),
    Hook("repro.serve.engine", "AdmissionEngine.admit", "serve.engine.admit"),
    Hook("repro.serve.engine", "AdmissionEngine.remove",
         "serve.engine.remove"),
    Hook("repro.serve.journal", "AdmissionJournal.append",
         "serve.journal.append"),
    Hook("repro.serve.journal", "AdmissionJournal.checkpoint",
         "serve.journal.checkpoint"),
    Hook("repro.serve.server", "AdmissionServer.next_seq", "serve.seq",
         after=_mark_seq),
    Hook("repro.serve.server", "AdmissionServer.submit", "serve.submit",
         after=_mark_submit),
    Hook("repro.serve.server", "AdmissionServer._dispatch", "serve.dispatch",
         before=_mark_dispatch),
    Hook("repro.exec.executor", "ParallelExecutor.map", "exec.map"),
    Hook("repro.campaigns.runner", "CampaignRunner._run_scenario",
         "exec.cell"),
    Hook("repro.fuzz.campaign", "_evaluate_cell", "exec.cell"),
    Hook("repro.simulation.campaign", "_evaluate_cell", "exec.cell"),
    Hook("repro.fuzz.generator", "ScenarioGenerator.scenario",
         "fuzz.generate"),
    Hook("repro.campaigns.runner", "CampaignRunner.run", "campaigns.run"),
    Hook("repro.fuzz.campaign", "FuzzCampaign.run", "campaigns.run"),
    Hook("repro.simulation.campaign", "SimulationCampaign.run",
         "campaigns.run"),
)

#: Spans that only mark request or cell boundaries for the derived
#: figures (queue wait, HTTP time, executor overhead); they are not
#: layers, so they take no part in the top-layer prediction.
BOOKKEEPING_SPANS = frozenset({"serve.seq", "serve.submit", "serve.dispatch",
                               "exec.cell"})


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id", "merged")

    def __init__(self, name, start, span_id, parent_id, merged):
        self.name = name
        self.start = start
        self.child = 0
        self.span_id = span_id
        self.parent_id = parent_id
        self.merged = merged


class Tracer:
    """In-memory spans and counters recorded by patched layer functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: ``{span: [calls, self_ns, total_ns]}``.
        self.spans: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.events: list[tuple] = []
        self._route_keys: set = set()
        self._route_calls = 0
        self._route_owners: list = []
        #: ``{request_seq: perf_counter_ns}`` of submit and dispatch.
        self.submit_start: dict[int, int] = {}
        self.dispatch_start: dict[int, int] = {}
        #: ``{request_seq: seconds}`` inside ``AdmissionServer.submit``.
        self.submit_s: dict[int, float] = {}
        #: ``[(owner, attribute, original, inherited)]`` to restore.
        self._patched: list[tuple[Any, str, Any, bool]] = []
        self._wrappers: dict[int, Any] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            parent.merged += 1
            return parent
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = _Frame(name, time.perf_counter_ns(), span_id,
                       parent.span_id if parent else 0, 0)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        if frame.merged:
            frame.merged -= 1
            return
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        with self._lock:
            entry = self.spans.setdefault(frame.name, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration - frame.child
            entry[2] += duration
            if len(self.events) < MAX_EVENTS:
                self.events.append((frame.name, frame.start, duration,
                                    threading.get_ident(), frame.span_id,
                                    frame.parent_id))

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def route_key(self, owner, source, destination) -> None:
        with self._lock:
            self._route_calls += 1
            if (id(owner), source, destination) not in self._route_keys:
                # Holding the owner keeps its id from being reused.
                self._route_owners.append(owner)
                self._route_keys.add((id(owner), source, destination))

    def request_started(self, seq: int) -> None:
        self.submit_start[seq] = time.perf_counter_ns()

    def request_dispatched(self, seq: int) -> None:
        self.dispatch_start[seq] = time.perf_counter_ns()

    def request_submitted(self, seq, elapsed: float) -> None:
        if seq is not None:
            self.submit_s[seq] = elapsed

    # -- patching ------------------------------------------------------------

    def _wrap(self, hook: Hook, original):
        tracer = self
        before, after, name = hook.before, hook.after, hook.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if getattr(tracer._local, "suspended", False):
                return original(*args, **kwargs)
            state = before(tracer, args, kwargs) if before else None
            frame = tracer.enter(name)
            started = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, state, args, kwargs, result,
                      (time.perf_counter_ns() - started) / 1e9)
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Patch every hook; returns ``self`` for chaining."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("repro.cli")
        for hook in LAYER_HOOKS:
            module = importlib.import_module(hook.module)
            owner_name, _, attribute = hook.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                inherited = attribute not in vars(owner)
                original = getattr(owner, attribute)
                wrapper = self._wrap(hook, original)
                self._patched.append((owner, attribute, original, inherited))
                setattr(owner, attribute, wrapper)
            else:
                original = getattr(module, attribute)
                wrapper = self._wrap(hook, original)
                for bound_module, bound_name in _bindings(original):
                    self._patched.append((bound_module, bound_name, original,
                                          False))
                    setattr(bound_module, bound_name, wrapper)
            self._wrappers[id(wrapper)] = (wrapper, original)
        return self

    def uninstall(self) -> None:
        """Restore every patched binding, including ones taken since."""
        for owner, attribute, original, inherited in reversed(self._patched):
            if inherited:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        # A module imported while tracing bound the wrapper itself.
        for wrapper, original in self._wrappers.values():
            for bound_module, bound_name in _bindings(wrapper):
                setattr(bound_module, bound_name, original)
        self._patched.clear()
        self._wrappers.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Calls made by the benchmark itself (output checks) go unrecorded."""
        self._local.suspended = True
        try:
            yield
        finally:
            self._local.suspended = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting -----------------------------------------------------------

    def export(self) -> dict:
        """Aggregates as plain JSON data (what the server launcher ships)."""
        return {
            "spans": {name: list(values) for name, values
                      in self.spans.items()},
            "counters": dict(self.counters),
            "route_keys": len(self._route_keys),
            "route_calls": self._route_calls,
            "queue_wait_s": sum(
                (self.dispatch_start[seq] - start) / 1e9
                for seq, start in self.submit_start.items()
                if seq in self.dispatch_start),
            "submit_s": {str(seq): value
                         for seq, value in self.submit_s.items()},
            "events": [list(event) for event in self.events],
        }


def write_chrome_trace(path, events, *, pid: int = 1) -> None:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto) of
    ``(name, start_ns, dur_ns, tid, id, parent)`` span tuples."""
    origin = min((event[1] for event in events), default=0)
    trace = [{"name": name, "ph": "X", "pid": pid, "tid": tid,
              "ts": (start - origin) / 1e3, "dur": duration / 1e3,
              "args": {"id": span_id, "parent": parent_id}}
             for name, start, duration, tid, span_id, parent_id in events]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, handle)


def _bindings(function) -> list[tuple[Any, str]]:
    """Every ``(repro module, name)`` bound to ``function``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                found.append((module, attribute))
    return found
