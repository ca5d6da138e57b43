"""The incremental admission-control analysis core.

An :class:`AdmissionEngine` holds a *flow table* — an insertion-ordered
population of :class:`~repro.flows.messages.Message` streams — over one
campaign :class:`~repro.campaigns.scenario.Scenario`, and answers the
admission-control question: *can this flow be added without breaking
any deadline?*

**Incrementality.**  For the single-multiplexer topologies (star,
dual-switch, tree) the closed-form bounds only depend on the per-class
:class:`~repro.core.multiplexer.ClassAggregate` sufficient statistics.
Admitting or removing a flow re-aggregates *only the touched class*:
each class keeps its members' bursts and rates in table order, and the
new aggregate is a :func:`math.fsum` over those columns plus (or minus,
by position) the mutated flow.  The reference
:func:`~repro.core.multiplexer.aggregate_flows` that
:meth:`AdmissionEngine.verify` checks against takes the same correctly
rounded sums, so the aggregate of a class is **bit-identical** whatever
order its members were admitted in (the engine never derives one by
subtraction).  Every other class keeps its committed aggregate
untouched, and the per-class closed forms are re-evaluated in
O(classes).

**Fallback.**  Multi-hop ``"graph"`` scenarios couple every flow
sharing a port through the burst-propagation fixed point, so the
per-class-aggregate invariant cannot be preserved across a mutation;
the engine falls back to a full
:class:`~repro.core.endtoend.EndToEndAnalysis` recompute over
wire-level copies of the flow table — the lowering every campaign row
of a graph scenario bounds — reusing the scenario's network, whose
routing engine's per-destination route caches persist across
mutations.  Incremental and fallback paths are
indistinguishable to callers — both commit a snapshot that equals the
from-scratch answer byte for byte.

**State fingerprint.**  The engine keeps each admitted flow's
canonical-JSON fragment next to the flow table, added on admit and
dropped on remove.  The state fingerprint is the SHA-256 of the
(scenario, policy) frame from :func:`~repro.store.fingerprint.list_frame`
around the comma-joined fragments — byte for byte the reference
``fingerprint({"scenario", "policy", "flows"})``, which
:meth:`AdmissionEngine.verify` recomputes from scratch — so a mutation
encodes one flow, not the whole table.

**Caching.**  With a result store attached, whole-table snapshots — the
start-up load and journal :meth:`~AdmissionEngine.replay` — are
content-addressed by the state fingerprint, so a restarted server (or
another worker sharing the store) warm-hits bounds it has seen before.
What-ifs, admits and removes derive their snapshot directly: their flow
tables almost never repeat (0 hits in 500 benchmark requests), and a
store round trip would cost each of them a disk read and a write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.engines.base import ScenarioInputs, wire_level_messages
from repro.analysis.engines.calculus import scenario_rows
from repro.campaigns.scenario import Scenario
from repro.core.multiplexer import ClassAggregate, aggregate_flows
from repro.errors import ConfigurationError
from repro.flows.messages import Message, MessageKind
from repro.flows.priorities import PriorityClass, assign_priority
from repro.store.fingerprint import (
    canonical_json,
    fingerprint,
    list_frame,
    text_fingerprint,
)

__all__ = ["AdmissionEngine", "AdmissionDecision", "EngineSnapshot",
           "ClassBound", "message_to_payload", "message_from_payload"]


# ---------------------------------------------------------------------------
# Message <-> JSON payloads (the wire and journal format of one flow)
# ---------------------------------------------------------------------------

def message_to_payload(message: Message) -> dict:
    """One flow as the JSON object used on the wire and in the journal.

    Numeric fields are canonicalised to ``float`` so a payload that
    round-tripped through JSON fingerprints identically to one taken
    from a freshly built workload (whose sizes may be ``int``).
    """
    return {"name": message.name,
            "kind": message.kind.value,
            "period": float(message.period),
            "size": float(message.size),
            "source": message.source,
            "destination": message.destination,
            "deadline": (None if message.deadline is None
                         else float(message.deadline))}


def message_from_payload(payload: dict) -> Message:
    """Parse one flow payload, validating field names and values.

    Raises :class:`~repro.errors.ConfigurationError` on unknown or
    missing fields so the server can answer a 400 instead of crashing a
    worker; value-level validation is the :class:`Message` contract.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"a flow must be a JSON object, got {type(payload).__name__}")
    allowed = {"name", "kind", "period", "size", "source", "destination",
               "deadline"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown flow field(s) {unknown}; allowed: {sorted(allowed)}")
    missing = sorted({"name", "period", "size", "source", "destination"}
                     - set(payload))
    if missing:
        raise ConfigurationError(f"flow is missing field(s) {missing}")
    try:
        kind = MessageKind(payload.get("kind", "sporadic"))
    except ValueError:
        raise ConfigurationError(
            f"flow kind must be 'periodic' or 'sporadic', "
            f"got {payload.get('kind')!r}") from None
    try:
        return Message(name=str(payload["name"]), kind=kind,
                       period=float(payload["period"]),
                       size=float(payload["size"]),
                       source=str(payload["source"]),
                       destination=str(payload["destination"]),
                       deadline=(None if payload.get("deadline") is None
                                 else float(payload["deadline"])))
    except (TypeError, ValueError) as error:
        raise ConfigurationError(f"bad flow payload: {error}") from None


# ---------------------------------------------------------------------------
# Snapshots and decisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassBound:
    """One class's committed bound inside an :class:`EngineSnapshot`."""

    priority: PriorityClass
    #: Flows of the class currently in the table.
    count: int
    #: Binding (smallest) deadline of the class, or ``None``.
    deadline: float | None
    #: End-to-end worst-case delay bound (seconds, ``inf`` if unstable).
    bound: float
    #: Aggregate backlog bound at the analysis point (bits).
    backlog_bits: float
    #: False when the bound is not a valid worst case (overload).
    stable: bool

    @property
    def ok(self) -> bool:
        """Stable and within the class deadline (if it has one)."""
        return self.stable and (self.deadline is None
                                or self.bound <= self.deadline)

    def to_payload(self) -> dict:
        """The JSON object served to clients."""
        return {"class": self.priority.name, "count": self.count,
                "deadline": self.deadline, "bound": self.bound,
                "backlog_bits": self.backlog_bits, "stable": self.stable,
                "ok": self.ok}


@dataclass(frozen=True)
class EngineSnapshot:
    """The committed answer after one mutation (or the initial load)."""

    #: Per-class bounds, most-urgent first.
    classes: tuple[ClassBound, ...]
    #: Number of flows in the table.
    flow_count: int
    #: The policy the bounds were computed under.
    policy: str
    #: ``True`` when every class with a deadline is stable and meets it.
    feasible: bool
    #: Content fingerprint of the flow table (order-sensitive).
    state_fingerprint: str
    #: ``"incremental"`` or ``"recompute"`` — which path produced it.
    mode: str

    def to_payload(self) -> dict:
        """The JSON object served to clients (and fingerprinted)."""
        return {"classes": [bound.to_payload() for bound in self.classes],
                "flow_count": self.flow_count,
                "policy": self.policy,
                "feasible": self.feasible,
                "state_fingerprint": self.state_fingerprint,
                "mode": self.mode}

    def bounds_fingerprint(self) -> str:
        """Content fingerprint of the bounds themselves."""
        payload = self.to_payload()
        payload.pop("mode")  # identical bounds, whichever path derived them
        return fingerprint(payload)

    def violations(self) -> list[str]:
        """One human line per class missing its deadline (or unstable)."""
        problems = []
        for bound in self.classes:
            if bound.ok:
                continue
            if not bound.stable:
                problems.append(f"class {bound.priority.name} is unstable "
                                f"(no finite bound)")
            else:
                problems.append(
                    f"class {bound.priority.name} bound "
                    f"{bound.bound * 1e3:.3f} ms exceeds its deadline "
                    f"{bound.deadline * 1e3:.3f} ms")
        return problems


@dataclass(frozen=True)
class AdmissionDecision:
    """The engine's answer to one ``admit``/``remove``/``check`` query."""

    #: ``"admit"``, ``"remove"`` or ``"check"``.
    operation: str
    #: True when the mutation was applied (always True for ``check``).
    applied: bool
    #: Name of the flow the query was about (``None`` for bare checks).
    flow: str | None
    #: The bounds the decision rests on: the committed snapshot after an
    #: applied mutation, the hypothetical snapshot for a rejected admit
    #: or a what-if check.
    snapshot: EngineSnapshot
    #: Why a mutation was rejected (deadline misses, duplicate name...).
    reasons: tuple[str, ...] = ()

    def to_payload(self) -> dict:
        """The JSON object served to clients."""
        return {"operation": self.operation, "applied": self.applied,
                "flow": self.flow, "reasons": list(self.reasons),
                "snapshot": self.snapshot.to_payload()}


# ---------------------------------------------------------------------------
# Per-class committed state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ClassState:
    """Committed sufficient statistics of one priority class."""

    aggregate: ClassAggregate
    #: Binding (smallest) deadline among the members, or ``None``.
    deadline: float | None
    #: Member flow names, in table insertion order.
    members: tuple[str, ...]
    #: The members' bursts (bits), rates (bits/s) and deadlines, in the
    #: same order as ``members``.
    bursts: tuple[float, ...]
    rates: tuple[float, ...]
    deadlines: tuple[float | None, ...]


def _class_state(members: tuple[str, ...], bursts: tuple[float, ...],
                 rates: tuple[float, ...],
                 deadlines: tuple[float | None, ...]) -> _ClassState:
    """Aggregate one class from its member columns."""
    return _ClassState(
        aggregate=ClassAggregate(burst=math.fsum(bursts),
                                 rate=math.fsum(rates),
                                 max_burst=max(bursts), count=len(bursts)),
        deadline=min((deadline for deadline in deadlines
                      if deadline is not None), default=None),
        members=members, bursts=bursts, rates=rates, deadlines=deadlines)


def _admitted(state: _ClassState | None, message: Message) -> _ClassState:
    """``state`` with ``message`` appended (``None``: an empty class)."""
    members, bursts, rates, deadlines = (
        ((), (), (), ()) if state is None else
        (state.members, state.bursts, state.rates, state.deadlines))
    return _class_state(members + (message.name,),
                        bursts + (float(message.burst),),
                        rates + (float(message.rate),),
                        deadlines + (message.deadline,))


def _dropped(state: _ClassState, name: str) -> _ClassState | None:
    """``state`` without member ``name`` (``None`` once empty)."""
    if len(state.members) == 1:
        return None
    index = state.members.index(name)
    return _class_state(*(column[:index] + column[index + 1:]
                          for column in (state.members, state.bursts,
                                         state.rates, state.deadlines)))


class AdmissionEngine:
    """The long-lived admission-control analysis over one scenario.

    Parameters
    ----------
    scenario:
        The loaded scenario: its workload is the initial flow table, its
        topology/capacity/technology delay parameterise the bounds.
    policy:
        The multiplexing policy admission is decided under; defaults to
        the scenario's first policy.
    store:
        Optional :class:`~repro.store.ResultStore` used as a warm
        cross-worker bound cache.
    preload:
        ``False`` starts with an empty flow table (the journal-recovery
        path re-admits the journaled flows instead).
    """

    def __init__(self, scenario: Scenario, policy: str | None = None,
                 store=None, *, preload: bool = True) -> None:
        policy = policy if policy is not None else scenario.policies[0]
        if policy not in scenario.policies:
            raise ConfigurationError(
                f"policy {policy!r} is not one of the scenario's "
                f"policies {scenario.policies}")
        if scenario.workload.replication != 1 and preload:
            raise ConfigurationError(
                "the admission engine mutates individual flows and does "
                "not support lazily replicated workloads; use "
                "replication=1")
        self.scenario = scenario
        self.policy = policy
        self.store = store
        self._flows: dict[str, Message] = {}
        #: Each admitted flow's canonical-JSON fragment, in table order.
        self._fragments: dict[str, str] = {}
        #: The state fingerprint's canonical text around the fragments.
        self._frame = list_frame({"scenario": scenario, "policy": policy},
                                 "flows")
        self._classes: dict[PriorityClass, _ClassState] = {}
        self._graph_spec = None
        self._network = None
        #: Mutations served by the incremental path since construction.
        self.incremental_hits = 0
        #: Mutations that fell back to a full recompute.
        self.full_recomputes = 0
        if scenario.topology.kind == "graph":
            self._graph_spec = scenario.topology.build_graph(
                scenario.workload.total_stations, scenario.capacity,
                scenario.technology_delay)
            # One network for the engine's lifetime: its routing
            # engine's per-destination route caches persist across
            # mutations, which is the incremental piece the fixed-point
            # fallback still reuses.
            self._network = self._graph_spec.to_network()
        if preload:
            for message in scenario.workload.build().messages:
                self._apply_admit(message)
        self._snapshot = self._load_snapshot()

    # -- introspection -----------------------------------------------------

    def __contains__(self, name: object) -> bool:
        """Whether a flow of this name is in the table."""
        return name in self._flows

    def flow_names(self) -> tuple[str, ...]:
        """The flow table's names, in insertion order."""
        return tuple(self._flows)

    def flow_payloads(self) -> list[dict]:
        """The flow table as JSON payloads, in insertion order."""
        return [message_to_payload(message)
                for message in self._flows.values()]

    def flow_payload(self, name: str) -> dict:
        """One admitted flow as its JSON payload (KeyError if absent)."""
        return message_to_payload(self._flows[name])

    def state_fingerprint(self) -> str:
        """Content fingerprint of (scenario, policy, flow table)."""
        return self._state_fingerprint()

    def _state_fingerprint(self, *extra: str) -> str:
        """The state fingerprint with ``extra`` fragments appended."""
        head, tail = self._frame
        return text_fingerprint(
            head + ",".join([*self._fragments.values(), *extra]) + tail)

    def snapshot(self) -> EngineSnapshot:
        """The committed snapshot (the last committed cached bound)."""
        return self._snapshot

    # -- queries -----------------------------------------------------------

    def check(self, payload: dict | None = None) -> AdmissionDecision:
        """The committed bounds; with a flow payload, the what-if bounds.

        A what-if check runs the same tentative derivation as
        :meth:`admit` but never commits, whatever the outcome.
        """
        if payload is None:
            return AdmissionDecision(operation="check", applied=True,
                                     flow=None, snapshot=self._snapshot)
        message = message_from_payload(payload)
        if message.name in self._flows:
            return AdmissionDecision(
                operation="check", applied=True, flow=message.name,
                snapshot=self._snapshot,
                reasons=(f"flow {message.name!r} is already admitted",))
        _, _, snapshot = self._tentative_admit(message)
        return AdmissionDecision(
            operation="check", applied=True, flow=message.name,
            snapshot=snapshot, reasons=tuple(snapshot.violations()))

    def admit(self, payload: dict, *, force: bool = False
              ) -> AdmissionDecision:
        """Admit one flow iff every deadline still holds afterwards.

        The tentative bounds are derived incrementally (or via the graph
        fallback), compared against every class deadline, and committed
        only on success — a rejected admit leaves the committed state
        untouched.  ``force=True`` commits regardless (operator
        override); the decision still reports the violations.
        """
        message = message_from_payload(payload)
        if message.name in self._flows:
            return AdmissionDecision(
                operation="admit", applied=False, flow=message.name,
                snapshot=self._snapshot,
                reasons=(f"flow {message.name!r} is already admitted",))
        tentative, fragment, snapshot = self._tentative_admit(message)
        reasons = tuple(snapshot.violations())
        if reasons and not force:
            return AdmissionDecision(operation="admit", applied=False,
                                     flow=message.name, snapshot=snapshot,
                                     reasons=reasons)
        self._flows[message.name] = message
        self._fragments[message.name] = fragment
        self._classes = tentative
        self._snapshot = snapshot
        return AdmissionDecision(operation="admit", applied=True,
                                 flow=message.name, snapshot=snapshot,
                                 reasons=reasons)

    def remove(self, name: str) -> AdmissionDecision:
        """Remove one flow by name (always succeeds when present).

        Removing a flow can only shrink every other bound (burst sums
        and blocking terms shrink, residual rates grow), so removal
        needs no feasibility gate.
        """
        message = self._flows.get(name)
        if message is None:
            return AdmissionDecision(
                operation="remove", applied=False, flow=name,
                snapshot=self._snapshot,
                reasons=(f"flow {name!r} is not admitted",))
        self._drop(message)
        self._snapshot = self._request_snapshot(
            self._classes, list(self._flows.values()),
            self._state_fingerprint())
        return AdmissionDecision(operation="remove", applied=True,
                                 flow=name, snapshot=self._snapshot)

    # -- the incremental derivation ---------------------------------------

    def _tentative_admit(self, message: Message
                         ) -> tuple[dict[PriorityClass, _ClassState], str,
                                    EngineSnapshot]:
        """The would-be class states, flow fragment and snapshot after
        admitting."""
        cls = assign_priority(message)
        classes = dict(self._classes)
        classes[cls] = _admitted(classes.get(cls), message)
        fragment = canonical_json(message_to_payload(message))
        snapshot = self._request_snapshot(
            classes, [*self._flows.values(), message],
            self._state_fingerprint(fragment))
        return classes, fragment, snapshot

    def _drop(self, message: Message) -> None:
        """Take one flow out of the table and re-aggregate its class."""
        cls = assign_priority(message)
        del self._flows[message.name]
        del self._fragments[message.name]
        classes = dict(self._classes)
        remaining = _dropped(classes[cls], message.name)
        if remaining is None:
            del classes[cls]
        else:
            classes[cls] = remaining
        self._classes = classes

    # -- snapshot computation ----------------------------------------------

    def _request_snapshot(self, classes: dict[PriorityClass, _ClassState],
                          messages: list[Message],
                          state_digest: str) -> EngineSnapshot:
        """A what-if, admit or remove snapshot, derived directly.

        ``messages`` is the (possibly tentative) flow table: the graph
        fallback needs the actual member list, the aggregate path only
        the statistics in ``classes``.
        """
        if self._network is None:
            mode = "incremental"
            self.incremental_hits += 1
        else:
            mode = "recompute"
            self.full_recomputes += 1
        return self._derive_snapshot(classes, messages, mode, state_digest)

    def _load_snapshot(self) -> EngineSnapshot:
        """The committed table's snapshot at start-up and after replay.

        These whole-table loads are the only snapshots that go through
        the store, so a restarted server warm-hits its prior bounds.
        """
        self.full_recomputes += 1
        messages = list(self._flows.values())
        state_digest = self._state_fingerprint()
        if self.store is None:
            return self._derive_snapshot(self._classes, messages,
                                         "recompute", state_digest)
        payload, _from_store = self.store.cached(
            "serve-snapshot", {"state": state_digest},
            lambda: self._derive_snapshot(self._classes, messages,
                                          "recompute",
                                          state_digest).to_payload(),
            subsystem="serve")
        return _snapshot_from_payload(payload, mode="recompute")

    def _derive_snapshot(self, classes: dict[PriorityClass, _ClassState],
                         messages: list[Message], mode: str,
                         state_digest: str) -> EngineSnapshot:
        """The campaign runner's per-class rows over one flow table.

        Both come from :func:`~repro.analysis.engines.calculus.scenario_rows`:
        star-family scenarios evaluate the closed form on the committed
        class aggregates; graph scenarios lower the full population onto
        the long-lived network (wire-level copies, as every lowering
        bounds) and read the ``calculus`` verdict on it.
        """
        aggregates = {cls: state.aggregate
                      for cls, state in sorted(classes.items())}
        rows = scenario_rows(self.scenario, self.policy, aggregates,
                             lambda: self._lowering(messages)) \
            if messages else {}
        bounds = [ClassBound(priority=cls, count=classes[cls].aggregate.count,
                             deadline=classes[cls].deadline, bound=bound,
                             backlog_bits=backlog,
                             stable=math.isfinite(bound))
                  for cls, (bound, backlog) in rows.items()]
        feasible = all(bound.ok for bound in bounds
                       if bound.deadline is not None) and \
            all(bound.stable for bound in bounds)
        return EngineSnapshot(classes=tuple(bounds),
                              flow_count=len(messages),
                              policy=self.policy,
                              feasible=feasible,
                              state_fingerprint=state_digest,
                              mode=mode)

    def _lowering(self, messages: list[Message]) -> ScenarioInputs:
        """A flow table on the graph scenario's long-lived network."""
        return ScenarioInputs(messages, wire_level_messages(messages),
                              self._network, self._graph_spec)

    # -- journal-recovery entry points -------------------------------------

    def _apply_admit(self, message: Message) -> None:
        """Append one flow without recomputing bounds (bulk load)."""
        if message.name in self._flows:
            raise ConfigurationError(
                f"duplicate flow name {message.name!r} in the workload")
        cls = assign_priority(message)
        self._flows[message.name] = message
        self._fragments[message.name] = canonical_json(
            message_to_payload(message))
        self._classes[cls] = _admitted(self._classes.get(cls), message)

    def replay(self, operations: list[dict]) -> None:
        """Re-apply journaled operations, then recompute the snapshot.

        Used by journal recovery: operations are applied without
        per-step bound derivations (the journal only ever records
        *committed* mutations, so re-deriving per step would repeat
        decisions already taken), and one snapshot recompute at the end
        restores the committed bounds byte-identically.
        """
        for operation in operations:
            if operation.get("op") == "admit":
                self._apply_admit(message_from_payload(operation["flow"]))
            elif operation.get("op") == "remove":
                message = self._flows.get(operation.get("name"))
                if message is not None:
                    self._drop(message)
            else:
                raise ConfigurationError(
                    f"unknown journal operation {operation.get('op')!r}")
        self._snapshot = self._load_snapshot()

    # -- self-verification --------------------------------------------------

    def verify(self) -> bool:
        """Assert the committed state equals a from-scratch recompute.

        Re-aggregates the whole flow table with the reference
        :func:`~repro.core.multiplexer.aggregate_flows` loop, re-encodes
        it for the reference state fingerprint, and re-derives the
        snapshot; every committed aggregate, the maintained state
        fingerprint and the committed bounds fingerprint must match
        **exactly** (bit identity, not tolerance).  Returns ``True`` on
        success and raises ``AssertionError`` otherwise — callers treat
        any failure as a bug, never a rounding artefact.
        """
        messages = list(self._flows.values())
        reference = aggregate_flows(messages) if messages else {}
        committed = {cls: state.aggregate
                     for cls, state in self._classes.items()}
        assert committed == reference, (
            f"incremental aggregates diverged from the reference: "
            f"{committed} != {reference}")
        reference_state = fingerprint({
            "scenario": self.scenario,
            "policy": self.policy,
            "flows": [message_to_payload(message) for message in messages]})
        assert self.state_fingerprint() == reference_state, (
            "fragment state fingerprint diverged from the reference")
        fresh = self._derive_snapshot(self._classes, messages,
                                      "recompute", reference_state)
        assert fresh.bounds_fingerprint() == \
            self._snapshot.bounds_fingerprint(), (
            "incremental bounds diverged from the from-scratch recompute")
        return True


def _snapshot_from_payload(payload: dict, *, mode: str) -> EngineSnapshot:
    """Rebuild a snapshot from its stored JSON payload."""
    classes = tuple(ClassBound(
        priority=PriorityClass[row["class"]],
        count=int(row["count"]),
        deadline=row["deadline"],
        bound=float(row["bound"]),
        backlog_bits=float(row["backlog_bits"]),
        stable=bool(row["stable"])) for row in payload["classes"])
    return EngineSnapshot(classes=classes,
                          flow_count=int(payload["flow_count"]),
                          policy=str(payload["policy"]),
                          feasible=bool(payload["feasible"]),
                          state_fingerprint=str(
                              payload["state_fingerprint"]),
                          mode=mode)
