"""The paper's closed-form multiplexer delay bounds.

Inside every station (and, for the end-to-end analysis, inside every switch
output port) the shaped flows are multiplexed before a physical link of
capacity ``C``.  The paper analyses two multiplexing policies:

**FCFS multiplexer** (Section 2).  The worst-case queuing delay of any packet
is bounded by::

    D = sum_{i in S} b_i / C + t_techno

where ``S`` is the set of connections flowing through the multiplexer,
``b_i`` their token-bucket burst sizes and ``t_techno`` a bound on the
relaying (technology) delay.

**Strict-priority multiplexer with four queues** (802.1p).  The worst-case
delay of a packet of priority class ``p`` (0 = most urgent) is bounded by::

    D_p = ( sum_{i in S_q, q <= p} b_i  +  max_{j in S_q, q > p} b_j )
          / ( C - sum_{i in S_q, q < p} r_i )  +  t_techno

i.e. the packet waits for the bursts of every equal-or-higher-priority flow
plus one maximal lower-priority packet already in transmission
(non-preemption), served at the capacity left over by the higher-priority
classes.

Both analyses also expose the *residual service curve* equivalent to their
bound, so the end-to-end composition in :mod:`repro.core.endtoend` can chain
several multiplexing points with the standard network-calculus machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.netcalc.arrival import TokenBucketArrivalCurve
from repro.core.netcalc.bounds import backlog_bound
from repro.core.netcalc.service import RateLatencyServiceCurve
from repro.errors import EmptyAggregateError, UnstableSystemError
from repro.flows.arrays import MessageArrays
from repro.flows.flow import Flow
from repro.flows.message_set import MessageSet
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass, assign_priority
from repro.simulation.statistics import safe_max

__all__ = [
    "MultiplexerBound",
    "ClassAggregate",
    "aggregate_flows",
    "aggregate_from_arrays",
    "FcfsMultiplexerAnalysis",
    "StrictPriorityMultiplexerAnalysis",
    "priority_of",
    "compute_class_bounds",
    "compute_arrival_curve",
    "compute_service_curve",
    "single_point_rows",
]


def priority_of(item: Flow | Message) -> PriorityClass:
    """The 802.1p class of a flow or message.

    Flows carry an explicit priority; bare messages are classified with the
    paper's policy (:func:`repro.flows.priorities.assign_priority`).
    """
    if isinstance(item, Flow):
        return item.priority
    if isinstance(item, Message):
        return assign_priority(item)
    priority = getattr(item, "priority", None)
    if priority is not None:
        return PriorityClass(priority)
    raise TypeError(
        f"cannot determine the priority of a {type(item).__name__}")


@dataclass(frozen=True)
class ClassAggregate:
    """Sufficient statistics of one priority class at a multiplexing point.

    Both closed-form bounds only depend on the flow population through four
    per-class numbers — the burst sum, the rate sum, the largest individual
    burst and the flow count.  Aggregating once and evaluating the formulas
    on the aggregates turns an O(flows · classes) analysis into O(flows) +
    O(classes), which is what the campaign runner's memoization exploits.
    """

    #: Sum of the token-bucket bursts ``Σ b_i`` of the class (bits).
    burst: float
    #: Sum of the token-bucket rates ``Σ r_i`` of the class (bits/s).
    rate: float
    #: Largest individual burst of the class (bits) — the non-preemptive
    #: blocking a lower-priority packet of this class can inflict.
    max_burst: float
    #: Number of flows in the class.
    count: int

    def scaled(self, replication: int) -> "ClassAggregate":
        """The aggregate of the class replicated ``replication`` times.

        Replicating every flow multiplies the sums and the count but leaves
        the largest individual burst unchanged, so the scaled aggregate is
        exact — no need to materialise the replicated flow set.
        """
        if replication < 1:
            raise ValueError(
                f"replication must be at least 1, got {replication!r}")
        return ClassAggregate(
            burst=self.burst * replication,
            rate=self.rate * replication,
            max_burst=self.max_burst,
            count=self.count * replication)


def aggregate_from_arrays(arrays: MessageArrays
                          ) -> dict[PriorityClass, ClassAggregate]:
    """Per-class :class:`ClassAggregate` of a struct-of-arrays population.

    Vectorised counterpart of the per-flow loop: per-class masks select the
    columns, and :func:`math.fsum` adds them exactly as the loop does, so
    the aggregates are bit-identical.
    """
    aggregates: dict[PriorityClass, ClassAggregate] = {}
    for cls in arrays.present_classes():
        mask = arrays.class_mask(cls)
        bursts = arrays.bursts[mask]
        aggregates[cls] = ClassAggregate(
            burst=math.fsum(bursts.tolist()),
            rate=math.fsum(arrays.rates[mask].tolist()),
            max_burst=float(bursts.max()),
            count=int(mask.sum()))
    return aggregates


def aggregate_flows(flows: Iterable[Flow | Message] | MessageSet |
                    MessageArrays
                    ) -> dict[PriorityClass, ClassAggregate]:
    """Per-class :class:`ClassAggregate` of a flow population.

    Only classes with at least one flow appear in the result; keys are
    ordered from most to least urgent.

    Fast paths: a :class:`MessageSet` is aggregated through its cached
    struct-of-arrays view; a lazily replicated set
    (:attr:`MessageSet.arithmetic_replication`) aggregates its base once
    and scales the sums by the replication factor without materialising the
    replicas (:meth:`ClassAggregate.scaled`).  Generic iterables of flows
    or messages take the per-item reference loop.
    """
    if isinstance(flows, MessageSet):
        replica = flows.arithmetic_replication
        if replica is not None:
            base, replication = replica
            return {cls: aggregate.scaled(replication)
                    for cls, aggregate in aggregate_flows(base).items()}
        return aggregate_from_arrays(flows.arrays())
    if isinstance(flows, MessageArrays):
        return aggregate_from_arrays(flows)
    classes: dict[PriorityClass, tuple[list[float], list[float]]] = {}
    for flow in flows:
        bursts, rates = classes.setdefault(priority_of(flow), ([], []))
        bursts.append(float(flow.burst))
        rates.append(float(flow.rate))
    return {cls: ClassAggregate(burst=math.fsum(bursts),
                                rate=math.fsum(rates),
                                max_burst=max(bursts), count=len(bursts))
            for cls, (bursts, rates) in sorted(classes.items())}


@dataclass(frozen=True)
class MultiplexerBound:
    """A worst-case queuing-delay bound with its breakdown.

    Attributes
    ----------
    delay:
        The bound in seconds (including ``t_techno``).
    priority:
        The class the bound applies to, or ``None`` for the FCFS bound which
        applies to every packet regardless of class.
    burst_term:
        Total burst (bits) the tagged packet may have to wait for.
    blocking_term:
        Burst (bits) of the largest lower-priority packet (non-preemption);
        zero for FCFS.
    residual_rate:
        Rate (bits per second) at which that backlog is served.
    technology_delay:
        The ``t_techno`` term (seconds).
    flow_count:
        Number of flows contributing to the burst term.
    """

    delay: float
    priority: PriorityClass | None
    burst_term: float
    blocking_term: float
    residual_rate: float
    technology_delay: float
    flow_count: int
    details: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def queuing_delay(self) -> float:
        """The bound without the technology term (seconds)."""
        return self.delay - self.technology_delay


class FcfsMultiplexerAnalysis:
    """The paper's FCFS bound ``D = Σ b_i / C + t_techno``.

    Parameters
    ----------
    capacity:
        Output link capacity ``C`` in bits per second (10 Mbps in the paper).
    technology_delay:
        The ``t_techno`` bound on the relaying delay, in seconds.
    """

    def __init__(self, capacity: float, technology_delay: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        if technology_delay < 0:
            raise ValueError(
                f"technology delay must be non-negative, "
                f"got {technology_delay!r}")
        self.capacity = float(capacity)
        self.technology_delay = float(technology_delay)

    # -- paper formula ---------------------------------------------------

    def bound(self, flows: Sequence[Flow | Message], *,
              strict: bool = True) -> MultiplexerBound:
        """Worst-case delay of any packet through the FCFS multiplexer.

        Raises
        ------
        EmptyAggregateError
            If ``flows`` is empty.
        UnstableSystemError
            If the aggregate rate exceeds the capacity and ``strict`` is
            ``True``; with ``strict=False`` the bound is still the paper's
            finite expression (the formula does not depend on the rates) but
            it is no longer a valid worst case, so the unstable flag is set
            in the details.
        """
        return self.bound_from_aggregates(aggregate_flows(flows),
                                          strict=strict)

    def bound_from_aggregates(self,
                              aggregates: Mapping[PriorityClass,
                                                  ClassAggregate], *,
                              strict: bool = True) -> MultiplexerBound:
        """:meth:`bound` evaluated on pre-computed per-class aggregates.

        This is the memoization-friendly entry point used by the campaign
        runner: the O(flows) aggregation is done once per flow population
        and the closed form is re-evaluated in O(classes) for every
        (capacity, technology-delay) combination.
        """
        if not any(a.count for a in aggregates.values()):
            raise EmptyAggregateError(
                "the FCFS bound needs at least one flow")
        total_burst = math.fsum(a.burst for a in aggregates.values())
        total_rate = math.fsum(a.rate for a in aggregates.values())
        unstable = total_rate > self.capacity
        if unstable and strict:
            raise UnstableSystemError(
                f"aggregate rate {total_rate:.0f} bps exceeds the link "
                f"capacity {self.capacity:.0f} bps: the FCFS bound does not "
                f"hold", offered_rate=total_rate, capacity=self.capacity)
        delay = total_burst / self.capacity + self.technology_delay
        return MultiplexerBound(
            delay=delay,
            priority=None,
            burst_term=total_burst,
            blocking_term=0.0,
            residual_rate=self.capacity,
            technology_delay=self.technology_delay,
            flow_count=sum(a.count for a in aggregates.values()),
            details={"total_rate": total_rate,
                     "utilization": total_rate / self.capacity,
                     "unstable": float(unstable)},
        )

    def class_bounds(self, flows: Sequence[Flow | Message], *,
                     strict: bool = True
                     ) -> dict[PriorityClass, MultiplexerBound]:
        """The FCFS bound reported per class.

        FCFS ignores priorities, so every class present in ``flows`` gets the
        same bound; classes with no flow are omitted.  This view is what
        Figure 1 plots on the FCFS side.
        """
        return self.class_bounds_from_aggregates(aggregate_flows(flows),
                                                 strict=strict)

    def class_bounds_from_aggregates(
            self, aggregates: Mapping[PriorityClass, ClassAggregate], *,
            strict: bool = True) -> dict[PriorityClass, MultiplexerBound]:
        """:meth:`class_bounds` evaluated on pre-computed aggregates."""
        bound = self.bound_from_aggregates(aggregates, strict=strict)
        return {cls: bound for cls in sorted(aggregates)
                if aggregates[cls].count}

    # -- composition helpers ----------------------------------------------

    def aggregate_arrival_curve(
            self, flows: Sequence[Flow | Message] | MessageSet
            ) -> TokenBucketArrivalCurve:
        """Token-bucket curve of the aggregate entering the multiplexer."""
        if isinstance(flows, MessageSet):
            if not len(flows):
                raise EmptyAggregateError("empty aggregate")
            return TokenBucketArrivalCurve(
                bucket=flows.total_burst(), token_rate=flows.total_rate())
        flows = list(flows)
        if not flows:
            raise EmptyAggregateError("empty aggregate")
        return TokenBucketArrivalCurve(
            bucket=math.fsum(float(f.burst) for f in flows),
            token_rate=math.fsum(float(f.rate) for f in flows))

    def service_curve(self) -> RateLatencyServiceCurve:
        """Service offered to the aggregate: rate ``C`` after ``t_techno``."""
        return RateLatencyServiceCurve(rate=self.capacity,
                                       delay=self.technology_delay)


class StrictPriorityMultiplexerAnalysis:
    """The paper's four-queue strict-priority (802.1p) bound ``D_p``.

    Parameters
    ----------
    capacity:
        Output link capacity ``C`` in bits per second.
    technology_delay:
        The ``t_techno`` bound on the relaying delay, in seconds.
    preemptive:
        The paper's multiplexer is non-preemptive: a lower-priority packet
        already in transmission blocks a newly arrived urgent packet, hence
        the ``max_{q > p} b_j`` term.  Setting ``preemptive=True`` drops that
        term (used by the ablation study to quantify the blocking cost).
    """

    def __init__(self, capacity: float, technology_delay: float = 0.0,
                 *, preemptive: bool = False) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        if technology_delay < 0:
            raise ValueError(
                f"technology delay must be non-negative, "
                f"got {technology_delay!r}")
        self.capacity = float(capacity)
        self.technology_delay = float(technology_delay)
        self.preemptive = bool(preemptive)

    # -- grouping ----------------------------------------------------------

    @staticmethod
    def group_by_class(flows: Iterable[Flow | Message]
                       ) -> dict[PriorityClass, list[Flow | Message]]:
        """Group flows by 802.1p class; every class is present in the result."""
        grouped: dict[PriorityClass, list[Flow | Message]] = {
            cls: [] for cls in PriorityClass}
        for flow in flows:
            grouped[priority_of(flow)].append(flow)
        return grouped

    # -- paper formula -----------------------------------------------------

    def bound_for_class(self, flows: Sequence[Flow | Message],
                        priority: PriorityClass, *,
                        strict: bool = True) -> MultiplexerBound:
        """Worst-case delay of a packet of class ``priority``.

        Implements exactly the paper's formula: the numerator sums the bursts
        of every flow of equal or higher priority and adds the largest burst
        among strictly lower-priority flows (non-preemptive blocking); the
        denominator is the capacity left after serving the long-term rate of
        strictly higher-priority flows.

        Raises
        ------
        EmptyAggregateError
            If no flow of class ``priority`` traverses the multiplexer.
        UnstableSystemError
            If the higher-priority rates saturate the link (the denominator
            is not positive), or — in strict mode — if the equal-or-higher
            aggregate rate exceeds the capacity, which would make the finite
            expression meaningless.
        """
        priority = PriorityClass(priority)
        return self.bound_for_class_from_aggregates(
            aggregate_flows(flows), priority, strict=strict)

    def bound_for_class_from_aggregates(
            self, aggregates: Mapping[PriorityClass, ClassAggregate],
            priority: PriorityClass, *,
            strict: bool = True) -> MultiplexerBound:
        """:meth:`bound_for_class` evaluated on pre-computed aggregates.

        Like :meth:`FcfsMultiplexerAnalysis.bound_from_aggregates`, this is
        the O(classes) closed form the campaign runner re-evaluates for every
        (capacity, technology-delay) combination without revisiting the
        flows.
        """
        priority = PriorityClass(priority)
        tagged = aggregates.get(priority)
        if tagged is None or not tagged.count:
            raise EmptyAggregateError(
                f"no flow of class {priority.name} traverses the multiplexer")

        burst_term = math.fsum(a.burst for cls, a in aggregates.items()
                               if cls <= priority)
        blocking_term = 0.0 if self.preemptive else safe_max(
            (a.max_burst for cls, a in aggregates.items()
             if cls > priority and a.count), default=0.0)
        higher_rate = math.fsum(a.rate for cls, a in aggregates.items()
                                if cls < priority)
        residual_rate = self.capacity - higher_rate

        if residual_rate <= 0:
            raise UnstableSystemError(
                f"higher-priority traffic ({higher_rate:.0f} bps) saturates "
                f"the {self.capacity:.0f} bps link: class {priority.name} "
                f"has no residual capacity",
                offered_rate=higher_rate, capacity=self.capacity)

        higher_or_equal_rate = math.fsum(
            a.rate for cls, a in aggregates.items() if cls <= priority)
        unstable = higher_or_equal_rate > self.capacity
        if unstable and strict:
            raise UnstableSystemError(
                f"classes up to {priority.name} offer "
                f"{higher_or_equal_rate:.0f} bps which exceeds the link "
                f"capacity {self.capacity:.0f} bps",
                offered_rate=higher_or_equal_rate, capacity=self.capacity)

        delay = ((burst_term + blocking_term) / residual_rate
                 + self.technology_delay)
        return MultiplexerBound(
            delay=delay,
            priority=priority,
            burst_term=burst_term,
            blocking_term=blocking_term,
            residual_rate=residual_rate,
            technology_delay=self.technology_delay,
            flow_count=sum(a.count for cls, a in aggregates.items()
                           if cls <= priority),
            details={"higher_rate": higher_rate,
                     "higher_or_equal_rate": higher_or_equal_rate,
                     "utilization": higher_or_equal_rate / self.capacity,
                     "unstable": float(unstable)},
        )

    def class_bounds(self, flows: Sequence[Flow | Message], *,
                     strict: bool = True
                     ) -> dict[PriorityClass, MultiplexerBound]:
        """The ``D_p`` bound of every class that has at least one flow."""
        return self.class_bounds_from_aggregates(aggregate_flows(flows),
                                                 strict=strict)

    def class_bounds_from_aggregates(
            self, aggregates: Mapping[PriorityClass, ClassAggregate], *,
            strict: bool = True) -> dict[PriorityClass, MultiplexerBound]:
        """:meth:`class_bounds` evaluated on pre-computed aggregates."""
        bounds: dict[PriorityClass, MultiplexerBound] = {}
        for cls in PriorityClass:
            aggregate = aggregates.get(cls)
            if aggregate is not None and aggregate.count:
                bounds[cls] = self.bound_for_class_from_aggregates(
                    aggregates, cls, strict=strict)
        if not bounds:
            raise EmptyAggregateError(
                "the strict-priority bound needs at least one flow")
        return bounds

    # -- composition helpers -------------------------------------------------

    def residual_service_curve(self, flows: Sequence[Flow | Message],
                               priority: PriorityClass
                               ) -> RateLatencyServiceCurve:
        """Rate-latency service curve seen by class ``priority``.

        The class is served at the residual rate ``C − Σ_{q<p} r_i`` after a
        latency covering the lower-priority blocking and ``t_techno``.  Using
        this curve with the class's aggregate token bucket reproduces the
        ``D_p`` bound, and it is what the end-to-end analysis composes along
        a path.
        """
        priority = PriorityClass(priority)
        return self.residual_service_curve_from_aggregates(
            aggregate_flows(flows), priority)

    def residual_service_curve_from_aggregates(
            self, aggregates: Mapping[PriorityClass, ClassAggregate],
            priority: PriorityClass) -> RateLatencyServiceCurve:
        """:meth:`residual_service_curve` evaluated on pre-computed aggregates."""
        priority = PriorityClass(priority)
        higher_rate = math.fsum(a.rate for cls, a in aggregates.items()
                                if cls < priority)
        residual_rate = self.capacity - higher_rate
        if residual_rate <= 0:
            raise UnstableSystemError(
                f"higher-priority traffic saturates the link for class "
                f"{priority.name}", offered_rate=higher_rate,
                capacity=self.capacity)
        blocking = 0.0 if self.preemptive else safe_max(
            (a.max_burst for cls, a in aggregates.items()
             if cls > priority and a.count), default=0.0)
        latency = blocking / residual_rate + self.technology_delay
        return RateLatencyServiceCurve(rate=residual_rate, delay=latency)


# ---------------------------------------------------------------------------
# The closed forms, as pure functions of the aggregates
# ---------------------------------------------------------------------------
# Shared by every consumer of the formulas — the paper-model case study, the
# scalability sweep and, through single_point_rows and scenario_rows, the
# campaign runner, the calculus engine and the admission engine — so the
# different entry points can never drift apart formula-wise.  ``policy`` is
# "fcfs" or "strict-priority" (see repro.campaigns.scenario.POLICIES).

def compute_class_bounds(aggregates: Mapping[PriorityClass, ClassAggregate],
                         capacity: float, technology_delay: float,
                         policy: str
                         ) -> dict[PriorityClass, MultiplexerBound | None]:
    """Single-point per-class bounds; ``None`` marks a saturated class.

    Evaluated with ``strict=False`` — overloaded populations yield bounds
    flagged unstable in their details (or ``None`` when the class has no
    residual capacity at all) instead of raising, which is the shared
    "unbounded row" convention of the campaign runner and Figure 1.
    """
    bounds: dict[PriorityClass, MultiplexerBound | None] = {}
    if policy == "fcfs":
        analysis = FcfsMultiplexerAnalysis(
            capacity=capacity, technology_delay=technology_delay)
        fcfs = analysis.bound_from_aggregates(aggregates, strict=False)
        return {cls: fcfs for cls, a in aggregates.items() if a.count}
    analysis = StrictPriorityMultiplexerAnalysis(
        capacity=capacity, technology_delay=technology_delay)
    for cls, aggregate in aggregates.items():
        if not aggregate.count:
            continue
        try:
            bounds[cls] = analysis.bound_for_class_from_aggregates(
                aggregates, cls, strict=False)
        except UnstableSystemError:
            bounds[cls] = None
    return bounds


def single_point_rows(aggregates: Mapping[PriorityClass, ClassAggregate],
                      capacity: float, technology_delay: float, policy: str,
                      hops: int) -> dict[PriorityClass, tuple[float, float]]:
    """The per-class ``(bound, backlog_bits)`` of a star-family scenario.

    This is the one composition rule of the scenario-level closed form,
    shared by the campaign runner, the ``calculus`` bound engine and the
    admission engine.  The station multiplexer and the first switch's
    relaying delay form one analysis point, bounded by the paper's
    formula (:func:`compute_class_bounds`), which pays every burst once.
    Every other multiplexing point of the ``hops`` adds only the latency
    of the class's per-hop residual service curve
    (:func:`compute_service_curve`: ``t_techno`` under FCFS, the
    lower-priority blocking over the residual rate plus ``t_techno``
    under strict priority), evaluated on the same source aggregates —
    pay-bursts-only-once, as in Le Boudec & Thiran.  No burst grows
    along the route and no port's cross traffic is re-derived, so this
    is *not* :class:`repro.core.endtoend.EndToEndAnalysis`, which
    re-evaluates the full multiplexer bound, bursts included, at every
    routed port.

    The backlog is the vertical deviation of the class's arrival curve
    (every class under FCFS, classes ``<= p`` under strict priority)
    through one residual service curve.  A class that is unstable, or
    that has no residual capacity at all, maps to ``(inf, inf)``.
    Rows come back sorted by class.
    """
    bounds = compute_class_bounds(aggregates, capacity, technology_delay,
                                  policy)
    rows: dict[PriorityClass, tuple[float, float]] = {}
    for cls in sorted(bounds):
        mux_bound = bounds[cls]
        if mux_bound is None or mux_bound.details.get("unstable"):
            rows[cls] = (math.inf, math.inf)
            continue
        up_to = None if policy == "fcfs" else cls
        service = compute_service_curve(aggregates, capacity,
                                        technology_delay, policy, up_to)
        rows[cls] = (mux_bound.delay + (hops - 1) * service.latency,
                     backlog_bound(compute_arrival_curve(aggregates, up_to),
                                   service, strict=False))
    return rows


def compute_arrival_curve(aggregates: Mapping[PriorityClass, ClassAggregate],
                          up_to: PriorityClass | None
                          ) -> TokenBucketArrivalCurve:
    """Token-bucket curve of the aggregate of classes ``<= up_to``."""
    included = [a for cls, a in aggregates.items()
                if up_to is None or cls <= up_to]
    return TokenBucketArrivalCurve(
        bucket=math.fsum(a.burst for a in included),
        token_rate=math.fsum(a.rate for a in included))


def compute_service_curve(aggregates: Mapping[PriorityClass, ClassAggregate],
                          capacity: float, technology_delay: float,
                          policy: str, priority: PriorityClass | None
                          ) -> RateLatencyServiceCurve:
    """Per-hop service curve seen by ``priority`` under ``policy``."""
    if policy == "fcfs":
        return RateLatencyServiceCurve(rate=capacity,
                                       delay=technology_delay)
    analysis = StrictPriorityMultiplexerAnalysis(
        capacity=capacity, technology_delay=technology_delay)
    return analysis.residual_service_curve_from_aggregates(
        aggregates, priority)
