"""E1 — the paper's case study and Figure 1.

The paper models the system as a set of token-bucket shaped connections
multiplexed in front of a 10 Mbps Full-Duplex Switched Ethernet link (with a
relaying-delay bound ``t_techno``), and compares, per priority class, the
worst-case delay bound obtained with

* the plain **FCFS** multiplexer (one bound for every packet), and
* the **four-queue strict-priority** multiplexer (one bound per class),

against the real-time constraint of the class.  Figure 1 of the paper plots
those bounds; its qualitative findings are:

1. despite the 10× speed advantage over MIL-STD-1553B, the FCFS bound
   violates the 3 ms constraint of the urgent class,
2. with priorities, the urgent class's bound drops below 3 ms,
3. the periodic class's priority bound is smaller than the FCFS bound,
4. every real-time constraint is respected under the priority scheme.

:class:`PaperCaseStudy` reproduces that analysis for any message set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import units
from repro.core.multiplexer import (
    ClassAggregate,
    FcfsMultiplexerAnalysis,
    StrictPriorityMultiplexerAnalysis,
    aggregate_flows,
    compute_class_bounds,
)
from repro.errors import ConfigurationError, EmptyAggregateError
from repro.flows.message_set import MessageSet
from repro.flows.priorities import PriorityClass

__all__ = ["ClassBoundRow", "PaperCaseStudy"]

#: Default link capacity of the paper: 10 Mbps.
DEFAULT_CAPACITY = units.mbps(10)
#: Default bound on the relaying delay (t_techno): 16 µs.
DEFAULT_TECHNOLOGY_DELAY = units.us(16)


@dataclass(frozen=True)
class ClassBoundRow:
    """One row of Figure 1: a priority class and its two bounds.

    Overloaded populations follow the campaign runner's unbounded-row
    convention: the affected bound is ``math.inf`` and the matching
    ``*_stable`` flag is ``False`` — the row reports the overload instead of
    the analysis raising on it.
    """

    priority: PriorityClass
    #: Number of messages in the class.
    message_count: int
    #: The binding (smallest) deadline of the class, or ``None``.
    deadline: float | None
    #: Worst-case delay bound with the FCFS multiplexer (seconds); ``inf``
    #: when the aggregate overruns the link.
    fcfs_bound: float
    #: Worst-case delay bound with the strict-priority multiplexer
    #: (seconds); ``inf`` when the class is unstable.
    priority_bound: float
    #: False when the FCFS bound is not a valid worst case (overload).
    fcfs_stable: bool = True
    #: False when the strict-priority bound is not a valid worst case.
    priority_stable: bool = True

    @property
    def fcfs_meets_deadline(self) -> bool:
        """True when the FCFS bound respects the class constraint."""
        return self.deadline is None or self.fcfs_bound <= self.deadline

    @property
    def priority_meets_deadline(self) -> bool:
        """True when the strict-priority bound respects the class constraint."""
        return self.deadline is None or self.priority_bound <= self.deadline

    @property
    def fcfs_feasible(self) -> bool:
        """Stable *and* within the constraint — the campaign convention."""
        return self.fcfs_stable and self.fcfs_meets_deadline

    @property
    def priority_feasible(self) -> bool:
        """Stable *and* within the constraint — the campaign convention."""
        return self.priority_stable and self.priority_meets_deadline


class PaperCaseStudy:
    """The paper's single-multiplexer analysis of a message set.

    Parameters
    ----------
    message_set:
        The connections flowing through the multiplexer (the whole avionics
        traffic in the paper's case study).
    capacity:
        Link capacity ``C`` (10 Mbps in the paper).
    technology_delay:
        The ``t_techno`` bound on the relaying delay.
    """

    def __init__(self, message_set: MessageSet,
                 capacity: float = DEFAULT_CAPACITY,
                 technology_delay: float = DEFAULT_TECHNOLOGY_DELAY) -> None:
        self.message_set = message_set
        self.capacity = float(capacity)
        self.technology_delay = float(technology_delay)
        self._fcfs = FcfsMultiplexerAnalysis(
            capacity=self.capacity, technology_delay=self.technology_delay)
        self._priority = StrictPriorityMultiplexerAnalysis(
            capacity=self.capacity, technology_delay=self.technology_delay)
        self._aggregates_cache: dict[PriorityClass, ClassAggregate] | None = \
            None
        self._aggregates_version: int | None = None

    # -- aggregates ------------------------------------------------------------

    def aggregates(self) -> dict[PriorityClass, ClassAggregate]:
        """Per-class sufficient statistics of the set, computed once.

        Goes through the set's struct-of-arrays view (or the arithmetic
        replication shortcut for lazily replicated sets), so every bound of
        the study shares a single O(messages) pass.  The cache is keyed on
        the set's mutation counter, so adding messages after construction
        refreshes every bound, like the per-call reference analysis did.
        """
        version = self.message_set.version
        if self._aggregates_cache is None \
                or self._aggregates_version != version:
            self._aggregates_cache = aggregate_flows(self.message_set)
            self._aggregates_version = version
        return self._aggregates_cache

    # -- bounds ----------------------------------------------------------------

    def fcfs_bound(self) -> float:
        """The single FCFS bound ``D`` applying to every packet (seconds)."""
        return self._fcfs.bound_from_aggregates(self.aggregates()).delay

    def class_bounds(self, policy: str) -> dict[PriorityClass, float]:
        """Per-class worst-case delay bound under one scheduling policy.

        This is the policy-parametric surface the bound-engine registry
        uses (``repro.analysis.engines``): ``'fcfs'`` reports the single
        FCFS bound for every class present, ``'strict-priority'`` the
        per-class bound ``D_p``.

        Raises
        ------
        ConfigurationError
            If ``policy`` names neither multiplexer.
        """
        if policy == "fcfs":
            analysis = self._fcfs
        elif policy == "strict-priority":
            analysis = self._priority
        else:
            raise ConfigurationError(
                f"unknown policy {policy!r}; known policies: 'fcfs', "
                f"'strict-priority'")
        return {cls: bound.delay for cls, bound in
                analysis.class_bounds_from_aggregates(
                    self.aggregates()).items()}

    def class_deadlines(self) -> dict[PriorityClass, float | None]:
        """The binding (smallest) deadline of every class present in the set."""
        return self.message_set.class_deadlines()

    # -- figure 1 ----------------------------------------------------------------

    def figure1_rows(self) -> list[ClassBoundRow]:
        """The per-class rows of Figure 1, ordered by priority.

        Overloaded sets do not raise: following the campaign runner's
        convention, a class whose bound is not a valid worst case gets an
        ``inf`` bound with the matching stability flag cleared (see
        :func:`repro.core.multiplexer.compute_class_bounds`).
        """
        aggregates = self.aggregates()
        if not any(a.count for a in aggregates.values()):
            raise EmptyAggregateError("the message set is empty")
        fcfs = compute_class_bounds(aggregates, self.capacity,
                                    self.technology_delay, "fcfs")
        priority = compute_class_bounds(aggregates, self.capacity,
                                        self.technology_delay,
                                        "strict-priority")
        deadlines = self.class_deadlines()
        rows = []
        for cls in PriorityClass:
            if cls not in priority:
                continue
            fcfs_bound = fcfs.get(cls)
            priority_bound = priority[cls]
            fcfs_stable = (fcfs_bound is not None
                           and not fcfs_bound.details.get("unstable"))
            priority_stable = (priority_bound is not None
                               and not priority_bound.details.get("unstable"))
            rows.append(ClassBoundRow(
                priority=cls,
                message_count=aggregates[cls].count,
                deadline=deadlines.get(cls),
                fcfs_bound=fcfs_bound.delay if fcfs_stable else math.inf,
                priority_bound=(priority_bound.delay if priority_stable
                                else math.inf),
                fcfs_stable=fcfs_stable,
                priority_stable=priority_stable))
        return rows

    # -- headline claims -----------------------------------------------------------

    def fcfs_violates_constraints(self) -> bool:
        """Paper claim 1: the FCFS bound violates at least one constraint.

        An unstable (overloaded) class counts as a violation, like an
        infeasible campaign row.
        """
        return any(not row.fcfs_feasible for row in self.figure1_rows())

    def priority_meets_all_constraints(self) -> bool:
        """Paper claim 4: every constraint is respected with priorities.

        Requires every class to be stable *and* within its constraint — the
        campaign runner's feasibility convention.
        """
        return all(row.priority_feasible for row in self.figure1_rows())

    def urgent_priority_bound_below_3ms(self) -> bool:
        """Paper claim 2: the urgent class's priority bound is below 3 ms."""
        rows = {row.priority: row for row in self.figure1_rows()}
        row = rows.get(PriorityClass.URGENT)
        return (row is not None and row.priority_stable
                and row.priority_bound < units.ms(3))

    def periodic_priority_bound_below_fcfs(self) -> bool:
        """Paper claim 3: the periodic class improves over the FCFS bound."""
        rows = {row.priority: row for row in self.figure1_rows()}
        row = rows.get(PriorityClass.PERIODIC)
        return (row is not None and row.priority_stable
                and row.priority_bound < row.fcfs_bound)

