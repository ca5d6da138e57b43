"""Memoization of the intermediate results scenarios share.

A campaign evaluates N scenarios that differ in capacity, technology delay,
replication factor or topology but frequently share the *same* underlying
traffic.  The expensive intermediates form a small dependency chain::

    WorkloadSpec --(generate, O(stations))--> base MessageSet
                 --(one pass, O(messages))--> per-class ClassAggregate
                 --(arithmetic, O(classes))--> replicated aggregates

:class:`AnalysisCache` memoizes every level of that chain, keyed by the
value-level specs, so an N-scenario sweep touches each message set once
instead of N times — and never materialises the replicated sets of the
scalability ladder at all (replicating every flow ``k`` times multiplies the
per-class sums by ``k`` and leaves the max burst unchanged, so the scaled
aggregates are exact).  The O(classes) closed forms on top of the aggregates
(:func:`repro.core.multiplexer.single_point_rows`) are cheap enough to
re-evaluate per scenario.  Hit/miss counters are kept per level; the
campaign benchmark asserts the memoized runner beats naive per-scenario
recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.core.multiplexer import ClassAggregate, aggregate_flows
from repro.flows.message_set import MessageSet
from repro.flows.priorities import PriorityClass

from repro.campaigns.scenario import WorkloadSpec

__all__ = ["AnalysisCache", "CacheStats"]

T = TypeVar("T")


@dataclass
class CacheStats:
    """Hit/miss counters of one memoization level."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses


class AnalysisCache:
    """Shared intermediate results of a campaign run.

    Every public method is a memoized pure function of its value-level
    arguments; ``stats`` maps a level name (``base_sets``,
    ``message_sets``, ``base_aggregates``, ``aggregates``, ``deadlines``)
    to its :class:`CacheStats`.
    """

    def __init__(self) -> None:
        self._stores: dict[str, dict] = {}
        self.stats: dict[str, CacheStats] = {}

    def _memo(self, level: str, key, factory: Callable[[], T]) -> T:
        store = self._stores.setdefault(level, {})
        stats = self.stats.setdefault(level, CacheStats())
        try:
            value = store[key]
        except KeyError:
            stats.misses += 1
            value = store[key] = factory()
            return value
        stats.hits += 1
        return value

    # -- message sets --------------------------------------------------------

    def base_message_set(self, spec: WorkloadSpec) -> MessageSet:
        """The base (un-replicated) message set of ``spec``."""
        return self._memo("base_sets", spec.base_key, spec.build_base)

    def message_set(self, spec: WorkloadSpec) -> MessageSet:
        """The fully materialised message set, replication included.

        Only needed by consumers that want the individual messages (a
        simulation, or the routed analysis of a graph scenario); the
        closed-form pipeline goes through :meth:`aggregates` and never
        materialises replicated sets.
        """
        return self._memo("message_sets", spec, spec.build)

    # -- aggregates ----------------------------------------------------------

    def aggregates(self, spec: WorkloadSpec
                   ) -> dict[PriorityClass, ClassAggregate]:
        """Per-class aggregates of ``spec``, replication applied arithmetically."""

        def compute() -> dict[PriorityClass, ClassAggregate]:
            base = self._memo(
                "base_aggregates", spec.base_key,
                lambda: aggregate_flows(self.base_message_set(spec)))
            if spec.replication == 1:
                return base
            return {cls: aggregate.scaled(spec.replication)
                    for cls, aggregate in base.items()}

        return self._memo("aggregates", spec, compute)

    def class_deadlines(self, spec: WorkloadSpec
                        ) -> dict[PriorityClass, float | None]:
        """Binding (smallest) deadline per class; replication-invariant."""
        return self._memo(
            "deadlines", spec.base_key,
            lambda: self.base_message_set(spec).class_deadlines())
