"""Declarative scenario specifications.

A :class:`Scenario` is a frozen, hashable description of one campaign
experiment: *which* traffic (a :class:`WorkloadSpec` deriving a message set
from the seeded case-study generator), *where* it flows (a
:class:`TopologySpec` naming one of the canonical topology builders), and
*under what conditions* (link capacity, ``t_techno``, multiplexing
policies).  Because every field is a value — no live objects — scenarios can
be registered by name, compared, deduplicated, and used as memoization keys
by :class:`repro.campaigns.cache.AnalysisCache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import units
from repro.errors import InvalidTopologyError, InvalidWorkloadError
from repro.flows.message_set import MessageSet
from repro.topology.builders import (
    dual_switch_topology,
    single_switch_star,
    tree_topology,
)
from repro.topology.network import Network
from repro.workloads.realcase import RealCaseParameters, generate_real_case
from repro.workloads.sweeps import scale_message_sizes, scale_station_count

__all__ = ["WorkloadSpec", "TopologySpec", "Scenario", "POLICIES"]

#: The two multiplexing policies a scenario can evaluate.
POLICIES = ("fcfs", "strict-priority")


@dataclass(frozen=True)
class WorkloadSpec:
    """A value-level recipe for a case-study message set.

    The spec separates the *base* workload (station count, seed, burst
    sizing) from the *replication* factor, because replication is the one
    transformation whose per-class aggregates can be derived arithmetically
    — the cache builds the base set once and scales the aggregates instead
    of materialising ``replication`` copies of every message.
    """

    #: Number of stations of the base synthetic case study.
    station_count: int = 16
    #: Seed of the workload generator.
    seed: int = 7
    #: Factor applied to every message size (token-bucket depth); values
    #: above 1 model buckets inflated to tolerate release jitter.
    size_factor: float = 1.0
    #: Station-replication factor (the scalability ladder's knob).
    replication: int = 1

    def __post_init__(self) -> None:
        if self.station_count < 4:
            raise InvalidWorkloadError(
                f"the case study needs at least 4 stations, "
                f"got {self.station_count}")
        if self.size_factor <= 0:
            raise InvalidWorkloadError(
                f"size factor must be positive, got {self.size_factor!r}")
        if self.replication < 1:
            raise InvalidWorkloadError(
                f"replication must be at least 1, got {self.replication!r}")

    @property
    def base_key(self) -> tuple[int, int, float]:
        """Cache key of the base (un-replicated) message set."""
        return (self.station_count, self.seed, self.size_factor)

    @property
    def total_stations(self) -> int:
        """Stations after replication."""
        return self.station_count * self.replication

    def build_base(self) -> MessageSet:
        """Materialise the base message set (no replication applied)."""
        message_set = generate_real_case(
            RealCaseParameters(station_count=self.station_count),
            seed=self.seed)
        if self.size_factor != 1.0:
            message_set = scale_message_sizes(message_set, self.size_factor)
        return message_set

    def build(self) -> MessageSet:
        """Materialise the full message set, replication included."""
        return scale_station_count(self.build_base(), self.replication)

    def describe(self) -> str:
        """Compact human-readable summary, e.g. ``16 stations x4``."""
        parts = [f"{self.station_count} stations"]
        if self.replication != 1:
            parts.append(f"x{self.replication}")
        if self.size_factor != 1.0:
            parts.append(f"bursts x{self.size_factor:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class TopologySpec:
    """A value-level reference to one of the canonical topology builders.

    ``multiplexing_points`` follows the paper's accounting: the station's
    egress multiplexer and the first switch's relaying delay are folded into
    a single analysis point (that is what ``t_techno`` covers), and every
    additional switch on the worst-case route adds one multiplexing point.

    The ``"graph"`` kind selects one of the arbitrary multi-hop families
    of :mod:`repro.topology.graph` (``graph_family`` = ``"diamond"``,
    ``"ring"``, ``"star"`` or ``"random"``); those scenarios are analysed
    per flow along their routed paths by
    :class:`repro.core.endtoend.EndToEndAnalysis` (the paper's multiplexer
    bound summed over every egress port, bursts inflated hop by hop)
    instead of the single-multiplexer closed form.
    """

    #: ``"single-switch-star"``, ``"dual-switch"``, ``"tree"`` or
    #: ``"graph"``.
    kind: str = "single-switch-star"
    #: Number of leaf switches (``"tree"`` only).
    leaf_count: int = 2
    #: Multi-hop family (``"graph"`` only).
    graph_family: str = "diamond"
    #: Switch count of the ring/random families (``"graph"`` only).
    graph_switches: int = 4
    #: Seed of the random family (``"graph"`` only).
    graph_seed: int = 0
    #: Redundant links added to the random family's spanning tree.
    graph_extra_links: int = 2

    _KINDS = ("single-switch-star", "dual-switch", "tree", "graph")
    _FAMILIES = ("diamond", "ring", "star", "random")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise InvalidTopologyError(
                f"unknown topology kind {self.kind!r}; "
                f"known kinds: {list(self._KINDS)}")
        if self.leaf_count < 1:
            raise InvalidTopologyError(
                f"need at least one leaf switch, got {self.leaf_count}")
        if self.graph_family not in self._FAMILIES:
            raise InvalidTopologyError(
                f"unknown graph family {self.graph_family!r}; "
                f"known families: {list(self._FAMILIES)}")
        minimum = 3 if self.graph_family == "ring" else 1
        if self.graph_switches < minimum:
            raise InvalidTopologyError(
                f"the {self.graph_family} family needs at least {minimum} "
                f"switches, got {self.graph_switches}")
        if self.graph_extra_links < 0:
            raise InvalidTopologyError(
                f"extra links must be non-negative, "
                f"got {self.graph_extra_links}")

    @property
    def multiplexing_points(self) -> int:
        """Analysis points on the worst-case route (paper accounting)."""
        if self.kind == "single-switch-star":
            return 1
        if self.kind == "dual-switch":
            return 2
        if self.kind == "tree":
            return 3  # leaf uplink, core, leaf downlink
        if self.graph_family == "star":
            return 1
        if self.graph_family == "diamond":
            return 3  # entry switch, one branch switch, exit switch
        if self.graph_family == "ring":
            # Longest shortest route: half-way around, plus the entry.
            return self.graph_switches // 2 + 1
        return self.graph_switches  # random: conservative ceiling

    def build_graph(self, station_count: int,
                    capacity: float = units.mbps(10),
                    technology_delay: float = units.us(16)):
        """The :class:`~repro.topology.graph.GraphTopologySpec` of a
        ``"graph"`` topology (the declarative form the multi-hop analysis,
        the simulator and the result store all fingerprint)."""
        from repro.topology.graph import (
            diamond_graph_spec,
            random_graph_spec,
            ring_graph_spec,
            star_graph_spec,
        )

        if self.kind != "graph":
            raise InvalidTopologyError(
                f"topology kind {self.kind!r} has no graph spec; "
                f"use build()")
        if self.graph_family == "star":
            return star_graph_spec(station_count, capacity=capacity,
                                   technology_delay=technology_delay)
        if self.graph_family == "diamond":
            return diamond_graph_spec(station_count, capacity=capacity,
                                      technology_delay=technology_delay)
        if self.graph_family == "ring":
            return ring_graph_spec(station_count,
                                   switch_count=self.graph_switches,
                                   capacity=capacity,
                                   technology_delay=technology_delay)
        return random_graph_spec(station_count,
                                 switch_count=self.graph_switches,
                                 extra_links=self.graph_extra_links,
                                 seed=self.graph_seed,
                                 capacity=capacity,
                                 technology_delay=technology_delay)

    def build(self, station_count: int,
              capacity: float = units.mbps(10),
              technology_delay: float = units.us(16)) -> Network:
        """Instantiate the topology for ``station_count`` stations."""
        if self.kind == "graph":
            return self.build_graph(
                station_count, capacity=capacity,
                technology_delay=technology_delay).to_network()
        if self.kind == "single-switch-star":
            return single_switch_star(station_count, capacity=capacity,
                                      technology_delay=technology_delay)
        if self.kind == "dual-switch":
            return dual_switch_topology(
                max(1, math.ceil(station_count / 2)), capacity=capacity,
                technology_delay=technology_delay)
        return tree_topology(
            self.leaf_count,
            max(1, math.ceil(station_count / self.leaf_count)),
            capacity=capacity, technology_delay=technology_delay)

    def describe(self) -> str:
        """Compact human-readable summary, e.g. ``tree (3 hops)``."""
        if self.kind == "graph":
            return (f"graph/{self.graph_family} "
                    f"({self.multiplexing_points} pt)")
        return f"{self.kind} ({self.multiplexing_points} pt)"


@dataclass(frozen=True)
class Scenario:
    """One named campaign experiment.

    A scenario is fully declarative: workload recipe, topology reference,
    link capacity, technology delay and the multiplexing policies to
    evaluate.  The runner turns it into per-class worst-case delay and
    backlog bounds.
    """

    #: Unique registry name (``repro campaign --run <name>``).
    name: str
    #: One-line human description shown by ``repro campaign --list``.
    description: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Link capacity ``C`` in bits per second.
    capacity: float = units.mbps(10)
    #: Relaying-delay bound ``t_techno`` in seconds.
    technology_delay: float = units.us(16)
    #: Multiplexing policies to evaluate (subset of :data:`POLICIES`).
    policies: tuple[str, ...] = POLICIES
    #: Free-form labels used to select scenario families (e.g. ``ladder``).
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidWorkloadError("a scenario needs a non-empty name")
        if self.capacity <= 0:
            raise InvalidWorkloadError(
                f"capacity must be positive, got {self.capacity!r}")
        if self.technology_delay < 0:
            raise InvalidWorkloadError(
                f"technology delay must be non-negative, "
                f"got {self.technology_delay!r}")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown or not self.policies:
            raise InvalidWorkloadError(
                f"policies must be a non-empty subset of {POLICIES}, "
                f"got {self.policies!r}")
        if self.topology.kind == "graph" and self.workload.replication != 1:
            # Replicated aggregates are an arithmetic shortcut of the
            # single-multiplexer composition; graph scenarios route every
            # flow individually, so the stations must really exist.
            raise InvalidWorkloadError(
                f"graph topologies route per flow and do not support "
                f"workload replication (got replication="
                f"{self.workload.replication})")

    @property
    def hops(self) -> int:
        """Multiplexing points on the worst-case route."""
        return self.topology.multiplexing_points

    def describe(self) -> str:
        """One-line configuration summary for listings."""
        return (f"{self.workload.describe()}, {self.topology.describe()}, "
                f"{self.capacity / 1e6:g} Mbps, "
                f"t_techno {self.technology_delay * 1e6:g} us")
