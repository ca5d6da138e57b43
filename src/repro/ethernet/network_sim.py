"""Assembly of the complete switched-Ethernet simulation.

:class:`EthernetNetworkSimulator` takes a :class:`repro.topology.Network`, a
set of flows and a multiplexing policy, builds every station, switch and link
transmitter, wires the forwarding tables from the routed flow paths, attaches
the traffic sources and runs the discrete-event simulation.  The outcome is a
:class:`SimulationResults` object with per-flow and per-priority-class
latency statistics, drop counters and link utilisations, which the
evaluation harness compares against the analytic bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro import units
from repro.errors import ConfigurationError, SimulationNotRunError
from repro.ethernet.link import LinkTransmitter
from repro.ethernet.station import EndStation
from repro.ethernet.switch import EthernetSwitch
from repro.ethernet.traffic import PeriodicSource, SporadicSource
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass
from repro.shaping.queues import FifoQueue, StrictPriorityQueues
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.simulation.statistics import LatencyRecorder, SummaryStatistics
from repro.simulation.trace import TraceRecorder
from repro.topology.network import Network

__all__ = ["EthernetNetworkSimulator", "SimulationResults",
           "SEED_FREE_SCENARIOS"]

Policy = Literal["fcfs", "strict-priority"]
Scenario = Literal["synchronized", "staggered", "random"]
#: Scenarios that never draw from the seed's random streams: every source
#: is released at ``t = 0`` and sporadic sources run greedily, so a run's
#: results are the same for every seed.
SEED_FREE_SCENARIOS = frozenset({"synchronized"})


@dataclass
class SimulationResults:
    """Statistics collected by one simulation run."""

    duration: float
    policy: str
    scenario: str
    flow_latencies: dict[str, LatencyRecorder] = field(default_factory=dict)
    class_latencies: dict[PriorityClass, LatencyRecorder] = field(
        default_factory=dict)
    instances_sent: int = 0
    instances_delivered: int = 0
    frames_dropped: int = 0
    link_utilization: dict[str, float] = field(default_factory=dict)
    max_queue_bits: dict[str, float] = field(default_factory=dict)
    #: Events the simulation kernel processed during the run.
    events_processed: int = 0

    def flow_summary(self, flow_name: str) -> SummaryStatistics:
        """Latency summary of one flow."""
        return self.flow_latencies[flow_name].summary()

    def class_summary(self, priority: PriorityClass) -> SummaryStatistics:
        """Latency summary of one 802.1p class."""
        return self.class_latencies[PriorityClass(priority)].summary()

    def worst_latency(self, flow_name: str) -> float:
        """Largest observed latency of one flow (seconds)."""
        return self.flow_latencies[flow_name].maximum

    def worst_class_latency(self, priority: PriorityClass) -> float:
        """Largest observed latency of one class (seconds)."""
        return self.class_latencies[PriorityClass(priority)].maximum

    @property
    def delivery_ratio(self) -> float:
        """Delivered instances divided by sent instances."""
        if self.instances_sent == 0:
            return float("nan")
        return self.instances_delivered / self.instances_sent


class EthernetNetworkSimulator:
    """Build and run a full switched-Ethernet simulation.

    Parameters
    ----------
    network:
        The topology; it is validated on construction.
    flows:
        Flows (or bare messages, routed automatically) to simulate.
    policy:
        ``"fcfs"`` or ``"strict-priority"`` — the multiplexer used at station
        uplinks and at switch output ports.
    scenario:
        ``"synchronized"`` releases every source at ``t = 0`` (the
        adversarial case matching the analytic worst case), ``"staggered"``
        spreads first releases uniformly over one period, ``"random"`` also
        adds random slack to sporadic inter-arrivals.
    seed:
        Master seed of the experiment's random streams.
    queue_capacity:
        Optional per-queue capacity in bits (``None`` = unbounded).  With
        shaped traffic and a correctly dimensioned capacity no drop occurs,
        which the validation experiments assert.
    shaping_enabled:
        Disable to bypass the token buckets (ablation).
    trace_enabled:
        Record a full frame-level trace (slower; used by tests).
    """

    def __init__(self, network: Network, flows: Iterable[Flow | Message],
                 policy: Policy = "strict-priority",
                 scenario: Scenario = "synchronized", seed: int = 1,
                 queue_capacity: float | None = None,
                 shaping_enabled: bool = True,
                 trace_enabled: bool = False) -> None:
        if policy not in ("fcfs", "strict-priority"):
            raise ConfigurationError(
                f"policy must be 'fcfs' or 'strict-priority', got {policy!r}")
        if scenario not in ("synchronized", "staggered", "random"):
            raise ConfigurationError(
                f"unknown scenario {scenario!r}")
        self.network = network
        self.policy = policy
        self.scenario = scenario
        self.seed = int(seed)
        self.queue_capacity = queue_capacity
        self.shaping_enabled = shaping_enabled
        self.trace = TraceRecorder(enabled=trace_enabled)
        self.streams = RandomStreams(seed)

        self.simulator = Simulator()
        self.flows: list[Flow] = [
            network.route_flow(flow) if isinstance(flow, Message)
            or not flow.path else flow
            for flow in flows]
        if not self.flows:
            raise ConfigurationError("at least one flow is required")

        self.stations: dict[str, EndStation] = {}
        self.switches: dict[str, EthernetSwitch] = {}
        self._transmitters: dict[tuple[str, str], LinkTransmitter] = {}
        self._sources: list[PeriodicSource | SporadicSource] = []
        self._results: SimulationResults | None = None

        self._build()

    # -- construction ----------------------------------------------------------

    def _make_queue(self):
        if self.policy == "fcfs":
            return FifoQueue(capacity=self.queue_capacity)
        return StrictPriorityQueues(capacity_per_class=self.queue_capacity)

    def _build(self) -> None:
        # Nodes.
        for name in self.network.stations:
            self.stations[name] = EndStation(
                self.simulator, name, trace=self.trace,
                shaping_enabled=self.shaping_enabled)
        for name in self.network.switches:
            self.switches[name] = EthernetSwitch(
                self.simulator, name,
                technology_delay=self.network.technology_delay(name),
                trace=self.trace)

        # One transmitter per directed edge of the topology.
        for link in self.network.spec.links:
            for upstream, downstream in link.directions:
                receiver = self._receiver_for(downstream)
                relay = (self.switches[downstream].ingress
                         if self.network.is_switch(downstream) else None)
                transmitter = LinkTransmitter(
                    simulator=self.simulator,
                    name=f"{upstream}->{downstream}",
                    capacity=link.rate,
                    propagation_delay=link.latency,
                    queue=self._make_queue(),
                    deliver=receiver,
                    trace=self.trace,
                    relay=relay)
                self._transmitters[(upstream, downstream)] = transmitter
                if self.network.is_switch(upstream):
                    self.switches[upstream].attach_output_port(
                        downstream, transmitter)
                else:
                    self.stations[upstream].attach_uplink(transmitter)

        # Flows: register on their source station, fill forwarding tables.
        for flow in self.flows:
            self.stations[flow.source].register_flow(flow)
            for node, toward in flow.hops():
                if self.network.is_switch(node):
                    self.switches[node].add_forwarding_entry(
                        flow.destination, toward)

        # Traffic sources.
        offsets_rng = self.streams.stream("release-offsets")
        slack_rng = self.streams.stream("sporadic-slack")
        if self.scenario == "synchronized":
            offsets = [0.0] * len(self.flows)
        else:
            # One draw per flow, in flow order: numpy's uniform over an
            # array of highs reads the stream exactly as the scalar draws.
            offsets = offsets_rng.uniform(
                0.0, [flow.message.period for flow in self.flows]).tolist()
        for flow, offset in zip(self.flows, offsets):
            station = self.stations[flow.source]
            message = flow.message
            if message.is_periodic:
                self._sources.append(PeriodicSource(
                    self.simulator, station, message, offset=offset))
            else:
                greedy = self.scenario != "random"
                self._sources.append(SporadicSource(
                    self.simulator, station, message, offset=offset,
                    greedy=greedy,
                    mean_slack=0.0 if greedy else message.period,
                    rng=slack_rng))

    def _receiver_for(self, node: str):
        """The bound ``receive`` method of the node's model object.

        Passing the bound method directly (instead of wrapping it in a
        lambda) removes one Python call frame from every frame delivery.
        """
        if self.network.is_switch(node):
            return self.switches[node].receive
        return self.stations[node].receive

    # -- execution -----------------------------------------------------------

    def run(self, duration: float = units.ms(320)) -> SimulationResults:
        """Generate traffic for ``duration`` seconds, drain it, collect stats.

        The default duration of 320 ms covers two 1553B major frames, i.e.
        at least two full hyper-periods of the paper's message periods.
        """
        if duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {duration!r}")
        results = SimulationResults(duration=duration, policy=self.policy,
                                    scenario=self.scenario)
        for flow in self.flows:
            results.flow_latencies[flow.name] = LatencyRecorder(flow.name)
        for cls in PriorityClass:
            results.class_latencies[cls] = LatencyRecorder(cls.name)
        # Each delivered latency is appended straight into its flow's and
        # its class's recorder.
        sinks = {
            flow.name: (results.flow_latencies[flow.name].sink,
                        results.class_latencies[flow.priority].sink)
            for flow in self.flows}
        for station in self.stations.values():
            station.set_sample_sinks(sinks)

        for source in self._sources:
            source.start(until=duration)
        # Run until every queued frame has drained (sources stop at
        # ``duration``, so the event queue empties by itself).
        self.simulator.run()

        results.instances_sent = sum(
            s.instances_sent.value for s in self.stations.values())
        results.instances_delivered = sum(
            s.instances_received.value for s in self.stations.values())
        results.frames_dropped = sum(
            t.drops for t in self._transmitters.values())
        results.events_processed = self.simulator.events_processed
        horizon = max(self.simulator.now, duration)
        for (upstream, downstream), transmitter in self._transmitters.items():
            key = f"{upstream}->{downstream}"
            results.link_utilization[key] = transmitter.busy_time / horizon
            # FifoQueue and StrictPriorityQueues share the occupancy
            # interface (tests/shaping/test_queues.py pins it down).
            results.max_queue_bits[key] = transmitter.queue.max_occupancy
        self._results = results
        return results

    @property
    def results(self) -> SimulationResults:
        """Results of the last :meth:`run`.

        Raises
        ------
        SimulationNotRunError
            If :meth:`run` has not been called yet.
        """
        if self._results is None:
            raise SimulationNotRunError("call run() first")
        return self._results

    def transmitter(self, upstream: str, downstream: str) -> LinkTransmitter:
        """The transmitter serving the directed hop ``upstream -> downstream``."""
        return self._transmitters[(upstream, downstream)]

    def release(self) -> None:
        """Break the model's reference cycles once its results are read.

        Every link transmitter delivers to the node at its far end, and
        every node holds the transmitters it sends on, so a finished
        model is a web of cycles that only the cyclic garbage collector
        would free.  Dropping the delivery callbacks and switch relays
        leaves a tree that reference counting frees as soon as the
        simulator is dropped.  The results stay valid; the model cannot
        run again.
        """
        for transmitter in self._transmitters.values():
            transmitter.deliver = None
            transmitter.relay = None
