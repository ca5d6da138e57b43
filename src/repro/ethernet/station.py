"""End stations: per-flow traffic shapers plus the egress multiplexer.

An :class:`EndStation` implements the paper's source-side mechanisms:

* every flow emitted by the station owns a **token-bucket shaper**
  ``(b_i, r_i = b_i / T_i)``; a message instance handed over by the
  application waits in the shaper until enough tokens are available,
* conforming frames are then handed to the station's **egress multiplexer**
  (a FIFO or the four-queue strict-priority structure) feeding the uplink to
  the access switch.

The station is also the traffic sink side: frames whose destination is this
station are reassembled into message instances and their end-to-end latency
(application release → complete reception of the last fragment) is recorded.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.ethernet.frame import (
    EthernetFrame,
    MessageInstance,
    frame_plan,
    plan_bits,
)
from repro.ethernet.link import LinkTransmitter
from repro.flows.flow import Flow
from repro.simulation.engine import Simulator
from repro.simulation.statistics import Counter
from repro.simulation.trace import TraceRecorder
from repro.shaping.token_bucket import FlowShaper, TokenBucket

__all__ = ["EndStation"]

#: Callback used to report a completely received message instance:
#: ``(instance, latency_seconds)``.
DeliveryListener = Callable[[MessageInstance, float], None]
#: Callable receiving one latency sample (seconds), e.g. the ``sink`` of a
#: :class:`~repro.simulation.statistics.LatencyRecorder`.
SampleSink = Callable[[float], None]


class EndStation:
    """A station attached to the switched network by one full-duplex uplink.

    Parameters
    ----------
    simulator:
        The event loop.
    name:
        Station name (must match the topology node name).
    trace:
        Optional trace recorder shared with the rest of the network model.
    shaping_enabled:
        When ``False`` frames bypass the token buckets and go straight to the
        egress multiplexer — used by the ablation experiment that shows why
        uncontrolled traffic cannot be bounded.
    """

    def __init__(self, simulator: Simulator, name: str,
                 trace: TraceRecorder | None = None,
                 shaping_enabled: bool = True) -> None:
        self.simulator = simulator
        self.name = name
        # `trace or ...` would discard an *empty* recorder
        # (TraceRecorder defines __len__), silently disabling tracing.
        self.trace = TraceRecorder(enabled=False) if trace is None else trace
        self.shaping_enabled = shaping_enabled
        self._uplink: LinkTransmitter | None = None
        self._shapers: dict[str, FlowShaper] = {}
        self._flows: dict[str, Flow] = {}
        #: Hot-path registration record per flow name:
        #: ``(shaper, frame_plan, priority)`` — one dict lookup per submit.
        self._flow_state: dict[str, tuple] = {}
        self._release_pending: set[str] = set()
        self._pending_fragments: dict[int, int] = {}
        self._delivery_listeners: list[DeliveryListener] = []
        #: Flow name -> the sample sinks each delivered latency goes to.
        self._sample_sinks: Mapping[str, tuple[SampleSink, ...]] = {}
        self.instances_sent = Counter(f"{name}.instances_sent")
        self.instances_received = Counter(f"{name}.instances_received")
        self.frames_received = Counter(f"{name}.frames_received")

    # -- wiring ------------------------------------------------------------

    def attach_uplink(self, uplink: LinkTransmitter) -> None:
        """Connect the station's egress transmitter (towards its switch)."""
        self._uplink = uplink

    def register_flow(self, flow: Flow) -> None:
        """Declare a flow emitted by this station and create its shaper.

        The token bucket is sized on the **on-wire** burst of one message
        instance (framing overhead and padding included) with the matching
        rate ``wire_burst / T`` — the shaper must be able to emit a whole
        instance, and accounting for the overhead keeps the simulated
        traffic consistent with the wire-level analytic bounds.
        """
        if flow.source != self.name:
            raise ConfigurationError(
                f"flow {flow.name!r} is emitted by {flow.source!r}, "
                f"not by station {self.name!r}")
        if flow.name in self._flows:
            raise ConfigurationError(
                f"flow {flow.name!r} already registered on {self.name!r}")
        self._flows[flow.name] = flow
        plan = frame_plan(flow.message)
        burst = plan_bits(plan)
        shaper = FlowShaper(
            name=flow.name,
            bucket=TokenBucket(bucket_size=burst,
                               token_rate=burst / flow.message.period))
        self._shapers[flow.name] = shaper
        self._flow_state[flow.name] = (shaper, plan, flow.priority)

    def add_delivery_listener(self, listener: DeliveryListener) -> None:
        """Register a callback invoked for every fully received instance."""
        self._delivery_listeners.append(listener)

    def set_sample_sinks(
            self, sinks: Mapping[str, tuple[SampleSink, ...]]) -> None:
        """Send each delivered latency to its flow's sample sinks.

        ``sinks`` maps a flow name to the callables that receive the
        latency of every instance of that flow delivered here (the
        simulator passes its per-flow and per-class recorders' sinks).
        Flows it does not name are delivered to the listeners only.
        """
        self._sample_sinks = sinks

    @property
    def flows(self) -> list[Flow]:
        """The flows emitted by this station."""
        return list(self._flows.values())

    def shaper(self, flow_name: str) -> FlowShaper:
        """The token-bucket shaper of ``flow_name``."""
        return self._shapers[flow_name]

    # -- emission ------------------------------------------------------------

    def submit(self, instance: MessageInstance) -> None:
        """Hand a message instance over from the application layer.

        The instance is fragmented into Ethernet frames (following the
        flow's precomputed frame plan), every fragment is pushed into the
        flow's shaper, and the shaper release is scheduled.
        """
        if self._uplink is None:
            raise ConfigurationError(
                f"station {self.name!r} has no uplink attached")
        name = instance.message.name
        state = self._flow_state.get(name)
        if state is None:
            raise ConfigurationError(
                f"station {self.name!r} does not emit flow {name!r}")
        shaper, plan, priority = state
        self.instances_sent._value += 1  # inlined Counter.increment
        now = self.simulator._now  # direct slot read
        if self.trace.enabled:
            self.trace.record(now, "instance.submit", self.name,
                              flow=name, fragments=len(plan))
        if not self.shaping_enabled:
            enqueue = self._uplink.enqueue
            for payload, index, count, size in plan:
                enqueue(EthernetFrame(instance, payload, index, count,
                                      priority, None, size))
            return
        if len(plan) == 1:
            # Single-fragment fast path (the overwhelmingly common case).
            payload, index, count, size = plan[0]
            shaper._backlog.append(  # inlined FlowShaper.submit
                (size, now, EthernetFrame(instance, payload, index, count,
                                          priority, None, size)))
        else:
            for payload, index, count, size in plan:
                shaper.submit(size, now,
                              EthernetFrame(instance, payload, index, count,
                                            priority, None, size))
        self._schedule_release(name, shaper, now)

    def _schedule_release(self, flow_name: str, shaper: FlowShaper,
                          now: float) -> None:
        """Arm the next shaper release for ``flow_name`` if not already armed."""
        if flow_name in self._release_pending:
            return
        release_time = shaper.next_release(now)
        if release_time is None:
            return
        self._release_pending.add(flow_name)
        # release_time >= now by construction (the shaper never returns a
        # past instant), so the fast uncancellable path is safe.  A release
        # due at once takes the same-instant slot: inlined
        # Simulator.post_now, else Simulator.post_at.
        simulator = self.simulator
        queue = simulator._queue
        entry = (release_time, next(queue._sequence), self._release,
                 flow_name)
        if release_time == simulator._now and simulator._slot is None:
            simulator._slot = entry
        else:
            heappush(queue._heap, entry)

    def _release(self, flow_name: str) -> None:
        """Release the head frame of a shaper into the egress multiplexer."""
        self._release_pending.discard(flow_name)
        shaper: FlowShaper = self._flow_state[flow_name][0]
        if not shaper._backlog:
            return
        now = self.simulator._now  # direct slot read
        frame: EthernetFrame = shaper.release_payload(now)
        if self.trace.enabled:
            self.trace.record(now, "frame.shaped", self.name,
                              flow=flow_name, frame_id=frame.frame_id)
        self._uplink.enqueue(frame)
        if shaper._backlog:
            self._schedule_release(flow_name, shaper, now)

    # -- reception -----------------------------------------------------------

    def receive(self, frame: EthernetFrame) -> None:
        """Handle a frame delivered by the downlink from the access switch."""
        if frame.destination != self.name:
            raise ConfigurationError(
                f"station {self.name!r} received a frame for "
                f"{frame.destination!r}")
        self.frames_received._value += 1  # inlined Counter.increment
        instance = frame.instance
        if frame.fragment_count > 1:
            # Reassembly bookkeeping only exists for fragmented messages.
            remaining = self._pending_fragments.get(
                instance.instance_id, frame.fragment_count) - 1
            if remaining > 0:
                self._pending_fragments[instance.instance_id] = remaining
                return
            self._pending_fragments.pop(instance.instance_id, None)
        self.instances_received._value += 1  # inlined Counter.increment
        latency = self.simulator._now - instance.release_time
        if self.trace.enabled:
            self.trace.record(self.simulator.now, "instance.delivered",
                              self.name, flow=instance.message.name,
                              latency=latency)
        sinks = self._sample_sinks.get(instance.message.name)
        if sinks is not None:
            for sink in sinks:
                sink(latency)
        for listener in self._delivery_listeners:
            listener(instance, latency)
