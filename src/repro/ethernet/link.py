"""Full-duplex link transmitters.

A :class:`LinkTransmitter` models *one direction* of a full-duplex link: an
egress queue (FIFO or strict-priority), a serialisation stage at the link
capacity and a propagation stage towards the remote receiver.  Because the
link is full duplex there is no arbitration with the opposite direction and
no collision; the transmitter is simply work-conserving and non-preemptive —
once a frame starts, it finishes, which is precisely the source of the
``max_{q > p} b_j`` blocking term in the paper's priority bound.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from repro.errors import ConfigurationError
from repro.ethernet.frame import EthernetFrame
from repro.flows.priorities import PriorityClass
from repro.shaping.queues import FifoQueue, StrictPriorityQueues
from repro.simulation.engine import Simulator
from repro.simulation.statistics import Counter
from repro.simulation.trace import TraceRecorder

__all__ = ["LinkTransmitter"]

#: Type of the delivery callback: receives the frame and nothing else (the
#: simulation time is available from the simulator when the callback fires).
DeliveryCallback = Callable[[EthernetFrame], None]
#: A downstream switch's ingress (see
#: :attr:`repro.ethernet.switch.EthernetSwitch.ingress`): receiving a frame
#: posts ``forward(frame)`` after ``delay`` seconds.
Relay = tuple[Callable[[EthernetFrame], None], float]


class LinkTransmitter:
    """One direction of a full-duplex link, with its egress queue.

    Parameters
    ----------
    simulator:
        The event loop.
    name:
        Label used in traces, e.g. ``"station-03->switch-0"``.
    capacity:
        Serialisation rate in bits per second.
    propagation_delay:
        One-way propagation delay in seconds.
    queue:
        The egress queueing discipline (:class:`FifoQueue` or
        :class:`StrictPriorityQueues`).
    deliver:
        Callback invoked when a frame has been completely received at the
        other end of the link.
    trace:
        Optional trace recorder.
    relay:
        Optional ingress of the switch ``deliver`` hands frames to.  On a
        zero-propagation link with tracing off, a delivered frame is posted
        straight to the switch's forwarding step, skipping the
        ``receive`` call that would post the same entry.
    """

    def __init__(self, simulator: Simulator, name: str, capacity: float,
                 propagation_delay: float,
                 queue: FifoQueue | StrictPriorityQueues,
                 deliver: DeliveryCallback,
                 trace: TraceRecorder | None = None,
                 relay: Relay | None = None) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"link capacity must be positive, got {capacity!r}")
        if propagation_delay < 0:
            raise ConfigurationError(
                f"propagation delay must be non-negative, "
                f"got {propagation_delay!r}")
        self.simulator = simulator
        self.name = name
        self.capacity = float(capacity)
        self.propagation_delay = float(propagation_delay)
        self.queue = queue
        #: Specialisation handles for the unbounded disciplines (they never
        #: drop): ``_lanes`` lists the class FIFOs in service order and
        #: ``_lane_of`` maps a frame's priority to its FIFO, so the hot
        #: path pushes and pops the lanes inline.  ``None`` for a bounded
        #: queue, which keeps the general ``queue.push``/``queue.pop``.
        self._lanes: tuple[FifoQueue, ...] | None = None
        self._lane_of: tuple[FifoQueue, ...] | None = None
        if type(queue) is FifoQueue and queue.capacity is None:
            self._lanes = (queue,)
            self._lane_of = (queue,) * len(PriorityClass)
        elif (type(queue) is StrictPriorityQueues
              and queue._ordered[0].capacity is None):
            self._lanes = self._lane_of = queue._ordered
        self.deliver = deliver
        self.relay = relay
        # `trace or ...` would discard an *empty* recorder
        # (TraceRecorder defines __len__), silently disabling tracing.
        self.trace = TraceRecorder(enabled=False) if trace is None else trace
        self._busy = False
        self.frames_sent = Counter(f"{name}.frames_sent")
        self.bits_sent = 0.0
        self._busy_time = 0.0

    # -- statistics ------------------------------------------------------------

    @property
    def drops(self) -> int:
        """Frames dropped by the egress queue because of overflow."""
        return self.queue.drops

    @property
    def busy_time(self) -> float:
        """Cumulative time spent serialising frames (seconds)."""
        return self._busy_time

    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the transmitter spent serialising."""
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        return self._busy_time / duration

    # -- operation --------------------------------------------------------------

    def enqueue(self, frame: EthernetFrame) -> bool:
        """Queue a frame for transmission; start transmitting if idle.

        The frame is queued directly — it carries the ``size`` and
        ``priority`` attributes the disciplines dispatch on, so no wrapper
        :class:`~repro.shaping.queues.QueuedItem` is allocated per hop.
        Returns ``False`` when the frame was dropped by the egress queue.
        """
        lane_of = self._lane_of
        if lane_of is None or self.trace.enabled:
            accepted = self.queue.push(frame)
            if self.trace.enabled:
                self.trace.record(self.simulator.now, "frame.enqueue",
                                  self.name, frame_id=frame.frame_id,
                                  flow=frame.flow_name, accepted=accepted,
                                  queue_bits=self.queue.occupancy)
            if accepted and not self._busy:
                self._start_next()
            return accepted
        # Inlined FifoQueue.push into the frame's lane (unbounded: never
        # drops).
        lane = lane_of[frame.priority]
        occupancy = lane._occupancy + frame.size
        if occupancy > lane._max_occupancy:
            lane._max_occupancy = occupancy
        if self._busy:
            lane._items.append(frame)
            lane._occupancy = occupancy
            return True
        # Idle cut-through: an idle transmitter has an empty queue, so the
        # push above followed by the pop of _start_next would leave the
        # lane empty again (occupancy 0.0) with this frame on the wire.
        self._busy = True
        transmission = frame.size / self.capacity
        self._busy_time += transmission
        # Inlined Simulator.post (entry shape: EventQueue.push_fast).
        simulator = self.simulator
        queue = simulator._queue
        heappush(queue._heap, (simulator._now + transmission,
                               next(queue._sequence), self._complete, frame))
        return True

    def _start_next(self) -> None:
        lanes = self._lanes
        if lanes is None or self.trace.enabled:
            frame = self.queue.pop()
            if frame is None:
                self._busy = False
                return
        else:
            # Inlined pop of the first non-empty lane (FifoQueue.pop).
            for lane in lanes:
                items = lane._items
                if items:
                    frame = items.popleft()
                    if items:
                        lane._occupancy -= frame.size
                    else:
                        lane._occupancy = 0.0
                    break
            else:
                self._busy = False
                return
        self._busy = True
        transmission = frame.size / self.capacity
        self._busy_time += transmission
        if self.trace.enabled:
            self.trace.record(self.simulator.now, "frame.tx_start", self.name,
                              frame_id=frame.frame_id, flow=frame.flow_name)
        # Inlined Simulator.post — once per transmitted frame.  The entry
        # shape is defined by EventQueue.push_fast; change them together.
        simulator = self.simulator
        queue = simulator._queue
        heappush(queue._heap, (simulator._now + transmission,
                               next(queue._sequence), self._complete, frame))

    def _complete(self, frame: EthernetFrame) -> None:
        self.frames_sent._value += 1  # inlined Counter.increment (hot path)
        self.bits_sent += frame.size
        tracing = self.trace.enabled
        if tracing:
            self.trace.record(self.simulator.now, "frame.tx_end", self.name,
                              frame_id=frame.frame_id, flow=frame.flow_name)
        # Deliver the frame to the remote end after propagation; reception of
        # the full frame coincides with the end of serialisation plus the
        # propagation delay (store-and-forward semantics).
        simulator = self.simulator
        propagation = self.propagation_delay
        if propagation != 0.0:
            queue = simulator._queue  # inlined Simulator.post
            heappush(queue._heap, (simulator._now + propagation,
                                   next(queue._sequence), self.deliver,
                                   frame))
        # Serve the next queued frame, or go idle.
        lanes = self._lanes
        if lanes is None or tracing:
            self._start_next()
        else:
            for lane in lanes:
                if lane._items:
                    self._start_next()
                    break
            else:
                self._busy = False
        if propagation == 0.0:
            # Zero-propagation fusion: the delivery "event" fires at this
            # exact instant anyway, so it is processed inline (counted, but
            # with no heap round-trip).  The delivery neither reads state
            # another same-instant event could still change, nor changes
            # state such an event reads, so the fused ordering is
            # result-equivalent — the golden-equivalence tests pin this
            # down bit-exactly.  Into a switch the delivery is the switch's
            # ingress, posted here directly (the switch's ``receive`` posts
            # the same entry; it also traces, so traced runs call it).
            simulator._events_processed += 1
            relay = self.relay
            if relay is None or tracing:
                self.deliver(frame)
            else:
                forward, delay = relay
                queue = simulator._queue  # inlined Simulator.post
                heappush(queue._heap, (simulator._now + delay,
                                       next(queue._sequence), forward, frame))
