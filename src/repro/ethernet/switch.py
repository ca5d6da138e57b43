"""Store-and-forward Ethernet switches.

An :class:`EthernetSwitch` relays frames between its ports:

1. a frame is considered received when its last bit has arrived on the input
   link (the :class:`~repro.ethernet.link.LinkTransmitter` of the upstream
   node delivers it at exactly that instant plus propagation),
2. the switch spends a bounded **relaying delay** (forwarding-table lookup,
   fabric crossing) — the paper's ``t_techno``,
3. the frame is queued on the output port leading to its destination, under
   the same discipline as the station multiplexers (FIFO or four-queue
   strict priority), and serialised on the output link when its turn comes.

The forwarding table maps destination station names to output ports; it is
filled by the network assembler from the topology routes, mimicking the
static configuration used in avionics switches (no address learning, no
flooding — unknown destinations are an error).
"""

from __future__ import annotations

from heapq import heappush

from repro.errors import ConfigurationError
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.link import LinkTransmitter, Relay
from repro.simulation.engine import Simulator
from repro.simulation.statistics import Counter
from repro.simulation.trace import TraceRecorder

__all__ = ["EthernetSwitch"]


class EthernetSwitch:
    """A store-and-forward switch with statically configured forwarding.

    Parameters
    ----------
    simulator:
        The event loop.
    name:
        Switch name (must match the topology node name).
    technology_delay:
        Bound on the relaying delay ``t_techno`` (seconds) applied to every
        frame between full reception and enqueueing on the output port.
    trace:
        Optional trace recorder.
    """

    def __init__(self, simulator: Simulator, name: str,
                 technology_delay: float = 0.0,
                 trace: TraceRecorder | None = None) -> None:
        if technology_delay < 0:
            raise ConfigurationError(
                f"technology delay must be non-negative, "
                f"got {technology_delay!r}")
        self.simulator = simulator
        self.name = name
        self.technology_delay = float(technology_delay)
        # `trace or ...` would discard an *empty* recorder
        # (TraceRecorder defines __len__), silently disabling tracing.
        self.trace = TraceRecorder(enabled=False) if trace is None else trace
        #: Output transmitters indexed by the neighbour they lead to.
        self._output_ports: dict[str, LinkTransmitter] = {}
        #: Forwarding table: destination station -> neighbour (output port).
        self._forwarding: dict[str, str] = {}
        #: Hot-path table: destination station -> output transmitter (the
        #: name-level table resolved once, saving a lookup per relayed
        #: frame).
        self._route: dict[str, LinkTransmitter] = {}
        self.frames_relayed = Counter(f"{name}.frames_relayed")

    # -- wiring ---------------------------------------------------------------

    def attach_output_port(self, neighbour: str,
                           transmitter: LinkTransmitter) -> None:
        """Register the transmitter of the port leading to ``neighbour``."""
        if neighbour in self._output_ports:
            raise ConfigurationError(
                f"switch {self.name!r} already has a port toward "
                f"{neighbour!r}")
        self._output_ports[neighbour] = transmitter

    def add_forwarding_entry(self, destination: str, next_hop: str) -> None:
        """Route frames for ``destination`` through the port to ``next_hop``."""
        if next_hop not in self._output_ports:
            raise ConfigurationError(
                f"switch {self.name!r} has no port toward {next_hop!r}")
        existing = self._forwarding.get(destination)
        if existing is not None and existing != next_hop:
            raise ConfigurationError(
                f"switch {self.name!r}: conflicting forwarding entries for "
                f"{destination!r} ({existing!r} vs {next_hop!r})")
        self._forwarding[destination] = next_hop
        self._route[destination] = self._output_ports[next_hop]

    def output_port(self, neighbour: str) -> LinkTransmitter:
        """The transmitter of the port leading to ``neighbour``."""
        return self._output_ports[neighbour]

    @property
    def output_ports(self) -> dict[str, LinkTransmitter]:
        """All output transmitters indexed by neighbour name."""
        return dict(self._output_ports)

    # -- relaying ----------------------------------------------------------------

    @property
    def ingress(self) -> Relay:
        """What receiving a frame does: ``(forward, delay)``.

        A received frame is forwarded ``delay`` (the relaying delay) seconds
        later.  :meth:`receive` posts exactly this, and a zero-propagation
        link into the switch may post it itself (the link's ``relay``).
        """
        return self._forward, self.technology_delay

    def receive(self, frame: EthernetFrame) -> None:
        """Handle a frame fully received on one of the input ports."""
        if self.trace.enabled:
            self.trace.record(self.simulator.now, "switch.receive", self.name,
                              frame_id=frame.frame_id, flow=frame.flow_name)
        forward, delay = self.ingress
        simulator = self.simulator
        queue = simulator._queue  # inlined Simulator.post
        heappush(queue._heap, (simulator._now + delay, next(queue._sequence),
                               forward, frame))

    def _forward(self, frame: EthernetFrame) -> None:
        transmitter = self._route.get(frame.destination)
        if transmitter is None:
            raise ConfigurationError(
                f"switch {self.name!r} has no forwarding entry for "
                f"destination {frame.destination!r}")
        self.frames_relayed._value += 1  # inlined Counter.increment
        if self.trace.enabled:
            self.trace.record(self.simulator.now, "switch.forward", self.name,
                              frame_id=frame.frame_id, flow=frame.flow_name,
                              next_hop=self._forwarding[frame.destination])
        transmitter.enqueue(frame)
