"""Ethernet frames and message instances.

The analytic model of the paper works directly with message sizes ``b_i``;
the simulator is more detailed and accounts for the IEEE 802.3 framing
overheads, including the 802.1Q tag that carries the 802.1p priority:

======================  ==========
Field                    Bytes
======================  ==========
Preamble + SFD           8
Destination MAC          6
Source MAC               6
802.1Q tag (priority)    4
EtherType                2
Payload                  46–1500
FCS                      4
Inter-frame gap          12
======================  ==========

Messages larger than the maximal payload are fragmented into several frames;
the latency of a message instance is measured up to the complete reception of
its **last** fragment.
"""

from __future__ import annotations

import itertools
import math

from repro import units
from repro.errors import ConfigurationError
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass

__all__ = [
    "MessageInstance",
    "EthernetFrame",
    "frame_plan",
    "frames_for_instance",
    "frame_overhead_bits",
    "on_wire_bits",
    "plan_bits",
    "wire_burst",
    "MAX_PAYLOAD_BYTES",
    "MIN_PAYLOAD_BYTES",
]

#: Preamble (7 bytes) + start-of-frame delimiter (1 byte).
PREAMBLE_BYTES = 8
#: Destination MAC + source MAC + 802.1Q tag + EtherType.
HEADER_BYTES = 6 + 6 + 4 + 2
#: Frame check sequence.
FCS_BYTES = 4
#: Inter-frame gap (12 byte-times of silence, charged to the frame).
IFG_BYTES = 12
#: Minimal and maximal Ethernet payload sizes.
MIN_PAYLOAD_BYTES = 46
MAX_PAYLOAD_BYTES = 1500

_instance_counter = itertools.count()
_frame_counter = itertools.count()


def frame_overhead_bits() -> int:
    """Per-frame overhead in bits (everything except the payload)."""
    return units.BITS_PER_BYTE * (
        PREAMBLE_BYTES + HEADER_BYTES + FCS_BYTES + IFG_BYTES)


def on_wire_bits(payload_bits: float) -> float:
    """On-wire size (bits) of a frame carrying ``payload_bits`` of payload.

    The payload is padded to the 46-byte Ethernet minimum when needed.
    """
    if payload_bits <= 0:
        raise ConfigurationError(
            f"payload must be positive, got {payload_bits!r}")
    padded = max(payload_bits, MIN_PAYLOAD_BYTES * units.BITS_PER_BYTE)
    return padded + frame_overhead_bits()


class MessageInstance:
    """One occurrence of a message stream (one "transfer").

    A hand-written ``__slots__`` class rather than a dataclass: the
    simulator allocates one per released instance, so construction cost is
    on the hot path.  Treat instances as immutable.

    Attributes
    ----------
    message:
        The message stream this instance belongs to.
    sequence:
        Per-stream sequence number (0, 1, 2...).
    release_time:
        Simulation time at which the application produced the instance.
    instance_id:
        Globally unique identifier (used to correlate fragments).
    """

    __slots__ = ("message", "sequence", "release_time", "instance_id")

    def __init__(self, message: Message, sequence: int, release_time: float,
                 instance_id: int | None = None) -> None:
        self.message = message
        self.sequence = sequence
        self.release_time = release_time
        self.instance_id = (next(_instance_counter) if instance_id is None
                            else instance_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MessageInstance(message={self.message.name!r}, "
                f"sequence={self.sequence}, "
                f"release_time={self.release_time!r}, "
                f"instance_id={self.instance_id})")

    @property
    def deadline_time(self) -> float | None:
        """Absolute deadline of this instance, if the message has one."""
        if self.message.deadline is None:
            return None
        return self.release_time + self.message.deadline


class EthernetFrame:
    """A single Ethernet frame (possibly one fragment of a message instance).

    A hand-written ``__slots__`` class (one allocation per transmitted
    frame).  Treat frames as immutable.  Frames expose the ``size`` and
    ``priority`` attributes the queueing disciplines dispatch on, so they
    are queued directly, without a wrapper item, on every hop.

    Attributes
    ----------
    instance:
        The message instance the frame carries (or a fragment of).
    payload_bits:
        Application payload bits carried by this frame (before padding).
    fragment_index / fragment_count:
        Position of this frame among the fragments of the instance.
    priority:
        802.1p class carried in the 802.1Q tag.
    frame_id:
        Globally unique identifier.
    size:
        On-wire size in bits (padding, headers, preamble and IFG included).
        Computed once at construction — the simulator reads it on every
        hop, so it must not be recomputed per access.  Callers that know
        the on-wire size already (the per-flow frame plans) pass it in.
    destination:
        Destination station name, denormalised from the message (the
        switches and stations read it once per hop).
    """

    __slots__ = ("instance", "payload_bits", "fragment_index",
                 "fragment_count", "priority", "frame_id", "size",
                 "destination")

    def __init__(self, instance: MessageInstance, payload_bits: float,
                 fragment_index: int, fragment_count: int,
                 priority: PriorityClass, frame_id: int | None = None,
                 size: float | None = None) -> None:
        self.instance = instance
        self.payload_bits = payload_bits
        self.fragment_index = fragment_index
        self.fragment_count = fragment_count
        self.priority = priority
        self.frame_id = (next(_frame_counter) if frame_id is None
                         else frame_id)
        self.size = on_wire_bits(payload_bits) if size is None else size
        self.destination = instance.message.destination

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EthernetFrame(flow={self.flow_name!r}, "
                f"fragment={self.fragment_index}/{self.fragment_count}, "
                f"size={self.size!r}, frame_id={self.frame_id})")

    @property
    def source(self) -> str:
        """Source station name."""
        return self.instance.message.source

    @property
    def flow_name(self) -> str:
        """Name of the message stream."""
        return self.instance.message.name

    @property
    def is_last_fragment(self) -> bool:
        """True for the final fragment of the instance."""
        return self.fragment_index == self.fragment_count - 1

    def transmission_time(self, capacity: float) -> float:
        """Serialisation time of the frame on a link of ``capacity`` bps."""
        return self.size / capacity


def wire_burst(message: Message) -> float:
    """On-wire bits needed to carry one instance of ``message``.

    Sum of the on-wire sizes (padding, headers, preamble, IFG) of the frames
    one instance fragments into.  The simulator sizes its token buckets on
    this value — the shaper must be able to emit one full instance — and the
    bound-vs-simulation validation uses the same value on the analytic side
    so both sides account for the framing overhead consistently.
    """
    return plan_bits(frame_plan(message))


def plan_bits(plan: tuple[tuple[float, int, int, float], ...]) -> float:
    """Total on-wire size of a :func:`frame_plan`, added left to right.

    An explicit loop from ``0.0``: the builtin ``sum`` is compensated on
    Python 3.12 and ``math.fsum`` rounds once, and either would change
    the bits of a multi-fragment total.
    """
    total = 0.0
    for *_, size in plan:
        total += size
    return total


def frame_plan(message: Message) -> tuple[tuple[float, int, int, float], ...]:
    """The static fragmentation plan of one instance of ``message``.

    Per fragment: ``(payload_bits, fragment_index, fragment_count,
    on_wire_size)``.  The plan only depends on the message size, so
    stations compute it once per flow at registration and stamp frames out
    of it without re-deriving the split (or the padded on-wire size) for
    every released instance.
    """
    total_bits = message.size
    max_payload_bits = MAX_PAYLOAD_BYTES * units.BITS_PER_BYTE
    fragment_count = max(1, math.ceil(total_bits / max_payload_bits))
    plan = []
    remaining = total_bits
    for index in range(fragment_count):
        payload = min(remaining, max_payload_bits)
        plan.append((payload, index, fragment_count, on_wire_bits(payload)))
        remaining -= payload
    return tuple(plan)


def frames_for_instance(instance: MessageInstance,
                        priority: PriorityClass) -> list[EthernetFrame]:
    """Split a message instance into the Ethernet frames that carry it.

    Messages that fit in one maximal payload yield a single frame; larger
    ones are fragmented into maximal-size frames plus a final partial
    frame (per :func:`frame_plan`).
    """
    return [EthernetFrame(instance, payload, index, count, priority,
                          size=size)
            for payload, index, count, size in frame_plan(instance.message)]
