"""Message characterisation: periodic and sporadic avionics messages.

A :class:`Message` is the unit of traffic characterisation used throughout
the library, matching the paper's notation:

* a **periodic** message ``i`` is ``(T_i, b_i)`` with ``T_i`` the period and
  ``b_i`` the message length,
* a **sporadic** message ``j`` is ``(T_j, b_j)`` with ``T_j`` the minimal
  inter-arrival time between two consecutive instances and ``b_j`` its
  length.

Both kinds therefore reduce to the same token-bucket characterisation
``(b, r = b / T)`` used by the traffic shapers and the network-calculus
bounds; the distinction matters for the priority assignment policy, for the
MIL-STD-1553B schedule construction (periodic messages go into the major
frame transaction table, sporadic messages are polled) and for the traffic
generators of the simulators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import InvalidMessageError

__all__ = ["MessageKind", "Message"]


class MessageKind(enum.Enum):
    """Whether a message is periodic or sporadic."""

    PERIODIC = "periodic"
    SPORADIC = "sporadic"


@dataclass(frozen=True)
class Message:
    """An avionics message stream.

    Attributes
    ----------
    name:
        Unique identifier of the message within a :class:`MessageSet`.
    kind:
        Periodic or sporadic.
    period:
        For periodic messages, the transfer period ``T_i``; for sporadic
        messages, the minimal inter-arrival time ``T_j``.  Seconds.
    size:
        Message length ``b_i`` in bits (application payload; technology
        specific overheads are added by the Ethernet / 1553B models).
    source:
        Name of the emitting station.
    destination:
        Name of the receiving station.
    deadline:
        Requested maximal response time in seconds, or ``None`` when the
        message has no hard constraint (background traffic).
    metadata:
        Free-form annotations (subsystem name, 1553B sub-address...).
    """

    name: str
    kind: MessageKind
    period: float
    size: float
    source: str
    destination: str
    deadline: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidMessageError("message name must not be empty")
        if self.period <= 0:
            raise InvalidMessageError(
                f"message {self.name!r}: period must be positive, "
                f"got {self.period!r}")
        if self.size <= 0:
            raise InvalidMessageError(
                f"message {self.name!r}: size must be positive, "
                f"got {self.size!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise InvalidMessageError(
                f"message {self.name!r}: deadline must be positive or None, "
                f"got {self.deadline!r}")
        if not self.source or not self.destination:
            raise InvalidMessageError(
                f"message {self.name!r}: source and destination must be set")
        if self.source == self.destination:
            raise InvalidMessageError(
                f"message {self.name!r}: source and destination must differ")

    # -- derived quantities -------------------------------------------------

    @property
    def is_periodic(self) -> bool:
        """True for periodic messages."""
        return self.kind is MessageKind.PERIODIC

    @property
    def is_sporadic(self) -> bool:
        """True for sporadic messages."""
        return self.kind is MessageKind.SPORADIC

    @property
    def rate(self) -> float:
        """Long-term rate ``r = b / T`` in bits per second.

        This is exactly the token-bucket rate the paper assigns to the
        message's traffic shaper.
        """
        return self.size / self.period

    @property
    def burst(self) -> float:
        """Token-bucket burst ``b`` in bits (the message length)."""
        return self.size

    def utilization(self, capacity: float) -> float:
        """Fraction of a link of ``capacity`` (bps) consumed by this message."""
        if capacity <= 0:
            raise InvalidMessageError(
                f"capacity must be positive, got {capacity!r}")
        return self.rate / capacity

    def transmission_time(self, capacity: float) -> float:
        """Serialisation time of one instance on a link of ``capacity`` bps."""
        if capacity <= 0:
            raise InvalidMessageError(
                f"capacity must be positive, got {capacity!r}")
        return self.size / capacity

    # -- convenience constructors -------------------------------------------

    @classmethod
    def periodic(cls, name: str, period: float, size: float, source: str,
                 destination: str, deadline: float | None = None,
                 **metadata: Any) -> "Message":
        """Create a periodic message ``(T, b)``.

        When ``deadline`` is omitted it defaults to the period, the usual
        implicit-deadline assumption for periodic avionics data.
        """
        if deadline is None:
            deadline = period
        return cls(name=name, kind=MessageKind.PERIODIC, period=period,
                   size=size, source=source, destination=destination,
                   deadline=deadline, metadata=dict(metadata))

    @classmethod
    def sporadic(cls, name: str, min_interarrival: float, size: float,
                 source: str, destination: str,
                 deadline: float | None = None, **metadata: Any) -> "Message":
        """Create a sporadic message ``(T, b)`` with minimal inter-arrival T."""
        return cls(name=name, kind=MessageKind.SPORADIC,
                   period=min_interarrival, size=size, source=source,
                   destination=destination, deadline=deadline,
                   metadata=dict(metadata))

    def with_deadline(self, deadline: float | None) -> "Message":
        """Return a copy of this message with a different deadline."""
        return replace(self, deadline=deadline)

    def with_size(self, size: float) -> "Message":
        """Return a copy of this message with a different size (bits).

        The copy shares this message's ``metadata``.  Every lowering
        sizes every message, so this skips :func:`dataclasses.replace`.
        """
        return Message(self.name, self.kind, self.period, size, self.source,
                       self.destination, self.deadline, self.metadata)
