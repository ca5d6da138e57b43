"""Closed-form worst-case response-time analysis of the 1553B schedule.

The comparison experiments (DESIGN.md, experiment E4) need a 1553B column
next to the switched-Ethernet bounds.  The cyclic-executive structure makes
the worst case easy to characterise:

* a **periodic** message is produced synchronously with the bus schedule
  (its subsystem samples the data for the minor frame that carries it, the
  standard practice on 1553B cyclic executives), so its worst-case response
  time is the largest offset, within any minor frame that carries it, at
  which its transaction completes (all transactions that precede it in the
  frame, plus its own duration),
* a **sporadic** message sees its worst case when it is released just after
  the poll of its terminal in the current minor frame: it is then served by
  the poll of the *next* minor frame, i.e. after up to one full minor frame,
  plus everything that precedes its terminal's poll in that frame, plus its
  own transfer time — conservatively assuming every other sporadic message
  fires in the same frame and is served before it.

These are upper bounds under the paper's assumptions (at most one sporadic
instance per message per minor frame, feasible schedule); the simulator's
observed response times must stay below them, which the validation tests
check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.errors import AnalysisError
from repro.flows.message_set import MessageSet
from repro.flows.messages import Message
from repro.milstd1553.schedule import POLL_DURATION, MajorFrameSchedule
from repro.milstd1553.transaction import message_duration

__all__ = ["ResponseTimeBound", "Milstd1553Analysis"]


@dataclass(frozen=True)
class ResponseTimeBound:
    """Worst-case response time of one message on the 1553B bus."""

    message: Message
    #: The bound in seconds.
    bound: float
    #: Time spent waiting for the next scheduled occurrence / poll (seconds).
    waiting_time: float
    #: Time from the start of the serving minor frame to the completion of
    #: the message's last transaction (seconds).
    service_offset: float
    #: ``True`` when the bound is guaranteed by the cyclic schedule
    #: (periodic messages and deadline-constrained sporadic messages that
    #: get reserved minor-frame room).  Background sporadic traffic is
    #: served best-effort in the idle time of the frames, so its figure is
    #: indicative only and the simulator may exceed it under load.
    guaranteed: bool = True

    @property
    def name(self) -> str:
        """Message name."""
        return self.message.name

    @property
    def deadline(self) -> float | None:
        """Requested maximal response time, if any."""
        return self.message.deadline

    @property
    def meets_deadline(self) -> bool:
        """True when the bound does not exceed the deadline (or none is set)."""
        if self.message.deadline is None:
            return True
        return self.bound <= self.message.deadline


class Milstd1553Analysis:
    """Worst-case response-time analysis over a major frame schedule."""

    def __init__(self, schedule: MajorFrameSchedule) -> None:
        self.schedule = schedule
        self.message_set: MessageSet = schedule.message_set
        #: Worst completion offset of every scheduled periodic message,
        #: built lazily in one pass over the transaction table.
        self._periodic_offsets: dict[str, float] | None = None
        #: Per-station offset of the end of the station's poll in the worst
        #: minor frame, plus the station's sporadic messages in poll order.
        #: Rebuilt when the message set mutates (keyed on its version), like
        #: the per-message reference scan that recomputed it every call.
        self._sporadic_context: tuple[dict[str, float],
                                      dict[str, list[Message]]] | None = None
        self._sporadic_version: int | None = None

    # -- helpers ----------------------------------------------------------------

    def _message_duration(self, message: Message) -> float:
        return message_duration(message, self.schedule.transfer_format)

    def _periodic_completion_offsets(self) -> dict[str, float]:
        """Worst completion offset of every periodic message, per name.

        One pass over the transaction table instead of one per message: for
        each minor frame the running completion offsets are the cumulative
        sum of the transaction durations (``np.cumsum`` accumulates left to
        right, matching the per-transaction scan), and a message's offset in
        the frame is the cumsum entry of the first last-part transaction
        that carries it.
        """
        if self._periodic_offsets is None:
            worst: dict[str, float] = {}
            for slot in self.schedule.slots:
                if not slot.transactions:
                    continue
                offsets = np.cumsum(
                    [t.duration for t in slot.transactions])
                seen: set[str] = set()
                for transaction, offset in zip(slot.transactions, offsets):
                    name = transaction.message.name
                    if transaction.is_last_part and name not in seen:
                        seen.add(name)
                        completed = float(offset)
                        if completed > worst.get(name, 0.0):
                            worst[name] = completed
            self._periodic_offsets = worst
        return self._periodic_offsets

    def _worst_completion_offset_periodic(self, message: Message) -> float:
        """Worst offset, within a serving minor frame, of the message's completion."""
        offset = self._periodic_completion_offsets().get(message.name, 0.0)
        if offset == 0.0:
            raise AnalysisError(
                f"periodic message {message.name!r} is not present in the "
                f"schedule")
        return offset

    def _poll_offsets(self) -> tuple[dict[str, float],
                                     dict[str, list[Message]]]:
        """(end-of-poll offset per station, sporadic messages per station).

        The offset of station ``s`` is the worst periodic load, plus the
        polls of every station up to and including ``s``, plus all sporadic
        messages of the stations polled before ``s`` — the prefix every
        sporadic bound of station ``s`` starts from.
        """
        version = self.message_set.version
        if self._sporadic_context is None \
                or self._sporadic_version != version:
            self._sporadic_version = version
            loads = self.schedule.periodic_loads()
            heaviest_periodic = float(loads.max()) if loads.size else 0.0
            sporadic = self.message_set.sporadic()
            by_station: dict[str, list[Message]] = {
                station: [] for station in self.schedule.polled_terminals()}
            for message in sporadic:
                by_station[message.source].append(message)
            offsets: dict[str, float] = {}
            offset = heaviest_periodic
            for station in self.schedule.polled_terminals():
                offset += POLL_DURATION
                offsets[station] = offset
                offset += reduce(operator.add,
                                 (self._message_duration(m)
                                  for m in by_station[station]), 0)
            self._sporadic_context = (offsets, by_station)
        return self._sporadic_context

    def _worst_completion_offset_sporadic(self, message: Message) -> float:
        """Worst offset of the sporadic message's completion within a minor frame.

        Conservative accounting: the frame first carries its heaviest
        periodic load, then the polls of the terminals that precede this
        message's terminal (serving all their sporadic messages), then this
        terminal's poll, then every *other* sporadic message of the same
        terminal, and finally this message.
        """
        offsets, by_station = self._poll_offsets()
        if message.source not in offsets:
            raise AnalysisError(
                f"sporadic message {message.name!r} has no polled terminal")
        offset = offsets[message.source]
        for other in by_station[message.source]:
            if other.name != message.name:
                offset += self._message_duration(other)
        offset += self._message_duration(message)
        return offset

    # -- bounds ----------------------------------------------------------------

    def bound_for(self, message: Message) -> ResponseTimeBound:
        """Worst-case response time of one message."""
        guaranteed = True
        if message.is_periodic:
            # Production is synchronised with the serving minor frame, so no
            # waiting term: the response time is the completion offset.
            waiting = 0.0
            offset = self._worst_completion_offset_periodic(message)
        else:
            waiting = self.schedule.minor_frame
            offset = self._worst_completion_offset_sporadic(message)
            reserved = {m.name for m in self.schedule.reserved_sporadic()}
            guaranteed = message.name in reserved
        return ResponseTimeBound(message=message, bound=waiting + offset,
                                 waiting_time=waiting, service_offset=offset,
                                 guaranteed=guaranteed)

    def all_bounds(self) -> dict[str, ResponseTimeBound]:
        """Bounds of every message of the set, indexed by name."""
        return {message.name: self.bound_for(message)
                for message in self.message_set}

    def violations(self) -> list[ResponseTimeBound]:
        """Messages whose worst-case response time exceeds their deadline."""
        return [bound for bound in self.all_bounds().values()
                if not bound.meets_deadline]

    def worst_bound(self) -> float:
        """Largest response-time bound over the whole message set (seconds)."""
        bounds = self.all_bounds()
        if not bounds:
            raise AnalysisError("the message set is empty")
        return max(bound.bound for bound in bounds.values())
