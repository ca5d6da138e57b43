"""Major/minor frame schedule construction for the 1553B bus controller.

The paper's case study uses the classical cyclic-executive organisation:

* the **major frame** is 160 ms — the biggest message period, so every
  periodic message is transferred at least once per major frame,
* the major frame is divided into **minor frames** of 20 ms — the smallest
  message period, so the most frequent messages are transferred every minor
  frame; an interrupt at the start of each minor frame triggers the bus
  controller's transaction list for that frame.

:class:`MajorFrameSchedule` builds such a schedule from a
:class:`~repro.flows.message_set.MessageSet`:

* every periodic message is placed in the minor frames matching its period
  (a message of period ``k`` minor frames appears in every ``k``-th minor
  frame); phases are chosen greedily to balance the minor-frame load,
* every remote terminal that emits sporadic messages is **polled** once per
  minor frame (a short RT→BC status/vector-word transaction), and worst-case
  room for one instance of each sporadic message per minor frame is accounted
  for in the feasibility check, matching the paper's assumption that every
  station generates at most one sporadic message of each type per minor
  frame.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from repro import units
from repro.errors import InvalidScheduleError
from repro.flows.message_set import MessageSet
from repro.flows.messages import Message
from repro.milstd1553.transaction import (
    Transaction,
    TransferFormat,
    message_duration,
    transactions_for_message,
)
from repro.milstd1553.words import INTERMESSAGE_GAP, RESPONSE_TIME, WORD_TIME

__all__ = ["MinorFrameSlot", "MajorFrameSchedule", "POLL_DURATION"]

#: Duration of one poll of a remote terminal (transmit command for the
#: service/vector word: command + RT response + status + 1 data word + gap).
POLL_DURATION = 3 * WORD_TIME + RESPONSE_TIME + INTERMESSAGE_GAP


@dataclass
class MinorFrameSlot:
    """The content of one minor frame of the major frame schedule."""

    #: Index of the minor frame within the major frame (0-based).
    index: int
    #: Periodic transactions issued in this minor frame, in emission order.
    transactions: list[Transaction] = field(default_factory=list)

    def periodic_duration(self) -> float:
        """Bus time used by the periodic transactions (seconds)."""
        return reduce(operator.add,
                      (t.duration for t in self.transactions), 0)


class MajorFrameSchedule:
    """A complete bus-controller schedule (transaction table).

    Parameters
    ----------
    message_set:
        The avionics messages to schedule.  Periodic messages go into the
        transaction table; sporadic ones are served by polling.
    minor_frame:
        Minor frame duration (default 20 ms, the paper's value).
    major_frame:
        Major frame duration (default 160 ms, the paper's value); must be an
        integral multiple of the minor frame.
    transfer_format:
        1553B transfer format used for the data transactions.

    Raises
    ------
    InvalidScheduleError
        If the frame structure is inconsistent or a periodic message has a
        period smaller than the minor frame.
    """

    def __init__(self, message_set: MessageSet,
                 minor_frame: float = units.ms(20),
                 major_frame: float = units.ms(160),
                 transfer_format: TransferFormat = TransferFormat.RT_TO_RT
                 ) -> None:
        if minor_frame <= 0 or major_frame <= 0:
            raise InvalidScheduleError("frame durations must be positive")
        ratio = major_frame / minor_frame
        if abs(ratio - round(ratio)) > 1e-9:
            raise InvalidScheduleError(
                f"the major frame ({major_frame}s) must be an integral "
                f"multiple of the minor frame ({minor_frame}s)")
        self.message_set = message_set
        self.minor_frame = float(minor_frame)
        self.major_frame = float(major_frame)
        self.transfer_format = transfer_format
        self.minor_frame_count = int(round(ratio))
        self.slots = [MinorFrameSlot(index=i)
                      for i in range(self.minor_frame_count)]
        #: Minor-frame interval of each periodic message (in minor frames).
        self._intervals: dict[str, int] = {}
        #: Phase (first minor frame index) of each periodic message.
        self._phases: dict[str, int] = {}
        #: Per-minor-frame periodic load vector, maintained incrementally:
        #: ``_loads[i]`` always equals ``slots[i].periodic_duration()`` (the
        #: same left-to-right float accumulation over the appended
        #: transactions), so phase selection and the feasibility checks never
        #: re-sum transaction durations.
        self._loads = np.zeros(self.minor_frame_count)
        self._build()

    # -- construction -------------------------------------------------------

    def _interval_for(self, message: Message) -> int:
        """Number of minor frames between two transfers of ``message``.

        The interval never exceeds the message period (so the real period
        requirement is met) and is clamped to a divisor of the number of
        minor frames so the schedule repeats identically every major frame.
        """
        if message.period + 1e-12 < self.minor_frame:
            raise InvalidScheduleError(
                f"message {message.name!r} has a period of "
                f"{message.period}s, smaller than the minor frame "
                f"({self.minor_frame}s); the 1553B cyclic schedule cannot "
                f"serve it")
        interval = int(message.period / self.minor_frame + 1e-9)
        interval = max(1, min(interval, self.minor_frame_count))
        while self.minor_frame_count % interval != 0:
            interval -= 1
        return interval

    def _build(self) -> None:
        periodic = sorted(self.message_set.periodic(),
                          key=lambda m: (m.period, -m.size, m.name))
        for message in periodic:
            interval = self._interval_for(message)
            self._intervals[message.name] = interval
            phase = self._best_phase(message, interval)
            self._phases[message.name] = phase
            for transaction in transactions_for_message(
                    message, self.transfer_format):
                duration = transaction.duration
                for slot_index in range(phase, self.minor_frame_count,
                                        interval):
                    self.slots[slot_index].transactions.append(transaction)
                    self._loads[slot_index] += duration

    def _best_phase(self, message: Message, interval: int) -> int:
        """Choose the phase minimising the worst loaded minor frame.

        The candidate load of phase ``p`` is the maximum current load over
        the minor frames ``p, p + interval, ...`` plus the message's bus
        time.  ``_loads`` reshaped to ``(count / interval, interval)`` puts
        phase ``p``'s frames in column ``p``, so a column-wise max plus an
        argmin evaluates every candidate at once; ``np.argmin`` returns the
        first minimum, matching the greedy first-strictly-smaller scan.
        Float addition is monotone, so adding the message duration after the
        max (instead of to every frame) yields bit-identical candidates.
        """
        duration = message_duration(message, self.transfer_format)
        candidates = self._loads.reshape(-1, interval).max(axis=0) + duration
        return int(np.argmin(candidates))

    # -- sporadic accounting ------------------------------------------------

    def polled_terminals(self) -> list[str]:
        """Stations that emit sporadic messages and are polled every minor frame."""
        return sorted({m.source for m in self.message_set.sporadic()})

    def polling_duration(self) -> float:
        """Bus time spent polling every minor frame (seconds)."""
        return POLL_DURATION * len(self.polled_terminals())

    def reserved_sporadic(self) -> list[Message]:
        """Sporadic messages that get guaranteed room in every minor frame.

        Only sporadic messages with a hard deadline no larger than the major
        frame are reserved for: background traffic (deadline above the major
        frame, or no deadline at all) is served best-effort in the idle time
        of the minor frames, which is how operational 1553B systems handle
        low-priority asynchronous data.
        """
        return [m for m in self.message_set.sporadic()
                if m.deadline is not None and m.deadline <= self.major_frame]

    def worst_case_sporadic_duration(self) -> float:
        """Bus time needed if every reserved sporadic message fires in the same minor frame.

        The paper assumes at most one sporadic message of each type per
        station per minor frame, so the worst case is one instance of every
        reserved sporadic message (see :meth:`reserved_sporadic`).
        """
        total = 0.0
        for message in self.reserved_sporadic():
            total += message_duration(message, self.transfer_format)
        return total

    # -- inspection ----------------------------------------------------------

    def interval_of(self, message_name: str) -> int:
        """Minor-frame interval of a scheduled periodic message."""
        return self._intervals[message_name]

    def phase_of(self, message_name: str) -> int:
        """Phase (first minor frame) of a scheduled periodic message."""
        return self._phases[message_name]

    def slot(self, index: int) -> MinorFrameSlot:
        """The minor frame slot ``index`` (0-based)."""
        return self.slots[index]

    def periodic_loads(self) -> np.ndarray:
        """Per-minor-frame periodic bus time (seconds), as a vector.

        A copy of the load vector maintained during construction; entry
        ``i`` equals ``slots[i].periodic_duration()``.
        """
        return self._loads.copy()

    def minor_frame_durations(self) -> list[float]:
        """Worst-case busy time of every minor frame (seconds).

        Periodic transactions plus the per-minor-frame polling plus the
        worst-case sporadic transfers.
        """
        overhead = self.polling_duration() + self.worst_case_sporadic_duration()
        return [float(load) + overhead for load in self._loads]

    def utilizations(self) -> list[float]:
        """Worst-case utilisation of every minor frame (fraction of 20 ms)."""
        return [duration / self.minor_frame
                for duration in self.minor_frame_durations()]

    def is_feasible(self) -> bool:
        """True when every minor frame fits within its duration."""
        return all(duration <= self.minor_frame + 1e-12
                   for duration in self.minor_frame_durations())

    def validate(self) -> None:
        """Raise :class:`InvalidScheduleError` if a minor frame is over-committed."""
        for index, duration in enumerate(self.minor_frame_durations()):
            if duration > self.minor_frame + 1e-12:
                raise InvalidScheduleError(
                    f"minor frame {index} needs {duration * 1e3:.3f} ms of "
                    f"bus time but only {self.minor_frame * 1e3:.3f} ms are "
                    f"available")

    def summary(self) -> dict[str, float | int | bool]:
        """Headline figures used by the reports."""
        durations = self.minor_frame_durations()
        return {
            "minor_frames": self.minor_frame_count,
            "periodic_messages": len(self._intervals),
            "polled_terminals": len(self.polled_terminals()),
            "max_minor_frame_ms": max(durations) * 1e3,
            "mean_utilization": reduce(operator.add, self.utilizations(), 0)
            / len(self.slots),
            "max_utilization": max(self.utilizations()),
            "feasible": self.is_feasible(),
        }
