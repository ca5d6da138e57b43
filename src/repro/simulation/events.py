"""Events and the pending-event queue of the simulation kernel.

The kernel is callback based: an :class:`Event` couples a firing time with a
callable and its arguments.  Events are totally ordered by ``(time,
sequence)`` where ``sequence`` is a monotonically increasing insertion
counter, so two events scheduled for the same instant fire in the order they
were scheduled.  This makes simulations fully deterministic, which the test
suite and the bound-vs-simulation experiments rely on.

Performance notes (this is the hottest structure of the simulator):

* :class:`Event` is a plain ``__slots__`` class, not a dataclass — no
  instance ``__dict__``, cheap construction, cheap attribute access.
* The heap holds ``(time, sequence, event)`` triples, so every heap
  comparison is a C-level tuple comparison that is decided by the
  ``(time, sequence)`` prefix (sequence numbers are unique, the event
  object itself is never compared).  The previous ``@dataclass(order=True)``
  design invoked a generated Python ``__lt__`` for every sift step —
  over a million interpreter-level calls on a 320 ms run.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    sequence:
        Insertion counter used to break ties deterministically.
    callback:
        The callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    cancelled:
        Set to ``True`` by :meth:`cancel`; cancelled events are skipped by
        the engine without invoking their callback.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[..., None], args: tuple[Any, ...] = (),
                 cancelled: bool = False) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.sequence) == (other.time, other.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time!r}, sequence={self.sequence}"
                f"{state})")

    def cancel(self) -> None:
        """Mark the event as cancelled.

        Cancellation is lazy: the event stays in the heap but the engine
        discards it when it reaches the head of the queue.
        """
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (the engine calls this; tests may too)."""
        self.callback(*self.args)


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The queue exposes only what the engine needs: push, pop-next-live,
    peek-time and length.  Cancelled events are purged lazily on pop.

    Two entry shapes share the heap (the ``(time, sequence)`` prefix makes
    them totally ordered either way):

    * ``(time, sequence, event)`` triples for :meth:`push` — the general
      path, returning a cancellable :class:`Event` handle;
    * ``(time, sequence, callback, arg)`` quadruples for
      :meth:`push_fast` — the handle-free fast shape (such entries cannot
      be cancelled).  :meth:`Simulator.post`/:meth:`Simulator.post_at`/
      :meth:`Simulator.post_now` wrap it for the model layer, and the
      hop-path sites of :mod:`repro.ethernet` (link transmitters, switch
      ingress, shaper releases, traffic sources) inline the same entry
      shape; keep them in sync.

    The engine's inlined run loop reaches into :attr:`_heap` directly and
    discriminates the two shapes by length.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        #: C-level insertion counter (``next()`` beats a load/add/store).
        self._sequence = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap
                   if len(entry) == 4 or not entry[2].cancelled)

    def __bool__(self) -> bool:
        return any(len(entry) == 4 or not entry[2].cancelled
                   for entry in self._heap)

    def push(self, time: float, callback: Callable[..., None],
             args: tuple[Any, ...] = ()) -> Event:
        """Create an event at ``time`` and insert it into the queue."""
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def push_fast(self, time: float, callback: Callable[[Any], None],
                  arg: Any) -> None:
        """Insert a single-argument callback without an :class:`Event` handle.

        The entry fires exactly like a pushed event (same deterministic
        ``(time, sequence)`` ordering) but cannot be cancelled — model hot
        paths that never cancel use this to skip one allocation per event.
        """
        heapq.heappush(self._heap,
                       (time, next(self._sequence), callback, arg))

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event.

        Fast-path entries are wrapped in an :class:`Event` on the way out,
        so callers see one type.  Returns ``None`` when only cancelled
        events (or nothing) remain.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 4:
                return Event(entry[0], entry[1], entry[2], (entry[3],))
            event = entry[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the firing time of the next live event without popping it."""
        heap = self._heap
        while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]
