"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock and the pending-event queue.  Model
components (stations, switches, the 1553B bus controller...) hold a reference
to the simulator and schedule callbacks on it; they never advance time
themselves.

The engine is deliberately minimal and synchronous — no coroutines, no
threads — which keeps runs deterministic and easy to debug.  The
:meth:`Simulator.run` loop is inlined over the raw event heap (no
per-event ``peek``/``pop``/``step``/``fire`` method hops), which together
with the slim ``(time, sequence, event)`` heap entries makes the
event-driven side fast enough for Monte-Carlo campaigns: a few seconds of
a 10 Mbps avionics network (hundreds of thousands of frames) complete in
well under a second of wall-clock time.

Besides the heap the simulator keeps one **same-instant slot**
(:meth:`Simulator.post_now`): an entry due at the current instant is
parked there, with the sequence number it would have had in the heap,
instead of being pushed.  Once the running callback returns, the loop
runs the parked entry next when nothing in the heap is due at that
instant, and pushes it otherwise.  Its time is the clock's, so it is the
``(time, sequence)`` minimum exactly when the heap's head is strictly
later; otherwise it takes the heap position it would have had anyway.
Firing order, and therefore every result, is the heap's.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SchedulingInPastError
from repro.simulation.events import Event, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.  Defaults to 0.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "late")
    >>> _ = sim.schedule(0.5, fired.append, "early")
    >>> sim.run()
    >>> fired
    ['early', 'late']
    >>> sim.now
    1.5
    """

    __slots__ = ("_now", "_queue", "_events_processed", "_running", "_slot")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._events_processed = 0
        self._running = False
        #: The same-instant slot: one parked ``(time, sequence, callback,
        #: arg)`` heap entry due at the current instant, or ``None``.
        self._slot: tuple | None = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have been invoked so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the queue."""
        return len(self._queue) + (self._slot is not None)

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Raises
        ------
        SchedulingInPastError
            If ``delay`` is negative.
        """
        if delay < 0:
            raise SchedulingInPastError(
                f"cannot schedule an event {abs(delay)} s in the past")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        Raises
        ------
        SchedulingInPastError
            If ``time`` is earlier than the current clock.
        """
        if time < self._now:
            raise SchedulingInPastError(
                f"cannot schedule at {time} s, clock is already at "
                f"{self._now} s")
        return self._queue.push(time, callback, args)

    def post(self, delay: float, callback: Callable[[Any], None],
             arg: Any) -> None:
        """Hot-path :meth:`schedule` for trusted single-argument callbacks.

        No :class:`Event` handle is allocated or returned, so the entry
        cannot be cancelled; the caller guarantees ``delay >= 0``.  Firing
        order is identical to :meth:`schedule` (same sequence counter).
        """
        # Inlined EventQueue.push_fast — one call layer per event matters.
        queue = self._queue
        heappush(queue._heap,
                 (self._now + delay, next(queue._sequence), callback, arg))

    def post_at(self, time: float, callback: Callable[[Any], None],
                arg: Any) -> None:
        """Hot-path :meth:`schedule_at`; the caller guarantees ``time >= now``."""
        queue = self._queue
        heappush(queue._heap,
                 (time, next(queue._sequence), callback, arg))

    def post_now(self, callback: Callable[[Any], None], arg: Any) -> None:
        """Hot-path :meth:`post` at the current instant.

        The entry draws its sequence number as usual but is parked in the
        same-instant slot instead of the heap (see the module docstring);
        a second entry posted while the slot is taken goes to the heap.
        Firing order is identical to ``post(0, callback, arg)``.
        """
        queue = self._queue
        entry = (self._now, next(queue._sequence), callback, arg)
        if self._slot is None:
            self._slot = entry
        else:
            heappush(queue._heap, entry)

    def _flush_slot(self) -> None:
        """Move a parked same-instant entry into the heap."""
        if self._slot is not None:
            heappush(self._queue._heap, self._slot)
            self._slot = None

    def dispatch_immediate(self, callback: Callable[[Any], None],
                           arg: Any) -> None:
        """Process a zero-delay event inline, without a heap round-trip.

        Semantically this is ``schedule(0, callback, arg)`` fused with its
        own firing: the callback runs now, at the current clock, and counts
        as a processed event.  Model code may only use it when the fused
        ordering is provably equivalent to the heap ordering (see the
        zero-propagation delivery fusion in
        :class:`repro.ethernet.link.LinkTransmitter`, which inlines this,
        pinned down by the golden-equivalence tests).
        """
        self._events_processed += 1
        callback(arg)

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Process a single event.

        Returns ``True`` if an event was processed, ``False`` if the queue
        was empty.
        """
        self._flush_slot()
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.callback(*event.args)
        return True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this time; the clock is then advanced exactly to ``until`` so
            time-weighted statistics can be closed consistently.
        max_events:
            If given, stop after processing this many events (a safety net
            against accidental infinite self-rescheduling).
        """
        self._running = True
        processed = 0
        # The loop is deliberately inlined over the raw heap: one C-level
        # heappop per event, no intermediate peek/step/fire calls.  Entries
        # are (time, sequence, event) triples or (time, sequence, callback,
        # arg) fast-path quadruples (see EventQueue).
        heap = self._queue._heap
        pop = heappop
        try:
            if until is None and max_events is None:
                # Run-to-exhaustion fast loop (the common simulation mode):
                # no bound checks, pop immediately, events_processed kept in
                # a local and flushed additively (fused dispatches increment
                # the attribute directly, so += keeps both contributions).
                # A parked same-instant entry runs next when the heap has
                # nothing due at its instant, and is pushed otherwise.
                local_processed = 0
                try:
                    while self._running:
                        slot = self._slot
                        if slot is not None:
                            self._slot = None
                            if not heap or heap[0][0] > slot[0]:
                                local_processed += 1
                                slot[2](slot[3])
                                continue
                            heappush(heap, slot)
                        elif not heap:
                            break
                        head = pop(heap)
                        if len(head) == 4:
                            self._now = head[0]
                            local_processed += 1
                            head[2](head[3])
                            continue
                        event = head[2]
                        if event.cancelled:
                            continue
                        self._now = head[0]
                        local_processed += 1
                        event.callback(*event.args)
                finally:
                    self._events_processed += local_processed
                return
            while self._running:
                self._flush_slot()
                if not heap:
                    break
                head = heap[0]
                if len(head) == 4:
                    time = head[0]
                    if until is not None and time > until:
                        break
                    if max_events is not None and processed >= max_events:
                        break
                    pop(heap)
                    self._now = time
                    self._events_processed += 1
                    processed += 1
                    head[2](head[3])
                    continue
                event = head[2]
                if event.cancelled:
                    pop(heap)
                    continue
                time = head[0]
                if until is not None and time > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                pop(heap)
                self._now = time
                self._events_processed += 1
                processed += 1
                event.callback(*event.args)
        finally:
            self._running = False
            self._flush_slot()
        if until is not None and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._running = False
