"""Discrete-event simulation of the MIL-STD-1553B bus.

The simulator executes a :class:`~repro.milstd1553.schedule.MajorFrameSchedule`
on the shared 1 Mbps bus:

* at every minor frame boundary (every 20 ms) the bus controller starts
  issuing the transactions of that minor frame, back to back,
* after the periodic transactions it polls, in a fixed order, every remote
  terminal that may hold sporadic data; when the poll finds pending sporadic
  messages, the corresponding transfers are issued immediately,
* the bus is a single shared resource: a transaction occupies it for its full
  duration (words, response times and intermessage gap) and nothing else can
  happen meanwhile.

Response times are measured from the *release* of a message instance
(production of fresh data by the application) to the completion of its last
transaction on the bus:

* periodic instances are released at every multiple of their period
  (asynchronously from the minor frame that carries them, which is exactly
  why their response time can approach period + frame offset),
* sporadic instances are released by the greedy or randomised sources, at
  most one per minor frame per message, as the paper assumes.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.flows.message_set import MessageSet
from repro.flows.messages import Message
from repro.milstd1553.schedule import POLL_DURATION, MajorFrameSchedule
from repro.milstd1553.transaction import transactions_for_message
from repro.simulation.engine import Simulator
from repro.simulation.statistics import Counter, LatencyRecorder, SummaryStatistics
from repro.simulation.trace import TraceRecorder

__all__ = ["Milstd1553BusSimulator", "BusSimulationResults"]


@dataclass
class BusSimulationResults:
    """Statistics of one 1553B simulation run."""

    duration: float
    message_latencies: dict[str, LatencyRecorder] = field(default_factory=dict)
    minor_frame_overruns: int = 0
    bus_busy_time: float = 0.0
    polls_issued: int = 0
    instances_released: int = 0
    instances_delivered: int = 0

    def message_summary(self, name: str) -> SummaryStatistics:
        """Latency summary of one message stream."""
        return self.message_latencies[name].summary()

    def worst_latency(self, name: str) -> float:
        """Largest observed response time of one message (seconds)."""
        return self.message_latencies[name].maximum

    @property
    def bus_utilization(self) -> float:
        """Fraction of the run during which the bus carried traffic."""
        if self.duration <= 0:
            return float("nan")
        return self.bus_busy_time / self.duration


@dataclass
class _PendingSporadic:
    """A sporadic instance waiting at its remote terminal for a poll."""

    message: Message
    release_time: float


class Milstd1553BusSimulator:
    """Simulate the cyclic-executive operation of a 1553B bus.

    Parameters
    ----------
    message_set:
        The avionics messages (periodic and sporadic).
    schedule:
        Optional pre-built schedule; by default one is built from the message
        set with the paper's 20 ms / 160 ms structure.
    sporadic_scenario:
        ``"greedy"`` releases every sporadic message once per minor frame
        (its worst case); ``"random"`` releases each with probability 0.5
        per minor frame, at a random instant inside the frame.
    seed:
        Seed of the random generator used by the ``"random"`` scenario.
    trace_enabled:
        Record a transaction-level trace.
    """

    def __init__(self, message_set: MessageSet,
                 schedule: MajorFrameSchedule | None = None,
                 sporadic_scenario: str = "greedy", seed: int = 1,
                 trace_enabled: bool = False) -> None:
        if sporadic_scenario not in ("greedy", "random"):
            raise ConfigurationError(
                f"unknown sporadic scenario {sporadic_scenario!r}")
        self.message_set = message_set
        self.schedule = schedule or MajorFrameSchedule(message_set)
        self.sporadic_scenario = sporadic_scenario
        self.rng = np.random.default_rng(seed)
        self.trace = TraceRecorder(enabled=trace_enabled)
        self.simulator = Simulator()
        self._pending_sporadic: dict[str, deque[_PendingSporadic]] = {
            station: deque() for station in self.schedule.polled_terminals()}
        self._results: BusSimulationResults | None = None
        self._bus_free_at = 0.0
        self.transactions_issued = Counter("bus.transactions")

    # -- execution -------------------------------------------------------------

    def run(self, duration: float = units.ms(320)) -> BusSimulationResults:
        """Simulate ``duration`` seconds of bus operation (default 2 major frames)."""
        if duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {duration!r}")
        results = BusSimulationResults(duration=duration)
        for message in self.message_set:
            results.message_latencies[message.name] = LatencyRecorder(
                message.name)
        self._results = results

        # Periodic data production is synchronised with the bus schedule (the
        # subsystem samples the data for the minor frame that will carry it),
        # so periodic instances are accounted for directly in the frame
        # handler; only the release count is precomputed here.
        for message in self.message_set.periodic():
            interval = self.schedule.interval_of(message.name)
            per_major = self.schedule.minor_frame_count // interval
            majors = duration / self.schedule.major_frame
            results.instances_released += int(round(per_major * majors))

        # Sporadic releases at the remote terminals are precomputed into
        # per-station queues (sorted by release time) rather than scheduled
        # as events, so the frame handler never misses a release that falls
        # exactly on a frame boundary because of floating-point ties.
        for message in self.message_set.sporadic():
            self._precompute_sporadic_releases(message, duration)
        for queue in self._pending_sporadic.values():
            queue_sorted = sorted(queue, key=lambda p: p.release_time)
            queue.clear()
            queue.extend(queue_sorted)

        # Minor frame interrupts.
        minor = self.schedule.minor_frame
        frame_count = int(round(duration / minor))
        for frame_index in range(frame_count):
            self.simulator.schedule_at(
                frame_index * minor, self._run_minor_frame,
                frame_index % self.schedule.minor_frame_count)

        self.simulator.run()
        return results

    @property
    def results(self) -> BusSimulationResults:
        """Results of the last run."""
        if self._results is None:
            raise ConfigurationError("call run() first")
        return self._results

    # -- releases ---------------------------------------------------------------

    def _precompute_sporadic_releases(self, message: Message,
                                      duration: float) -> None:
        """Precompute the sporadic release instants of one message.

        Releases are spaced by at least the message's minimal inter-arrival
        time (and never closer than one minor frame).  In the ``"greedy"``
        scenario every window produces an instance at its start (the worst
        case the analysis assumes); in the ``"random"`` scenario each window
        produces an instance with probability 0.5 at a random instant inside
        it.
        """
        spacing = max(self.schedule.minor_frame, message.period)
        window_count = int(duration / spacing + 1e-9) + 1
        queue = self._pending_sporadic[message.source]
        for window in range(window_count):
            window_start = window * spacing
            if self.sporadic_scenario == "greedy":
                release = window_start
            else:
                if self.rng.random() >= 0.5:
                    continue
                release = window_start + float(self.rng.uniform(0.0, spacing))
            if release >= duration:
                continue
            queue.append(_PendingSporadic(message=message,
                                          release_time=release))
            self._results.instances_released += 1

    # -- minor frame execution -----------------------------------------------

    def _run_minor_frame(self, slot_index: int) -> None:
        """Issue the transactions of one minor frame, then poll the terminals."""
        now = self.simulator.now
        results = self._results
        slot = self.schedule.slot(slot_index)
        # The bus may still be busy finishing the previous minor frame
        # (overrun); transactions of this frame start after it frees up.
        start = max(now, self._bus_free_at)
        cursor = start
        if self._bus_free_at > now + 1e-12:
            results.minor_frame_overruns += 1

        frame_end = now + self.schedule.minor_frame

        # 1. Periodic transactions of this minor frame (the transaction
        #    table); they are never deferred — feasibility of the schedule
        #    guarantees they fit.
        for transaction in slot.transactions:
            cursor += transaction.duration
            self.transactions_issued.increment()
            self.trace.record(cursor, "bus.transaction", "bus-controller",
                              message=transaction.name,
                              words=transaction.data_words)
            if transaction.is_last_part:
                # Periodic data is sampled at the start of the minor frame
                # that carries it (synchronous production), so the response
                # time is measured from the frame start.
                results.message_latencies[transaction.message.name].record(
                    cursor - now)
                results.instances_delivered += 1

        # 2. Poll every terminal that may hold sporadic data and serve the
        #    pending *deadline-constrained* (reserved) sporadic messages —
        #    the feasibility check guarantees they fit in the minor frame.
        major_frame = self.schedule.major_frame
        deferred: list[tuple[str, _PendingSporadic]] = []
        for station in self.schedule.polled_terminals():
            cursor += POLL_DURATION
            results.polls_issued += 1
            self.trace.record(cursor, "bus.poll", "bus-controller",
                              terminal=station)
            queue = self._pending_sporadic[station]
            ready = [p for p in queue if p.release_time <= cursor + 1e-9]
            for pending in sorted(
                    ready, key=lambda p: (p.message.deadline is None,
                                          p.message.deadline or 0.0)):
                reserved = (pending.message.deadline is not None
                            and pending.message.deadline <= major_frame)
                if not reserved:
                    deferred.append((station, pending))
                    queue.remove(pending)
                    continue
                queue.remove(pending)
                cursor = self._serve_sporadic(pending, cursor)

        # 3. Serve background (best-effort) sporadic messages in the idle
        #    time left in the minor frame; whatever does not fit stays
        #    pending for the next frame.
        for station, pending in deferred:
            duration = reduce(operator.add, (
                t.duration for t in transactions_for_message(
                    pending.message, self.schedule.transfer_format)), 0)
            if cursor + duration > frame_end:
                self._pending_sporadic[station].appendleft(pending)
                continue
            cursor = self._serve_sporadic(pending, cursor)

        results.bus_busy_time += cursor - start
        self._bus_free_at = cursor

    def _serve_sporadic(self, pending: _PendingSporadic,
                        cursor: float) -> float:
        """Issue the transactions of one pending sporadic instance."""
        results = self._results
        for transaction in transactions_for_message(
                pending.message, self.schedule.transfer_format):
            cursor += transaction.duration
            self.transactions_issued.increment()
            self.trace.record(cursor, "bus.transaction", "bus-controller",
                              message=transaction.name,
                              words=transaction.data_words)
            if transaction.is_last_part:
                results.message_latencies[pending.message.name].record(
                    cursor - pending.release_time)
                results.instances_delivered += 1
        return cursor
