"""Traffic sources: periodic and sporadic message generators.

The paper's workload mixes two traffic types:

* **periodic** messages released every ``T_i`` seconds,
* **sporadic** messages with a *minimal* inter-arrival time ``T_j`` — the
  worst case for the network is the "greedy" sporadic source that releases a
  new instance exactly every ``T_j`` (at most one per 20 ms minor frame, as
  the paper assumes).

Both source types hand :class:`~repro.ethernet.frame.MessageInstance` objects
to their station's :meth:`~repro.ethernet.station.EndStation.submit`; the
station's shapers and multiplexer do the rest.

The *synchronised* scenario (every source releasing its first instance at
``t = 0``) is the adversarial situation the analytic bounds are built for;
*staggered* and *random* scenarios draw offsets and inter-arrival slack from
the experiment's random streams to exercise average behaviour.
"""

from __future__ import annotations

from heapq import heappush

import numpy as np

from repro.errors import ConfigurationError
from repro.ethernet.frame import MessageInstance
from repro.ethernet.station import EndStation
from repro.flows.messages import Message
from repro.simulation.engine import Simulator

__all__ = ["PeriodicSource", "SporadicSource"]


class _SourceBase:
    """State shared by the two source types."""

    def __init__(self, simulator: Simulator, station: EndStation,
                 message: Message, offset: float = 0.0) -> None:
        if offset < 0:
            raise ConfigurationError(
                f"offset must be non-negative, got {offset!r}")
        if message.source != station.name:
            raise ConfigurationError(
                f"message {message.name!r} is emitted by "
                f"{message.source!r}, not by station {station.name!r}")
        self.simulator = simulator
        self.station = station
        self.message = message
        self.offset = float(offset)
        self._sequence = 0
        self._until: float | None = None

    @property
    def instances_released(self) -> int:
        """Number of instances generated so far."""
        return self._sequence

    def start(self, until: float) -> None:
        """Begin generating instances; stop releasing after ``until`` seconds."""
        if until <= 0:
            raise ConfigurationError(f"'until' must be positive, got {until!r}")
        self._until = float(until)
        if self.offset < self._until:
            # offset >= 0 >= the clock at start, so the fast path is safe.
            self.simulator.post_at(self.offset, self._fire, None)

    def _fire(self, _arg: object = None) -> None:
        """Release one instance (the argument is the fast-path placeholder)."""
        simulator = self.simulator
        instance = MessageInstance(self.message, self._sequence,
                                   simulator._now)  # direct slot read
        self._sequence += 1
        self.station.submit(instance)
        next_time = self._next_release_time()
        if self._until is not None and next_time < self._until:
            queue = simulator._queue  # inlined Simulator.post_at
            heappush(queue._heap,
                     (next_time, next(queue._sequence), self._fire, None))

    def _next_release_time(self) -> float:
        raise NotImplementedError


class PeriodicSource(_SourceBase):
    """Releases one instance every period, starting at ``offset``.

    Without jitter the whole release ladder ``offset + k·T`` is known at
    :meth:`start`, so it is precomputed in one vectorized numpy batch for
    the full run horizon (a couple of message hyper-periods) instead of one
    float multiply-add per chained callback.  The chained *event* itself is
    kept — scheduling each release from the previous one is what preserves
    the engine's deterministic same-instant tie-breaking, which the golden
    equivalence tests pin down.  ``k·T`` in numpy is the same IEEE-754
    multiply as in pure Python, so the precomputed instants are
    bit-identical to the chained computation.

    Parameters
    ----------
    jitter:
        Maximal release jitter in seconds; each release is delayed by a
        uniform draw in ``[0, jitter]`` from ``rng`` (0 disables jitter).
    rng:
        Random generator used for the jitter draws.
    """

    def __init__(self, simulator: Simulator, station: EndStation,
                 message: Message, offset: float = 0.0, jitter: float = 0.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(simulator, station, message, offset)
        if not message.is_periodic:
            raise ConfigurationError(
                f"message {message.name!r} is not periodic")
        if jitter < 0:
            raise ConfigurationError(
                f"jitter must be non-negative, got {jitter!r}")
        if jitter > 0 and rng is None:
            raise ConfigurationError("a random generator is needed for jitter")
        self.jitter = float(jitter)
        self.rng = rng
        #: Precomputed nominal release instants (jitter-free mode only).
        self._release_ladder: list[float] | None = None

    def start(self, until: float) -> None:
        """Begin generating instances; stop releasing after ``until`` seconds."""
        if self.jitter == 0 and until > 0:
            period = self.message.period
            count = int(np.ceil((until - self.offset) / period)) + 1
            if count > 0:
                self._release_ladder = (
                    self.offset
                    + np.arange(count, dtype=np.float64) * period).tolist()
        super().start(until)

    def _next_release_time(self) -> float:
        ladder = self._release_ladder
        if ladder is not None and self._sequence < len(ladder):
            nominal = ladder[self._sequence]
        else:
            nominal = self.offset + self._sequence * self.message.period
            if self.jitter > 0 and self.rng is not None:
                nominal += float(self.rng.uniform(0.0, self.jitter))
        # Never release in the past (a large jitter on the previous instance
        # must not reorder releases).
        now = self.simulator._now  # direct slot read
        return nominal if nominal >= now else now


class SporadicSource(_SourceBase):
    """Releases instances separated by at least the minimal inter-arrival time.

    Parameters
    ----------
    greedy:
        When ``True`` (the worst case assumed by the analysis) instances are
        released exactly every ``T_j``; when ``False`` an extra random slack,
        exponentially distributed with mean ``mean_slack``, is added between
        consecutive releases.
    mean_slack:
        Mean of the extra spacing used in non-greedy mode (seconds).
    rng:
        Random generator used in non-greedy mode.
    """

    def __init__(self, simulator: Simulator, station: EndStation,
                 message: Message, offset: float = 0.0, *,
                 greedy: bool = True, mean_slack: float = 0.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(simulator, station, message, offset)
        if not message.is_sporadic:
            raise ConfigurationError(
                f"message {message.name!r} is not sporadic")
        if mean_slack < 0:
            raise ConfigurationError(
                f"mean slack must be non-negative, got {mean_slack!r}")
        if not greedy and mean_slack > 0 and rng is None:
            raise ConfigurationError(
                "a random generator is needed for non-greedy sporadic sources")
        self.greedy = bool(greedy)
        self.mean_slack = float(mean_slack)
        self.rng = rng

    def _next_release_time(self) -> float:
        spacing = self.message.period
        if not self.greedy and self.mean_slack > 0 and self.rng is not None:
            spacing += float(self.rng.exponential(self.mean_slack))
        return self.simulator._now + spacing
