"""Statistics collectors used to summarise simulation runs.

Three collectors cover the needs of the evaluation harness:

* :class:`LatencyRecorder` accumulates per-sample latencies (one sample per
  delivered message) and reports min / max / mean / percentiles and jitter,
* :class:`Counter` counts discrete occurrences (frames sent, frames dropped,
  buffer overflows...),
* :class:`TimeWeightedAverage` integrates a piecewise-constant signal over
  time (queue length, link busy state) and reports its time average and
  maximum.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "SummaryStatistics",
    "LatencyRecorder",
    "Counter",
    "TimeWeightedAverage",
]


@dataclass(frozen=True)
class SummaryStatistics:
    """Immutable summary of a sample set."""

    count: int
    minimum: float
    maximum: float
    mean: float
    std: float
    p50: float
    p95: float
    p99: float

    @property
    def jitter(self) -> float:
        """Peak-to-peak jitter: max − min of the samples."""
        return self.maximum - self.minimum

    @staticmethod
    def empty() -> "SummaryStatistics":
        """Summary of an empty sample set (all fields NaN, count 0)."""
        nan = float("nan")
        return SummaryStatistics(0, nan, nan, nan, nan, nan, nan, nan)


class LatencyRecorder:
    """Accumulates latency samples and produces a :class:`SummaryStatistics`.

    Samples live in an ``array('d')`` (C doubles, amortised O(1) appends,
    no per-sample Python float kept around).  :meth:`summary` reads the
    buffer through ``np.frombuffer`` and reduces it in one numpy pass, and
    the simulator appends delivered latencies straight into it through
    :attr:`sink`.

    Parameters
    ----------
    name:
        A label used in reports (e.g. the flow or priority-class name).
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples = array("d")

    def record(self, latency: float) -> None:
        """Add one latency sample (seconds)."""
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency!r}")
        self._samples.append(latency)

    def extend(self, latencies: Iterable[float]) -> None:
        """Add many latency samples at once."""
        values = np.asarray(list(latencies), dtype=np.float64)
        if values.size == 0:
            return
        if np.any(values < 0):
            worst = float(values.min())
            raise ValueError(f"latency must be non-negative, got {worst!r}")
        self._samples.frombytes(values.tobytes())

    @property
    def sink(self) -> Callable[[float], None]:
        """The buffer's own ``append``: adds one sample, unchecked.

        For producers that guarantee non-negative samples (a delivery's
        latency never is negative); one C-level call per sample.
        """
        return self._samples.append

    def _view(self) -> np.ndarray:
        """The samples as a read-only ``float64`` array (no copy)."""
        return np.frombuffer(self._samples, dtype=np.float64)

    @property
    def count(self) -> int:
        """Number of samples recorded so far."""
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        """A copy of the recorded samples, in insertion order."""
        return self._samples.tolist()

    @property
    def maximum(self) -> float:
        """Largest sample, or NaN if empty."""
        if not self._samples:
            return float("nan")
        return float(self._view().max())

    @property
    def minimum(self) -> float:
        """Smallest sample, or NaN if empty."""
        if not self._samples:
            return float("nan")
        return float(self._view().min())

    def summary(self) -> SummaryStatistics:
        """Compute the full summary of the samples recorded so far."""
        if not self._samples:
            return SummaryStatistics.empty()
        data = self._view()
        p50, p95, p99 = np.percentile(data, (50, 95, 99))
        return SummaryStatistics(
            count=int(data.size),
            minimum=float(data.min()),
            maximum=float(data.max()),
            mean=float(data.mean()),
            std=float(data.std()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
        )


class Counter:
    """A named integer counter.

    Hot model paths bump ``_value`` directly instead of calling
    :meth:`increment` — the call overhead is measurable at hundreds of
    thousands of events per second.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        """Increase the counter by ``amount`` (default 1)."""
        self._value += amount

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    def reset(self) -> None:
        """Reset the counter to zero."""
        self._value = 0


class TimeWeightedAverage:
    """Time-weighted statistics of a piecewise-constant signal.

    Typical use: queue occupancy in bits.  Call :meth:`update` every time the
    signal changes; call :meth:`close` (or pass ``until`` to :meth:`average`)
    to account for the final holding interval.
    """

    def __init__(self, initial_value: float = 0.0,
                 start_time: float = 0.0) -> None:
        self._current = float(initial_value)
        self._last_time = float(start_time)
        self._start_time = float(start_time)
        self._integral = 0.0
        self._maximum = float(initial_value)

    @property
    def current(self) -> float:
        """Current value of the signal."""
        return self._current

    @property
    def maximum(self) -> float:
        """Largest value the signal has taken."""
        return self._maximum

    def update(self, time: float, value: float) -> None:
        """Record that the signal takes ``value`` from ``time`` onwards."""
        if time < self._last_time:
            raise ValueError(
                f"time must not go backwards: {time} < {self._last_time}")
        self._integral += self._current * (time - self._last_time)
        self._last_time = time
        self._current = float(value)
        self._maximum = max(self._maximum, self._current)

    def average(self, until: float | None = None) -> float:
        """Time-average of the signal from the start until ``until``.

        ``until`` defaults to the time of the last update.  Returns NaN when
        the observation window has zero length.
        """
        end = self._last_time if until is None else until
        if end < self._last_time:
            raise ValueError("'until' precedes the last recorded update")
        integral = self._integral + self._current * (end - self._last_time)
        duration = end - self._start_time
        if duration <= 0:
            return float("nan")
        return integral / duration

    def close(self, time: float) -> None:
        """Extend the last holding interval to ``time`` without changing value."""
        self.update(time, self._current)


def safe_max(values: Iterable[float], default: float = 0.0) -> float:
    """``max`` that returns ``default`` for an empty iterable.

    Used by the bound computations where ``max_{j in higher classes} b_j``
    must be 0 when no lower-priority traffic exists.
    """
    best = None
    for value in values:
        if best is None or value > best:
            best = value
    if best is None:
        return default
    if math.isnan(best):
        return default
    return best
