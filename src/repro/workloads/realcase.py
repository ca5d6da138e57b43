"""The synthetic "real case" military avionics message set.

The generator reproduces the structural features the paper discloses about
its case study:

* the **biggest message period is 160 ms** (the 1553B major frame) and the
  **smallest is 20 ms** (the minor frame); intermediate periods follow the
  usual binary ladder (40 ms, 80 ms),
* high-rate messages are small (sensor samples of a few 16-bit data words)
  while low-rate messages are larger (status blocks up to a full 32-word
  transaction),
* every station emits **at most one sporadic message of each type per 20 ms
  minor frame**, i.e. sporadic minimal inter-arrival times are at least
  20 ms,
* sporadic messages fall into three constraint classes: **urgent** (3 ms
  maximal response time — alarms and discrete commands of one or two data
  words), **medium** (20–160 ms response time) and **background**
  (above 160 ms, or no hard constraint — maintenance and bulk data, which
  are also the largest messages),
* traffic converges towards a small number of *heavy* stations (mission
  computer, data concentrator), which is what loads the shared resources.

The defaults are tuned so that the resulting set exhibits the paper's three
headline properties (checked by the test suite and the Figure 1 benchmark):

1. it fits on a MIL-STD-1553B bus — the 160 ms / 20 ms cyclic schedule is
   feasible,
2. the plain FCFS bound on a 10 Mbps Ethernet link **violates** the 3 ms
   constraint of the urgent class,
3. the four-queue strict-priority bounds **respect every constraint**.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from repro import units
from repro.errors import InvalidWorkloadError
from repro.flows.message_set import MessageSet
from repro.flows.messages import Message

__all__ = ["RealCaseParameters", "generate_real_case"]

#: The binary ladder of periods used by the case study (seconds).
PERIOD_LADDER = (units.ms(20), units.ms(40), units.ms(80), units.ms(160))

_T = TypeVar("_T")


@dataclass(frozen=True)
class RealCaseParameters:
    """Tunable structure of the synthetic case study.

    The defaults generate roughly 150 messages over 16 stations; every count
    is per station unless stated otherwise.
    """

    #: Number of end stations (remote terminals in the 1553B world).
    station_count: int = 16
    #: Periodic messages emitted by each regular station.
    periodic_per_station: int = 5
    #: Urgent sporadic messages (3 ms deadline) per station.
    urgent_per_station: int = 1
    #: Medium sporadic messages (20–160 ms deadline) per station.
    medium_per_station: int = 2
    #: Background sporadic messages (no hard deadline) per station.
    background_per_station: int = 1
    #: Probability that a periodic message uses each period of the ladder
    #: (20, 40, 80, 160 ms); favours slow messages as real systems do.
    period_weights: tuple[float, float, float, float] = (0.10, 0.20, 0.30, 0.40)
    #: Data-word ranges (min, max), in 16-bit words, indexed by period of the
    #: ladder: fast messages are small, slow ones larger.
    periodic_word_ranges: tuple[tuple[int, int], ...] = (
        (1, 8), (4, 16), (8, 32), (8, 24))
    #: Word range of urgent sporadic messages (alarms, discrete commands).
    urgent_words: tuple[int, int] = (1, 2)
    #: Word range of medium sporadic messages.
    medium_words: tuple[int, int] = (2, 6)
    #: Word range of background sporadic messages (bulk/maintenance data).
    background_words: tuple[int, int] = (32, 64)
    #: Fraction of regular-station traffic addressed to the mission computer.
    convergence_ratio: float = 0.7
    #: Index of the station acting as the mission computer (heavy sink).
    mission_computer_index: int = 0
    #: Index of the station acting as the data concentrator (second sink).
    concentrator_index: int = 1
    #: Urgent sporadic deadline (the paper's 3 ms).
    urgent_deadline: float = units.ms(3)
    #: Medium sporadic deadlines are drawn from this set (20–160 ms).
    medium_deadlines: tuple[float, ...] = (
        units.ms(20), units.ms(40), units.ms(80), units.ms(160))

    def __post_init__(self) -> None:
        if self.station_count < 4:
            raise InvalidWorkloadError(
                "the case study needs at least 4 stations")
        if len(self.period_weights) != len(PERIOD_LADDER):
            raise InvalidWorkloadError(
                f"period weights need one entry per ladder period "
                f"({len(PERIOD_LADDER)}), got {len(self.period_weights)}")
        if not all(weight >= 0.0 for weight in self.period_weights):
            raise InvalidWorkloadError(
                "period weights must be non-negative numbers")
        if abs(sum(self.period_weights) - 1.0) > 1e-9:
            raise InvalidWorkloadError("period weights must sum to 1")
        if len(self.periodic_word_ranges) != len(PERIOD_LADDER):
            raise InvalidWorkloadError(
                f"periodic word ranges need one entry per ladder period "
                f"({len(PERIOD_LADDER)}), got {len(self.periodic_word_ranges)}")
        for label, word_range in (
                *((f"periodic word range {index}", word_range)
                  for index, word_range
                  in enumerate(self.periodic_word_ranges)),
                ("urgent words", self.urgent_words),
                ("medium words", self.medium_words),
                ("background words", self.background_words)):
            _check_word_range(label, word_range)
        for label, index in (
                ("mission computer index", self.mission_computer_index),
                ("concentrator index", self.concentrator_index)):
            if not 0 <= index < self.station_count:
                raise InvalidWorkloadError(
                    f"{label} must name one of the {self.station_count} "
                    f"stations (0 to {self.station_count - 1}), got {index!r}")
        if self.mission_computer_index == self.concentrator_index:
            raise InvalidWorkloadError(
                "mission computer and concentrator must be different stations")
        if not 0.0 <= self.convergence_ratio <= 1.0:
            raise InvalidWorkloadError(
                "convergence ratio must be between 0 and 1")
        if not self.medium_deadlines:
            raise InvalidWorkloadError(
                "medium deadlines must list at least one deadline")
        if not all(deadline > 0.0 for deadline
                   in (self.urgent_deadline, *self.medium_deadlines)):
            raise InvalidWorkloadError(
                "urgent and medium deadlines must be positive")


def _check_word_range(label: str, word_range: tuple[int, int]) -> None:
    """Refuse a word range ``(low, high)`` generation cannot draw from."""
    low, high = word_range
    if not 1 <= low <= high:
        raise InvalidWorkloadError(
            f"{label} must satisfy 1 <= low <= high, got {word_range!r}")


def _station_name(index: int) -> str:
    return f"station-{index:02d}"


# The draws below read numpy's stream exactly as ``Generator.choice`` does,
# without its per-call array conversion and validation: a weighted choice
# is one ``random()`` searched in the normalised CDF (side="right"), and a
# uniform choice is one ``integers(0, len)``.  The generator's stream is
# pinned by ``tests/workloads/test_realcase.py``.

def _cdf(weights: Sequence[float]) -> list[float]:
    """The normalised cumulative weights, computed as numpy's ``choice``."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw_index(rng: np.random.Generator, cdf: list[float]) -> int:
    """``rng.choice(len(cdf), p=weights)`` for the weights behind ``cdf``."""
    return bisect_right(cdf, rng.random())


def _pick(rng: np.random.Generator, items: Sequence[_T]) -> _T:
    """``rng.choice(items)``, returning the item itself."""
    return items[int(rng.integers(0, len(items)))]


def generate_real_case(parameters: RealCaseParameters | None = None,
                       seed: int = 7,
                       name: str = "real-case") -> MessageSet:
    """Generate the seeded synthetic case-study message set.

    Parameters
    ----------
    parameters:
        Structure of the case study; defaults to :class:`RealCaseParameters`.
    seed:
        Seed of the generator — the same ``(parameters, seed)`` pair always
        produces the identical message set.
    name:
        Name given to the resulting :class:`~repro.flows.MessageSet`.
    """
    params = parameters or RealCaseParameters()
    rng = np.random.default_rng(seed)
    message_set = MessageSet(name=name)

    mission_computer = _station_name(params.mission_computer_index)
    concentrator = _station_name(params.concentrator_index)
    stations = [_station_name(i) for i in range(params.station_count)]
    period_cdf = _cdf(params.period_weights)
    others = {station: [s for s in stations if s != station]
              for station in stations}

    def pick_destination(source: str) -> str:
        """Regular stations mostly talk to the sinks; sinks talk to everyone."""
        if source in (mission_computer, concentrator):
            return _pick(rng, others[source])
        if rng.random() < params.convergence_ratio:
            return (mission_computer if rng.random() < 0.7 else concentrator)
        return _pick(rng, others[source])

    def draw_words(word_range: tuple[int, int]) -> int:
        low, high = word_range
        return int(rng.integers(low, high + 1))

    for station in stations:
        # Periodic messages -------------------------------------------------
        for index in range(params.periodic_per_station):
            ladder_index = _draw_index(rng, period_cdf)
            period = PERIOD_LADDER[ladder_index]
            words = draw_words(params.periodic_word_ranges[ladder_index])
            message_set.add(Message.periodic(
                name=f"{station}-per-{index:02d}",
                period=period,
                size=units.words1553(words),
                source=station,
                destination=pick_destination(station),
                words=words))
        # Urgent sporadic (3 ms deadline) ------------------------------------
        for index in range(params.urgent_per_station):
            words = draw_words(params.urgent_words)
            message_set.add(Message.sporadic(
                name=f"{station}-urg-{index:02d}",
                min_interarrival=units.ms(20),
                size=units.words1553(words),
                source=station,
                destination=pick_destination(station),
                deadline=params.urgent_deadline,
                words=words))
        # Medium sporadic (20-160 ms deadline) -------------------------------
        for index in range(params.medium_per_station):
            words = draw_words(params.medium_words)
            deadline = float(_pick(rng, params.medium_deadlines))
            message_set.add(Message.sporadic(
                name=f"{station}-spo-{index:02d}",
                min_interarrival=max(units.ms(20), deadline),
                size=units.words1553(words),
                source=station,
                destination=pick_destination(station),
                deadline=deadline,
                words=words))
        # Background sporadic (no hard deadline) ------------------------------
        for index in range(params.background_per_station):
            words = draw_words(params.background_words)
            message_set.add(Message.sporadic(
                name=f"{station}-bkg-{index:02d}",
                min_interarrival=units.ms(160),
                size=units.words1553(words),
                source=station,
                destination=pick_destination(station),
                deadline=None,
                words=words))

    return message_set
