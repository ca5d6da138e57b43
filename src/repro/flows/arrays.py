"""Struct-of-arrays view of a message population.

The analytic paths (flow aggregation, the closed-form multiplexer bounds,
the scalability sweep) only need the numeric columns of a message set —
periods, sizes, token-bucket bursts and rates, priority classes, deadlines.
:class:`MessageArrays` exposes exactly those columns as numpy arrays so the
hot loops become vectorised reductions instead of per-message Python
iterations.  A :class:`~repro.flows.message_set.MessageSet` builds its view
lazily (:meth:`MessageSet.arrays`) and invalidates it on mutation.

Numerical contract: every reduction used for bound computation is
:func:`math.fsum` over the column's values, the correctly rounded sum —
so the array backend reproduces the per-message reference loops exactly,
not merely approximately, on every Python version.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass, assign_priority

__all__ = ["MessageArrays"]


class MessageArrays:
    """Numeric columns of a message population, in insertion order.

    Attributes
    ----------
    names:
        Message names (tuple of str, aligned with every column).
    periods / sizes:
        Period ``T_i`` (seconds) and length ``b_i`` (bits) per message.
    rates:
        Token-bucket rates ``r_i = b_i / T_i`` (bits per second).
    deadlines:
        Deadlines in seconds; ``NaN`` encodes "no deadline".
    priorities:
        802.1p class codes (:class:`PriorityClass` values) per message;
        under the paper's policy ``priorities == PriorityClass.PERIODIC``
        is also the periodic-message mask.
    """

    __slots__ = ("names", "periods", "sizes", "rates", "deadlines",
                 "priorities")

    def __init__(self, messages: Iterable[Message]) -> None:
        population = list(messages)
        self.names: tuple[str, ...] = tuple(m.name for m in population)
        self.periods = np.array([m.period for m in population], dtype=float)
        self.sizes = np.array([m.size for m in population], dtype=float)
        # Elementwise division is the same IEEE operation as Message.rate
        # (periods are validated positive at message construction).
        self.rates = self.sizes / self.periods
        self.deadlines = np.array(
            [np.nan if m.deadline is None else m.deadline
             for m in population], dtype=float)
        self.priorities = np.array(
            [assign_priority(m).value for m in population], dtype=np.int8)

    def __len__(self) -> int:
        return len(self.names)

    # -- views ----------------------------------------------------------------

    @property
    def bursts(self) -> np.ndarray:
        """Token-bucket bursts ``b_i`` (bits) — the message sizes."""
        return self.sizes

    def class_mask(self, priority: PriorityClass) -> np.ndarray:
        """Boolean mask selecting the messages of one priority class."""
        return self.priorities == PriorityClass(priority).value

    def present_classes(self) -> list[PriorityClass]:
        """The priority classes with at least one message, most urgent first."""
        present = np.unique(self.priorities)
        return [PriorityClass(int(code)) for code in present]

    # -- aggregate quantities --------------------------------------------------

    def total_rate(self) -> float:
        """Sum of the token-bucket rates ``r_i`` (bits per second)."""
        return math.fsum(self.rates.tolist())

    def total_burst(self) -> float:
        """Sum of the token-bucket bursts ``b_i`` (bits)."""
        return math.fsum(self.sizes.tolist())

    def max_burst(self) -> float:
        """Largest single burst ``b_i`` (bits); 0 for an empty population."""
        return float(self.sizes.max()) if len(self) else 0.0

    def class_deadlines(self) -> dict[PriorityClass, float | None]:
        """Binding (smallest) deadline of every class present.

        Classes whose messages carry no deadline at all map to ``None``,
        matching the per-message reference scan.
        """
        deadlines: dict[PriorityClass, float | None] = {}
        for cls in self.present_classes():
            values = self.deadlines[self.class_mask(cls)]
            finite = values[~np.isnan(values)]
            deadlines[cls] = float(finite.min()) if finite.size else None
        return deadlines
