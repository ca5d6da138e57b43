"""Arrival curves.

An *arrival curve* ``alpha`` upper-bounds the amount of traffic a flow may
produce over any interval: for every ``s <= t``, the cumulative arrivals
``A(t) - A(s) <= alpha(t - s)``.

The paper uses the token-bucket (affine) arrival curve
``R_i(t) = b_i + r_i t`` produced by the per-flow traffic shaper, where
``b_i`` is the message length and ``r_i = b_i / T_i`` the long-term rate.
Periodic flows also admit the tighter *stair* curve
``b * ceil(t / T)``, which this module provides as well (it is used by the
ablation experiments to quantify the pessimism of the affine model).

All curves are wide-sense increasing functions of the interval length, with
``alpha(0) >= 0``; by convention the value at ``t = 0`` is the instantaneous
burst the flow may emit (``b`` for a token bucket).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.errors import CurveDomainError, EmptyAggregateError

__all__ = [
    "ArrivalCurve",
    "TokenBucketArrivalCurve",
    "StairArrivalCurve",
    "AggregateArrivalCurve",
]


@runtime_checkable
class ArrivalCurve(Protocol):
    """Protocol every arrival curve implements.

    An arrival curve is a callable mapping an interval length (seconds) to a
    traffic volume (bits), plus two headline figures: the long-term ``rate``
    and the instantaneous ``burst``.
    """

    def __call__(self, interval: float) -> float:
        """Maximal traffic (bits) over any window of length ``interval``."""
        ...

    @property
    def rate(self) -> float:
        """Long-term rate (bits per second): ``lim alpha(t) / t``."""
        ...

    @property
    def burst(self) -> float:
        """Instantaneous burst (bits): ``alpha(0+)``."""
        ...


def _check_interval(interval: float | np.ndarray) -> None:
    negative = (bool(np.any(interval < 0))
                if isinstance(interval, np.ndarray) else interval < 0)
    if negative:
        raise CurveDomainError(
            f"arrival curves are defined for non-negative intervals, "
            f"got {interval!r}")


@dataclass(frozen=True)
class TokenBucketArrivalCurve:
    """The affine curve ``alpha(t) = b + r t`` of a token-bucket shaper.

    This is exactly the ``R_i(t) = b_i + r_i t`` constraint of the paper.

    Attributes
    ----------
    bucket:
        Bucket size ``b`` in bits (the maximal instantaneous burst).
    token_rate:
        Token accumulation rate ``r`` in bits per second.
    """

    bucket: float
    token_rate: float

    def __post_init__(self) -> None:
        if self.bucket < 0:
            raise CurveDomainError(
                f"bucket size must be non-negative, got {self.bucket!r}")
        if self.token_rate < 0:
            raise CurveDomainError(
                f"token rate must be non-negative, got {self.token_rate!r}")

    def __call__(self, interval: float | np.ndarray) -> float | np.ndarray:
        """``b + r t``; accepts a scalar or an array of interval lengths.

        At ``t = 0`` the affine expression evaluates to the bucket exactly
        (``r * 0.0 == 0.0``), so no scalar special case is needed.
        """
        _check_interval(interval)
        return self.bucket + self.token_rate * interval

    @property
    def rate(self) -> float:
        """Long-term rate ``r`` (bits per second)."""
        return self.token_rate

    @property
    def burst(self) -> float:
        """Burst ``b`` (bits)."""
        return self.bucket

    def __add__(self, other: "TokenBucketArrivalCurve"
                ) -> "TokenBucketArrivalCurve":
        """Sum of two token-bucket curves is a token-bucket curve.

        The aggregate of independently shaped flows entering the same
        multiplexer is constrained by the sum of their individual curves:
        ``(b1 + b2, r1 + r2)``.
        """
        if not isinstance(other, TokenBucketArrivalCurve):
            return NotImplemented
        return TokenBucketArrivalCurve(self.bucket + other.bucket,
                                       self.token_rate + other.token_rate)

    @classmethod
    def from_message(cls, message: "object") -> "TokenBucketArrivalCurve":
        """Build the paper's shaper curve ``(b_i, r_i = b_i / T_i)``.

        ``message`` is any object exposing ``burst`` and ``rate`` attributes
        (:class:`repro.flows.Message`, :class:`repro.flows.Flow`,
        :class:`repro.flows.VirtualLink`...).
        """
        return cls(bucket=float(message.burst), token_rate=float(message.rate))


@dataclass(frozen=True)
class StairArrivalCurve:
    """The stair curve ``alpha(t) = b * (floor((t + j) / T) + 1)``.

    A strictly periodic flow of period ``T`` releasing at most one message of
    ``b`` bits per period, with release jitter up to ``jitter`` seconds, is
    bounded by this curve (over a closed window of length ``t`` at most
    ``floor((t + j)/T) + 1`` instances can arrive).  It is tighter than the
    affine token bucket for most interval lengths while never being exceeded
    by the actual traffic.

    Attributes
    ----------
    message_size:
        Size ``b`` of one message, in bits.
    period:
        Period ``T`` in seconds.
    jitter:
        Release jitter in seconds (default 0).
    """

    message_size: float
    period: float
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.message_size <= 0:
            raise CurveDomainError(
                f"message size must be positive, got {self.message_size!r}")
        if self.period <= 0:
            raise CurveDomainError(
                f"period must be positive, got {self.period!r}")
        if self.jitter < 0:
            raise CurveDomainError(
                f"jitter must be non-negative, got {self.jitter!r}")

    def __call__(self, interval: float | np.ndarray) -> float | np.ndarray:
        _check_interval(interval)
        return self.message_size * (
            np.floor((interval + self.jitter) / self.period) + 1)

    @property
    def rate(self) -> float:
        """Long-term rate ``b / T`` (bits per second)."""
        return self.message_size / self.period

    @property
    def burst(self) -> float:
        """Traffic the flow can emit instantaneously (one message, plus the
        extra messages an adversarial jitter placement allows)."""
        return self(0.0)

    def to_token_bucket(self) -> TokenBucketArrivalCurve:
        """The tightest affine curve dominating this stair curve.

        ``b + r t`` with ``b = b(1 + j/T)`` and ``r = b / T`` dominates
        ``b (floor((t + j)/T) + 1)`` for every ``t >= 0``.
        """
        bucket = self.message_size * (1.0 + self.jitter / self.period)
        return TokenBucketArrivalCurve(bucket=bucket, token_rate=self.rate)


class AggregateArrivalCurve:
    """Sum of several arrival curves (the aggregate entering a multiplexer).

    The sum of arrival curves of independent flows is an arrival curve of
    their aggregate.  This class evaluates the sum lazily so heterogeneous
    curve types (token buckets and stair curves) can be mixed.
    """

    def __init__(self, curves: Iterable[ArrivalCurve]) -> None:
        self._curves: list[ArrivalCurve] = list(curves)
        if not self._curves:
            raise EmptyAggregateError(
                "an aggregate arrival curve needs at least one component")

    def __call__(self, interval: float) -> float:
        _check_interval(interval)
        return sum(curve(interval) for curve in self._curves)

    def __len__(self) -> int:
        return len(self._curves)

    @property
    def components(self) -> list[ArrivalCurve]:
        """The component curves (copy of the internal list)."""
        return list(self._curves)

    @property
    def rate(self) -> float:
        """Sum of the component long-term rates (bits per second)."""
        return math.fsum(curve.rate for curve in self._curves)

    @property
    def burst(self) -> float:
        """Sum of the component bursts (bits)."""
        return math.fsum(curve.burst for curve in self._curves)
