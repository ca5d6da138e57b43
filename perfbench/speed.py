"""Reference seconds: wall time scaled by the host's speed at the time.

The shared hosts this benchmark runs on change speed by up to 2x for
seconds at a time, invisibly to the process: no steal time shows, and
CPU time inflates with wall time.  While a run measures, an interval
timer interrupts the benchmark's own thread every
:data:`SAMPLE_PERIOD_S` to time a fixed pure-Python loop (a *spin*) on
the same core, in the middle of the work.  A timed piece of work is its
wall time minus the spins that ran inside it, scaled by
:data:`REFERENCE_SPIN_S` over the mean spin time seen while it ran.  The
spin uses no ``repro`` code, so no change to the program moves it.

On a shared 2-vCPU virtual machine, 2.4 s campaigns of identical work varied by 8.5%
(coefficient of variation) in wall time and by 4.4% in reference
seconds; a sampler in a side process on the other core did not help.
Both figures are reported; the end-to-end metrics use reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Loop iterations of one spin (about half a millisecond).
SPIN_ITERATIONS = 3_000
#: What one spin takes on the reference host: the yardstick that turns
#: wall seconds into reference seconds.
REFERENCE_SPIN_S = 0.0005
#: Interval between two spins (the spins take about 1% of the time).
SAMPLE_PERIOD_S = 0.05
#: Spins a piece must hold to be scaled by its own spins alone.
NEAREST_SAMPLES = 3
#: Half-width of the window of spins that scales a shorter piece.
SHORT_WINDOW_S = 0.5


def spin(iterations: int = SPIN_ITERATIONS) -> tuple[float, float]:
    """``(start, end)`` of a fixed pure-Python loop run right now."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for value in range(iterations):
        key = value % 97
        table[key] = table.get(key, 0) + value * 3 // 7
    return started, time.perf_counter()


class SpeedSampler:
    """Spins on a ``SIGALRM`` interval timer while the context is open.

    Only the main thread receives the signal; system calls it interrupts
    are resumed (PEP 475), and child processes do not inherit the timer.
    """

    def __init__(self) -> None:
        #: ``(start, end)`` of every spin, in time order.
        self.spins: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.spins.append(spin())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        for _ in range(NEAREST_SAMPLES):
            self.spins.append(spin())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]``, less its spins, in
        reference seconds.

        A piece long enough to hold several spins is scaled by their mean;
        a shorter one (an HTTP request) by the median spin within
        :data:`SHORT_WINDOW_S` of it, which one slow spin cannot move.
        """
        spins = list(self.spins)
        inside = [e - s for s, e in spins if start <= s and e <= end]
        busy = (end - start) - sum(inside)
        if len(inside) >= NEAREST_SAMPLES:
            return busy * REFERENCE_SPIN_S / statistics.fmean(inside)
        middle = (start + end) / 2
        near = [e - s for s, e in spins
                if abs((s + e) / 2 - middle) <= SHORT_WINDOW_S]
        if len(near) < NEAREST_SAMPLES:
            near = [e - s for s, e in sorted(spins, key=lambda spun: abs(
                (spun[0] + spun[1]) / 2 - middle))[:NEAREST_SAMPLES]]
        return busy * REFERENCE_SPIN_S / statistics.median(near)
