"""Machine-speed readings, for times that hold still on a shared host.

On a host whose cores are shared with other machines, the same code runs
up to twice as fast in one ten-second stretch as in the next. A fixed
reference task that does not call into ``sturm`` slows down with it. An
item's time divided by the median reading of the reference around it,
times the reference's nominal time, is what the item would have taken
at a fixed machine speed (``Speedometer.normalize``). A change to
``sturm`` moves that time in full, because the reference does not run
its code.

In-process work is read with ``TimerSpeedometer``: a short reference
task timed on an interval timer, so that a two-second item gets forty
readings of its own. During the passes the task is ``mixed_reference``,
whose dict and small-array work slows down under contention about as
much as ``sturm`` does; the integer loop alone slows down less. Work
done by cold interpreters is read with a bare interpreter start between
items (see the ``cli_cold`` workload); an in-process task tracks exec,
page faults and imports poorly.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter
from typing import Callable

# An item's speed is the median of the readings taken while it ran,
# widened to at least this many of the nearest readings.
MIN_READINGS = 5
# Least gap between readings taken between items.
GAP_S = 0.1
# Interval of the timer readings; they cost about 2% of the time.
TICK_S = 0.05
LOOP_STEPS = 5_000
# Nominal times of the reference tasks: normalized times are the times
# on a machine where the task takes this long. On a 2-vCPU Xeon guest
# under CPython 3.11 the loop takes about 0.35 ms, the mix about 1 ms.
LOOP_NOMINAL_S = 2.5e-4
MIX_NOMINAL_S = 1e-3


def reference_loop() -> float:
    """Seconds a fixed integer loop takes."""
    t0 = perf_counter()
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i
    return perf_counter() - t0


def mixed_reference() -> Callable[[], float]:
    """A reference task in three parts of about equal time: the integer
    loop, dict updates and a sort, and numpy operations on 13 x 13
    arrays. It makes no objects the garbage collector tracks beyond one
    dict and one list, so it does not set off the program's collections.
    Imports numpy, so set-ups, which time that import, use the loop."""
    import numpy as np

    grid = np.arange(169).reshape(13, 13)

    def task() -> float:
        t0 = perf_counter()
        total = 0
        for i in range(LOOP_STEPS):
            total += i * i
        table: dict[int, int] = {}
        for i in range(1_500):
            key = (i * 7919) % 1021
            table[key] = table.get(key, 0) + i
        sorted(table)
        for i in range(60):
            (grid[i % 13] > i).sum()
            grid.T @ grid[:, i % 13]
        return perf_counter() - t0

    return task


class Speedometer:
    """Readings of a reference task, taken between items (``sample``),
    at most one per ``GAP_S``."""

    def __init__(self, reference: Callable[[], float], nominal_s: float) -> None:
        self.reference, self.nominal_s = reference, nominal_s
        self.at: list[float] = []
        self.seconds: list[float] = []
        # Seconds spent reading inside items; the runner subtracts them.
        self.spent = 0.0

    def sample(self, force: bool = False) -> None:
        now = perf_counter()
        if force or not self.at or now - self.at[-1] >= GAP_S:
            self.seconds.append(self.reference())
            self.at.append(now)

    def slowdown(self, start: float, end: float) -> float:
        """Median reading taken from ``start`` to ``end``, widened to the
        ``MIN_READINGS`` nearest, over the nominal time."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        short = max(0, MIN_READINGS - (hi - lo))
        lo, hi = max(0, lo - (short + 1) // 2), hi + (short + 1) // 2
        return statistics.median(self.seconds[lo:hi]) / self.nominal_s

    def normalize(self, start: float, seconds: float) -> float:
        return seconds / self.slowdown(start, start + seconds)

    def start(self) -> None:
        """Readings between items need no timer."""

    def stop(self) -> None:
        pass


class TimerSpeedometer(Speedometer):
    """Readings of the reference every ``TICK_S``, between and during
    items, from a ``SIGALRM`` handler while started."""

    def __init__(
        self, reference: Callable[[], float] = reference_loop, nominal_s: float = LOOP_NOMINAL_S
    ) -> None:
        super().__init__(reference, nominal_s)

    def sample(self, force: bool = False) -> None:
        """Readings come from the timer; ``force`` takes one now."""
        if force:
            self._tick(signal.SIGALRM, None)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.seconds.append(self.reference())
        self.at.append(t0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
