"""Machine-speed reference: a fixed pure-Python loop timed between frames.

On the shared two-CPU machine the bounds were set on, the speed of this
process drifts in phases of seconds to minutes: the loop below takes about
34 us in a fast phase and 55-65 us in a slow one, and raw timings of
identical code spread by 20-40% between runs. So the benchmark times this
loop before every frame and reports durations in *reference time*: a
measured duration times PYTHON_REF_S over the median timing of the loop
around that moment. vipguide's per-frame work is mostly interpreter-bound,
like the loop.

The loop calls nothing in vipguide, so a change to the library moves the
reported figures by its own effect only, and it allocates no containers,
so the size of the program's heap does not slow it.
"""
from __future__ import annotations

import bisect
import statistics
import time

# The loop's time in a fast phase on that machine (Python 3.11.7, 2 vCPU
# x86-64). It fixes the scale of the figures, not their spread.
PYTHON_REF_S = 34e-6
NEIGHBOURS = 3  # probes either side of an instant whose median sets its scale

_TABLE = tuple(float(i % 7) + 0.25 for i in range(64))


class _Scale:
    factor = 1.5


def python_loop(rounds: int = 500) -> float:
    table, scale = _TABLE, _Scale()
    acc = 0.0
    for i in range(rounds):
        acc += table[i & 63] * scale.factor
        if acc > 1e6:
            acc -= 1e6
    return acc


class Clock:
    """The run's reference probes, and conversions to reference time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        python_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def factor(self, t: float) -> float:
        """Reference seconds per second at instant t: the nominal time over
        the median of the nearest probes."""
        k = bisect.bisect_left(self.starts, t)
        nearest = self.durations[max(0, k - NEIGHBOURS):k + NEIGHBOURS]
        return PYTHON_REF_S / statistics.median(nearest)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds for a span [t0, t1] with no probe inside."""
        return (t1 - t0) * self.factor((t0 + t1) / 2.0)

    def scaled_wall(self, t0: float, t1: float) -> float:
        """Reference seconds for a stream [t0, t1]: the pieces between its
        probes, each scaled by the probes around it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        total = 0.0
        cursor = t0
        for k in range(lo, hi):
            total += self.scaled(cursor, self.starts[k])
            cursor = self.ends[k]
        return total + self.scaled(cursor, t1)

    def stream_factor(self, t0: float, t1: float) -> float:
        """Reference seconds per second over a stream, for its layer spans."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.durations[lo:hi] or [PYTHON_REF_S / self.factor(t0)]
        return PYTHON_REF_S / statistics.median(inside)
