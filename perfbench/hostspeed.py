"""Host-speed reference: a fixed pure-Python kernel timed during a run.

On a shared host the same code runs up to a third slower in some minutes,
and up to a quarter slower in some seconds, than in others, because of
load from other tenants on the same cores.  Runs a few minutes apart
then differ by more than any change worth detecting.  The kernel below
does not touch the library.  It is timed in groups between the
benchmark's operations, never inside a timed region.  Each timed
interval is scaled by ``REFERENCE_S`` over the kernel time of the groups
just before and just after it, which puts it at the speed of the host
the constant was taken on.  The raw values are printed beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

# Typical kernel time on the tuning host (2-core x86-64 VM, CPython
# 3.11.7). It only sets the scale of the reported numbers.
REFERENCE_S = 0.0100
MIN_INTERVAL_S = 0.5
GROUP = 3
TIME_UNITS = ("s", "ms", "us")


class _Item:
    def __init__(self, i, xs):
        self.i = i
        self.xs = xs


def kernel() -> int:
    """Integer arithmetic, then small containers through JSON and back into
    objects, in about equal shares: a shared host slows the two kinds of
    work by different amounts, and the library's paths do both."""
    total = 0
    for i in range(50_000):
        total += i * i
    items = [{"id": i, "xs": [i, i + 1, i + 2], "name": f"n{i}"} for i in range(800)]
    for d in json.loads(json.dumps(items)):
        total += _Item(d["id"], tuple(d["xs"])).i
    return total


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        # One (perf_counter_ns at its end, median kernel seconds) per group.
        self._ends: list[int] = []
        self._medians: list[float] = []

    def sample(self, count: int = GROUP) -> None:
        times = []
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.samples += times
        self._ends.append(time.perf_counter_ns())
        self._medians.append(statistics.median(times))

    def maybe_sample(self) -> None:
        """Sample when at least MIN_INTERVAL_S passed since the last group."""
        if not self._ends or time.perf_counter_ns() - self._ends[-1] >= MIN_INTERVAL_S * 1e9:
            self.sample()

    @property
    def scale(self) -> float:
        """Measured times times this are times at the reference speed, over
        the whole run."""
        return REFERENCE_S / statistics.median(self.samples)

    def local_scale(self, start_ns: int, end_ns: int) -> float:
        """The same for one interval (``perf_counter_ns``), from the groups
        just before it and just after it."""
        before = bisect.bisect_right(self._ends, start_ns) - 1
        after = bisect.bisect_left(self._ends, end_ns)
        around = [self._medians[i] for i in (before, after) if 0 <= i < len(self._medians)]
        return REFERENCE_S / statistics.mean(around)


def at_scale(value: float, unit: str, scale: float) -> float:
    """A time, or a rate per second, multiplied (or divided) by ``scale``."""
    if unit == "1/s":
        return value / scale
    if unit in TIME_UNITS:
        return value * scale
    return value
