"""Host-speed reference for the end-to-end timings.

The 2-core hosts this benchmark was built on change speed for minutes
at a time: the same pass reads 20-30% slower in one run than in the
next, and no statistic taken inside one run removes that.  So every
pass times a fixed reference slice between its operations — pure
interpreter work that allocates no garbage-collected object, so it
neither triggers nor absorbs a collection of the program's garbage —
and each operation's time is scaled by ``REFERENCE_SECONDS`` over the
median of the slices timed nearest to it.  A scaled time reads as
host seconds on a host whose reference slice takes
``REFERENCE_SECONDS``; changes in the program move it, changes in the
host's speed mostly cancel.  The raw times are printed beside it.
"""

from __future__ import annotations

import bisect
import statistics
import time

perf_counter = time.perf_counter

# A slice's duration on the 2-core reference host in its fast phase.
REFERENCE_SECONDS = 0.0006
# Time between slices while operations run, and how many slices on
# each side of an operation its scale comes from.
SLICE_INTERVAL = 0.02
NEIGHBOURS = 10

_TABLE = {index: (index * 7919) % 1009 for index in range(1024)}
_SLOTS = [0] * 1024


def _step(value: int, index: int) -> int:
    return (value * 31 + _TABLE[index]) & 0xFFFF


def reference_slice(rounds: int = 2000) -> int:
    """Fixed interpreter-bound work: calls, dict and list indexing,
    integer arithmetic, no tracked allocations."""
    table, slots, step = _TABLE, _SLOTS, _step
    value = 1
    for round_ in range(rounds):
        index = round_ & 1023
        value = step(value, index)
        slots[index] = value
        if value & 1:
            value ^= table[(value >> 3) & 1023]
    return value


class Calibrator:
    """Times reference slices during a pass and scales operations."""

    def __init__(self):
        self.ends: list[float] = []       # perf_counter at each slice end
        self.durations: list[float] = []
        self.spent = 0.0                  # seconds spent in slices

    def sample(self) -> None:
        started = perf_counter()
        reference_slice()
        ended = perf_counter()
        self.ends.append(ended)
        self.durations.append(ended - started)
        self.spent += ended - started

    def maybe_sample(self) -> None:
        """Sample unless a slice ran within the last ``SLICE_INTERVAL``."""
        if not self.ends or perf_counter() - self.ends[-1] >= SLICE_INTERVAL:
            self.sample()

    def scale_at(self, moment: float) -> float:
        """Reference over the local median slice around ``moment``."""
        if not self.durations:
            return 1.0
        index = bisect.bisect_left(self.ends, moment)
        low = max(0, index - NEIGHBOURS)
        high = min(len(self.durations), index + NEIGHBOURS)
        return REFERENCE_SECONDS / statistics.median(
            self.durations[low:high])

    def scale_ops(self, ops: list[tuple[float, float]]) -> list[float]:
        """Scaled durations of ``(end time, raw seconds)`` operations."""
        return [seconds * self.scale_at(ended) for ended, seconds in ops]

    @property
    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3 \
            if self.durations else 0.0

