"""How fast the box is right now: a fixed reference loop, timed.

This machine is a few cores of a shared host.  200 back-to-back reps of
the identical ``dag-build`` child read 2.30 to 4.33 s, in episodes: five
minutes at 2.4-2.6 s, then five at 3.0-4.0 s, CPU time rising with wall
time.  No statistic over one run's reps removes an episode longer than
the run, so every rep times this loop around and between the pieces of
its timed region (``child.TimedRegion``) and divides the host's speed
out of each piece (see ``slowdown``).

The loop belongs to the benchmark, not to the program.  It runs on the
core the program has just run on, with the collector off, so that the
size of the program's heap does not enter its time.  It does what the
simulator's hot paths do — heap pushes and pops, dict stores, small
slotted objects, short SHA-256 inputs — so that what slows them slows
it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import time
from typing import List, Tuple

#: Seconds one ``reference_loop()`` takes on this box when it is quiet:
#: the speed every reported time is scaled to.  A constant, so that two
#: commits are scaled alike.
REFERENCE_LOOP_S = 0.0195
#: Loops in one reading (about 0.15 s).
SAMPLES = 6


class _Entry:
    __slots__ = ("key", "rank", "payload")

    def __init__(self, key: int, rank: int) -> None:
        self.key = key
        self.rank = rank
        self.payload = None


def reference_loop(steps: int = 30000) -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    began = time.perf_counter()
    heap: List[Tuple[int, int, _Entry]] = []
    table = {}
    popped = []
    for step in range(steps):
        entry = _Entry(step, (step * 7919) % 1013)
        heapq.heappush(heap, (entry.rank, step, entry))
        table[step] = entry
        if step & 3 == 0:
            popped.append(heapq.heappop(heap)[2])
        if step & 15 == 0:
            hashlib.sha256(b"%d" % step * 8).hexdigest()
    total = 0
    for key in table:
        total += table[key].rank
    return time.perf_counter() - began


def loop_s(samples: int = SAMPLES) -> float:
    """One reading: the mean time of ``samples`` reference loops."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        reference_loop(steps=3000)  # the first pass pays for cold caches
        return sum(reference_loop() for _ in range(samples)) / samples
    finally:
        if collecting:
            gc.enable()


def slowdown(*loop_times: float) -> float:
    """Measured loop time over the reference: 1.0 on the quiet box."""
    return sum(loop_times) / len(loop_times) / REFERENCE_LOOP_S
