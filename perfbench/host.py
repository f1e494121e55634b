"""Host normalisation: a fixed reference kernel timed beside the program.

The 2-vCPU hosts this benchmark runs on drift in speed by tens of percent
between (and within) processes, and CPU time drifts with wall time, so the
drift is the machine's speed, not descheduling.  A raw latency therefore
mixes the program's cost with the host's mood.  :class:`HostClock` times a
fixed kernel on the timing thread, interleaved with the measured work and
only while the program has nothing runnable.  Each raw time is then
rescaled to what it would have been on a host running the kernel in
exactly its nominal time::

    normalised = raw * REF_NOMINAL_MS[mix] / median(nearest kernel timings)

The kernel is a mix like the program's, and it comes in two mixes because
the parts react differently to a slow host.  The ``array`` mix is an
interpreted loop plus numpy ``sort``/``unique``; the ``mixed`` mix adds an
object graph built, walked and indexed by name.  When the host slows, the
object graph slows most, numpy least.  A workload spending most of its
time in numpy array code (curve decode/scatter, MIP render) tracks the
``array`` mix; one spending it in interpreted planning and execution over
object graphs tracks the ``mixed`` one.

The garbage collector is off while the kernel runs: a collection it
triggered would scan the program's heap, whose size is the program's
business, not the host's.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

__all__ = ["REF_NOMINAL_MS", "REF_EVERY_S", "REF_NEAREST", "HostClock",
           "reference_kernel"]

#: each kernel mix's time on the nominal host, in ms (about its median on
#: a 2-vCPU x86-64 VM under Python 3.11 / numpy 2.4 at its faster
#: speed); normalised times read as "ms on that host"
REF_NOMINAL_MS = {"array": 3.0, "mixed": 5.0}

#: a kernel sample is taken whenever this much time has passed since the
#: last one (checked between ops, so ops longer than this get one each)
REF_EVERY_S = 0.05

#: how many samples, nearest in time, set one op's scale
REF_NEAREST = 5

_KEY_COUNT = 100_000
_UNIQUE_COUNT = 8_000
_LOOP_ROUNDS = 12_000
_TREE_LEAVES = 3_000


class HostClock:
    """Reference-kernel samples over one run, and the scale they imply."""

    def __init__(self, mix: str = "mixed", kernel=None):
        self.nominal_ms = REF_NOMINAL_MS[mix]
        keys = np.random.default_rng(20_240_601).integers(0, 1 << 15,
                                                          _KEY_COUNT)
        objects = mix == "mixed"
        self._kernel = kernel or (lambda: reference_kernel(keys, objects))
        self.times: list[float] = []  # sample midpoints, perf_counter s
        self.durations: list[float] = []  # sample durations, s

    def sample(self, count: int = 1) -> list[float]:
        """Run the kernel ``count`` times; returns the durations (s)."""
        taken = []
        collecting = gc.isenabled()
        for _ in range(count):
            gc.disable()
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            if collecting:
                gc.enable()
            self.times.append((start + end) / 2)
            self.durations.append(end - start)
            taken.append(end - start)
        return taken

    def due(self) -> bool:
        """Has :data:`REF_EVERY_S` passed since the last sample?"""
        return (not self.times
                or time.perf_counter() - self.times[-1] >= REF_EVERY_S)

    def scale_for(self, durations: list[float]) -> float:
        """The normalising factor implied by some kernel durations (s)."""
        return self.nominal_ms / (statistics.median(durations) * 1e3)

    def scale_at(self, when: float) -> float:
        """The factor that normalises a time measured at ``when``."""
        if not self.times:
            raise RuntimeError("no reference samples taken")
        at = bisect.bisect_left(self.times, when)
        lo = max(0, at - REF_NEAREST)
        window = range(lo, min(len(self.times), at + REF_NEAREST))
        nearest = sorted(window, key=lambda i: abs(self.times[i] - when))
        return self.scale_for([self.durations[i]
                               for i in nearest[:REF_NEAREST]])

    def median_ms(self) -> float:
        """Median kernel time over every sample of the run, in ms."""
        return statistics.median(self.durations) * 1e3


class _Node:
    __slots__ = ("kind", "kids", "value")

    def __init__(self, kind: str, kids: tuple, value):
        self.kind = kind
        self.kids = kids
        self.value = value


def reference_kernel(keys: np.ndarray, objects: bool = True) -> int:
    """The fixed unit of host work: loop, [object graph,] sort, unique."""
    acc = 0
    for i in range(_LOOP_ROUNDS):
        acc = (acc * 31 + i) % 1_000_003
    if objects:
        level = [_Node("leaf", (), i) for i in range(_TREE_LEAVES)]
        while len(level) > 1:
            level = [_Node("node", tuple(level[i:i + 3]), None)
                     for i in range(0, len(level), 3)]
        names = {}
        stack = [level[0]]
        while stack:
            node = stack.pop()
            if node.kind == "leaf":
                acc += node.value
                names[f"k{node.value % 500}"] = node
            else:
                stack.extend(node.kids)
        acc += len(names)
    ordered = np.sort(keys)
    distinct = np.unique(keys[:_UNIQUE_COUNT])
    return acc + int(ordered[-1]) + len(distinct)
