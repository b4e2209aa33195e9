"""A fixed reference kernel that measures how fast the machine is right now.

On a small shared machine the CPU's speed changes from second to second
with the load of its neighbours: the same op stream has been measured
anywhere between 24 and 45 ms per insert, and the slow and fast phases
last from under a second to minutes.  A wall-clock figure then says more
about the neighbours than about the program.

The probe is a pointer chase over Python objects, the kind of work the
program does.  It never changes with the code under test, so its
duration tracks only the machine.  The benchmark runs it after every
write and rescales each measured time to a *reference machine*: one on
which the probe takes :data:`REFERENCE_S`.  On the stream above that
turned a 15% coefficient of variation between repeats into under 2%.
"""

from __future__ import annotations

import random
import statistics
import time

#: The probe's duration on the reference machine.  Every time the
#: benchmark reports (``s``, ``ms``, ``1/s``) is a time on that machine.
REFERENCE_S = 0.002

#: Probe samples in the centred running median applied to each time.
WINDOW = 11


class _Node:
    __slots__ = ("key", "out")

    def __init__(self, key: int):
        self.key = key
        self.out: list[_Node] = []


class SpeedProbe:
    """The reference kernel, built once per process."""

    def __init__(self, nodes: int = 20_000, steps: int = 20_000):
        rng = random.Random(1)
        graph = [_Node(key) for key in range(nodes)]
        for node in graph:
            node.out = [graph[rng.randrange(nodes)] for _ in range(4)]
        self._start = graph[0]
        self._steps = steps

    def sample(self) -> float:
        """Run the kernel once; its duration in seconds."""
        start = time.perf_counter()
        node, total = self._start, 0
        for step in range(self._steps):
            node = node.out[step & 3]
            total += node.key
        return time.perf_counter() - start

    def samples(self, count: int) -> list[float]:
        return [self.sample() for _ in range(count)]


def scales(samples: list[float]) -> list[float]:
    """Per-sample factors that rescale a time to the reference machine.

    Each factor uses the centred running median of :data:`WINDOW`
    samples, so a single preempted probe does not move it.
    """
    half = WINDOW // 2
    return [
        REFERENCE_S / statistics.median(samples[max(0, i - half): i + half + 1])
        for i in range(len(samples))
    ]
