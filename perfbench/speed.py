"""Host-speed sampling, so that times from a host whose clock speed drifts
can be compared.

On a shared host the CPU's speed changes while a run measures: a 2-vCPU
2.1 GHz Xeon guest was seen switching between two speeds about 1.5x apart,
in stretches of tens to hundreds of milliseconds.  :class:`Speedometer`
runs a fixed pure-Python snippet every :data:`PERIOD_S` seconds from a
``SIGALRM`` handler, in the measuring thread, and records how long it took.
:meth:`Speedometer.scaled` turns a CPU-time interval into *reference
seconds*: the interval minus the time spent sampling, times
:data:`REFERENCE_S` over the mean snippet time around the interval.  A
program that gets faster takes fewer reference seconds; a host that gets
slower changes them much less than it changes CPU time.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from typing import Any, List

#: Seconds of wall time between two samples.
PERIOD_S = 0.025
#: Snippet time that defines a reference second: about the snippet's time
#: at the faster of the two speeds of a 2.1 GHz Xeon host.
REFERENCE_S = 0.0004


class _Node:
    __slots__ = ("value", "count")

    def __init__(self, value: int) -> None:
        self.value = value
        self.count = 0

    def bump(self, step: int) -> int:
        self.count += step
        return self.count


_NODES = [_Node(i) for i in range(256)]


def snippet() -> None:
    """The fixed pure-Python work whose duration measures the host's speed.

    It mixes what the simulator's hot loop does: method calls on slotted
    objects, a heap of list entries and dict stores.
    """
    heap: List[list] = []
    table = {}
    for i in range(600):
        node = _NODES[(i * 37) & 255]
        heapq.heappush(heap, [node.bump(i) % 97, i, node])
        if len(heap) > 32:
            entry = heapq.heappop(heap)
            table[entry[1] & 63] = entry[0]


class Speedometer:
    """Samples the snippet's duration while started (see module docstring).

    ``clock`` is the clock the measured intervals are read from; sample
    times are stamped with it so an interval can find its samples.
    """

    def __init__(self, clock: Any = time.process_time) -> None:
        self.clock = clock
        self.stamps: List[float] = []
        self.durations: List[float] = []
        self._previous: Any = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Speedometer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _sample(self, signum: int, frame: Any) -> None:
        stamp = self.clock()
        began = time.perf_counter()
        snippet()
        self.durations.append(time.perf_counter() - began)
        self.stamps.append(stamp)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the clock interval ``[start, end]``.

        The host's speed over the interval is the mean duration of the
        samples taken inside it, widened to the nearest sample on each side
        so that short intervals have one.
        """
        if not self.durations:
            raise RuntimeError("no speed samples: was the speedometer started?")
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        sampling = sum(self.durations[lo:hi])
        around = self.durations[max(lo - 1, 0):hi + 1]
        return (end - start - sampling) * REFERENCE_S / statistics.fmean(around)

    def score(self) -> float:
        """Median speed: snippets per second."""
        return 1.0 / statistics.median(self.durations)
