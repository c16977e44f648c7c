"""CPU time normalised to a reference host speed.

On a shared host the same code does not get the same CPU time twice: other
tenants on sibling hardware threads and shared caches slow it by 20-50% for
seconds to minutes at a time, so even CPU-time medians of identical runs
spread widely.  :class:`SpeedMeter` tracks that speed while the work runs.
A profiling timer interrupts the work every ``interval`` CPU seconds; the
handler times a fixed pure-Python canary, and each stretch of work between
two canaries is rescaled by ``REFERENCE_CANARY_S`` over the mean of the two.
The sum, ``ref_s``, is the work's CPU time on a host where the canary takes
the reference time; the canaries' own CPU time is left out of it.

The canary is an integer loop followed by a small discrete-event loop (a
heap of event objects and a dict of busy-until times).  The first tracks
the BLAS-bound training work best, the second the simulators; together
they tracked every workload about as well as either did its best one,
and better than dict probes or allocation churn.  They track it only in
part: on a shared 2-CPU VM, they explained half to three quarters of the
variance of repeated operations' CPU times.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from functools import partial

#: CPU time of the calling thread.  The work runs on the main thread (BLAS
#: is pinned to one thread).  Process CPU time would not do: while a
#: process-wide CPU timer is armed, Linux serves it from a sum refreshed
#: only at scheduler ticks.
thread_time = partial(time.clock_gettime, time.CLOCK_THREAD_CPUTIME_ID)

#: Canary CPU time that defines the reference speed: about the median of
#: an idle 2-CPU Xeon VM.
REFERENCE_CANARY_S = 0.0015
CANARY_LOOPS = 10_000
CANARY_EVENTS = 300
CANARY_NODES = 16

#: The meter running now.  SIGPROF is process-wide, so there is at most one.
_active: SpeedMeter | None = None


class _Event:
    __slots__ = ("node", "size")

    def __init__(self, node: int, size: int) -> None:
        self.node = node
        self.size = size


def canary() -> float:
    """CPU seconds of a fixed integer loop and a fixed event loop.

    In the event loop jobs queue for nodes, and a third of them hop on.
    """
    start = thread_time()
    total = 0
    for i in range(CANARY_LOOPS):
        total += i * i % 7
    rng = random.Random(1)
    heap = [(rng.random() * 100, i, _Event(i % CANARY_NODES, 1 + i % 5))
            for i in range(CANARY_EVENTS)]
    heapq.heapify(heap)
    busy: dict[int, float] = {}
    while heap:
        t, i, event = heapq.heappop(heap)
        begin = max(t, busy.get(event.node, 0.0))
        busy[event.node] = begin + event.size
        if i < 2 * CANARY_EVENTS and i % 3 == 0:
            hop = _Event((event.node + 1) % CANARY_NODES, event.size)
            heapq.heappush(heap, (begin + event.size, i + CANARY_EVENTS, hop))
    return thread_time() - start


def work_time() -> float:
    """Thread CPU time less the active meter's canaries: a clock for spans."""
    return thread_time() - (_active.canary_s if _active is not None else 0.0)


class SpeedMeter:
    """Context manager: ``with SpeedMeter() as m: work()``, then read ``m.ref_s``."""

    def __init__(self, interval: float = 0.04) -> None:
        self.interval = interval
        self.cpu_s = 0.0  # CPU time of the work alone
        self.ref_s = 0.0  # the same, rescaled to the reference speed
        self.canary_s = 0.0  # CPU time of the canaries
        self.canaries = 0
        self._previous: float | None = None
        self._segment_start = 0.0

    def _sample(self) -> None:
        work = thread_time() - self._segment_start
        c = canary()
        if self._previous is not None:
            self.cpu_s += work
            self.ref_s += work * REFERENCE_CANARY_S / ((self._previous + c) / 2)
        self._previous = c
        self.canary_s += c
        self.canaries += 1
        self._segment_start = thread_time()

    def _on_timer(self, signum, frame) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)  # no canary inside a canary
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def __enter__(self) -> SpeedMeter:
        global _active
        _active = self
        self._old_handler = signal.signal(signal.SIGPROF, self._on_timer)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        self._sample()
        _active = None
