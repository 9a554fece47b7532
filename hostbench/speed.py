"""Host speed, sampled while the timed rounds run, and time in reference seconds.

The shared virtual machine this benchmark was written on loses time in
two ways.  Its virtual CPUs are now and then not running at all (steal
time), and while they run, a fixed piece of Python takes either about
0.6 or about 1.0 of its usual time, switching between the two within
seconds; how much of a minute is spent fast changes from one minute to
the next.  The simulator slows down with both, so host seconds measured
in one run can differ by 40% from those of the same code a few minutes
later.

Times here are read from the thread's CPU clock (:func:`time.thread_time`),
which leaves out the time the thread was not running, whether the guest
kernel ran something else or the hypervisor ran another guest (the
kernel accounts steal time apart).  That takes care of the first kind.

:class:`SpeedClock` measures the speed of the second kind while the
simulator runs.  A ``SIGALRM`` interval timer interrupts the process
every :data:`PERIOD_S` seconds of real time, and the handler times
:func:`probe`, a fixed piece of pure Python in the style of the
simulator (an event heap, generator steps, dict and attribute updates).
Python runs the handler between two bytecodes of whatever the simulator
was doing.  A probe that takes ``k`` times :data:`REFERENCE_S` of CPU
time says the host ran at ``1/k`` of the reference speed around it.
:meth:`SpeedClock.seconds` turns an interval of CPU time into
*reference seconds*: each stretch between two probes, divided by the
mean slowness of the two probes around it, with the probes' own time
left out.  A reference second is one second of CPU time at the speed at
which :func:`probe` takes :data:`REFERENCE_S`.

Both the probe and :data:`REFERENCE_S` are part of the benchmark and
stay fixed, so a change to the simulator moves reference seconds as it
moves CPU seconds.  The probe does not track every kind of slowdown
(see ``README.md``, "Run-to-run spread").
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
from time import thread_time
from types import FrameType
from typing import Any, Optional

__all__ = ["PERIOD_S", "REFERENCE_S", "SpeedClock", "probe"]

#: Real seconds between two probes.
PERIOD_S = 0.025

#: CPU time of one :func:`probe` at the reference speed: about its median
#: in a timed round on the 2-core x86 host the benchmark was written on,
#: where the simulator has just pushed it out of the processor's caches.
REFERENCE_S = 5.0e-4


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _steps(key: int):
    for step in range(8):
        yield (key + step) & 3


def probe() -> int:
    """A fixed piece of pure Python, about half a millisecond long."""
    table: dict[int, int] = {}
    cell = _Cell()
    acc = 0
    for i in range(350):
        table[i & 63] = i
        cell.value = acc + table.get((i * 7) & 63, 0)
        acc = cell.value & 0xFFFF
        acc += len(str(i))
    heap = [(key, key, _steps(key)) for key in range(16)]
    seq = len(heap)
    for _ in range(300):
        when, _, steps = heapq.heappop(heap)
        try:
            delay = next(steps)
        except StopIteration:
            steps, delay = _steps(when), 0
        seq += 1
        heapq.heappush(heap, (when + delay + 1, seq, steps))
    return acc + seq


class SpeedClock:
    """Probes the host's speed while running; converts CPU-time intervals.

    Use it as a context manager around the timed work, then ask
    :meth:`seconds` for the reference seconds of any interval inside it
    whose ends were read with :func:`time.thread_time` on the same
    thread.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._slowness: list[float] = []
        self._at_start: list[float] = []
        self._previous: Any = None

    def _probe(self, signum: int, frame: Optional[FrameType]) -> None:
        # A garbage collection that the probe's allocations happen to
        # trigger would walk the simulator's heap and be charged to the
        # probe; the simulator's next allocation triggers it instead.
        collecting = gc.isenabled()
        gc.disable()
        start = thread_time()
        probe()
        end = thread_time()
        if collecting:
            gc.enable()
        self.probes.append((start, end))

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probes:
            self._probe(signal.SIGALRM, None)
        self._starts = [start for start, _ in self.probes]
        self._slowness = [(end - start) / REFERENCE_S
                          for start, end in self.probes]
        # Reference seconds from the first probe's start to each probe's
        # start; a probe's own time counts for nothing.
        total, since = 0.0, self.probes[0][0]
        for k, (start, end) in enumerate(self.probes):
            total += (start - since) / self._stretch(k)
            self._at_start.append(total)
            since = end

    def _stretch(self, k: int) -> float:
        """Slowness of the stretch of CPU time that ends at probe ``k``."""
        slowness = self._slowness
        if k == 0:
            return slowness[0]
        if k == len(slowness):
            return slowness[-1]
        return (slowness[k - 1] + slowness[k]) / 2

    def _elapsed(self, t: float) -> float:
        """Reference seconds from the first probe's start to ``t``."""
        k = bisect.bisect_right(self._starts, t)
        if k == 0:
            return (t - self._starts[0]) / self._stretch(0)
        return (self._at_start[k - 1]
                + (t - self.probes[k - 1][1]) / self._stretch(k))

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the CPU-time interval ``[start, end]``."""
        return self._elapsed(end) - self._elapsed(start)

    def cpu_seconds(self, start: float, end: float) -> float:
        """CPU seconds of ``[start, end]``, the probes' own time left out."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        return (end - start) - sum(e - s for s, e in self.probes[first:last])

    def slowness(self) -> tuple[float, float, float]:
        """Lowest, median and highest probe slowness (1 = reference speed)."""
        ordered = sorted(self._slowness)
        return ordered[0], ordered[len(ordered) // 2], ordered[-1]
