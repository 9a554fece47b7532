"""The discrete-event simulation engine.

A :class:`Simulator` owns a monotonically increasing cycle counter and a
queue of pending events.  Components schedule callbacks with
:meth:`Simulator.schedule`; :meth:`Simulator.run` drains the queue in
timestamp order.  Ties are broken by insertion order, which makes every
simulation fully deterministic.

The queue is a two-level structure tuned for the delays this machine
actually schedules (see ``docs/performance.md``):

* a **calendar front end** — a ring of ``_WINDOW`` per-cycle buckets
  covering ``[now, now + _WINDOW)``.  The small integer delays that
  dominate (cache hits, controller occupancy, memory service, mesh
  hops) land here with one ``list.append`` and drain with no
  comparisons at all;
* a **heap back end** (``heapq``) for the rare far-future events, e.g.
  deliveries delayed behind a long network-port backlog.

Both levels carry ``(time, seq, fn, args)`` entries, so events at the
same cycle replay in exact insertion order even when they straddle the
two levels.  The engine knows nothing about multiprocessors; the machine
model in :mod:`repro.machine` is built entirely out of scheduled
callbacks.
"""

from __future__ import annotations

import heapq
import sys
from time import perf_counter_ns
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..obs.profile import active_profiler
from ..obs.registry import MetricsRegistry

__all__ = ["Simulator"]


class Simulator:
    """A deterministic discrete-event simulator with an integer clock."""

    #: Width (in cycles) of the calendar-queue window.  Power of two so
    #: the bucket index is a mask instead of a modulo.
    _WINDOW = 256
    _MASK = _WINDOW - 1

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._now: int = 0
        # Far-future events (delay >= _WINDOW): a classic binary heap.
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        # Near-future events: one bucket per cycle in [now, now+_WINDOW).
        # Invariant: all entries in one bucket share a single timestamp
        # (two distinct times in the window cannot collide mod _WINDOW).
        self._buckets: list[list[tuple[int, int, Callable[..., None], tuple]]]
        self._buckets = [[] for _ in range(self._WINDOW)]
        self._near: int = 0
        # No bucket entry has a timestamp earlier than _cursor.
        self._cursor: int = 0
        self._seq: int = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events_processed = self.registry.counter("sim.events_processed")
        # Host-observability hooks.  When either is attached, run()
        # dispatches to _run_observed(); the fast loop stays untouched,
        # so the disabled path's only cost is one check per run() call.
        self._profiler = active_profiler()
        self._hb_every: int = 0
        self._hb_fire: Optional[Callable[[int, int, int], None]] = None
        self._hb_countdown: int = 0

    @property
    def events_processed(self) -> int:
        """Total events executed (registry: ``sim.events_processed``)."""
        return self._events_processed.value

    @events_processed.setter
    def events_processed(self, value: int) -> None:
        self._events_processed.value = value

    @property
    def now(self) -> int:
        """Current simulation time, in cycles."""
        return self._now

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current cycle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        if delay < 256:
            self._buckets[time & 255].append((time, seq, fn, args))
            self._near += 1
        else:
            heapq.heappush(self._queue, (time, seq, fn, args))

    def at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if time - now < 256:
            self._buckets[time & 255].append((time, seq, fn, args))
            self._near += 1
        else:
            heapq.heappush(self._queue, (time, seq, fn, args))

    def set_heartbeat(
        self, every: int, fire: Callable[[int, int, int], None]
    ) -> None:
        """Fire ``fire(now, events_total, queue_depth)`` every ``every``
        executed events.

        The cadence is counted in *events*, not wall time, so enabling a
        heartbeat never perturbs event ordering — the callback observes
        the simulation, it must not schedule into it.  The countdown
        persists across :meth:`run` calls, so a machine that runs in
        many short turns still beats at the configured period.
        """
        if every <= 0:
            raise SimulationError(
                f"heartbeat interval must be positive (got {every})"
            )
        self._hb_every = every
        self._hb_fire = fire
        self._hb_countdown = every

    def clear_heartbeat(self) -> None:
        """Detach the heartbeat (idempotent)."""
        self._hb_every = 0
        self._hb_fire = None
        self._hb_countdown = 0

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: Stop (without executing) events after this cycle; the
                clock always advances to ``until``, even if the queue
                drains earlier.
            max_events: Safety valve; raise :class:`SimulationError` if more
                than this many events execute (deadlock/livelock detector
                for tests).

        Returns:
            The simulation time when the run stopped.
        """
        if self._profiler is not None or self._hb_fire is not None:
            return self._run_observed(until, max_events)
        executed = 0
        # Hot-loop locals: every per-event attribute lookup hoisted once.
        heap = self._queue
        buckets = self._buckets
        heappop = heapq.heappop
        stop = sys.maxsize if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        now = self._now
        cursor = self._cursor
        if cursor < now:
            cursor = now
        try:
            while True:
                if self._near:
                    bucket = buckets[cursor & 255]
                    while not bucket:
                        cursor += 1
                        bucket = buckets[cursor & 255]
                    # All entries in this bucket share one timestamp
                    # (taken from the entry, not the cursor, so the
                    # invariant is load-bearing in exactly one place).
                    time = bucket[0][0]
                    if heap and heap[0][0] <= time:
                        h_time = heap[0][0]
                        if h_time < time or heap[0][1] < bucket[0][1]:
                            # A far-scheduled event comes first.
                            if h_time > stop:
                                if stop > now:
                                    now = stop
                                break
                            entry = heappop(heap)
                            self._now = now = entry[0]
                            # The scan above may have pushed the cursor
                            # past `now`; this callback can schedule near
                            # events anywhere in [now, now + _WINDOW), so
                            # the scan must restart from `now` or those
                            # buckets are never visited again.
                            cursor = now
                            entry[2](*entry[3])
                            executed += 1
                            if executed > limit:
                                raise SimulationError(
                                    f"exceeded max_events={max_events}; "
                                    f"likely livelock"
                                )
                            continue
                    if time > stop:
                        if stop > now:
                            now = stop
                        break
                    self._now = now = time
                    if cursor < now:
                        cursor = now
                    # Drain the bucket by index: callbacks may append
                    # same-cycle events to this very list mid-drain, and
                    # a heap entry may tie this timestamp (seq decides;
                    # no new heap entry can gain this timestamp, since a
                    # same-cycle schedule always lands in the bucket).
                    i = 0
                    try:
                        if heap and heap[0][0] == time:
                            while i < len(bucket):
                                entry = bucket[i]
                                if (heap and heap[0][0] == time
                                        and heap[0][1] < entry[1]):
                                    far = heappop(heap)
                                    far[2](*far[3])
                                else:
                                    i += 1
                                    entry[2](*entry[3])
                                executed += 1
                                if executed > limit:
                                    raise SimulationError(
                                        f"exceeded max_events={max_events}; "
                                        f"likely livelock"
                                    )
                            while heap and heap[0][0] == time:
                                far = heappop(heap)
                                far[2](*far[3])
                                executed += 1
                                if executed > limit:
                                    raise SimulationError(
                                        f"exceeded max_events={max_events}; "
                                        f"likely livelock"
                                    )
                        else:
                            while i < len(bucket):
                                entry = bucket[i]
                                i += 1
                                entry[2](*entry[3])
                                executed += 1
                                if executed > limit:
                                    raise SimulationError(
                                        f"exceeded max_events={max_events}; "
                                        f"likely livelock"
                                    )
                    finally:
                        self._near -= i
                        del bucket[:i]
                elif heap:
                    time = heap[0][0]
                    if time > stop:
                        if stop > now:
                            now = stop
                        break
                    entry = heappop(heap)
                    self._now = now = time
                    cursor = now  # all buckets empty; restart scan here
                    entry[2](*entry[3])
                    executed += 1
                    if executed > limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely livelock"
                        )
                else:
                    if until is not None and now < until:
                        now = until
                    break
        finally:
            self._now = now
            # Events scheduled between runs may land behind any scan
            # progress past `now`, so the cursor resumes from `now`
            # (rescanning a few empty buckets is cheap; missing a
            # bucket is not).
            self._cursor = now
            # Deferred flush: exact at run end (and on any exception)
            # without a per-event counter call.
            if executed:
                self._events_processed.inc(executed)
        return now

    def _run_observed(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        """The instrumented twin of :meth:`run`'s hot loop.

        Executes events in exactly the same (time, seq) order as the
        fast loop — each iteration picks the global minimum of the
        calendar scan head and the heap top — but goes one event at a
        time through a single dispatch point so each callback can be
        timed (profiler) and counted (heartbeat).  Slower per event than
        the fast loop's bucket drains; that cost exists only while a
        profiler or heartbeat is attached.
        """
        executed = 0
        heap = self._queue
        buckets = self._buckets
        heappop = heapq.heappop
        clock = perf_counter_ns
        profiler = self._profiler
        record = profiler.record if profiler is not None else None
        hb_fire = self._hb_fire
        hb_every = self._hb_every
        hb_left = self._hb_countdown
        base_events = self._events_processed.value
        stop = sys.maxsize if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        now = self._now
        cursor = self._cursor
        if cursor < now:
            cursor = now
        run_t0 = clock()
        try:
            while True:
                entry = None
                bucket = None
                if self._near:
                    bucket = buckets[cursor & 255]
                    while not bucket:
                        cursor += 1
                        bucket = buckets[cursor & 255]
                    # One-timestamp-per-bucket invariant: bucket[0] is
                    # the earliest near event (FIFO within the cycle).
                    entry = bucket[0]
                if heap:
                    head = heap[0]
                    if entry is None or (head[0], head[1]) < (entry[0], entry[1]):
                        entry = head
                        bucket = None
                if entry is None:
                    if until is not None and now < until:
                        now = until
                    break
                time = entry[0]
                if time > stop:
                    if stop > now:
                        now = stop
                    break
                if bucket is not None:
                    del bucket[0]
                    self._near -= 1
                else:
                    heappop(heap)
                self._now = now = time
                # The callback may schedule near events behind any scan
                # progress past `now`; rescan from `now` next iteration.
                cursor = now
                fn = entry[2]
                if record is not None:
                    t0 = clock()
                    fn(*entry[3])
                    record(fn, clock() - t0)
                else:
                    fn(*entry[3])
                executed += 1
                if executed > limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                if hb_fire is not None:
                    hb_left -= 1
                    if hb_left <= 0:
                        hb_left = hb_every
                        hb_fire(now, base_events + executed,
                                self._near + len(heap))
        finally:
            self._now = now
            self._cursor = now
            self._hb_countdown = hb_left
            if executed:
                self._events_processed.inc(executed)
            if profiler is not None:
                profiler.finish_run(clock() - run_t0, executed)
        return now

    def pending(self) -> int:
        """Number of events currently queued."""
        return self._near + len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now}, pending={self.pending()})"
