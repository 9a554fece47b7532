"""Per-layer host-time spans, recorded from outside the simulator.

A :class:`Tracer` patches the simulator's classes while it is installed
and restores them when it is removed; nothing under ``src/`` changes.
It records three kinds of span:

* one around every callback the engine dispatches: the callbacks passed
  to ``Simulator.schedule`` / ``Simulator.at`` are routed through
  :meth:`Tracer._dispatch`, which tags each with
  :func:`repro.obs.profile.handler_tag` and maps the tag's component to
  a layer through :data:`CALLBACK_LAYER`;
* one around each inline public entry point of a layer
  (:data:`INLINE_SPANS`), which other layers call directly rather than
  through the engine;
* one around each application runner (``app.runner``), the function a
  sweep point names.  Its own code (inputs, result checks) is
  ``repro.apps`` code, so it is charged to the processor layer.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Install the tracer before any machine is built:
components bind methods such as ``mesh.send`` and ``memory.service`` at
construction.

Tracing has a cost, and it lands in the layers: the timer calls inside
a span in the traced layer, the wrapper frames around it in the caller.
:func:`calibrate` measures both parts per call on empty callbacks, and
the tracer books them per layer in :attr:`Tracer.tax_ns`, so that
``self_ns - tax_ns`` estimates the untraced self time.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.coherence.controller import CacheController
from repro.machine.machine import Machine
from repro.memory.module import MemoryModule
from repro.network.mesh import WormholeMesh
from repro.obs.latency import LatencyTracker, TxnBreakdown
from repro.obs.profile import handler_tag
from repro.obs.registry import Histogram, MetricsRegistry
from repro.sim.engine import Simulator

__all__ = ["LAYERS", "CALLBACK_LAYER", "INLINE_SPANS", "RUNNER_LAYER",
           "Cost", "Tracer", "calibrate", "callback_layer"]

#: The layers, named after the repository's modules:
#: engine = repro.sim; processor = repro.processor, repro.primitives,
#: repro.sync and repro.apps; controller = repro.coherence.controller,
#: repro.cache; home = repro.coherence.home,
#: repro.memory.{directory,sharers,reservations}; memory =
#: repro.memory.module; mesh = repro.network; obs = repro.obs,
#: repro.stats; machine = repro.machine; harness = repro.harness.parallel.
LAYERS = ("engine", "processor", "controller", "home", "memory", "mesh",
          "obs", "machine", "harness")

#: Component (class name from ``handler_tag``) of every callback the
#: engine dispatches → its layer.  ``Process`` lives in ``repro.sim`` but
#: its callbacks step the program generator, so its time is the
#: processor's.  A callback of any other class fails the traced run:
#: there is no "unknown" bucket.
CALLBACK_LAYER = {
    "Process": "processor",
    "CacheController": "controller",
    "HomeNode": "home",
}

#: Inline entry points: (owner, attribute, layer, span name).
INLINE_SPANS = (
    (Simulator, "run", "engine", "engine.run"),
    (CacheController, "execute", "controller", "controller.execute"),
    (WormholeMesh, "send", "mesh", "mesh.send"),
    (MemoryModule, "service", "memory", "memory.service"),
    (TxnBreakdown, "credit", "obs", "obs.credit"),
    (LatencyTracker, "note", "obs", "obs.note"),
    (Histogram, "observe", "obs", "obs.observe"),
    # The sweep code collects each point's registry with these, outside
    # the application runner.
    (MetricsRegistry, "snapshot", "obs", "obs.snapshot"),
    (MetricsRegistry, "merge_snapshot", "obs", "obs.snapshot"),
    (Machine, "__init__", "machine", "machine.build"),
    (Machine, "run", "machine", "machine.run"),
    # Set-up and result reads the application runners make.
    (Machine, "alloc_sync", "machine", "machine.setup"),
    (Machine, "alloc_data", "machine", "machine.setup"),
    (Machine, "alloc_node_block", "machine", "machine.setup"),
    (Machine, "write_word", "machine", "machine.setup"),
    (Machine, "spawn_all", "machine", "machine.setup"),
    (Machine, "read_word", "machine", "machine.setup"),
)

#: Layer of an application runner's own code (``repro.apps``).
RUNNER_LAYER = "processor"


def callback_layer(component: str, handler: str) -> str:
    """The layer of an engine callback tagged ``(component, handler)``."""
    layer = CALLBACK_LAYER.get(component)
    if layer is None:
        raise LookupError(
            f"engine callback {component}.{handler} maps to no layer; "
            f"add its class to CALLBACK_LAYER"
        )
    return layer


class Cost(NamedTuple):
    """Host cost of tracing one call, in ns.

    ``*_in`` is the part the traced span reports as its own time,
    ``*_out`` the part that lands in its caller's span.  ``schedule`` is
    the extra wrapper frame around ``Simulator.schedule`` / ``at``, all
    of it in the caller.
    """

    dispatch_in: float = 0.0
    dispatch_out: float = 0.0
    span_in: float = 0.0
    span_out: float = 0.0
    schedule: float = 0.0


class Tracer:
    """Span recorder: per-layer self time, per-span calls and duration.

    Spans nest on one stack.  Each entry is ``[child_ns, tax_ns]``: the
    time its child spans cover, and the tracing cost (from ``cost``)
    booked against it.  ``self = duration - children`` then needs no
    span list, and the tax follows the same nesting.  Totals go to one
    cell per span name or callback, ``[layer, calls, inclusive ns, self
    ns, tax ns]``, and are summed per layer on demand.
    """

    def __init__(self, cost: Cost = Cost()) -> None:
        self.cost = cost
        #: span name -> cell
        self._span_cells: dict[str, list[Any]] = {}
        #: engine callback (function) -> cell
        self._callback_cells: dict[Any, list[Any]] = {}
        # Bottom entry: time covered by top-level spans.
        self._stack: list[list[Any]] = [[0, 0.0]]

    # -- results ---------------------------------------------------------

    def _per_layer(self, column: int, cells: Iterable[list[Any]]
                   ) -> dict[str, Any]:
        totals = dict.fromkeys(LAYERS, 0)
        for cell in cells:
            totals[cell[0]] += cell[column]
        return totals

    @property
    def self_ns(self) -> dict[str, int]:
        """Layer -> measured self time, tracing cost included."""
        return self._per_layer(3, self._cells())

    @property
    def tax_ns(self) -> dict[str, float]:
        """Layer -> estimated tracing cost inside :attr:`self_ns`."""
        return self._per_layer(4, self._cells())

    @property
    def callbacks(self) -> dict[str, int]:
        """Layer -> engine-dispatched callbacks."""
        return self._per_layer(1, self._callback_cells.values())

    @property
    def spans(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, inclusive ns)."""
        return {name: (cell[1], cell[2])
                for name, cell in self._span_cells.items()}

    @property
    def covered_ns(self) -> int:
        """Total duration of top-level spans."""
        return self._stack[0][0]

    @property
    def outside_tax_ns(self) -> float:
        """Tracing cost booked outside every span."""
        return self._stack[0][1]

    def _cells(self) -> list[list[Any]]:
        return [*self._span_cells.values(), *self._callback_cells.values()]

    def _span_cell(self, layer: str, name: str) -> list[Any]:
        cell = self._span_cells.get(name)
        if cell is None:
            cell = self._span_cells[name] = [layer, 0, 0, 0, 0.0]
        elif cell[0] != layer:
            raise ValueError(f"span {name} used for {cell[0]} and {layer}")
        return cell

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        cell = self._span_cell(layer, name)
        stack = self._stack
        entry = [0, 0.0]
        stack.append(entry)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            elapsed = perf_counter_ns() - t0
            stack.pop()
            cell[1] += 1
            cell[2] += elapsed
            cell[3] += elapsed - entry[0]
            cell[4] += entry[1]
            stack[-1][0] += elapsed

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        cell = self._span_cell(layer, name)
        stack = self._stack
        clock = perf_counter_ns
        cost_in = self.cost.span_in
        cost_out = self.cost.span_out

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            entry = [0, cost_in]
            stack.append(entry)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                cell[1] += 1
                cell[2] += elapsed
                cell[3] += elapsed - entry[0]
                cell[4] += entry[1]
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += cost_out

        return traced

    def _dispatch(self, fn: Callable, *args: Any) -> None:
        key = getattr(fn, "__func__", fn)
        cell = self._callback_cells.get(key)
        if cell is None:
            layer = callback_layer(*handler_tag(fn))
            cell = self._callback_cells[key] = [layer, 0, 0, 0, 0.0]
        stack = self._stack
        entry = [0, self.cost.dispatch_in]
        stack.append(entry)
        t0 = perf_counter_ns()
        try:
            fn(*args)
        finally:
            elapsed = perf_counter_ns() - t0
            stack.pop()
            cell[1] += 1
            cell[2] += elapsed
            cell[3] += elapsed - entry[0]
            cell[4] += entry[1]
            parent = stack[-1]
            parent[0] += elapsed
            parent[1] += self.cost.dispatch_out

    def _routed(self, original: Callable) -> Callable:
        """``Simulator.schedule`` / ``at`` routing callbacks via dispatch."""
        dispatch = self._dispatch
        stack = self._stack
        cost = self.cost.schedule

        def traced(sim: Simulator, when: int, fn: Callable,
                   *args: Any) -> None:
            stack[-1][1] += cost
            original(sim, when, dispatch, fn, *args)

        return traced

    @contextmanager
    def installed(self, runners: Iterable[str] = ()) -> Iterator["Tracer"]:
        """Patch the spans in for a block; build machines only inside it.

        ``runners`` are ``module:name`` references of the application
        runners to wrap in ``app.runner`` spans.
        """
        restore: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, name: str, replacement: Any) -> None:
            restore.append((owner, name, getattr(owner, name)))
            setattr(owner, name, replacement)

        try:
            patch(Simulator, "schedule", self._routed(Simulator.schedule))
            patch(Simulator, "at", self._routed(Simulator.at))
            for owner, attr, layer, name in INLINE_SPANS:
                patch(owner, attr,
                      self._wrap(owner.__dict__[attr], layer, name))
            for ref in sorted(set(runners)):
                module_name, _, attr = ref.partition(":")
                module = importlib.import_module(module_name)
                patch(module, attr, self._wrap(getattr(module, attr),
                                               RUNNER_LAYER, "app.runner"))
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)


# ----------------------------------------------------------------------
# Calibration.
# ----------------------------------------------------------------------

class _Probe:
    """An empty callback; the engine would see it as ``_Probe.noop``."""

    def noop(self) -> None:
        pass


def _fastest(run: Callable[[], Any], repeats: int) -> tuple[int, Any]:
    """Shortest of ``repeats`` timed calls: (ns, that call's result)."""
    best: tuple[int, Any] = (0, None)
    for i in range(repeats):
        t0 = perf_counter_ns()
        result = run()
        elapsed = perf_counter_ns() - t0
        if i == 0 or elapsed < best[0]:
            best = (elapsed, result)
    return best


def calibrate(calls: int = 50_000, repeats: int = 7) -> Cost:
    """Measure what tracing costs per call, on empty callbacks.

    Each kind of traced call is timed against the same call made bare;
    the difference per call is the cost.  The part an empty traced
    callee reports as its own self time is its ``*_in`` share; the rest
    is ``*_out``, paid in the caller.  Taking the fastest of several
    repeats keeps host noise out; the real cost in a run, with colder
    caches, is somewhat higher, so the estimate errs low.
    """
    probe = _Probe()
    noop = probe.noop
    unbound = _Probe.noop
    loop = range(calls)

    def bare_calls() -> None:
        for _ in loop:
            noop()

    def bare_unbound() -> None:
        for _ in loop:
            unbound(probe)

    def traced_dispatch() -> Tracer:
        tracer = Tracer()
        tracer._callback_cells[unbound] = ["processor", 0, 0, 0, 0.0]
        dispatch = tracer._dispatch
        for _ in loop:
            dispatch(noop)
        return tracer

    def traced_span() -> Tracer:
        tracer = Tracer()
        wrapped = tracer._wrap(unbound, "processor", "calibrate")
        for _ in loop:
            wrapped(probe)
        return tracer

    def split(bare: int, traced: tuple[int, Tracer]) -> tuple[float, float]:
        elapsed, tracer = traced
        total = max(elapsed - bare, 0) / calls
        inside = min(tracer.self_ns["processor"] / calls, total)
        return inside, total - inside

    dispatch_in, dispatch_out = split(_fastest(bare_calls, repeats)[0],
                                      _fastest(traced_dispatch, repeats))
    span_in, span_out = split(_fastest(bare_unbound, repeats)[0],
                              _fastest(traced_span, repeats))

    routed = Tracer()._routed(Simulator.schedule)

    def schedule_with(method: Callable) -> Callable[[], None]:
        def run() -> None:
            sim = Simulator()
            for _ in loop:
                method(sim, 1, noop)
        return run

    bare = _fastest(schedule_with(Simulator.schedule), repeats)[0]
    traced = _fastest(schedule_with(routed), repeats)[0]
    return Cost(dispatch_in=dispatch_in, dispatch_out=dispatch_out,
                span_in=span_in, span_out=span_out,
                schedule=max(traced - bare, 0) / calls)
