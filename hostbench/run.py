"""Host-time benchmark of the paper's experiments, end to end and per layer.

Usage (from the repository root)::

    python3 hostbench/run.py --workload fig6_apps --seed 1 --seconds 40 --trace 0

Runs one workload's sweep points through the real sweep code
(:func:`repro.harness.parallel.run_sweep`, ``jobs=1``, no result
cache), one point at a time: a closed loop with a single client.  After
one untimed warm-up point it repeats whole passes over the points
("rounds") while they fit in ``--seconds`` and reports each end-to-end
metric as the median over rounds.  End-to-end times are in reference
seconds: the thread's CPU time, corrected for the host's speed, which
:class:`speed.SpeedClock` samples while the rounds run.  With
``--trace 1`` it runs untraced rounds for half the budget (registry counts, overhead baseline), then one
round under the span tracer of :mod:`tracing`, and reports the per-layer
metrics.  Their self times have the tracer's calibrated cost taken out.

Every point is checked: a point fails if it raised (the applications
check their own results), or if its result digest differs from the one
pinned in ``pinned.json`` (default seed) or from its first round (any
seed).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when ``correct`` is true.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"

#: Largest allowed gap between the time the sweep code spent in the
#: simulator (application runners, registry snapshots) and the self
#: times of the layers below the harness.
RECONCILE_TOLERANCE = 0.02


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes (results not pinned)")
    return parser.parse_args(argv)


def elapsed(start: float, end: float) -> float:
    """Seconds between two readings of the same clock."""
    return end - start


@dataclass
class Round:
    """One timed pass over every point of a workload.

    It keeps the timestamps of its start and end, and of each point's
    start, end of set-up and end, read from the bench's clock
    (:attr:`Bench.now`); the methods turn them into durations with
    ``span``, either :func:`elapsed` or
    :meth:`speed.SpeedClock.seconds`.
    """

    start: float = 0.0
    end: float = 0.0
    marks: list[tuple[float, float, float]] = field(default_factory=list)
    outcomes: list[Any] = field(default_factory=list)

    def wall(self, span: Callable[[float, float], float] = elapsed) -> float:
        return span(self.start, self.end)

    def point_walls(self, span: Callable[[float, float], float] = elapsed
                    ) -> list[float]:
        return [span(start, end) for start, _, end in self.marks]

    def setups(self, span: Callable[[float, float], float] = elapsed
               ) -> list[float]:
        return [span(start, ready) for start, ready, _ in self.marks]


class FirstRun:
    """Timestamps the first ``Machine.run`` of each point (end of set-up)."""

    def __init__(self, machine_cls: type, now: Callable[[], float]) -> None:
        self.at: Optional[float] = None
        self.now = now
        self._cls = machine_cls
        self._original = machine_cls.__dict__["run"]

    def install(self) -> None:
        original = self._original

        def run(machine: Any, *args: Any, **kwargs: Any) -> Any:
            if self.at is None:
                self.at = self.now()
            return original(machine, *args, **kwargs)

        self._cls.run = run

    def remove(self) -> None:
        self._cls.run = self._original


def registry_counts(outcomes: list[Any]) -> dict[str, int]:
    """Integer registry counters summed over points and nodes.

    ``ctrl.3.ops`` and ``ctrl.7.ops`` both add to ``ctrl.ops``;
    machine-wide names (``net.flits``) are kept as they are.  App
    ``updates`` are added under ``app.updates``.
    """
    totals: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        for key, value in outcome.metrics.items():
            if not isinstance(value, int):
                continue
            parts = key.split(".")
            if len(parts) == 3 and parts[1].isdigit():
                key = f"{parts[0]}.{parts[2]}"
            totals[key] = totals.get(key, 0) + value
        totals["app.updates"] = (totals.get("app.updates", 0)
                                 + outcome.result.updates)
    return totals


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    """Runs one workload and checks every point it runs."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.harness.parallel import run_sweep
        from repro.machine.machine import Machine
        from workloads import DEFAULT_SEED, points

        self.run_sweep = run_sweep
        self.args = args
        self.plan = points(args.workload, args.seed, tiny=args.tiny)
        #: Clock of every timestamp a round keeps: real time for the
        #: traced run, whose spans read ``perf_counter_ns``; the thread's
        #: CPU time otherwise, for :class:`speed.SpeedClock`.
        self.now = time.perf_counter if args.trace else time.thread_time
        self.first_run = FirstRun(Machine, self.now)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        if args.seed == DEFAULT_SEED and not args.tiny:
            self.reference = dict(json.loads(PINNED.read_text())[args.workload])
        self.last_digests: list[str] = []
        self.digest = ""
        self.ledger: list[str] = []

    # -- running ---------------------------------------------------------

    def run_point(self, point: Any, tracer: Any = None
                  ) -> tuple[Any, tuple[float, float, float]]:
        """One point through the sweep code: its outcome, and the
        timestamps (:attr:`now`) of its start, end of set-up and end."""
        self.first_run.at = None
        span = (tracer.span("harness", "harness.point")
                if tracer is not None else nullcontext())
        t0 = self.now()
        with span:
            outcome = self.run_sweep([point], jobs=1, cache=None,
                                     quarantine=True)[0]
        t1 = self.now()
        ready = self.first_run.at if self.first_run.at is not None else t1
        return outcome, (t0, ready, t1)

    def run_round(self, tracer: Any = None) -> Round:
        gc.collect()
        round_ = Round(start=self.now())
        for point in self.plan:
            outcome, marks = self.run_point(point, tracer)
            round_.outcomes.append(outcome)
            round_.marks.append(marks)
        round_.end = self.now()
        self.check(round_)
        return round_

    def run_rounds(self, budget: float) -> list[Round]:
        """Whole rounds while the next one is expected to fit ``budget``
        seconds of real time.

        Only the first round keeps its outcomes, for the registry counts;
        the others drop theirs once checked, so that the peak memory does
        not grow with the number of rounds that fit.
        """
        rounds: list[Round] = []
        start = last = time.perf_counter()
        while True:
            rounds.append(self.run_round())
            if len(rounds) > 1:
                rounds[-1].outcomes.clear()
            now = time.perf_counter()
            if 2 * now - last - start > budget:
                return rounds
            last = now

    def warm_up(self) -> None:
        """One untimed point, so imports and lazy tables miss the timings."""
        self.run_point(self.plan[0])

    # -- checking --------------------------------------------------------

    def check(self, round_: Round) -> None:
        from workloads import point_digest, workload_digest

        digests = []
        for point, outcome in zip(self.plan, round_.outcomes):
            self.attempted += 1
            if outcome.error is not None:
                self.failed += 1
                self.problems.append(f"{point.label}: {outcome.error}")
                digests.append("")
                continue
            digest = point_digest(outcome)
            digests.append(digest)
            expected = self.reference.setdefault(point.label, digest)
            if digest != expected:
                self.failed += 1
                self.problems.append(
                    f"{point.label}: digest {digest[:16]} != {expected[:16]}"
                )
        self.last_digests = digests
        self.digest = workload_digest(digests)

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, rounds: list[Round],
                   span: Callable[[float, float], float]
                   ) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics, with every duration measured by ``span``."""
        ops = registry_counts(rounds[0].outcomes).get("ctrl.ops", 0)
        med = statistics.median
        walls = [r.wall(span) for r in rounds]
        return {
            "wall_s": (med(walls), "s"),
            "ops_per_s": (med(ops / wall for wall in walls), "ops/s"),
            # Per-point median first: one noisy round cannot pick the max.
            "slowest_point_s": (
                max(med(point) for point in zip(*(r.point_walls(span)
                                                  for r in rounds))),
                "s",
            ),
            "setup_s": (med(sum(r.setups(span)) for r in rounds), "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
            ),
        }

    def per_layer(self, rounds: list[Round], traced: Round,
                  tracer: Any) -> dict[str, tuple[float, str]]:
        counts = registry_counts(rounds[0].outcomes)
        traced_counts = registry_counts(traced.outcomes)
        if counts != traced_counts:
            diff = sorted(k for k in counts.keys() | traced_counts.keys()
                          if counts.get(k) != traced_counts.get(k))
            self.problems.append(f"traced counts differ: {diff[:8]}")
        events = counts.get("sim.events_processed", 0)
        dispatched = sum(tracer.callbacks.values())
        if dispatched != events:
            self.problems.append(
                f"traced run dispatched {dispatched} callbacks, "
                f"registry counted {events} events"
            )
        raw = tracer.self_ns
        spans = tracer.spans
        called_ns = sum(spans.get(name, (0, 0))[1]
                        for name in ("app.runner", "obs.snapshot"))
        below = sum(ns for layer, ns in raw.items() if layer != "harness")
        if abs(below - called_ns) > RECONCILE_TOLERANCE * called_ns:
            self.problems.append(
                f"layers below the harness report {below / 1e9:.3f} s of "
                f"self time, the sweep code spent {called_ns / 1e9:.3f} s "
                f"in application runners and registry snapshots"
            )
        self.profiler_check(rounds[0].outcomes[0])

        # Tracing cost out; the harness also gets the benchmark's loop
        # between points, the part of the round no span covers.
        tax = tracer.tax_ns
        self_s = {layer: (raw[layer] - tax[layer]) / 1e9 for layer in raw}
        traced_wall = traced.wall()
        gap_ns = traced_wall * 1e9 - tracer.covered_ns
        self_s["harness"] += (gap_ns - tracer.outside_tax_ns) / 1e9
        untraced_wall = statistics.median(r.wall() for r in rounds)
        self.ledger = ledger(raw, tax, self_s, tracer, traced_wall,
                             untraced_wall)

        c = counts.get
        ctrl_ops = c("ctrl.ops", 0)
        fanout = c("net.by_type.INV", 0) + c("net.by_type.UPDATE", 0)
        return {
            "engine.events": (events, "count"),
            "engine.self_s": (self_s["engine"], "s"),
            "processor.resumes": (tracer.callbacks["processor"], "count"),
            "processor.self_s": (self_s["processor"], "s"),
            "controller.ops": (ctrl_ops, "count"),
            "controller.hits": (c("cache.hits", 0), "count"),
            "controller.misses": (c("cache.misses", 0), "count"),
            "controller.hit_ratio": (ratio(c("cache.hits", 0), ctrl_ops),
                                     "ratio"),
            "controller.ops_per_update": (
                ratio(ctrl_ops, c("app.updates", 0)), "ratio"),
            "controller.nak_retries": (c("ctrl.nak_retries", 0), "count"),
            "controller.self_s": (self_s["controller"], "s"),
            "home.requests": (c("home.requests", 0), "count"),
            "home.queued": (c("home.queued", 0), "count"),
            "home.spurious_targets": (c("home.spurious_targets", 0), "count"),
            "home.spurious_ratio": (
                ratio(c("home.spurious_targets", 0), fanout), "ratio"),
            "home.self_s": (self_s["home"], "s"),
            "memory.accesses": (c("mem.accesses", 0), "count"),
            "memory.queue_wait_cycles": (c("mem.queue_wait", 0), "cycles"),
            "memory.self_s": (self_s["memory"], "s"),
            "mesh.messages": (c("net.messages", 0), "count"),
            "mesh.flits": (c("net.flits", 0), "count"),
            "mesh.latency_cycles": (c("net.total_latency", 0), "cycles"),
            "mesh.self_s": (self_s["mesh"], "s"),
            "obs.calls": (sum(spans.get(name, (0, 0))[0] for name in
                              ("obs.credit", "obs.note", "obs.observe")),
                          "count"),
            "obs.self_s": (self_s["obs"], "s"),
            "machine.build_s": (spans.get("machine.build", (0, 0))[1] / 1e9,
                                "s"),
            "harness.self_s": (self_s["harness"], "s"),
            "trace.overhead_frac": (
                (traced_wall - untraced_wall) / untraced_wall, "ratio"),
        }

    def profiler_check(self, untraced: Any) -> None:
        """Re-run the first point under the repo's own host profiler.

        Its event count must equal the untraced registry's, and every
        ``(component, handler)`` it reports must map to a layer.
        """
        from repro.obs.profile import profiled
        from tracing import callback_layer

        with profiled() as prof:
            outcome, _ = self.run_point(self.plan[0])
        if outcome.error is not None:
            self.problems.append(f"profiled re-run: {outcome.error}")
        expected = untraced.metrics.get("sim.events_processed")
        if prof.events != expected:
            self.problems.append(
                f"profiler saw {prof.events} events on {self.plan[0].label}, "
                f"registry counted {expected}"
            )
        for component, handler in prof.kinds:
            try:
                callback_layer(component, handler)
            except LookupError as exc:
                self.problems.append(str(exc))


def ledger(raw: dict[str, int], tax: dict[str, float],
           self_s: dict[str, float], tracer: Any, traced_wall: float,
           untraced_wall: float) -> list[str]:
    """Text lines: each layer's self time before and after the tracing
    cost is taken out, and its share of the corrected total."""
    cost = tracer.cost
    total = sum(self_s.values())
    lines = [
        "tracing cost per call (ns, calibrated): dispatch "
        f"{cost.dispatch_in:.0f} in + {cost.dispatch_out:.0f} out, span "
        f"{cost.span_in:.0f} in + {cost.span_out:.0f} out, schedule "
        f"{cost.schedule:.0f}",
        f"{'layer':<12} {'traced s':>10} {'cost s':>10} {'self s':>10} "
        f"{'share':>7}",
    ]
    for layer in raw:
        lines.append(
            f"{layer:<12} {raw[layer] / 1e9:>10.4f} {tax[layer] / 1e9:>10.4f} "
            f"{self_s[layer]:>10.4f} {ratio(self_s[layer], total):>7.1%}"
        )
    lines.append(
        f"traced round {traced_wall:.4f} s, tracing cost taken out "
        f"{traced_wall - total:.4f} s, self times left {total:.4f} s; "
        f"untraced round median {untraced_wall:.4f} s "
        f"(left over: {ratio(total - untraced_wall, untraced_wall):+.1%})"
    )
    return lines


def report(bench: Bench, metrics: dict[str, tuple[float, str]],
           rounds: list[Round], clock: Any = None) -> dict[str, Any]:
    """Print the run as text and return the result object.

    With a speed clock, round and point times are printed in reference
    seconds, and the rounds' CPU seconds beside them.
    """
    args = bench.args
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  points {len(bench.plan)}")
    span = elapsed
    if clock is not None:
        span = clock.seconds
        low, median, high = clock.slowness()
        print(f"speed probes {len(clock.probes)}, slowness (1 = reference "
              f"speed) lowest {low:.3f} median {median:.3f} "
              f"highest {high:.3f}")
        print("round walls (CPU s, probes left out): " + " ".join(
            f"{clock.cpu_seconds(r.start, r.end):.4f}" for r in rounds))
        print("round walls (reference s): " + " ".join(
            f"{r.wall(span):.4f}" for r in rounds))
    else:
        print("round walls (host s): " + " ".join(
            f"{r.wall():.4f}" for r in rounds))
    print("per point: digest, set-up and wall of each round "
          f"({'reference' if clock is not None else 'host'} s)")
    for i, point in enumerate(bench.plan):
        walls = " ".join(f"{r.point_walls(span)[i]:.4f}" for r in rounds)
        setups = " ".join(f"{r.setups(span)[i]:.4f}" for r in rounds)
        print(f"  {point.label:<24} {bench.last_digests[i][:16]}  "
              f"setup {setups}  wall {walls}")
    print(f"digest {bench.digest}")
    for line in bench.ledger:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    failed_frac = ratio(bench.failed, bench.attempted)
    print(f"{'failed_frac':<28} {failed_frac:>16.6g} ratio "
          f"({bench.failed} of {bench.attempted} points)")
    return {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: simulator source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    bench = Bench(args)
    clock = None
    bench.first_run.install()
    try:
        bench.warm_up()
        if args.trace:
            from tracing import Tracer, calibrate

            rounds = bench.run_rounds(args.seconds / 2)
            tracer = Tracer(calibrate())
            with tracer.installed(point.runner for point in bench.plan):
                traced = bench.run_round(tracer)
            metrics = bench.per_layer(rounds, traced, tracer)
            rounds = rounds + [traced]
        else:
            from speed import SpeedClock

            with SpeedClock() as clock:
                rounds = bench.run_rounds(args.seconds)
            metrics = bench.end_to_end(rounds, clock.seconds)
    finally:
        bench.first_run.remove()
    result = report(bench, metrics, rounds, clock)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
