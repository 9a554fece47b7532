#!/usr/bin/env python3
"""Split garbage-collection time between sweep-point set-up and run.

The host-time benchmark (``hostbench/run.py``) charges each point's
set-up, from the point's start to its first ``Machine.run``, to
``setup_s``.  CPython's collector runs when allocation counters cross
their thresholds, wherever that happens: a change that allocates less
while the simulation runs can move a full (generation 2) collection from
one point's run into the next point's set-up, and ``setup_s`` grows
although set-up itself does no more work.  This tool makes that visible.
It runs a benchmark workload's points through the same sweep code
(``run_sweep``, one job, no result cache, one untimed warm-up point, a
``gc.collect()`` before each round) with a ``gc.callbacks`` hook, and
reports per round and per phase the collections of each generation,
their seconds, the phase's seconds and set-up net of collections::

    PYTHONPATH=src python tools/gc_phases.py --workload torus1024 --rounds 3

Times are wall-clock seconds (``time.perf_counter``) on this host; they
are comparable between two checkouts run one after the other, not
across hosts.  The workloads come from ``hostbench/workloads.py``,
which is imported without writing bytecode next to it.  Standard
library only, apart from the package under test.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time
from typing import Any, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
PHASES = ("setup", "run")
GENERATIONS = (0, 1, 2)


def load_workloads() -> Any:
    """The benchmark's workload module, imported read-only."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "hostbench"))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return workloads


class PhaseLedger:
    """Seconds and collections per phase, fed by a ``gc.callbacks`` hook.

    ``phase`` is ``None`` between points; collections there (the
    ``gc.collect()`` before each round) are not counted.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.seconds = {phase: 0.0 for phase in PHASES}
        #: (phase, generation) -> [collections, seconds]
        self.collections = {
            (phase, gen): [0, 0.0] for phase in PHASES for gen in GENERATIONS
        }
        self._gc_start: Optional[float] = None

    def on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None or self.phase is None:
            return
        cell = self.collections[(self.phase, info["generation"])]
        cell[0] += 1
        cell[1] += time.perf_counter() - self._gc_start
        self._gc_start = None

    def gc_seconds(self, phase: str) -> float:
        return sum(self.collections[(phase, gen)][1] for gen in GENERATIONS)


class FirstRun:
    """Switches the ledger to the run phase at a point's first run."""

    def __init__(self, machine_cls: type, ledger: PhaseLedger) -> None:
        self.machine_cls = machine_cls
        self.ledger = ledger
        self.ready: Optional[float] = None
        self._original = machine_cls.__dict__["run"]

    def __enter__(self) -> "FirstRun":
        original = self._original

        def run(machine: Any, *args: Any, **kwargs: Any) -> Any:
            if self.ready is None and self.ledger.phase == "setup":
                self.ready = time.perf_counter()
                self.ledger.phase = "run"
            return original(machine, *args, **kwargs)

        self.machine_cls.run = run
        return self

    def __exit__(self, *exc: Any) -> None:
        self.machine_cls.run = self._original


def measure(workload: str, seed: int, rounds: int, tiny: bool) -> dict:
    """Per-round phase seconds and collections of one workload."""
    from repro.harness.parallel import run_sweep
    from repro.machine.machine import Machine

    plan = load_workloads().points(workload, seed, tiny=tiny)
    ledger = PhaseLedger()
    gc.callbacks.append(ledger.on_gc)
    try:
        with FirstRun(Machine, ledger) as first_run:
            run_sweep(plan[:1], jobs=1, cache=None, quarantine=True)
            for _ in range(rounds):
                gc.collect()
                for point in plan:
                    first_run.ready = None
                    ledger.phase = "setup"
                    start = time.perf_counter()
                    outcome = run_sweep([point], jobs=1, cache=None, quarantine=True)[0]
                    end = time.perf_counter()
                    ledger.phase = None
                    if outcome.error is not None:
                        raise SystemExit(f"{point.label}: {outcome.error}")
                    ready = first_run.ready if first_run.ready else end
                    ledger.seconds["setup"] += ready - start
                    ledger.seconds["run"] += end - ready
    finally:
        gc.callbacks.remove(ledger.on_gc)
    report: dict[str, Any] = {"workload": workload, "rounds": rounds}
    for phase in PHASES:
        report[phase] = {
            "seconds": ledger.seconds[phase] / rounds,
            "gc_seconds": ledger.gc_seconds(phase) / rounds,
            "net_seconds": (ledger.seconds[phase] - ledger.gc_seconds(phase)) / rounds,
            "collections": {
                str(gen): ledger.collections[(phase, gen)][0] / rounds
                for gen in GENERATIONS
            },
            "gc_seconds_by_generation": {
                str(gen): ledger.collections[(phase, gen)][1] / rounds
                for gen in GENERATIONS
            },
        }
    return report


def render(report: dict) -> str:
    lines = [
        f"{report['workload']}: per round, mean of {report['rounds']}",
        f"  {'phase':<6} {'total s':>8} {'gc s':>8} {'net s':>8}  "
        "collections (gen0/gen1/gen2)  gc s (gen0/gen1/gen2)",
    ]
    for phase in PHASES:
        cell = report[phase]
        counts = "/".join(f"{cell['collections'][str(gen)]:g}" for gen in GENERATIONS)
        secs = "/".join(
            f"{cell['gc_seconds_by_generation'][str(gen)]:.4f}" for gen in GENERATIONS
        )
        lines.append(
            f"  {phase:<6} {cell['seconds']:8.4f} {cell['gc_seconds']:8.4f} "
            f"{cell['net_seconds']:8.4f}  {counts:<28} {secs}"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=workloads.WORKLOADS,
        help="workload to measure (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument(
        "--json", action="store_true", help="print one JSON object per workload"
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    print(f"gc thresholds {gc.get_threshold()}", file=sys.stderr)
    for workload in args.workload or workloads.WORKLOADS:
        report = measure(workload, args.seed, args.rounds, args.tiny)
        print(json.dumps(report, sort_keys=True) if args.json else render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
