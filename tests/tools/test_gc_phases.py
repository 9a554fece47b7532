"""tools/gc_phases.py: collections split between point set-up and run."""

import gc
import importlib.util
import json
import pathlib

from repro.machine.machine import Machine

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "tools" / "gc_phases.py"

spec = importlib.util.spec_from_file_location("gc_phases", SCRIPT)
gc_phases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gc_phases)


def test_ledger_books_collections_to_the_current_phase():
    ledger = gc_phases.PhaseLedger()
    ledger.on_gc("start", {"generation": 2})
    ledger.on_gc("stop", {"generation": 2})      # between points: ignored
    ledger.phase = "setup"
    ledger.on_gc("start", {"generation": 2})
    ledger.on_gc("stop", {"generation": 2})
    ledger.phase = "run"
    ledger.on_gc("start", {"generation": 0})
    ledger.on_gc("stop", {"generation": 0})
    assert ledger.collections[("setup", 2)][0] == 1
    assert ledger.collections[("run", 0)][0] == 1
    assert sum(cell[0] for cell in ledger.collections.values()) == 2


def test_tiny_workload_report(capsys):
    run_before = Machine.__dict__["run"]
    callbacks_before = list(gc.callbacks)
    assert gc_phases.main(["--workload", "fig3_contention", "--tiny",
                           "--rounds", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["workload"] == "fig3_contention"
    for phase in gc_phases.PHASES:
        cell = report[phase]
        assert cell["seconds"] > 0
        assert abs(cell["net_seconds"] + cell["gc_seconds"]
                   - cell["seconds"]) < 1e-9
        assert set(cell["collections"]) == {"0", "1", "2"}
    # The tool leaves the class and the collector hooks as it found them.
    assert Machine.__dict__["run"] is run_before
    assert gc.callbacks == callbacks_before
