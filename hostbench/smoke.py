"""Smoke check: run every workload at tiny size, in both trace modes.

Checks that each run exits 0, that its last stdout line is the result
object with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, and that the metric names and units it prints are exactly
those ``BENCHMARK.json`` lists (``end_to_end`` untraced, ``per_layer``
traced).  Takes about a minute::

    python3 hostbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {result}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: metrics {printed} != {expected}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_run(workload, 0, end_to_end)
        problems += check_run(workload, 1, per_layer)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
