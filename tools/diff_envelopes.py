#!/usr/bin/env python3
"""Byte-compare ``repro.run/1`` envelopes, minus host-dependent fields.

The CI determinism jobs re-run one experiment under different execution
shapes — ``--jobs 1/2``, or directory representations that must be
protocol-equivalent — and demand bit-identical simulation output.
Host-time sections (``perf``, ``profile``) and parameters that only
label the run shape (``params.directory``) legitimately differ, so this
tool strips them, canonicalizes what is left
(``json.dumps(sort_keys=True)``), and compares byte-for-byte::

    python tools/diff_envelopes.py --ignore params.directory \\
        full.json limited.json coarse.json

The first file is the reference; every other file must match it exactly.
Any divergence prints the differing leaves and exits 1.  Stdlib only, so
the gate runs without installing the package.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Iterator, List

#: Sections that describe the host/run, not the simulation.  Always
#: stripped; the determinism guarantee is about simulation output.
#: (The ``critpath`` section is simulation output and is *not* stripped.)
HOST_SECTIONS = ("perf", "profile")


def load(path: pathlib.Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: {path}: unreadable ({exc})")
    if not isinstance(payload, dict) or "schema" not in payload:
        sys.exit(f"error: {path}: not a repro.run envelope")
    return payload


def strip(payload: dict, ignore: List[str]) -> dict:
    """Remove host sections and every ``--ignore`` dotted path."""
    doc = json.loads(json.dumps(payload))  # deep copy
    for section in HOST_SECTIONS:
        doc.pop(section, None)
    for dotted in ignore:
        node: Any = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                node = None
                break
            node = node[part]
        if isinstance(node, dict):
            node.pop(parts[-1], None)
    return doc


def leaf_diffs(a: Any, b: Any, path: str) -> Iterator[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in b:
                yield f"{path}.{key}: only in reference"
            elif key not in a:
                yield f"{path}.{key}: only in candidate"
            else:
                yield from leaf_diffs(a[key], b[key], f"{path}.{key}")
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: length {len(b)} != reference {len(a)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_diffs(x, y, f"{path}[{i}]")
        return
    if a != b or type(a) is not type(b):
        yield f"{path}: {b!r} != reference {a!r}"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail unless run envelopes are byte-identical "
                    "(host fields excluded).",
    )
    parser.add_argument("files", type=pathlib.Path, nargs="+",
                        help="envelopes; the first is the reference")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="DOTTED.PATH",
                        help="also strip this field before comparing "
                             "(repeatable; e.g. params.directory)")
    args = parser.parse_args(argv)
    if len(args.files) < 2:
        parser.error("need a reference and at least one candidate")

    reference_path = args.files[0]
    reference = strip(load(reference_path), args.ignore)
    ref_bytes = json.dumps(reference, sort_keys=True).encode()
    failures = 0
    for path in args.files[1:]:
        candidate = strip(load(path), args.ignore)
        if json.dumps(candidate, sort_keys=True).encode() == ref_bytes:
            print(f"ok   {path} == {reference_path}")
            continue
        failures += 1
        print(f"FAIL {path} != {reference_path}")
        shown = 0
        for diff in leaf_diffs(reference, candidate, "$"):
            print(f"  {diff}")
            shown += 1
            if shown >= 20:
                print("  ... (more diffs suppressed)")
                break
    if failures:
        print(f"\n{failures} envelope(s) diverged from {reference_path}.")
        return 1
    print(f"\nAll {len(args.files) - 1} envelope(s) byte-identical "
          f"to {reference_path} (host fields excluded).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
