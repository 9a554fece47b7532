"""The benchmark's workloads and the digest that pins their results.

Each workload is a fixed list of sweep points built with
:func:`repro.harness.parallel.make_point`; every point builds a fresh
machine, so caches start empty, as in the paper's experiments.  Why
each workload was chosen is in ``README.md``.

The seed reaches the program only as inputs: it sets ``SimConfig.seed``
(the per-processor RNGs behind lock backoff and retry loops) and the
Transitive Closure graph seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.apps.cholesky import run_cholesky
from repro.apps.locusroute import run_locusroute
from repro.apps.synthetic import SyntheticSpec, run_lockfree_counter
from repro.apps.tclosure import run_transitive_closure
from repro.coherence.policy import SyncPolicy
from repro.config import SimConfig, scale_config
from repro.harness.parallel import PointOutcome, SweepPoint, make_point
from repro.sync.variant import PrimitiveVariant

__all__ = ["WORKLOADS", "DEFAULT_SEED", "points", "point_digest",
           "workload_digest"]

WORKLOADS = ("fig6_apps", "fig3_contention", "torus1024")

#: The seed whose digests are pinned in ``pinned.json``.
DEFAULT_SEED = 1

#: Figure 3 contention level: every processor of the 64-node machine,
#: and 64 of the 1024 on the torus.
CONTENTION = 64

# Full sizes, chosen so that one pass over a workload's points takes a
# few seconds on a 2-core host and a run holds several passes.
# LocusRoute and Cholesky keep their per-processor task grain but get
# half their default task counts (6 wires, 4.5 columns per processor).
LOCUSROUTE_WIRES = 3 * 64
CHOLESKY_COLUMNS = 144
TCLOSURE_SIZE = 8
FIG3_TURNS = 8
TORUS_TURNS = 1

FIG6_VARIANTS = (
    PrimitiveVariant("fap", SyncPolicy.UNC),
    PrimitiveVariant("cas", SyncPolicy.INV, use_lx=True),
    PrimitiveVariant("fap", SyncPolicy.UPD),
)
FIG3_VARIANTS = (
    PrimitiveVariant("fap", SyncPolicy.UNC),
    PrimitiveVariant("fap", SyncPolicy.INV),
    PrimitiveVariant("cas", SyncPolicy.INV, use_lx=True),
    PrimitiveVariant("llsc", SyncPolicy.INV),
    PrimitiveVariant("fap", SyncPolicy.UPD),
)
TORUS_VARIANTS = (
    PrimitiveVariant("fap", SyncPolicy.UNC),
    PrimitiveVariant("cas", SyncPolicy.INV, use_lx=True),
    PrimitiveVariant("cas", SyncPolicy.UPD),
)


def points(workload: str, seed: int, tiny: bool = False) -> list[SweepPoint]:
    """The workload's sweep points, cheapest first (the warm-up point).

    ``tiny`` shrinks every input to a smoke-test size; its results are
    not pinned.
    """
    if workload == "fig6_apps":
        config = SimConfig(seed=seed)
        apps: tuple[tuple[str, Any, dict[str, Any]], ...] = (
            ("locusroute", run_locusroute, {"n_wires": LOCUSROUTE_WIRES}),
            ("cholesky", run_cholesky, {"n_columns": CHOLESKY_COLUMNS}),
            ("tclosure", run_transitive_closure,
             {"size": TCLOSURE_SIZE, "seed": seed}),
        )
        if tiny:
            apps = (
                ("locusroute", run_locusroute, {"n_wires": 16}),
                ("cholesky", run_cholesky, {"n_columns": 16}),
                ("tclosure", run_transitive_closure, {"size": 3, "seed": seed}),
            )
        # make_point's own ``seed`` keyword overrides the config seed,
        # so the graph seed goes into the point's kwargs directly.
        return [
            dataclasses.replace(
                make_point(runner, variant=variant, config=config,
                           label=f"{app} {variant.label}"),
                kwargs=tuple(sorted(kwargs.items())),
            )
            for variant in FIG6_VARIANTS
            for app, runner, kwargs in apps
        ]
    if workload == "fig3_contention":
        config = SimConfig(seed=seed)
        spec = SyntheticSpec(contention=CONTENTION,
                             turns=1 if tiny else FIG3_TURNS)
        variants = FIG3_VARIANTS
    elif workload == "torus1024":
        nodes, contention = (64, 16) if tiny else (1024, CONTENTION)
        config = dataclasses.replace(
            scale_config(nodes, topology="torus", directory="limited"),
            seed=seed,
        )
        spec = SyntheticSpec(contention=contention, turns=TORUS_TURNS)
        variants = TORUS_VARIANTS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        make_point(run_lockfree_counter, variant=variant, spec=spec,
                   config=config, label=f"lockfree {variant.label}")
        for variant in variants
    ]


def point_digest(outcome: PointOutcome) -> str:
    """SHA-256 over a point's simulated results.

    Covers the whole ``AppResult`` (cycles, updates, final values),
    ``net.messages`` / ``net.flits`` and every ``cache.*.hits`` /
    ``cache.*.misses`` counter.  It leaves out ``sim.events_processed``,
    which an engine optimisation may legitimately lower.
    """
    metrics = outcome.metrics
    record = {
        "result": dataclasses.asdict(outcome.result),
        "net": [metrics.get("net.messages"), metrics.get("net.flits")],
        "cache": {
            key: value for key, value in metrics.items()
            if key.startswith("cache.")
            and key.endswith((".hits", ".misses"))
        },
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(point_digests: list[str]) -> str:
    """One digest for a workload: SHA-256 over its points' digests, in order."""
    return hashlib.sha256("".join(point_digests).encode()).hexdigest()
