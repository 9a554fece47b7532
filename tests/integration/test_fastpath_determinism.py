"""Golden seeded-run determinism across the simulation fast path.

The kernel optimizations (calendar-queue event core, message pooling,
hot-path counter caches) must be *invisible*: every seeded run stays
bit-identical to the values captured before the fast path landed, with
observability on or off, at any sweep job count.  These goldens pin a
contention storm per primitive family and policy, plus a rotating
counter workload on the paper's machine at 64 and 256 nodes; if an
optimization ever changes a cycle count or message count, this file
fails before the benchmark gate does.
"""

import hashlib
import json

import pytest

from repro import SyncPolicy, build_machine, small_config
from repro.config import SimConfig
from repro.harness.table1 import TABLE1_EXPECTED, run_table1
from repro.obs.critpath import CritPathAggregator
from repro.obs.events import EventRecorder
from repro.obs.hotspot import HotspotTracker
from repro.obs.spans import SpanBuilder

#: (primitive, policy) -> (end cycle, events executed, net messages,
#: net flits, final counter value) for a 4-node, 8-turn storm on the
#: seeded small config.  Captured on the pre-fast-path kernel; any drift
#: is a semantic change, not an optimization.
GOLDEN_STORMS = {
    ("faa", "INV"): (567, 94, 26, 78, 32),
    ("faa", "UPD"): (670, 312, 204, 564, 32),
    ("faa", "UNC"): (657, 132, 48, 144, 32),
    ("llsc", "UNC"): (3537, 644, 288, 864, 32),
}

#: (nodes, turns) -> (end cycle, events executed, net messages, net
#: flits) for the rotating-counter contention workload on the CLI's
#: default config at that size (``SimConfig().with_nodes(n)``), plus the
#: critical-path aggregate with spans attached: (remote transactions,
#: summed critical-path cycles, SHA-256 of the canonical snapshot).
GOLDEN_CONTENTION = {
    (64, 8): ((4978, 5034, 1984, 5952),
              (512, 184_195, "3ea417d6625db932e9cd5f53bad8899c"
                             "c09ba88c71ce8c0414e544b484ea3ee8")),
    (256, 4): ((2606, 10030, 3952, 11856),
               (1024, 325_274, "58ecd1c71b0d5b6084e29af2c0c93417"
                               "7d01cab000d4b7586a332a62c4149b92")),
}


def _storm(prim: str, policy: str, observe: bool = False):
    m = build_machine(small_config(n_nodes=4))
    instruments = None
    if observe:
        instruments = (
            EventRecorder(m.events),
            SpanBuilder(m.events),
            HotspotTracker(m.events),
        )
    addr = m.alloc_sync(SyncPolicy(policy), home=1)

    if prim == "faa":
        def prog(p):
            for _ in range(8):
                yield p.fetch_add(addr, 1)
    else:
        def prog(p):
            for _ in range(8):
                while True:
                    v = yield p.ll(addr)
                    ok = yield p.sc(addr, v.value + 1, token=v.token)
                    if ok:
                        break

    m.spawn_all(prog)
    end = m.run()
    net = m.mesh.stats
    outcome = (end, m.sim.events_processed, net.messages, net.flits,
               m.read_word(addr))
    return outcome, m, instruments


def _contention(n_nodes: int, turns: int, observe: bool = False):
    """Rotating fetch&adds over n/4 INV counters with spread homes and
    per-pid think jitter; every counter must end at its expected count."""
    m = build_machine(SimConfig().with_nodes(n_nodes))
    spans = SpanBuilder(m.events) if observe else None
    k = max(2, n_nodes // 4)
    counters = [m.alloc_sync(SyncPolicy.INV, home=(i * 3) % n_nodes)
                for i in range(k)]
    expected = [0] * k
    for pid in range(n_nodes):
        for t in range(turns):
            expected[(pid + t) % k] += 1

    def prog(p):
        for t in range(turns):
            yield p.think((p.pid * 7 + t * 13) % 23 + 1)
            yield p.fetch_add(counters[(p.pid + t) % k], 1)

    m.spawn_all(prog)
    end = m.run()
    assert [m.read_word(addr) for addr in counters] == expected
    net = m.mesh.stats
    outcome = (end, m.sim.events_processed, net.messages, net.flits)
    return outcome, m, spans


@pytest.mark.parametrize("n_nodes,turns", sorted(GOLDEN_CONTENTION))
def test_contention_matches_serial_golden(n_nodes, turns):
    bare, bare_machine, _ = _contention(n_nodes, turns)
    assert bare == GOLDEN_CONTENTION[(n_nodes, turns)][0]
    # Spans attached: same run, same registry, and a pinned blame digest.
    observed, machine, spans = _contention(n_nodes, turns, observe=True)
    assert observed == bare
    assert machine.registry.snapshot() == bare_machine.registry.snapshot()
    assert spans.check_all() == []
    remote = spans.remote()
    snapshot = CritPathAggregator.from_graphs(remote).snapshot()
    digest = hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode()
    ).hexdigest()
    txns, cycles, want = GOLDEN_CONTENTION[(n_nodes, turns)][1]
    assert (len(remote), sum(g.critical_cycles() for g in remote)) \
        == (txns, cycles)
    assert digest == want


@pytest.mark.parametrize("prim,policy", sorted(GOLDEN_STORMS))
def test_storm_matches_pre_fastpath_golden(prim, policy):
    outcome, _, _ = _storm(prim, policy)
    assert outcome == GOLDEN_STORMS[(prim, policy)]


@pytest.mark.parametrize("prim,policy", sorted(GOLDEN_STORMS))
def test_storm_identical_with_observability_attached(prim, policy):
    bare, bare_machine, _ = _storm(prim, policy, observe=False)
    observed, obs_machine, instruments = _storm(prim, policy, observe=True)
    assert observed == bare
    assert instruments is not None and len(instruments[0]) > 0
    # The full registry must agree too, not just the headline numbers.
    assert obs_machine.registry.snapshot() == bare_machine.registry.snapshot()


def test_table1_identical_serial_and_parallel():
    serial = run_table1(jobs=1, cache=None)
    parallel = run_table1(jobs=2, cache=None)
    assert serial == parallel == TABLE1_EXPECTED


def test_repeated_runs_share_every_registry_counter():
    _, first, _ = _storm("faa", "INV")
    _, second, _ = _storm("faa", "INV")
    assert first.registry.snapshot() == second.registry.snapshot()
