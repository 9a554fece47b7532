"""Latency breakdown: categories sum exactly to end-to-end cycles."""

import pytest

from repro import SyncPolicy
from repro.obs.events import EventRecorder
from repro.obs.latency import CATEGORIES, LatencyTracker, TxnBreakdown

from tests.conftest import make_machine, run_one


def test_breakdown_cursor_no_double_count():
    b = TxnBreakdown(100)
    b.credit("network", 110)
    b.credit("queue", 125)
    b.credit("memory", 125)     # fully covered: adds nothing
    b.credit("network", 120)    # behind the cursor: adds nothing
    b.credit("controller", 130)
    assert b.parts == {"network": 10, "queue": 15, "controller": 5}
    assert b.total == 30
    assert sum(b.parts.values()) == b.total


def test_breakdown_gap_folds_into_next_segment():
    b = TxnBreakdown(0)
    b.credit("network", 10)
    # Nothing claimed cycles 10..20; the next credit absorbs them.
    b.credit("memory", 30)
    assert b.parts == {"network": 10, "memory": 20}
    assert sum(b.parts.values()) == b.total == 30


def test_tracker_percentiles_and_snapshot():
    tracker = LatencyTracker()
    for total in (10, 20, 30, 40, 100):
        b = TxnBreakdown(0)
        b.credit("network", total)
        tracker.note("faa", "INV", b)
    stats = tracker.get("faa", "INV")
    assert stats.count == 5
    pct = stats.percentiles()
    # Nearest-rank with round-half-even: rank 2 of 5 for p50.
    assert pct["p50"] == 20
    assert pct["p95"] == 100
    assert pct["max"] == 100
    snap = tracker.snapshot()["faa/INV"]
    assert snap["count"] == 5
    assert snap["mean"] == pytest.approx(40.0)
    assert snap["by_category"] == {"network": 200}
    assert tracker.keys() == [("faa", "INV")]
    assert "faa/INV" in tracker.render()


def _txn_durations(recorder):
    """(node-ordered) durations of remote transactions from the event log."""
    pending = {}
    durations = []
    for e in recorder.events:
        if e.kind == "atomic.start":
            pending[e.node] = e.ts
        elif e.kind == "atomic.complete":
            start = pending.pop(e.node)
            if not e.data.get("local"):
                durations.append(e.ts - start)
    return durations


@pytest.mark.parametrize("policy", [SyncPolicy.INV, SyncPolicy.UPD,
                                    SyncPolicy.UNC])
def test_breakdown_sums_equal_transaction_cycles(policy):
    m = make_machine(4)
    recorder = EventRecorder(m.events,
                             kinds=("atomic.start", "atomic.complete"))
    addr = m.alloc_sync(policy, home=1)

    def bump(p, addr):
        yield p.fetch_add(addr, 1)

    for pid in range(4):
        m.spawn(pid, bump, addr)
    m.run()
    assert m.read_word(addr) == 4

    totals = []
    by_category_sum = 0
    for key in m.stats.latency.keys():
        stats = m.stats.latency.get(*key)
        totals.extend(stats.totals)
        assert set(stats.by_category) <= set(CATEGORIES)
        # Aggregate category cycles sum exactly to aggregate end-to-end.
        assert sum(stats.by_category.values()) == sum(stats.totals), key
        by_category_sum += sum(stats.by_category.values())

    # Every remote transaction's event-log duration matches a recorded
    # breakdown total, one-to-one.
    assert sorted(_txn_durations(recorder)) == sorted(totals)
    assert by_category_sum == sum(totals)
    assert totals, "contended fetch_add must produce remote transactions"


def test_breakdown_sums_for_store_chain():
    m = make_machine(4)
    recorder = EventRecorder(m.events,
                             kinds=("atomic.start", "atomic.complete"))
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, addr, v):
        yield p.store(addr, v)

    run_one(m, 2, put, addr, 1)   # remote exclusive
    run_one(m, 0, put, addr, 2)   # 4-message ownership transfer
    stats = m.stats.latency.get("store", "INV")
    assert stats is not None and stats.count == 2
    assert sum(stats.by_category.values()) == sum(stats.totals)
    assert sorted(_txn_durations(recorder)) == sorted(stats.totals)
    # The uncontended ownership transfer spends no time queued, but does
    # flow through the network, the memory module, and the controller.
    assert {"network", "memory", "controller"} <= set(stats.by_category)


# ----------------------------------------------------------------------
# The instrument switch: latency accounting runs only while the bus is
# active.  (The registry is the same with the bus on or off:
# tests/integration/test_fastpath_determinism.py.)
# ----------------------------------------------------------------------

def _contended_machine(policy, observe: bool):
    m = make_machine(4)
    if observe:
        EventRecorder(m.events)
    addr = m.alloc_sync(policy, home=1)

    def bump(p, addr):
        for _ in range(3):
            yield p.fetch_add(addr, 1)

    m.spawn_all(bump, addr)
    m.run()
    assert m.read_word(addr) == 12
    return m


def _always_on_counters(m):
    snap = m.registry.snapshot()
    waits = sum(value for key, value in snap.items()
                if key.startswith("mem.") and key.endswith(".queue_wait"))
    return snap["net.total_latency"], waits


@pytest.mark.parametrize("policy", [SyncPolicy.INV, SyncPolicy.UPD,
                                    SyncPolicy.UNC])
def test_bare_machine_keeps_no_latency_accounting(policy, monkeypatch):
    from repro.coherence import controller

    built = []

    class CountingBreakdown(TxnBreakdown):
        def __init__(self, start):
            built.append(start)
            super().__init__(start)

    monkeypatch.setattr(controller, "TxnBreakdown", CountingBreakdown)
    m = _contended_machine(policy, observe=False)
    assert built == []
    assert m.stats.latency.keys() == []
    assert len(m.stats.latency.histograms) == 0
    names = m.registry.names()
    assert "net.latency" not in names
    assert not [n for n in names if n.endswith(".queue_wait_hist")]
    assert all(node.controller._spurious_rng is None for node in m.nodes)


@pytest.mark.parametrize("policy", [SyncPolicy.INV, SyncPolicy.UPD,
                                    SyncPolicy.UNC])
def test_instrument_histograms_agree_with_counters(policy):
    m = _contended_machine(policy, observe=True)
    snap = m.registry.snapshot()
    hists = m.stats.latency.histograms.snapshot()
    net = hists["net.latency"]
    assert net["count"] == snap["net.messages"]
    assert net["total"] == snap["net.total_latency"]
    for node in range(m.n_nodes):
        wait = hists.get(f"mem.{node}.queue_wait_hist",
                         {"count": 0, "total": 0})
        assert wait["count"] == snap[f"mem.{node}.accesses"]
        assert wait["total"] == snap[f"mem.{node}.queue_wait"]
    # Every remote transaction was broken down.
    recorded = sum(stats.count for stats in
                   (m.stats.latency.get(*key)
                    for key in m.stats.latency.keys()))
    assert recorded == sum(m.stats.transactions.values())


def test_always_on_counters_pinned():
    """``net.total_latency`` / ``mem.*.queue_wait`` of a TTS-lock counter
    (backoff draws from the processor RNGs), pinned from the simulator as
    it was when latency accounting was always on and every RNG was
    seeded at build time."""
    from repro import SimConfig
    from repro.apps.synthetic import SyntheticSpec, run_tts_counter
    from repro.config import MachineConfig
    from repro.sync.variant import PrimitiveVariant

    expected = {
        SyncPolicy.INV: (43185, 21779, 133130, 1881),
        SyncPolicy.UPD: (53101, 148709, 12270, 3523),
        SyncPolicy.UNC: (43055, 18040, 90950, 1555),
    }
    for policy, pinned in expected.items():
        machines = []
        result = run_tts_counter(
            PrimitiveVariant("fap", policy),
            SyntheticSpec(contention=16, turns=3),
            config=SimConfig(machine=MachineConfig(n_nodes=16), seed=7),
            observe=machines.append,
        )
        m = machines[0]
        got = (result.cycles, *_always_on_counters(m),
               m.registry.snapshot()["net.messages"])
        assert got == pinned, policy
