"""End-to-end fault injection: correctness and determinism under chaos."""

import dataclasses

import pytest

from repro.apps.synthetic import SyntheticSpec, run_lockfree_counter
from repro.coherence.policy import SyncPolicy
from repro.config import small_config
from repro.faults.chaos import run_chaos_point
from repro.faults.plan import DEFAULT_CHAOS_PLAN, FaultPlan
from repro.sync.variant import PrimitiveVariant


def _chaos_machine(config, **kwargs):
    """Run one chaos point; return (verdict, machine)."""
    holder = {}
    verdict = run_chaos_point(
        config=config, observe=lambda m: holder.update(machine=m), **kwargs
    )
    return verdict, holder["machine"]


def test_zero_intensity_plan_is_bit_identical_to_plain_run():
    # An inactive plan must build no injector at all: same end time, same
    # registry, same verdict — structurally, not statistically, identical.
    plain = small_config(n_nodes=4)
    zeroed = dataclasses.replace(
        plain, faults=DEFAULT_CHAOS_PLAN.scaled(0.0)
    )
    verdict_a, machine_a = _chaos_machine(plain, turns=3)
    verdict_b, machine_b = _chaos_machine(zeroed, turns=3)
    assert machine_a.faults is None
    assert machine_b.faults is None
    assert machine_a.registry.snapshot() == machine_b.registry.snapshot()
    assert machine_a.now == machine_b.now
    # fault_seed legitimately differs (None vs the inactive plan's seed).
    verdict_a.pop("fault_seed")
    verdict_b.pop("fault_seed")
    assert verdict_a == verdict_b


@pytest.mark.parametrize("policy", ["INV", "UPD", "UNC"])
def test_full_intensity_chaos_point_stays_correct(policy):
    cfg = dataclasses.replace(
        small_config(n_nodes=8), faults=DEFAULT_CHAOS_PLAN
    )
    verdict, _ = _chaos_machine(cfg, policy=policy, turns=4)
    assert verdict["ok"], verdict["checks"]
    assert verdict["final"] == verdict["expected"] == 4 * 8
    # The plan's rates are high enough that faults actually fired.
    assert sum(verdict["faults"].values()) > 0


def test_llsc_point_survives_reservation_kills():
    plan = dataclasses.replace(DEFAULT_CHAOS_PLAN, res_kill_rate=0.3)
    cfg = dataclasses.replace(small_config(n_nodes=8), faults=plan)
    verdict, _ = _chaos_machine(cfg, policy="UNC", workload="llsc", turns=4)
    assert verdict["ok"], verdict["checks"]
    assert verdict["faults"]["faults.res.kill"] > 0


def test_dup_fires_on_drop_traffic_and_counter_stays_correct():
    # DROP notices flow when an update-policy line is relinquished via
    # drop_copy; the duplicated notice is idempotent, so the counter
    # check inside run_lockfree_counter must still pass.
    cfg = dataclasses.replace(
        small_config(n_nodes=4), faults=FaultPlan(seed=2, net_dup_rate=0.5)
    )
    holder = {}
    result = run_lockfree_counter(
        PrimitiveVariant("fap", SyncPolicy.UPD, use_drop=True),
        SyntheticSpec(contention=4, turns=3),
        cfg,
        observe=lambda m: holder.update(machine=m),
    )
    snap = holder["machine"].registry.snapshot()
    assert snap["faults.net.dup"] > 0
    assert result.extra["counter"] == result.updates


def test_chaos_point_is_deterministic():
    cfg = dataclasses.replace(
        small_config(n_nodes=8), faults=DEFAULT_CHAOS_PLAN
    )
    first = run_chaos_point(config=cfg, turns=3)
    second = run_chaos_point(config=cfg, turns=3)
    assert first == second
