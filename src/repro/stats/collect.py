"""Machine-wide statistics aggregation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..obs.latency import LatencyTracker, TxnBreakdown
from ..obs.registry import MetricsRegistry
from .contention import ContentionTracker
from .writerun import WriteRunTracker

__all__ = ["MachineStats"]


@dataclass
class MachineStats:
    """All cross-cutting counters of one simulation.

    Component-local counters (cache hit rates, memory queue waits, network
    flits) live on the components (registry-backed; see
    :mod:`repro.obs.registry`); this object holds the sharing-pattern
    statistics the paper's evaluation is built on, per-transaction
    serialized-message accounting, and the latency instrument
    (:class:`~repro.obs.latency.LatencyTracker`), which the machine
    feeds only while its event bus has a subscriber.

    When attached to a registry (every :class:`~repro.machine.machine.
    Machine` does this), transaction counts and chain totals are also
    published as ``txn.<kind>.count`` / ``txn.<kind>.chain`` so they can
    be snapshotted and exported with everything else.
    """

    contention: ContentionTracker = field(default_factory=ContentionTracker)
    writerun: WriteRunTracker = field(default_factory=WriteRunTracker)
    transactions: Counter = field(default_factory=Counter)
    chain_total: Counter = field(default_factory=Counter)
    latency: LatencyTracker = field(default_factory=LatencyTracker)

    def __post_init__(self) -> None:
        self._registry: Optional[MetricsRegistry] = None
        self._txn_counters: dict[str, tuple] = {}

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """Mirror transaction accounting into ``registry`` (``txn.*``)."""
        self._registry = registry
        self._txn_counters.clear()

    def note_access(self, addr: int, pid: int, is_write: bool) -> None:
        """Record a program-level access for write-run tracking."""
        self.writerun.note_access(addr, pid, is_write)

    def note_transaction(self, kind: str, chain: int) -> None:
        """Record a completed requester transaction and its chain depth."""
        self.transactions[kind] += 1
        self.chain_total[kind] += chain
        if self._registry is not None:
            pair = self._txn_counters.get(kind)
            if pair is None:
                pair = self._txn_counters[kind] = (
                    self._registry.counter(f"txn.{kind}.count"),
                    self._registry.counter(f"txn.{kind}.chain"),
                )
            pair[0].value += 1
            pair[1].value += chain

    def note_txn_latency(
        self, kind: str, policy: str, breakdown: TxnBreakdown
    ) -> None:
        """Record one transaction's finished latency breakdown."""
        self.latency.note(kind, policy, breakdown)

    def mean_chain(self, kind: str) -> float:
        """Mean serialized messages for transactions of ``kind``."""
        n = self.transactions.get(kind, 0)
        return self.chain_total.get(kind, 0) / n if n else 0.0
