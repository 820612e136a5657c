"""The drift monitor: turn what the statistics catalog observes into actions.

The self-tuning loop's sensor.  The serving layer already measures a lot —
per-fragment read counts and EWMA latencies, per-shard EWMA cardinalities,
maintenance staleness, per-tenant usage — and the :class:`DriftMonitor`
consumes those observations (it issues **no** queries and touches **no**
store) to detect four kinds of drift:

* **hot fragments** — a large share of reads concentrates on one fragment
  whose smoothed latency exceeds the policy threshold: the placement is the
  bottleneck of the shifted workload;
* **hot shards** — one shard's observed cardinality grew far beyond the
  mean: the shard key skews and the fan-out/pruning trade-off moved;
* **cold fragments** — a fragment no query has read while real traffic ran:
  its space and maintenance cost buy nothing (reported as a drop candidate;
  auto-retired only when the policy opts in via ``retire_cold``);
* **chronically stale fragments** — a maintenance backlog that keeps aging:
  the write path cannot keep the placement fresh where it lives.

:meth:`DriftMonitor.plan_actions` turns hot-fragment/hot-shard/stale
findings into migration targets by picking the cheapest registered store
(lowest simulated service latency) that can host the fragment, and
:meth:`Estocada.autotune` executes them through the migration engine — the
full loop the paper sketches: observe, recommend, re-organize, unattended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.catalog.descriptors import StorageDescriptor
from repro.errors import UnknownFragmentError
from repro.stores.base import Store
from repro.stores.replicated import ReplicatedStore
from repro.stores.sharded import ShardedStore

__all__ = [
    "AutotunePolicy",
    "DriftFinding",
    "MigrationAction",
    "RetirementAction",
    "DriftMonitor",
]


@dataclass(frozen=True, slots=True)
class DriftFinding:
    """One detected drift symptom, with a severity for ranking."""

    kind: str  # "hot_fragment" | "hot_shard" | "cold_fragment" | "stale_fragment"
    fragment: str
    severity: float
    detail: str

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly form (surfaces in autotune reports)."""
        return {
            "kind": self.kind,
            "fragment": self.fragment,
            "severity": self.severity,
            "detail": self.detail,
        }


@dataclass(frozen=True, slots=True)
class MigrationAction:
    """One planned migration: move ``fragment`` to ``target_store``."""

    fragment: str
    target_store: str
    reason: str

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly form."""
        return {
            "fragment": self.fragment,
            "target_store": self.target_store,
            "reason": self.reason,
        }


@dataclass(frozen=True, slots=True)
class RetirementAction:
    """One planned retirement: drop cold ``fragment`` from the catalog.

    Retirement goes through :meth:`Estocada.drop_fragment`, i.e. the scoped
    per-relation epoch invalidation path — only cached plans whose queries
    can reach the fragment's relations re-plan; the store's data stays in
    place (reclaiming it is the operator's call).
    """

    fragment: str
    reason: str

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly form."""
        return {
            "fragment": self.fragment,
            "retire": True,
            "reason": self.reason,
        }


@dataclass(slots=True)
class AutotunePolicy:
    """Thresholds of the drift detectors (conservative by default).

    A fragment is *hot* when it has seen at least ``min_reads`` reads, holds
    at least ``hot_read_share`` of all fragment reads, and its EWMA read
    latency exceeds ``hot_latency_seconds``.  A shard is *hot* when its
    observed cardinality exceeds ``shard_skew_ratio`` times the mean of its
    siblings.  A fragment is *cold* once total traffic passed
    ``cold_after_reads`` reads without touching it, and *chronically stale*
    when its maintenance backlog's age (global writes since its oldest
    pending delta) exceeds ``stale_age_writes``.
    """

    min_reads: int = 10
    hot_read_share: float = 0.34
    hot_latency_seconds: float = 0.005
    shard_skew_ratio: float = 3.0
    cold_after_reads: int = 50
    stale_age_writes: int = 100
    # Opt-in: turn cold-fragment findings into RetirementActions (dropped
    # through the facade's scoped invalidation path) instead of leaving them
    # as report-only drop candidates.
    retire_cold: bool = False


class DriftMonitor:
    """Detects workload drift from already-gathered observations."""

    def __init__(self, estocada, policy: AutotunePolicy | None = None) -> None:
        self._estocada = estocada
        self._policy = policy or AutotunePolicy()

    @property
    def policy(self) -> AutotunePolicy:
        """The thresholds this monitor detects with."""
        return self._policy

    # -- detection ---------------------------------------------------------------------
    def findings(self) -> list[DriftFinding]:
        """Every drift symptom currently visible, most severe first."""
        found: list[DriftFinding] = []
        found.extend(self._hot_fragments())
        found.extend(self._hot_shards())
        found.extend(self._cold_fragments())
        found.extend(self._stale_fragments())
        found.sort(key=lambda finding: (-finding.severity, finding.fragment, finding.kind))
        return found

    def _hot_fragments(self) -> list[DriftFinding]:
        policy = self._policy
        statistics = self._estocada.statistics
        usage = statistics.usage_snapshot()
        total_reads = sum(entry.reads for entry in usage.values())
        if total_reads <= 0:
            return []
        found: list[DriftFinding] = []
        for name, entry in usage.items():
            if entry.reads < policy.min_reads:
                continue
            share = entry.reads / total_reads
            latency = entry.ewma_latency_seconds or 0.0
            if share >= policy.hot_read_share and latency >= policy.hot_latency_seconds:
                found.append(
                    DriftFinding(
                        kind="hot_fragment",
                        fragment=name,
                        severity=share * latency,
                        detail=(
                            f"{entry.reads}/{total_reads} reads "
                            f"({share:.0%}) at EWMA {latency * 1e3:.2f} ms"
                        ),
                    )
                )
        return found

    def _hot_shards(self) -> list[DriftFinding]:
        policy = self._policy
        statistics = self._estocada.statistics
        found: list[DriftFinding] = []
        for descriptor in self._estocada.catalog.fragments():
            if descriptor.sharding is None:
                continue
            name = descriptor.fragment_name
            observed = [
                statistics.observed_shard_cardinality(name, shard)
                for shard in range(descriptor.sharding.shards)
            ]
            samples = [value for value in observed if value is not None]
            if len(samples) < 2:
                continue
            mean = sum(samples) / len(samples)
            if mean <= 0:
                continue
            worst = max(samples)
            ratio = worst / mean
            if ratio >= policy.shard_skew_ratio:
                found.append(
                    DriftFinding(
                        kind="hot_shard",
                        fragment=name,
                        severity=ratio,
                        detail=(
                            f"hottest shard holds {worst:.0f} rows, "
                            f"{ratio:.1f}x the {mean:.0f}-row mean"
                        ),
                    )
                )
        return found

    def _cold_fragments(self) -> list[DriftFinding]:
        policy = self._policy
        statistics = self._estocada.statistics
        usage = statistics.usage_snapshot()
        total_reads = sum(entry.reads for entry in usage.values())
        if total_reads < policy.cold_after_reads:
            return []
        found: list[DriftFinding] = []
        for descriptor in self._estocada.catalog.fragments():
            name = descriptor.fragment_name
            entry = usage.get(name)
            if entry is None or entry.reads == 0:
                found.append(
                    DriftFinding(
                        kind="cold_fragment",
                        fragment=name,
                        severity=1.0,
                        detail=f"0 reads while {total_reads} fragment reads ran",
                    )
                )
        return found

    def _stale_fragments(self) -> list[DriftFinding]:
        policy = self._policy
        statistics = self._estocada.statistics
        found: list[DriftFinding] = []
        for name in self._estocada.maintenance.stale_fragments():
            staleness = statistics.fragment_staleness(name)
            if staleness.age > policy.stale_age_writes:
                found.append(
                    DriftFinding(
                        kind="stale_fragment",
                        fragment=name,
                        severity=float(staleness.age),
                        detail=(
                            f"{staleness.pending_deltas} pending delta(s) aged "
                            f"{staleness.age} writes"
                        ),
                    )
                )
        return found

    # -- planning ----------------------------------------------------------------------
    def plan_actions(
        self, findings: Sequence[DriftFinding] | None = None
    ) -> "list[MigrationAction | RetirementAction]":
        """Actions for the actionable findings (hot/stale placements, cold drops).

        Cold fragments become *drop candidates* for the advisor by default;
        with the policy's ``retire_cold`` set they become
        :class:`RetirementAction` items the facade drops through its scoped
        invalidation path.  At most one action per fragment; a migration's
        target is the cheapest registered store (lowest simulated service
        latency) that can host the fragment and differs from its current
        home.
        """
        if findings is None:
            findings = self.findings()
        actions: "list[MigrationAction | RetirementAction]" = []
        planned: set[str] = set()
        for finding in findings:
            if finding.fragment in planned:
                continue
            if finding.kind == "cold_fragment":
                if not self._policy.retire_cold:
                    continue
                try:
                    self._estocada.catalog.fragment(finding.fragment)
                except UnknownFragmentError:  # raced with a concurrent drop
                    continue
                planned.add(finding.fragment)
                actions.append(
                    RetirementAction(
                        fragment=finding.fragment,
                        reason=f"{finding.kind}: {finding.detail}",
                    )
                )
                continue
            if finding.kind not in {"hot_fragment", "hot_shard", "stale_fragment"}:
                continue
            try:
                descriptor = self._estocada.catalog.fragment(finding.fragment)
            except UnknownFragmentError:  # raced with a concurrent drop
                continue
            target = self._best_store(descriptor)
            if target is None:
                continue
            planned.add(finding.fragment)
            actions.append(
                MigrationAction(
                    fragment=finding.fragment,
                    target_store=target,
                    reason=f"{finding.kind}: {finding.detail}",
                )
            )
        return actions

    def _best_store(self, descriptor: StorageDescriptor) -> str | None:
        """The cheapest registered store that can host this fragment, or None.

        "Can host" is structural: a sharded target needs the descriptor's
        sharding spec to match its shard count; a lookup fragment needs key
        lookups; scan fragments need scans (which excludes lookup-only
        key-value stores).  Replicated targets are skipped — replication is a
        durability choice, not a latency fix.  Returns None when the current
        placement is already the cheapest.
        """
        current = descriptor.store
        best_name: str | None = None
        best_latency = float("inf")
        for name, store in self._estocada.catalog.stores().items():
            if name == current or not self._can_host(store, descriptor):
                continue
            latency = store.simulated_latency
            if latency < best_latency:
                best_latency = latency
                best_name = name
        if best_name is None:
            return None
        current_latency = self._estocada.catalog.store(current).simulated_latency
        if best_latency >= current_latency:
            return None
        return best_name

    @staticmethod
    def _can_host(store: Store, descriptor: StorageDescriptor) -> bool:
        if isinstance(store, ReplicatedStore):
            return False
        if isinstance(store, ShardedStore):
            return (
                descriptor.sharding is not None
                and descriptor.sharding.shards == store.shard_count
            )
        capabilities = store.capabilities()
        if descriptor.access.kind == "lookup":
            return capabilities.supports_key_lookup or not capabilities.requires_key_lookup
        if descriptor.access.kind == "search":
            return capabilities.supports_text_search
        return capabilities.supports_scan and not capabilities.requires_key_lookup
