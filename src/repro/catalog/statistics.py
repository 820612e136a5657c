"""Per-fragment statistics gathering for the cost model.

ESTOCADA "estimates the cardinality of [a delegated query's] result, based on
statistics it gathers and stores on the data of each fragment and using
database textbook formulas".  :class:`StatisticsCatalog` collects and caches
those statistics from the stores via the common store interface.

The catalog also closes the runtime → planner feedback loop: the execution
engine reports the row count of every fully-drained, unrestricted fragment
scan, and :meth:`StatisticsCatalog.record_observation` folds those observed
cardinalities into an exponentially-weighted moving estimate that
:meth:`StatisticsCatalog.get` returns in place of the stale base cardinality.
The returned *drift* (relative change against the estimate the planner was
using) lets the facade invalidate cached plans whose cost estimates no
longer reflect reality.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.catalog.manager import StorageDescriptorManager
from repro.errors import CatalogError, StoreError

__all__ = [
    "FragmentStatistics",
    "FragmentStaleness",
    "FragmentUsage",
    "StatisticsCatalog",
    "TenantUsage",
    "DRIFT_THRESHOLD",
    "OBSERVATION_SMOOTHING",
    "READ_LATENCY_SMOOTHING",
    "ReplicaStatistics",
    "ReplicaHealthBoard",
    "REPLICA_LATENCY_SMOOTHING",
    "REPLICA_UNHEALTHY_AFTER",
]

DRIFT_THRESHOLD = 0.5
"""Relative drift past which a fragment is recounted and its cached plans dropped."""

OBSERVATION_SMOOTHING = 0.4
"""Weight of the newest observation in the exponentially-weighted estimate."""

READ_LATENCY_SMOOTHING = 0.3
"""Weight of the newest sample in a fragment's EWMA read latency."""

REPLICA_LATENCY_SMOOTHING = 0.3
"""Weight of the newest latency sample in a replica's EWMA service latency."""

REPLICA_UNHEALTHY_AFTER = 3
"""Consecutive failures after which a replica is considered unhealthy."""


@dataclass(slots=True)
class ReplicaStatistics:
    """Health and latency tracking of one replica of a replicated store.

    ``ewma_latency_seconds`` is the exponentially-weighted service latency of
    successful requests (None until the first success).  A replica turns
    *unhealthy* after ``unhealthy_after`` consecutive failures and recovers on
    the next success — unhealthy replicas are deprioritized by the router and
    priced out by the cost model, but stay reachable as a last resort.
    """

    replica: str
    unhealthy_after: int = REPLICA_UNHEALTHY_AFTER
    ewma_latency_seconds: float | None = None
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    hedges_won: int = 0

    @property
    def healthy(self) -> bool:
        """Whether the replica is currently believed able to serve requests."""
        return self.consecutive_failures < self.unhealthy_after

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly snapshot of this replica's health."""
        return {
            "replica": self.replica,
            "healthy": self.healthy,
            "ewma_latency_seconds": self.ewma_latency_seconds,
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "hedges_won": self.hedges_won,
        }


class ReplicaHealthBoard:
    """Per-replica health/latency tracking shared by router, planner and cost model.

    One board belongs to one :class:`~repro.stores.replicated.ReplicatedStore`;
    the store records every attempt's outcome, the router ranks replicas from
    it (cheapest healthy EWMA latency first), the cost model prices replicated
    accesses with :meth:`best_healthy_latency`, and the hedge trigger derives
    its delay from :meth:`latency_percentile`.  All methods are thread-safe —
    hedged attempts record from their own threads.
    """

    def __init__(
        self,
        replicas: Sequence[str],
        unhealthy_after: int = REPLICA_UNHEALTHY_AFTER,
        smoothing: float = REPLICA_LATENCY_SMOOTHING,
    ) -> None:
        self._lock = threading.Lock()
        self._smoothing = min(max(smoothing, 0.0), 1.0)
        self._replicas = [
            ReplicaStatistics(replica=name, unhealthy_after=max(1, unhealthy_after))
            for name in replicas
        ]

    def __len__(self) -> int:
        return len(self._replicas)

    def statistics(self, index: int) -> ReplicaStatistics:
        """The tracked statistics of replica ``index``."""
        return self._replicas[index]

    # -- recording ------------------------------------------------------------------
    def record_success(self, index: int, elapsed_seconds: float) -> None:
        """Fold one successful request into the replica's EWMA latency."""
        with self._lock:
            entry = self._replicas[index]
            entry.attempts += 1
            entry.successes += 1
            entry.consecutive_failures = 0
            sample = max(0.0, float(elapsed_seconds))
            if entry.ewma_latency_seconds is None:
                entry.ewma_latency_seconds = sample
            else:
                entry.ewma_latency_seconds += self._smoothing * (
                    sample - entry.ewma_latency_seconds
                )

    def record_failure(self, index: int) -> None:
        """Record one failed request against the replica."""
        with self._lock:
            entry = self._replicas[index]
            entry.attempts += 1
            entry.failures += 1
            entry.consecutive_failures += 1

    def record_hedge_win(self, index: int) -> None:
        """Record that a backup (hedged) request on this replica won the race."""
        with self._lock:
            self._replicas[index].hedges_won += 1

    # -- selection ------------------------------------------------------------------
    def ranked(self) -> tuple[int, ...]:
        """Replica indices in routing preference order.

        Healthy replicas come first, cheapest EWMA latency first (replicas
        with no latency data yet sort ahead so cold replicas get probed);
        unhealthy replicas follow, least-failed first — they are a last
        resort, never unreachable, so a store where everything looks down can
        still recover.
        """
        with self._lock:
            healthy = [
                (entry.ewma_latency_seconds is not None, entry.ewma_latency_seconds or 0.0, i)
                for i, entry in enumerate(self._replicas)
                if entry.healthy
            ]
            unhealthy = [
                (entry.consecutive_failures, i)
                for i, entry in enumerate(self._replicas)
                if not entry.healthy
            ]
        healthy.sort()
        unhealthy.sort()
        return tuple(i for *_, i in healthy) + tuple(i for _, i in unhealthy)

    def best_healthy_latency(self) -> float | None:
        """The cheapest healthy replica's EWMA latency (None without data)."""
        with self._lock:
            latencies = [
                entry.ewma_latency_seconds
                for entry in self._replicas
                if entry.healthy and entry.ewma_latency_seconds is not None
            ]
        return min(latencies) if latencies else None

    def latency_percentile(self, quantile: float = 0.95) -> float | None:
        """Interpolated percentile over the healthy replicas' EWMA latencies.

        The hedge trigger fires a backup request once the primary has been
        outstanding longer than this (a request slower than the fleet's usual
        service latency is probably a straggler).  None without data.
        """
        with self._lock:
            latencies = sorted(
                entry.ewma_latency_seconds
                for entry in self._replicas
                if entry.healthy and entry.ewma_latency_seconds is not None
            )
        if not latencies:
            return None
        quantile = min(max(quantile, 0.0), 1.0)
        position = quantile * (len(latencies) - 1)
        lower = int(position)
        upper = min(lower + 1, len(latencies) - 1)
        fraction = position - lower
        return latencies[lower] + (latencies[upper] - latencies[lower]) * fraction

    def describe(self) -> list[Mapping[str, object]]:
        """JSON-friendly snapshot of every replica (facade introspection)."""
        with self._lock:
            return [entry.describe() for entry in self._replicas]


@dataclass(frozen=True, slots=True)
class FragmentStatistics:
    """Cardinality and per-column distinct counts of one fragment.

    ``shard_cardinalities`` is non-empty only for fragments materialized in a
    sharded store: one row count per shard, in shard order.  The cost model
    uses it to price a pruned single-shard access against a full fan-out.
    """

    fragment: str
    cardinality: int
    distinct_values: Mapping[str, int]
    indexed_columns: frozenset[str]
    shard_cardinalities: tuple[int, ...] = ()

    def shard_cardinality(self, shard: int) -> int:
        """Row count of one shard (mean share of the total when unknown)."""
        if 0 <= shard < len(self.shard_cardinalities):
            return self.shard_cardinalities[shard]
        if self.shard_cardinalities:
            return max(1, round(self.cardinality / len(self.shard_cardinalities)))
        return self.cardinality

    def distinct(self, column: str) -> int:
        """Distinct count of a column (defaults to the cardinality)."""
        value = dict(self.distinct_values).get(column)
        if value is None or value <= 0:
            return max(self.cardinality, 1)
        return value

    def selectivity_of_equality(self, column: str) -> float:
        """Textbook selectivity of an equality predicate on ``column``."""
        return 1.0 / max(self.distinct(column), 1)


@dataclass(frozen=True, slots=True)
class FragmentStaleness:
    """How far one materialized fragment lags behind its base relations.

    ``pending_deltas`` counts the write-time view deltas queued but not yet
    applied to the fragment; ``pending_rows`` the total signed-row volume of
    those deltas (the work maintenance will do); ``age`` the number of global
    writes that have happened since the fragment's oldest pending delta was
    logged (0 when fresh).  The cost model prices ``pending_rows``, and the
    facade's ``max_staleness`` query knob bounds ``pending_deltas``.
    """

    fragment: str
    pending_deltas: int = 0
    pending_rows: int = 0
    first_pending_seq: int | None = None
    latest_seq: int = 0

    @property
    def fresh(self) -> bool:
        """Whether the fragment has no maintenance backlog."""
        return self.pending_deltas == 0

    @property
    def age(self) -> int:
        """Writes elapsed since the oldest pending delta (0 when fresh)."""
        if self.first_pending_seq is None:
            return 0
        return max(0, self.latest_seq - self.first_pending_seq + 1)

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly snapshot."""
        return {
            "fragment": self.fragment,
            "fresh": self.fresh,
            "pending_deltas": self.pending_deltas,
            "pending_rows": self.pending_rows,
            "age": self.age,
        }


@dataclass(slots=True)
class FragmentUsage:
    """Per-fragment read-side counters fed by the facade's query path.

    ``reads`` counts the queries whose chosen plan accessed the fragment;
    ``ewma_latency_seconds`` smooths the elapsed time of those queries
    (attributed to every fragment the plan touched — a per-plan figure, not a
    per-access one, but drift in it still localizes to the fragments the
    shifted workload hits).  The drift monitor reads these to find hot and
    cold fragments.
    """

    fragment: str
    reads: int = 0
    ewma_latency_seconds: float | None = None

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly counters."""
        return {
            "fragment": self.fragment,
            "reads": self.reads,
            "ewma_latency_seconds": self.ewma_latency_seconds,
        }


@dataclass(slots=True)
class TenantUsage:
    """Per-tenant serving counters maintained by the query service.

    ``queue_seconds`` / ``engine_seconds`` accumulate each completed query's
    time-in-queue (submission → dispatch) and time-in-engine (dispatch →
    result), so the ratio shows whether a tenant's latency is queueing or
    work.  ``shed_queue_full`` and ``shed_rate_limited`` count fast-rejected
    submissions; ``timed_out`` counts queries whose deadline expired (queued
    or mid-stream).
    """

    tenant: str
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    timed_out: int = 0
    shed_queue_full: int = 0
    shed_rate_limited: int = 0
    rows_returned: int = 0
    queue_seconds: float = 0.0
    engine_seconds: float = 0.0

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly counters."""
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "shed_queue_full": self.shed_queue_full,
            "shed_rate_limited": self.shed_rate_limited,
            "rows_returned": self.rows_returned,
            "queue_seconds": self.queue_seconds,
            "engine_seconds": self.engine_seconds,
        }


class StatisticsCatalog:
    """Collects fragment statistics lazily and caches them.

    A data write to a maintained fragment is a statistics *update*
    (:meth:`note_data_write`), not a recount: the full per-column count runs
    again only once the fragment's size has drifted by more than
    :data:`DRIFT_THRESHOLD` since the last one.
    """

    def __init__(self, manager: StorageDescriptorManager) -> None:
        self._manager = manager
        self._cache: dict[str, FragmentStatistics] = {}
        # Fragment size at its last full per-column count.
        self._counted: dict[str, int] = {}
        self._observed: dict[str, float] = {}
        self._shard_observed: dict[str, dict[int, float]] = {}
        self._tenant_lock = threading.Lock()
        self._tenants: dict[str, TenantUsage] = {}
        self._staleness_lock = threading.Lock()
        self._pending_deltas: dict[str, int] = {}
        self._pending_rows: dict[str, int] = {}
        self._first_pending: dict[str, int] = {}
        self._latest_write_seq = 0
        self._usage_lock = threading.Lock()
        self._usage: dict[str, FragmentUsage] = {}

    # -- fragment staleness accounting ------------------------------------------------
    def note_write_seq(self, seq: int) -> None:
        """Advance the global write clock (ages every stale fragment)."""
        with self._staleness_lock:
            if seq > self._latest_write_seq:
                self._latest_write_seq = seq

    def note_pending_delta(self, fragment: str, rows: int, seq: int) -> None:
        """Record one logged-but-unapplied view delta against ``fragment``.

        ``rows`` is the delta's signed-row volume (inserts + deletes) — the
        work maintenance will do; ``seq`` the global write sequence number of
        the write that produced it.
        """
        with self._staleness_lock:
            self._pending_deltas[fragment] = self._pending_deltas.get(fragment, 0) + 1
            self._pending_rows[fragment] = self._pending_rows.get(fragment, 0) + max(0, rows)
            self._first_pending.setdefault(fragment, seq)
            if seq > self._latest_write_seq:
                self._latest_write_seq = seq

    def clear_staleness(self, fragment: str) -> None:
        """Mark ``fragment`` fully maintained (its backlog was applied)."""
        with self._staleness_lock:
            self._pending_deltas.pop(fragment, None)
            self._pending_rows.pop(fragment, None)
            self._first_pending.pop(fragment, None)

    def fragment_staleness(self, fragment: str) -> FragmentStaleness:
        """The fragment's current maintenance backlog (fresh when untracked)."""
        with self._staleness_lock:
            return FragmentStaleness(
                fragment=fragment,
                pending_deltas=self._pending_deltas.get(fragment, 0),
                pending_rows=self._pending_rows.get(fragment, 0),
                first_pending_seq=self._first_pending.get(fragment),
                latest_seq=self._latest_write_seq,
            )

    def backlogs(self) -> dict[str, int]:
        """Pending-delta counts of every fragment with a backlog (fresh ones are absent)."""
        with self._staleness_lock:
            return dict(self._pending_deltas)

    def staleness_snapshot(self) -> Mapping[str, Mapping[str, object]]:
        """JSON-friendly staleness of every fragment with a backlog."""
        with self._staleness_lock:
            fragments = sorted(self._pending_deltas)
        return {name: self.fragment_staleness(name).describe() for name in fragments}

    # -- per-tenant serving counters -------------------------------------------------
    def tenant(self, name: str) -> TenantUsage:
        """The tenant's usage record, created on first touch (thread-safe)."""
        with self._tenant_lock:
            usage = self._tenants.get(name)
            if usage is None:
                usage = TenantUsage(tenant=name)
                self._tenants[name] = usage
            return usage

    def record_tenant_event(self, name: str, event: str, count: int = 1) -> None:
        """Bump one tenant counter (``submitted``, ``shed_queue_full``, ...)."""
        usage = self.tenant(name)
        with self._tenant_lock:
            setattr(usage, event, getattr(usage, event) + count)

    def record_tenant_query(
        self,
        name: str,
        outcome: str,
        queue_seconds: float = 0.0,
        engine_seconds: float = 0.0,
        rows: int = 0,
    ) -> None:
        """Fold one finished query into the tenant's counters.

        ``outcome`` is ``completed``, ``failed`` or ``timed_out``; the
        queue/engine split accumulates regardless, so shed load still shows
        its queueing cost.
        """
        usage = self.tenant(name)
        with self._tenant_lock:
            setattr(usage, outcome, getattr(usage, outcome) + 1)
            usage.queue_seconds += max(0.0, queue_seconds)
            usage.engine_seconds += max(0.0, engine_seconds)
            usage.rows_returned += max(0, rows)

    def tenant_usage(self) -> Mapping[str, Mapping[str, object]]:
        """JSON-friendly snapshot of every tenant's serving counters."""
        with self._tenant_lock:
            return {name: usage.describe() for name, usage in sorted(self._tenants.items())}

    # -- per-fragment read usage -------------------------------------------------------
    def record_fragment_read(
        self,
        fragment: str,
        elapsed_seconds: float,
        smoothing: float = READ_LATENCY_SMOOTHING,
    ) -> None:
        """Fold one plan execution that touched ``fragment`` into its usage."""
        with self._usage_lock:
            usage = self._usage.get(fragment)
            if usage is None:
                usage = FragmentUsage(fragment=fragment)
                self._usage[fragment] = usage
            usage.reads += 1
            sample = max(0.0, elapsed_seconds)
            if usage.ewma_latency_seconds is None:
                usage.ewma_latency_seconds = sample
            else:
                usage.ewma_latency_seconds += smoothing * (
                    sample - usage.ewma_latency_seconds
                )

    def usage_snapshot(self) -> Mapping[str, FragmentUsage]:
        """A copy of every tracked fragment's read usage."""
        with self._usage_lock:
            return {
                name: FragmentUsage(
                    fragment=name,
                    reads=usage.reads,
                    ewma_latency_seconds=usage.ewma_latency_seconds,
                )
                for name, usage in self._usage.items()
            }

    def reset_fragment_usage(self, fragment: str) -> None:
        """Forget one fragment's read usage — e.g. after a migration."""
        with self._usage_lock:
            self._usage.pop(fragment, None)

    def invalidate(self, fragment: str | None = None) -> None:
        """Drop cached statistics and observations (one fragment or all)."""
        if fragment is None:
            self._cache.clear()
            self._counted.clear()
            self._observed.clear()
            self._shard_observed.clear()
            with self._staleness_lock:
                self._pending_deltas.clear()
                self._pending_rows.clear()
                self._first_pending.clear()
        else:
            self._cache.pop(fragment, None)
            self._counted.pop(fragment, None)
            self._observed.pop(fragment, None)
            self._shard_observed.pop(fragment, None)
            # A re-materialized fragment starts fresh: its backlog (if any)
            # was subsumed by the rebuild.
            self.clear_staleness(fragment)

    def note_data_write(self, fragment: str) -> bool:
        """A maintained fragment's rows changed: update its statistics in place.

        The backlog and runtime observations go, as with :meth:`invalidate`,
        but the cached statistics stay: the cardinality is re-read from the
        store (an O(1) size) and the distinct counts are capped at it.  Only
        a size that drifted past :data:`DRIFT_THRESHOLD` since the last full
        count drops the cache, so the next :meth:`get` recounts.

        Returns whether the cache was dropped: plans ranked on the old
        statistics no longer hold and must be ranked again.
        """
        self._observed.pop(fragment, None)
        self._shard_observed.pop(fragment, None)
        self.clear_staleness(fragment)
        cached = self._cache.get(fragment)
        if cached is None:
            return False
        try:
            descriptor = self._manager.fragment(fragment)
            store = self._manager.store(descriptor.store)
            size = store.collection_size(descriptor.layout.collection)
        except (CatalogError, StoreError):  # the placement is gone: count afresh later
            self._cache.pop(fragment, None)
            return True
        counted = self._counted.get(fragment, cached.cardinality)
        if abs(size - counted) > DRIFT_THRESHOLD * max(counted, 1):
            self._cache.pop(fragment, None)
            return True
        shard_sizes = getattr(store, "shard_sizes", None)
        self._cache[fragment] = replace(
            cached,
            cardinality=size,
            distinct_values={
                column: min(count, size) for column, count in cached.distinct_values.items()
            },
            shard_cardinalities=(
                tuple(shard_sizes(descriptor.layout.collection))
                if shard_sizes is not None
                else ()
            ),
        )
        return False

    # -- the runtime feedback loop --------------------------------------------------
    def record_observation(
        self, fragment: str, observed_rows: int, smoothing: float = OBSERVATION_SMOOTHING
    ) -> float | None:
        """Fold one observed cardinality into the fragment's estimate.

        ``observed_rows`` is the row count of a fully-drained, unrestricted
        scan of the fragment — a direct measurement of its cardinality.  The
        estimate is refreshed as ``previous + smoothing * (observed -
        previous)`` (the first observation replaces the base estimate
        outright).  Returns the **drift**: the relative change of the
        estimate against the value the planner was using before this
        observation, or ``None`` when no prior estimate exists to compare
        against.  Repeated consistent observations converge, so drift decays
        to zero once the estimate has caught up.
        """
        observed = float(max(0, observed_rows))
        previous = self._observed.get(fragment)
        if previous is None:
            try:
                reference = float(self.get(fragment).cardinality)
            except CatalogError:
                reference = None
            refreshed = observed
        else:
            reference = previous
            refreshed = previous + smoothing * (observed - previous)
        self._observed[fragment] = refreshed
        if reference is None:
            return None
        return abs(refreshed - reference) / max(reference, 1.0)

    def record_shard_observation(
        self,
        fragment: str,
        shard: int,
        observed_rows: int,
        smoothing: float = OBSERVATION_SMOOTHING,
    ) -> float | None:
        """Fold one observed *per-shard* cardinality into the shard's estimate.

        The sharded fan-out scans each shard independently, so each exhausted
        per-shard scan measures that shard's row count.  Same EWMA scheme as
        :meth:`record_observation`, tracked per ``(fragment, shard)``; the
        returned drift is relative to the per-shard estimate the planner was
        using, letting the facade invalidate cached sharded plans whose
        fan-out / pruning cost trade-off no longer holds.
        """
        observed = float(max(0, observed_rows))
        per_shard = self._shard_observed.setdefault(fragment, {})
        previous = per_shard.get(shard)
        if previous is None:
            try:
                base = self.refresh(fragment) if fragment not in self._cache else self._cache[fragment]
                reference = float(base.shard_cardinality(shard)) if base.shard_cardinalities else None
            except CatalogError:
                reference = None
            refreshed = observed
        else:
            reference = previous
            refreshed = previous + smoothing * (observed - previous)
        per_shard[shard] = refreshed
        if reference is None:
            return None
        return abs(refreshed - reference) / max(reference, 1.0)

    def observed_shard_cardinality(self, fragment: str, shard: int) -> float | None:
        """The current per-shard observed estimate, if any."""
        return self._shard_observed.get(fragment, {}).get(shard)

    def refresh(self, fragment: str) -> FragmentStatistics:
        """Recompute and cache the statistics of one fragment."""
        descriptor = self._manager.fragment(fragment)
        store = self._manager.store(descriptor.store)
        collection = descriptor.layout.collection
        if collection not in store.collections():
            raise CatalogError(
                f"fragment {fragment!r} maps to collection {collection!r} which is not "
                f"loaded in store {descriptor.store!r}"
            )
        cardinality = store.collection_size(collection)
        distinct: dict[str, int] = {}
        indexed: set[str] = set()
        for view_column in descriptor.view_columns():
            store_column = descriptor.layout.store_column(view_column)
            try:
                column_stats = store.column_statistics(collection, store_column)
            except Exception:  # pragma: no cover - defensive: stats must not break queries
                continue
            distinct[view_column] = int(column_stats.get("distinct", cardinality) or 0)
            if column_stats.get("indexed"):
                indexed.add(view_column)
        # Key columns of lookup fragments are indexed by definition (the store
        # retrieves entries by that key), even when the store cannot report it
        # under the view's column name (e.g. a key-value store's "key").
        for key_column in descriptor.access.key_columns:
            indexed.add(key_column)
            if distinct.get(key_column, 0) <= 1:
                distinct[key_column] = cardinality
        shard_sizes = getattr(store, "shard_sizes", None)
        shard_cardinalities: tuple[int, ...] = ()
        if shard_sizes is not None:
            shard_cardinalities = tuple(shard_sizes(collection))
        statistics = FragmentStatistics(
            fragment=fragment,
            cardinality=cardinality,
            distinct_values=distinct,
            indexed_columns=frozenset(indexed),
            shard_cardinalities=shard_cardinalities,
        )
        self._cache[fragment] = statistics
        self._counted[fragment] = cardinality
        return statistics

    def get(self, fragment: str) -> FragmentStatistics:
        """Statistics of ``fragment`` (computed on first access).

        When runtime observations exist for the fragment, the returned
        cardinality is the exponentially-weighted observed estimate instead
        of the (possibly stale) base statistic; per-column distinct counts
        are capped at the refreshed cardinality.
        """
        cached = self._cache.get(fragment)
        if cached is None:
            cached = self.refresh(fragment)
        per_shard = self._shard_observed.get(fragment)
        if per_shard and cached.shard_cardinalities:
            shard_cardinalities = tuple(
                max(0, round(per_shard.get(shard, base)))
                for shard, base in enumerate(cached.shard_cardinalities)
            )
            cardinality = max(1, sum(shard_cardinalities))
            if shard_cardinalities != cached.shard_cardinalities:
                return FragmentStatistics(
                    fragment=fragment,
                    cardinality=cardinality,
                    distinct_values={
                        column: min(count, cardinality)
                        for column, count in dict(cached.distinct_values).items()
                    },
                    indexed_columns=cached.indexed_columns,
                    shard_cardinalities=shard_cardinalities,
                )
            return cached
        observed = self._observed.get(fragment)
        if observed is None:
            return cached
        cardinality = max(1, round(observed))
        if cardinality == cached.cardinality:
            return cached
        return FragmentStatistics(
            fragment=fragment,
            cardinality=cardinality,
            distinct_values={
                column: min(count, cardinality)
                for column, count in dict(cached.distinct_values).items()
            },
            indexed_columns=cached.indexed_columns,
            shard_cardinalities=cached.shard_cardinalities,
        )
