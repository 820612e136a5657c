"""The runtime execution engine: evaluates a physical plan and reports metrics.

The engine is deliberately small — ESTOCADA pushes as much work as possible to
the underlying stores, and the runtime only evaluates the "last-step"
operations (BindJoin, mediator-side joins, residual filters, projection and
nested construction).  The :class:`QueryResult` carries the answer rows plus a
performance breakdown *split across the underlying DMSs and the runtime*,
which is exactly what the demo's step 3 displays.

With ``parallelism > 1`` the engine runs the plan's :class:`Exchange`
subtrees concurrently on a bounded :class:`~repro.runtime.parallel.ExecutorPool`:
every Exchange is pre-started before the root is drained, so independent
delegated store requests overlap and a multi-store fan-out pays roughly the
*max* of the store latencies instead of their sum.  ``parallelism == 1`` is a
strict serial fallback — Exchanges are pass-throughs and execution is
identical to the pre-parallel engine.  The default width comes from the
``REPRO_PARALLELISM`` environment variable (1 when unset).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.cancellation import Deadline, current_cancel_event, set_current_cancel
from repro.errors import DeadlineExceededError
from repro.runtime.batch import default_batch_size
from repro.runtime.operators import ExecutionContext, Operator
from repro.runtime.parallel import Exchange, ExecutorPool
from repro.runtime.values import Binding

__all__ = ["StoreBreakdown", "QueryResult", "ExecutionEngine", "default_parallelism"]


def default_parallelism() -> int:
    """The process-wide default executor width (``REPRO_PARALLELISM``, else 1)."""
    raw = os.environ.get("REPRO_PARALLELISM", "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


@dataclass(slots=True)
class StoreBreakdown:
    """Aggregated metrics of the requests sent to one store during a query."""

    store: str
    requests: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    index_lookups: int = 0
    partitions_used: int = 0
    partitions_pruned: int = 0
    elapsed_seconds: float = 0.0
    replica_attempts: int = 0
    replica_retries: int = 0
    replica_hedges: int = 0
    replica_failovers: int = 0
    segments_scanned: int = 0
    segments_skipped: int = 0
    rows_decoded: int = 0


@dataclass(slots=True)
class QueryResult:
    """Answer rows plus the per-store / runtime performance breakdown."""

    rows: list[Binding]
    elapsed_seconds: float
    store_breakdown: dict[str, StoreBreakdown] = field(default_factory=dict)
    runtime_rows_processed: int = 0
    batches: int = 0
    cache_hit: bool = False
    parallelism: int = 1
    max_concurrent_requests: int = 0
    observed_cardinalities: dict[str, int] = field(default_factory=dict)
    observed_shard_cardinalities: dict[str, dict[int, int]] = field(default_factory=dict)
    shards_contacted: int = 0
    shards_pruned: int = 0
    exchange_rows: int = 0
    batch_size: int = 0
    operator_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    plan: Operator | None = field(default=None, repr=False)
    _plan_description: str | None = field(default=None, repr=False)

    @property
    def plan_description(self) -> str:
        """The executed operator tree as text.

        Rendered from ``plan`` on first read (most executions never look);
        the facade assigns its own text — the tree's memoized rendering plus
        the per-execution plan-cache line.
        """
        if self._plan_description is None:
            self._plan_description = self.plan.explain() if self.plan is not None else ""
        return self._plan_description

    @plan_description.setter
    def plan_description(self, text: str) -> None:
        self._plan_description = text

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def stores_time(self) -> float:
        """Total time spent inside the underlying stores."""
        return sum(b.elapsed_seconds for b in self.store_breakdown.values())

    def runtime_time(self) -> float:
        """Time spent in the ESTOCADA runtime (total minus store time)."""
        return max(self.elapsed_seconds - self.stores_time(), 0.0)

    def replica_activity(self) -> Mapping[str, int]:
        """Recovery work done by replicated stores during this query.

        ``attempts`` counts every replica request issued (including the
        first, fault-free one per delegated request), ``retries`` the
        same-replica re-issues after transient errors, ``hedges`` the backup
        requests fired against stragglers, and ``failovers`` the moves to
        another replica after a hard failure.  All zero for queries that
        touch no replicated store.
        """
        return {
            "attempts": sum(b.replica_attempts for b in self.store_breakdown.values()),
            "retries": sum(b.replica_retries for b in self.store_breakdown.values()),
            "hedges": sum(b.replica_hedges for b in self.store_breakdown.values()),
            "failovers": sum(b.replica_failovers for b in self.store_breakdown.values()),
        }

    def segment_activity(self) -> Mapping[str, int]:
        """Durable-segment work done during this query.

        ``scanned`` counts the segments whose column blocks were actually
        decoded, ``skipped`` the segments a zone map excluded without reading
        a block, and ``rows_decoded`` the rows materialized from scanned
        segments.  All zero for queries served purely from memory.
        """
        return {
            "scanned": sum(b.segments_scanned for b in self.store_breakdown.values()),
            "skipped": sum(b.segments_skipped for b in self.store_breakdown.values()),
            "rows_decoded": sum(b.rows_decoded for b in self.store_breakdown.values()),
        }

    def summary(self) -> Mapping[str, object]:
        """A JSON-friendly summary (used by the demo-style reporting)."""
        return {
            "rows": len(self.rows),
            "elapsed_seconds": self.elapsed_seconds,
            "runtime_seconds": self.runtime_time(),
            "batches": self.batches,
            "cache_hit": self.cache_hit,
            "parallelism": self.parallelism,
            "max_concurrent_requests": self.max_concurrent_requests,
            "shards": {
                "contacted": self.shards_contacted,
                "pruned": self.shards_pruned,
            },
            "replicas": dict(self.replica_activity()),
            "segments": dict(self.segment_activity()),
            "execution": {
                "batch_size": self.batch_size,
                "runtime_rows_processed": self.runtime_rows_processed,
                "operators": {
                    name: dict(stats) for name, stats in self.operator_stats.items()
                },
            },
            "stores": {
                name: {
                    "requests": breakdown.requests,
                    "rows_scanned": breakdown.rows_scanned,
                    "rows_returned": breakdown.rows_returned,
                    "index_lookups": breakdown.index_lookups,
                    "elapsed_seconds": breakdown.elapsed_seconds,
                }
                for name, breakdown in self.store_breakdown.items()
            },
        }


class ExecutionEngine:
    """Evaluates physical plans batch-at-a-time.

    The plan's batch stream is drained here — the *only* place where the full
    result is materialized — while every operator above the stores streams
    :class:`~repro.runtime.batch.RowBatch` objects.  ``parallelism`` sets the
    default executor width for :meth:`execute` (overridable per call); pools
    are created lazily per width and reused across executions.
    """

    def __init__(
        self, batch_size: int | None = None, parallelism: int | None = None
    ) -> None:
        if batch_size is None:
            batch_size = default_batch_size()
        elif batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size = batch_size
        self._parallelism = (
            default_parallelism() if parallelism is None else max(1, parallelism)
        )
        self._pools: dict[int, ExecutorPool] = {}
        self._pools_lock = threading.Lock()

    @property
    def parallelism(self) -> int:
        """The engine's default executor width."""
        return self._parallelism

    @property
    def batch_size(self) -> int:
        """The engine's default batch size (``REPRO_BATCH_SIZE`` unless set)."""
        return self._batch_size

    def _pool(self, width: int) -> ExecutorPool:
        # Concurrent queries (the serving layer's workers) share one pool per
        # width instead of creating their own — intra-query Exchange fan-out
        # and cross-query concurrency draw from the same bounded thread set.
        with self._pools_lock:
            pool = self._pools.get(width)
            if pool is None:
                pool = ExecutorPool(width)
                self._pools[width] = pool
            return pool

    def close(self) -> None:
        """Shut down every executor pool this engine created."""
        with self._pools_lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()

    @staticmethod
    def _prestart_exchanges(plan: Operator, context: ExecutionContext) -> None:
        """Kick off every Exchange so independent store requests overlap."""
        stack = [plan]
        while stack:
            operator = stack.pop()
            if isinstance(operator, Exchange):
                operator.start(context)
            stack.extend(operator.children())

    def execute(
        self,
        plan: Operator,
        parameters: Mapping[str, object] | None = None,
        batch_size: int | None = None,
        parallelism: int | None = None,
        deadline_seconds: float | None = None,
        scan_hints: tuple[tuple[str, str, object], ...] = (),
    ) -> QueryResult:
        """Run ``plan`` and return its result with the performance breakdown.

        ``deadline_seconds`` bounds the execution's wall clock: when the
        budget elapses a :class:`~repro.cancellation.Deadline` timer fires
        the execution's cancel events — every Exchange worker and the
        consumer thread stop issuing store requests, in-flight simulated
        store waits wake immediately — and the query surfaces a typed
        :class:`~repro.errors.DeadlineExceededError` instead of a partial
        result.
        """
        width = self._parallelism if parallelism is None else max(1, parallelism)
        context = ExecutionContext(
            parameters=dict(parameters or {}),
            batch_size=batch_size or self._batch_size,
            scan_hints=scan_hints,
        )
        deadline: Deadline | None = None
        previous_cancel = None
        if deadline_seconds is not None:
            deadline = Deadline(deadline_seconds)
            context.deadline = deadline
        if width > 1:
            context.pool = self._pool(width)
        started = time.perf_counter()
        rows: list[Binding] = []
        batch_count = 0
        try:
            if deadline is not None:
                # Publish the deadline's cancel event on the consumer thread
                # too: serial store waits and bind-join probes running here
                # wake the moment the timer fires (Exchange workers register
                # their own cancel events as deadline listeners).
                previous_cancel = current_cancel_event()
                set_current_cancel(deadline.event)
                deadline.start()
            try:
                if context.pool is not None:
                    self._prestart_exchanges(plan, context)
                for batch in plan.batches(context):
                    batch_count += 1
                    rows.extend(batch.to_bindings())
                    if deadline is not None and deadline.expired():
                        raise DeadlineExceededError(
                            f"query exceeded its {deadline.seconds:.3f}s deadline "
                            f"after {batch_count} batches",
                            deadline_seconds=deadline.seconds,
                        )
            except DeadlineExceededError:
                raise
            except BaseException as error:
                if deadline is not None and deadline.expired():
                    # A cancelled store wait often surfaces as a transient
                    # store error; once the budget has elapsed the *cause* is
                    # the deadline, so that is what callers see (typed).
                    raise DeadlineExceededError(
                        f"query exceeded its {deadline.seconds:.3f}s deadline",
                        deadline_seconds=deadline.seconds,
                    ) from error
                raise
            if deadline is not None and deadline.expired():
                raise DeadlineExceededError(
                    f"query exceeded its {deadline.seconds:.3f}s deadline",
                    deadline_seconds=deadline.seconds,
                )
        finally:
            if deadline is not None:
                deadline.cancel()
                set_current_cancel(previous_cancel)
            # Normal completion, LIMIT early-exit and errors all funnel here:
            # cancel every Exchange worker and wait until each has closed its
            # child pipeline (finalizing store streams) and merged metrics.
            context.shutdown_exchanges()
        elapsed = time.perf_counter() - started

        breakdown: dict[str, StoreBreakdown] = {}
        for store_name, metrics in context.store_results:
            entry = breakdown.setdefault(store_name, StoreBreakdown(store=store_name))
            entry.requests += 1
            entry.rows_scanned += metrics.rows_scanned
            entry.rows_returned += metrics.rows_returned
            entry.index_lookups += metrics.index_lookups
            entry.partitions_used += metrics.partitions_used
            entry.partitions_pruned += metrics.partitions_pruned
            entry.elapsed_seconds += metrics.elapsed_seconds
            entry.replica_attempts += metrics.replica_attempts
            entry.replica_retries += metrics.replica_retries
            entry.replica_hedges += metrics.replica_hedges
            entry.replica_failovers += metrics.replica_failovers
            entry.segments_scanned += metrics.segments_scanned
            entry.segments_skipped += metrics.segments_skipped
            entry.rows_decoded += metrics.rows_decoded

        observed: dict[str, int] = {}
        observed_shards: dict[str, dict[int, int]] = {}
        for fragment, shard, observed_rows in context.observations:
            if shard is None:
                observed[fragment] = observed_rows
            else:
                observed_shards.setdefault(fragment, {})[shard] = observed_rows

        shards_contacted = sum(contacted for contacted, _ in context.shard_reports)
        shards_pruned = sum(pruned for _, pruned in context.shard_reports)

        # Per-operator batch/row throughput: rows-per-second is computed
        # against the whole execution's wall clock (operators overlap and
        # pipeline, so per-operator timing would double-charge shared time).
        operator_stats = {
            name: {
                "batches": batches,
                "rows": rows,
                "rows_per_second": (rows / elapsed) if elapsed > 0 else 0.0,
            }
            for name, (batches, rows) in sorted(context.operator_tallies.items())
        }

        return QueryResult(
            rows=rows,
            elapsed_seconds=elapsed,
            store_breakdown=breakdown,
            runtime_rows_processed=context.runtime_rows_processed,
            batches=batch_count,
            parallelism=width,
            max_concurrent_requests=context.tracker.peak,
            observed_cardinalities=observed,
            observed_shard_cardinalities=observed_shards,
            shards_contacted=shards_contacted,
            shards_pruned=shards_pruned,
            exchange_rows=context.exchange_rows,
            batch_size=context.batch_size,
            operator_stats=operator_stats,
            plan=plan,
        )
