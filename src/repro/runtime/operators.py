"""Physical operators of the ESTOCADA runtime execution engine.

The runtime evaluates the *non-delegated* part of a plan: it stitches
together the results of the sub-queries delegated to the underlying stores.
Operators are small composable objects evaluated **batch-at-a-time**:
``batches(context)`` yields :class:`~repro.runtime.batch.RowBatch` objects
(column-oriented, tuple-based rows) so that no operator ever materializes the
whole result.  The operator set follows the paper:

* :class:`DelegatedRequest` — evaluate a store request (the delegated
  sub-query) and map its rows to pivot variables;
* :class:`HashJoin` — mediator-side equi-join of two sub-plans.  Over a
  *keyed* right side it is also the operator "needed to access data sources
  with access restrictions": the restricted source is called with the left
  side's distinct key values bound, ``batch_size`` keys per request;
* :class:`Deduplicate` — duplicate elimination (residual selections,
  projections and output naming are
  :class:`~repro.runtime.kernels.FusedPipeline` stages);
* :class:`Aggregate` — grouped aggregation, or per shard
  (:class:`PartialAggregate`) merged by :class:`MergeAggregate`.

Operators hold no per-execution state, so one plan can be executed many times
(the plan cache relies on this).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add, itemgetter
from typing import Iterator, Mapping, Sequence

from repro.errors import ExecutionError
from repro.runtime.batch import (
    DEFAULT_BATCH_SIZE,
    RowBatch,
    freeze_value,
    probe_kernel,
)
from repro.runtime.values import Binding
from repro.stores.base import (
    LookupRequest,
    Predicate,
    ScanRequest,
    Store,
    StoreMetrics,
    StoreRequest,
    batch_tuples,
)

__all__ = [
    "ConcurrencyTracker",
    "FailureSignal",
    "ExecutionContext",
    "Operator",
    "DelegatedRequest",
    "HashJoin",
    "Deduplicate",
    "Aggregate",
    "ShardGather",
    "PartialAggregate",
    "MergeAggregate",
]


class ConcurrencyTracker:
    """Tracks how many store requests are in flight, and the peak.

    A request is in flight from the moment it is issued until its stream or
    probe completes — an open scan cursor counts while it is being consumed.
    One tracker is shared by an execution's root context and every Exchange
    worker sub-context, so the peak reflects cross-thread overlap.
    """

    __slots__ = ("_lock", "_active", "peak")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0

    def enter(self) -> None:
        """One more request in flight."""
        with self._lock:
            self._active += 1
            if self._active > self.peak:
                self.peak = self._active

    def exit(self) -> None:
        """One request finished."""
        with self._lock:
            self._active -= 1


class FailureSignal:
    """First-error latch shared by one execution and all its Exchange workers.

    When any worker pipeline raises, the error is recorded here (first one
    wins) and every other worker observes :meth:`is_set` between batches and
    stops issuing further store requests.  Consumers whose streams were
    truncated by the signal re-raise the *original* exception object, so the
    failure surfaces with its own traceback instead of a draining timeout.
    """

    __slots__ = ("_lock", "_error")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._error: BaseException | None = None

    def signal(self, error: BaseException) -> bool:
        """Record ``error`` if no failure is recorded yet; True when first."""
        with self._lock:
            if self._error is None:
                self._error = error
                return True
            return False

    @property
    def error(self) -> BaseException | None:
        """The first recorded failure, if any."""
        return self._error

    def is_set(self) -> bool:
        """Whether any worker has failed."""
        return self._error is not None


@dataclass(slots=True)
class ExecutionContext:
    """Mutable per-execution state: parameters, batch size and store metrics.

    One context is single-threaded: every Exchange worker evaluates its child
    pipeline against a :meth:`spawn`-ed sub-context, and the sub-context's
    metrics are folded back via :meth:`merge_child` *on the consumer thread*
    (when its Exchange stream is drained, or during the engine's cleanup) —
    existing operators stay lock-free, and the parent context is never
    mutated from two threads at once.  ``pool`` and ``exchange_states`` are
    only populated by a parallel execution; without a pool every Exchange is
    a pass-through and execution is exactly serial.
    """

    parameters: dict[str, object] = field(default_factory=dict)
    batch_size: int = DEFAULT_BATCH_SIZE
    store_results: list[tuple[str, StoreMetrics]] = field(default_factory=list)
    runtime_rows_processed: int = 0
    pool: object | None = None
    deadline: object | None = None
    tracker: ConcurrencyTracker = field(default_factory=ConcurrencyTracker)
    failure: FailureSignal = field(default_factory=FailureSignal)
    observations: list[tuple[str, int | None, int]] = field(default_factory=list)
    shard_reports: list[tuple[int, int]] = field(default_factory=list)
    exchange_rows: int = 0
    exchange_states: dict[int, object] = field(default_factory=dict)
    merge_lock: threading.Lock = field(default_factory=threading.Lock)
    operator_tallies: dict[str, list[int]] = field(default_factory=dict)

    def record(self, store_name: str, metrics: StoreMetrics) -> None:
        """Record a store request's metrics for the per-store breakdown."""
        self.store_results.append((store_name, metrics))

    def tally(self, operator: str, rows: int, batches: int = 1) -> None:
        """Count one emitted batch (and its rows) against ``operator``.

        The per-operator counters surface as
        ``QueryResult.summary()["execution"]["operators"]`` — the batch/row
        throughput breakdown of the runtime's own work.
        """
        entry = self.operator_tallies.get(operator)
        if entry is None:
            self.operator_tallies[operator] = [batches, rows]
        else:
            entry[0] += batches
            entry[1] += rows

    def observe(self, fragment: str, rows: int, shard: int | None = None) -> None:
        """Record the observed cardinality of one fully-drained fragment scan.

        ``shard`` identifies a per-shard scan of a sharded fragment; ``None``
        means the scan covered the whole fragment.
        """
        self.observations.append((fragment, shard, rows))

    def report_shards(self, contacted: int, pruned: int) -> None:
        """Record one sharded access: how many shards it touched vs skipped."""
        self.shard_reports.append((contacted, pruned))

    def spawn(self) -> "ExecutionContext":
        """A sub-context for one Exchange worker (shared tracker, own metrics)."""
        return ExecutionContext(
            parameters=self.parameters,
            batch_size=self.batch_size,
            tracker=self.tracker,
            failure=self.failure,
            deadline=self.deadline,
        )

    def merge_child(self, child: "ExecutionContext") -> None:
        """Fold a worker sub-context's metrics into this context.

        Callers must invoke this from the consumer thread only (the other
        operators mutate the context unlocked); the lock merely guards
        against overlapping merges.
        """
        with self.merge_lock:
            self.store_results.extend(child.store_results)
            self.runtime_rows_processed += child.runtime_rows_processed
            self.observations.extend(child.observations)
            self.shard_reports.extend(child.shard_reports)
            self.exchange_rows += child.exchange_rows
            for operator, (batches, rows) in child.operator_tallies.items():
                self.tally(operator, rows, batches)

    def shutdown_exchanges(self) -> None:
        """Cancel and join every Exchange worker started under this context."""
        for state in self.exchange_states.values():
            state.shutdown()
        self.exchange_states.clear()


class Operator:
    """Base class of every physical operator.

    The streaming protocol is :meth:`batches`; concrete operators implement
    :meth:`_batches`.
    """

    def batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        """Evaluate the operator as a stream of row batches.

        Every emitted batch is tallied against the operator's class name in
        the context's per-operator counters, so
        ``QueryResult.summary()["execution"]`` can report batch/row
        throughput per operator without each implementation counting by hand.
        """
        return self._tallied(
            self._batches(context), context, type(self).__name__.lstrip("_")
        )

    @staticmethod
    def _tallied(
        source: Iterator[RowBatch], context: ExecutionContext, name: str
    ) -> Iterator[RowBatch]:
        """Forward ``source``, counting batches/rows; close() propagates."""
        try:
            for batch in source:
                context.tally(name, len(batch))
                yield batch
        finally:
            close = getattr(source, "close", None)
            if close is not None:
                close()

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        """The operator's streaming implementation (override this)."""
        raise NotImplementedError(f"{type(self).__name__} does not implement _batches")

    def bindings(self, context: ExecutionContext) -> Iterator[list[Binding]]:
        """The result boundary: the operator's rows as binding dicts, a batch at a time."""
        for batch in self.batches(context):
            yield batch.to_bindings()

    def children(self) -> Sequence["Operator"]:
        """Child operators (for plan printing and tests)."""
        return ()

    def explain(self, indent: int = 0) -> str:
        """A printable description of the sub-plan rooted at this operator."""
        line = "  " * indent + self.describe()
        for child in self.children():
            line += "\n" + child.explain(indent + 1)
        return line

    def describe(self) -> str:
        """One-line description of this operator."""
        return type(self).__name__


class DelegatedRequest(Operator):
    """Evaluate a store request and map its rows to variable bindings.

    ``output`` maps store column names to variable names; ``constants`` lists
    (store column, value) pairs that must hold on returned rows (constants in
    the rewriting atom that the store may or may not have filtered already).
    Results stream from the store in batches; the store's metrics are recorded
    once the stream ends (with whatever was accumulated if the consumer stops
    early, e.g. under a LIMIT).  ``fragment`` names the catalog fragment the
    request serves; when the request is an unrestricted scan that runs to
    exhaustion, the observed row count is recorded for the statistics
    feedback loop (partial/filtered streams would poison the estimate and are
    skipped).  ``where`` renders, in variable terms, the WHERE comparisons
    lowering compiled into ``request``: the store evaluates them, nothing
    above does.

    A *keyed* request (``key`` names a store column) is the right side of a
    keyed :class:`HashJoin`: ``request`` is a template that :meth:`fetch`
    fills with a set of that column's values — a lookup's keys, or a scan's
    ``in`` predicate beside its constants.
    """

    def __init__(
        self,
        store: Store,
        request: StoreRequest,
        output: Mapping[str, str],
        constants: Mapping[str, object] | None = None,
        label: str | None = None,
        fragment: str | None = None,
        shard: int | None = None,
        where: Sequence[str] = (),
        key: str | None = None,
    ) -> None:
        self._store = store
        self._request = request
        self._where = tuple(where)
        self._output = dict(output)
        self._constants = dict(constants or {})
        self._label = label or getattr(request, "collection", type(request).__name__)
        self._fragment = fragment
        self._shard = shard
        self._key = key
        self._observable = (
            fragment is not None
            and key is None
            and isinstance(request, ScanRequest)
            and not request.predicates
            and request.limit is None
        )
        # Requests routed *through* a sharded store (rather than fanned out by
        # the planner) report their own contacted/pruned shard counts.
        self._sharded_router = getattr(store, "shard_count", None) is not None
        # Requests against a replicated router resolve their replica at
        # execution time from the store's health board.
        self._replica_count = getattr(store, "replica_count", None)

    @property
    def key_variable(self) -> str | None:
        """The variable a keyed fetch is keyed by (None when not keyed)."""
        return None if self._key is None else self._output[self._key]

    def fetch(self, context: ExecutionContext, keys: Sequence) -> Iterator[RowBatch]:
        """The rows whose key column holds one of ``keys``, ``batch_size`` keys per request."""
        template, size = self._request, context.batch_size
        requests = (
            replace(template, keys=chunk)
            if isinstance(template, LookupRequest)
            else replace(
                template,
                predicates=template.predicates + (Predicate(self._key, "in", frozenset(chunk)),),
            )
            for chunk in (keys[start : start + size] for start in range(0, len(keys), size))
        )
        batches = (batch for request in requests for batch in self._stream(context, request))
        return self._tallied(batches, context, type(self).__name__)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        if self._key is not None:
            # The template is unfilled: a full scan, or a lookup of no keys.
            raise ExecutionError("a keyed request runs only through its join's fetch")
        return self._stream(context, self._request)

    def _stream(self, context: ExecutionContext, request: StoreRequest) -> Iterator[RowBatch]:
        """The store streams row-tuple batches end-to-end.

        The store builds batches whose schema is exactly the requested store
        columns, so mapping to pivot variables is a schema *rename* — in the
        common constant-free case not a single per-row operation happens
        here.  Residual constants are checked by column position (positions
        resolved once); constant columns outside the output mapping are
        fetched alongside and sliced off in the same pass.
        """
        store_columns = tuple(self._output)
        extra = tuple(
            column for column in self._constants if column not in self._output
        )
        fetch_columns = store_columns + extra
        schema = tuple(self._output[column] for column in store_columns)
        width = len(store_columns)
        if self._constants:
            # One itemgetter compare per row, against the same pick of a row
            # of the expected values: `==` keeps plain equality (None == None
            # holds, unlike a predicate kernel); the slice drops `extra`.
            probe = itemgetter(*map(fetch_columns.index, self._constants))
            expected = probe([self._constants.get(column) for column in fetch_columns])
        stream = self._store.execute_batches(request, fetch_columns, context.batch_size)
        batches = iter(stream)
        context.tracker.enter()
        try:
            for batch in batches:
                rows = batch.rows
                if self._constants:
                    rows = [row[:width] for row in rows if probe(row) == expected]
                if not rows:
                    continue
                context.runtime_rows_processed += len(rows)
                yield RowBatch(schema, rows)
        finally:
            # Close the stream first so its metrics are finalized even when
            # this operator is abandoned mid-stream (LIMIT early exit).
            batches.close()
            context.record(self._store.name, stream.metrics)
            if self._sharded_router:
                context.report_shards(
                    stream.metrics.partitions_used, stream.metrics.partitions_pruned
                )
            context.tracker.exit()
        # Only reached when the stream ran to exhaustion (an abandoned
        # generator never resumes past the finally).
        if self._observable:
            context.observe(self._fragment, stream.metrics.rows_returned, self._shard)

    def describe(self) -> str:
        replicas = f", replicas={self._replica_count}" if self._replica_count else ""
        where = f", where=[{', '.join(self._where)}]" if self._where else ""
        keyed = f", keyed={self._key}" if self._key is not None else ""
        return (
            f"DelegatedRequest[store={self._store.name}, {self._label}{replicas}, "
            f"vars={sorted(self._output.values())}{where}{keyed}]"
        )


class HashJoin(Operator):
    """Mediator-side equi-join of two sub-plans on their shared variables.

    The right (build) side is materialized into a hash table; the left side
    streams through it batch by batch.  ``columns`` are the columns it emits,
    in the order its parent reads them (the planner passes what is read
    above); by default the left columns followed by the right ones the left
    lacks.  Join variables are inferred once from the two schemas.

    Over a keyed :class:`DelegatedRequest` the order turns: the left side is
    drained first, and the build side is fetched by its distinct values of
    the key variable — ``ceil(d / batch_size)`` store requests for ``d``
    keys, however many left rows share them.  A LIMIT above such a join no
    longer stops the left scan early.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        on: Sequence[str] | None = None,
        columns: Sequence[str] | None = None,
    ) -> None:
        self._left = left
        self._right = right
        self._on = tuple(on) if on is not None else None
        self._columns = tuple(columns) if columns is not None else None
        self._key = right.key_variable if isinstance(right, DelegatedRequest) else None

    def children(self) -> Sequence[Operator]:
        return (self._left, self._right)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        # Build side: materialize (a hash join's build side is inherently
        # blocking).  Every operator emits one schema per execution.
        if self._key is None:
            right_batches = [batch for batch in self._right.batches(context) if batch]
            left_batches = self._left.batches(context) if right_batches else ()
        else:
            left_batches = [batch for batch in self._left.batches(context) if batch]
            if not left_batches:
                return
            position = left_batches[0].columns.index(self._key)
            keys = tuple(dict.fromkeys(row[position] for b in left_batches for row in b.rows))
            right_batches = [batch for batch in self._right.fetch(context, keys) if batch]
        if not right_batches:
            return
        right_schema = right_batches[0].columns
        right_rows = [row for batch in right_batches for row in batch.rows]

        # Vectorized key extraction: both sides hash their key columns
        # batch-at-a-time through the same kernel, so single-column keys stay
        # bare scalars and no per-row key tuple is allocated.
        from repro.runtime.kernels import key_kernel

        left_schema: tuple[str, ...] | None = None
        size = context.batch_size
        for left_batch in left_batches:
            if left_schema is None:
                left_schema = left_batch.columns
                shared = [column for column in left_schema if column in right_schema]
                join_variables = self._on if self._on is not None else tuple(sorted(shared))
                columns = self._columns or left_schema + tuple(
                    column for column in right_schema if column not in left_schema
                )
                # Shared columns beyond the join key must still agree
                # (compatible-bindings semantics with an explicit `on`); a
                # keyless join is a plain cartesian product (both sides' key
                # is `()`).
                probe = probe_kernel(
                    tuple(
                        (0, left_schema.index(column)) if column in left_schema
                        else (1, right_schema.index(column))
                        for column in columns
                    ),
                    tuple(
                        (left_schema.index(column), right_schema.index(column))
                        for column in shared
                        if join_variables and column not in join_variables
                    ),
                )
                left_keys_of = key_kernel(left_schema, join_variables)
                build: dict[object, list[tuple]] = defaultdict(list)
                for key, row in zip(key_kernel(right_schema, join_variables)(right_rows), right_rows):
                    build[key].append(row)
                matches_of = build.get
            rows = left_batch.rows
            joined = probe(rows, left_keys_of(rows), matches_of)
            # Cut to `batch_size`: a skewed key cannot emit one giant batch,
            # and a LIMIT above the join stops after this left batch.
            for start in range(0, len(joined), size):
                chunk = joined if len(joined) <= size else joined[start : start + size]
                context.runtime_rows_processed += len(chunk)
                yield RowBatch(columns, chunk)

    def describe(self) -> str:
        on = "natural" if self._on is None else ",".join(self._on)
        emits = "" if self._columns is None else f", emits=({', '.join(self._columns)})"
        return f"HashJoin[on={on}{emits}]"


class Deduplicate(Operator):
    """Set semantics: drop duplicate bindings.

    Seen keys are hashed incrementally as batches stream through; a row's key
    is its (type, value) tuple (frozen into nested tuples only when a value
    is unhashable; every batch of one execution shares one schema), so keys
    are not rebuilt per comparison.  Types are part of the key so that ``1``,
    ``1.0`` and ``True`` stay distinct rows, as under the seed engine's
    repr-based keys.
    """

    def __init__(self, child: Operator) -> None:
        self._child = child

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        seen: set[tuple] = set()
        for batch in self._child.batches(context):
            unique: list[tuple] = []
            for row in batch.rows:
                key = tuple((value.__class__, value) for value in row)
                try:
                    is_new = key not in seen
                except TypeError:
                    key = tuple((value.__class__, freeze_value(value)) for value in row)
                    is_new = key not in seen
                if is_new:
                    seen.add(key)
                    unique.append(row)
            if unique:
                yield RowBatch(batch.columns, unique)


def empty_scalar_row(aggregations: Mapping[str, tuple[str, str | None]]) -> tuple:
    """SQL's answer to aggregates without GROUP BY over no rows: COUNT 0, the rest NULL."""
    return tuple(0 if function == "count" else None for function, _ in aggregations.values())


class Aggregate(Operator):
    """Grouped aggregation (count/sum/avg/min/max) evaluated by the runtime.

    A ``scalar`` aggregate (SQL without GROUP BY) answers one row even over
    no input; otherwise no input yields no row.
    """

    _FUNCTIONS = {"count", "sum", "avg", "min", "max"}

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str | None]],
        *,
        scalar: bool = False,
    ) -> None:
        for name, (function, _) in aggregations.items():
            if function not in self._FUNCTIONS:
                raise ExecutionError(f"unsupported aggregation function {function!r} for {name!r}")
        self._child = child
        self._group_by = tuple(group_by)
        self._aggregations = dict(aggregations)
        self._scalar = scalar

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        # Aggregation is blocking: fold the child's batches into one running
        # state per group, then stream the aggregated rows out.
        from repro.runtime.kernels import key_kernel

        # value column -> the folds its aggregates read (a count comes free)
        folds: dict[str, set[str]] = {}
        for function, column in self._aggregations.values():
            if column is not None:
                folds.setdefault(column, set()).add("sum" if function == "avg" else function)
        # key -> [rows, {value column: [non-null count, sum, min, max]}]
        groups: dict[object, list] = {}
        schema: tuple[str, ...] | None = None
        for batch in self._child.batches(context):
            if batch.columns != schema:
                schema = batch.columns
                keys_of = key_kernel(schema, self._group_by)
                value_of = {
                    column: itemgetter(schema.index(column))
                    for column in folds
                    if column in schema
                }
            buckets: dict[object, list[tuple]] = defaultdict(list)
            for key, row in zip(keys_of(batch.rows), batch.rows):
                buckets[key].append(row)
            for key, bucket in buckets.items():
                group = groups.get(key)
                if group is None:
                    group = groups[key] = [0, {column: [0, 0, None, None] for column in folds}]
                group[0] += len(bucket)
                for column, getter in value_of.items():
                    values = [value for value in map(getter, bucket) if value is not None]
                    if not values:
                        continue
                    state, wanted = group[1][column], folds[column]
                    state[0] += len(values)
                    if "sum" in wanted:
                        # Plain left-to-right additions from the running
                        # total: the answer does not depend on where batches
                        # split (sum() compensates floats within one call
                        # from 3.12 on, so it would).
                        state[1] = reduce(add, values, state[1])
                    if "min" in wanted:
                        low = min(values)
                        state[2] = low if state[2] is None else min(state[2], low)
                    if "max" in wanted:
                        high = max(values)
                        state[3] = high if state[3] is None else max(state[3], high)

        single_key = len(self._group_by) == 1  # key_kernel keeps a lone key bare
        aggregated_rows: list[tuple] = []
        for key, (count, states) in groups.items():
            aggregated: list[object] = []
            for function, column in self._aggregations.values():
                non_null, total, low, high = states[column] if column is not None else (0, 0, None, None)
                if function == "count":
                    aggregated.append(count if column is None else non_null)
                elif function == "sum":
                    aggregated.append(total)
                elif function == "avg":
                    aggregated.append(total / non_null if non_null else None)
                else:
                    aggregated.append(low if function == "min" else high)
            aggregated_rows.append(((key,) if single_key else key) + tuple(aggregated))
        if not groups and self._scalar:
            aggregated_rows.append(empty_scalar_row(self._aggregations))
        output_schema = self._group_by + tuple(self._aggregations)
        yield from batch_tuples(aggregated_rows, output_schema, context.batch_size)
        context.runtime_rows_processed += len(aggregated_rows)

    def describe(self) -> str:
        return f"{type(self).__name__}[by {', '.join(self._group_by) or '()'}]"


class ShardGather(Operator):
    """Union the per-shard branches of one sharded fragment access.

    The physical planner lowers an unpruned scan of a sharded fragment into
    one delegated request per shard, each wrapped in an
    :class:`~repro.runtime.parallel.Exchange`; this operator concatenates
    their batch streams (rows live in exactly one shard, so the union is
    disjoint — no deduplication is needed) and records the shards-contacted /
    shards-pruned accounting that :meth:`QueryResult.summary` surfaces.  With
    a pool the branches fill their queues concurrently while this operator
    drains them in shard order; serially it is a plain sequential union.
    """

    def __init__(
        self,
        branches: Sequence[Operator],
        fragment: str = "",
        shards_total: int = 0,
    ) -> None:
        if not branches:
            raise ExecutionError("a shard gather needs at least one branch")
        self._branches = tuple(branches)
        self._fragment = fragment
        self._shards_total = max(shards_total, len(self._branches))

    @property
    def branches(self) -> tuple[Operator, ...]:
        """The per-shard sub-plans (usually Exchange-wrapped)."""
        return self._branches

    @property
    def fragment(self) -> str:
        """The catalog fragment this gather serves."""
        return self._fragment

    @property
    def shards_total(self) -> int:
        """How many shards the fragment has (contacted + pruned)."""
        return self._shards_total

    def children(self) -> Sequence[Operator]:
        return self._branches

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        context.report_shards(
            len(self._branches), self._shards_total - len(self._branches)
        )
        for branch in self._branches:
            yield from branch.batches(context)

    def describe(self) -> str:
        label = f"{self._fragment}, " if self._fragment else ""
        return f"ShardGather[{label}{len(self._branches)}/{self._shards_total} shards]"


def partial_aggregations(
    aggregations: Mapping[str, tuple[str, str | None]],
) -> dict[str, tuple[str, str | None]]:
    """The per-shard decomposition of an aggregation spec.

    count/sum/min/max are their own partials; ``avg`` splits into a partial
    sum and a partial non-null count (merged as sum-of-sums over
    sum-of-counts).
    """
    partial: dict[str, tuple[str, str | None]] = {}
    for name, (function, column) in aggregations.items():
        if function == "avg":
            partial[f"{name}__psum"] = ("sum", column)
            partial[f"{name}__pcount"] = ("count", column)
        else:
            partial[name] = (function, column)
    return partial


class PartialAggregate(Aggregate):
    """Per-shard pre-aggregation: the shard-local half of a pushed-down aggregate.

    Evaluates the decomposed (partial) aggregation functions over one shard's
    rows; a :class:`MergeAggregate` above the gather combines the partial
    states.  Pushing the blocking aggregation below the Exchange means each
    shard's rows are reduced on the worker that fetched them — only one small
    row per group crosses the queue instead of the shard's whole scan.  A
    shard with no rows contributes no partial: the merge answers empty input.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str | None]],
    ) -> None:
        super().__init__(child, group_by, partial_aggregations(aggregations), scalar=False)


class MergeAggregate(Aggregate):
    """Combine per-shard partial aggregates into final groups.

    The child yields partial rows (``group_by`` columns plus the decomposed
    aggregate columns of :func:`partial_aggregations`), at most one per group
    per shard.  Merging is itself an aggregation over those rows: counts and
    sums add, min/max combine ignoring ``None`` (a shard where every value
    was null), and ``avg`` divides the merged sum by the merged non-null
    count.  A ``scalar`` merge answers one row when every shard was empty.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str | None]],
        *,
        scalar: bool = False,
    ) -> None:
        super().__init__(child, group_by, aggregations)
        self._final, self._final_scalar = self._aggregations, scalar
        self._aggregations = {
            name: ("sum" if function == "count" else function, name)
            for name, (function, _) in partial_aggregations(self._final).items()
        }

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        width = len(self._group_by)
        position = {name: width + index for index, name in enumerate(self._aggregations)}

        def final(row: tuple) -> tuple:
            merged = []
            for name, (function, _) in self._final.items():
                if function == "avg":
                    total, count = row[position[f"{name}__psum"]], row[position[f"{name}__pcount"]]
                    merged.append(total / count if count else None)
                else:
                    merged.append(row[position[name]])
            return row[:width] + tuple(merged)

        schema = self._group_by + tuple(self._final)
        merged = [final(row) for batch in super()._batches(context) for row in batch.rows]
        if not merged and self._final_scalar:
            merged = [empty_scalar_row(self._final)]  # every shard was empty
        yield from batch_tuples(merged, schema, context.batch_size)
