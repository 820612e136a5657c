"""Physical operators of the ESTOCADA runtime execution engine.

The runtime evaluates the *non-delegated* part of a plan: it stitches
together the results of the sub-queries delegated to the underlying stores.
Operators are small composable objects evaluated **batch-at-a-time**:
``batches(context)`` yields :class:`~repro.runtime.batch.RowBatch` objects
(column-oriented, tuple-based rows) so that no operator ever materializes the
whole result; ``rows(context)`` is the terminal collection helper that drains
the batch stream into binding dicts.  The operator set follows the paper:

* :class:`DelegatedRequest` — evaluate a store request (the delegated
  sub-query) and map its rows to pivot variables;
* :class:`BindJoin` — the operator "needed to access data sources with access
  restrictions": for each left binding, call the restricted source with the
  required inputs bound;
* :class:`HashJoin` — mediator-side equi-join of two sub-plans;
* :class:`Project`, :class:`Deduplicate` — residual projections (residual
  selections are :class:`~repro.runtime.kernels.FilterStage` kernels);
* :class:`NestedConstruct` — builds nested results when no store can;
* :class:`Aggregate` — simple grouped aggregation for the benchmark queries.

Operators hold no per-execution state, so one plan can be executed many times
(the plan cache relies on this).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add, itemgetter
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import ExecutionError
from repro.runtime.batch import (
    DEFAULT_BATCH_SIZE,
    BatchBuilder,
    RowBatch,
    batches_from_bindings,
    freeze_value,
)
from repro.runtime.values import Binding, nest_rows
from repro.stores.base import (
    Predicate,
    ScanRequest,
    Store,
    StoreMetrics,
    StoreRequest,
    StoreResult,
    batch_tuples,
    tuple_picker,
)

__all__ = [
    "ConcurrencyTracker",
    "FailureSignal",
    "ExecutionContext",
    "Operator",
    "DelegatedRequest",
    "BindJoin",
    "HashJoin",
    "Project",
    "Deduplicate",
    "NestedConstruct",
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
    # Residual comparison predicates in pivot-variable form, pushed into leaf
    # scans at execution time: (variable, op, value) triples.  Stores re-check
    # predicates anyway, so the hints only *narrow* what leaves read — on a
    # durable backing they become zone-map bounds that skip whole segments.
    scan_hints: tuple[tuple[str, str, object], ...] = ()
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

    def record(self, store_name: str, result: StoreResult | StoreMetrics) -> None:
        """Record a store request's metrics for the per-store breakdown."""
        metrics = result.metrics if isinstance(result, StoreResult) else result
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
            scan_hints=self.scan_hints,
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

    def rows(self, context: ExecutionContext) -> list[Binding]:
        """Terminal collection: drain the batch stream into binding dicts."""
        collected: list[Binding] = []
        for batch in self.batches(context):
            collected.extend(batch.to_bindings())
        return collected

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
    skipped).
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
    ) -> None:
        self._store = store
        self._request = request
        self._output = dict(output)
        self._constants = dict(constants or {})
        self._label = label or getattr(request, "collection", type(request).__name__)
        self._fragment = fragment
        self._shard = shard
        self._observable = (
            fragment is not None
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

    def _hinted_request(self, context: ExecutionContext) -> tuple[StoreRequest, bool]:
        """Fold the context's scan hints into this leaf's scan request.

        A hint applies when this leaf outputs the hinted variable; its store
        column comes from inverting ``output``.  The mediator still applies
        the residual filter above, so the pushed predicate is a pure
        narrowing — store comparators share the runtime's None semantics
        (inequalities on missing values are False on both sides).  Plans are
        cached and shared across executions, so the stored request is never
        mutated: an augmented copy is built per execution.
        """
        request = self._request
        hints = context.scan_hints
        if not hints or not isinstance(request, ScanRequest):
            return request, False
        column_of = {variable: column for column, variable in self._output.items()}
        extra = tuple(
            Predicate(column_of[variable], op, value)
            for variable, op, value in hints
            if variable in column_of
        )
        if not extra:
            return request, False
        return replace(request, predicates=request.predicates + extra), True

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
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
        request, hinted = self._hinted_request(context)
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
        # generator never resumes past the finally).  A hinted scan is
        # filtered, so its row count is not a fragment cardinality —
        # recording it would poison the statistics feedback.
        if self._observable and not hinted:
            context.observe(self._fragment, stream.metrics.rows_returned, self._shard)

    def describe(self) -> str:
        replicas = f", replicas={self._replica_count}" if self._replica_count else ""
        return (
            f"DelegatedRequest[store={self._store.name}, {self._label}{replicas}, "
            f"vars={sorted(self._output.values())}]"
        )


class BindJoin(Operator):
    """For every left binding, probe an access-restricted source.

    ``request_factory`` receives the left binding and returns the store
    request to issue (typically a :class:`LookupRequest` with the key bound,
    or a :class:`ScanRequest` with an equality predicate).  Rows returned by
    the probe are mapped through ``output`` and merged with the left binding;
    probe rows disagreeing with the left binding on a shared variable are
    dropped (the usual compatible-bindings semantics).
    """

    def __init__(
        self,
        left: Operator,
        store: Store,
        request_factory: Callable[[Binding], StoreRequest | None],
        output: Mapping[str, str],
        constants: Mapping[str, object] | None = None,
        label: str = "probe",
    ) -> None:
        self._left = left
        self._store = store
        self._request_factory = request_factory
        self._output = dict(output)
        self._constants = dict(constants or {})
        self._label = label

    def children(self) -> Sequence[Operator]:
        return (self._left,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        output_items = tuple(self._output.items())
        constant_items = tuple(self._constants.items())
        left_schema: tuple[str, ...] | None = None
        shared_positions: dict[str, int] = {}
        new_variables: tuple[str, ...] = ()
        builder: BatchBuilder | None = None
        for left_batch in self._left.batches(context):
            if left_batch.columns != left_schema:
                if builder is not None:
                    tail = builder.flush()
                    if tail is not None:
                        context.runtime_rows_processed += len(tail)
                        yield tail
                left_schema = left_batch.columns
                left_set = set(left_schema)
                shared_positions = {
                    variable: left_schema.index(variable)
                    for _, variable in output_items
                    if variable in left_set
                }
                seen_new: dict[str, None] = {}
                for _, variable in output_items:
                    if variable not in left_set:
                        seen_new.setdefault(variable, None)
                new_variables = tuple(seen_new)
                builder = BatchBuilder(left_schema + new_variables, context.batch_size)
            for left_row in left_batch.rows:
                left_binding = dict(zip(left_schema, left_row))
                request = self._request_factory(left_binding)
                if request is None:
                    continue
                context.tracker.enter()
                try:
                    probe = self._store.execute(request)
                finally:
                    context.tracker.exit()
                context.record(self._store.name, probe)
                for row in probe.rows:
                    if constant_items and any(
                        row.get(column) != value for column, value in constant_items
                    ):
                        continue
                    right_binding: dict[str, object] = {}
                    for column, variable in output_items:
                        right_binding[variable] = row.get(column)
                    if any(
                        left_row[position] != right_binding[variable]
                        for variable, position in shared_positions.items()
                    ):
                        continue
                    full = builder.add(
                        left_row
                        + tuple(right_binding.get(variable) for variable in new_variables)
                    )
                    if full is not None:
                        context.runtime_rows_processed += len(full)
                        yield full
        if builder is not None:
            tail = builder.flush()
            if tail is not None:
                context.runtime_rows_processed += len(tail)
                yield tail

    def describe(self) -> str:
        return f"BindJoin[store={self._store.name}, {self._label}, vars={sorted(self._output.values())}]"


class HashJoin(Operator):
    """Mediator-side equi-join of two sub-plans on their shared variables.

    The right (build) side is materialized into a hash table; the left side
    streams through it batch by batch.  Join variables are inferred once from
    the two schemas (not per probe row).
    """

    def __init__(self, left: Operator, right: Operator, on: Sequence[str] | None = None) -> None:
        self._left = left
        self._right = right
        self._on = tuple(on) if on is not None else None

    def children(self) -> Sequence[Operator]:
        return (self._left, self._right)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        # Build side: materialize (a hash join's build side is inherently
        # blocking) under one canonical schema.
        right_batches = [batch for batch in self._right.batches(context) if batch]
        if not right_batches:
            return
        right_schema = right_batches[0].columns
        if any(batch.columns != right_schema for batch in right_batches[1:]):
            # Schema drift across batches (sources chunking dict rows get
            # per-chunk union schemas): realign everything on the union so no
            # column from a later batch is dropped.
            union: dict[str, None] = {}
            for batch in right_batches:
                for column in batch.columns:
                    union.setdefault(column, None)
            right_schema = tuple(union)
        right_rows: list[tuple] = []
        for batch in right_batches:
            if batch.columns == right_schema:
                right_rows.extend(batch.rows)
            else:
                indexer = batch.indexer(right_schema)
                right_rows.extend(
                    tuple(row[i] if i is not None else None for i in indexer)
                    for row in batch.rows
                )

        # Vectorized key extraction: both sides hash their key columns
        # batch-at-a-time through the same kernel, so single-column keys stay
        # bare scalars and no per-row key tuple is allocated.
        from repro.runtime.kernels import key_kernel

        join_variables = self._on
        left_schema: tuple[str, ...] | None = None
        builds: dict[tuple[int, ...], dict] = {}
        for left_batch in self._left.batches(context):
            if not left_batch:
                continue
            if left_batch.columns != left_schema:
                left_schema = left_batch.columns
                if join_variables is None:
                    join_variables = tuple(
                        sorted(set(left_schema) & set(right_schema))
                    )
                left_set = set(left_schema)
                # Right columns not produced by the left side are appended.
                right_tail_positions = tuple(
                    index
                    for index, column in enumerate(right_schema)
                    if column not in left_set
                )
                output_schema = left_schema + tuple(
                    right_schema[index] for index in right_tail_positions
                )
                # Shared columns beyond the join key must still agree
                # (compatible-bindings semantics with an explicit `on`); a
                # keyless join is a plain cartesian product.
                extra_checks = tuple(
                    (left_schema.index(column), right_schema.index(column))
                    for column in left_set & set(right_schema)
                    if join_variables and column not in join_variables
                )
                left_keys_of = key_kernel(left_schema, join_variables)
                # Build side: key -> [(right row, its tail)], every tail
                # picked once (per tail shape, should the left schema drift).
                # Without join variables both sides' key is `()`, so the one
                # probe below is the cartesian product.
                build = builds.get(right_tail_positions)
                if build is None:
                    build = builds[right_tail_positions] = defaultdict(list)
                    right_tails = tuple_picker(right_tail_positions)(right_rows)
                    right_keys = key_kernel(right_schema, join_variables)(right_rows)
                    for key, pair in zip(right_keys, zip(right_rows, right_tails)):
                        build[key].append(pair)
                matches_of = build.get

            # Probe a whole batch in one (lazy) comprehension, re-chunked to
            # `batch_size`: a skewed key cannot emit one giant batch and a
            # LIMIT above the join stops the probe mid-batch.
            left_rows = left_batch.rows
            joined = (
                left_row + tail
                for left_row, key in zip(left_rows, left_keys_of(left_rows))
                for right_row, tail in matches_of(key, ())
                if not extra_checks
                or not any(left_row[li] != right_row[ri] for li, ri in extra_checks)
            )
            for batch in batch_tuples(joined, output_schema, context.batch_size):
                context.runtime_rows_processed += len(batch)
                yield batch

    def describe(self) -> str:
        on = "natural" if self._on is None else ",".join(self._on)
        return f"HashJoin[on={on}]"


class Project(Operator):
    """Keep only the distinguished variables, optionally renaming them."""

    def __init__(self, child: Operator, variables: Sequence[str],
                 renaming: Mapping[str, str] | None = None) -> None:
        self._child = child
        self._variables = tuple(variables)
        self._renaming = dict(renaming or {})

    @property
    def variables(self) -> tuple[str, ...]:
        """The projected variable names (pre-renaming)."""
        return self._variables

    @property
    def renaming(self) -> Mapping[str, str]:
        """The output renaming (old name → new name; empty when none)."""
        return self._renaming

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        output_schema = tuple(
            self._renaming.get(variable, variable) for variable in self._variables
        )
        source_schema: tuple[str, ...] | None = None
        indexer: list[int | None] = []
        for batch in self._child.batches(context):
            if batch.columns != source_schema:
                source_schema = batch.columns
                indexer = batch.indexer(self._variables)
            rows = [
                tuple(row[i] if i is not None else None for i in indexer)
                for row in batch.rows
            ]
            if rows:
                yield RowBatch(output_schema, rows)

    def describe(self) -> str:
        return f"Project[{', '.join(self._variables)}]"


class Deduplicate(Operator):
    """Set semantics: drop duplicate bindings.

    Seen keys are hashed incrementally as batches stream through; a row's key
    is its (type, value) tuple in a canonical column order (frozen into nested
    tuples only when a value is unhashable), so keys are not rebuilt per
    comparison.  Types are part of the key so that ``1``, ``1.0`` and ``True``
    stay distinct rows, as under the seed engine's repr-based keys.
    """

    def __init__(self, child: Operator) -> None:
        self._child = child

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        seen: set[tuple] = set()
        schema: tuple[str, ...] | None = None
        order: list[int] = []
        signature: tuple[str, ...] = ()
        for batch in self._child.batches(context):
            if batch.columns != schema:
                schema = batch.columns
                order = sorted(range(len(schema)), key=lambda i: schema[i])
                signature = tuple(schema[i] for i in order)
            unique: list[tuple] = []
            for row in batch.rows:
                key = (signature, tuple((row[i].__class__, row[i]) for i in order))
                try:
                    is_new = key not in seen
                except TypeError:
                    key = (
                        signature,
                        tuple((row[i].__class__, freeze_value(row[i])) for i in order),
                    )
                    is_new = key not in seen
                if is_new:
                    seen.add(key)
                    unique.append(row)
            if unique:
                yield RowBatch(batch.columns, unique)


class NestedConstruct(Operator):
    """Construct nested results (a list-valued column per group)."""

    def __init__(
        self,
        child: Operator,
        group_keys: Sequence[str],
        nested_name: str,
        nested_columns: Sequence[str],
    ) -> None:
        self._child = child
        self._group_keys = tuple(group_keys)
        self._nested_name = nested_name
        self._nested_columns = tuple(nested_columns)

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        # Grouping is blocking: consume the child fully, then stream the groups.
        nested = nest_rows(
            self._child.rows(context), self._group_keys, self._nested_name, self._nested_columns
        )
        yield from batches_from_bindings(
            nested, context.batch_size, self._group_keys + (self._nested_name,)
        )

    def describe(self) -> str:
        return f"NestedConstruct[{self._nested_name} by {', '.join(self._group_keys)}]"


class Aggregate(Operator):
    """Grouped aggregation (count/sum/avg/min/max) evaluated by the runtime."""

    _FUNCTIONS = {"count", "sum", "avg", "min", "max"}

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str | None]],
    ) -> None:
        for name, (function, _) in aggregations.items():
            if function not in self._FUNCTIONS:
                raise ExecutionError(f"unsupported aggregation function {function!r} for {name!r}")
        self._child = child
        self._group_by = tuple(group_by)
        self._aggregations = dict(aggregations)

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
        output_schema = self._group_by + tuple(self._aggregations)
        yield from batch_tuples(aggregated_rows, output_schema, context.batch_size)
        context.runtime_rows_processed += len(aggregated_rows)

    def describe(self) -> str:
        return f"Aggregate[by {', '.join(self._group_by) or '()'}]"


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
    row per group crosses the queue instead of the shard's whole scan.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str | None]],
    ) -> None:
        super().__init__(child, group_by, partial_aggregations(aggregations))
        self._original = dict(aggregations)

    def describe(self) -> str:
        return f"PartialAggregate[by {', '.join(self._group_by) or '()'}]"


class MergeAggregate(Operator):
    """Combine per-shard partial aggregates into final groups.

    The child yields partial rows (``group_by`` columns plus the decomposed
    aggregate columns of :func:`partial_aggregations`), at most one per group
    per shard.  States merge associatively: counts and sums add, min/max
    combine ignoring ``None`` (a shard where every value was null), and
    ``avg`` divides the merged sum by the merged non-null count.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str | None]],
    ) -> None:
        for name, (function, _) in aggregations.items():
            if function not in Aggregate._FUNCTIONS:
                raise ExecutionError(
                    f"unsupported aggregation function {function!r} for {name!r}"
                )
        self._child = child
        self._group_by = tuple(group_by)
        self._aggregations = dict(aggregations)

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        partial_columns = tuple(partial_aggregations(self._aggregations))
        schema: tuple[str, ...] | None = None
        group_indexer: list[int | None] = []
        partial_indexer: dict[str, int | None] = {}
        groups: dict[tuple, dict[str, object]] = {}
        for batch in self._child.batches(context):
            if batch.columns != schema:
                schema = batch.columns
                group_indexer = batch.indexer(self._group_by)
                partial_indexer = {
                    column: (batch.columns.index(column) if column in batch.columns else None)
                    for column in partial_columns
                }
            for row in batch.rows:
                key = tuple(row[i] if i is not None else None for i in group_indexer)
                state = groups.setdefault(key, {})
                for name, (function, _) in self._aggregations.items():
                    if function == "avg":
                        psum_index = partial_indexer.get(f"{name}__psum")
                        pcount_index = partial_indexer.get(f"{name}__pcount")
                        psum = row[psum_index] if psum_index is not None else 0
                        pcount = row[pcount_index] if pcount_index is not None else 0
                        total, count = state.get(name, (0, 0))
                        state[name] = (total + (psum or 0), count + (pcount or 0))
                        continue
                    index = partial_indexer.get(name)
                    value = row[index] if index is not None else None
                    if function in ("count", "sum"):
                        state[name] = state.get(name, 0) + (value or 0)
                    elif function == "min":
                        current = state.get(name)
                        if value is not None:
                            state[name] = value if current is None else min(current, value)
                        else:
                            state.setdefault(name, None)
                    elif function == "max":
                        current = state.get(name)
                        if value is not None:
                            state[name] = value if current is None else max(current, value)
                        else:
                            state.setdefault(name, None)

        output_schema = self._group_by + tuple(self._aggregations)
        builder = BatchBuilder(output_schema, context.batch_size)
        produced = 0
        for key, state in groups.items():
            merged: list[object] = []
            for name, (function, _) in self._aggregations.items():
                if function == "avg":
                    total, count = state.get(name, (0, 0))
                    merged.append(total / count if count else None)
                else:
                    merged.append(state.get(name))
            full = builder.add(key + tuple(merged))
            if full is not None:
                produced += len(full)
                yield full
        tail = builder.flush()
        if tail is not None:
            produced += len(tail)
            yield tail
        context.runtime_rows_processed += produced

    def describe(self) -> str:
        return f"MergeAggregate[by {', '.join(self._group_by) or '()'}]"
