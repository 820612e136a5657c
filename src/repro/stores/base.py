"""Common store abstraction for the simulated DMS substrates.

The paper's prototype talks to Postgres, MongoDB, Redis, SOLR and Spark; this
reproduction replaces them with in-process simulators that expose a common
minimal interface to the ESTOCADA mediator:

* a **capability profile** (:class:`StoreCapabilities`) describing which
  operations the store can evaluate natively — selections, projections,
  joins, key lookups, text search, nested construction — which is what the
  translation layer consults when deciding how much of a rewriting can be
  *delegated* to the store;
* a micro-IR of **store requests** (:class:`ScanRequest`,
  :class:`LookupRequest`, :class:`JoinRequest`, :class:`SearchRequest`)
  that delegated sub-queries are compiled into;
* a uniform **result** type carrying rows (as dictionaries) plus the
  execution metrics that the demo scenario surfaces ("performance statistics
  split across the underlying DMS and ESTOCADA's runtime").

Each concrete store also exposes simple statistics (cardinalities, distinct
counts) consumed by the cost model.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import StoreError, UnsupportedOperationError
from repro.cancellation import interruptible_sleep

__all__ = [
    "StoreCapabilities",
    "Predicate",
    "ScanRequest",
    "LookupRequest",
    "JoinRequest",
    "SearchRequest",
    "StoreRequest",
    "StoreResult",
    "StoreBatchStream",
    "StoreMetrics",
    "Store",
    "COMPARATORS",
    "DEFAULT_STREAM_BATCH_SIZE",
    "batch_tuples",
    "kept_rows",
    "row_batches",
    "tuple_picker",
]

DEFAULT_STREAM_BATCH_SIZE = 256


COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": lambda left, right: left is not None and right is not None and left < right,
    "<=": lambda left, right: left is not None and right is not None and left <= right,
    ">": lambda left, right: left is not None and right is not None and left > right,
    ">=": lambda left, right: left is not None and right is not None and left >= right,
}


@dataclass(frozen=True, slots=True)
class StoreCapabilities:
    """What a store can evaluate natively.

    The mediator delegates to the store exactly the operations the store
    supports and evaluates the rest itself (paper, Section III, "Evaluation
    of non-delegated operations").
    """

    name: str
    data_model: str
    supports_scan: bool = True
    supports_selection: bool = True
    supports_projection: bool = True
    supports_join: bool = False
    supports_aggregation: bool = False
    supports_key_lookup: bool = False
    requires_key_lookup: bool = False
    supports_text_search: bool = False
    supports_nested_results: bool = False
    parallel: bool = False


@dataclass(frozen=True, slots=True)
class Predicate:
    """A simple comparison predicate ``column <op> value`` on a collection."""

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise StoreError(f"unsupported predicate operator {self.op!r}")

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """Evaluate the predicate on one row (missing columns compare as None)."""
        return COMPARATORS[self.op](row.get(self.column), self.value)


@dataclass(frozen=True, slots=True)
class ScanRequest:
    """Scan a collection, applying predicates and a projection."""

    collection: str
    predicates: tuple[Predicate, ...] = ()
    projection: tuple[str, ...] | None = None
    limit: int | None = None


@dataclass(frozen=True, slots=True)
class LookupRequest:
    """Point lookup(s) by key in a key-access collection."""

    collection: str
    keys: tuple[object, ...]
    projection: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class JoinRequest:
    """A join of two sub-requests on column equality, for join-capable stores."""

    left: "StoreRequest"
    right: "StoreRequest"
    on: tuple[tuple[str, str], ...]
    projection: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class SearchRequest:
    """Full-text search over a collection (SOLR-like stores)."""

    collection: str
    text: str
    fields: tuple[str, ...] = ()
    limit: int | None = None


StoreRequest = ScanRequest | LookupRequest | JoinRequest | SearchRequest


@dataclass(slots=True)
class StoreMetrics:
    """Execution metrics reported by a store for one request.

    ``replica_attempts`` / ``replica_retries`` / ``replica_hedges`` /
    ``replica_failovers`` are populated only by requests served through a
    :class:`~repro.stores.replicated.ReplicatedStore`: how many replica
    attempts the request took, how many were same-replica retries, how many
    backup (hedged) requests were fired, and how many times the request moved
    on to another replica after a hard failure.

    ``segments_scanned`` / ``segments_skipped`` / ``rows_decoded`` are
    populated only by scans served from a durable segment backing: how many
    frozen segments the scan actually opened, how many its zone maps proved
    irrelevant without touching their column blocks, and how many stored
    rows were decoded (the rows of opened segments plus the unfrozen tail).
    """

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

    def merge(self, other: "StoreMetrics") -> "StoreMetrics":
        """Combine the metrics of two requests (used by composite requests)."""
        return StoreMetrics(
            rows_scanned=self.rows_scanned + other.rows_scanned,
            rows_returned=self.rows_returned + other.rows_returned,
            index_lookups=self.index_lookups + other.index_lookups,
            partitions_used=self.partitions_used + other.partitions_used,
            partitions_pruned=self.partitions_pruned + other.partitions_pruned,
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            replica_attempts=self.replica_attempts + other.replica_attempts,
            replica_retries=self.replica_retries + other.replica_retries,
            replica_hedges=self.replica_hedges + other.replica_hedges,
            replica_failovers=self.replica_failovers + other.replica_failovers,
            segments_scanned=self.segments_scanned + other.segments_scanned,
            segments_skipped=self.segments_skipped + other.segments_skipped,
            rows_decoded=self.rows_decoded + other.rows_decoded,
        )


@dataclass(slots=True)
class StoreResult:
    """Rows returned by a store, plus the metrics of the request."""

    rows: list[dict[str, object]]
    metrics: StoreMetrics = field(default_factory=StoreMetrics)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def batch_tuples(
    tuples: Iterable[tuple],
    columns: Sequence[str],
    batch_size: int,
    limit: int | None = None,
):
    """Chunk row tuples into ``RowBatch`` objects, stopping at ``limit``.

    Lazy: each batch is one ``islice`` of ``tuples``, so a consumer that
    stops early (or a ``limit``) never pulls the rest of the source.
    """
    from repro.runtime.batch import RowBatch

    columns = tuple(columns)
    source = iter(tuples) if limit is None else islice(tuples, max(limit, 0))
    while chunk := list(islice(source, batch_size)):
        yield RowBatch(columns, chunk)


def _where(rows, read, column, comparator, value):
    return (row for row in rows if comparator(read(row, column), value))


def kept_rows(
    rows: Iterable[dict[str, object]],
    predicates: Sequence[Predicate],
    limit: int | None = None,
    reader_of: Callable[[str], Callable] | None = None,
) -> Iterator[dict[str, object]]:
    """The dict rows satisfying every predicate, lazily, stopping at ``limit``.

    The filter half of the store scan kernel, shared by both scan entry
    points of every dict-heap store.  Each predicate is resolved once to
    ``(reader, column, comparator, value)`` and becomes one generator chained
    on the previous, so a row is dropped at its first failing comparison and
    nothing is evaluated past ``limit`` kept rows.  ``reader_of(column)``
    picks how a column is read off a row (default ``dict.get``: a missing
    column compares as None).
    """
    kept = iter(rows)
    for predicate in predicates:
        read = dict.get if reader_of is None else reader_of(predicate.column)
        kept = _where(
            kept, read, predicate.column, COMPARATORS[predicate.op], predicate.value
        )
    return kept if limit is None else islice(kept, max(limit, 0))


def tuple_picker(keys: Sequence) -> Callable[[Sequence], list[tuple]]:
    """A C-speed ``rows -> [tuple(row[key] for key in keys), ...]`` over a chunk.

    ``itemgetter`` does not care what it indexes, so this serves dict rows
    (``keys`` are column names) and tuple rows (``keys`` are positions) alike.
    """
    keys = tuple(keys)
    if not keys:
        return lambda rows: [()] * len(rows)
    pick = operator.itemgetter(*keys)
    if len(keys) == 1:  # a lone itemgetter returns the bare value; zip re-wraps it
        return lambda rows: list(zip(map(pick, rows)))
    return lambda rows: list(map(pick, rows))


def row_batches(
    rows: Iterable[Mapping[str, object]], columns: Sequence[str], batch_size: int
):
    """``RowBatch`` objects of ``columns`` built from dict rows, a chunk a time.

    The output half of the store scan kernel: one :func:`tuple_picker` call
    builds a whole chunk's tuples; a chunk holding a row that lacks one of
    the columns raises ``KeyError`` and is rebuilt with ``.get`` (missing
    reads None).
    """
    from repro.runtime.batch import RowBatch

    columns = tuple(columns)
    rows = iter(rows)
    pick = tuple_picker(columns)
    while chunk := list(islice(rows, batch_size)):
        try:
            tuples = pick(chunk)
        except KeyError:
            tuples = [tuple(map(row.get, columns)) for row in chunk]
        yield RowBatch(columns, tuples)


class _DurableSilence:
    """Reentrant guard suppressing durable logging inside a ``with`` block.

    Used during recovery replay (re-applying a record must not re-log it)
    and by compound writes built from other logged writes (e.g. a document
    delta whose inserts go through ``insert``): the outermost operation logs
    one record, the nested calls stay quiet.  A counter rather than a flag,
    so nested silences compose.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "Store") -> None:
        self._store = store

    def __enter__(self) -> None:
        self._store._durable_quiet += 1

    def __exit__(self, *exc_info) -> None:
        self._store._durable_quiet -= 1


class StoreBatchStream:
    """A lazily batched store result over native ``RowBatch`` objects.

    Iterating yields :class:`~repro.runtime.batch.RowBatch` objects whose
    schema is exactly the ``columns`` the consumer asked for — tuples flow
    from the store's internal representation to the runtime without a
    per-row dict round-trip.

    The request's :attr:`metrics` are finalized once the stream is exhausted
    (the consumer — typically a ``DelegatedRequest`` operator — records them
    into the per-query store breakdown at that point).  Time spent inside the
    store (issuing the request, pulling rows) is measured; time the consumer
    spends between batches is not charged to the store.

    Finalization is **idempotent and race-free**: the running counters live on
    the instance and :meth:`_finalize` folds them into :attr:`metrics` (and the
    store's cumulative counters) exactly once, under a lock — a pipeline
    abandoned mid-stream may be closed from the consumer thread while the
    producing Exchange worker unwinds, and both paths meet here.
    """

    __slots__ = (
        "_store",
        "_request",
        "_columns",
        "_batch_size",
        "metrics",
        "_consumed",
        "_lock",
        "_finalized",
        "_returned",
        "_elapsed",
        "_base_metrics",
    )

    def __init__(
        self,
        store: "Store",
        request: StoreRequest,
        columns: Sequence[str],
        batch_size: int,
    ) -> None:
        self._store = store
        self._request = request
        self._columns = tuple(columns)
        self._batch_size = max(1, batch_size)
        self.metrics = StoreMetrics()
        self._consumed = False
        self._lock = threading.Lock()
        self._finalized = False
        self._returned = 0
        self._elapsed = 0.0
        self._base_metrics = StoreMetrics()

    @property
    def columns(self) -> tuple[str, ...]:
        """The schema every yielded batch carries."""
        return self._columns

    @property
    def finalized(self) -> bool:
        """Whether the stream's metrics have been folded into the store."""
        return self._finalized

    def _claim(self) -> None:
        """Mark the stream consumed (streams are single-shot)."""
        with self._lock:
            if self._consumed:
                raise StoreError(
                    f"result stream of {self._store.name!r} has already been consumed"
                )
            self._consumed = True

    def _finalize(self) -> None:
        """Fold the running counters into :attr:`metrics` exactly once."""
        with self._lock:
            if self._finalized:
                return
            self._finalized = True
            self.metrics = StoreMetrics(
                rows_scanned=self._base_metrics.rows_scanned,
                rows_returned=self._returned,
                index_lookups=self._base_metrics.index_lookups,
                partitions_used=self._base_metrics.partitions_used,
                partitions_pruned=self._base_metrics.partitions_pruned,
                elapsed_seconds=self._elapsed,
                replica_attempts=self._base_metrics.replica_attempts,
                replica_retries=self._base_metrics.replica_retries,
                replica_hedges=self._base_metrics.replica_hedges,
                replica_failovers=self._base_metrics.replica_failovers,
                segments_scanned=self._base_metrics.segments_scanned,
                segments_skipped=self._base_metrics.segments_skipped,
                rows_decoded=self._base_metrics.rows_decoded,
            )
            self._store._note_request(self.metrics)

    def close(self) -> None:
        """Finalize the stream early (safe to call from any thread, any number of times)."""
        self._finalize()

    def __iter__(self) -> "Iterator":
        self._claim()
        batches_iter = None
        try:
            started = time.perf_counter()
            # Interruptible: a cancelled execution (LIMIT early-exit, hedged
            # loser, expired deadline) wakes from the simulated service wait
            # immediately instead of sleeping through it.
            interruptible_sleep(self._store.simulated_latency)
            batches_iter, self._base_metrics = self._store._execute_batches(
                self._request, self._columns, self._batch_size
            )
            self._elapsed += time.perf_counter() - started
            while True:
                pulled = time.perf_counter()
                batch = next(batches_iter, None)
                self._elapsed += time.perf_counter() - pulled
                if batch is None:
                    break
                self._returned += len(batch)
                yield batch
        finally:
            # Runs on exhaustion *and* when the consumer abandons the stream
            # early (e.g. under a LIMIT): whatever was actually pulled is
            # what the request served.  Close the store's generator *before*
            # snapshotting the metrics: router stores fill in their partition
            # accounting (and fold in-flight child metrics) in their own
            # finally blocks, which must run even on abandonment.
            if batches_iter is not None:
                close = getattr(batches_iter, "close", None)
                if close is not None:
                    close()
            self._finalize()


class Store:
    """Abstract base class of every simulated DMS.

    Subclasses implement :meth:`_execute` for the request kinds they support
    and declare their profile via :meth:`capabilities`.  The public
    :meth:`execute` wrapper adds timing and cumulative per-store counters used
    by the demo's performance reporting; :meth:`execute_batches` is the
    streaming path the runtime uses for delegated requests.

    Stores are **thread-safe for request execution**: requests carry their own
    per-request metrics, cumulative counters are folded in under a lock, and
    the simulators keep no mutable scan state shared between requests — the
    scatter-gather runtime issues requests to one store from several Exchange
    workers concurrently.  ``latency`` is a simulated per-request service
    latency (seconds): the real systems the simulators stand in for answer no
    request instantly, and without it the concurrency benchmarks would
    measure nothing but Python overhead.
    """

    def __init__(self, name: str, latency: float = 0.0) -> None:
        self.name = name
        self._total_metrics = StoreMetrics()
        self._requests_served = 0
        self._latency = max(0.0, latency)
        self._metrics_lock = threading.Lock()
        self._durable = None
        self._durable_quiet = 0

    @property
    def simulated_latency(self) -> float:
        """The simulated per-request latency in seconds (0 by default)."""
        return self._latency

    def set_simulated_latency(self, seconds: float) -> None:
        """Change the simulated per-request latency (benchmarks use this)."""
        self._latency = max(0.0, float(seconds))

    # -- interface to implement ------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        """The store's capability profile."""
        raise NotImplementedError

    def collections(self) -> Sequence[str]:
        """Names of the collections/tables currently stored."""
        raise NotImplementedError

    def collection_size(self, collection: str) -> int:
        """Number of rows/documents/entries in ``collection``."""
        raise NotImplementedError

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        """Basic per-column statistics (count, distinct) for the cost model."""
        raise NotImplementedError

    def _execute(self, request: StoreRequest) -> StoreResult:
        raise NotImplementedError

    def _execute_batches(
        self, request: StoreRequest, columns: Sequence[str], batch_size: int
    ):
        """Streaming counterpart of :meth:`_execute`.

        Returns an iterator of :class:`~repro.runtime.batch.RowBatch` objects
        (schema = ``columns``) plus the request's base metrics
        (``rows_returned`` and ``elapsed_seconds`` are filled in by the
        :class:`StoreBatchStream` wrapper as batches are pulled).  The
        metrics object may keep being filled in while the iterator runs
        (router stores only know their per-partition accounting at the end);
        the wrapper reads it after exhaustion.

        The default adapts :meth:`_execute`, so every store serves batch
        requests out of the box; the concrete simulators override this to
        build row tuples straight from their internal representation,
        skipping the per-row dict copy entirely.
        """
        result = self._execute(request)
        return row_batches(result.rows, columns, batch_size), result.metrics

    # -- write path --------------------------------------------------------------
    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        """Apply a bag delta to ``collection``: remove ``deletes``, add ``inserts``.

        Deletions are strict one-for-one bag matches — a delete row that
        matches nothing raises :class:`~repro.errors.DeltaError`, because a
        missing match means the maintained copy has diverged from what the
        delta was computed against.  Deletes are applied before inserts so an
        update (delete+insert of rows sharing a key) never trips a uniqueness
        check.  Returns the number of rows touched.  Stores without a write
        path reject the operation.
        """
        raise self._reject("delta writes")

    def truncate_collection(self, collection: str) -> None:
        """Drop every row of ``collection``, keeping its schema and indexes.

        A rolled-back live migration (:mod:`repro.catalog.migration`) empties
        the half-built target collection this way.
        """
        raise self._reject("truncation")

    # -- durable backing ----------------------------------------------------------
    def attach_durable(self, backing) -> None:
        """Attach a WAL+segment :class:`~repro.stores.segment.DurableBacking`.

        Attaching recovers any state persisted in the backing's directory
        into this store (via :meth:`_durable_replay`); if the directory is
        empty but the store already holds data, the contents are snapshotted
        so durability starts complete.  From then on the store's write
        operations append WAL records through :meth:`_durable_log`.  Only
        stores that implement the replay/dump hooks actually persist
        anything; attaching to any other store is a harmless no-op backing.
        """
        if self._durable is not None:
            raise StoreError(f"store {self.name!r} already has a durable backing")
        backing.attach(self)
        self._durable = backing

    def durable_backing(self):
        """The attached durable backing, or None."""
        return self._durable

    def compact_durable(self) -> Mapping[str, object] | None:
        """Merge the WAL tail + segments into a fresh segment generation.

        Returns the backing's compaction report, or None when the store has
        no durable backing (or no durable dump to compact).
        """
        backing = self._durable
        if backing is None:
            return None
        return backing.compact()

    def segment_scan_fraction(self, collection: str, bounds) -> float | None:
        """Expected fraction of ``collection`` a scan touches after pruning.

        The cost model calls this with the query's literal bounds
        (:class:`~repro.runtime.kernels.ZoneBound`) to price delegated scans
        by segments-after-pruning; None means no zone-map statistics exist.
        """
        backing = self._durable
        if backing is None:
            return None
        return backing.scan_fraction(collection, bounds)

    # Subclass protocol: a store that opts into durability calls
    # ``_durable_log`` after each successful write, implements
    # ``_durable_replay`` to re-apply a logged record during recovery, and
    # ``_durable_dump`` to snapshot its full state for compaction.
    def _durable_log(self, record: Mapping[str, object]) -> None:
        backing = self._durable
        if backing is not None and not self._durable_quiet:
            backing.log(record)

    def _durable_silence(self):
        """Context manager suppressing :meth:`_durable_log` (replay, nesting)."""
        return _DurableSilence(self)

    def _durable_replay(self, record: Mapping[str, object]) -> None:
        """Re-apply one recovered WAL/manifest record (default: not durable)."""

    def _durable_dump(self) -> Mapping[str, Mapping[str, object]] | None:
        """Full-state snapshot for compaction, or None when not durable.

        The shape is ``{collection: {"columns": ..., "meta": ..., "rows":
        [native row dicts]}}``; ``columns`` is the declared schema (None for
        ragged collections) and ``meta`` whatever ``_durable_replay`` needs
        to rebuild schema-level state (keys, indexes).
        """
        return None

    def _durable_scan_source(self, request: StoreRequest):
        """The backing able to serve this scan from segments, or None."""
        backing = self._durable
        if (
            backing is None
            or not isinstance(request, ScanRequest)
            or not backing.has_segments(request.collection)
        ):
            return None
        return backing

    # -- public API -------------------------------------------------------------
    def execute(self, request: StoreRequest) -> StoreResult:
        """Execute a request, recording timing and cumulative metrics."""
        started = time.perf_counter()
        interruptible_sleep(self._latency)
        result = self._execute(request)
        result.metrics.elapsed_seconds = time.perf_counter() - started
        result.metrics.rows_returned = len(result.rows)
        self._note_request(result.metrics)
        return result

    def execute_batches(
        self,
        request: StoreRequest,
        columns: Sequence[str],
        batch_size: int = DEFAULT_STREAM_BATCH_SIZE,
    ) -> StoreBatchStream:
        """Execute a request as a native :class:`~repro.runtime.batch.RowBatch` stream.

        ``columns`` fixes the schema of every yielded batch (columns the rows
        lack are filled with ``None``).  This is the runtime's scan path: the
        store builds row tuples directly, so delegated requests stream to
        the operators without a per-row dict round-trip.  The stream's
        metrics (and the store's cumulative counters) are finalized when the
        stream is exhausted or closed.
        """
        return StoreBatchStream(self, request, columns, batch_size)

    def _note_request(self, metrics: StoreMetrics) -> None:
        """Fold one served request into the cumulative counters (thread-safe)."""
        with self._metrics_lock:
            self._total_metrics = self._total_metrics.merge(metrics)
            self._requests_served += 1

    def reset_metrics(self) -> None:
        """Zero the cumulative counters (used between benchmark runs)."""
        with self._metrics_lock:
            self._total_metrics = StoreMetrics()
            self._requests_served = 0

    @property
    def total_metrics(self) -> StoreMetrics:
        """Cumulative metrics across all requests served."""
        return self._total_metrics

    @property
    def requests_served(self) -> int:
        """Number of requests served since the last reset."""
        return self._requests_served

    # -- helpers for subclasses ----------------------------------------------------
    def _reject(self, operation: str) -> UnsupportedOperationError:
        return UnsupportedOperationError(
            f"store {self.name!r} ({self.capabilities().data_model}) does not support {operation}"
        )

    @staticmethod
    def _apply_projection(
        rows: Iterable[Mapping[str, object]], projection: Sequence[str] | None
    ) -> list[dict[str, object]]:
        if projection is None:
            return [dict(row) for row in rows]
        return [{column: row.get(column) for column in projection} for row in rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"
