"""The sharded multi-instance store: one logical store over N homogeneous shards.

A :class:`ShardedStore` routes requests for a collection across ``N`` child
stores of the same kind (N simulated Postgres instances, N document stores,
...).  Each collection is spread according to a
:class:`~repro.stores.sharding.ShardingSpec` — hash or range on a shard-key
column — registered when the collection is materialized.

The router serves the common store-request micro-IR:

* **scans** are pruned first: predicates on the shard-key column cut the set
  of child stores that can hold matching rows (equality → one shard under
  either strategy, ``in`` → the shards its keys route to, range operators →
  a boundary interval under range sharding), and only the surviving shards
  are contacted;
* a key set — a lookup's keys or a shard-key ``in`` — is grouped by shard:
  each contacted shard gets one request carrying only its own keys;
* per-request metrics report ``partitions_used`` (shards contacted) and
  ``partitions_pruned`` so the mediator can surface pruning effectiveness.

The routing loop forwards each contacted child's own batch stream, and
rows are routed to shards by the shards' own column reader.

Executing through the router is *serial* — each contacted shard is queried in
turn, paying the sum of the child latencies.  The physical planner therefore
fans unpruned scans out as one delegated request **per shard**, each wrapped
in an :class:`~repro.runtime.parallel.Exchange`, so the scatter-gather
executor overlaps the shard requests and the query pays roughly the max; the
per-shard child stores are exposed via :meth:`shard` for exactly that.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import replace
from typing import Callable

from repro.errors import (
    DeltaError,
    PartialWriteError,
    SchemaError,
    StoreError,
    UnsupportedOperationError,
)
from repro.stores.base import (
    JoinRequest,
    Predicate,
    ScanRequest,
    SearchRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
    StoreRequest,
)
from repro.stores.segment import DurableBacking
from repro.stores.sharding import ShardingSpec

__all__ = ["ShardedStore"]


class ShardedStore(Store):
    """A router spreading collections across homogeneous child stores."""

    def __init__(self, name: str, shards: Sequence[Store], latency: float = 0.0) -> None:
        super().__init__(name, latency=latency)
        if not shards:
            raise StoreError("a sharded store needs at least one shard")
        kinds = {shard.capabilities().data_model for shard in shards}
        if len(kinds) > 1:
            raise StoreError(f"shards must be homogeneous, got data models {sorted(kinds)}")
        self._shards: tuple[Store, ...] = tuple(shards)
        self._specs: dict[str, ShardingSpec] = {}

    @classmethod
    def homogeneous(
        cls,
        name: str,
        shards: int,
        factory: Callable[[str], Store],
        latency: float = 0.0,
    ) -> "ShardedStore":
        """Build a router over ``shards`` children created by ``factory(name)``."""
        if shards < 1:
            raise StoreError("a sharded store needs at least one shard")
        children = [factory(f"{name}.{index}") for index in range(shards)]
        return cls(name, children, latency=latency)

    # -- topology ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of child store instances."""
        return len(self._shards)

    def shard(self, index: int) -> Store:
        """The child store holding shard ``index``."""
        if not 0 <= index < len(self._shards):
            raise StoreError(f"store {self.name!r} has no shard {index}")
        return self._shards[index]

    def shard_stores(self) -> tuple[Store, ...]:
        """All child stores, in shard order."""
        return self._shards

    def set_sharding(self, collection: str, spec: ShardingSpec) -> None:
        """Register how ``collection`` is spread (store-side shard-key name)."""
        if spec.shards != len(self._shards):
            raise StoreError(
                f"spec shards {spec.shards} does not match store {self.name!r} "
                f"with {len(self._shards)} shards"
            )
        self._specs[collection] = spec

    def sharding(self, collection: str) -> ShardingSpec | None:
        """The sharding spec of ``collection`` (None when never registered)."""
        return self._specs.get(collection)

    def shard_sizes(self, collection: str) -> tuple[int, ...]:
        """Row count of ``collection`` per shard (0 where absent)."""
        sizes = []
        for child in self._shards:
            if collection in child.collections():
                sizes.append(child.collection_size(collection))
            else:
                sizes.append(0)
        return tuple(sizes)

    def describe_sharding(self) -> Mapping[str, object]:
        """JSON-friendly per-collection sharding summary."""
        return {
            collection: {**spec.describe(), "shard_sizes": list(self.shard_sizes(collection))}
            for collection, spec in self._specs.items()
        }

    # -- data loading ---------------------------------------------------------------
    def insert(self, collection: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Route ``rows`` to their shards and insert via the children.

        The collection must have a sharding spec and the children must expose
        an ``insert(collection, rows)`` API (relational / document / parallel
        stores do); the per-shard collections must already exist — the
        materialization path creates them.
        """
        spec = self._specs.get(collection)
        if spec is None:
            raise StoreError(
                f"collection {collection!r} has no sharding spec in store {self.name!r}"
            )
        grouped = self._route_rows(spec, list(rows))
        written = 0
        for index, shard_rows in grouped.items():
            child = self._shards[index]
            inserter = getattr(child, "insert", None)
            if inserter is None:
                raise UnsupportedOperationError(
                    f"shard store {child.name!r} has no insert API; materialize instead"
                )
            written += inserter(collection, shard_rows)
        return written

    def create_index(self, collection: str, column: str) -> None:
        """Create a per-shard index on ``column`` where children support it."""
        for child in self._shards:
            indexer = getattr(child, "create_index", None)
            if indexer is not None and collection in child.collections():
                indexer(collection, column)

    # -- write path -----------------------------------------------------------------
    def _route_rows(
        self, spec: ShardingSpec, rows: Sequence[Mapping[str, object]]
    ) -> dict[int, list[dict[str, object]]]:
        """Group rows by owning shard via the spec's :func:`stable_hash` routing.

        The same ``spec.route`` call the planner's shard pruning and the bulk
        :meth:`insert` path use — never a per-call hash — so a written row is
        always found again by a pruned scan on its key.
        """
        read = self._shards[0]._reader_of(spec.shard_key)  # the shards' column reader
        grouped: dict[int, list[dict[str, object]]] = {}
        for row in rows:
            if not isinstance(row, Mapping):
                raise SchemaError("sharded store rows must be mappings")
            grouped.setdefault(spec.route(read(row, spec.shard_key)), []).append(dict(row))
        return grouped

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        """Route a delta shard by shard; roll back on a partial failure.

        Each affected shard receives its slice of the deletes and inserts in
        one child ``apply_delta`` call.  If a child fails after others
        succeeded, the successful children get the *inverse* delta applied,
        so no reader ever observes a half-written fragment; the failure is
        re-raised as :class:`~repro.errors.PartialWriteError`.
        """
        spec = self._specs.get(collection)
        if spec is None:
            raise StoreError(
                f"collection {collection!r} has no sharding spec in store {self.name!r}"
            )
        grouped_inserts = self._route_rows(spec, inserts)
        grouped_deletes = self._route_rows(spec, deletes)
        touched = 0
        applied: list[int] = []
        for index in sorted(set(grouped_inserts) | set(grouped_deletes)):
            child = self._shards[index]
            try:
                touched += child.apply_delta(
                    collection,
                    inserts=grouped_inserts.get(index, ()),
                    deletes=grouped_deletes.get(index, ()),
                )
            except (StoreError, DeltaError) as error:
                rolled_back = True
                for done in applied:
                    try:
                        self._shards[done].apply_delta(
                            collection,
                            inserts=grouped_deletes.get(done, ()),
                            deletes=grouped_inserts.get(done, ()),
                        )
                    except (StoreError, DeltaError):
                        rolled_back = False
                raise PartialWriteError(
                    f"delta to collection {collection!r} failed on shard {index} "
                    f"of store {self.name!r}: {error}",
                    failed_children=(child.name,),
                    rolled_back=rolled_back,
                ) from error
            applied.append(index)
        return touched

    def truncate_collection(self, collection: str) -> None:
        self._check_collection(collection)
        for child in self._shards:
            if collection in child.collections():
                child.truncate_collection(collection)

    # -- durable fan-out ----------------------------------------------------------------
    def attach_durable(self, backing) -> None:
        """Give every shard its own backing subdirectory (``shard-<i>``).

        The router never logs records itself — all writes go through the
        children, whose own write paths log — so the parent backing is only
        a directory namespace plus the handle ``durable_backing`` reports.
        """
        if self._durable is not None:
            raise StoreError(f"store {self.name!r} already has a durable backing")
        for index, child in enumerate(self._shards):
            child.attach_durable(backing.child(f"shard-{index}"))
        self._durable = backing

    def compact_durable(self):
        return DurableBacking.merged_report(child.compact_durable() for child in self._shards)

    def segment_scan_fraction(self, collection: str, bounds) -> float | None:
        fractions = [
            fraction
            for fraction in (
                child.segment_scan_fraction(collection, bounds) for child in self._shards
            )
            if fraction is not None
        ]
        if not fractions:
            return None
        return sum(fractions) / len(fractions)

    # -- store interface ---------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        template = self._shards[0].capabilities()
        # Cross-shard joins and aggregations are the mediator's job (the
        # planner fans out per-shard requests and merges); advertising them
        # here would delegate work the router cannot combine correctly.
        return replace(
            template,
            name=self.name,
            supports_join=False,
            supports_aggregation=False,
            parallel=True,
        )

    def collections(self) -> Sequence[str]:
        seen: dict[str, None] = {}
        for child in self._shards:
            for collection in child.collections():
                seen.setdefault(collection, None)
        for collection in self._specs:
            seen.setdefault(collection, None)
        return tuple(seen)

    def collection_size(self, collection: str) -> int:
        return sum(self.shard_sizes(collection))

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        count = 0
        distinct = 0
        indexed = True
        contributing = 0
        for child in self._shards:
            if collection not in child.collections():
                continue
            contributing += 1
            stats = child.column_statistics(collection, column)
            count += int(stats.get("count", 0) or 0)
            distinct += int(stats.get("distinct", 0) or 0)
            indexed = indexed and bool(stats.get("indexed"))
        spec = self._specs.get(collection)
        # Summing per-shard distinct counts is exact for the shard-key column
        # (a value lives in exactly one shard) and an upper bound otherwise.
        if spec is None or spec.shard_key != column:
            distinct = min(distinct, count)
        return {
            "count": count,
            "distinct": distinct,
            "indexed": indexed and contributing > 0,
            "shards": len(self._shards),
            "sharded_on": bool(spec is not None and spec.shard_key == column),
        }

    # -- execution ---------------------------------------------------------------------
    def _execute_batches(self, request: StoreRequest, columns, batch_size: int):
        """The routing loop: forward each routed shard's batch stream, cut at the limit.

        Child streams pass through untouched (no row is repacked).  The
        contacted/pruned accounting is filled in when the loop ends,
        normally or abandoned (the batch wrapper reads the metrics only
        after closing this generator).
        """
        routes = self._routes(request)
        limit = getattr(request, "limit", None)
        wanted = tuple(columns)
        shards = self._shards
        metrics = StoreMetrics()

        def batches():
            contacted: set[int] = set()
            produced = 0
            try:
                for index, sub in routes:
                    child = shards[index]
                    if request.collection not in child.collections():
                        continue
                    contacted.add(index)
                    stream = child.execute_batches(sub, wanted, batch_size)
                    try:
                        for batch in stream:
                            if limit is not None and produced + len(batch) >= limit:
                                batch = batch.take(limit - produced)
                                if batch:
                                    yield batch
                                return
                            produced += len(batch)
                            yield batch
                    finally:
                        stream.close()
                        metrics.add(stream.metrics)
            finally:
                metrics.partitions_used = len(contacted)
                metrics.partitions_pruned = len(shards) - len(contacted)

        return batches(), metrics

    def _routes(self, request: StoreRequest) -> list[tuple[int, StoreRequest]]:
        """``(shard, child request)`` pairs that can hold the request's rows.

        Scans are pruned by their shard-key predicates; lookup keys are by
        contract values of the *shard-key* column (a ``LookupRequest``
        carries no column name, so there is nothing else to route by — the
        materialization path rejects lookup fragments keyed on any other
        column).  Either way a key set — a lookup's keys, or a shard-key
        ``in`` — is grouped by shard, and each contacted shard gets one
        request for its own keys.
        """
        if isinstance(request, JoinRequest):
            raise self._reject("store-side joins (the mediator joins shard results)")
        if isinstance(request, SearchRequest) and not self.capabilities().supports_text_search:
            raise self._reject("full-text search")
        self._check_collection(request.collection)
        spec = self._specs.get(request.collection)
        if isinstance(request, ScanRequest):
            if spec is None:
                return [(index, request) for index in range(len(self._shards))]
            constraints = [
                (predicate.op, predicate.value)
                for predicate in request.predicates
                if predicate.column == spec.shard_key
            ]
            # A shard-key `in` reaches each shard with only the keys routed
            # there (every contacted shard holds some key of every such set).
            key_sets = {
                predicate: _by_shard(spec, predicate.value)
                for predicate in request.predicates
                if predicate.column == spec.shard_key and predicate.op == "in"
            }
            routes: list[tuple[int, StoreRequest]] = []
            for index in spec.shards_for_predicates(constraints):
                predicates = tuple(
                    replace(p, value=frozenset(key_sets[p][index])) if p in key_sets else p
                    for p in request.predicates
                )
                routes.append((index, replace(request, predicates=predicates) if key_sets else request))
            return routes
        if isinstance(request, SearchRequest):
            return [(index, request) for index in range(len(self._shards))]
        if spec is None:
            raise StoreError(
                f"collection {request.collection!r} has no sharding spec; "
                "key lookups need one to route"
            )
        if self._shards[0].capabilities().requires_key_lookup:
            by_shard = _by_shard(spec, request.keys)
            return [(index, replace(request, keys=tuple(by_shard[index]))) for index in sorted(by_shard)]
        # Shards that scan get the keys as shard-key `in` scans, split as any
        # scan is; a scan matches a row once, so a key listed n times rides in n.
        routes = []
        pending = Counter(request.keys)
        while pending:
            in_keys = Predicate(spec.shard_key, "in", frozenset(pending))
            routes += self._routes(ScanRequest(request.collection, (in_keys,)))
            pending -= Counter(pending.keys())
        return routes

    def _check_collection(self, collection: str) -> None:
        if collection not in self.collections():
            raise StoreError(
                f"collection {collection!r} does not exist in store {self.name!r}"
            )

    def reset_metrics(self) -> None:
        """Zero the router's and every child's cumulative counters."""
        super().reset_metrics()
        for child in self._shards:
            child.reset_metrics()


def _by_shard(spec: ShardingSpec, keys: Iterable[object]) -> dict[int, list[object]]:
    """``keys`` grouped by the shard each routes to, in their given order."""
    by_shard: dict[int, list[object]] = {}
    for key in keys:
        by_shard.setdefault(spec.route(key), []).append(key)
    return by_shard
