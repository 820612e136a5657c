"""The simulated key-value store (Redis / Voldemort stand-in).

Collections map keys to values (plain collections) or to field/value hashes
(hash collections).  The defining property — central to the paper's encoding
of access-pattern restrictions — is that entries can only be retrieved **by
key**: scan requests without an equality predicate on the key are rejected,
which forces the rewriting engine and planner to produce key-feeding
(BindJoin) plans.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import (
    AccessPatternViolation,
    DeltaError,
    KeyNotFoundError,
    StoreError,
    UnsupportedOperationError,
)
from repro.stores.base import (
    JoinRequest,
    batch_tuples,
    LookupRequest,
    ScanRequest,
    SearchRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
    StoreRequest,
    StoreResult,
)

__all__ = ["KeyValueStore"]


class KeyValueStore(Store):
    """An in-memory key-value DMS with a mandatory-key access pattern."""

    def __init__(
        self, name: str = "keyvalue", allow_scans: bool = False, latency: float = 0.0
    ) -> None:
        super().__init__(name, latency=latency)
        self._collections: dict[str, dict[object, object]] = {}
        self._key_columns: dict[str, str] = {}
        # Some deployments (e.g. a debugging console) allow full scans; the
        # default mirrors the paper's restriction.
        self._allow_scans = allow_scans

    # -- native API ------------------------------------------------------------------
    def create_collection(self, name: str) -> None:
        """Create an empty collection (idempotent)."""
        if name not in self._collections:
            self._collections[name] = {}
            self._durable_log({"kind": "create", "collection": name, "columns": None})

    def put(self, collection: str, key: object, value: object) -> None:
        """Store ``value`` under ``key``."""
        self._collections.setdefault(collection, {})[key] = value
        self._durable_log(
            {"kind": "put", "collection": collection, "entries": [[key, value]]}
        )

    def put_many(self, collection: str, entries: Mapping[object, object]) -> int:
        """Store several entries; returns how many were written."""
        bucket = self._collections.setdefault(collection, {})
        bucket.update(entries)
        if entries:
            self._durable_log(
                {
                    "kind": "put",
                    "collection": collection,
                    "entries": [[key, value] for key, value in entries.items()],
                }
            )
        return len(entries)

    def get(self, collection: str, key: object, missing_ok: bool = True) -> object | None:
        """Retrieve the value stored under ``key``."""
        bucket = self._collection(collection)
        if key not in bucket:
            if missing_ok:
                return None
            raise KeyNotFoundError(f"key {key!r} not found in {collection!r}")
        return bucket[key]

    def mget(self, collection: str, keys: Iterable[object]) -> list[object | None]:
        """Retrieve several keys at once (missing keys yield None)."""
        bucket = self._collection(collection)
        return [bucket.get(key) for key in keys]

    def delete(self, collection: str, key: object) -> bool:
        """Delete a key; returns True when it existed."""
        bucket = self._collection(collection)
        existed = bucket.pop(key, _MISSING) is not _MISSING
        if existed:
            self._durable_log(
                {"kind": "delete_keys", "collection": collection, "keys": [key]}
            )
        return existed

    def keys(self, collection: str) -> Sequence[object]:
        """All keys of a collection (administrative operation, not a query path)."""
        return tuple(self._collection(collection))

    def _collection(self, name: str) -> dict[object, object]:
        bucket = self._collections.get(name)
        if bucket is None:
            raise StoreError(f"collection {name!r} does not exist in store {self.name!r}")
        return bucket

    # -- write path ----------------------------------------------------------------------
    def set_key_column(self, collection: str, column: str) -> None:
        """Declare which field of a row dict is the collection's key.

        Key-value entries are addressed by key, but delta rows arrive as
        plain field dicts; the materialization path records the key column
        here so :meth:`apply_delta` can route them.
        """
        self._key_columns[collection] = column
        self._durable_log(
            {"kind": "key_column", "collection": collection, "column": column}
        )

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        bucket = self._collection(collection)
        key_column = self._key_columns.get(collection)
        if key_column is None:
            raise StoreError(
                f"collection {collection!r} in store {self.name!r} has no declared "
                f"key column; cannot apply a delta"
            )
        for delete in deletes:
            key = delete.get(key_column)
            if key not in bucket:
                raise DeltaError(
                    f"collection {collection!r}: delete of key {key!r} matches no entry"
                )
            del bucket[key]
        for insert in inserts:
            # Keep the key inside the value, matching the materialization path.
            bucket[insert.get(key_column)] = dict(insert)
        if deletes or inserts:
            self._durable_log(
                {
                    "kind": "delta",
                    "collection": collection,
                    "inserts": [dict(insert) for insert in inserts],
                    "deletes": [dict(delete) for delete in deletes],
                }
            )
        return len(deletes) + len(inserts)

    def truncate_collection(self, collection: str) -> None:
        self._collection(collection).clear()
        self._durable_log({"kind": "truncate", "collection": collection})

    # -- durability hooks --------------------------------------------------------
    def _durable_replay(self, record: Mapping[str, object]) -> None:
        kind = record.get("kind")
        collection = record.get("collection")
        if kind == "create":
            self.create_collection(collection)
        elif kind == "key_column":
            self.set_key_column(collection, record["column"])
        elif kind == "put":
            bucket = self._collections.setdefault(collection, {})
            for key, value in record["entries"]:
                bucket[key] = value
        elif kind == "rows":
            # Compacted generations dump entries as {key, value} rows.
            bucket = self._collections.setdefault(collection, {})
            for row in record["rows"]:
                bucket[row["key"]] = row["value"]
        elif kind == "delete_keys":
            bucket = self._collections.setdefault(collection, {})
            for key in record["keys"]:
                bucket.pop(key, None)
        elif kind == "delta":
            self.apply_delta(
                collection,
                inserts=record.get("inserts", ()),
                deletes=record.get("deletes", ()),
            )
        elif kind == "truncate":
            if collection in self._collections:
                self.truncate_collection(collection)
        elif kind == "drop":
            self._collections.pop(collection, None)
            self._key_columns.pop(collection, None)

    def _durable_dump(self) -> Mapping[str, Mapping[str, object]]:
        dump: dict[str, Mapping[str, object]] = {}
        for name, bucket in self._collections.items():
            meta: dict[str, object] = {}
            key_column = self._key_columns.get(name)
            if key_column is not None:
                meta["key_column"] = key_column
            dump[name] = {
                "columns": None,
                "meta": meta,
                "rows": [{"key": key, "value": value} for key, value in bucket.items()],
            }
        return dump

    def _durable_scan_source(self, request: StoreRequest):
        # Key-value semantics are last-write-wins by key; append-only segments
        # would replay superseded puts, so scans never serve from the backing.
        return None

    def segment_scan_fraction(self, collection: str, bounds) -> float | None:
        # Scans never serve from segments here (see _durable_scan_source), so
        # the cost model must not price them as if pruning applied.
        return None

    # -- store interface -----------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="keyvalue",
            supports_scan=self._allow_scans,
            supports_selection=False,
            supports_projection=True,
            supports_join=False,
            supports_aggregation=False,
            supports_key_lookup=True,
            requires_key_lookup=not self._allow_scans,
            supports_text_search=False,
            supports_nested_results=False,
            parallel=False,
        )

    def collections(self) -> Sequence[str]:
        return tuple(self._collections)

    def collection_size(self, collection: str) -> int:
        return len(self._collection(collection))

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        bucket = self._collection(collection)
        if column == "key":
            return {"count": len(bucket), "distinct": len(bucket), "indexed": True}
        distinct = set()
        for value in bucket.values():
            if isinstance(value, Mapping):
                field_value = value.get(column)
            else:
                field_value = value if column == "value" else None
            distinct.add(repr(field_value))
        return {"count": len(bucket), "distinct": len(distinct), "indexed": False}

    # -- execution --------------------------------------------------------------------------
    def _execute(self, request: StoreRequest) -> StoreResult:
        if isinstance(request, LookupRequest):
            return self._execute_lookup(request)
        if isinstance(request, ScanRequest):
            return self._execute_scan(request)
        if isinstance(request, JoinRequest):
            raise self._reject("joins")
        if isinstance(request, SearchRequest):
            raise self._reject("full-text search")
        raise UnsupportedOperationError(f"unknown request type {type(request).__name__}")

    def _execute_batches(self, request: StoreRequest, columns, batch_size: int):
        """Native batch lookups: tuples built straight from the stored entries.

        Point lookups are this store's entire query surface, so they get the
        native path (no ``_entry_to_row`` dict per hit, no projection copy);
        scans — rare, debugging-console deployments only — fall back to the
        dict adapter.  Column semantics match :meth:`_entry_to_row`: ``key``
        is the lookup key (shadowing any same-named value field), hash fields
        come from the stored mapping, and ``value`` is the scalar payload.
        """
        if not isinstance(request, LookupRequest):
            return super()._execute_batches(request, columns, batch_size)
        bucket = self._collection(request.collection)
        metrics = StoreMetrics()
        wanted = tuple(columns)
        rows: list[tuple] = []
        for key in request.keys:
            metrics.index_lookups += 1
            if key not in bucket:
                continue
            value = bucket[key]
            if isinstance(value, Mapping):
                rows.append(
                    tuple(key if c == "key" else value.get(c) for c in wanted)
                )
            else:
                rows.append(
                    tuple(
                        key if c == "key" else (value if c == "value" else None)
                        for c in wanted
                    )
                )

        return batch_tuples(iter(rows), wanted, batch_size), metrics

    def _execute_lookup(self, request: LookupRequest) -> StoreResult:
        bucket = self._collection(request.collection)
        metrics = StoreMetrics()
        rows: list[dict[str, object]] = []
        for key in request.keys:
            metrics.index_lookups += 1
            if key not in bucket:
                continue
            rows.append(self._entry_to_row(key, bucket[key]))
        return StoreResult(rows=self._apply_projection(rows, request.projection), metrics=metrics)

    def _execute_scan(self, request: ScanRequest) -> StoreResult:
        key_values = [
            predicate.value
            for predicate in request.predicates
            if predicate.column == "key" and predicate.op == "="
        ]
        if key_values:
            # A scan pinned to specific key(s) is really a lookup.
            lookup = LookupRequest(
                collection=request.collection,
                keys=tuple(key_values),
                projection=request.projection,
            )
            result = self._execute_lookup(lookup)
            result.rows = [
                row
                for row in result.rows
                if all(p.evaluate(row) for p in request.predicates if p.column != "key")
            ]
            return result
        if not self._allow_scans:
            raise AccessPatternViolation(
                f"key-value store {self.name!r} requires the key to be bound; "
                f"cannot scan collection {request.collection!r}"
            )
        bucket = self._collection(request.collection)
        metrics = StoreMetrics(rows_scanned=len(bucket))
        rows = [self._entry_to_row(key, value) for key, value in bucket.items()]
        rows = [row for row in rows if all(p.evaluate(row) for p in request.predicates)]
        if request.limit is not None:
            rows = rows[: request.limit]
        return StoreResult(rows=self._apply_projection(rows, request.projection), metrics=metrics)

    @staticmethod
    def _entry_to_row(key: object, value: object) -> dict[str, object]:
        if isinstance(value, Mapping):
            row = dict(value)
            row["key"] = key
            return row
        return {"key": key, "value": value}


class _Missing:
    """Sentinel distinguishing "absent" from "stored None"."""


_MISSING = _Missing()
