"""The simulated key-value store (Redis / Voldemort stand-in).

Collections map keys to values (plain collections) or to field/value hashes
(hash collections).  The defining property — central to the paper's encoding
of access-pattern restrictions — is that entries can only be retrieved **by
key**: scan requests without an equality predicate on the key are rejected,
which forces the rewriting engine and planner to produce key-feeding plans
(a keyed ``HashJoin`` looks up the left side's distinct keys, ``batch_size``
keys per request).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import AccessPatternViolation, DeltaError, KeyNotFoundError, StoreError
from repro.stores.base import (
    LookupRequest,
    ScanRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
    kept_rows,
)

__all__ = ["KeyValueStore"]


class KeyValueStore(Store):
    """An in-memory key-value DMS with a mandatory-key access pattern."""

    # Last-write-wins by key: append-only segments would replay superseded
    # puts (and hold ``{key, value}`` pairs, not the entry rows scans read).
    _segment_scans = False

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
        # Strict like every other store, and checked whole before anything
        # changes: a delete must match its stored entry exactly, and an
        # insert may not land on a key that stays live.
        deleted: set = set()
        for delete in deletes:
            key = delete.get(key_column)
            if key in deleted or key not in bucket:
                raise DeltaError(
                    f"collection {collection!r}: delete of key {key!r} matches no entry"
                )
            if bucket[key] != dict(delete):
                raise DeltaError(
                    f"collection {collection!r}: delete of {dict(delete)!r} does not "
                    f"match the stored entry {bucket[key]!r}"
                )
            deleted.add(key)
        inserted: set = set()
        for insert in inserts:
            key = insert.get(key_column)
            if key in inserted or (key in bucket and key not in deleted):
                raise DeltaError(
                    f"collection {collection!r}: insert under key {key!r} would "
                    "overwrite a live entry"
                )
            inserted.add(key)
        for key in deleted:
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

    # -- store interface -----------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="keyvalue",
            supports_scan=self._allow_scans,
            supports_selection=False,
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

    # -- execution (entries as rows; stores/base.py shapes them) -----------------------
    # An entry's row holds ``key`` (shadowing any same-named value field), the
    # fields of a hash value, or the scalar payload under ``value``.
    def _lookup_rows(self, request: LookupRequest):
        bucket = self._collection(request.collection)
        metrics = StoreMetrics(index_lookups=len(request.keys))
        rows = [self._entry_to_row(key, bucket[key]) for key in request.keys if key in bucket]
        return rows, metrics

    def _scan_rows(self, request: ScanRequest):
        pinned = next(
            (p.value for p in request.predicates if p.column == "key" and p.op == "="),
            _MISSING,
        )
        if pinned is not _MISSING:
            # A scan pinned to a key is a lookup, filtered by every predicate.
            rows, metrics = self._lookup_rows(LookupRequest(request.collection, (pinned,)))
        elif not self._allow_scans:
            raise AccessPatternViolation(
                f"key-value store {self.name!r} requires the key to be bound; "
                f"cannot scan collection {request.collection!r}"
            )
        else:
            bucket = self._collection(request.collection)
            metrics = StoreMetrics(rows_scanned=len(bucket))
            rows = (self._entry_to_row(key, value) for key, value in bucket.items())
        return kept_rows(rows, request.predicates, self._reader_of, request.limit), metrics

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
