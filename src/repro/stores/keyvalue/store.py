"""The simulated key-value store (Redis / Voldemort stand-in).

Collections map keys to values (plain values) or to field/value hashes
(mapping values).  The defining property — central to the paper's encoding
of access-pattern restrictions — is that entries can only be retrieved **by
key**: scan requests without an equality predicate on the key are rejected,
which forces the rewriting engine and planner to produce key-feeding plans
(a keyed ``HashJoin`` looks up the left side's distinct keys, ``batch_size``
keys per request).

Entries live in :class:`~repro.stores.heap.HeapStore`, one native row
``{"key": key, "value": value}`` each, unique on ``key``: writes, durability,
folds and statistics are those of every other leaf store.  An entry reads as
a row holding ``key``, the fields of a hash value, or a scalar value under
``value``.  :meth:`KeyValueStore.put` overwrites (last write wins) with one
delta that deletes the live entry and inserts the new one; ``insert`` and
``apply_delta`` take plain field rows, keyed by the key column the
collection was created with, and are as strict as every other store's.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import AccessPatternViolation, DeltaError, KeyNotFoundError, StoreError
from repro.stores.base import ScanRequest, StoreCapabilities
from repro.stores.heap import HeapStore, RowHeap

__all__ = ["KeyValueStore"]


def _read_value(entry: Mapping[str, object], column: str) -> object:
    """A column other than ``key``: a hash value's field, else the scalar ``value``."""
    value = entry["value"]
    if type(value) is dict or isinstance(value, Mapping):  # the ABC check is slow
        return value.get(column)
    return value if column == "value" else None


class KeyValueStore(HeapStore):
    """An in-memory key-value DMS with a mandatory-key access pattern."""

    # A delta inserting under a live key would silently overwrite it.
    _duplicate_key = DeltaError

    def __init__(
        self, name: str = "keyvalue", allow_scans: bool = False, latency: float = 0.0
    ) -> None:
        super().__init__(name, latency=latency)
        # Some deployments (e.g. a debugging console) allow full scans; the
        # default mirrors the paper's restriction.
        self._allow_scans = allow_scans

    # -- native API ------------------------------------------------------------------
    def create_collection(self, name: str, key_column: str | None = None) -> None:
        """Create an empty collection (idempotent).

        ``key_column`` names the field of a written row that is its key:
        :meth:`insert` and :meth:`apply_delta` store each row as the value
        under that field's value.
        """
        if name not in self._heaps:
            self._create(name, {"key_column": key_column})

    def put(self, collection: str, key: object, value: object) -> None:
        """Store ``value`` under ``key``."""
        self.put_many(collection, {key: value})

    def put_many(self, collection: str, entries: Mapping[object, object]) -> int:
        """Store several entries, replacing live ones; returns how many were written."""
        self.create_collection(collection)
        heap = self.rows(collection)
        live = (heap.key_position((key,)) for key in entries)
        self._write(
            collection,
            [{"key": key, "value": value} for key, value in entries.items()],
            [heap.at(position) for position in live if position is not None],
        )
        return len(entries)

    def get(self, collection: str, key: object, missing_ok: bool = True) -> object | None:
        """Retrieve the value stored under ``key``."""
        heap = self.rows(collection)
        position = heap.key_position((key,))
        if position is not None:
            return heap.at(position)["value"]
        if missing_ok:
            return None
        raise KeyNotFoundError(f"key {key!r} not found in {collection!r}")

    def mget(self, collection: str, keys: Iterable[object]) -> list[object | None]:
        """Retrieve several keys at once (missing keys yield None)."""
        return [self.get(collection, key) for key in keys]

    def delete(self, collection: str, key: object) -> bool:
        """Delete a key; returns True when it existed."""
        heap = self.rows(collection)
        position = heap.key_position((key,))
        if position is not None:
            self._write(collection, [], [heap.at(position)])
        return position is not None

    def keys(self, collection: str) -> Sequence[object]:
        """All keys of a collection (administrative operation, not a query path)."""
        return tuple(entry["key"] for entry in self.rows(collection))

    # -- what a key-value collection refines -----------------------------------------------
    def _stored(
        self, collection: str, rows: Iterable[Mapping[str, object]]
    ) -> list[dict[str, object]]:
        """Field rows as entries: each row is the value under its key column."""
        column = self._meta[collection].get("key_column")
        if column is None:
            raise StoreError(
                f"collection {collection!r} in store {self.name!r} has no declared "
                "key column; cannot write rows"
            )
        return [{"key": row.get(column), "value": row} for row in super()._stored(collection, rows)]

    def _new_heap(self, collection: str) -> RowHeap:
        return RowHeap(self._reader_of, key=("key",))

    @staticmethod
    def _reader_of(column: str):
        """``key`` is the entry's own field; any other column is read off its value."""
        return dict.get if column == "key" else _read_value

    def _lookup_column(self, collection: str) -> str:
        return "key"

    def _scan_candidates(self, request: ScanRequest):
        """A scan not pinned to a key is refused unless scans are allowed."""
        pinned = any(p.column == "key" and p.op == "=" for p in request.predicates)
        if not (pinned or self._allow_scans):
            raise AccessPatternViolation(
                f"key-value store {self.name!r} requires the key to be bound; "
                f"cannot scan collection {request.collection!r}"
            )
        return super()._scan_candidates(request)

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
