"""The row-addressed heap every leaf store keeps its rows in, and the one
store built on it.

Rows live in one list and a row's position there is its id.  A delete leaves
a hole (``None``) instead of shifting the rows behind it, so positions stay
stable and every hash index is maintained per appended or deleted row — never
rebuilt per write.  Scans walk the live rows in insertion order, skipping the
holes (the shape of a cursor over a retraction-aware heap: retracted rows are
skipped, never re-laid-out); ``len()`` counts live rows only.

Once holes outnumber live rows the heap compacts itself: the live rows move
to the front (keeping their order) and every index position is remapped.
That is the heap's one amortized O(n) step, paid at most once per as many
deletes as there are live rows.

A strict bag delete (:meth:`RowHeap.locate`) finds each record's stored copy
through the primary key, else through the narrowest index bucket the record's
own values select, and walks the heap only when the heap has no index.

:class:`HeapStore` is every leaf store's common base — relational,
document, key-value, parallel and full-text: one heap per collection plus a
per-collection ``meta`` dict, and one implementation of collection
management, the write path (inserts, bag deltas, primary-key uniqueness,
truncation, indexes), durability (WAL records, replay, compaction dumps),
statistics, index-narrowed scans and key lookups.  Each
store adds only what differs: how a collection is declared, how rows are
stored and checked, how a column is read, and any side structure it keeps
current through the heap hooks.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial

from repro.errors import DeltaError, DurabilityError, SchemaError, StoreError
from repro.stores.base import LookupRequest, ScanRequest, Store, StoreMetrics, member

__all__ = ["HashIndex", "RowHeap", "HeapStore"]

_live = partial(operator.is_not, None)


@dataclass(slots=True)
class HashIndex:
    """A hash index on one column: value -> ascending positions of its rows.

    ``read(row, column)`` is how the column is read off a row.
    """

    column: str
    read: Callable[[Mapping[str, object], str], object]
    _buckets: dict[object, list[int]] = field(default_factory=dict)

    def add(self, value: object, position: int) -> None:
        """Index the row at ``position`` under ``value``."""
        self._buckets.setdefault(value, []).append(position)

    def discard(self, value: object, position: int) -> None:
        """Forget the row at ``position`` (indexed under ``value``)."""
        bucket = self._buckets[value]
        if len(bucket) == 1:
            del self._buckets[value]
        else:
            bucket.remove(position)

    def lookup(self, value: object) -> Sequence[int]:
        """Row positions whose indexed column equals ``value``."""
        return self._buckets.get(value, ())

    def distinct_count(self) -> int:
        """Number of distinct indexed values."""
        return len(self._buckets)

    def remap(self, moved: Sequence[int]) -> None:
        """Rewrite every position ``p`` as ``moved[p]`` (order is preserved)."""
        for bucket in self._buckets.values():
            bucket[:] = [moved[position] for position in bucket]


class RowHeap:
    """Rows addressed by position, with hash indexes kept per appended/deleted row.

    ``reader_of(column)`` is how an indexed column is read off a row (the
    owning store's column reader, giving ``read(row, column)``).  ``key``
    names primary-key columns whose value tuple is unique and maps straight
    to a position.  ``on_compact(moved)`` is told of every
    compaction, with ``moved[old position]`` the row's new position (-1 for
    a hole), so an owner keeping its own position-keyed structures can
    follow.
    """

    __slots__ = ("_slots", "_holes", "_reader_of", "_indexes", "_key", "_primary", "_on_compact")

    def __init__(
        self,
        reader_of: Callable[[str], Callable],
        key: Sequence[str] = (),
        on_compact: Callable[[Sequence[int]], None] | None = None,
    ) -> None:
        self._slots: list[dict[str, object] | None] = []
        self._holes = 0
        self._reader_of = reader_of
        self._indexes: dict[str, HashIndex] = {}
        self._key = tuple(key)
        self._primary: dict[tuple, int] = {}
        self._on_compact = on_compact

    # -- reading ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots) - self._holes

    def __iter__(self) -> Iterator[dict[str, object]]:
        """The live rows in insertion order."""
        slots = self._slots
        return iter(slots) if not self._holes else filter(_live, slots)

    @property
    def holes(self) -> int:
        """Deleted positions not yet reclaimed by a compaction."""
        return self._holes

    def at(self, position: int) -> dict[str, object]:
        """The row stored at ``position``."""
        return self._slots[position]

    def positions(self) -> list[int]:
        """The positions of the live rows, in insertion order."""
        return [position for position, row in enumerate(self._slots) if row is not None]

    def rows_at(self, positions: Iterable[int]) -> list[dict[str, object]]:
        """The rows stored at ``positions``, in that order."""
        slots = self._slots
        return [slots[position] for position in positions]

    @property
    def key(self) -> tuple[str, ...]:
        """The primary-key columns (empty when the heap has no key)."""
        return self._key

    def key_position(self, key: tuple) -> int | None:
        """Position of the row whose primary-key values are ``key``."""
        return self._primary.get(key)

    # -- indexes ---------------------------------------------------------------
    def add_index(self, column: str) -> HashIndex:
        """Create (or return the existing) hash index on ``column``."""
        index = self._indexes.get(column)
        if index is None:
            index = HashIndex(column, self._reader_of(column))
            read = index.read
            for position, row in enumerate(self._slots):
                if row is not None:
                    index.add(read(row, column), position)
            self._indexes[column] = index
        return index

    def index_on(self, column: str) -> HashIndex | None:
        """The index on ``column`` if one exists."""
        return self._indexes.get(column)

    def indexes(self) -> Mapping[str, HashIndex]:
        """All indexes by column."""
        return dict(self._indexes)

    # -- writing ---------------------------------------------------------------
    def append(self, row: dict[str, object]) -> int:
        """Store ``row`` (the heap keeps the object itself); returns its position."""
        position = len(self._slots)
        self._slots.append(row)
        if self._key:
            self._primary[tuple(row[column] for column in self._key)] = position
        for column, index in self._indexes.items():
            index.add(index.read(row, column), position)
        return position

    def locate(self, records: Iterable[Mapping[str, object]], owner: str) -> list[int]:
        """One distinct live position per record, holding a row equal to it.

        Strict bag semantics: a record with no remaining equal row raises
        :class:`~repro.errors.DeltaError` (naming ``owner``) before anything
        is deleted, so a refused delta leaves the heap unchanged.
        """
        taken: set[int] = set()
        positions: list[int] = []
        for record in map(dict, records):  # any Mapping compares like a stored dict
            position = self._find(record, taken)
            if position is None:
                raise DeltaError(f"{owner}: delete of {record!r} matches no stored row")
            taken.add(position)
            positions.append(position)
        return positions

    def _find(self, record: dict[str, object], taken: set[int]) -> int | None:
        slots = self._slots
        if self._key:
            try:
                position = self._primary.get(tuple(record[column] for column in self._key))
            except KeyError:
                return None
            if position is None or position in taken or slots[position] != record:
                return None
            return position
        candidates: Sequence[int] | None = None
        for column, index in self._indexes.items():
            value = index.read(record, column)
            try:
                bucket = index.lookup(value)
            except TypeError:  # an unhashable value was never indexed
                return None
            if candidates is None or len(bucket) < len(candidates):
                candidates = bucket
        if candidates is not None:
            for position in candidates:
                if position not in taken and slots[position] == record:
                    return position
            return None
        # No index: ``list.index`` compares in C (a hole never equals a row).
        start = 0
        while True:
            try:
                position = slots.index(record, start)
            except ValueError:
                return None
            if position not in taken:
                return position
            start = position + 1

    def delete(self, positions: Iterable[int]) -> list[dict[str, object]]:
        """Turn ``positions`` (from :meth:`locate`) into holes; returns their rows.

        Compacts the heap afterwards when holes outnumber live rows.
        """
        slots = self._slots
        removed: list[dict[str, object]] = []
        for position in positions:
            row = slots[position]
            slots[position] = None
            removed.append(row)
            if self._key:
                del self._primary[tuple(row[column] for column in self._key)]
            for column, index in self._indexes.items():
                index.discard(index.read(row, column), position)
        self._holes += len(removed)
        if self._holes > len(self):
            self._compact()
        return removed

    def _compact(self) -> None:
        """Move the live rows to the front, in order, and remap every position."""
        moved = [-1] * len(self._slots)
        live: list[dict[str, object]] = []
        for position, row in enumerate(self._slots):
            if row is not None:
                moved[position] = len(live)
                live.append(row)
        self._slots = live
        self._holes = 0
        self._primary = {key: moved[position] for key, position in self._primary.items()}
        for index in self._indexes.values():
            index.remap(moved)
        if self._on_compact is not None:
            self._on_compact(moved)


class HeapStore(Store):
    """A leaf store keeping each collection in one :class:`RowHeap`.

    ``meta`` is what a collection was declared with (a store's create verb
    fills it in); the keys read here are ``columns`` (the declared columns:
    rows are checked against them and persisted in their order; none means
    ragged rows) and ``primary_key`` (the heap's unique key).  The durable
    ``create`` record carries ``meta`` whole, so recovery rebuilds a
    collection exactly as it was declared.

    A subclass supplies its create verb and, where it differs from the
    default, :meth:`_stored` (the stored form of written rows),
    :meth:`_check_inserts` (refusing rows before anything is written),
    :meth:`_lookup_column`, :meth:`_new_heap`, and the two heap hooks
    :meth:`_rows_added` / :meth:`_rows_removed` through which it keeps a
    position-keyed side structure current.
    """

    _noun = "collection"  # how error messages name a collection
    _duplicate_key: type[Exception] = StoreError  # raised for a primary key held twice

    def __init__(self, name: str, latency: float = 0.0) -> None:
        super().__init__(name, latency=latency)
        self._heaps: dict[str, RowHeap] = {}
        self._meta: dict[str, dict[str, object]] = {}

    # -- collections ---------------------------------------------------------------
    def _create(self, collection: str, meta: Mapping[str, object]) -> None:
        """Declare an empty collection (an existing one raises)."""
        if collection in self._heaps:
            raise StoreError(
                f"{self._noun} {collection!r} already exists in store {self.name!r}"
            )
        self._meta[collection] = dict(meta)
        self._heaps[collection] = self._new_heap(collection)
        self._durable_log(
            {
                "kind": "create",
                "collection": collection,
                "columns": meta.get("columns"),
                "meta": dict(meta),
            }
        )

    def drop_collection(self, collection: str) -> None:
        """Drop a collection and its indexes (a missing one raises)."""
        self.rows(collection)  # raises when missing
        del self._heaps[collection], self._meta[collection]
        self._durable_log({"kind": "drop", "collection": collection})

    def rows(self, collection: str) -> RowHeap:
        """The collection's heap: its live rows in insertion order (do not mutate)."""
        heap = self._heaps.get(collection)
        if heap is None:
            raise StoreError(
                f"{self._noun} {collection!r} does not exist in store {self.name!r}"
            )
        return heap

    def collections(self) -> Sequence[str]:
        return tuple(self._heaps)

    def collection_size(self, collection: str) -> int:
        return len(self.rows(collection))

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        heap = self.rows(collection)
        self._check_column(collection, column)
        index = heap.index_on(column)
        keyed = heap.key == (column,)  # a one-column primary key: unique, hashed
        if keyed:
            distinct = len(heap)
        elif index is not None:
            distinct = index.distinct_count()
        else:
            read = self._reader_of(column)
            try:
                distinct = len({read(row, column) for row in heap})
            except TypeError:  # nested values: count them by their text
                distinct = len({repr(read(row, column)) for row in heap})
        return {"count": len(heap), "distinct": distinct, "indexed": keyed or index is not None}

    def _check_column(self, collection: str, column: str) -> None:
        columns = self._meta[collection].get("columns")
        if columns is not None and column not in columns:
            raise SchemaError(f"{self._noun} {collection!r} has no column {column!r}")

    # -- writes ----------------------------------------------------------------------
    def insert(self, collection: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Append rows to a collection; returns how many were stored."""
        return self._write(collection, self._stored(collection, rows), [])

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        return self._write(
            collection, self._stored(collection, inserts), self._stored(collection, deletes)
        )

    def replace_rows(self, collection: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Swap ``rows`` in for every live row of a collection, as one delta.

        A refused write (a primary key held twice among ``rows``, say)
        leaves the collection as it was.  Returns the rows touched.
        """
        heap = self.rows(collection)
        return self._apply(collection, heap, self._stored(collection, rows), heap.positions())

    def _write(
        self, collection: str, added: list[dict[str, object]], deletes: list[dict[str, object]]
    ) -> int:
        """Delete one stored row equal to each of ``deletes``, then append
        ``added``; both are in stored form.  Returns the rows touched."""
        heap = self.rows(collection)
        positions = heap.locate(deletes, f"{self._noun} {collection!r}")
        return self._apply(collection, heap, added, positions)

    def _apply(
        self, collection: str, heap: RowHeap, added: list[dict[str, object]], positions: list[int]
    ) -> int:
        """Delete the rows at ``positions``, then append ``added`` (stored form)."""
        # Every delete was located and every insert is checked before
        # anything changes, so a refused write leaves the collection as it was.
        self._check_inserts(collection, heap, added, positions)
        removed: list[dict[str, object]] = []
        if positions:
            self._rows_removed(collection, heap, positions)
            removed = heap.delete(positions)
        self._append(collection, heap, added)
        if removed:
            self._durable_log(
                {"kind": "delta", "collection": collection, "inserts": added, "deletes": removed}
            )
        elif added:
            self._durable_log({"kind": "rows", "collection": collection, "rows": added})
        return len(removed) + len(added)

    def _append(self, collection: str, heap: RowHeap, rows: list[dict[str, object]]) -> None:
        append = heap.append
        positions = [append(row) for row in rows]
        if positions:
            self._rows_added(collection, heap, positions)

    def truncate_collection(self, collection: str) -> None:
        indexes = self.rows(collection).indexes()
        heap = self._heaps[collection] = self._new_heap(collection)
        for column in indexes:
            heap.add_index(column)
        self._durable_log({"kind": "truncate", "collection": collection})

    def create_index(self, collection: str, column: str) -> None:
        """Create a hash index on ``column`` (a dotted path where paths are read)."""
        heap = self.rows(collection)
        self._check_column(collection, column)
        heap.add_index(column)
        self._durable_log({"kind": "index", "collection": collection, "column": column})

    # -- what a store may refine -----------------------------------------------------------
    def _new_heap(self, collection: str) -> RowHeap:
        """An empty heap for ``collection`` (on create and on truncate)."""
        return RowHeap(self._reader_of, key=self._meta[collection].get("primary_key", ()))

    def _stored(
        self, collection: str, rows: Iterable[Mapping[str, object]]
    ) -> list[dict[str, object]]:
        """The stored form of written rows: copies of mappings."""
        stored = []
        for row in rows:
            if type(row) is not dict and not isinstance(row, Mapping):  # the ABC check is slow
                raise SchemaError(f"{self._noun} {collection!r}: rows must be mappings")
            stored.append(dict(row))
        return stored

    def _check_inserts(
        self, collection: str, heap: RowHeap, rows: list[dict[str, object]], freed: Sequence[int]
    ) -> None:
        """Refuse ``rows`` by raising; ``freed`` positions are being deleted with them.

        The default refuses a primary key that a live row (not being
        deleted) or an earlier row of ``rows`` holds.
        """
        key = heap.key
        if not key:
            return
        freed = set(freed)
        seen: set[tuple] = set()
        for row in rows:
            value = tuple(row[column] for column in key)
            held = heap.key_position(value)
            if value in seen or (held is not None and held not in freed):
                raise self._duplicate_key(
                    f"duplicate primary key {value!r} in {self._noun} {collection!r}"
                )
            seen.add(value)

    def _rows_added(self, collection: str, heap: RowHeap, positions: list[int]) -> None:
        """Rows were appended at ``positions``."""

    def _rows_removed(self, collection: str, heap: RowHeap, positions: list[int]) -> None:
        """The rows at ``positions`` are about to be deleted."""

    def _lookup_column(self, collection: str) -> str:
        """The column key lookups match."""
        raise self._reject("key lookups")

    # -- durability ---------------------------------------------------------------------
    def _durable_replay(self, record: Mapping[str, object]) -> None:
        kind = record.get("kind")
        collection = record.get("collection")
        if kind == "create":
            if collection not in self._heaps:
                meta = dict(record.get("meta") or {})
                meta.pop("indexes", None)  # the dump's; rebuilt by "index" records
                self._create(collection, meta)
        elif kind == "rows":  # a record holds rows in stored form
            self._write(collection, list(record["rows"]), [])
        elif kind == "delta":
            self._write(
                collection, list(record.get("inserts", ())), list(record.get("deletes", ()))
            )
        elif kind == "truncate":
            self.truncate_collection(collection)
        elif kind == "index":
            self.create_index(collection, record["column"])
        elif kind == "drop":
            if collection in self._heaps:
                self.drop_collection(collection)
        else:
            raise DurabilityError(f"unknown durable record kind {kind!r}")

    def _durable_dump(self) -> Mapping[str, Mapping[str, object]]:
        return {
            name: {
                "columns": self._meta[name].get("columns"),
                "meta": {**self._meta[name], "indexes": sorted(heap.indexes())},
                "rows": list(heap),
            }
            for name, heap in self._heaps.items()
        }

    # -- reads ----------------------------------------------------------------------------
    def _scan_candidates(self, request: ScanRequest):
        """The collection's rows, narrowed by the most selective equality index
        or by ``=`` on a one-column primary key.

        An ``in`` predicate narrows by the union of its keys' buckets, in heap
        order.
        """
        heap = self.rows(request.collection)
        metrics = StoreMetrics()
        candidates: Sequence[int] | None = None
        for predicate in request.predicates:
            index = heap.index_on(predicate.column) if predicate.op in ("=", "in") else None
            if predicate.op == "=" and heap.key == (predicate.column,):
                position = heap.key_position((predicate.value,))
                positions = () if position is None else (position,)
                metrics.index_lookups += 1
            elif index is None:
                continue
            elif predicate.op == "=":
                positions = index.lookup(predicate.value)
                metrics.index_lookups += 1
            else:
                positions = sorted(p for key in predicate.value for p in index.lookup(key))
                metrics.index_lookups += len(predicate.value)
            if candidates is None or len(positions) < len(candidates):
                candidates = positions
        if candidates is None:
            return heap, None, metrics
        return heap, heap.rows_at(candidates), metrics

    def _lookup_rows(self, request: LookupRequest):
        """Rows whose lookup column equals a key: through the primary key or an
        index on that column, else by one walk of the heap against the keys."""
        heap = self.rows(request.collection)
        column = self._lookup_column(request.collection)
        keys = request.keys
        metrics = StoreMetrics(index_lookups=len(keys))
        index = heap.index_on(column)
        if heap.key == (column,):
            found = (heap.key_position((key,)) for key in keys)
            rows = [heap.at(position) for position in found if position is not None]
        elif index is not None:
            rows = [row for key in keys for row in heap.rows_at(index.lookup(key))]
        else:
            read = self._reader_of(column)
            metrics.rows_scanned += len(heap)
            wanted = frozenset(keys)
            rows = [row for row in heap if member(read(row, column), wanted)]
            if len(wanted) < len(keys):  # a key listed twice answers its rows twice
                counts = Counter(keys)
                rows = [row for row in rows for _ in range(counts[read(row, column)])]
        return rows, metrics
