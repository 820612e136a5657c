"""The row-addressed heap every leaf store keeps its rows in.

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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import DeltaError

__all__ = ["HashIndex", "RowHeap"]

_live = partial(operator.is_not, None)


@dataclass(slots=True)
class HashIndex:
    """A hash index on one column: value -> ascending positions of its rows."""

    column: str
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

    ``read(row, column)`` is how an indexed column is read off a row
    (``dict.get`` by default; the document store passes its dotted-path
    reader).  ``key`` names primary-key columns whose value tuple is unique
    and maps straight to a position.  ``on_compact(moved)`` is told of every
    compaction, with ``moved[old position]`` the row's new position (-1 for
    a hole), so an owner keeping its own position-keyed structures can
    follow.
    """

    __slots__ = ("_slots", "_holes", "_read", "_indexes", "_key", "_primary", "_on_compact")

    def __init__(
        self,
        key: Sequence[str] = (),
        read: Callable[[Mapping[str, object], str], object] = dict.get,
        on_compact: Callable[[Sequence[int]], None] | None = None,
    ) -> None:
        self._slots: list[dict[str, object] | None] = []
        self._holes = 0
        self._read = read
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

    def rows_at(self, positions: Iterable[int]) -> list[dict[str, object]]:
        """The rows stored at ``positions``, in that order."""
        slots = self._slots
        return [slots[position] for position in positions]

    def key_position(self, key: tuple) -> int | None:
        """Position of the row whose primary-key values are ``key``."""
        return self._primary.get(key)

    # -- indexes ---------------------------------------------------------------
    def add_index(self, column: str) -> HashIndex:
        """Create (or return the existing) hash index on ``column``."""
        index = self._indexes.get(column)
        if index is None:
            index = HashIndex(column)
            read = self._read
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
        read = self._read
        for column, index in self._indexes.items():
            index.add(read(row, column), position)
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
        read = self._read
        for column, index in self._indexes.items():
            value = read(record, column)
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
        read = self._read
        removed: list[dict[str, object]] = []
        for position in positions:
            row = slots[position]
            slots[position] = None
            removed.append(row)
            if self._key:
                del self._primary[tuple(row[column] for column in self._key)]
            for column, index in self._indexes.items():
                index.discard(read(row, column), position)
        self._holes += len(removed)
        if self._holes > len(self):
            self._compact()
        return removed

    def remove(self, records: Iterable[Mapping[str, object]], owner: str) -> list[dict[str, object]]:
        """Strictly delete one stored copy per record; returns the deleted rows."""
        return self.delete(self.locate(records, owner))

    def clear(self) -> None:
        """Drop every row, keeping the index definitions."""
        self._slots = []
        self._holes = 0
        self._primary = {}
        for column in self._indexes:
            self._indexes[column] = HashIndex(column)

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
