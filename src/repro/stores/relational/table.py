"""In-memory tables and hash indexes for the simulated relational store."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import DeltaError, SchemaError, StoreError

__all__ = ["Table", "HashIndex"]


@dataclass(slots=True)
class HashIndex:
    """A hash index on one column of a table.

    Maps column values to the positions of the rows holding them; the store
    uses it for equality predicates and key lookups.
    """

    column: str
    _buckets: dict[object, list[int]] = field(default_factory=dict)

    def add(self, value: object, position: int) -> None:
        """Index the row at ``position`` under ``value``."""
        self._buckets.setdefault(value, []).append(position)

    def lookup(self, value: object) -> Sequence[int]:
        """Row positions whose indexed column equals ``value``."""
        return self._buckets.get(value, ())

    def distinct_count(self) -> int:
        """Number of distinct indexed values."""
        return len(self._buckets)

    def rebuild(self, rows: Sequence[Mapping[str, object]]) -> None:
        """Rebuild the index from scratch over ``rows``."""
        self._buckets = {}
        for position, row in enumerate(rows):
            self.add(row.get(self.column), position)


class Table:
    """A heap of rows (dictionaries) with a declared column list and indexes."""

    def __init__(self, name: str, columns: Sequence[str], primary_key: Sequence[str] = ()) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        unknown_key = [c for c in primary_key if c not in columns]
        if unknown_key:
            raise SchemaError(f"table {name!r}: key columns {unknown_key} not in columns")
        self.name = name
        self.columns = tuple(columns)
        self.primary_key = tuple(primary_key)
        self._rows: list[dict[str, object]] = []
        self._indexes: dict[str, HashIndex] = {}
        self._primary_index: dict[tuple, int] = {}

    # -- data manipulation -------------------------------------------------------
    def insert(self, row: Mapping[str, object] | Sequence[object]) -> None:
        """Insert one row (mapping or sequence in column order)."""
        self._append(self._coerce(row))

    def _append(self, record: dict[str, object]) -> None:
        """Store an already-coerced record (the table keeps the dict itself)."""
        if self.primary_key:
            key = tuple(record[c] for c in self.primary_key)
            if key in self._primary_index:
                raise StoreError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._primary_index[key] = len(self._rows)
        position = len(self._rows)
        self._rows.append(record)
        for index in self._indexes.values():
            index.add(record.get(index.column), position)

    def _coerce(self, row: Mapping[str, object] | Sequence[object]) -> dict[str, object]:
        if isinstance(row, Mapping):
            unknown = [c for c in row if c not in self.columns]
            if unknown:
                raise SchemaError(f"table {self.name!r}: unknown columns {unknown}")
            return {c: row.get(c) for c in self.columns}
        values = list(row)
        if len(values) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.columns)} values, got {len(values)}"
            )
        return dict(zip(self.columns, values))

    def _remove(self, records: Iterable[dict[str, object]]) -> int:
        """Delete one stored row per already-coerced record (strict bag semantics).

        Every delete must match exactly one stored copy; a delete with no
        remaining match raises :class:`~repro.errors.DeltaError` — it means
        the caller's picture of the table has diverged from its contents.
        Positions shift after removal, so the primary index and every hash
        index are rebuilt.  Returns the number of rows deleted.
        """
        doomed: list[int] = []
        taken: set[int] = set()
        for record in records:
            match = None
            for position, stored in enumerate(self._rows):
                if position not in taken and stored == record:
                    match = position
                    break
            if match is None:
                raise DeltaError(
                    f"table {self.name!r}: delete of {record!r} matches no stored row"
                )
            taken.add(match)
            doomed.append(match)
        for position in sorted(doomed, reverse=True):
            del self._rows[position]
        self._reindex()
        return len(doomed)

    def truncate(self) -> None:
        """Drop every row, keeping columns, primary key and index definitions."""
        self._rows = []
        self._reindex()

    def _reindex(self) -> None:
        self._primary_index = {}
        if self.primary_key:
            for position, record in enumerate(self._rows):
                key = tuple(record[c] for c in self.primary_key)
                self._primary_index[key] = position
        for index in self._indexes.values():
            index.rebuild(self._rows)

    # -- indexing -------------------------------------------------------------------
    def create_index(self, column: str) -> HashIndex:
        """Create (or return the existing) hash index on ``column``."""
        if column not in self.columns:
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        index = self._indexes.get(column)
        if index is None:
            index = HashIndex(column)
            index.rebuild(self._rows)
            self._indexes[column] = index
        return index

    def index_on(self, column: str) -> HashIndex | None:
        """The index on ``column`` if one exists."""
        return self._indexes.get(column)

    def indexes(self) -> Mapping[str, HashIndex]:
        """All indexes by column name."""
        return dict(self._indexes)

    # -- access ------------------------------------------------------------------------
    @property
    def rows(self) -> Sequence[dict[str, object]]:
        """The stored rows (do not mutate)."""
        return self._rows

    def row_at(self, position: int) -> dict[str, object]:
        """The row stored at ``position``."""
        return self._rows[position]

    def lookup_primary(self, key: Sequence[object]) -> dict[str, object] | None:
        """Primary-key lookup; returns the row or None."""
        if not self.primary_key:
            raise StoreError(f"table {self.name!r} has no primary key")
        position = self._primary_index.get(tuple(key))
        return None if position is None else self._rows[position]

    def distinct_count(self, column: str) -> int:
        """Number of distinct values in ``column``."""
        index = self._indexes.get(column)
        if index is not None:
            return index.distinct_count()
        return len({row.get(column) for row in self._rows})

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Table {self.name!r} rows={len(self._rows)} columns={self.columns}>"
