"""In-memory tables and hash indexes for the simulated relational store."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import SchemaError, StoreError
from repro.stores.heap import HashIndex, RowHeap

__all__ = ["Table", "HashIndex"]


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
        self._heap = RowHeap(key=self.primary_key)

    # -- data manipulation -------------------------------------------------------
    def insert(self, row: Mapping[str, object] | Sequence[object]) -> None:
        """Insert one row (mapping or sequence in column order)."""
        self._append(self._coerce(row))

    def _append(self, record: dict[str, object]) -> None:
        """Store an already-coerced record (the table keeps the dict itself)."""
        if self.primary_key:
            key = tuple(record[c] for c in self.primary_key)
            if self._heap.key_position(key) is not None:
                raise StoreError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        self._heap.append(record)

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

    def _remove(self, records: Sequence[dict[str, object]]) -> int:
        """Delete one stored row per already-coerced record (strict bag semantics).

        Every delete must match exactly one stored copy; a delete with no
        remaining match raises :class:`~repro.errors.DeltaError` — it means
        the caller's picture of the table has diverged from its contents —
        and leaves the table unchanged.  Returns the number of rows deleted.
        """
        return len(self._heap.remove(records, f"table {self.name!r}"))

    def truncate(self) -> None:
        """Drop every row, keeping columns, primary key and index definitions."""
        self._heap.clear()

    # -- indexing -------------------------------------------------------------------
    def create_index(self, column: str) -> HashIndex:
        """Create (or return the existing) hash index on ``column``."""
        if column not in self.columns:
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        return self._heap.add_index(column)

    def index_on(self, column: str) -> HashIndex | None:
        """The index on ``column`` if one exists."""
        return self._heap.index_on(column)

    def indexes(self) -> Mapping[str, HashIndex]:
        """All indexes by column name."""
        return self._heap.indexes()

    # -- access ------------------------------------------------------------------------
    @property
    def rows(self) -> RowHeap:
        """The stored rows: iterable live rows in insertion order (do not mutate)."""
        return self._heap

    def rows_at(self, positions: Sequence[int]) -> list[dict[str, object]]:
        """The rows stored at ``positions``."""
        return self._heap.rows_at(positions)

    def lookup_primary(self, key: Sequence[object]) -> dict[str, object] | None:
        """Primary-key lookup; returns the row or None."""
        if not self.primary_key:
            raise StoreError(f"table {self.name!r} has no primary key")
        position = self._heap.key_position(tuple(key))
        return None if position is None else self._heap.at(position)

    def distinct_count(self, column: str) -> int:
        """Number of distinct values in ``column``."""
        index = self._heap.index_on(column)
        if index is not None:
            return index.distinct_count()
        return len({row.get(column) for row in self._heap})

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Table {self.name!r} rows={len(self._heap)} columns={self.columns}>"
