"""The simulated relational store (Postgres stand-in).

Supports table creation, bulk loads, hash indexes, selection/projection scans,
primary-key and indexed-equality lookups, and hash joins of delegated
sub-queries.  The ESTOCADA translation layer delegates the largest relational
sub-query of a rewriting to this store, exactly as the paper delegates to
Postgres.  Rows, indexes and durability live in
:class:`~repro.stores.heap.HeapStore` (primary-key uniqueness included); a
table adds its declared columns and the coercion of written rows to them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import SchemaError
from repro.stores.base import StoreCapabilities
from repro.stores.heap import HeapStore

__all__ = ["RelationalStore"]


class RelationalStore(HeapStore):
    """An in-memory relational DMS with indexes and hash joins."""

    _noun = "table"

    def __init__(self, name: str = "relational", latency: float = 0.0) -> None:
        super().__init__(name, latency=latency)

    def create_table(
        self, name: str, columns: Sequence[str], primary_key: Sequence[str] = ()
    ) -> None:
        """Create a table over ``columns``, unique on ``primary_key`` when given."""
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        unknown_key = [c for c in primary_key if c not in columns]
        if unknown_key:
            raise SchemaError(f"table {name!r}: key columns {unknown_key} not in columns")
        self._create(name, {"columns": tuple(columns), "primary_key": tuple(primary_key)})

    def _stored(
        self, collection: str, rows: Iterable[Mapping[str, object] | Sequence[object]]
    ) -> list[dict[str, object]]:
        """Each row as a dict over the declared columns: a mapping's missing
        columns are None, a sequence gives the values in column order."""
        columns = self._meta[collection]["columns"]
        declared = set(columns)
        stored = []
        for row in rows:
            if type(row) is dict and tuple(row) == columns:  # already in stored form
                stored.append(row.copy())
                continue
            if type(row) is dict or isinstance(row, Mapping):  # the ABC check is slow
                unknown = [c for c in row if c not in declared]
                if unknown:
                    raise SchemaError(f"table {collection!r}: unknown columns {unknown}")
                stored.append({c: row.get(c) for c in columns})
                continue
            values = list(row)
            if len(values) != len(columns):
                raise SchemaError(
                    f"table {collection!r} expects {len(columns)} values, got {len(values)}"
                )
            stored.append(dict(zip(columns, values)))
        return stored

    def _lookup_column(self, collection: str) -> str:
        """The first primary-key column, else the first column."""
        meta = self._meta[collection]
        return (meta["primary_key"] or meta["columns"])[0]

    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="relational",
            supports_scan=True,
            supports_selection=True,
            supports_join=True,
            supports_aggregation=True,
            supports_key_lookup=True,
            requires_key_lookup=False,
            supports_text_search=False,
            supports_nested_results=False,
            parallel=False,
        )
