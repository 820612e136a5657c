"""The simulated relational store (Postgres stand-in).

Supports table creation, bulk loads, hash indexes, selection/projection scans,
primary-key and indexed-equality lookups, and hash joins of delegated
sub-queries.  The ESTOCADA translation layer delegates the largest relational
sub-query of a rewriting to this store, exactly as the paper delegates to
Postgres.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SchemaError, StoreError
from repro.stores.base import (
    LookupRequest,
    ScanRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
)
from repro.stores.relational.table import Table

__all__ = ["RelationalStore"]


class RelationalStore(Store):
    """An in-memory relational DMS with indexes and hash joins."""

    def __init__(self, name: str = "relational", latency: float = 0.0) -> None:
        super().__init__(name, latency=latency)
        self._tables: dict[str, Table] = {}

    # -- DDL / DML ---------------------------------------------------------------
    def create_table(
        self, name: str, columns: Sequence[str], primary_key: Sequence[str] = ()
    ) -> Table:
        """Create a table; returns the :class:`Table` handle."""
        if name in self._tables:
            raise StoreError(f"table {name!r} already exists in store {self.name!r}")
        table = Table(name, columns, primary_key)
        self._tables[name] = table
        self._durable_log(
            {
                "kind": "create",
                "collection": name,
                "columns": table.columns,
                "meta": {"primary_key": list(table.primary_key)},
            }
        )
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table (missing tables raise)."""
        if name not in self._tables:
            raise StoreError(f"table {name!r} does not exist in store {self.name!r}")
        del self._tables[name]
        self._durable_log({"kind": "drop", "collection": name})

    def table(self, name: str) -> Table:
        """Look up a table handle by name."""
        table = self._tables.get(name)
        if table is None:
            raise StoreError(f"table {name!r} does not exist in store {self.name!r}")
        return table

    def insert(self, table_name: str, rows: Sequence[Mapping[str, object] | Sequence[object]]) -> int:
        """Bulk-insert rows into a table."""
        table = self.table(table_name)
        records = [table._coerce(row) for row in rows]
        for record in records:
            table._append(record)
        if records:
            self._durable_log({"kind": "rows", "collection": table_name, "rows": records})
        return len(records)

    def create_index(self, table_name: str, column: str) -> None:
        """Create a hash index on ``table_name.column``."""
        self.table(table_name).create_index(column)
        self._durable_log({"kind": "index", "collection": table_name, "column": column})

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        table = self.table(collection)
        removed = [table._coerce(row) for row in deletes]
        added = [table._coerce(row) for row in inserts]
        touched = table._remove(removed)
        for record in added:
            table._append(record)
        touched += len(added)
        if removed or added:
            self._durable_log(
                {
                    "kind": "delta",
                    "collection": collection,
                    "inserts": added,
                    "deletes": removed,
                }
            )
        return touched

    def truncate_collection(self, collection: str) -> None:
        self.table(collection).truncate()
        self._durable_log({"kind": "truncate", "collection": collection})

    # -- durability hooks --------------------------------------------------------
    def _durable_replay(self, record: Mapping[str, object]) -> None:
        kind = record.get("kind")
        collection = record.get("collection")
        if kind == "create":
            if collection not in self._tables:
                meta = record.get("meta") or {}
                self.create_table(
                    collection, record["columns"], primary_key=meta.get("primary_key", ())
                )
        elif kind == "rows":
            self.insert(collection, record["rows"])
        elif kind == "delta":
            self.apply_delta(
                collection,
                inserts=record.get("inserts", ()),
                deletes=record.get("deletes", ()),
            )
        elif kind == "truncate":
            self.truncate_collection(collection)
        elif kind == "index":
            self.create_index(collection, record["column"])
        elif kind == "drop":
            if collection in self._tables:
                self.drop_table(collection)

    def _durable_dump(self) -> Mapping[str, Mapping[str, object]]:
        return {
            name: {
                "columns": table.columns,
                "meta": {
                    "primary_key": list(table.primary_key),
                    "indexes": sorted(table.indexes()),
                },
                "rows": list(table.rows),
            }
            for name, table in self._tables.items()
        }

    # -- store interface ------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="relational",
            supports_scan=True,
            supports_selection=True,
            supports_projection=True,
            supports_join=True,
            supports_aggregation=True,
            supports_key_lookup=True,
            requires_key_lookup=False,
            supports_text_search=False,
            supports_nested_results=False,
            parallel=False,
        )

    def collections(self) -> Sequence[str]:
        return tuple(self._tables)

    def collection_size(self, collection: str) -> int:
        return len(self.table(collection))

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        table = self.table(collection)
        if column not in table.columns:
            raise SchemaError(f"table {collection!r} has no column {column!r}")
        return {
            "count": len(table),
            "distinct": table.distinct_count(column),
            "indexed": table.index_on(column) is not None,
        }

    # -- execution (native rows; stores/base.py shapes them) ---------------------------
    def _scan_candidates(self, request: ScanRequest):
        """The table's rows, narrowed by the most selective equality index."""
        table = self.table(request.collection)
        metrics = StoreMetrics()
        candidate_positions: Sequence[int] | None = None
        for predicate in request.predicates:
            if predicate.op != "=":
                continue
            index = table.index_on(predicate.column)
            if index is None:
                continue
            positions = index.lookup(predicate.value)
            metrics.index_lookups += 1
            if candidate_positions is None or len(positions) < len(candidate_positions):
                candidate_positions = positions
        if candidate_positions is None:
            return table.rows, None, metrics
        return table.rows, table.rows_at(candidate_positions), metrics

    def _lookup_rows(self, request: LookupRequest):
        table = self.table(request.collection)
        metrics = StoreMetrics()
        rows: list[dict[str, object]] = []
        for key in request.keys:
            metrics.index_lookups += 1
            if table.primary_key and len(table.primary_key) == 1:
                row = table.lookup_primary([key])
                if row is not None:
                    rows.append(row)
                continue
            # Fall back to an index or a scan on the first column.
            column = table.primary_key[0] if table.primary_key else table.columns[0]
            index = table.index_on(column)
            if index is not None:
                rows.extend(table.rows_at(index.lookup(key)))
            else:
                metrics.rows_scanned += len(table)
                rows.extend(r for r in table.rows if r.get(column) == key)
        return rows, metrics
