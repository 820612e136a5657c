"""The simulated document store (MongoDB stand-in).

Collections hold JSON-like documents (nested dictionaries and lists).  The
store answers path-predicate scans and single-field index lookups, and it can
project dotted paths — but, like most document stores, it does **not** support
joins: joins across collections (or with other stores) must be evaluated by
the ESTOCADA runtime, which is exactly the behaviour the paper relies on when
discussing non-delegated operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import SchemaError, StoreError
from repro.stores.base import (
    LookupRequest,
    ScanRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
)
from repro.stores.heap import RowHeap

__all__ = ["DocumentStore", "get_path", "flatten_document"]


def get_path(document: Mapping[str, object], path: str) -> object:
    """Resolve a dotted path (``"user.address.city"``) inside a document.

    Missing intermediate keys yield None.  A numeric path segment indexes into
    a list.
    """
    current: object = document
    for segment in path.split("."):
        if isinstance(current, Mapping):
            current = current.get(segment)
        elif isinstance(current, (list, tuple)) and segment.isdigit():
            index = int(segment)
            current = current[index] if index < len(current) else None
        else:
            return None
    return current


def flatten_document(document: Mapping[str, object], prefix: str = "") -> dict[str, object]:
    """Flatten nested keys into dotted paths (lists are kept as values)."""
    flat: dict[str, object] = {}
    for key, value in document.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_document(value, prefix=f"{path}."))
        else:
            flat[path] = value
    return flat


class DocumentStore(Store):
    """An in-memory document DMS with path predicates and single-field indexes."""

    def __init__(self, name: str = "document", latency: float = 0.0) -> None:
        super().__init__(name, latency=latency)
        # One heap per collection; its indexes are keyed by dotted path.
        self._collections: dict[str, RowHeap] = {}

    # -- collection management -----------------------------------------------------
    def create_collection(self, name: str) -> None:
        """Create an empty collection (idempotent)."""
        if name not in self._collections:
            self._collections[name] = RowHeap(read=get_path)
            self._durable_log({"kind": "create", "collection": name})

    def drop_collection(self, name: str) -> None:
        """Drop a collection and its indexes."""
        if name not in self._collections:
            raise StoreError(f"collection {name!r} does not exist in store {self.name!r}")
        del self._collections[name]
        self._durable_log({"kind": "drop", "collection": name})

    def insert(self, collection: str, documents: Iterable[Mapping[str, object]]) -> int:
        """Insert documents into a collection (created on demand)."""
        inserted = self._append(collection, documents)
        if inserted:
            self._durable_log({"kind": "rows", "collection": collection, "rows": inserted})
        return len(inserted)

    def _append(
        self, collection: str, documents: Iterable[Mapping[str, object]]
    ) -> list[dict[str, object]]:
        """Store copies of ``documents``; returns the stored dicts."""
        heap = self._collections.get(collection)
        if heap is None:
            heap = self._collections[collection] = RowHeap(read=get_path)
        inserted: list[dict[str, object]] = []
        for document in documents:
            if not isinstance(document, Mapping):
                raise SchemaError("documents must be mappings")
            stored = dict(document)
            heap.append(stored)
            inserted.append(stored)
        return inserted

    def create_index(self, collection: str, path: str) -> None:
        """Create a single-field index on a dotted path."""
        self._documents(collection).add_index(path)
        self._durable_log({"kind": "index", "collection": collection, "column": path})

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        documents = self._documents(collection)
        removed = documents.remove(deletes, f"collection {collection!r}")
        added = self._append(collection, inserts)
        if removed or added:
            self._durable_log(
                {"kind": "delta", "collection": collection, "inserts": added, "deletes": removed}
            )
        return len(removed) + len(added)

    def truncate_collection(self, collection: str) -> None:
        self._documents(collection).clear()
        self._durable_log({"kind": "truncate", "collection": collection})

    # -- durability hooks --------------------------------------------------------
    def _durable_replay(self, record: Mapping[str, object]) -> None:
        kind = record.get("kind")
        collection = record.get("collection")
        if kind == "create":
            self.create_collection(collection)
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
            if collection in self._collections:
                self.drop_collection(collection)

    def _durable_dump(self) -> Mapping[str, Mapping[str, object]]:
        return {
            name: {
                "columns": None,  # ragged documents: segment schemas are per-freeze
                "meta": {"indexes": sorted(documents.indexes())},
                "rows": list(documents),
            }
            for name, documents in self._collections.items()
        }

    # -- store interface ---------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="document",
            supports_scan=True,
            supports_selection=True,
            supports_projection=True,
            supports_join=False,
            supports_aggregation=False,
            supports_key_lookup=True,
            requires_key_lookup=False,
            supports_text_search=False,
            supports_nested_results=True,
            parallel=False,
        )

    def collections(self) -> Sequence[str]:
        return tuple(self._collections)

    def collection_size(self, collection: str) -> int:
        documents = self._collections.get(collection)
        if documents is None:
            raise StoreError(f"collection {collection!r} does not exist in store {self.name!r}")
        return len(documents)

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        documents = self._collections.get(collection)
        if documents is None:
            raise StoreError(f"collection {collection!r} does not exist in store {self.name!r}")
        values = {self._freeze(get_path(d, column)) for d in documents}
        return {
            "count": len(documents),
            "distinct": len(values),
            "indexed": documents.index_on(column) is not None,
        }

    @staticmethod
    def _freeze(value: object) -> object:
        if isinstance(value, (list, dict)):
            return repr(value)
        return value

    # -- execution (native rows; stores/base.py shapes them) ----------------------------
    def _documents(self, collection: str) -> RowHeap:
        documents = self._collections.get(collection)
        if documents is None:
            raise StoreError(f"collection {collection!r} does not exist in store {self.name!r}")
        return documents

    def _scan_candidates(self, request: ScanRequest):
        """The collection's documents, narrowed by the most selective equality index."""
        documents = self._documents(request.collection)
        metrics = StoreMetrics()
        candidate_positions: Sequence[int] | None = None
        for predicate in request.predicates:
            if predicate.op != "=":
                continue
            index = documents.index_on(predicate.column)
            if index is None:
                continue
            positions = index.lookup(predicate.value)
            metrics.index_lookups += 1
            if candidate_positions is None or len(positions) < len(candidate_positions):
                candidate_positions = positions
        if candidate_positions is None:
            return documents, None, metrics
        return documents, documents.rows_at(candidate_positions), metrics

    @staticmethod
    def _reader_of(column: str):
        """Dotted paths walk the document (batches read top-level keys)."""
        return get_path if "." in column else dict.get

    def _lookup_rows(self, request: LookupRequest):
        # Documents are looked up by their "_id" path by convention.
        documents = self._documents(request.collection)
        metrics = StoreMetrics()
        index = documents.index_on("_id")
        rows: list[dict[str, object]] = []
        for key in request.keys:
            metrics.index_lookups += 1
            if index is not None:
                rows.extend(documents.rows_at(index.lookup(key)))
            else:
                metrics.rows_scanned += len(documents)
                rows.extend(d for d in documents if d.get("_id") == key)
        return rows, metrics
