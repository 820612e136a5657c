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

from repro.errors import DeltaError, SchemaError, StoreError, UnsupportedOperationError
from repro.stores.base import (
    JoinRequest,
    LookupRequest,
    Predicate,
    ScanRequest,
    SearchRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
    StoreRequest,
    StoreResult,
    kept_rows,
    row_batches,
)

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
        self._collections: dict[str, list[dict[str, object]]] = {}
        self._indexes: dict[tuple[str, str], dict[object, list[int]]] = {}

    # -- collection management -----------------------------------------------------
    def create_collection(self, name: str) -> None:
        """Create an empty collection (idempotent)."""
        if name not in self._collections:
            self._collections[name] = []
            self._durable_log({"kind": "create", "collection": name})

    def drop_collection(self, name: str) -> None:
        """Drop a collection and its indexes."""
        if name not in self._collections:
            raise StoreError(f"collection {name!r} does not exist in store {self.name!r}")
        del self._collections[name]
        self._indexes = {
            key: value for key, value in self._indexes.items() if key[0] != name
        }
        self._durable_log({"kind": "drop", "collection": name})

    def insert(self, collection: str, documents: Iterable[Mapping[str, object]]) -> int:
        """Insert documents into a collection (created on demand)."""
        bucket = self._collections.setdefault(collection, [])
        inserted: list[dict[str, object]] = []
        for document in documents:
            if not isinstance(document, Mapping):
                raise SchemaError("documents must be mappings")
            position = len(bucket)
            stored = dict(document)
            bucket.append(stored)
            for (indexed_collection, path), index in self._indexes.items():
                if indexed_collection == collection:
                    index.setdefault(get_path(stored, path), []).append(position)
            inserted.append(stored)
        if inserted:
            self._durable_log({"kind": "rows", "collection": collection, "rows": inserted})
        return len(inserted)

    def create_index(self, collection: str, path: str) -> None:
        """Create a single-field index on a dotted path."""
        documents = self._collections.get(collection)
        if documents is None:
            raise StoreError(f"collection {collection!r} does not exist in store {self.name!r}")
        index: dict[object, list[int]] = {}
        for position, document in enumerate(documents):
            index.setdefault(get_path(document, path), []).append(position)
        self._indexes[(collection, path)] = index
        self._durable_log({"kind": "index", "collection": collection, "column": path})

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        documents = self._documents(collection)
        doomed: list[int] = []
        taken: set[int] = set()
        for delete in deletes:
            record = dict(delete)
            match = None
            for position, stored in enumerate(documents):
                if position not in taken and stored == record:
                    match = position
                    break
            if match is None:
                raise DeltaError(
                    f"collection {collection!r}: delete of {record!r} matches no document"
                )
            taken.add(match)
            doomed.append(match)
        for position in sorted(doomed, reverse=True):
            del documents[position]
        # Indexes are positional; removals shift everything after them.
        self._rebuild_indexes(collection)
        with self._durable_silence():  # the delta record covers the inserts
            touched = len(doomed) + self.insert(collection, inserts)
        if deletes or inserts:
            self._durable_log(
                {
                    "kind": "delta",
                    "collection": collection,
                    "inserts": [dict(document) for document in inserts],
                    "deletes": [dict(document) for document in deletes],
                }
            )
        return touched

    def truncate_collection(self, collection: str) -> None:
        self._documents(collection).clear()
        self._rebuild_indexes(collection)
        self._durable_log({"kind": "truncate", "collection": collection})

    def _rebuild_indexes(self, collection: str) -> None:
        with self._durable_silence():  # rebuilding is not a new index definition
            for indexed_collection, path in list(self._indexes):
                if indexed_collection == collection:
                    self.create_index(collection, path)

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
                "meta": {
                    "indexes": sorted(
                        path for c, path in self._indexes if c == name
                    ),
                },
                "rows": [dict(document) for document in documents],
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
            "indexed": (collection, column) in self._indexes,
        }

    @staticmethod
    def _freeze(value: object) -> object:
        if isinstance(value, (list, dict)):
            return repr(value)
        return value

    # -- execution ------------------------------------------------------------------------
    def _execute(self, request: StoreRequest) -> StoreResult:
        if isinstance(request, ScanRequest):
            return self._execute_scan(request)
        if isinstance(request, LookupRequest):
            return self._execute_lookup(request)
        if isinstance(request, JoinRequest):
            raise self._reject("joins")
        if isinstance(request, SearchRequest):
            raise self._reject("full-text search")
        raise UnsupportedOperationError(f"unknown request type {type(request).__name__}")

    def _documents(self, collection: str) -> list[dict[str, object]]:
        documents = self._collections.get(collection)
        if documents is None:
            raise StoreError(f"collection {collection!r} does not exist in store {self.name!r}")
        return documents

    def _scan_candidates(self, request: ScanRequest):
        """Index selection, shared by both scan entry points.

        Returns the collection, the documents the most selective index on an
        equality predicate narrows the scan to (None when no index applies)
        and the request's metrics.
        """
        documents = self._documents(request.collection)
        metrics = StoreMetrics()
        candidate_positions: Sequence[int] | None = None
        for predicate in request.predicates:
            if predicate.op != "=":
                continue
            index = self._indexes.get((request.collection, predicate.column))
            if index is None:
                continue
            positions = index.get(predicate.value, ())
            metrics.index_lookups += 1
            if candidate_positions is None or len(positions) < len(candidate_positions):
                candidate_positions = positions
        if candidate_positions is None:
            return documents, None, metrics
        return documents, [documents[p] for p in candidate_positions], metrics

    @staticmethod
    def _reader_of(column: str):
        """How a predicate column is read: dotted paths walk the document."""
        return get_path if "." in column else dict.get

    def _execute_scan(self, request: ScanRequest) -> StoreResult:
        documents, candidates, metrics = self._scan_candidates(request)
        if candidates is None:
            candidates = documents
        metrics.rows_scanned += len(candidates)
        kept = kept_rows(candidates, request.predicates, request.limit, self._reader_of)
        return StoreResult(self._project(kept, request.projection), metrics)

    def _execute_batches(self, request: StoreRequest, columns, batch_size: int):
        """Native batch scans over documents (no per-document dict copy).

        Candidates, path predicates and limit are :meth:`_execute_scan`'s;
        the emitted tuples read **top-level** keys, exactly what the dict
        path's unprojected ``dict(document)`` rows expose to the runtime.
        """
        if not isinstance(request, ScanRequest):
            return super()._execute_batches(request, columns, batch_size)
        documents, candidates, metrics = self._scan_candidates(request)
        if candidates is None:
            # No index narrows this scan: serve it from the durable segments
            # when they exist.  Dotted-path predicates are flagged so the
            # backing reconstructs documents for them instead of comparing
            # top-level column positions.
            backing = self._durable_scan_source(request)
            if backing is not None:
                return backing.scan_batches(
                    request,
                    columns,
                    batch_size,
                    evaluate=self._evaluate,
                    dotted=True,
                )
            candidates = documents
        metrics.rows_scanned += len(candidates)
        kept = kept_rows(candidates, request.predicates, request.limit, self._reader_of)
        return row_batches(kept, columns, batch_size), metrics

    def _execute_lookup(self, request: LookupRequest) -> StoreResult:
        # Documents are looked up by their "_id" path by convention.
        documents = self._documents(request.collection)
        metrics = StoreMetrics()
        index = self._indexes.get((request.collection, "_id"))
        rows: list[dict[str, object]] = []
        for key in request.keys:
            metrics.index_lookups += 1
            if index is not None:
                rows.extend(documents[p] for p in index.get(key, ()))
            else:
                metrics.rows_scanned += len(documents)
                rows.extend(d for d in documents if d.get("_id") == key)
        return StoreResult(rows=self._project(rows, request.projection), metrics=metrics)

    @staticmethod
    def _evaluate(document: Mapping[str, object], predicate: Predicate) -> bool:
        value = get_path(document, predicate.column)
        probe = {predicate.column: value}
        return predicate.evaluate(probe)

    @staticmethod
    def _project(
        documents: Iterable[Mapping[str, object]], projection: Sequence[str] | None
    ) -> list[dict[str, object]]:
        if projection is None:
            return [dict(document) for document in documents]
        return [
            {path: get_path(document, path) for path in projection} for document in documents
        ]
