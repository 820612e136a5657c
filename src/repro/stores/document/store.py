"""The simulated document store (MongoDB stand-in).

Collections hold JSON-like documents (nested dictionaries and lists).  The
store answers path-predicate scans and single-field index lookups, and it can
project dotted paths — but, like most document stores, it does **not** support
joins: joins across collections (or with other stores) must be evaluated by
the ESTOCADA runtime, which is exactly the behaviour the paper relies on when
discussing non-delegated operations.  Rows, indexes and durability live in
:class:`~repro.stores.heap.HeapStore`; a document store adds dotted-path
reads, collections created on demand and lookups by ``_id``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import SchemaError
from repro.stores.base import StoreCapabilities
from repro.stores.heap import HeapStore

__all__ = ["DocumentStore", "get_path", "flatten_document", "unflatten_document"]


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


def unflatten_document(flat: Mapping[str, object]) -> dict[str, object]:
    """Nest dotted keys into sub-documents: the inverse of :func:`flatten_document`.

    ``{"k": 1, "attrs.x": 2}`` becomes ``{"k": 1, "attrs": {"x": 2}}``, so
    :func:`get_path` reads each dotted key back.  A key that is both a value
    and the prefix of another key (``"a"`` and ``"a.b"``) raises
    :class:`~repro.errors.SchemaError`.
    """
    nested: dict[str, object] = {}
    for path, value in flat.items():
        *parents, leaf = path.split(".")
        target = nested
        for segment in parents:
            target = target.setdefault(segment, {})
            if not isinstance(target, dict):
                raise SchemaError(f"document key {path!r} runs through a value")
        if leaf in target:
            raise SchemaError(f"document key {path!r} is also a sub-document")
        target[leaf] = value
    return nested


class DocumentStore(HeapStore):
    """An in-memory document DMS with path predicates and single-field indexes."""

    def __init__(self, name: str = "document", latency: float = 0.0) -> None:
        super().__init__(name, latency=latency)

    def create_collection(self, name: str) -> None:
        """Create an empty collection (idempotent)."""
        if name not in self._heaps:
            self._create(name, {})

    def insert(self, collection: str, documents: Iterable[Mapping[str, object]]) -> int:
        """Insert documents into a collection (created on demand)."""
        self.create_collection(collection)
        return super().insert(collection, documents)

    @staticmethod
    def _reader_of(column: str):
        """Dotted paths walk the document; other columns are top-level keys."""
        return get_path if "." in column else dict.get

    def _lookup_column(self, collection: str) -> str:
        """Documents are looked up by their ``_id`` by convention."""
        return "_id"

    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="document",
            supports_scan=True,
            supports_selection=True,
            supports_join=False,
            supports_aggregation=False,
            supports_key_lookup=True,
            requires_key_lookup=False,
            supports_text_search=False,
            supports_nested_results=True,
            parallel=False,
        )
