"""The simulated full-text store (SOLR stand-in).

Documents are indexed field-by-field into an inverted index; search requests
are ranked with TF-IDF.  The store also answers plain equality scans on
stored fields (SOLR can filter on stored fields), but it does not join and it
does not aggregate — those operations stay with the ESTOCADA runtime.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.errors import StoreError
from repro.stores.base import (
    ScanRequest,
    SearchRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
)
from repro.stores.fulltext.analyzer import Analyzer
from repro.stores.heap import RowHeap

__all__ = ["FullTextStore"]


class _Collection:
    """One indexed collection: stored documents plus the inverted index.

    Postings and lengths key on heap positions, which stay stable across
    deletes; a heap compaction remaps them through :meth:`_moved`.
    """

    def __init__(self, indexed_fields: tuple[str, ...]) -> None:
        self.indexed_fields = indexed_fields
        self.documents = RowHeap(on_compact=self._moved)
        # token -> {document position -> term frequency}
        self.postings: dict[str, dict[int, int]] = {}
        # document position -> token count (holes keep their stale entry)
        self.lengths: list[int] = []

    def _moved(self, moved) -> None:
        lengths = [0] * len(self.documents)
        for old, new in enumerate(moved):
            if new >= 0:
                lengths[new] = self.lengths[old]
        self.lengths = lengths
        for token, postings in self.postings.items():
            self.postings[token] = {moved[old]: frequency for old, frequency in postings.items()}


class FullTextStore(Store):
    """An in-memory full-text DMS with TF-IDF ranked search."""

    def __init__(
        self, name: str = "fulltext", analyzer: Analyzer | None = None, latency: float = 0.0
    ) -> None:
        super().__init__(name, latency=latency)
        self._analyzer = analyzer or Analyzer()
        self._collections: dict[str, _Collection] = {}

    # -- indexing ---------------------------------------------------------------
    def create_collection(self, name: str, indexed_fields: Sequence[str] = ()) -> None:
        """Create a collection; ``indexed_fields`` selects the searchable fields."""
        if name in self._collections:
            raise StoreError(f"collection {name!r} already exists in store {self.name!r}")
        self._collections[name] = _Collection(tuple(indexed_fields))

    def insert(self, collection: str, documents: Iterable[Mapping[str, object]]) -> int:
        """Index documents into a collection."""
        bucket = self._bucket(collection)
        count = 0
        for document in documents:
            stored = dict(document)
            position = bucket.documents.append(stored)
            tokens = self._analyzer.analyze_fields(stored, bucket.indexed_fields)
            bucket.lengths.append(len(tokens))
            for token, frequency in Counter(tokens).items():
                bucket.postings.setdefault(token, {})[position] = frequency
            count += 1
        return count

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        bucket = self._bucket(collection)
        documents = bucket.documents
        positions = documents.locate(deletes, f"collection {collection!r}")
        postings = bucket.postings
        for position in positions:
            # Unpost the document before the heap may compact and remap.
            stored = documents.at(position)
            for token in set(self._analyzer.analyze_fields(stored, bucket.indexed_fields)):
                token_postings = postings[token]
                del token_postings[position]
                if not token_postings:
                    del postings[token]
        documents.delete(positions)
        return len(positions) + self.insert(collection, inserts)

    def truncate_collection(self, collection: str) -> None:
        bucket = self._bucket(collection)
        bucket.documents.clear()
        bucket.postings = {}
        bucket.lengths = []

    def _bucket(self, collection: str) -> _Collection:
        bucket = self._collections.get(collection)
        if bucket is None:
            raise StoreError(f"collection {collection!r} does not exist in store {self.name!r}")
        return bucket

    # -- store interface -------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="fulltext",
            supports_scan=True,
            supports_selection=True,
            supports_projection=True,
            supports_join=False,
            supports_aggregation=False,
            supports_key_lookup=False,
            requires_key_lookup=False,
            supports_text_search=True,
            supports_nested_results=False,
            parallel=False,
        )

    def collections(self) -> Sequence[str]:
        return tuple(self._collections)

    def collection_size(self, collection: str) -> int:
        return len(self._bucket(collection).documents)

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        bucket = self._bucket(collection)
        values = {repr(document.get(column)) for document in bucket.documents}
        return {
            "count": len(bucket.documents),
            "distinct": len(values),
            "indexed": column in bucket.indexed_fields,
        }

    # -- execution (native rows; stores/base.py shapes them) ---------------------------
    def _scan_candidates(self, request: ScanRequest):
        """Plain field scans walk the stored documents (no index narrows them)."""
        return self._bucket(request.collection).documents, None, StoreMetrics()

    def _search_rows(self, request: SearchRequest):
        """TF-IDF ranked hits, best first: scored copies of the documents."""
        bucket = self._bucket(request.collection)
        metrics = StoreMetrics()
        query_tokens = self._analyzer.tokenize(request.text)
        if not query_tokens:
            return [], metrics
        total_documents = max(len(bucket.documents), 1)
        scores: dict[int, float] = {}
        for token in query_tokens:
            postings = bucket.postings.get(token)
            if not postings:
                continue
            metrics.index_lookups += 1
            inverse_document_frequency = math.log(
                (1 + total_documents) / (1 + len(postings))
            ) + 1.0
            for position, frequency in postings.items():
                length = bucket.lengths[position] or 1
                term_frequency = frequency / length
                scores[position] = scores.get(position, 0.0) + term_frequency * inverse_document_frequency
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        if request.limit is not None:
            ranked = ranked[: request.limit]
        rows: list[dict[str, object]] = []
        for position, score in ranked:
            row = dict(bucket.documents.at(position))
            row["_score"] = round(score, 6)
            rows.append(row)
        metrics.rows_scanned = len(scores)
        return rows, metrics
