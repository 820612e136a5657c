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

from repro.errors import DeltaError, StoreError, UnsupportedOperationError
from repro.stores.base import (
    JoinRequest,
    LookupRequest,
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
from repro.stores.fulltext.analyzer import Analyzer

__all__ = ["FullTextStore"]


class _Collection:
    """One indexed collection: stored documents plus the inverted index."""

    def __init__(self, indexed_fields: tuple[str, ...]) -> None:
        self.indexed_fields = indexed_fields
        self.documents: list[dict[str, object]] = []
        # token -> {document position -> term frequency}
        self.postings: dict[str, dict[int, int]] = {}
        self.lengths: list[int] = []


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
            position = len(bucket.documents)
            bucket.documents.append(stored)
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
        doomed: list[int] = []
        taken: set[int] = set()
        for delete in deletes:
            record = dict(delete)
            match = None
            for position, stored in enumerate(bucket.documents):
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
            del bucket.documents[position]
        # Postings key on document positions; rebuild the inverted index.
        self._reindex(bucket)
        return len(doomed) + self.insert(collection, inserts)

    def truncate_collection(self, collection: str) -> None:
        bucket = self._bucket(collection)
        bucket.documents = []
        self._reindex(bucket)

    def _reindex(self, bucket: _Collection) -> None:
        bucket.postings = {}
        bucket.lengths = []
        for position, stored in enumerate(bucket.documents):
            tokens = self._analyzer.analyze_fields(stored, bucket.indexed_fields)
            bucket.lengths.append(len(tokens))
            for token, frequency in Counter(tokens).items():
                bucket.postings.setdefault(token, {})[position] = frequency

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

    # -- execution -----------------------------------------------------------------------
    def _execute(self, request: StoreRequest) -> StoreResult:
        if isinstance(request, SearchRequest):
            return self._execute_search(request)
        if isinstance(request, ScanRequest):
            return self._execute_scan(request)
        if isinstance(request, LookupRequest):
            raise self._reject("key lookups")
        if isinstance(request, JoinRequest):
            raise self._reject("joins")
        raise UnsupportedOperationError(f"unknown request type {type(request).__name__}")

    def _execute_search(self, request: SearchRequest) -> StoreResult:
        bucket = self._bucket(request.collection)
        metrics = StoreMetrics()
        query_tokens = self._analyzer.tokenize(request.text)
        if not query_tokens:
            return StoreResult(rows=[], metrics=metrics)
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
            row = dict(bucket.documents[position])
            row["_score"] = round(score, 6)
            rows.append(row)
        metrics.rows_scanned = len(scores)
        return StoreResult(rows=rows, metrics=metrics)

    def _execute_batches(self, request: StoreRequest, columns, batch_size: int):
        """Native batch scans over the stored documents.

        Search requests keep the dict adapter (ranking materializes scored
        copies anyway); plain field scans build row tuples directly, with the
        predicates, limit and metrics of :meth:`_execute_scan`.
        """
        if not isinstance(request, ScanRequest):
            return super()._execute_batches(request, columns, batch_size)
        bucket = self._bucket(request.collection)
        metrics = StoreMetrics(rows_scanned=len(bucket.documents))
        kept = kept_rows(bucket.documents, request.predicates, request.limit)
        return row_batches(kept, columns, batch_size), metrics

    def _execute_scan(self, request: ScanRequest) -> StoreResult:
        bucket = self._bucket(request.collection)
        metrics = StoreMetrics(rows_scanned=len(bucket.documents))
        kept = kept_rows(bucket.documents, request.predicates, request.limit)
        return StoreResult(rows=self._apply_projection(kept, request.projection), metrics=metrics)
