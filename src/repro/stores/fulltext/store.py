"""The simulated full-text store (SOLR stand-in).

Documents are indexed field-by-field into an inverted index; search requests
are ranked with TF-IDF.  The store also answers plain equality scans on
stored fields (SOLR can filter on stored fields), but it does not join and it
does not aggregate — those operations stay with the ESTOCADA runtime.
Stored documents and their durability live in
:class:`~repro.stores.heap.HeapStore`; the inverted index follows the heap
through its added-rows, removed-rows and compaction hooks.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from typing import Sequence

from repro.stores.base import SearchRequest, StoreCapabilities, StoreMetrics
from repro.stores.fulltext.analyzer import Analyzer
from repro.stores.heap import HeapStore, RowHeap

__all__ = ["FullTextStore"]


class FullTextStore(HeapStore):
    """An in-memory full-text DMS with TF-IDF ranked search.

    Postings and lengths key on heap positions, which stay stable across
    deletes; a heap compaction remaps them through :meth:`_moved`.
    """

    def __init__(
        self, name: str = "fulltext", analyzer: Analyzer | None = None, latency: float = 0.0
    ) -> None:
        super().__init__(name, latency=latency)
        self._analyzer = analyzer or Analyzer()
        # collection -> token -> {document position -> term frequency}
        self._postings: dict[str, dict[str, dict[int, int]]] = {}
        # collection -> document position -> token count (holes keep their stale entry)
        self._lengths: dict[str, list[int]] = {}

    def create_collection(self, name: str, indexed_fields: Sequence[str] = ()) -> None:
        """Create a collection; ``indexed_fields`` selects the searchable fields."""
        self._create(name, {"indexed_fields": tuple(indexed_fields)})

    # -- the inverted index -----------------------------------------------------------
    def _new_heap(self, collection: str) -> RowHeap:
        self._postings[collection] = {}
        self._lengths[collection] = []
        # A weak callback: the heap is the store's, and a cycle through it
        # would keep a dropped store (and its rows) alive.
        moved = weakref.WeakMethod(self._moved)
        return RowHeap(self._reader_of, on_compact=lambda positions: moved()(collection, positions))

    def _tokens(self, collection: str, document: dict[str, object]) -> list[str]:
        fields = self._meta[collection]["indexed_fields"]
        return self._analyzer.analyze_fields(document, fields)

    def _rows_added(self, collection: str, heap: RowHeap, positions: list[int]) -> None:
        postings = self._postings[collection]
        lengths = self._lengths[collection]
        for position in positions:
            tokens = self._tokens(collection, heap.at(position))
            lengths.append(len(tokens))
            for token, frequency in Counter(tokens).items():
                postings.setdefault(token, {})[position] = frequency

    def _rows_removed(self, collection: str, heap: RowHeap, positions: list[int]) -> None:
        postings = self._postings[collection]
        for position in positions:
            for token in set(self._tokens(collection, heap.at(position))):
                token_postings = postings[token]
                del token_postings[position]
                if not token_postings:
                    del postings[token]

    def _moved(self, collection: str, moved: Sequence[int]) -> None:
        old_lengths = self._lengths[collection]
        lengths = [0] * len(self._heaps[collection])
        for old, new in enumerate(moved):
            if new >= 0:
                lengths[new] = old_lengths[old]
        self._lengths[collection] = lengths
        postings = self._postings[collection]
        for token, token_postings in postings.items():
            postings[token] = {moved[old]: frequency for old, frequency in token_postings.items()}

    # -- store interface -------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="fulltext",
            supports_scan=True,
            supports_selection=True,
            supports_join=False,
            supports_aggregation=False,
            supports_key_lookup=False,
            requires_key_lookup=False,
            supports_text_search=True,
            supports_nested_results=False,
            parallel=False,
        )

    def _search_rows(self, request: SearchRequest):
        """TF-IDF ranked hits, best first: scored copies of the documents."""
        documents = self.rows(request.collection)
        postings = self._postings[request.collection]
        lengths = self._lengths[request.collection]
        metrics = StoreMetrics()
        query_tokens = self._analyzer.tokenize(request.text)
        if not query_tokens:
            return [], metrics
        total_documents = max(len(documents), 1)
        scores: dict[int, float] = {}
        for token in query_tokens:
            token_postings = postings.get(token)
            if not token_postings:
                continue
            metrics.index_lookups += 1
            inverse_document_frequency = math.log(
                (1 + total_documents) / (1 + len(token_postings))
            ) + 1.0
            for position, frequency in token_postings.items():
                term_frequency = frequency / (lengths[position] or 1)
                scores[position] = scores.get(position, 0.0) + term_frequency * inverse_document_frequency
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        if request.limit is not None:
            ranked = ranked[: request.limit]
        rows: list[dict[str, object]] = []
        for position, score in ranked:
            row = dict(documents.at(position))
            row["_score"] = round(score, 6)
            rows.append(row)
        metrics.rows_scanned = len(scores)
        return rows, metrics
