"""The simulated massively-parallel nested-relation store (Spark stand-in).

The store spreads each dataset over a configurable number of hash partitions
on a chosen column, supports nested columns (bags of records, as the paper's
materialized purchases ⋈ browsing-history view requires), and evaluates
scans (narrowed by indexes), key lookups and joins.  Parallelism is
*simulated*: a dataset's rows live in one heap (see
:class:`~repro.stores.heap.HeapStore`), and the store keeps a live-row count
per partition so that per-request metrics report how many partitions a
request used, without spawning real worker processes.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import StoreError
from repro.stores.base import LookupRequest, ScanRequest, StoreCapabilities
from repro.stores.heap import HeapStore, RowHeap
from repro.stores.sharding import stable_hash

__all__ = ["ParallelStore"]


class ParallelStore(HeapStore):
    """A partitioned nested-relation DMS with simulated parallel evaluation."""

    _noun = "dataset"

    def __init__(
        self, name: str = "parallel", default_partitions: int = 4, latency: float = 0.0
    ) -> None:
        super().__init__(name, latency=latency)
        if default_partitions < 1:
            raise StoreError("a parallel store needs at least one partition")
        self._default_partitions = default_partitions
        # dataset -> live rows per partition
        self._partition_rows: dict[str, list[int]] = {}

    def create_dataset(
        self, name: str, partition_column: str | None = None, partitions: int | None = None
    ) -> None:
        """Create a dataset hash-partitioned on ``partition_column``."""
        self._create(
            name,
            {
                "partition_column": partition_column,
                "partitions": partitions or self._default_partitions,
            },
        )

    def _partition_of(self, dataset: str, row: Mapping[str, object]) -> int:
        # A stable hash, not the per-process-salted builtin: partition
        # assignment (and the per-partition metrics derived from it) must be
        # reproducible across runs.
        meta = self._meta[dataset]
        column = meta["partition_column"]
        if column is None:
            value = tuple(sorted((k, repr(v)) for k, v in row.items()))
        else:
            value = row.get(column)
        return stable_hash(value) % meta["partitions"]

    def _new_heap(self, collection: str) -> RowHeap:
        self._partition_rows[collection] = [0] * self._meta[collection]["partitions"]
        return super()._new_heap(collection)

    def _rows_added(self, collection: str, heap: RowHeap, positions: list[int]) -> None:
        counts = self._partition_rows[collection]
        for position in positions:
            counts[self._partition_of(collection, heap.at(position))] += 1

    def _rows_removed(self, collection: str, heap: RowHeap, positions: list[int]) -> None:
        counts = self._partition_rows[collection]
        for position in positions:
            counts[self._partition_of(collection, heap.at(position))] -= 1

    def _lookup_column(self, collection: str) -> str:
        column = self._meta[collection]["partition_column"]
        if column is None:
            raise StoreError(f"dataset {collection!r} has no partition column; lookups need one")
        return column

    # -- store interface -----------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(
            name=self.name,
            data_model="nested",
            supports_scan=True,
            supports_selection=True,
            supports_join=True,
            supports_aggregation=True,
            supports_key_lookup=True,
            requires_key_lookup=False,
            supports_text_search=False,
            supports_nested_results=True,
            parallel=True,
        )

    def _scan_candidates(self, request: ScanRequest):
        """A scan uses every partition holding a live row."""
        heap, narrowed, metrics = super()._scan_candidates(request)
        metrics.partitions_used = sum(map(bool, self._partition_rows[request.collection]))
        return heap, narrowed, metrics

    def _lookup_rows(self, request: LookupRequest):
        """A lookup uses the partitions its keys hash to."""
        rows, metrics = super()._lookup_rows(request)
        partitions = self._meta[request.collection]["partitions"]
        metrics.partitions_used = len({stable_hash(key) % partitions for key in request.keys})
        return rows, metrics
