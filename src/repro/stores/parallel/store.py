"""The simulated massively-parallel nested-relation store (Spark stand-in).

The store keeps each dataset hash-partitioned on a chosen column across a
configurable number of partitions, supports nested columns (bags of records,
as the paper's materialized purchases ⋈ browsing-history view requires), and
evaluates scans (narrowed by per-partition indexes), key lookups and joins
partition by partition.  Parallelism is *simulated*: the per-request metrics
report how many partitions the request used, without spawning real worker
processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain

from repro.errors import SchemaError, StoreError
from repro.stores.heap import RowHeap
from repro.stores.sharding import stable_hash
from repro.stores.base import (
    LookupRequest,
    ScanRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
)

__all__ = ["ParallelStore"]


class _Dataset:
    """One partitioned dataset: rows spread over hash partitions.

    Each partition is its own heap, carrying its own per-partition indexes.
    """

    def __init__(self, partition_column: str | None, partitions: int) -> None:
        self.partition_column = partition_column
        self.partitions: list[RowHeap] = [RowHeap() for _ in range(partitions)]

    def has_index(self, column: str) -> bool:
        """Whether ``column`` is indexed (every partition indexes alike)."""
        return self.partitions[0].index_on(column) is not None

    def partition_of(self, row: Mapping[str, object]) -> int:
        # A stable hash, not the per-process-salted builtin: partition
        # assignment (and the per-partition metrics derived from it) must be
        # reproducible across runs.
        if self.partition_column is None:
            return stable_hash(tuple(sorted((k, repr(v)) for k, v in row.items()))) % len(
                self.partitions
            )
        return stable_hash(row.get(self.partition_column)) % len(self.partitions)

    def __iter__(self) -> Iterator[dict[str, object]]:
        return chain.from_iterable(self.partitions)

    def __len__(self) -> int:
        return sum(len(partition) for partition in self.partitions)


class ParallelStore(Store):
    """A partitioned nested-relation DMS with simulated parallel evaluation."""

    def __init__(
        self, name: str = "parallel", default_partitions: int = 4, latency: float = 0.0
    ) -> None:
        super().__init__(name, latency=latency)
        if default_partitions < 1:
            raise StoreError("a parallel store needs at least one partition")
        self._default_partitions = default_partitions
        self._datasets: dict[str, _Dataset] = {}

    # -- dataset management ------------------------------------------------------
    def create_dataset(
        self, name: str, partition_column: str | None = None, partitions: int | None = None
    ) -> None:
        """Create a partitioned dataset."""
        if name in self._datasets:
            raise StoreError(f"dataset {name!r} already exists in store {self.name!r}")
        self._datasets[name] = _Dataset(partition_column, partitions or self._default_partitions)

    def insert(self, dataset: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Insert rows (records may contain nested lists of records)."""
        target = self._dataset(dataset)
        count = 0
        for row in rows:
            if not isinstance(row, Mapping):
                raise SchemaError("parallel store rows must be mappings")
            stored = dict(row)
            target.partitions[target.partition_of(stored)].append(stored)
            count += 1
        return count

    def create_index(self, dataset: str, column: str) -> None:
        """Create a per-partition hash index on ``column``."""
        target = self._dataset(dataset)
        for partition in target.partitions:
            partition.add_index(column)

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        target = self._dataset(collection)
        grouped: dict[int, list[Mapping[str, object]]] = {}
        for delete in deletes:
            grouped.setdefault(target.partition_of(delete), []).append(delete)
        # Locate every delete before removing any, so a refused delta leaves
        # every partition unchanged.
        owner = f"dataset {collection!r}"
        located = [
            (target.partitions[number], target.partitions[number].locate(records, owner))
            for number, records in grouped.items()
        ]
        deleted = sum(len(partition.delete(positions)) for partition, positions in located)
        return deleted + self.insert(collection, inserts)

    def truncate_collection(self, collection: str) -> None:
        for partition in self._dataset(collection).partitions:
            partition.clear()

    def _dataset(self, name: str) -> _Dataset:
        dataset = self._datasets.get(name)
        if dataset is None:
            raise StoreError(f"dataset {name!r} does not exist in store {self.name!r}")
        return dataset

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

    def collections(self) -> Sequence[str]:
        return tuple(self._datasets)

    def collection_size(self, collection: str) -> int:
        return len(self._dataset(collection))

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        dataset = self._dataset(collection)
        values = {repr(row.get(column)) for row in dataset}
        return {
            "count": len(dataset),
            "distinct": len(values),
            "indexed": dataset.has_index(column),
            "partitions": len(dataset.partitions),
        }

    # -- execution (native rows; stores/base.py shapes them) ---------------------------
    def _scan_candidates(self, request: ScanRequest):
        """Every non-empty partition, each narrowed by its own equality index."""
        dataset = self._dataset(request.collection)
        used = [number for number, partition in enumerate(dataset.partitions) if partition]
        metrics = StoreMetrics(partitions_used=len(used))
        indexed = next(
            (
                predicate
                for predicate in request.predicates
                if predicate.op == "=" and dataset.has_index(predicate.column)
            ),
            None,
        )
        if indexed is None:
            return dataset, None, metrics
        metrics.index_lookups += len(used)
        narrowed = []
        for number in used:
            partition = dataset.partitions[number]
            narrowed += partition.rows_at(
                partition.index_on(indexed.column).lookup(indexed.value)
            )
        return dataset, narrowed, metrics

    def _lookup_rows(self, request: LookupRequest):
        dataset = self._dataset(request.collection)
        column = dataset.partition_column
        if column is None:
            raise StoreError(
                f"dataset {request.collection!r} has no partition column; lookups need one"
            )
        metrics = StoreMetrics()
        rows: list[dict[str, object]] = []
        for key in request.keys:
            partition_number = stable_hash(key) % len(dataset.partitions)
            partition = dataset.partitions[partition_number]
            metrics.partitions_used = max(metrics.partitions_used, 1)
            metrics.index_lookups += 1
            index = partition.index_on(column)
            if index is not None:
                rows.extend(partition.rows_at(index.lookup(key)))
            else:
                metrics.rows_scanned += len(partition)
                rows.extend(row for row in partition if row.get(column) == key)
        return rows, metrics
