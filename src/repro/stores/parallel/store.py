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

from repro.errors import DeltaError, SchemaError, StoreError
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
    """One partitioned dataset: rows spread over hash partitions."""

    def __init__(self, partition_column: str | None, partitions: int) -> None:
        self.partition_column = partition_column
        self.partitions: list[list[dict[str, object]]] = [[] for _ in range(partitions)]
        self.indexes: dict[str, list[dict[object, list[int]]]] = {}

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

    def drop_dataset(self, name: str) -> None:
        """Drop a dataset."""
        if name not in self._datasets:
            raise StoreError(f"dataset {name!r} does not exist in store {self.name!r}")
        del self._datasets[name]

    def insert(self, dataset: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Insert rows (records may contain nested lists of records)."""
        target = self._dataset(dataset)
        count = 0
        for row in rows:
            if not isinstance(row, Mapping):
                raise SchemaError("parallel store rows must be mappings")
            stored = dict(row)
            partition = target.partition_of(stored)
            position = len(target.partitions[partition])
            target.partitions[partition].append(stored)
            for column, partition_indexes in target.indexes.items():
                partition_indexes[partition].setdefault(stored.get(column), []).append(position)
            count += 1
        return count

    def create_index(self, dataset: str, column: str) -> None:
        """Create a per-partition hash index on ``column``."""
        target = self._dataset(dataset)
        partition_indexes: list[dict[object, list[int]]] = []
        for partition in target.partitions:
            index: dict[object, list[int]] = {}
            for position, row in enumerate(partition):
                index.setdefault(row.get(column), []).append(position)
            partition_indexes.append(index)
        target.indexes[column] = partition_indexes

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        target = self._dataset(collection)
        touched_partitions: set[int] = set()
        taken: dict[int, set[int]] = {}
        doomed: dict[int, list[int]] = {}
        for delete in deletes:
            record = dict(delete)
            partition_number = target.partition_of(record)
            partition = target.partitions[partition_number]
            claimed = taken.setdefault(partition_number, set())
            match = None
            for position, stored in enumerate(partition):
                if position not in claimed and stored == record:
                    match = position
                    break
            if match is None:
                raise DeltaError(
                    f"dataset {collection!r}: delete of {record!r} matches no row"
                )
            claimed.add(match)
            doomed.setdefault(partition_number, []).append(match)
        for partition_number, positions in doomed.items():
            partition = target.partitions[partition_number]
            for position in sorted(positions, reverse=True):
                del partition[position]
            touched_partitions.add(partition_number)
        # Per-partition indexes are positional; rebuild the touched partitions.
        for column, partition_indexes in target.indexes.items():
            for partition_number in touched_partitions:
                index: dict[object, list[int]] = {}
                for position, row in enumerate(target.partitions[partition_number]):
                    index.setdefault(row.get(column), []).append(position)
                partition_indexes[partition_number] = index
        deleted = sum(len(positions) for positions in doomed.values())
        return deleted + self.insert(collection, inserts)

    def truncate_collection(self, collection: str) -> None:
        target = self._dataset(collection)
        target.partitions = [[] for _ in target.partitions]
        for column in target.indexes:
            target.indexes[column] = [{} for _ in target.partitions]

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
            supports_projection=True,
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
            "indexed": column in dataset.indexes,
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
                if predicate.op == "=" and predicate.column in dataset.indexes
            ),
            None,
        )
        if indexed is None:
            return dataset, None, metrics
        metrics.index_lookups += len(used)
        indexes = dataset.indexes[indexed.column]
        narrowed = [
            dataset.partitions[number][position]
            for number in used
            for position in indexes[number].get(indexed.value, ())
        ]
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
            index = dataset.indexes.get(column)
            if index is not None:
                rows.extend(partition[p] for p in index[partition_number].get(key, ()))
            else:
                metrics.rows_scanned += len(partition)
                rows.extend(row for row in partition if row.get(column) == key)
        return rows, metrics
