"""The simulated massively-parallel nested-relation store (Spark stand-in).

The store keeps each dataset hash-partitioned on a chosen column across a
configurable number of partitions, supports nested columns (bags of records,
as the paper's materialized purchases ⋈ browsing-history view requires), and
evaluates scans, key lookups, joins and simple aggregations partition by
partition.  Parallelism is *simulated*: the per-request metrics report the
maximum per-partition work (the critical path) in addition to the total work,
so benchmarks can show the effect of delegating a large sub-query to a
parallel system without spawning real worker processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Callable

from repro.errors import DeltaError, SchemaError, StoreError, UnsupportedOperationError
from repro.stores.sharding import stable_hash
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

    def all_rows(self) -> Iterable[dict[str, object]]:
        for partition in self.partitions:
            yield from partition

    def size(self) -> int:
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
        return self._dataset(collection).size()

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        dataset = self._dataset(collection)
        values = {repr(row.get(column)) for row in dataset.all_rows()}
        return {
            "count": dataset.size(),
            "distinct": len(values),
            "indexed": column in dataset.indexes,
            "partitions": len(dataset.partitions),
        }

    # -- execution ---------------------------------------------------------------------
    def _execute(self, request: StoreRequest) -> StoreResult:
        if isinstance(request, ScanRequest):
            return self._execute_scan(request)
        if isinstance(request, LookupRequest):
            return self._execute_lookup(request)
        if isinstance(request, JoinRequest):
            return self._execute_join(request)
        if isinstance(request, SearchRequest):
            raise self._reject("full-text search")
        raise UnsupportedOperationError(f"unknown request type {type(request).__name__}")

    def _execute_scan(self, request: ScanRequest) -> StoreResult:
        dataset = self._dataset(request.collection)
        metrics = StoreMetrics()
        rows: list[dict[str, object]] = []

        equality_columns = {
            predicate.column: predicate.value
            for predicate in request.predicates
            if predicate.op == "="
        }
        indexed_column = next(
            (column for column in equality_columns if column in dataset.indexes), None
        )

        for partition_number, partition in enumerate(dataset.partitions):
            if not partition:
                continue
            metrics.partitions_used += 1
            if indexed_column is not None:
                index = dataset.indexes[indexed_column][partition_number]
                positions = index.get(equality_columns[indexed_column], ())
                metrics.index_lookups += 1
                candidates = [partition[p] for p in positions]
                metrics.rows_scanned += len(candidates)
            else:
                candidates = partition
                metrics.rows_scanned += len(partition)
            rows.extend(
                row
                for row in candidates
                if all(predicate.evaluate(row) for predicate in request.predicates)
            )
        if request.limit is not None:
            rows = rows[: request.limit]
        return StoreResult(rows=self._apply_projection(rows, request.projection), metrics=metrics)

    def _execute_lookup(self, request: LookupRequest) -> StoreResult:
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
        return StoreResult(rows=self._apply_projection(rows, request.projection), metrics=metrics)

    def _execute_join(self, request: JoinRequest) -> StoreResult:
        left_result = self._execute(request.left)
        right_result = self._execute(request.right)
        metrics = left_result.metrics.merge(right_result.metrics)
        if not request.on:
            raise StoreError("parallel join requires at least one equality column pair")
        build: dict[tuple, list[dict[str, object]]] = {}
        for row in right_result.rows:
            key = tuple(row.get(right_column) for _, right_column in request.on)
            build.setdefault(key, []).append(row)
        joined: list[dict[str, object]] = []
        for row in left_result.rows:
            key = tuple(row.get(left_column) for left_column, _ in request.on)
            for match in build.get(key, ()):
                merged = dict(match)
                merged.update(row)
                joined.append(merged)
        metrics.rows_scanned += len(left_result.rows) + len(right_result.rows)
        return StoreResult(rows=self._apply_projection(joined, request.projection), metrics=metrics)

    # -- map/reduce style helpers (used by examples and the advisor) ----------------------
    def map_partitions(
        self, dataset: str, function: Callable[[Sequence[Mapping[str, object]]], list[dict[str, object]]]
    ) -> list[dict[str, object]]:
        """Apply ``function`` to every partition and concatenate the results."""
        target = self._dataset(dataset)
        output: list[dict[str, object]] = []
        for partition in target.partitions:
            output.extend(function(partition))
        return output

    def aggregate(
        self,
        dataset: str,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]],
    ) -> list[dict[str, object]]:
        """Grouped aggregation: ``aggregations`` maps output name to (function, column).

        Supported functions: ``count``, ``sum``, ``avg``, ``min``, ``max``.
        Computed with per-partition partial aggregates followed by a merge,
        mirroring how a BSP engine would execute it.
        """
        partials: dict[tuple, dict[str, object]] = {}
        target = self._dataset(dataset)
        for partition in target.partitions:
            for row in partition:
                group = tuple(row.get(column) for column in group_by)
                state = partials.setdefault(group, {})
                for output, (function, column) in aggregations.items():
                    value = row.get(column)
                    if function == "count":
                        state[output] = state.get(output, 0) + 1
                    elif function == "sum":
                        state[output] = state.get(output, 0) + (value or 0)
                    elif function == "avg":
                        total, count = state.get(output, (0, 0))
                        state[output] = (total + (value or 0), count + 1)
                    elif function == "min":
                        current = state.get(output)
                        state[output] = value if current is None else min(current, value)
                    elif function == "max":
                        current = state.get(output)
                        state[output] = value if current is None else max(current, value)
                    else:
                        raise UnsupportedOperationError(
                            f"unsupported aggregation function {function!r}"
                        )
        results: list[dict[str, object]] = []
        for group, state in partials.items():
            row = dict(zip(group_by, group))
            for output, (function, _) in aggregations.items():
                if function == "avg":
                    total, count = state[output]
                    row[output] = total / count if count else None
                else:
                    row[output] = state[output]
            results.append(row)
        return results
