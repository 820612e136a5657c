"""Materializing fragments into their target stores.

Given a storage descriptor and the rows of the fragment (computed by
evaluating the fragment's definition over the source dataset), this module
writes the data into the descriptor's store using the store's native loading
API and the descriptor's layout (collection name and column mapping).  It is
used when a dataset is first fragmented and when the storage advisor's
recommendations are accepted.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.catalog.descriptors import StorageDescriptor
from repro.errors import CatalogError
from repro.stores.base import Store
from repro.stores.document import DocumentStore, unflatten_document
from repro.stores.fulltext import FullTextStore
from repro.stores.heap import HeapStore
from repro.stores.keyvalue import KeyValueStore
from repro.stores.parallel import ParallelStore
from repro.stores.relational import RelationalStore
from repro.stores.replicated import ReplicatedStore
from repro.stores.sharded import ShardedStore

__all__ = ["materialize_fragment"]


def _store_rows(
    descriptor: StorageDescriptor, rows: Iterable[Mapping[str, object]]
) -> list[dict[str, object]]:
    """Rename view columns to store columns according to the layout."""
    mapping = dict(descriptor.layout.column_mapping)
    if not mapping:
        return list(map(dict, rows))
    return [{mapping.get(column, column): value for column, value in row.items()} for row in rows]


def _load(store: HeapStore, collection: str, rows: list[dict[str, object]], replace: bool) -> int:
    """Append ``rows``, or swap them in for the collection's live rows."""
    if replace:
        store.replace_rows(collection, rows)
        return len(rows)
    return store.insert(collection, rows)


def materialize_fragment(
    store: Store,
    descriptor: StorageDescriptor,
    rows: Sequence[Mapping[str, object]],
    indexes: Sequence[str] = (),
    partitions: int | None = None,
    replace: bool = False,
) -> int:
    """Write ``rows`` (keyed by view column names) into the descriptor's store.

    ``indexes`` lists view columns to index after loading; ``partitions``
    overrides the partition count for parallel stores.  With ``replace`` the
    rows take the place of whatever the collection holds, in one delta per
    leaf store (a refused load leaves that store's rows as they were);
    otherwise they are appended.  Returns the number of rows written.
    """
    # Fault-injection wrappers are transparent for loading: write through to
    # the wrapped store so materialization cannot be dropped by the schedule.
    fault_target = getattr(store, "fault_target", None)
    if fault_target is not None:
        return materialize_fragment(
            fault_target, descriptor, rows, indexes=indexes, partitions=partitions,
            replace=replace,
        )

    if isinstance(store, ReplicatedStore):
        # Full-copy replication: every replica receives the whole fragment.
        written = 0
        for replica in store.replica_stores():
            written = materialize_fragment(
                replica, descriptor, rows, indexes=indexes, partitions=partitions,
                replace=replace,
            )
        return written

    collection = descriptor.layout.collection
    store_rows = _store_rows(descriptor, rows)
    view_columns = descriptor.view_columns()
    store_columns = [descriptor.layout.store_column(column) for column in view_columns]

    if isinstance(store, ShardedStore):
        spec = descriptor.sharding
        if spec is None:
            raise CatalogError(
                f"fragment {descriptor.fragment_name!r} targets sharded store "
                f"{store.name!r} but its descriptor carries no sharding spec"
            )
        if spec.shards != store.shard_count:
            raise CatalogError(
                f"fragment {descriptor.fragment_name!r} declares {spec.shards} shards "
                f"but store {store.name!r} has {store.shard_count}"
            )
        # The router can only route a LookupRequest's keys through the
        # sharding spec — it has no column information — so a lookup fragment
        # must be keyed by exactly the shard key, or every probe would hash a
        # foreign value into the wrong shard and silently return nothing.
        if descriptor.access.kind == "lookup" and (
            len(descriptor.access.key_columns) != 1
            or descriptor.access.key_columns[0] != spec.shard_key
        ):
            raise CatalogError(
                f"lookup fragment {descriptor.fragment_name!r} in sharded store "
                f"{store.name!r} must use its shard key {spec.shard_key!r} as the "
                f"single lookup key, got {descriptor.access.key_columns!r}"
            )
        # The spec on the descriptor routes on the *view* column; the router
        # sees store-side rows, so register it under the store-side name.
        store.set_sharding(collection, spec.renamed(descriptor.layout.store_column(spec.shard_key)))
        # Route on the view rows, then materialize each slice into its child
        # store recursively — every shard gets the collection created (and
        # indexed) even when it receives no rows.
        sliced: list[list[Mapping[str, object]]] = [[] for _ in range(store.shard_count)]
        for row in rows:
            sliced[spec.route(row.get(spec.shard_key))].append(row)
        written = 0
        for index, shard_rows in enumerate(sliced):
            written += materialize_fragment(
                store.shard(index), descriptor, shard_rows, indexes=indexes,
                partitions=partitions, replace=replace,
            )
        return written

    if isinstance(store, RelationalStore):
        key_columns = [
            descriptor.layout.store_column(column) for column in descriptor.access.key_columns
        ]
        if collection not in store.collections():
            store.create_table(collection, store_columns, primary_key=key_columns)
        written = _load(store, collection, store_rows, replace)
        for column in indexes:
            store.create_index(collection, descriptor.layout.store_column(column))
        return written

    if isinstance(store, DocumentStore):
        if any("." in column for column in store_columns):
            store_rows = list(map(unflatten_document, store_rows))
        store.create_collection(collection)
        written = _load(store, collection, store_rows, replace)
        for column in indexes:
            store.create_index(collection, descriptor.layout.store_column(column))
        return written

    if isinstance(store, KeyValueStore):
        key_column = descriptor.layout.store_column(
            (descriptor.access.key_columns or view_columns)[0]
        )
        store.create_collection(collection, key_column=key_column)
        # A key repeated among the rows, or already live, refuses the load.
        return _load(store, collection, store_rows, replace)

    if isinstance(store, ParallelStore):
        partition_column = None
        if descriptor.access.key_columns:
            partition_column = descriptor.layout.store_column(descriptor.access.key_columns[0])
        if collection not in store.collections():
            store.create_dataset(collection, partition_column=partition_column, partitions=partitions)
        written = _load(store, collection, store_rows, replace)
        for column in indexes:
            store.create_index(collection, descriptor.layout.store_column(column))
        return written

    if isinstance(store, FullTextStore):
        indexed_fields = [descriptor.layout.store_column(column) for column in indexes] or store_columns
        if collection not in store.collections():
            store.create_collection(collection, indexed_fields=indexed_fields)
        return _load(store, collection, store_rows, replace)

    raise CatalogError(
        f"do not know how to materialize into store type {type(store).__name__}"
    )
