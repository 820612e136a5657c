"""Unit tests for the sharding subsystem: spec routing, the router store,
shard-aware statistics and the shard-aware cost model."""

from __future__ import annotations

import zlib

import pytest

from repro.catalog import (
    AccessMethod,
    ShardingSpec,
    StatisticsCatalog,
    StorageDescriptor,
    StorageDescriptorManager,
    StorageLayout,
)
from repro.catalog.materialize import materialize_fragment
from repro.core import Atom, ConjunctiveQuery, Constant, ViewDefinition
from repro.cost import CostModel
from repro.errors import CatalogError, StoreError
from repro.stores import (
    DocumentStore,
    ParallelStore,
    Predicate,
    RelationalStore,
    ScanRequest,
    ShardedStore,
    stable_hash,
)
from repro.stores.base import LookupRequest
from repro.translation.grouping import resolve_atoms


def _sharded_relational(name="shardpg", shards=4, latency=0.0):
    return ShardedStore.homogeneous(
        name, shards, lambda child: RelationalStore(child, latency=latency)
    )


def _descriptor(store_name="shardpg", shards=4, strategy="hash", boundaries=()):
    view = ViewDefinition(
        "F_orders",
        ConjunctiveQuery("F_orders", ["?u", "?t"], [Atom("orders", ["?u", "?t"])]),
        column_names=("uid", "total"),
    )
    return StorageDescriptor(
        "F_orders", "shop", store_name, view, StorageLayout("orders"),
        AccessMethod("scan"),
        sharding=ShardingSpec("uid", shards, strategy=strategy, boundaries=boundaries),
    )


class TestStableHash:
    def test_matches_crc32_of_canonical_encoding(self):
        # The contract other components rely on: CRC-32 over "type:repr".
        assert stable_hash(5) == zlib.crc32(b"int:5")
        assert stable_hash("5") == zlib.crc32(b"str:'5'")

    def test_equal_comparing_numerics_route_together(self):
        # Store predicates compare with ==, so 7 and 7.0 must land in (and
        # prune to) the same shard or point queries would lose rows.
        assert stable_hash(1) == stable_hash(True) == stable_hash(1.0)
        assert stable_hash(7) == stable_hash(7.0)
        assert stable_hash(7.5) != stable_hash(7)
        assert stable_hash(1) != stable_hash("1")

    def test_cross_type_point_query_never_loses_rows(self):
        # End-to-end guard for the ==-equivalence routing contract: float
        # keys in the data, int constant in the query.
        spec = ShardingSpec("uid", 4)
        assert spec.route(7) == spec.route(7.0)
        assert spec.shards_for_predicate("=", 7) == spec.shards_for_predicate("=", 7.0)

    def test_parallel_store_partitioning_uses_stable_hash(self):
        # The old implementation used the per-process-salted builtin hash():
        # partition placement was not reproducible across runs.  Keyed and
        # keyless rows must both route through the stable hash now.
        store = ParallelStore("spark", default_partitions=4)
        store.create_dataset("keyed", partition_column="uid")
        assert store._partition_of("keyed", {"uid": 17}) == stable_hash(17) % 4
        store.create_dataset("keyless")
        partition_of = store._partition_of
        assert partition_of("keyless", {"a": 1, "b": "x"}) == partition_of("keyless", {"b": "x", "a": 1})


class TestShardingSpec:
    def test_hash_equality_routes_to_one_shard(self):
        spec = ShardingSpec("uid", 8)
        assert spec.shards_for_predicate("=", 42) == (stable_hash(42) % 8,)
        assert len(spec.all_shards()) == 8

    def test_range_strategy_prunes_intervals(self):
        spec = ShardingSpec("price", 4, strategy="range", boundaries=(10, 20, 30))
        assert spec.route(5) == 0 and spec.route(10) == 1 and spec.route(99) == 3
        assert spec.shards_for_predicate("<", 15) == (0, 1)
        assert spec.shards_for_predicate(">=", 20) == (2, 3)
        assert spec.shards_for_predicates([(">", 10), ("<", 25)]) == (1, 2)

    def test_hash_strategy_cannot_prune_ranges(self):
        spec = ShardingSpec("uid", 4)
        assert spec.shards_for_predicate("<", 10) == (0, 1, 2, 3)

    def test_uncomparable_range_value_falls_back_to_all_shards(self):
        spec = ShardingSpec("price", 3, strategy="range", boundaries=(10, 20))
        assert spec.shards_for_predicate("<", None) == (0, 1, 2)

    def test_validation(self):
        with pytest.raises(StoreError):
            ShardingSpec("uid", 0)
        with pytest.raises(StoreError):
            ShardingSpec("uid", 4, strategy="range", boundaries=(1,))
        with pytest.raises(StoreError):
            ShardingSpec("uid", 2, strategy="zigzag")


class TestShardedStoreRouter:
    def _materialized(self, shards=4, strategy="hash", boundaries=()):
        manager = StorageDescriptorManager()
        store = _sharded_relational(shards=shards)
        manager.register_store("shardpg", store)
        manager.register_dataset("shop", "relational", relations=("orders",))
        descriptor = _descriptor(shards=shards, strategy=strategy, boundaries=boundaries)
        manager.register_fragment(descriptor)
        rows = [{"uid": i % 40, "total": float(i)} for i in range(200)]
        materialize_fragment(store, descriptor, rows, indexes=("uid",))
        return manager, store, descriptor, rows

    def test_materialization_routes_every_row_exactly_once(self):
        _, store, _, rows = self._materialized()
        assert sum(store.shard_sizes("orders")) == len(rows)
        assert store.collection_size("orders") == len(rows)
        # Every row sits in the shard its uid hashes to.
        for index, child in enumerate(store.shard_stores()):
            for row in child.execute(ScanRequest("orders"), ("uid",)).rows:
                assert stable_hash(row["uid"]) % 4 == index

    def test_scan_without_shard_key_predicate_contacts_all_shards(self):
        _, store, _, rows = self._materialized()
        result = store.execute(ScanRequest("orders"), ("uid", "total"))
        assert len(result.rows) == len(rows)
        assert result.metrics.partitions_used == 4
        assert result.metrics.partitions_pruned == 0

    def test_equality_on_shard_key_prunes_to_one_shard(self):
        _, store, _, rows = self._materialized()
        result = store.execute(
            ScanRequest("orders", predicates=(Predicate("uid", "=", 7),)), ("uid", "total")
        )
        assert result.rows == [row for row in rows if row["uid"] == 7]
        assert result.metrics.partitions_used == 1
        assert result.metrics.partitions_pruned == 3

    def test_range_sharding_prunes_range_predicates_at_the_store(self):
        manager = StorageDescriptorManager()
        store = _sharded_relational(shards=4)
        manager.register_store("shardpg", store)
        manager.register_dataset("shop", "relational", relations=("orders",))
        descriptor = _descriptor(shards=4, strategy="range", boundaries=(10, 20, 30))
        manager.register_fragment(descriptor)
        rows = [{"uid": i % 40, "total": float(i)} for i in range(200)]
        materialize_fragment(store, descriptor, rows)
        result = store.execute(ScanRequest("orders", predicates=(Predicate("uid", "<", 5),)), ("uid",))
        assert sorted(r["uid"] for r in result.rows) == sorted(
            r["uid"] for r in rows if r["uid"] < 5
        )
        assert result.metrics.partitions_used == 1
        assert result.metrics.partitions_pruned == 3

    def test_lookup_routes_by_key(self):
        _, store, _, rows = self._materialized()
        result = store.execute(LookupRequest("orders", keys=(7,)), ("uid", "total"))
        assert result.rows == [row for row in rows if row["uid"] == 7]
        assert result.metrics.partitions_used == 1

    def test_insert_routes_new_rows(self):
        _, store, _, _ = self._materialized()
        before = store.shard_sizes("orders")
        store.insert("orders", [{"uid": 7, "total": 1.0}, {"uid": 8, "total": 2.0}])
        after = store.shard_sizes("orders")
        assert sum(after) == sum(before) + 2
        assert after[stable_hash(7) % 4] == before[stable_hash(7) % 4] + 1

    def test_column_statistics_aggregate_shards(self):
        _, store, _, rows = self._materialized()
        stats = store.column_statistics("orders", "uid")
        assert stats["count"] == len(rows)
        assert stats["distinct"] == 40  # exact: uid is the shard key
        assert stats["shards"] == 4 and stats["sharded_on"] is True
        assert stats["indexed"] is True

    def test_children_must_be_homogeneous(self):
        with pytest.raises(StoreError):
            ShardedStore("mix", [RelationalStore("a"), DocumentStore("b")])

    def test_capabilities_never_advertise_store_side_joins(self):
        store = _sharded_relational()
        capabilities = store.capabilities()
        assert capabilities.parallel is True
        assert capabilities.supports_join is False
        assert capabilities.data_model == "relational"

    def test_materialize_rejects_lookup_key_that_is_not_the_shard_key(self):
        # A LookupRequest carries only key values; the router routes them
        # through the shard key, so a fragment keyed on another column would
        # probe the wrong shard (and the wrong column) silently.
        store = _sharded_relational()
        view = ViewDefinition(
            "F_orders",
            ConjunctiveQuery("F_orders", ["?u", "?t"], [Atom("orders", ["?u", "?t"])]),
            column_names=("uid", "total"),
        )
        descriptor = StorageDescriptor(
            "F_orders", "shop", "shardpg", view, StorageLayout("orders"),
            AccessMethod("lookup", key_columns=("total",)),
            sharding=ShardingSpec("uid", 4),
        )
        with pytest.raises(CatalogError):
            materialize_fragment(store, descriptor, [{"uid": 1, "total": 2.0}])

    def test_materialize_requires_sharding_spec(self):
        store = _sharded_relational()
        view = ViewDefinition(
            "F_plain",
            ConjunctiveQuery("F_plain", ["?u"], [Atom("orders", ["?u"])]),
            column_names=("uid",),
        )
        descriptor = StorageDescriptor(
            "F_plain", "shop", "shardpg", view, StorageLayout("orders"), AccessMethod("scan")
        )
        with pytest.raises(CatalogError):
            materialize_fragment(store, descriptor, [{"uid": 1}])


class TestShardStatisticsAndCost:
    def _catalog(self):
        manager = StorageDescriptorManager()
        store = _sharded_relational(shards=4)
        manager.register_store("shardpg", store)
        manager.register_dataset("shop", "relational", relations=("orders",))
        descriptor = _descriptor(shards=4)
        manager.register_fragment(descriptor)
        rows = [{"uid": i % 40, "total": float(i)} for i in range(400)]
        materialize_fragment(store, descriptor, rows, indexes=("uid",))
        return manager, store, descriptor

    def test_statistics_carry_per_shard_cardinalities(self):
        manager, store, _ = self._catalog()
        statistics = StatisticsCatalog(manager)
        fragment_stats = statistics.get("F_orders")
        assert fragment_stats.shard_cardinalities == store.shard_sizes("orders")
        assert fragment_stats.cardinality == 400

    def test_shard_observations_refresh_per_shard_estimates(self):
        manager, store, _ = self._catalog()
        statistics = StatisticsCatalog(manager)
        statistics.get("F_orders")
        base = statistics.get("F_orders").shard_cardinality(0)
        drift = statistics.record_shard_observation("F_orders", 0, base * 10)
        assert drift is not None and drift > 1.0
        refreshed = statistics.get("F_orders")
        assert refreshed.shard_cardinality(0) == base * 10
        assert refreshed.cardinality > 400

    def test_pruned_access_is_cheaper_than_fanout(self):
        manager, _, _ = self._catalog()
        cost_model = CostModel(StatisticsCatalog(manager))
        pruned_query = ConjunctiveQuery(
            "Qp", ["?t"], [Atom("F_orders", [Constant(7), "?t"])]
        )
        fanout_query = ConjunctiveQuery("Qs", ["?u", "?t"], [Atom("F_orders", ["?u", "?t"])])
        pruned_access = resolve_atoms(pruned_query, manager)
        fanout_access = resolve_atoms(fanout_query, manager)
        from repro.translation.grouping import group_for_delegation

        pruned = cost_model.estimate_groups("Qp", group_for_delegation(pruned_access))
        fanout = cost_model.estimate_groups("Qs", group_for_delegation(fanout_access))
        assert pruned.total_cost < fanout.total_cost
