"""Tests for the streaming batched engine, the plan IR and the rewrite/plan cache."""

import pytest

from repro.catalog import (
    AccessMethod,
    StatisticsCatalog,
    StorageDescriptor,
    StorageDescriptorManager,
    StorageLayout,
)
from repro.catalog.materialize import materialize_fragment
from repro.core import Atom, ConjunctiveQuery, Constant, ViewDefinition
from repro.cost import CostModel
from repro.errors import StoreError
from repro.plan import (
    LogicalAccess,
    LogicalJoin,
    LogicalProject,
    build_logical_plan,
)
from repro.runtime import BatchBuilder, ExecutionEngine, RowBatch
from repro.stores import DocumentStore, KeyValueStore, RelationalStore, ScanRequest
from repro.translation import Planner


def _simple_view(name, relation, arity, columns):
    head = [f"?x{i}" for i in range(arity)]
    return ViewDefinition(
        name, ConjunctiveQuery(name, head, [Atom(relation, head)]), column_names=columns
    )


@pytest.fixture
def catalog():
    """pg (scan) + redis (lookup) catalog, as in the translation tests."""
    manager = StorageDescriptorManager()
    pg = RelationalStore("pg")
    redis = KeyValueStore("redis")
    manager.register_store("pg", pg)
    manager.register_store("redis", redis)
    manager.register_dataset("shop", "relational", relations=("users", "orders"))

    users_descriptor = StorageDescriptor(
        "F_users", "shop", "pg",
        _simple_view("F_users", "users", 3, ("uid", "name", "city")),
        StorageLayout("users"), AccessMethod("scan"),
    )
    prefs_descriptor = StorageDescriptor(
        "F_prefs", "shop", "redis",
        _simple_view("F_prefs", "users", 3, ("uid", "name", "city")),
        StorageLayout("prefs"), AccessMethod("lookup", key_columns=("uid",)),
    )
    manager.register_fragment(users_descriptor)
    manager.register_fragment(prefs_descriptor)
    user_rows = [
        {"uid": i, "name": f"user{i}", "city": "paris" if i % 3 == 0 else "lyon"}
        for i in range(40)
    ]
    materialize_fragment(pg, users_descriptor, user_rows, indexes=("uid",))
    materialize_fragment(redis, prefs_descriptor, user_rows)
    return manager


class TestRowBatch:
    def test_roundtrip(self):
        bindings = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        batch = RowBatch.from_bindings(bindings)
        assert batch.columns == ("a", "b")
        assert batch.rows == [(1, "x"), (2, "y")]
        assert batch.to_bindings() == bindings

    def test_union_schema_fills_missing_with_none(self):
        batch = RowBatch.from_bindings([{"a": 1}, {"b": 2}])
        assert set(batch.columns) == {"a", "b"}
        assert len(batch) == 2
        assert {None} < {v for row in batch.rows for v in row}

    def test_take(self):
        batch = RowBatch(("a",), [(1,), (2,), (3,)])
        assert batch.take(2).rows == [(1,), (2,)]
        assert batch.take(5) is batch

    def test_builder_emits_full_batches(self):
        builder = BatchBuilder(("a",), batch_size=2)
        assert builder.add((1,)) is None
        full = builder.add((2,))
        assert full is not None and len(full) == 2
        assert builder.add((3,)) is None
        tail = builder.flush()
        assert tail.rows == [(3,)]
        assert builder.flush() is None


class TestStoreStreaming:
    def _store(self):
        store = RelationalStore("pg")
        store.create_table("t", ["a"])
        store.insert("t", [{"a": i} for i in range(25)])
        return store

    def test_stream_batches_and_metrics(self):
        store = self._store()
        stream = store.execute_batches(ScanRequest("t"), ("a",), batch_size=10)
        chunks = list(stream)
        assert [len(c) for c in chunks] == [10, 10, 5]
        assert stream.metrics.rows_returned == 25
        assert stream.metrics.elapsed_seconds >= 0
        assert store.requests_served == 1
        assert store.total_metrics.rows_returned == 25

    def test_stream_is_single_use(self):
        store = self._store()
        stream = store.execute_batches(ScanRequest("t"), ("a",), batch_size=10)
        list(stream)
        with pytest.raises(StoreError):
            list(stream)


class TestBatchBoundaryCorrectness:
    """Results must be identical for batch sizes 1, 7 and 1024."""

    QUERY = ConjunctiveQuery(
        "Q", ["?u", "?n2"],
        [Atom("F_users", ["?u", "?n", Constant("paris")]),
         Atom("F_prefs", ["?u", "?n2", "?c2"])],
    )

    def _rows(self, catalog, batch_size):
        plan = Planner(catalog).plan(self.QUERY)
        result = ExecutionEngine(batch_size=batch_size).execute(plan.root)
        return result, sorted(tuple(sorted(r.items())) for r in result.rows)

    def test_results_identical_across_batch_sizes(self, catalog):
        results = {size: self._rows(catalog, size) for size in (1, 7, 1024)}
        canonical = results[1024][1]
        assert canonical  # the query has answers
        for size, (_, rows) in results.items():
            assert rows == canonical, f"batch size {size} changed the result"
        # Smaller batches mean more of them.
        assert results[1][0].batches > results[1024][0].batches >= 1

    def test_engine_reports_batch_count(self, catalog):
        result, _ = self._rows(catalog, 7)
        assert result.batches >= 1
        assert result.summary()["batches"] == result.batches


def _legacy(bindings):
    """A source operator chunking dict rows (one union schema per chunk)."""
    from repro.runtime import Operator, batches_from_bindings

    class _Legacy(Operator):
        def __init__(self, items):
            self._items = items

        def _batches(self, context):
            return batches_from_bindings(self._items, context.batch_size)

    return _Legacy(bindings)


class TestOperatorEdgeCases:
    def test_deduplicate_keeps_cross_type_equal_values_distinct(self):
        # Seed parity: repr-based keys kept 1, True and 1.0 as separate rows.
        from repro.runtime import Deduplicate, ExecutionEngine

        source = _legacy([{"a": 1}, {"a": True}, {"a": 1.0}, {"a": 1}])
        rows = ExecutionEngine().execute(Deduplicate(source)).rows
        assert len(rows) == 3

    def test_hash_join_build_side_schema_drift_keeps_late_columns(self):
        # A right child chunked with per-batch union schemas must not lose a
        # column that only appears in a later batch.
        from repro.runtime import ExecutionEngine, HashJoin

        left = _legacy([{"a": 1}])
        right = _legacy([{"a": 1}, {"a": 1}, {"a": 1, "b": "extra"}])
        result = ExecutionEngine(batch_size=2).execute(HashJoin(left, right))
        assert {"a": 1, "b": "extra"} in result.rows


class TestLogicalPlanIR:
    def test_logical_plan_structure(self, catalog):
        query = TestBatchBoundaryCorrectness.QUERY
        logical = build_logical_plan(query, catalog)
        assert isinstance(logical.root, LogicalProject)
        join = logical.root.child
        assert isinstance(join, LogicalJoin)
        assert join.requires_binding  # F_prefs is access-restricted
        assert isinstance(join.right, LogicalAccess)
        assert len(logical.groups) == 2
        assert logical.head_variables == ("u", "n2")

    def test_lowering_matches_planner(self, catalog):
        query = TestBatchBoundaryCorrectness.QUERY
        plan = Planner(catalog).plan(query)
        assert "BindJoin" in plan.explain()
        assert plan.logical is not None
        assert "Join[bind]" in plan.logical.explain()


class TestCostBasedJoinChoice:
    """With a cost model, a small left side probes a large indexed fragment."""

    def _build(self, index_right=True):
        manager = StorageDescriptorManager()
        pg = RelationalStore("pg")
        mongo = DocumentStore("mongo")
        manager.register_store("pg", pg)
        manager.register_store("mongo", mongo)
        manager.register_dataset("shop", "relational", relations=("users", "orders"))

        users = StorageDescriptor(
            "F_small_users", "shop", "pg",
            _simple_view("F_small_users", "users", 2, ("uid", "name")),
            StorageLayout("users"), AccessMethod("scan"),
        )
        orders = StorageDescriptor(
            "F_big_orders", "shop", "mongo",
            _simple_view("F_big_orders", "orders", 2, ("uid", "total")),
            StorageLayout("orders"), AccessMethod("scan"),
        )
        manager.register_fragment(users)
        manager.register_fragment(orders)
        materialize_fragment(pg, users, [{"uid": i, "name": f"u{i}"} for i in range(3)])
        materialize_fragment(
            mongo, orders,
            [{"uid": i % 200, "total": i} for i in range(600)],
            indexes=("uid",) if index_right else (),
        )
        return manager

    QUERY = ConjunctiveQuery(
        "Q", ["?u", "?t"],
        [Atom("F_small_users", ["?u", "?n"]), Atom("F_big_orders", ["?u", "?t"])],
    )

    def test_structural_planner_uses_hash_join(self):
        manager = self._build()
        plan = Planner(manager).plan(self.QUERY)
        assert "HashJoin" in plan.explain()
        assert "BindJoin" not in plan.explain()

    def test_cost_model_switches_to_bind_join(self):
        manager = self._build()
        cost_model = CostModel(StatisticsCatalog(manager))
        plan = Planner(manager, cost_model=cost_model).plan(self.QUERY)
        assert "BindJoin" in plan.explain()

    def test_unindexed_probe_side_stays_hash_join(self):
        manager = self._build(index_right=False)
        cost_model = CostModel(StatisticsCatalog(manager))
        plan = Planner(manager, cost_model=cost_model).plan(self.QUERY)
        assert "HashJoin" in plan.explain()

    def test_both_algorithms_agree_on_results(self):
        manager = self._build()
        structural = Planner(manager).plan(self.QUERY)
        cost_based = Planner(
            manager, cost_model=CostModel(StatisticsCatalog(manager))
        ).plan(self.QUERY)
        engine = ExecutionEngine()
        hash_rows = sorted(tuple(sorted(r.items())) for r in engine.execute(structural.root).rows)
        bind_rows = sorted(tuple(sorted(r.items())) for r in engine.execute(cost_based.root).rows)
        assert hash_rows == bind_rows
        assert hash_rows  # non-empty

    def test_bind_join_scans_less(self):
        manager = self._build()
        engine = ExecutionEngine()
        structural_result = engine.execute(Planner(manager).plan(self.QUERY).root)
        cost_based_result = engine.execute(
            Planner(manager, cost_model=CostModel(StatisticsCatalog(manager)))
            .plan(self.QUERY).root
        )
        def scanned(result):
            return sum(b.rows_scanned for b in result.store_breakdown.values())
        assert scanned(cost_based_result) < scanned(structural_result)


class TestPlanCache:
    QUERY = ConjunctiveQuery(
        "Q", ["?pc"], [Atom("users", [Constant(7), "?n", "?c", "?p", "?pc"])]
    )

    def test_repeated_query_hits_cache(self, marketplace_estocada):
        first = marketplace_estocada.query(self.QUERY)
        second = marketplace_estocada.query(self.QUERY)
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert second.rows == first.rows
        stats = marketplace_estocada.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_summary_and_plan_description_report_cache(self, marketplace_estocada):
        marketplace_estocada.query(self.QUERY)
        result = marketplace_estocada.query(self.QUERY)
        assert result.summary()["cache_hit"] is True
        assert "batches" in result.summary()
        assert "plan cache: hit" in result.plan_description

    def test_drop_fragment_evicts(self, marketplace_estocada):
        est = marketplace_estocada
        before = est.query(self.QUERY)
        assert list(before.store_breakdown) == ["redis"]
        est.drop_fragment("F_prefs")
        after = est.query(self.QUERY)
        assert after.cache_hit is False  # the cached redis plan was evicted
        assert list(after.store_breakdown) == ["pg"]
        assert after.rows == before.rows

    def test_register_fragment_evicts(self, marketplace_estocada):
        est = marketplace_estocada
        est.query(self.QUERY)
        assert est.cache_stats()["entries"] == 1
        descriptor = est.drop_fragment("F_prefs")
        est.register_fragment(descriptor)  # data is still materialized in redis
        assert est.cache_stats()["entries"] == 0
        result = est.query(self.QUERY)
        assert result.cache_hit is False

    def test_direct_catalog_mutation_scoped_by_relation_epochs(self, marketplace_estocada):
        est = marketplace_estocada
        before = est.query(self.QUERY)
        assert list(before.store_breakdown) == ["redis"]
        # Direct manager mutations bypass the facade's eager invalidation;
        # the per-relation epochs baked into the key must still decide.  An
        # unrelated mutation (carts) leaves the users entry's signature
        # untouched, so the cached plan keeps hitting.
        est.catalog.drop_fragment("F_carts")
        assert est.query(self.QUERY).cache_hit is True
        # Mutating a fragment the query can reach changes its epoch
        # signature: the stale redis plan misses and re-plans onto pg.
        est.catalog.drop_fragment("F_prefs")
        after = est.query(self.QUERY)
        assert after.cache_hit is False
        assert list(after.store_breakdown) == ["pg"]
        assert after.rows == before.rows

    def test_distinct_queries_use_distinct_entries(self, marketplace_estocada):
        est = marketplace_estocada
        other = ConjunctiveQuery(
            "Q2", ["?pc"], [Atom("users", [Constant(8), "?n", "?c", "?p", "?pc"])]
        )
        est.query(self.QUERY)
        result = est.query(other)
        assert result.cache_hit is False
        assert est.cache_stats()["entries"] == 2

    def test_sql_template_repeats_hit(self, marketplace_estocada):
        sql = "SELECT name, city FROM users WHERE uid = 5"
        first = marketplace_estocada.query(sql, dataset="shop")
        second = marketplace_estocada.query(sql, dataset="shop")
        assert second.cache_hit is True
        assert second.rows == first.rows

    def test_limit_query_streams_early_exit(self, marketplace_estocada):
        result = marketplace_estocada.query(
            "SELECT uid, sku FROM purchases LIMIT 3", dataset="shop"
        )
        assert len(result.rows) == 3


class TestShardedPlanCacheInterplay:
    """Cached sharded plans must react to shard statistics and topology changes."""

    SCAN = "SELECT uid, sku FROM purchases"
    POINT = "SELECT sku FROM purchases WHERE uid = 7"

    def test_summary_reports_shards_contacted_vs_pruned(
        self, sharded_marketplace_builder, marketplace_data
    ):
        est = sharded_marketplace_builder(marketplace_data, shards=8)
        scan = est.query(self.SCAN, dataset="shop")
        assert scan.summary()["shards"] == {"contacted": 8, "pruned": 0}
        point = est.query(self.POINT, dataset="shop")
        assert point.summary()["shards"] == {"contacted": 1, "pruned": 7}
        assert "shards: 1 contacted / 7 pruned" in point.plan_description
        # The accounting also holds when the plan comes from the cache.
        again = est.query(self.POINT, dataset="shop")
        assert again.cache_hit is True
        assert again.summary()["shards"] == {"contacted": 1, "pruned": 7}

    def test_consistent_observations_keep_sharded_plans_cached(
        self, sharded_marketplace_builder, marketplace_data
    ):
        est = sharded_marketplace_builder(marketplace_data, shards=8)
        est.query(self.SCAN, dataset="shop")
        result = est.query(self.SCAN, dataset="shop")
        assert result.cache_hit is True
        assert est.cache_stats()["invalidations"] == 0

    def test_shard_statistics_drift_invalidates_cached_sharded_plans(
        self, sharded_marketplace_builder, marketplace_data
    ):
        est = sharded_marketplace_builder(marketplace_data, shards=8)
        est.query(self.SCAN, dataset="shop")  # plan cached + per-shard baselines observed
        assert est.query(self.SCAN, dataset="shop").cache_hit is True
        # The purchases collection triples behind the catalog's back: the
        # router's insert routes the new rows to their shards.
        store = est.catalog.store("shardpg")
        before = est.statistics.get("F_purchases").shard_cardinalities
        grown = [
            {"uid": i % 60, "sku": i % 80, "category": "shoes", "quantity": 1, "price": 9.99}
            for i in range(2 * sum(before))
        ]
        store.insert("purchases", grown)
        est.query(self.SCAN, dataset="shop")  # observes the drifted shard counts
        stats = est.cache_stats()
        assert stats["invalidations"] >= 1
        # The next query re-plans against refreshed per-shard statistics.
        replanned = est.query(self.SCAN, dataset="shop")
        assert replanned.cache_hit is False
        after = est.statistics.get("F_purchases").shard_cardinalities
        assert sum(after) > sum(before)

    def test_shard_count_change_invalidates_via_catalog_version(
        self, sharded_marketplace_builder, marketplace_data
    ):
        from repro.catalog import ShardingSpec
        from repro.stores import RelationalStore, ShardedStore

        est = sharded_marketplace_builder(marketplace_data, shards=4)
        first = est.query(self.SCAN, dataset="shop")
        assert first.summary()["shards"]["contacted"] == 4
        # Re-shard: drop the fragment, register a wider store, re-materialize.
        descriptor = est.drop_fragment("F_purchases")
        est.register_store(
            "shardpg16", ShardedStore.homogeneous("shardpg16", 16, RelationalStore)
        )
        from dataclasses import replace

        wider = replace(
            descriptor, store="shardpg16", sharding=ShardingSpec("uid", 16)
        )
        est.register_fragment(wider, rows=marketplace_data.purchases(), indexes=("uid",))
        result = est.query(self.SCAN, dataset="shop")
        assert result.cache_hit is False  # catalog version changed under the key
        assert result.summary()["shards"] == {"contacted": 16, "pruned": 0}
        assert len(result.rows) == len(first.rows)
