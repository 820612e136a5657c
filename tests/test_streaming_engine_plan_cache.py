"""Tests for the streaming batched engine, the plan IR and the rewrite/plan cache."""

import pytest

from repro import Estocada
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
from repro.datamodel import TableSchema
from repro.errors import DuplicateRegistrationError, StoreError, TranslationError
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
        full = marketplace_estocada.query("SELECT uid, sku FROM purchases", dataset="shop")
        assert len(full.rows) > 3
        assert (
            result.store_breakdown["pg"].rows_returned
            <= full.store_breakdown["pg"].rows_returned
        )


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


EVENTS = [
    {"uid": 1, "kind": "click", "val": 10, "ts": 100},
    {"uid": 2, "kind": "view", "val": 20, "ts": 101},
    {"uid": 3, "kind": "click", "val": 30, "ts": 102},
]
EVENT_COLUMNS = ("uid", "kind", "val", "ts")


def _events_fragment(name, store):
    return StorageDescriptor(
        name, "app", store,
        _simple_view(name, "events", 4, EVENT_COLUMNS),
        StorageLayout(name.lower()), AccessMethod("scan"),
    )


def _events_estocada(fragments=(("F_ev_a", "pg"), ("F_ev_b", "pg2")), **options):
    """``events`` in dataset ``app``, writable, one full copy per fragment."""
    est = Estocada(**options)
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("pg2", RelationalStore("pg2"))
    est.register_relational_dataset("app", [TableSchema("events", EVENT_COLUMNS)])
    est.load_relation("events", EVENTS, dataset="app")
    for name, store in fragments:
        est.register_fragment(_events_fragment(name, store), indexes=("uid",))
    return est


def _bag(result):
    return sorted(tuple(sorted(row.items())) for row in result.rows)


class TestStatementMemo:
    """The per-SQL-text memo can never serve a stale or a foreign answer.

    Every case repeats one SQL *text*, so the translation comes from the memo,
    and changes something the memo must not hide: the catalog, the data, the
    dataset, the tenant, the staleness bound, the capacity.
    """

    SQL = "SELECT kind, val FROM events WHERE uid = 1"
    ANSWER = [(("kind", "click"), ("val", 10))]

    def test_dropped_fragment_replans_onto_the_remaining_one(self):
        est = _events_estocada()
        first = est.query(self.SQL, dataset="app")
        warm = est.query(self.SQL, dataset="app")
        assert (first.cache_hit, warm.cache_hit) == (False, True)
        (served_by,) = first.store_breakdown
        dropped = "F_ev_a" if served_by == "pg" else "F_ev_b"
        est.drop_fragment(dropped)
        after = est.query(self.SQL, dataset="app")
        assert after.cache_hit is False
        assert list(after.store_breakdown) == ["pg2" if served_by == "pg" else "pg"]
        assert _bag(first) == _bag(warm) == _bag(after) == self.ANSWER
        assert est.query(self.SQL, dataset="app").cache_hit is True
        assert est.cache_stats()["statement_misses"] == 1

    def test_writes_are_seen_by_the_same_text(self):
        est = _events_estocada()
        sql = "SELECT kind, val FROM events WHERE uid = 7"
        assert est.query(sql, dataset="app").rows == []
        assert est.query(sql, dataset="app").cache_hit is True
        row = {"uid": 7, "kind": "buy", "val": 70, "ts": 200}
        est.insert("events", row)
        inserted = est.query(sql, dataset="app")
        assert inserted.cache_hit is False  # the write bumped the relation's epoch
        assert _bag(inserted) == [(("kind", "buy"), ("val", 70))]
        assert est.query(sql, dataset="app").cache_hit is True
        est.delete("events", row)
        deleted = est.query(sql, dataset="app")
        assert deleted.cache_hit is False
        assert deleted.rows == []
        stats = est.cache_stats()
        assert (stats["statement_misses"], stats["statement_hits"]) == (1, 4)

    def test_failed_translation_is_not_memoized(self):
        est = Estocada()
        est.register_store("pg", RelationalStore("pg"))
        with pytest.raises(TranslationError):
            est.query(self.SQL, dataset="app")
        assert est.cache_stats()["statements"] == 0
        est.register_relational_dataset("app", [TableSchema("events", EVENT_COLUMNS)])
        est.register_fragment(_events_fragment("F_ev_a", "pg"), rows=EVENTS)
        result = est.query(self.SQL, dataset="app")
        assert result.cache_hit is False
        assert _bag(result) == self.ANSWER
        assert est.cache_stats()["statements"] == 1

    def test_rejected_duplicate_dataset_leaves_the_registered_schema_alone(self):
        # The boundary the memo relies on: a dataset's schema is fixed by its
        # one successful registration.  (Fails at the commit before the memo:
        # the rejected call had already swapped the translator's schema.)
        est = _events_estocada()
        assert _bag(est.query(self.SQL, dataset="app")) == self.ANSWER
        with pytest.raises(DuplicateRegistrationError):
            est.register_relational_dataset("app", [TableSchema("events", ("uid", "kind", "ts"))])
        est.clear_caches()  # re-translate for real
        assert _bag(est.query(self.SQL, dataset="app")) == self.ANSWER

        est.register_document_dataset("docs", {"carts": ("_id", "uid", "items.sku")})
        with pytest.raises(DuplicateRegistrationError):
            est.register_document_dataset("docs", {"carts": ("_id",)})
        assert est.document_query("carts").paths == ("_id", "uid", "items.sku")

    def test_same_text_under_another_dataset_is_translated_against_that_dataset(self):
        est = _events_estocada()
        # Same table name, other schemas: one lacks the selected column, one
        # declares kind and val the other way round.
        est.register_relational_dataset("narrow", [TableSchema("events", ("uid", "kind", "ts"))])
        est.register_relational_dataset(
            "swapped", [TableSchema("events", ("uid", "val", "kind", "ts"))]
        )
        assert _bag(est.query(self.SQL, dataset="app")) == self.ANSWER
        with pytest.raises(TranslationError, match="val"):
            est.query(self.SQL, dataset="narrow")
        swapped = est.query(self.SQL, dataset="swapped")
        assert _bag(swapped) == [(("kind", 10), ("val", "click"))]
        again = est.query(self.SQL, dataset="app")
        assert again.cache_hit is True
        assert _bag(again) == self.ANSWER
        assert est.cache_stats()["statements"] == 2  # app and swapped; narrow failed

    def test_two_tenants_keep_separate_plan_cache_accounting(self):
        est = _events_estocada()
        results = [
            est.query(self.SQL, dataset="app", tenant=tenant)
            for tenant in ("red", "red", "blue", "blue", "red")
        ]
        assert [r.cache_hit for r in results] == [False, True, False, True, True]
        assert all(_bag(r) == self.ANSWER for r in results)
        stats = est.cache_stats()
        red, blue = stats["namespaces"]["red"], stats["namespaces"]["blue"]
        assert (red["hits"], red["misses"], red["entries"]) == (2, 1, 1)
        assert (blue["hits"], blue["misses"], blue["entries"]) == (1, 1, 1)
        assert (stats["statements"], stats["statement_hits"], stats["statement_misses"]) == (1, 4, 1)

    def test_alternating_staleness_bounds_lower_the_plan_each_call_selected(self):
        est = _events_estocada()
        est.set_write_policy("deferred")
        sql = "SELECT kind, val FROM events WHERE uid = 8"
        est.query(sql, dataset="app")
        est.insert("events", {"uid": 8, "kind": "buy", "val": 80, "ts": 300})
        replanned = est.query(sql, dataset="app")  # both copies stale: serves one of them
        assert (replanned.cache_hit, replanned.rows) == (False, [])
        (cheapest_store,) = replanned.store_breakdown
        other_store, other_fragment = ("pg2", "F_ev_b") if cheapest_store == "pg" else ("pg", "F_ev_a")
        # Bring only the *other* copy up to date, behind the facade's back (no
        # epoch bump, so the cached explanation and its cheapest plan stay): a
        # bounded read must pick the second ranked plan, an unbounded one the
        # first, and each must run the tree lowered from its own pick.
        est.maintenance.maintain(other_fragment)
        fresh_hits = []
        for _ in range(3):
            fresh = est.query(sql, dataset="app", max_staleness=0)
            assert list(fresh.store_breakdown) == [other_store]
            assert _bag(fresh) == [(("kind", "buy"), ("val", 80))]
            stale = est.query(sql, dataset="app")
            assert list(stale.store_breakdown) == [cheapest_store]
            assert stale.rows == []
            assert stale.cache_hit is True
            fresh_hits.append(fresh.cache_hit)
        # (Bounded reads always plan inline: under REPRO_SERVICE=1 that is a
        # namespace of their own, cold on its first use.)
        assert fresh_hits[1:] == [True, True]

    def test_memo_never_exceeds_the_plan_cache_capacity(self):
        est = _events_estocada(plan_cache_size=4)
        texts = [f"SELECT kind, val FROM events WHERE uid = {uid}" for uid in range(1, 8)]
        for text in texts:
            est.query(text, dataset="app")
            assert est.cache_stats()["statements"] <= 4
        assert est.cache_stats()["statements"] == 4
        evicted = est.query(texts[0], dataset="app")  # long gone from both LRUs
        assert evicted.cache_hit is False
        assert _bag(evicted) == self.ANSWER
        stats = est.cache_stats()
        assert (stats["statement_hits"], stats["statement_misses"]) == (0, 8)
        est.clear_caches()
        assert est.cache_stats()["statements"] == 0

    def test_plan_description_differs_only_in_the_cache_line(self, catalog):
        est = _events_estocada()
        first, second, third = (est.query(self.SQL, dataset="app") for _ in range(3))
        assert "plan cache: miss" in first.plan_description
        assert first.plan_description.startswith("Fused[")
        assert second.plan_description == third.plan_description
        assert second.plan_description == first.plan_description.replace(
            "plan cache: miss", "plan cache: hit"
        )
        # A direct engine caller gets the bare tree, rendered on demand.
        root = Planner(catalog).plan(TestBatchBoundaryCorrectness.QUERY).root
        assert ExecutionEngine().execute(root).plan_description == root.explain()
