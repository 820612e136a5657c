"""Tests for the catalog, the runtime operators/engine and the translation layer."""

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
from repro.errors import (
    CatalogError,
    DuplicateRegistrationError,
    PlanningError,
    UnknownDatasetError,
    UnknownFragmentError,
    UnknownStoreError,
)
from repro.runtime import (
    Aggregate,
    BindJoin,
    Deduplicate,
    DelegatedRequest,
    ExecutionEngine,
    FilterStage,
    FusedPipeline,
    HashJoin,
    NestedConstruct,
    PredicateSpec,
    Project,
    batches_from_bindings,
    merge_bindings,
    nest_rows,
)
from repro.stores import (
    KeyValueStore,
    LookupRequest,
    RelationalStore,
    ScanRequest,
)
from repro.translation import Planner, group_for_delegation, order_atoms, resolve_atoms


def _simple_view(name, relation, arity, columns):
    head = [f"?x{i}" for i in range(arity)]
    return ViewDefinition(
        name, ConjunctiveQuery(name, head, [Atom(relation, head)]), column_names=columns
    )


@pytest.fixture
def catalog():
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
    materialize_fragment(pg, users_descriptor, [
        {"uid": 1, "name": "ana", "city": "paris"},
        {"uid": 2, "name": "bob", "city": "lyon"},
    ], indexes=("uid",))
    materialize_fragment(redis, prefs_descriptor, [
        {"uid": 1, "name": "ana", "city": "paris"},
        {"uid": 2, "name": "bob", "city": "lyon"},
    ])
    return manager


class TestDescriptors:
    def test_descriptor_name_must_match_view(self):
        with pytest.raises(CatalogError):
            StorageDescriptor(
                "F_a", "d", "s", _simple_view("F_b", "users", 2, ("a", "b")),
                StorageLayout("t"),
            )

    def test_lookup_needs_key_columns(self):
        with pytest.raises(CatalogError):
            AccessMethod("lookup")

    def test_access_pattern_derived_from_lookup(self):
        descriptor = StorageDescriptor(
            "F", "d", "s", _simple_view("F", "users", 3, ("uid", "name", "city")),
            StorageLayout("users"), AccessMethod("lookup", key_columns=("uid",)),
        )
        pattern = descriptor.access_pattern()
        assert pattern.pattern == "ioo"

    def test_scan_fragment_has_no_pattern(self):
        descriptor = StorageDescriptor(
            "F", "d", "s", _simple_view("F", "users", 2, ("uid", "name")),
            StorageLayout("users"), AccessMethod("scan"),
        )
        assert descriptor.access_pattern() is None

    def test_layout_column_mapping(self):
        layout = StorageLayout("c", {"uid": "user.id"})
        assert layout.store_column("uid") == "user.id"
        assert layout.store_column("other") == "other"

    def test_describe_is_json_friendly(self, catalog):
        description = catalog.fragment("F_users").describe()
        assert description["store"] == "pg"
        assert description["collection"] == "users"


class TestManager:
    def test_duplicate_registrations_rejected(self, catalog):
        with pytest.raises(DuplicateRegistrationError):
            catalog.register_store("pg", RelationalStore("other"))
        with pytest.raises(DuplicateRegistrationError):
            catalog.register_dataset("shop", "relational")

    def test_unknown_lookups_raise(self, catalog):
        with pytest.raises(UnknownStoreError):
            catalog.store("nope")
        with pytest.raises(UnknownDatasetError):
            catalog.dataset("nope")
        with pytest.raises(UnknownFragmentError):
            catalog.fragment("nope")

    def test_fragment_requires_known_dataset_and_store(self, catalog):
        descriptor = StorageDescriptor(
            "F_x", "ghost", "pg", _simple_view("F_x", "users", 2, ("a", "b")), StorageLayout("x"),
        )
        with pytest.raises(UnknownDatasetError):
            catalog.register_fragment(descriptor)

    def test_fragments_filtered_by_store(self, catalog):
        assert [d.fragment_name for d in catalog.fragments(store="redis")] == ["F_prefs"]

    def test_view_definitions_carry_access_patterns(self, catalog):
        views = {v.name: v for v in catalog.view_definitions()}
        assert views["F_prefs"].access_pattern is not None
        assert views["F_users"].access_pattern is None

    def test_access_pattern_registry(self, catalog):
        registry = catalog.access_pattern_registry()
        assert "F_prefs" in registry
        assert "F_users" not in registry

    def test_unregister_store_blocked_while_hosting_fragments(self, catalog):
        with pytest.raises(DuplicateRegistrationError):
            catalog.unregister_store("redis")
        catalog.drop_fragment("F_prefs")
        catalog.unregister_store("redis")
        assert "redis" not in catalog.stores()

    def test_describe_snapshot(self, catalog):
        snapshot = catalog.describe()
        assert set(snapshot["fragments"]) == {"F_users", "F_prefs"}


class TestStatistics:
    def test_statistics_computed_from_store(self, catalog):
        statistics = StatisticsCatalog(catalog)
        stats = statistics.get("F_users")
        assert stats.cardinality == 2
        assert stats.distinct("uid") == 2
        assert "uid" in stats.indexed_columns

    def test_key_columns_always_indexed(self, catalog):
        statistics = StatisticsCatalog(catalog)
        stats = statistics.get("F_prefs")
        assert "uid" in stats.indexed_columns
        assert stats.distinct("uid") == 2

    def test_selectivity(self, catalog):
        statistics = StatisticsCatalog(catalog)
        assert statistics.get("F_users").selectivity_of_equality("uid") == pytest.approx(0.5)

    def test_cache_and_invalidate(self, catalog):
        statistics = StatisticsCatalog(catalog)
        first = statistics.get("F_users")
        assert statistics.get("F_users") is first
        statistics.invalidate("F_users")
        assert statistics.get("F_users") is not first

    def test_missing_collection_raises(self, catalog):
        descriptor = StorageDescriptor(
            "F_ghost", "shop", "pg", _simple_view("F_ghost", "orders", 2, ("a", "b")),
            StorageLayout("ghost_collection"),
        )
        catalog.register_fragment(descriptor)
        with pytest.raises(CatalogError):
            StatisticsCatalog(catalog).get("F_ghost")


class _StaticOperator(DelegatedRequest):
    """A DelegatedRequest replacement producing fixed bindings (test helper)."""

    def __init__(self, bindings):
        self._bindings = bindings

    def _batches(self, context):
        return batches_from_bindings(self._bindings, context.batch_size)

    def describe(self):
        return "Static"


class TestRuntimeOperators:
    def test_merge_bindings(self):
        assert merge_bindings({"x": 1}, {"y": 2}) == {"x": 1, "y": 2}
        assert merge_bindings({"x": 1}, {"x": 2}) is None

    def test_nest_rows(self):
        rows = [{"u": 1, "sku": 5}, {"u": 1, "sku": 6}, {"u": 2, "sku": 7}]
        nested = nest_rows(rows, ["u"], "items", ["sku"])
        by_user = {r["u"]: r["items"] for r in nested}
        assert len(by_user[1]) == 2 and len(by_user[2]) == 1

    def test_hash_join_natural(self):
        left = _StaticOperator([{"u": 1, "a": "x"}, {"u": 2, "a": "y"}])
        right = _StaticOperator([{"u": 1, "b": "z"}, {"u": 3, "b": "w"}])
        result = ExecutionEngine().execute(HashJoin(left, right))
        assert result.rows == [{"u": 1, "a": "x", "b": "z"}]

    def test_hash_join_cartesian_when_no_shared_variables(self):
        left = _StaticOperator([{"a": 1}, {"a": 2}])
        right = _StaticOperator([{"b": 3}])
        result = ExecutionEngine().execute(HashJoin(left, right))
        assert len(result.rows) == 2

    def test_filter_project_dedup(self):
        source = _StaticOperator([{"x": 1, "y": 1}, {"x": 2, "y": 1}, {"x": 3, "y": 2}])
        kept = FusedPipeline(source, (FilterStage((PredicateSpec("x", ">=", 2),)),))
        plan = Deduplicate(Project(kept, ["y"]))
        result = ExecutionEngine().execute(plan)
        assert sorted(r["y"] for r in result.rows) == [1, 2]

    def test_aggregate(self):
        source = _StaticOperator(
            [{"g": "a", "v": 1}, {"g": "a", "v": 3}, {"g": "b", "v": 5}]
        )
        plan = Aggregate(source, ["g"], {"total": ("sum", "v"), "n": ("count", None), "m": ("max", "v")})
        rows = {r["g"]: r for r in ExecutionEngine().execute(plan).rows}
        assert rows["a"]["total"] == 4 and rows["a"]["n"] == 2 and rows["b"]["m"] == 5

    def test_aggregate_rejects_unknown_function(self):
        with pytest.raises(Exception):
            Aggregate(_StaticOperator([]), [], {"x": ("median", "v")})

    def test_nested_construct_operator(self):
        source = _StaticOperator([{"u": 1, "sku": 5}, {"u": 1, "sku": 6}])
        plan = NestedConstruct(source, ["u"], "items", ["sku"])
        rows = ExecutionEngine().execute(plan).rows
        assert rows[0]["items"] == [{"sku": 5}, {"sku": 6}]

    def test_delegated_request_maps_columns_to_variables(self):
        store = RelationalStore("pg")
        store.create_table("t", ["a", "b"])
        store.insert("t", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        operator = DelegatedRequest(store, ScanRequest("t"), output={"a": "x", "b": "y"})
        result = ExecutionEngine().execute(operator)
        assert {"x": 1, "y": 2} in result.rows
        assert "pg" in result.store_breakdown

    def test_bind_join_probes_per_left_row(self):
        kv = KeyValueStore("redis")
        kv.put_many("prefs", {1: {"cat": "books"}, 2: {"cat": "toys"}})
        left = _StaticOperator([{"u": 1}, {"u": 2}, {"u": 99}])
        operator = BindJoin(
            left,
            kv,
            request_factory=lambda b: LookupRequest("prefs", keys=(b["u"],)),
            output={"key": "u", "cat": "c"},
        )
        result = ExecutionEngine().execute(operator)
        assert len(result.rows) == 2
        assert result.store_breakdown["redis"].requests == 3

    def test_engine_reports_store_and_runtime_split(self):
        store = RelationalStore("pg")
        store.create_table("t", ["a"])
        store.insert("t", [{"a": i} for i in range(10)])
        plan = Project(DelegatedRequest(store, ScanRequest("t"), output={"a": "x"}), ["x"])
        result = ExecutionEngine().execute(plan)
        assert result.elapsed_seconds >= result.store_breakdown["pg"].elapsed_seconds
        assert result.runtime_time() >= 0
        assert result.summary()["rows"] == 10

    def test_plan_explain_tree(self):
        source = _StaticOperator([{"x": 1}])
        kept = FusedPipeline(source, (FilterStage((PredicateSpec("x", "=", 1),)),))
        text = Project(kept, ["x"]).explain()
        assert "Project" in text and "filter(x = 1)" in text


class TestTranslation:
    def test_resolve_atoms_checks_arity(self, catalog):
        bad = ConjunctiveQuery("Q", ["?a"], [Atom("F_users", ["?a", "?b"])])
        with pytest.raises(PlanningError):
            resolve_atoms(bad, catalog)

    def test_order_atoms_puts_restricted_fragment_last(self, catalog):
        rewriting = ConjunctiveQuery(
            "Q", ["?u", "?n"],
            [Atom("F_prefs", ["?u", "?n", "?c"]), Atom("F_users", ["?u", "?n", "?c"])],
        )
        ordered = order_atoms(rewriting, catalog)
        assert ordered[0].descriptor.fragment_name == "F_users"
        assert ordered[1].descriptor.fragment_name == "F_prefs"

    def test_order_atoms_raises_when_infeasible(self, catalog):
        rewriting = ConjunctiveQuery("Q", ["?u"], [Atom("F_prefs", ["?u", "?n", "?c"])])
        with pytest.raises(PlanningError):
            order_atoms(rewriting, catalog)

    def test_grouping_same_store_join(self, catalog):
        # Two pg fragments sharing a variable group into one delegated join.
        manager = catalog
        orders_descriptor = StorageDescriptor(
            "F_orders", "shop", "pg",
            _simple_view("F_orders", "orders", 2, ("order_id", "uid")),
            StorageLayout("orders"), AccessMethod("scan"),
        )
        manager.register_fragment(orders_descriptor)
        materialize_fragment(manager.store("pg"), orders_descriptor, [{"order_id": 1, "uid": 1}])
        rewriting = ConjunctiveQuery(
            "Q", ["?u", "?o"],
            [Atom("F_users", ["?u", "?n", "?c"]), Atom("F_orders", ["?o", "?u"])],
        )
        groups = group_for_delegation(order_atoms(rewriting, manager))
        assert len(groups) == 1
        assert len(groups[0].accesses) == 2

    def test_grouping_splits_across_stores(self, catalog):
        rewriting = ConjunctiveQuery(
            "Q", ["?u", "?n"],
            [Atom("F_users", ["?u", "?n", "?c"]), Atom("F_prefs", ["?u", "?n2", "?c2"])],
        )
        groups = group_for_delegation(order_atoms(rewriting, catalog))
        assert len(groups) == 2

    def test_planner_builds_bindjoin_for_lookup_fragment(self, catalog):
        rewriting = ConjunctiveQuery(
            "Q", ["?u", "?n2"],
            [Atom("F_users", ["?u", "?n", "?c"]), Atom("F_prefs", ["?u", "?n2", "?c2"])],
        )
        plan = Planner(catalog).plan(rewriting)
        assert "BindJoin" in plan.explain()
        result = ExecutionEngine().execute(plan.root)
        assert {"u": 1, "n2": "ana"} in result.rows

    def test_planner_constant_key_becomes_lookup(self, catalog):
        rewriting = ConjunctiveQuery(
            "Q", ["?n"], [Atom("F_prefs", [Constant(2), "?n", "?c"])]
        )
        plan = Planner(catalog).plan(rewriting)
        result = ExecutionEngine().execute(plan.root)
        assert result.rows == [{"n": "bob"}]

    def test_planner_pushes_constant_predicates(self, catalog):
        rewriting = ConjunctiveQuery(
            "Q", ["?n"], [Atom("F_users", ["?u", "?n", Constant("paris")])]
        )
        plan = Planner(catalog).plan(rewriting)
        result = ExecutionEngine().execute(plan.root)
        assert result.rows == [{"n": "ana"}]

    def test_planner_executes_delegated_join(self, catalog):
        manager = catalog
        orders_descriptor = StorageDescriptor(
            "F_orders2", "shop", "pg",
            _simple_view("F_orders2", "orders", 2, ("order_id", "uid")),
            StorageLayout("orders2"), AccessMethod("scan"),
        )
        manager.register_fragment(orders_descriptor)
        materialize_fragment(
            manager.store("pg"), orders_descriptor,
            [{"order_id": 1, "uid": 1}, {"order_id": 2, "uid": 2}, {"order_id": 3, "uid": 1}],
        )
        rewriting = ConjunctiveQuery(
            "Q", ["?o", "?n"],
            [Atom("F_users", ["?u", "?n", "?c"]), Atom("F_orders2", ["?o", "?u"])],
        )
        plan = Planner(manager).plan(rewriting)
        result = ExecutionEngine().execute(plan.root)
        assert {(r["o"], r["n"]) for r in result.rows} == {(1, "ana"), (3, "ana"), (2, "bob")}
