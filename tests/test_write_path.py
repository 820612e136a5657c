"""The DML write path: shard routing, staleness accounting, scoped invalidation.

Covers the three contracts a write must honour:

* **routing** — :meth:`ShardedStore.insert` / :meth:`ShardedStore.apply_delta`
  place every row on the shard :func:`stable_hash`-based ``spec.route`` names,
  bit-for-bit the same routing the planner's shard pruning uses (including the
  ``True == 1 == 1.0`` canonicalization), so a written row is always found
  again by a pruned read;
* **staleness accounting** — pending-delta counters rise on deferred writes,
  fall to zero after maintenance, and a ``max_staleness=0`` read forces
  maintenance (or a fresh-fragment fallback) before serving;
* **scoped invalidation** — a data write bumps only the touched relations'
  epochs, never the catalog version, so unrelated cached plans survive.
"""

from __future__ import annotations

import pytest

from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.errors import DeltaError, MaintenanceError, PartialWriteError
from repro.service import QueryService, TenantPolicy, WriteResult
from repro.stores import DocumentStore, FullTextStore, KeyValueStore, RelationalStore, ShardedStore
from repro.stores.sharding import stable_hash

USERS = [
    {"uid": 1, "name": "ada", "city": "paris"},
    {"uid": 2, "name": "bob", "city": "lyon"},
    {"uid": 3, "name": "cyd", "city": "paris"},
]
ORDERS = [
    {"uid": 1, "sku": "s1", "qty": 2},
    {"uid": 2, "sku": "s2", "qty": 1},
    {"uid": 3, "sku": "s1", "qty": 4},
]


def _view(name, head, body, columns):
    return ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)


def build_writable_estocada(policy: str = "eager") -> Estocada:
    """A small single-store deployment with writable base relations.

    Relations are loaded into the maintenance engine *before* the fragments
    are registered, so every fragment (including the users ⋈ orders join) is
    watched for incremental maintenance from the start.
    """
    est = Estocada()
    est.register_store("pg", RelationalStore("pg"))
    est.register_relational_dataset(
        "app",
        [
            TableSchema("users", ("uid", "name", "city"), primary_key=("uid",)),
            TableSchema("orders", ("uid", "sku", "qty")),
        ],
    )
    est.load_relation("users", USERS, dataset="app")
    est.load_relation("orders", ORDERS, dataset="app")
    est.register_fragment(
        StorageDescriptor(
            "F_users", "app", "pg",
            _view("F_users", ["?u", "?n", "?c"], [Atom("users", ["?u", "?n", "?c"])],
                  ("uid", "name", "city")),
            StorageLayout("users"), AccessMethod("scan"),
        ),
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_orders", "app", "pg",
            _view("F_orders", ["?u", "?s", "?q"], [Atom("orders", ["?u", "?s", "?q"])],
                  ("uid", "sku", "qty")),
            StorageLayout("orders"), AccessMethod("scan"),
        ),
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_user_orders", "app", "pg",
            _view("F_user_orders", ["?u", "?n", "?s", "?q"],
                  [Atom("users", ["?u", "?n", "?c"]), Atom("orders", ["?u", "?s", "?q"])],
                  ("uid", "name", "sku", "qty")),
            StorageLayout("user_orders"), AccessMethod("scan"),
        ),
        indexes=("uid",),
    )
    est.set_write_policy(policy)
    return est


def _rows(est, sql):
    return sorted(
        tuple(sorted(row.items())) for row in est.query(sql, dataset="app").rows
    )


# ---------------------------------------------------------------------------
# Satellite 1: sharded write routing == planner shard pruning
# ---------------------------------------------------------------------------


class TestShardedWriteRouting:
    def _store(self, shards: int = 8) -> tuple[ShardedStore, ShardingSpec]:
        store = ShardedStore.homogeneous("s", shards, lambda name: RelationalStore(name))
        for child in store.shard_stores():
            child.create_table("t", ("uid", "val"))
        spec = ShardingSpec("uid", shards)
        store.set_sharding("t", spec)
        return store, spec

    def test_insert_places_rows_where_route_says(self):
        store, spec = self._store()
        rows = [{"uid": uid, "val": f"v{uid}"} for uid in range(40)]
        assert store.insert("t", rows) == 40
        for uid in range(40):
            owner = spec.route(uid)
            assert stable_hash(uid) % 8 == owner
            for index in range(8):
                held = any(
                    row["uid"] == uid
                    for row in store.shard(index).table("t").rows
                )
                assert held == (index == owner)

    def test_apply_delta_routes_like_insert(self):
        store, spec = self._store()
        store.insert("t", [{"uid": uid, "val": "old"} for uid in range(20)])
        store.apply_delta(
            "t",
            inserts=[{"uid": 7, "val": "new"}],
            deletes=[{"uid": 7, "val": "old"}],
        )
        owner = spec.route(7)
        vals = [row["val"] for row in store.shard(owner).table("t").rows if row["uid"] == 7]
        assert vals == ["new"]

    def test_equality_pruning_agrees_with_write_routing(self):
        _, spec = self._store()
        for value in [0, 7, 13, "k1", "k2", None, -5]:
            assert spec.shards_for_predicate("=", value) == (spec.route(value),)

    def test_bool_int_float_keys_route_identically(self):
        """``True``, ``1`` and ``1.0`` compare equal, so they must co-locate."""
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(0) == stable_hash(False) == stable_hash(0.0)
        assert stable_hash(5) != stable_hash("5")
        store, spec = self._store()
        store.insert("t", [{"uid": True, "val": "a"}])
        # A delta keyed by the float form must reach the row written as bool.
        store.apply_delta(
            "t", inserts=[{"uid": 1.0, "val": "b"}], deletes=[]
        )
        owner = spec.route(1)
        assert spec.route(True) == spec.route(1.0) == owner
        vals = sorted(row["val"] for row in store.shard(owner).table("t").rows)
        assert vals == ["a", "b"]

    def test_partial_shard_failure_rolls_back_and_types_the_error(self):
        store, spec = self._store(shards=4)
        store.insert("t", [{"uid": uid, "val": "x"} for uid in range(12)])
        before = {index: list(store.shard(index).table("t").rows) for index in range(4)}
        # One insert per shard plus one delete of a row that does not exist:
        # the owning shard's child apply_delta fails, the rest roll back.
        inserts = [{"uid": uid, "val": "y"} for uid in range(12, 16)]
        with pytest.raises(PartialWriteError) as excinfo:
            store.apply_delta("t", inserts=inserts, deletes=[{"uid": 0, "val": "absent"}])
        assert excinfo.value.rolled_back
        assert excinfo.value.failed_children
        after = {index: list(store.shard(index).table("t").rows) for index in range(4)}
        assert after == before


class TestFacadeShardedWrites:
    def test_written_row_is_served_by_pruned_lookup(self, marketplace_data, sharded_marketplace_builder):
        est = sharded_marketplace_builder(marketplace_data, shards=8)
        est.load_relation(
            "purchases", marketplace_data.purchases(), dataset="shop"
        )
        # Re-register so the fragment is watched now that its base is shadowed.
        descriptor = next(
            d for d in est.catalog.fragments() if d.fragment_name == "F_purchases"
        )
        assert est.maintenance.watch_fragment(descriptor)
        est.insert("purchases", {"uid": 999, "sku": "sX", "category": "toys",
                                 "quantity": 1, "price": 9.5})
        result = est.query(
            "SELECT sku, price FROM purchases WHERE uid = 999", dataset="shop"
        )
        assert [(row["sku"], row["price"]) for row in result.rows] == [("sX", 9.5)]


# ---------------------------------------------------------------------------
# Satellite 3: staleness accounting and the max_staleness read bound
# ---------------------------------------------------------------------------


class TestStalenessAccounting:
    def test_counters_rise_on_writes_and_clear_on_maintain(self):
        est = build_writable_estocada(policy="deferred")
        assert est.staleness("F_orders").fresh
        est.insert("orders", {"uid": 1, "sku": "s9", "qty": 1})
        est.insert("orders", {"uid": 2, "sku": "s9", "qty": 2})
        staleness = est.staleness("F_orders")
        assert staleness.pending_deltas == 2
        assert staleness.pending_rows >= 2
        assert staleness.age >= 1
        # The join fragment sees the same two writes.
        assert est.staleness("F_user_orders").pending_deltas == 2
        # The users-only fragment is untouched.
        assert est.staleness("F_users").fresh
        est.maintain()
        for fragment in ("F_orders", "F_user_orders", "F_users"):
            assert est.staleness(fragment).fresh, fragment

    def test_eager_policy_keeps_fragments_fresh(self):
        est = build_writable_estocada(policy="eager")
        est.insert("orders", {"uid": 3, "sku": "s7", "qty": 2})
        assert est.staleness("F_orders").fresh
        rows = est.query(
            "SELECT sku, qty FROM orders WHERE uid = 3", dataset="app"
        ).rows
        assert sorted((row["sku"], row["qty"]) for row in rows) == [("s1", 4), ("s7", 2)]

    def test_max_staleness_zero_forces_maintenance(self):
        est = build_writable_estocada(policy="deferred")
        est.insert("orders", {"uid": 2, "sku": "s8", "qty": 5})
        assert not est.staleness("F_orders").fresh
        rows = est.query(
            "SELECT sku, qty FROM orders WHERE uid = 2",
            dataset="app",
            max_staleness=0,
        ).rows
        assert sorted((row["sku"], row["qty"]) for row in rows) == [("s2", 1), ("s8", 5)]
        assert est.staleness("F_orders").fresh

    def test_max_staleness_tolerates_bounded_backlog(self):
        est = build_writable_estocada(policy="deferred")
        est.insert("orders", {"uid": 2, "sku": "s8", "qty": 5})
        rows = est.query(
            "SELECT sku, qty FROM orders WHERE uid = 2",
            dataset="app",
            max_staleness=1,
        ).rows
        # One pending delta is within bound: the stale fragment may serve,
        # and must still be pending afterwards (no forced maintenance).
        assert ("s2", 1) in {(row["sku"], row["qty"]) for row in rows}
        assert est.staleness("F_orders").pending_deltas == 1

    def test_strict_delete_of_absent_row_is_refused(self):
        est = build_writable_estocada()
        with pytest.raises(DeltaError):
            est.delete("orders", {"uid": 99, "sku": "nope", "qty": 1})
        assert est.staleness("F_orders").fresh

    def test_unknown_write_policy_is_rejected(self):
        est = build_writable_estocada()
        with pytest.raises(MaintenanceError):
            est.set_write_policy("lazy")


class TestScopedInvalidation:
    def test_write_bumps_only_touched_relations(self):
        est = build_writable_estocada(policy="deferred")
        manager = est.catalog
        version = manager.version
        users_epoch = manager.relation_epoch("users")
        orders_epoch = manager.relation_epoch("orders")
        f_users_epoch = manager.relation_epoch("F_users")
        f_orders_epoch = manager.relation_epoch("F_orders")
        join_epoch = manager.relation_epoch("F_user_orders")
        est.insert("orders", {"uid": 1, "sku": "s5", "qty": 1})
        assert manager.relation_epoch("orders") > orders_epoch
        assert manager.relation_epoch("F_orders") > f_orders_epoch
        assert manager.relation_epoch("F_user_orders") > join_epoch
        # Untouched relations keep their epochs; the catalog version (which
        # would rebuild the rewriter's view index) never moves on data writes.
        assert manager.relation_epoch("users") == users_epoch
        assert manager.relation_epoch("F_users") == f_users_epoch
        assert manager.version == version

    def test_unrelated_cached_plans_survive_a_write(self):
        est = build_writable_estocada(policy="eager")
        est.query("SELECT name FROM users WHERE uid = 1", dataset="app")
        est.query("SELECT name FROM users WHERE uid = 1", dataset="app")
        hits_before = est.cache_stats()["hits"]
        est.insert("orders", {"uid": 1, "sku": "s5", "qty": 1})
        est.query("SELECT name FROM users WHERE uid = 1", dataset="app")
        assert est.cache_stats()["hits"] == hits_before + 1


class TestTruncateCollection:
    """Every store kind supports wiping a collection while keeping its shape."""

    def test_relational(self):
        store = RelationalStore("pg")
        store.create_table("t", ("a", "b"))
        store.insert("t", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        store.truncate_collection("t")
        assert store.collection_size("t") == 0
        store.insert("t", [{"a": 5, "b": 6}])
        assert store.collection_size("t") == 1

    def test_document(self):
        store = DocumentStore("mongo")
        store.create_collection("c")
        store.insert("c", [{"x": 1}, {"x": 2}])
        store.truncate_collection("c")
        assert store.collection_size("c") == 0

    def test_keyvalue(self):
        store = KeyValueStore("redis")
        store.create_collection("kv")
        store.put("kv", "k1", {"v": 1})
        store.truncate_collection("kv")
        assert store.collection_size("kv") == 0

    def test_fulltext(self):
        store = FullTextStore("solr")
        store.create_collection("ft", indexed_fields=("text",))
        store.insert("ft", [{"id": 1, "text": "hello world"}])
        store.truncate_collection("ft")
        assert store.collection_size("ft") == 0

    def test_sharded_truncates_every_shard(self):
        store = ShardedStore.homogeneous("s", 4, lambda name: RelationalStore(name))
        for child in store.shard_stores():
            child.create_table("t", ("uid", "val"))
        store.set_sharding("t", ShardingSpec("uid", 4))
        store.insert("t", [{"uid": uid, "val": "x"} for uid in range(12)])
        store.truncate_collection("t")
        assert store.collection_size("t") == 0
        assert all(size == 0 for size in store.shard_sizes("t"))


class TestKeyValueDeltaStrictness:
    """A key-value delta is as strict as every other store's, and atomic."""

    @staticmethod
    def _store():
        store = KeyValueStore("redis")
        store.create_collection("kv")
        store.set_key_column("kv", "k")
        store.apply_delta("kv", inserts=[{"k": 1, "v": "a"}, {"k": 2, "v": "b"}])
        return store

    def test_delete_of_a_different_value_is_refused(self):
        store = self._store()
        with pytest.raises(DeltaError):
            store.apply_delta("kv", deletes=[{"k": 1, "v": "zzz"}])
        assert store.get("kv", 1) == {"k": 1, "v": "a"}

    def test_insert_under_a_live_key_is_refused(self):
        store = self._store()
        with pytest.raises(DeltaError):
            store.apply_delta("kv", inserts=[{"k": 1, "v": "new"}])
        assert store.get("kv", 1) == {"k": 1, "v": "a"}

    def test_two_inserts_under_one_key_are_refused(self):
        store = self._store()
        with pytest.raises(DeltaError):
            store.apply_delta("kv", inserts=[{"k": 3, "v": "x"}, {"k": 3, "v": "y"}])
        assert store.get("kv", 3) is None

    def test_refused_delta_changes_nothing_and_an_update_still_lands(self):
        store = self._store()
        with pytest.raises(DeltaError):
            store.apply_delta(
                "kv", deletes=[{"k": 2, "v": "b"}], inserts=[{"k": 1, "v": "dup"}]
            )
        assert store.get("kv", 2) == {"k": 2, "v": "b"}
        touched = store.apply_delta(
            "kv", deletes=[{"k": 1, "v": "a"}], inserts=[{"k": 1, "v": "c"}]
        )
        assert touched == 2
        assert store.get("kv", 1) == {"k": 1, "v": "c"}


# ---------------------------------------------------------------------------
# Service-admitted writes
# ---------------------------------------------------------------------------


class TestServiceWrites:
    def test_execute_write_round_trips_through_admission(self):
        est = build_writable_estocada(policy="eager")
        with QueryService(
            est, workers=2, default_policy=TenantPolicy(max_concurrent=2, queue_depth=8)
        ) as service:
            outcome = service.execute_write(
                "orders", inserts=[{"uid": 1, "sku": "svc", "qty": 3}]
            )
            write = outcome.result
            assert isinstance(write, WriteResult)
            assert write.relation == "orders"
            assert write.operation == "insert"
            assert write.seq >= 1
        rows = est.query(
            "SELECT sku, qty FROM orders WHERE uid = 1", dataset="app"
        ).rows
        assert ("svc", 3) in {(row["sku"], row["qty"]) for row in rows}

    def test_update_and_delete_operations_are_labelled(self):
        est = build_writable_estocada(policy="eager")
        with QueryService(
            est, workers=1, default_policy=TenantPolicy(max_concurrent=1, queue_depth=8)
        ) as service:
            updated = service.execute_write(
                "orders",
                deletes=[{"uid": 2, "sku": "s2", "qty": 1}],
                inserts=[{"uid": 2, "sku": "s2", "qty": 9}],
            ).result
            assert updated.operation == "update"
            deleted = service.execute_write(
                "orders", deletes=[{"uid": 2, "sku": "s2", "qty": 9}]
            ).result
            assert deleted.operation == "delete"
        rows = est.query("SELECT sku FROM orders WHERE uid = 2", dataset="app").rows
        assert rows == []
