"""Keyed joins: a join's right side is fetched by the left side's distinct keys.

A join into an access-restricted fragment (or one the cost model prefers to
probe) is a ``HashJoin`` over a keyed ``DelegatedRequest``: the join drains
its left side, takes the distinct values of one key column and fetches the
right side ``batch_size`` keys per store request — a lookup's keys, or a
scan's ``in`` predicate.  These tests count those requests (per store, per
shard contacted, through a replicated router under seeded faults), check the
answers against plain-Python oracles, and pin the store halves the keyed
fetch rests on: ``in`` predicates (``None`` keys, index narrowing, shard and
zone-map pruning), key lookups grouped by shard, and one heap walk per
unindexed lookup.
"""

from __future__ import annotations

import math
import os
from collections import Counter

import pytest

from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.errors import ExecutionError
from repro.runtime import DelegatedRequest, ExecutionEngine, HashJoin
from repro.stores import (
    DocumentStore,
    KeyValueStore,
    RelationalStore,
    ReplicatedStore,
    ReplicationPolicy,
    ShardedStore,
)
from repro.stores.base import LookupRequest, Predicate, ScanRequest
from repro.stores.segment import DurableBacking
from repro.stores.sharding import ShardingSpec as StoreShardingSpec
from repro.testing import FaultInjector, FaultProfile

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

DISTINCT = 40
USERS = [{"uid": i, "name": f"user{i}", "city": f"city{i % 5}"} for i in range(DISTINCT)]
# Every user but the last places orders; 300 left rows over 39 distinct keys.
ORDERS = [{"oid": i, "uid": i % (DISTINCT - 1), "sku": f"s{i % 50}"} for i in range(300)]
NAME_JOIN = "SELECT o.sku, u.name FROM orders o, users u WHERE o.uid = u.uid"


def _identity(table, store, access=AccessMethod("scan"), sharding=None):
    variables = [f"?{column}" for column in table.columns]
    name = f"F_{table.name}"
    view = ViewDefinition(
        name, ConjunctiveQuery(name, variables, [Atom(table.name, variables)]),
        column_names=table.columns,
    )
    return StorageDescriptor(
        name, "app", store, view, StorageLayout(table.name), access, sharding=sharding
    )


def _facade(users_store, batch_size=256, sharding=None):
    """orders in pg, users as a lookup-only fragment keyed by uid in ``users_store``."""
    est = Estocada(batch_size=batch_size)
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("kv", users_store)
    users = TableSchema("users", ("uid", "name", "city"), primary_key=("uid",))
    orders = TableSchema("orders", ("oid", "uid", "sku"), primary_key=("oid",))
    est.register_relational_dataset("app", (users, orders))
    est.register_fragment(_identity(orders, "pg"), rows=ORDERS)
    est.register_fragment(
        _identity(users, "kv", AccessMethod("lookup", key_columns=("uid",)), sharding=sharding),
        rows=USERS,
    )
    return est


def _bag(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


def _name_join_oracle():
    name = {user["uid"]: user["name"] for user in USERS}
    return _bag({"sku": order["sku"], "name": name[order["uid"]]} for order in ORDERS)


def _distinct_keys():
    return len({order["uid"] for order in ORDERS})


class TestKeyedJoinRequests:
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_a_lookup_join_fetches_each_batch_of_distinct_keys_once(self, batch_size):
        est = _facade(KeyValueStore("kv"), batch_size=batch_size)
        assert "keyed=uid" in est.explain(NAME_JOIN, dataset="app").plan_text()
        result = est.query(NAME_JOIN, dataset="app")
        assert _bag(result.rows) == _name_join_oracle()
        # A per-row probe would issue one request per order (300).
        assert result.store_breakdown["kv"].requests <= math.ceil(_distinct_keys() / batch_size)

    def test_a_keyed_scan_carries_the_key_set_into_the_index(self):
        # orders in an indexed document store, fetched by three users' uids:
        # one `in` scan per two keys, narrowed by the index to the hits.
        users = RelationalStore("pg")
        users.create_table("users", ("uid", "name"))
        users.insert("users", [{"uid": u["uid"], "name": u["name"]} for u in USERS[:3]])
        orders = DocumentStore("mongo")
        orders.insert("orders", ORDERS)
        orders.create_index("orders", "uid")
        join = HashJoin(
            DelegatedRequest(users, ScanRequest("users"), {"uid": "u", "name": "n"}),
            DelegatedRequest(orders, ScanRequest("orders"), {"uid": "u", "sku": "s"}, key="uid"),
        )
        assert join.children()[1].describe() == (
            "DelegatedRequest[store=mongo, orders, vars=['s', 'u'], keyed=uid]"
        )
        result = ExecutionEngine(batch_size=2).execute(join)
        name = {user["uid"]: user["name"] for user in USERS[:3]}
        hits = [order for order in ORDERS if order["uid"] in name]
        assert _bag(result.rows) == _bag(
            {"u": order["uid"], "n": name[order["uid"]], "s": order["sku"]} for order in hits
        )
        mongo = result.store_breakdown["mongo"]
        assert mongo.requests == math.ceil(3 / 2)
        assert mongo.rows_scanned == len(hits)  # the index, not the collection

    def test_a_sharded_lookup_join_asks_each_shard_once_per_key_batch(self):
        batch_size = 16
        store = ShardedStore.homogeneous("kv", 4, KeyValueStore)
        est = _facade(store, batch_size=batch_size, sharding=ShardingSpec("uid", 4))
        before = [child.requests_served for child in store.shard_stores()]
        result = est.query(NAME_JOIN, dataset="app")
        assert _bag(result.rows) == _name_join_oracle()
        per_shard = [
            child.requests_served - count for child, count in zip(store.shard_stores(), before)
        ]
        batches = math.ceil(_distinct_keys() / batch_size)
        assert all(requests <= batches for requests in per_shard), per_shard
        assert result.summary()["shards"]["contacted"] == batches * 4

    def test_a_replicated_lookup_join_survives_faults(self):
        def replica(name):
            index = int(name.rsplit(".", 1)[1])
            profile = FaultProfile(seed=CHAOS_SEED * 31 + index, error_rate=0.3)
            return FaultInjector(KeyValueStore(name), profile)

        store = ReplicatedStore.homogeneous(
            "kv", 3, replica, policy=ReplicationPolicy(max_retries=6)
        )
        est = _facade(store, batch_size=8)
        text = est.explain(NAME_JOIN, dataset="app").plan_text()
        assert "replicas=3" in text and "keyed=uid" in text
        for _ in range(3):
            result = est.query(NAME_JOIN, dataset="app")
            assert _bag(result.rows) == _name_join_oracle()
            assert result.store_breakdown["kv"].requests <= math.ceil(_distinct_keys() / 8)

    def test_a_keyed_request_runs_only_through_its_join(self):
        # Alone, its unfilled template would be a silent full scan.
        keyed = DelegatedRequest(KeyValueStore("kv"), ScanRequest("t"), {"k": "k"}, key="k")
        with pytest.raises(ExecutionError, match="keyed"):
            ExecutionEngine().execute(keyed)

    def test_a_limit_above_a_keyed_join_still_answers_from_the_full_left_side(self):
        est = _facade(KeyValueStore("kv"), batch_size=8)
        result = est.query(NAME_JOIN + " LIMIT 5", dataset="app")
        assert len(result.rows) == 5
        assert _bag(result.rows) <= _name_join_oracle()


class TestShardedLookups:
    def test_keys_are_grouped_into_one_request_per_shard(self):
        plain = KeyValueStore("plain")
        sharded = ShardedStore.homogeneous("kv", 4, KeyValueStore)
        sharded.set_sharding("t", StoreShardingSpec("key", 4))
        entries = {key: {"v": key * 3} for key in range(150)}
        plain.put_many("t", entries)
        for index, child in enumerate(sharded.shard_stores()):
            child.put_many(
                "t",
                {k: v for k, v in entries.items() if StoreShardingSpec("key", 4).route(k) == index},
            )
        keys = tuple(range(0, 200, 2))  # 100 keys, 25 of them absent
        result = sharded.execute(LookupRequest("t", keys), ("key", "v"))
        assert sum(child.requests_served for child in sharded.shard_stores()) <= 4
        expected = plain.execute(LookupRequest("t", keys), ("key", "v"))
        assert _bag(result.rows) == _bag(expected.rows)

    def test_a_scanned_shard_keeps_a_repeated_key_s_multiplicity(self):
        sharded = ShardedStore.homogeneous("pg", 2, RelationalStore)
        spec = StoreShardingSpec("a", 2)
        sharded.set_sharding("t", spec)
        for child in sharded.shard_stores():
            child.create_table("t", ("a", "b"))
        rows = [{"a": i % 4, "b": i} for i in range(8)]
        sharded.insert("t", rows)
        keys = (1, 1, 2, 3, 3, 3)
        result = sharded.execute(LookupRequest("t", keys), ("a", "b"))
        assert _bag(result.rows) == _bag(row for key in keys for row in rows if row["a"] == key)

    def test_an_in_scan_sends_each_shard_only_its_own_keys(self):
        plain = RelationalStore("pg")
        sharded = ShardedStore.homogeneous("pgs", 4, RelationalStore)
        sharded.set_sharding("t", StoreShardingSpec("a", 4))
        for store in (plain, *sharded.shard_stores()):
            store.create_table("t", ("a", "b"))
            store.create_index("t", "a")
        rows = [{"a": i % 60, "b": i} for i in range(240)]
        plain.insert("t", rows)
        sharded.insert("t", rows)
        request = ScanRequest("t", (Predicate("a", "in", frozenset(range(0, 80, 2))),))
        result = sharded.execute(request, ("a", "b"))
        assert _bag(result.rows) == _bag(plain.execute(request, ("a", "b")).rows)
        lookups = sum(child.total_metrics.index_lookups for child in sharded.shard_stores())
        assert lookups == 40  # each key probed once, on its own shard

    def test_an_in_predicate_prunes_to_the_shards_its_keys_route_to(self):
        spec = StoreShardingSpec("uid", 8)
        keys = frozenset((3, 11, 40))
        assert spec.shards_for_predicate("in", keys) == tuple(sorted({spec.route(k) for k in keys}))
        ranged = StoreShardingSpec("uid", 3, strategy="range", boundaries=(10, 20))
        assert ranged.shards_for_predicate("in", frozenset((None, 5, 25))) == (0, 2)


class TestInPredicate:
    ROWS = [{"a": None, "b": "n"}] + [{"a": i % 5, "b": f"x{i}"} for i in range(40)]

    def _stores(self, tmp_path):
        plain = RelationalStore("pg")
        indexed = RelationalStore("pg-indexed")
        durable = RelationalStore("pg-durable")
        durable.attach_durable(DurableBacking(str(tmp_path / "pg"), segment_rows=8))
        for store in (plain, indexed, durable):
            store.create_table("t", ("a", "b"))
            store.insert("t", self.ROWS)
        indexed.create_index("t", "a")
        return plain, indexed, durable

    @pytest.mark.parametrize("keys", [(None,), (None, 2), (1, 3), (7,)])
    def test_in_matches_the_union_of_equalities(self, tmp_path, keys):
        for store in self._stores(tmp_path):
            got = store.execute(ScanRequest("t", (Predicate("a", "in", frozenset(keys)),)), ("a", "b"))
            expected = [
                row
                for key in keys
                for row in store.execute(ScanRequest("t", (Predicate("a", "=", key),)), ("a", "b")).rows
            ]
            assert _bag(got.rows) == _bag(expected), (store.name, keys)

    def test_an_index_narrows_by_the_union_of_the_keys(self, tmp_path):
        _, indexed, _ = self._stores(tmp_path)
        result = indexed.execute(ScanRequest("t", (Predicate("a", "in", frozenset((1, 4))),)), ("b",))
        assert len(result.rows) == result.metrics.rows_scanned == 16

    def test_zone_maps_never_skip_a_key_set_holding_none(self, tmp_path):
        store = RelationalStore("pg")
        store.attach_durable(DurableBacking(str(tmp_path / "pg"), segment_rows=4))
        store.create_table("t", ("a", "b"))
        store.insert("t", [{"a": None, "b": i} for i in range(4)] + [{"a": 9, "b": 9}] * 4)
        stream = store.execute_batches(
            ScanRequest("t", (Predicate("a", "in", frozenset((None,))),)), ("b",)
        )
        assert sorted(row for batch in stream for row in batch.rows) == [(0,), (1,), (2,), (3,)]
        stream = store.execute_batches(
            ScanRequest("t", (Predicate("a", "in", frozenset((7, 8))),)), ("b",)
        )
        assert not [row for batch in stream for row in batch.rows]
        # The all-None segment, and the one whose zone [9, 9] holds neither key.
        assert stream.metrics.segments_skipped == 2


class TestHeapLookups:
    def test_an_unindexed_lookup_walks_the_heap_once(self):
        store = RelationalStore("pg")
        store.create_table("t", ("a", "b"))  # no key, no index: "a" is read by a walk
        rows = [{"a": i % 300, "b": i} for i in range(900)]
        store.insert("t", rows)
        keys = tuple(range(0, 512, 2))  # 256 keys, 106 of them absent
        result = store.execute(LookupRequest("t", keys), ("a", "b"))
        assert result.metrics.rows_scanned == len(rows)
        assert _bag(result.rows) == _bag(row for key in keys for row in rows if row["a"] == key)
