"""Required-column pruning: each store request fetches only what is read above it.

The physical lowering walks the statement tree top-down with the columns
each node's ancestors read (output payloads, projections, filter columns,
aggregate keys and inputs, join keys).  These tests pin the fetch lists of
the benchmark spine's ``scan_analytics`` shapes, check that a column read
only by a comparison the store request carries is not fetched, that a
zero-column fetch keeps every row's multiplicity, that keyed-join and
per-shard partial-aggregate fetches are narrowed, and that the compiled
probe and result kernels are shared by statements of one shape over
different relations.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest

from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.runtime import DelegatedRequest, HashJoin, PartialAggregate
from repro.runtime.batch import binding_kernel, probe_kernel
from repro.stores import DocumentStore, KeyValueStore, RelationalStore

USERS = [{"uid": i, "name": f"user{i}", "city": f"city{i % 5}"} for i in range(40)]
EVENTS = [
    {"uid": i % 40, "kind": f"k{i % 4}", "val": (i * 37) % 100, "ts": i} for i in range(600)
]
ORDERS = [{"oid": i, "uid": i % 40, "sku": f"s{i % 50}", "qty": 1 + i % 9} for i in range(300)]
TAGS = [{"uid": i, "tag": f"t{i % 3}"} for i in range(0, 40, 2)]


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


@pytest.fixture(scope="module")
def app():
    """The spine's ``app`` layout in miniature: users/events in pg, orders in mongo."""
    est = Estocada()
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("mongo", DocumentStore("mongo"))
    est.register_store("redis", KeyValueStore("redis"))
    est.register_sharded_store("shardpg", 4)
    users, events, orders, tags, purchases = (
        TableSchema("users", ("uid", "name", "city"), primary_key=("uid",)),
        TableSchema("events", ("uid", "kind", "val", "ts")),
        TableSchema("orders", ("oid", "uid", "sku", "qty"), primary_key=("oid",)),
        TableSchema("tags", ("uid", "tag"), primary_key=("uid",)),
        TableSchema("purchases", ("uid", "category", "price", "note")),
    )
    est.register_relational_dataset("app", (users, events, orders, tags, purchases))
    est.register_fragment(_identity(users, "pg"), rows=USERS, indexes=("uid",))
    est.register_fragment(_identity(events, "pg"), rows=EVENTS, indexes=("uid",))
    est.register_fragment(_identity(orders, "mongo"), rows=ORDERS, indexes=("oid", "uid"))
    est.register_fragment(
        _identity(tags, "redis", AccessMethod("lookup", key_columns=("uid",))), rows=TAGS
    )
    est.register_fragment(
        _identity(purchases, "shardpg", sharding=ShardingSpec("uid", 4)),
        rows=[
            {"uid": i % 40, "category": f"c{i % 3}", "price": float(i), "note": "n"}
            for i in range(200)
        ],
    )
    return est


def _operators(root):
    yield root
    for child in root.children():
        yield from _operators(child)


def _fetches(est, sql, kind=DelegatedRequest):
    """The sorted variable list each ``kind`` operator of ``sql``'s plan fetches."""
    root = est.explain(sql, dataset="app").root
    listed = (re.search(r"vars=\[(.*?)\]", op.describe()).group(1) for op in _operators(root)
              if type(op) is kind)
    return [[name.strip("'") for name in text.split(", ") if name] for text in listed]


def _bag(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


class TestScanAnalyticsFetchLists:
    """The five ``scan_analytics`` shapes fetch only the columns they read."""

    def test_selective_scan_fetches_its_outputs(self, app):
        sql = "SELECT uid, ts FROM events WHERE kind = 'k3' AND val = 7"
        assert _fetches(app, sql) == [["events_ts", "events_uid"]]

    def test_range_scan_fetches_its_outputs(self, app):
        sql = "SELECT uid, val, ts FROM events WHERE val > 93"
        assert _fetches(app, sql) == [["events_ts", "events_uid", "events_val"]]

    def test_full_project_fetches_two_of_four_columns(self, app):
        assert _fetches(app, "SELECT uid, val FROM events") == [["events_uid", "events_val"]]

    def test_cross_store_join_fetches_outputs_and_keys(self, app):
        sql = "SELECT u.city, o.sku, o.qty FROM users u, orders o WHERE u.uid = o.uid"
        assert sorted(_fetches(app, sql)) == [["o_qty", "o_sku", "o_uid"], ["o_uid", "u_city"]]
        (join,) = [op for op in _operators(app.explain(sql, dataset="app").root)
                   if isinstance(op, HashJoin)]
        assert join.describe() == "HashJoin[on=natural, emits=(u_city, o_sku, o_qty)]"
        rows = app.query(sql, dataset="app").rows
        city = {user["uid"]: user["city"] for user in USERS}
        assert _bag(rows) == _bag(
            {"city": city[order["uid"]], "sku": order["sku"], "qty": order["qty"]}
            for order in ORDERS
        )

    def test_group_by_fetches_key_and_input(self, app):
        sql = "SELECT kind, COUNT(*) AS n, SUM(val) AS total FROM events GROUP BY kind"
        assert _fetches(app, sql) == [["events_kind", "events_val"]]


class TestWhatMustStillBeFetched:
    def test_a_pushed_filter_column_is_not_fetched(self, app):
        sql = "SELECT uid, ts FROM events WHERE val > 93"
        # The store evaluates the comparison on its own column: nothing above
        # reads events_val, so the request does not fetch it.
        assert _fetches(app, sql) == [["events_ts", "events_uid"]]
        assert "filter(" not in app.explain(sql, dataset="app").plan_text()
        rows = app.query(sql, dataset="app").rows
        assert _bag(rows) == _bag(
            {"uid": event["uid"], "ts": event["ts"]} for event in EVENTS if event["val"] > 93
        )
        assert all(set(row) == {"uid", "ts"} for row in rows)

    def test_count_star_over_a_zero_column_fetch_counts_every_row(self, app):
        sql = "SELECT COUNT(*) FROM events"
        assert _fetches(app, sql) == [[]]  # no column at all
        (row,) = app.query(sql, dataset="app").rows
        assert list(row.values()) == [len(EVENTS)]

    def test_bind_join_fetch_is_narrowed(self, app):
        sql = "SELECT e.kind FROM events e, tags t WHERE e.uid = t.uid"
        (keyed,) = [op for op in _operators(app.explain(sql, dataset="app").root)
                    if getattr(op, "key_variable", None)]
        assert re.search(r"vars=\[(.*?)\]", keyed.describe()).group(1) == "'e_uid'"
        tagged = {tag["uid"] for tag in TAGS}
        assert _bag(app.query(sql, dataset="app").rows) == _bag(
            {"kind": event["kind"]} for event in EVENTS if event["uid"] in tagged
        )

    def test_per_shard_partial_aggregate_fetches_are_narrowed(self, app):
        sql = "SELECT category, SUM(price) AS total FROM purchases GROUP BY category"
        root = app.explain(sql, dataset="app").root
        partials = [op for op in _operators(root) if isinstance(op, PartialAggregate)]
        assert len(partials) == 4
        assert _fetches(app, sql) == [["purchases_category", "purchases_price"]] * 4
        totals = Counter()
        for i in range(200):
            totals[f"c{i % 3}"] += float(i)
        rows = app.query(sql, dataset="app").rows
        assert {row["category"]: row["total"] for row in rows} == dict(totals)


class TestKernelsAreSharedByShape:
    def test_chain_joins_over_different_relations_share_their_kernels(self):
        est = Estocada()
        est.register_store("pg", RelationalStore("pg"))
        tables = [TableSchema(f"r{i}", ("a", "b")) for i in range(4)]
        est.register_relational_dataset("app", tables)
        for table in tables:
            est.register_fragment(
                _identity(table, "pg"),
                rows=[{"a": i % 5, "b": (i * 3) % 5} for i in range(10)],
                indexes=("a",),
            )

        def chain(i, j):
            sql = f"SELECT t1.b FROM r{i} t0, r{j} t1 WHERE t0.a = 2 AND t0.b = t1.a"
            assert "HashJoin" in est.explain(sql, dataset="app").plan_text()
            rows = est.query(sql, dataset="app").rows
            return rows, probe_kernel.cache_info(), binding_kernel.cache_info()

        rows, probes, boundaries = chain(0, 1)
        assert rows
        rows, probes_after, boundaries_after = chain(2, 3)
        assert rows
        # The second statement names other relations and variables, yet
        # compiles nothing: both kernels come from the shape-keyed caches.
        assert probes_after.currsize == probes.currsize
        assert probes_after.hits > probes.hits
        assert boundaries_after.currsize == boundaries.currsize
        assert boundaries_after.hits > boundaries.hits
