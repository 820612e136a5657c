"""Golden-plan regression tests.

The statement tree rendering (``explain``) of a fixed set of representative
queries is snapshotted verbatim: shard-key pruning, full shard fan-out, a
mediator join above a sharded gather, partial-aggregation pushdown, and the
logical-plan shard annotation.  Planner refactors that change a plan *shape*
must update these snapshots deliberately — they cannot drift silently.

Two guards hold the tree honest: ``explain`` renders exactly the tree
``query`` runs (golden statements and the benchmark spine's statement
shapes), and every runtime operator class is produced by some lowering —
an operator no statement reaches is dead code.

The deployments are built from fixed-size deterministic data, so cost-based
decisions (hash vs bind, pruning) are stable.
"""

from __future__ import annotations

import textwrap

import pytest

import repro.runtime
from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.runtime import Exchange, FusedPipeline, Operator
from repro.stores import DocumentStore, KeyValueStore, RelationalStore

POINT_SQL = "SELECT sku FROM purchases WHERE uid = 7"
SCAN_SQL = "SELECT uid, sku FROM purchases"
JOIN_SQL = "SELECT u.name, p.sku FROM users u, purchases p WHERE u.uid = p.uid"
PUSHDOWN_SQL = "SELECT category, SUM(price) AS total FROM purchases GROUP BY category"
FILTERED_PUSHDOWN_SQL = (
    "SELECT category, SUM(price) AS total FROM purchases WHERE price > 100 GROUP BY category"
)
UNSHARDED_AGGREGATE_SQL = "SELECT city, COUNT(uid) AS n FROM users GROUP BY city"
GOLDEN_SQL = (
    POINT_SQL, SCAN_SQL, JOIN_SQL, PUSHDOWN_SQL, FILTERED_PUSHDOWN_SQL, UNSHARDED_AGGREGATE_SQL
)
RANGE_SQL = "SELECT uid, ts FROM events WHERE val > 93 AND val <> 97"

# The benchmark spine's statement shapes over its ``app`` dataset: the three
# point_lookup statements and the five scan_analytics classes.
SPINE_SQL = (
    "SELECT kind, val, ts FROM events WHERE uid = 3",
    "SELECT name FROM users WHERE uid = 5",
    "SELECT uid, sku, qty FROM orders WHERE oid = 7",
    "SELECT uid, ts FROM events WHERE kind = 'k3' AND val = 7",
    "SELECT uid, val, ts FROM events WHERE val > 93",
    "SELECT uid, val FROM events",
    "SELECT u.city, o.sku, o.qty FROM users u, orders o WHERE u.uid = o.uid",
    "SELECT kind, COUNT(*) AS n, SUM(val) AS total FROM events GROUP BY kind",
)
# Statements reaching the operators neither list above does.
FURTHER_SQL = (
    RANGE_SQL,
    "SELECT DISTINCT kind FROM events LIMIT 2",
    "SELECT e.kind, t.tag FROM events e, tags t WHERE e.uid = t.uid",
)


def _view(name, head, body, columns):
    return ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)


@pytest.fixture(scope="module")
def deployment():
    """pg (users) + a 4-shard relational store (purchases), fixed data."""
    est = Estocada()
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("redis", KeyValueStore("redis"))
    est.register_sharded_store("shardpg", 4)
    est.register_relational_dataset(
        "shop",
        [
            TableSchema("users", ("uid", "name", "city"), primary_key=("uid",)),
            TableSchema("purchases", ("uid", "sku", "category", "price")),
        ],
    )
    est.register_fragment(
        StorageDescriptor(
            "F_users", "shop", "pg",
            _view("F_users", ["?u", "?n", "?c"], [Atom("users", ["?u", "?n", "?c"])],
                  ("uid", "name", "city")),
            StorageLayout("users"), AccessMethod("scan"),
        ),
        rows=[{"uid": i, "name": f"u{i}", "city": "paris" if i % 2 else "lyon"} for i in range(20)],
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_purchases", "shop", "shardpg",
            _view("F_purchases", ["?u", "?s", "?c", "?p"],
                  [Atom("purchases", ["?u", "?s", "?c", "?p"])],
                  ("uid", "sku", "category", "price")),
            StorageLayout("purchases"), AccessMethod("scan"),
            sharding=ShardingSpec("uid", 4),
        ),
        rows=[
            {"uid": i % 20, "sku": f"s{i % 11}", "category": f"c{i % 3}", "price": float(i)}
            for i in range(160)
        ],
        indexes=("uid",),
    )
    return est


@pytest.fixture(scope="module")
def app():
    """The spine's ``app`` layout in miniature, plus ``tags`` reachable by key only."""
    est = Estocada()
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("redis", KeyValueStore("redis"))
    est.register_store("mongo", DocumentStore("mongo"))
    tables = (
        TableSchema("users", ("uid", "name", "city"), primary_key=("uid",)),
        TableSchema("events", ("uid", "kind", "val", "ts")),
        TableSchema("orders", ("oid", "uid", "sku", "qty"), primary_key=("oid",)),
        TableSchema("tags", ("uid", "tag"), primary_key=("uid",)),
    )
    est.register_relational_dataset("app", tables)

    def identity(table, store, access=AccessMethod("scan")):
        variables = [f"?{column}" for column in table.columns]
        return StorageDescriptor(
            f"F_{table.name}", "app", store,
            _view(f"F_{table.name}", variables, [Atom(table.name, variables)], table.columns),
            StorageLayout(table.name), access,
        )

    users, events, orders, tags = tables
    est.register_fragment(
        identity(users, "pg"),
        rows=[{"uid": i, "name": f"user{i}", "city": f"city{i % 5}"} for i in range(30)],
        indexes=("uid",),
    )
    est.register_fragment(
        identity(events, "pg"),
        rows=[{"uid": i % 30, "kind": f"k{i % 4}", "val": (i * 37) % 100, "ts": i} for i in range(300)],
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_users_kv", "app", "redis",
            _view("F_users_kv", ["?u", "?n"], [Atom("users", ["?u", "?n", "?c"])], ("uid", "name")),
            StorageLayout("users_kv"), AccessMethod("lookup", key_columns=("uid",)),
        ),
        rows=[{"uid": i, "name": f"user{i}"} for i in range(30)],
    )
    est.register_fragment(
        identity(orders, "mongo"),
        rows=[{"oid": i, "uid": i % 30, "sku": f"s{i % 50}", "qty": 1 + i % 9} for i in range(200)],
        indexes=("oid", "uid"),
    )
    est.register_fragment(
        identity(tags, "redis", AccessMethod("lookup", key_columns=("uid",))),
        rows=[{"uid": i, "tag": f"t{i % 3}"} for i in range(0, 30, 2)],
    )
    return est


def _golden(text: str) -> str:
    return textwrap.dedent(text).strip("\n")


class TestGoldenPlans:
    def test_point_query_prunes_to_one_shard(self, deployment):
        explanation = deployment.explain(POINT_SQL, dataset="shop")
        assert explanation.plan_text() == _golden(
            """
            Fused[project(purchases_sku) → output(sku)]
              ShardGather[F_purchases, 1/4 shards]
                Exchange[F_purchases#3]
                  DelegatedRequest[store=shardpg.3, purchases#3, vars=['purchases_sku']]
            """
        )

    def test_unpruned_scan_fans_out_to_every_shard(self, deployment):
        explanation = deployment.explain(SCAN_SQL, dataset="shop")
        assert explanation.plan_text() == _golden(
            """
            Fused[project(purchases_uid, purchases_sku) → output(uid, sku)]
              ShardGather[F_purchases, 4/4 shards]
                Exchange[F_purchases#0]
                  DelegatedRequest[store=shardpg.0, purchases#0, vars=['purchases_sku', 'purchases_uid']]
                Exchange[F_purchases#1]
                  DelegatedRequest[store=shardpg.1, purchases#1, vars=['purchases_sku', 'purchases_uid']]
                Exchange[F_purchases#2]
                  DelegatedRequest[store=shardpg.2, purchases#2, vars=['purchases_sku', 'purchases_uid']]
                Exchange[F_purchases#3]
                  DelegatedRequest[store=shardpg.3, purchases#3, vars=['purchases_sku', 'purchases_uid']]
            """
        )

    def test_mediator_join_builds_on_the_sharded_gather(self, deployment):
        explanation = deployment.explain(JOIN_SQL, dataset="shop")
        assert explanation.plan_text() == _golden(
            """
            Fused[project(u_name, p_sku) → output(name, sku)]
              HashJoin[on=natural, emits=(u_name, p_sku)]
                ShardGather[F_purchases, 4/4 shards]
                  Exchange[F_purchases#0]
                    DelegatedRequest[store=shardpg.0, purchases#0, vars=['p_sku', 'p_uid']]
                  Exchange[F_purchases#1]
                    DelegatedRequest[store=shardpg.1, purchases#1, vars=['p_sku', 'p_uid']]
                  Exchange[F_purchases#2]
                    DelegatedRequest[store=shardpg.2, purchases#2, vars=['p_sku', 'p_uid']]
                  Exchange[F_purchases#3]
                    DelegatedRequest[store=shardpg.3, purchases#3, vars=['p_sku', 'p_uid']]
                Exchange[F_users]
                  DelegatedRequest[store=pg, users, vars=['p_uid', 'u_name']]
            """
        )

    def test_partial_aggregation_pushdown_shape(self, deployment):
        explanation = deployment.explain(PUSHDOWN_SQL, dataset="shop")
        assert explanation.plan_text() == "Fused[output(category, total)]\n" + textwrap.indent(
            _golden(
                """
                MergeAggregate[by purchases_category]
                  ShardGather[F_purchases, 4/4 shards]
                    Exchange[F_purchases#0]
                      PartialAggregate[by purchases_category]
                        DelegatedRequest[store=shardpg.0, purchases#0, vars=['purchases_category', 'purchases_price']]
                    Exchange[F_purchases#1]
                      PartialAggregate[by purchases_category]
                        DelegatedRequest[store=shardpg.1, purchases#1, vars=['purchases_category', 'purchases_price']]
                    Exchange[F_purchases#2]
                      PartialAggregate[by purchases_category]
                        DelegatedRequest[store=shardpg.2, purchases#2, vars=['purchases_category', 'purchases_price']]
                    Exchange[F_purchases#3]
                      PartialAggregate[by purchases_category]
                        DelegatedRequest[store=shardpg.3, purchases#3, vars=['purchases_category', 'purchases_price']]
                """
            ),
            "  ",
        )

    def test_a_range_filtered_aggregate_still_pushes_down_per_shard(self, deployment):
        # The comparison rides in every shard's request, so no Filter stands
        # between the Aggregate and the sharded scan.
        explanation = deployment.explain(FILTERED_PUSHDOWN_SQL, dataset="shop")
        branch = (
            "Exchange[F_purchases#{i}]\n"
            "  PartialAggregate[by purchases_category]\n"
            "    DelegatedRequest[store=shardpg.{i}, purchases#{i}, "
            "vars=['purchases_category', 'purchases_price'], where=[purchases_price > 100]]"
        )
        branches = "\n".join(branch.format(i=i) for i in range(4))
        assert explanation.plan_text() == "\n".join(
            (
                "Fused[output(category, total)]",
                "  MergeAggregate[by purchases_category]",
                "    ShardGather[F_purchases, 4/4 shards]",
                textwrap.indent(branches, "      "),
            )
        )

    def test_range_comparisons_ride_in_the_request_and_not_equal_stays(self, app):
        explanation = app.explain(RANGE_SQL, dataset="app")
        assert explanation.plan_text() == _golden(
            """
            Fused[filter(events_val != 97) → project(events_uid, events_ts) → output(uid, ts)]
              Exchange[F_events]
                DelegatedRequest[store=pg, events, vars=['events_ts', 'events_uid', 'events_val'], where=[events_val > 93]]
            """
        )

    def test_pushdown_refuses_non_shard_roots(self, deployment):
        explanation = deployment.explain(UNSHARDED_AGGREGATE_SQL, dataset="shop")
        assert explanation.plan_text() == _golden(
            """
            Fused[output(city, n)]
              Aggregate[by users_city]
                Exchange[F_users]
                  DelegatedRequest[store=pg, users, vars=['users_city', 'users_uid']]
            """
        )

    def test_logical_plan_carries_the_shard_annotation(self, deployment):
        explanation = deployment.explain(POINT_SQL, dataset="shop")
        assert explanation.chosen.plan.logical.explain() == _golden(
            """
            Project[purchases_sku]
              Access[store=shardpg, F_purchases, shards=1/4]
            """
        )


def _statements(deployment, app):
    """Every statement of this module with the facade and dataset it runs on."""
    return [(deployment, "shop", sql) for sql in GOLDEN_SQL] + [
        (app, "app", sql) for sql in SPINE_SQL + FURTHER_SQL
    ]


def _operators(root):
    yield root
    for child in root.children():
        yield from _operators(child)


class TestOneTreePerStatement:
    def test_explain_renders_the_tree_query_runs(self, deployment, app):
        for est, dataset, sql in _statements(deployment, app):
            shown = est.explain(sql, dataset=dataset).plan_text()
            ran = est.query(sql, dataset=dataset, parallelism=1).plan_description
            assert shown == ran.split("\n-- plan cache:")[0], sql

    def test_every_runtime_operator_is_produced_by_a_lowering(self, deployment, app):
        exported = {
            value
            for value in map(vars(repro.runtime).get, repro.runtime.__all__)
            if isinstance(value, type) and issubclass(value, Operator) and value is not Operator
        }
        assert {FusedPipeline, Exchange} <= exported
        lowered = {
            type(operator)
            for est, dataset, sql in _statements(deployment, app)
            for operator in _operators(est.explain(sql, dataset=dataset).root)
        }
        assert exported - lowered == set()
