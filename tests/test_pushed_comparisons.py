"""WHERE comparisons compiled into store requests when the plan is lowered.

A comparison of a variable with a non-None literal by ``<``, ``<=``, ``>``
or ``>=`` rides in the ``ScanRequest`` of every scan that outputs the
variable, when the scan's store selects; the statement's Filter keeps the
rest, so each comparison is evaluated exactly once.  ``!=`` stays in the
Filter: a store's ``!=`` keeps a row whose value is None, and SQL drops it.

These tests check both halves over rows whose compared value is None — on
an in-memory relational store, a durable one, durable replicas and a
document collection where the path is missing — and that a keyed join's
right side takes no comparison.  Then what a pushed comparison buys: zone maps skip
frozen segments (on a lone store and on replicas alike), a filtered scan
records no cardinality observation, and an Aggregate over a range-filtered
sharded scan still reduces per shard.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace

import pytest

from conftest import register
from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.plan import LogicalFilter, PhysicalPlanner
from repro.runtime import (
    ExecutionEngine,
    FusedPipeline,
    HashJoin,
    MergeAggregate,
    PartialAggregate,
    PredicateSpec,
)
from repro.stores import DocumentStore, RelationalStore, ReplicatedStore

# Every fourth row's x is None (a document of the collection lacks the path).
ROWS = [{"k": i, "g": f"g{i % 3}", "x": None if i % 4 == 0 else i % 10} for i in range(48)]


def _descriptor(store, layout, sharding=None):
    view = ViewDefinition(
        "F_t",
        ConjunctiveQuery("F_t", ["?k", "?g", "?x"], [Atom("t", ["?k", "?g", "?x"])]),
        column_names=("k", "g", "x"),
    )
    return StorageDescriptor(
        "F_t", "app", store, view, layout, AccessMethod("scan"), sharding=sharding
    )


def _relational(name, replicated):
    """One relational store, or three full-copy replicas behind a router."""
    if replicated:
        return ReplicatedStore.homogeneous(name, 3, RelationalStore)
    return RelationalStore(name)


def _facade(kind, tmp_path):
    """``t(k, g, x)`` in one store: in memory, durable (small segments, one
    store or three replicas) or documents."""
    durable = kind in ("durable", "replicated")
    est = Estocada(durable_path=str(tmp_path / "d") if durable else None)
    est.register_relational_dataset("app", [TableSchema("t", ("k", "g", "x"))])
    if kind == "document":
        est.register_store("mongo", DocumentStore("mongo"))
        documents = [{k: v for k, v in row.items() if v is not None} for row in ROWS]
        est.catalog.store("mongo").insert("t", documents)
        est.register_fragment(_descriptor("mongo", StorageLayout("t")))
    else:
        store = _relational("pg", kind == "replicated")
        register(est, "pg", store, segment_rows=8 if durable else None)
        est.register_fragment(_descriptor("pg", StorageLayout("t")), rows=ROWS)
    return est


def _keys(rows):
    return Counter(row["k"] for row in rows)


@pytest.mark.parametrize("kind", ["memory", "durable", "replicated", "document"])
class TestNoneValuedRows:
    def test_not_equal_stays_in_the_filter_and_drops_none(self, kind, tmp_path):
        est = _facade(kind, tmp_path)
        sql = "SELECT k FROM t WHERE x <> 5"
        text = est.explain(sql, dataset="app").plan_text()
        assert "filter(t_x != 5)" in text
        assert "where=" not in text
        rows = est.query(sql, dataset="app").rows
        assert _keys(rows) == _keys(r for r in ROWS if r["x"] is not None and r["x"] != 5)

    def test_a_range_comparison_sits_on_the_request_and_drops_none(self, kind, tmp_path):
        est = _facade(kind, tmp_path)
        sql = "SELECT k FROM t WHERE x > 4"
        text = est.explain(sql, dataset="app").plan_text()
        assert "filter(" not in text
        assert "where=[t_x > 4]" in text
        rows = est.query(sql, dataset="app").rows
        assert _keys(rows) == _keys(r for r in ROWS if r["x"] is not None and r["x"] > 4)

    def test_both_together(self, kind, tmp_path):
        est = _facade(kind, tmp_path)
        sql = "SELECT k FROM t WHERE x <> 7 AND x <= 8"
        text = est.explain(sql, dataset="app").plan_text()
        assert "filter(t_x != 7)" in text and "where=[t_x <= 8]" in text
        rows = est.query(sql, dataset="app").rows
        assert _keys(rows) == _keys(
            r for r in ROWS if r["x"] is not None and r["x"] != 7 and r["x"] <= 8
        )


class TestWhatStaysInTheFilter:
    def test_a_bind_join_probe_takes_no_comparison(self):
        # t in pg, u in pg2: a mediator join, forced to probe u per t row.
        est = Estocada()
        est.register_store("pg", RelationalStore("pg"))
        est.register_store("pg2", RelationalStore("pg2"))
        est.register_relational_dataset(
            "app", [TableSchema("t", ("k", "g", "x")), TableSchema("u", ("k", "name"))]
        )
        est.register_fragment(_descriptor("pg", StorageLayout("t")), rows=ROWS, indexes=("k",))
        users = [{"k": k, "name": f"n{k}"} for k in range(0, 48, 5)]
        view = ViewDefinition(
            "F_u",
            ConjunctiveQuery("F_u", ["?k", "?n"], [Atom("u", ["?k", "?n"])]),
            column_names=("k", "name"),
        )
        est.register_fragment(
            StorageDescriptor("F_u", "app", "pg2", view, StorageLayout("u"), AccessMethod("scan")),
            rows=users,
        )
        joins = est.explain(
            "SELECT u.name, t.x FROM t, u WHERE t.k = u.k", dataset="app"
        ).chosen.plan.logical.joins
        assert joins.right.describe() == "Access[store=pg2, F_u]"
        filtered = LogicalFilter(
            replace(joins, algorithm="bind"),
            (PredicateSpec("t_x", ">", 4), PredicateSpec("u_name", ">", "n2")),
        )
        root = PhysicalPlanner().lower_tree(filtered)
        # The scan of t takes its comparison; u's rows only come from its keys.
        assert root.describe() == "Fused[filter(u_name > 'n2')]"
        assert type(root.child) is HashJoin
        assert root.child.children()[1].key_variable == "t_k"
        assert "where=[t_x > 4]" in root.explain()
        rows = ExecutionEngine().execute(root).rows
        assert Counter((row["t_k"], row["u_name"]) for row in rows) == Counter(
            (r["k"], u["name"])
            for r in ROWS
            if r["x"] is not None and r["x"] > 4
            for u in users
            if u["k"] == r["k"] and u["name"] > "n2"
        )


class TestWhatAPushedComparisonBuys:
    @pytest.mark.parametrize("replicated", [False, True])
    def test_zone_maps_skip_frozen_segments_through_the_facade(self, replicated, tmp_path):
        est = Estocada(durable_path=str(tmp_path / "d"))
        register(est, "pg", _relational("pg", replicated), segment_rows=20)
        est.register_relational_dataset("app", [TableSchema("ev", ("ts", "v"))])
        view = ViewDefinition(
            "F_ev",
            ConjunctiveQuery("F_ev", ["?t", "?v"], [Atom("ev", ["?t", "?v"])]),
            column_names=("ts", "v"),
        )
        rows = [{"ts": ts, "v": ts % 7} for ts in range(400)]
        est.register_fragment(
            StorageDescriptor("F_ev", "app", "pg", view, StorageLayout("ev"), AccessMethod("scan")),
            rows=rows,
        )
        result = est.query("SELECT v FROM ev WHERE ts >= 380", dataset="app")
        assert Counter(row["v"] for row in result.rows) == Counter(
            row["v"] for row in rows if row["ts"] >= 380
        )
        segments = result.summary()["segments"]
        assert segments["skipped"] >= 18
        assert segments["scanned"] + segments["skipped"] == 20

    def test_a_filtered_scan_records_no_cardinality_observation(self, tmp_path):
        est = _facade("memory", tmp_path)
        assert est.query("SELECT k FROM t", dataset="app").observed_cardinalities == {
            "F_t": len(ROWS)
        }
        filtered = est.query("SELECT k FROM t WHERE x >= 2", dataset="app")
        assert "where=[t_x >= 2]" in filtered.plan_description
        assert filtered.observed_cardinalities == {}

    def test_an_aggregate_over_a_range_filtered_sharded_scan_reduces_per_shard(self):
        est = Estocada()
        est.register_sharded_store("shardpg", 4)
        est.register_relational_dataset("app", [TableSchema("t", ("k", "g", "x"))])
        est.register_fragment(
            _descriptor("shardpg", StorageLayout("t"), sharding=ShardingSpec("k", 4)), rows=ROWS
        )
        sql = "SELECT g, SUM(x) AS total, COUNT(*) AS n FROM t WHERE x >= 3 GROUP BY g"
        root = est.explain(sql, dataset="app").root
        operators = list(_operators(root))
        merges = [op for op in operators if isinstance(op, MergeAggregate)]
        partials = [op for op in operators if isinstance(op, PartialAggregate)]
        assert len(merges) == 1 and len(partials) == 4
        assert all(
            "filter(" not in op.describe() for op in operators if isinstance(op, FusedPipeline)
        )
        expected: dict[str, list] = defaultdict(lambda: [0, 0])
        for row in ROWS:
            if row["x"] is not None and row["x"] >= 3:
                expected[row["g"]][0] += row["x"]
                expected[row["g"]][1] += 1
        rows = est.query(sql, dataset="app").rows
        assert {row["g"]: [row["total"], row["n"]] for row in rows} == dict(expected)


def _operators(root):
    yield root
    for child in root.children():
        yield from _operators(child)
