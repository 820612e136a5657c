"""The native columnar batch pipeline: kernels, fusion, batch streams, config.

Covers the read path end to end:

* ``RowBatch`` edge cases (empty batches, ``from_bindings`` schema mismatch,
  a LIMIT landing exactly on a batch boundary);
* the kernel builders (predicates, projections, vectorized join keys) and
  the fused-stage semantics, including a hypothesis property holding fused
  and unfused stage chains bag-identical;
* the stores' native ``execute_batches`` streams against a plain-Python
  filter of the inserted rows (bag-identical rows, batch shape,
  exactly-once finalization);
* ``freeze_value`` fast paths and the configurable batch size
  (``Estocada(batch_size=...)``);
* the per-operator throughput counters in ``summary()["execution"]``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Estocada
from repro.runtime.batch import (
    RowBatch,
    batches_from_bindings,
    freeze_value,
)
from repro.runtime.engine import ExecutionEngine
from repro.runtime.kernels import (
    FilterStage,
    FusedPipeline,
    OutputStage,
    PredicateSpec,
    ProjectStage,
    key_kernel,
    predicate_kernel,
    projection_kernel,
)
from repro.runtime.operators import ExecutionContext, Operator
from repro.stores import (
    DocumentStore,
    FullTextStore,
    KeyValueStore,
    RelationalStore,
    ShardedStore,
)
from repro.stores.base import LookupRequest, Predicate, ScanRequest
from repro.stores.sharding import ShardingSpec


class _Rows(Operator):
    """A source operator yielding fixed rows in fixed-size batches."""

    def __init__(self, columns, rows, batch_size=3):
        self._columns = tuple(columns)
        self._rows = [tuple(row) for row in rows]
        self._batch_size = batch_size

    def _batches(self, context):
        for start in range(0, len(self._rows), self._batch_size):
            yield RowBatch(self._columns, self._rows[start : start + self._batch_size])


def _drain(operator):
    """An operator's whole output as binding dicts."""
    return [row for batch in operator.batches(ExecutionContext()) for row in batch.to_bindings()]


# -- RowBatch edge cases -------------------------------------------------------------


class TestRowBatchEdges:
    def test_empty_batch_is_falsy_and_iterates_nothing(self):
        batch = RowBatch(("a", "b"), [])
        assert len(batch) == 0
        assert not batch
        assert batch.to_bindings() == []
        assert batch.take(5) is batch

    def test_from_bindings_schema_mismatch_fills_none(self):
        # Rows disagreeing on their keys: absent columns surface as None,
        # like the dict boundary.
        batch = RowBatch.from_bindings([{"a": 1}, {"b": 2}, {"a": 3, "b": 4}], ("a", "b"))
        assert batch.columns == ("a", "b")
        assert batch.rows == [(1, None), (None, 2), (3, 4)]

    def test_from_bindings_explicit_columns_drop_and_fill(self):
        batch = RowBatch.from_bindings([{"a": 1, "b": 2}], columns=("b", "c"))
        assert batch.columns == ("b", "c")
        assert batch.rows == [(2, None)]

    def test_batches_from_bindings_respects_batch_size(self):
        batches = list(batches_from_bindings([{"a": i} for i in range(7)], ("a",), batch_size=3))
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_fused_limit_exactly_at_batch_boundary(self):
        # 9 rows in batches of 3, LIMIT 6: the pipeline must stop after the
        # second batch without pulling the third, and emit exactly 6 rows.
        pulled = []

        class _Tracking(_Rows):
            def _batches(self, context):
                for batch in super()._batches(context):
                    pulled.append(len(batch))
                    yield batch

        source = _Tracking(("a",), [(i,) for i in range(9)], batch_size=3)
        fused = FusedPipeline(source, (), limit=6)
        rows = _drain(fused)
        assert [r["a"] for r in rows] == list(range(6))
        assert pulled == [3, 3]

    def test_query_limit_exactly_at_batch_boundary(self):
        est = _single_store_estocada(batch_size=5)
        result = est.query(
            "SELECT uid, sku FROM purchases LIMIT 5", dataset="shop"
        )
        assert len(result.rows) == 5


# -- kernels -------------------------------------------------------------------------


class TestKernels:
    def test_predicate_kernel_missing_column_drops_everything(self):
        kernel = predicate_kernel((PredicateSpec("missing", "=", 1),), ("a", "b"))
        assert kernel([(1, 2), (3, 4)]) == []

    def test_predicate_kernel_column_vs_column(self):
        kernel = predicate_kernel(
            (PredicateSpec("a", "<", "b", value_is_column=True),), ("a", "b")
        )
        assert kernel([(1, 2), (5, 2), (None, 2), (1, None)]) == [(1, 2)]

    def test_predicate_kernel_conjunction(self):
        kernel = predicate_kernel(
            (PredicateSpec("a", ">=", 1), PredicateSpec("b", "!=", "x")), ("a", "b")
        )
        assert kernel([(0, "y"), (2, "x"), (2, "y"), (None, "y")]) == [(2, "y")]

    def test_projection_kernel_fills_missing_with_none(self):
        transform = projection_kernel(("a", "b"), ("b", "missing"))
        assert transform((1, 2)) == (2, None)

    def test_key_kernel_single_column_uses_bare_scalars(self):
        keys = key_kernel(("a", "b"), ("b",))([(1, "x"), (2, "y")])
        assert keys == ["x", "y"]

    def test_key_kernel_multi_column_and_missing(self):
        keys = key_kernel(("a", "b"), ("b", "missing"))([(1, "x")])
        assert keys == [("x", None)]

    def test_output_stage_names_columns_in_order(self):
        # Exactly the listed columns, in order: an aggregate's column, a
        # renamed variable, a constant, and None for a column the input lacks.
        stage = OutputStage(
            (("n", True, "total"), ("name", True, "u"), ("fixed", False, 7), ("gone", True, "x"))
        )
        schema, kernel = stage.compile(("u", "total", "unlisted"))
        assert schema == ("n", "name", "fixed", "gone")
        assert kernel([("alice", 3, "dropped")]) == [(3, "alice", 7, None)]

    def test_lowering_fuses_a_stage_chain_into_one_pipeline(self):
        est = _single_store_estocada()
        # "!=" stays a mediator filter, fused with the projection and output.
        root = est.explain(
            "SELECT uid FROM purchases WHERE price <> 1 LIMIT 2", dataset="shop"
        ).root
        assert isinstance(root, FusedPipeline) and root.limit == 2
        assert [type(stage) for stage in root.stages] == [FilterStage, ProjectStage, OutputStage]
        assert "Exchange" in root.child.describe()
        # A range comparison rides in the store request: no filter stage.
        root = est.explain(
            "SELECT uid FROM purchases WHERE price > 1 LIMIT 2", dataset="shop"
        ).root
        assert [type(stage) for stage in root.stages] == [ProjectStage, OutputStage]
        assert "where=[purchases_price > 1]" in root.explain()

    def test_lowering_never_fuses_past_a_limit(self):
        from repro.plan import LogicalFilter, LogicalLimit, PhysicalPlanner

        plan = _single_store_estocada().explain(
            "SELECT uid FROM purchases", dataset="shop"
        ).chosen.plan.logical
        tree = LogicalFilter(LogicalLimit(plan.root, 1), (PredicateSpec("purchases_uid", "=", 1),))
        root = PhysicalPlanner().lower_tree(tree)
        # Fusing across the LIMIT would filter before truncating — forbidden.
        assert root.stages == (FilterStage((PredicateSpec("purchases_uid", "=", 1),)),)
        assert root.limit is None
        assert isinstance(root.child, FusedPipeline) and root.child.limit == 1


ROWS = st.lists(
    st.tuples(
        st.integers(min_value=-5, max_value=5),
        st.sampled_from(["x", "y", "z", None]),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=30,
)


class TestFusedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=ROWS,
        threshold=st.integers(min_value=-5, max_value=5),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
        batch_size=st.integers(min_value=1, max_value=7),
    )
    def test_fused_chain_matches_unfused_stages(
        self, rows, threshold, op, limit, batch_size
    ):
        """Property: one fused pipeline ≡ a chain of single-stage pipelines.

        (For LIMIT queries equality still holds because both variants consume
        the same deterministic source order.)
        """
        stages = (
            FilterStage((PredicateSpec("a", op, threshold),)),
            ProjectStage(("b", "c")),
            OutputStage((("tag", True, "b"), ("count", True, "c"))),
        )
        columns = ("a", "b", "c")
        fused = FusedPipeline(
            _Rows(columns, rows, batch_size), stages, limit=limit
        )
        unfused: Operator = _Rows(columns, rows, batch_size)
        for stage in stages:
            unfused = FusedPipeline(unfused, (stage,))
        unfused = FusedPipeline(unfused, (), limit=limit)
        fused_rows = [tuple(sorted(r.items())) for r in _drain(fused)]
        unfused_rows = [tuple(sorted(r.items())) for r in _drain(unfused)]
        assert fused_rows == unfused_rows


# -- native store batch streams ------------------------------------------------------


def _assert_batch_stream(store, request, columns, expected):
    """A native batch stream answers ``expected``, in well-shaped batches.

    ``expected`` holds the row tuples of ``columns`` that a plain-Python
    filter of the rows the test inserted selects; the stream must yield that
    bag in batches of the asked schema and size, and finalize exactly once.
    """
    served_before = store.requests_served
    batch_stream = store.execute_batches(request, columns, batch_size=4)
    batches = list(batch_stream)
    batch_rows = [row for batch in batches for row in batch.rows]
    assert all(batch.columns == tuple(columns) for batch in batches)
    assert all(len(batch) <= 4 for batch in batches)
    assert batch_stream.finalized
    assert store.requests_served == served_before + 1
    assert Counter(batch_rows) == Counter(expected)
    assert batch_stream.metrics.rows_returned == len(batch_rows)
    return batch_stream.metrics


class TestStoreBatchStreams:
    def test_relational_native_scan(self):
        store = RelationalStore("pg")
        store.create_table("t", ("a", "b"), primary_key=("a",))
        rows = [{"a": i, "b": i % 3} for i in range(25)]
        store.insert("t", rows)
        store.create_index("t", "b")
        _assert_batch_stream(
            store,
            ScanRequest("t", predicates=(Predicate("b", "=", 1),)),
            ("a", "b"),
            [(row["a"], row["b"]) for row in rows if row["b"] == 1],
        )
        _assert_batch_stream(
            store, ScanRequest("t"), ("b", "missing"), [(row["b"], None) for row in rows]
        )
        metrics = _assert_batch_stream(
            store, ScanRequest("t", limit=7), ("a",), [(row["a"],) for row in rows[:7]]
        )
        assert metrics.rows_returned == 7

    def test_document_native_scan_uses_path_predicates(self):
        store = DocumentStore("mongo")
        documents = [
            {"_id": i, "user": {"city": "paris" if i % 2 else "lyon"}, "n": i} for i in range(10)
        ]
        store.insert("c", documents)
        store.create_index("c", "user.city")
        _assert_batch_stream(
            store,
            ScanRequest("c", predicates=(Predicate("user.city", "=", "paris"),)),
            ("_id", "n"),
            [(doc["_id"], doc["n"]) for doc in documents if doc["user"]["city"] == "paris"],
        )

    def test_keyvalue_native_lookup(self):
        store = KeyValueStore("redis")
        entries = {i: {"v": i * 10, "w": -i} for i in range(5)}
        store.put_many("kv", entries)
        store.put("kv", 99, "scalar")
        _assert_batch_stream(
            store,
            LookupRequest("kv", keys=(0, 3, 42, 99)),
            ("key", "v", "value"),
            [(key, entries[key]["v"], None) for key in (0, 3, 42) if key in entries]
            + [(99, None, "scalar")],
        )

    def test_fulltext_native_scan(self):
        store = FullTextStore("solr")
        store.create_collection("docs", indexed_fields=("title",))
        documents = [
            {"_id": i, "title": f"doc {i}", "lang": "fr" if i % 2 else "en"} for i in range(8)
        ]
        store.insert("docs", documents)
        _assert_batch_stream(
            store,
            ScanRequest("docs", predicates=(Predicate("lang", "=", "fr"),)),
            ("_id", "title"),
            [(doc["_id"], doc["title"]) for doc in documents if doc["lang"] == "fr"],
        )

    def test_sharded_router_forwards_child_batches(self):
        store = ShardedStore.homogeneous("shardpg", 4, RelationalStore)
        store.set_sharding("t", ShardingSpec("a", 4))
        for child in store.shard_stores():
            child.create_table("t", ("a", "b"))
        rows = [{"a": i, "b": i % 5} for i in range(40)]
        store.insert("t", rows)
        metrics = _assert_batch_stream(
            store, ScanRequest("t"), ("a", "b"), [(row["a"], row["b"]) for row in rows]
        )
        assert metrics.partitions_used == 4
        pruned = _assert_batch_stream(
            store,
            ScanRequest("t", predicates=(Predicate("a", "=", 7),)),
            ("a", "b"),
            [(row["a"], row["b"]) for row in rows if row["a"] == 7],
        )
        assert pruned.partitions_used == 1
        assert pruned.partitions_pruned == 3

    def test_abandoned_sharded_stream_keeps_partition_metrics(self):
        # A LIMIT early-exit abandons the router's stream mid-shard; the
        # partition accounting (and the child scan work already folded in)
        # must still reach the finalized metrics — the router's generator is
        # closed before the metrics snapshot is taken.
        store = ShardedStore.homogeneous("shardpg", 4, RelationalStore)
        store.set_sharding("t", ShardingSpec("a", 4))
        for child in store.shard_stores():
            child.create_table("t", ("a", "b"))
        store.insert("t", [{"a": i, "b": i % 5} for i in range(40)])
        stream = store.execute_batches(ScanRequest("t"), ("a", "b"), batch_size=5)
        iterator = iter(stream)
        next(iterator)
        iterator.close()
        assert stream.finalized
        assert stream.metrics.partitions_used >= 1
        assert stream.metrics.partitions_used + stream.metrics.partitions_pruned == 4
        assert stream.metrics.rows_scanned > 0

    def test_batch_stream_is_single_shot(self):
        store = RelationalStore("pg")
        store.create_table("t", ("a",))
        store.insert("t", [{"a": 1}])
        stream = store.execute_batches(ScanRequest("t"), ("a",))
        assert [b.rows for b in stream] == [[(1,)]]
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            list(stream)

    def test_abandoned_batch_stream_finalizes_once(self):
        store = RelationalStore("pg")
        store.create_table("t", ("a",))
        store.insert("t", [{"a": i} for i in range(100)])
        stream = store.execute_batches(ScanRequest("t"), ("a",), batch_size=10)
        iterator = iter(stream)
        next(iterator)
        iterator.close()
        assert stream.finalized
        assert stream.metrics.rows_returned == 10
        assert store.requests_served == 1


def _sharded_events_estocada(shards=2):
    """``events(g, v, extra)`` in a ``shards``-shard relational store."""
    from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
    from repro.core import Atom, ConjunctiveQuery, ViewDefinition
    from repro.datamodel import TableSchema

    est = Estocada()
    est.register_sharded_store("shardpg", shards)
    est.register_relational_dataset("app", [TableSchema("events", ("g", "v", "extra"))])
    view = ViewDefinition(
        "F_events",
        ConjunctiveQuery("F_events", ["?g", "?v", "?e"], [Atom("events", ["?g", "?v", "?e"])]),
        column_names=("g", "v", "extra"),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_events", "app", "shardpg", view, StorageLayout("events"),
            AccessMethod("scan"), sharding=ShardingSpec("v", shards),
        ),
        rows=[{"g": "ab"[i % 2], "v": i, "extra": None} for i in range(10)],
    )
    return est


class TestFusedPushdown:
    def test_partial_aggregation_is_chosen_on_logical_nodes(self):
        # An Aggregate directly over a sharded access lowers to per-shard
        # partials merged above the gather, answering like a plain Aggregate
        # over the gathered rows.
        from repro.plan import LogicalAggregate, PhysicalPlanner
        from repro.runtime.operators import Aggregate, MergeAggregate

        est = _sharded_events_estocada()
        plan = est.explain("SELECT g, v FROM events", dataset="app").chosen.plan.logical
        aggregations = {"total": ("sum", "events_v"), "n": ("count", None)}
        planner = PhysicalPlanner()
        pushed = planner.lower_tree(
            LogicalAggregate(plan.joins, ("events_g",), aggregations, scalar=False)
        )
        assert isinstance(pushed, MergeAggregate)
        assert pushed.explain().count("PartialAggregate") == 2
        plain = Aggregate(planner.lower_tree(plan.joins), ("events_g",), aggregations)
        assert sorted(map(sorted, map(dict.items, _drain(pushed)))) == sorted(
            map(sorted, map(dict.items, _drain(plain)))
        )

    def test_pushdown_refuses_a_limit_but_not_a_pushed_filter(self):
        from repro.plan import LogicalAggregate, LogicalFilter, LogicalLimit, PhysicalPlanner
        from repro.runtime.operators import Aggregate, MergeAggregate

        est = _sharded_events_estocada()
        joins = est.explain("SELECT g, v FROM events", dataset="app").chosen.plan.logical.joins
        aggregations = {"total": ("sum", "events_v")}
        root = PhysicalPlanner().lower_tree(
            LogicalAggregate(LogicalLimit(joins, 1), ("events_g",), aggregations, scalar=False)
        )
        assert type(root) is Aggregate
        assert "PartialAggregate" not in root.explain()
        # The range comparison goes into every shard's request, so nothing
        # stands between the Aggregate and the sharded scan.
        filtered = LogicalFilter(joins, (PredicateSpec("events_v", ">", 4),))
        root = PhysicalPlanner().lower_tree(
            LogicalAggregate(filtered, ("events_g",), aggregations, scalar=False)
        )
        assert type(root) is MergeAggregate
        assert root.explain().count("PartialAggregate") == 2
        assert root.explain().count("where=[events_v > 4]") == 2
        assert sorted(map(sorted, map(dict.items, _drain(root)))) == [
            [("events_g", "a"), ("total", 6 + 8)],
            [("events_g", "b"), ("total", 5 + 7 + 9)],
        ]


# -- freeze_value fast paths ---------------------------------------------------------


class TestFreezeValue:
    def test_scalars_pass_through_identically(self):
        for value in ("s", 1, 1.5, True, None, b"b"):
            assert freeze_value(value) is value

    def test_dict_payloads_freeze_once(self):
        frozen = freeze_value({"b": 2, "a": [1, {"x": 1}]})
        assert frozen == (("a", (1, (("x", 1),))), ("b", 2))
        # Re-freezing an already-frozen payload is a no-op (same object).
        assert freeze_value(frozen) is frozen

    def test_sets_and_tuples(self):
        assert freeze_value({1, 2}) == frozenset({1, 2})
        assert freeze_value((1, [2])) == (1, (2,))


# -- configurable batch size ---------------------------------------------------------


def _single_store_estocada(batch_size=None):
    from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
    from repro.core import Atom, ConjunctiveQuery, ViewDefinition
    from repro.datamodel import TableSchema

    est = Estocada(batch_size=batch_size)
    est.register_store("pg", RelationalStore("pg"))
    est.register_relational_dataset(
        "shop", [TableSchema("purchases", ("uid", "sku", "price"))]
    )
    est.register_fragment(
        StorageDescriptor(
            "F_purchases",
            "shop",
            "pg",
            ViewDefinition(
                "F_purchases",
                ConjunctiveQuery(
                    "F_purchases", ["?u", "?s", "?p"],
                    [Atom("purchases", ["?u", "?s", "?p"])],
                ),
                column_names=("uid", "sku", "price"),
            ),
            StorageLayout("purchases"),
            AccessMethod("scan"),
        ),
        rows=[{"uid": i % 6, "sku": f"s{i}", "price": float(i)} for i in range(20)],
    )
    return est


class TestBatchSizeConfig:
    def test_default_is_256(self):
        assert ExecutionEngine().batch_size == 256
        assert Estocada().batch_size == 256

    def test_kwarg_below_one_raises(self):
        with pytest.raises(ValueError):
            ExecutionEngine(batch_size=0)
        with pytest.raises(ValueError):
            Estocada(batch_size=-3)

    def test_kwarg_reaches_execution(self):
        est = _single_store_estocada(batch_size=4)
        assert est.batch_size == 4
        result = est.query("SELECT uid, sku FROM purchases", dataset="shop")
        assert result.summary()["execution"]["batch_size"] == 4
        assert result.batches >= 5  # 20 rows / 4 per batch

    def test_batch_size_does_not_change_answers(self):
        reference = None
        for batch_size in (1, 3, 256):
            result = _single_store_estocada(batch_size=batch_size).query(
                "SELECT uid, sku, price FROM purchases WHERE price >= 7",
                dataset="shop",
            )
            bag = Counter(tuple(sorted(r.items())) for r in result.rows)
            if reference is None:
                reference = bag
            assert bag == reference


# -- execution counters & plan shape -------------------------------------------------


class TestExecutionReporting:
    def test_summary_reports_operator_throughput(self):
        est = _single_store_estocada()
        result = est.query(
            "SELECT uid, sku, price FROM purchases WHERE price >= 3", dataset="shop"
        )
        assert len(result.rows) == 17
        operators = result.summary()["execution"]["operators"]
        assert "DelegatedRequest" in operators
        assert "FusedPipeline" in operators
        for stats in operators.values():
            assert stats["batches"] >= 1
            assert stats["rows"] >= 0
            assert stats["rows_per_second"] >= 0.0

    def test_fused_plan_collapses_filter_project_output(self):
        est = _single_store_estocada()
        result = est.query(
            "SELECT uid, sku, price FROM purchases WHERE price <> 3 LIMIT 4",
            dataset="shop",
        )
        assert len(result.rows) == 4
        assert result.plan_description.count("Fused[") == 1
        assert "filter(" in result.plan_description
        assert "output(" in result.plan_description
        assert "limit 4" in result.plan_description
        # A range comparison is the store's: the pipeline only projects.
        result = est.query(
            "SELECT uid, sku, price FROM purchases WHERE price >= 3 LIMIT 4",
            dataset="shop",
        )
        assert len(result.rows) == 4
        assert result.plan_description.count("Fused[") == 1
        assert "filter(" not in result.plan_description
        assert "where=[purchases_price >= 3]" in result.plan_description
