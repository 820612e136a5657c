"""The native columnar batch pipeline: kernels, fusion, batch streams, config.

Covers the read path end to end:

* ``RowBatch`` edge cases (empty batches, ``from_bindings`` schema mismatch,
  a LIMIT landing exactly on a batch boundary);
* the kernel builders (predicates, projections, vectorized join keys) and
  the fused-stage semantics, including a hypothesis property holding fused
  and unfused stage chains bag-identical;
* the stores' native ``execute_batches`` streams against their materialized
  ``execute`` results (bag-identical rows, matching scan metrics,
  exactly-once finalization);
* ``freeze_value`` fast paths and the configurable batch size
  (``REPRO_BATCH_SIZE`` / ``Estocada(batch_size=...)``);
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
    default_batch_size,
    freeze_value,
)
from repro.runtime.engine import ExecutionEngine
from repro.runtime.kernels import (
    FilterStage,
    FusedPipeline,
    OutputStage,
    PredicateSpec,
    ProjectStage,
    attach_stage,
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


# -- RowBatch edge cases -------------------------------------------------------------


class TestRowBatchEdges:
    def test_empty_batch_is_falsy_and_iterates_nothing(self):
        batch = RowBatch(("a", "b"), [])
        assert len(batch) == 0
        assert not batch
        assert batch.to_bindings() == []
        assert batch.take(5) is batch

    def test_from_bindings_schema_mismatch_fills_none(self):
        # Rows disagreeing on their keys: the schema is the union (first-seen
        # order) and absent columns surface as None, like the dict boundary.
        batch = RowBatch.from_bindings([{"a": 1}, {"b": 2}, {"a": 3, "b": 4}])
        assert batch.columns == ("a", "b")
        assert batch.rows == [(1, None), (None, 2), (3, 4)]

    def test_from_bindings_explicit_columns_drop_and_fill(self):
        batch = RowBatch.from_bindings([{"a": 1, "b": 2}], columns=("b", "c"))
        assert batch.columns == ("b", "c")
        assert batch.rows == [(2, None)]

    def test_batches_from_bindings_respects_batch_size(self):
        batches = list(batches_from_bindings([{"a": i} for i in range(7)], batch_size=3))
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
        rows = fused.rows(ExecutionContext())
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

    def test_output_stage_preserves_computed_extras(self):
        # Aggregation outputs (columns that are neither claimed outputs nor
        # head variables) ride along unchanged, renamed head variables map.
        stage = OutputStage((("name", True, "u"), ("fixed", False, 7)))
        schema, kernel = stage.compile(("u", "total"))
        assert schema == ("name", "fixed", "total")
        assert kernel([("alice", 3)]) == [("alice", 7, 3)]

    def test_attach_stage_fuses_consecutive_stages(self):
        source = _Rows(("a",), [(1,)])
        first = attach_stage(source, ProjectStage(("a",)))
        fused = attach_stage(first, FilterStage((PredicateSpec("a", "=", 1),)))
        assert fused.child is source and len(fused.stages) == 2

    def test_attach_stage_never_fuses_past_a_limit(self):
        source = _Rows(("a",), [(1,)])
        limited = attach_stage(source, ProjectStage(("a",)), limit=1)
        above = attach_stage(limited, FilterStage((PredicateSpec("a", "=", 1),)))
        # Fusing across the LIMIT would filter before truncating — forbidden.
        assert above.child is limited


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
        fused_rows = [tuple(sorted(r.items())) for r in fused.rows(ExecutionContext())]
        unfused_rows = [
            tuple(sorted(r.items())) for r in unfused.rows(ExecutionContext())
        ]
        assert fused_rows == unfused_rows


# -- native store batch streams ------------------------------------------------------


def _assert_stream_equivalence(store, request, columns):
    """Materialized result and native batch stream agree on rows and scan metrics."""
    materialized = store.execute(request)
    dict_rows = [
        tuple(row.get(column) for column in columns) for row in materialized.rows
    ]
    served_before = store.requests_served
    batch_stream = store.execute_batches(request, columns, batch_size=4)
    batches = list(batch_stream)
    batch_rows = [row for batch in batches for row in batch.rows]
    assert all(batch.columns == tuple(columns) for batch in batches)
    assert all(len(batch) <= 4 for batch in batches)
    assert batch_stream.finalized
    assert store.requests_served == served_before + 1
    assert Counter(batch_rows) == Counter(dict_rows)
    assert batch_stream.metrics.rows_returned == len(batch_rows)
    assert batch_stream.metrics.rows_scanned == materialized.metrics.rows_scanned
    return batch_stream.metrics


class TestStoreBatchStreams:
    def test_relational_native_scan(self):
        store = RelationalStore("pg")
        store.create_table("t", ("a", "b"), primary_key=("a",))
        store.insert("t", [{"a": i, "b": i % 3} for i in range(25)])
        store.create_index("t", "b")
        _assert_stream_equivalence(
            store, ScanRequest("t", predicates=(Predicate("b", "=", 1),)), ("a", "b")
        )
        _assert_stream_equivalence(store, ScanRequest("t"), ("b", "missing"))
        metrics = _assert_stream_equivalence(
            store, ScanRequest("t", limit=7), ("a",)
        )
        assert metrics.rows_returned == 7

    def test_document_native_scan_uses_path_predicates(self):
        store = DocumentStore("mongo")
        store.insert(
            "c",
            [{"_id": i, "user": {"city": "paris" if i % 2 else "lyon"}, "n": i} for i in range(10)],
        )
        store.create_index("c", "user.city")
        _assert_stream_equivalence(
            store,
            ScanRequest("c", predicates=(Predicate("user.city", "=", "paris"),)),
            ("_id", "n"),
        )

    def test_keyvalue_native_lookup(self):
        store = KeyValueStore("redis")
        store.put_many("kv", {i: {"v": i * 10, "w": -i} for i in range(5)})
        store.put("kv", 99, "scalar")
        _assert_stream_equivalence(
            store, LookupRequest("kv", keys=(0, 3, 42, 99)), ("key", "v", "value")
        )

    def test_fulltext_native_scan(self):
        store = FullTextStore("solr")
        store.create_collection("docs", indexed_fields=("title",))
        store.insert(
            "docs",
            [{"_id": i, "title": f"doc {i}", "lang": "fr" if i % 2 else "en"} for i in range(8)],
        )
        _assert_stream_equivalence(
            store,
            ScanRequest("docs", predicates=(Predicate("lang", "=", "fr"),)),
            ("_id", "title"),
        )

    def test_sharded_router_forwards_child_batches(self):
        store = ShardedStore.homogeneous("shardpg", 4, RelationalStore)
        store.set_sharding("t", ShardingSpec("a", 4))
        for child in store.shard_stores():
            child.create_table("t", ("a", "b"))
        store.insert("t", [{"a": i, "b": i % 5} for i in range(40)])
        metrics = _assert_stream_equivalence(store, ScanRequest("t"), ("a", "b"))
        assert metrics.partitions_used == 4
        pruned = _assert_stream_equivalence(
            store, ScanRequest("t", predicates=(Predicate("a", "=", 7),)), ("a", "b")
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


class TestFusedPushdown:
    def test_partial_aggregation_sees_through_fused_projection(self):
        # The facade's lowering replaces the terminal Project with a fused
        # ProjectStage; push_partial_aggregation must pattern-match that
        # shape exactly like the plain Project(ShardGather) one.
        from repro.plan.physical import push_partial_aggregation
        from repro.runtime.operators import Aggregate, MergeAggregate, ShardGather

        branches = [
            _Rows(("g", "v", "extra"), [( "a", i, None) for i in range(5)]),
            _Rows(("g", "v", "extra"), [( "b", i * 2, None) for i in range(5)]),
        ]
        gather = ShardGather(branches, fragment="F", shards_total=2)
        fused_root = FusedPipeline(gather, (ProjectStage(("g", "v")),))
        aggregations = {"total": ("sum", "v"), "n": ("count", None)}
        pushed = push_partial_aggregation(fused_root, ("g",), aggregations)
        assert isinstance(pushed, MergeAggregate)
        plain = Aggregate(fused_root, ("g",), aggregations)
        pushed_rows = sorted(
            tuple(sorted(r.items())) for r in pushed.rows(ExecutionContext())
        )
        plain_rows = sorted(
            tuple(sorted(r.items())) for r in plain.rows(ExecutionContext())
        )
        assert pushed_rows == plain_rows

    def test_pushdown_refuses_fused_chain_with_limit_or_filter(self):
        from repro.plan.physical import push_partial_aggregation
        from repro.runtime.operators import ShardGather

        gather = ShardGather([_Rows(("g", "v"), [("a", 1)])], fragment="F")
        aggregations = {"total": ("sum", "v")}
        limited = FusedPipeline(gather, (ProjectStage(("g", "v")),), limit=1)
        assert push_partial_aggregation(limited, ("g",), aggregations) is None
        filtered = FusedPipeline(
            gather, (FilterStage((PredicateSpec("v", ">", 0),)),)
        )
        assert push_partial_aggregation(filtered, ("g",), aggregations) is None


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
    def test_default_is_256(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        assert default_batch_size() == 256

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "64")
        assert default_batch_size() == 64
        assert ExecutionEngine().batch_size == 64

    def test_unparseable_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "many")
        assert default_batch_size() == 256

    def test_env_below_one_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
        with pytest.raises(ValueError):
            default_batch_size()

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
            "SELECT uid, sku, price FROM purchases WHERE price >= 3 LIMIT 4",
            dataset="shop",
        )
        assert len(result.rows) == 4
        assert result.plan_description.count("Fused[") == 1
        assert "filter(" in result.plan_description
        assert "output(" in result.plan_description
        assert "limit 4" in result.plan_description
