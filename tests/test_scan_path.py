"""The delegated-scan read path, layer by layer, against plain-Python oracles.

* the store scan kernel (``kept_rows`` + ``row_batches``) behind both scan
  entry points of the dict-heap stores: a hypothesis differential over ragged
  rows, ``None``s, every comparator, wanted columns the collection lacks,
  dotted paths and limits; limit parity between ``execute`` and
  ``execute_batches`` for every store kind; laziness under a small limit;
* ``HashJoin``: bounded output batches under a skewed key, early exit under
  a LIMIT, the explicit-``on`` agreement check and the cartesian product;
* ``Aggregate``: running states that do not depend on where batches split;
* the compiled kernels: fused position picks, the per-schema binding kernel
  fed hostile column names, ``DelegatedRequest``'s residual constants;
* ``LIMIT 0`` through the facade.

The oracles below import nothing from ``repro``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.batch import RowBatch, binding_kernel
from repro.runtime.engine import ExecutionEngine
from repro.runtime.kernels import FusedPipeline, OutputStage, ProjectStage
from repro.runtime.operators import (
    Aggregate,
    DelegatedRequest,
    ExecutionContext,
    HashJoin,
    Operator,
)
from repro.stores import (
    DocumentStore,
    FullTextStore,
    KeyValueStore,
    ParallelStore,
    RelationalStore,
)
from repro.stores import base as store_base
from repro.stores.base import Predicate, ScanRequest, batch_tuples
from repro.stores.segment import DurableBacking

# -- the oracles (plain Python, nothing from repro) -----------------------------------

_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _oracle_compare(op, left, right):
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if left is None or right is None:
        return False
    return {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}[op]


def _oracle_read(row, path):
    """Top-level key, or a dotted walk through nested dicts (missing -> None)."""
    current = row
    for segment in path.split("."):
        if not isinstance(current, dict):
            return None
        current = current.get(segment)
    return current


def _oracle_scan(rows, predicates, wanted, limit):
    kept = [
        row
        for row in rows
        if all(_oracle_compare(op, _oracle_read(row, column), value) for column, op, value in predicates)
    ]
    if limit is not None:
        kept = kept[:limit]
    return Counter(tuple(row.get(column) for column in wanted) for row in kept)


def _batch_bag(store, request, wanted, batch_size=4):
    stream = store.execute_batches(request, wanted, batch_size)
    batches = list(stream)
    assert all(batch.columns == tuple(wanted) for batch in batches)
    assert all(0 < len(batch) <= batch_size for batch in batches)
    return Counter(row for batch in batches for row in batch.rows)


def _dict_bag(store, request, wanted):
    return Counter(tuple(row.get(column) for column in wanted) for row in store.execute(request).rows)


# -- the store scan kernel -------------------------------------------------------------

_values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
_COLUMNS = ("a", "b", "c")


@st.composite
def _scans(draw, ragged):
    """(rows, predicates, wanted, limit); ``ragged`` rows may lack keys and nest."""
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        row = {column: draw(_values) for column in _COLUMNS}
        if ragged:
            for column in draw(st.sets(st.sampled_from(_COLUMNS))):
                del row[column]
            if draw(st.booleans()):
                row["n"] = {"x": draw(_values)}
        rows.append(row)
    columns = _COLUMNS + (("n.x",) if ragged else ()) + ("ghost",)
    predicates = [
        (draw(st.sampled_from(columns)), draw(st.sampled_from(_OPS)), draw(_values))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    wanted = tuple(draw(st.lists(st.sampled_from(_COLUMNS + ("ghost",)), max_size=4)))
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=14)))
    return rows, predicates, wanted, limit


def _request(collection, predicates, limit):
    return ScanRequest(
        collection, tuple(Predicate(column, op, value) for column, op, value in predicates), None, limit
    )


class TestScanKernelDifferential:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_scans(ragged=False), st.booleans())
    def test_relational_entry_points_match_the_oracle(self, scan, indexed):
        rows, predicates, wanted, limit = scan
        store = RelationalStore("pg")
        store.create_table("t", _COLUMNS)
        store.insert("t", rows)
        if indexed:
            store.create_index("t", "a")
        request = _request("t", predicates, limit)
        expected = _oracle_scan(rows, predicates, wanted, limit)
        assert _dict_bag(store, request, wanted) == expected
        assert _batch_bag(store, request, wanted) == expected

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_scans(ragged=True), st.booleans())
    def test_document_entry_points_match_the_oracle(self, scan, indexed):
        rows, predicates, wanted, limit = scan
        store = DocumentStore("mongo")
        store.create_collection("t")
        store.insert("t", rows)
        if indexed:
            store.create_index("t", "n.x")
        request = _request("t", predicates, limit)
        expected = _oracle_scan(rows, predicates, wanted, limit)
        assert _dict_bag(store, request, wanted) == expected
        assert _batch_bag(store, request, wanted) == expected


def _stores_with_five_rows(tmp_path):
    rows = [{"a": i, "b": f"x{i % 2}"} for i in range(5)]
    relational = RelationalStore("pg")
    relational.create_table("t", ("a", "b"))
    relational.insert("t", rows)
    durable = RelationalStore("pg-durable")
    durable.attach_durable(DurableBacking(str(tmp_path / "pg"), segment_rows=2))
    durable.create_table("t", ("a", "b"))
    durable.insert("t", rows)
    document = DocumentStore("mongo")
    document.insert("t", rows)
    fulltext = FullTextStore("solr")
    fulltext.create_collection("t", ("b",))
    fulltext.insert("t", rows)
    keyvalue = KeyValueStore("redis", allow_scans=True)
    keyvalue.put_many("t", {row["a"]: {"b": row["b"]} for row in rows})
    parallel = ParallelStore("spark")
    parallel.create_dataset("t", partitions=1)
    parallel.insert("t", rows)
    return [relational, durable, document, fulltext, keyvalue, parallel]


class TestLimitParity:
    @pytest.mark.parametrize("limit", [0, 1, 4, 5, 6])
    def test_both_entry_points_agree_at_every_limit(self, tmp_path, limit):
        """``batch_tuples(..., limit=0)`` used to yield one row."""
        for store in _stores_with_five_rows(tmp_path):
            request = ScanRequest("t", (), None, limit)
            wanted = ("b",)
            batched = _batch_bag(store, request, wanted)
            assert batched == _dict_bag(store, request, wanted), store.name
            assert sum(batched.values()) == min(limit, 5), store.name

    def test_batch_tuples_limit_zero_yields_nothing(self):
        assert list(batch_tuples(iter([(1,), (2,)]), ("a",), 8, limit=0)) == []
        (only,) = batch_tuples(iter([(1,), (2,), (3,)]), ("a",), 8, limit=2)
        assert only.rows == [(1,), (2,)]


class TestScanLaziness:
    def test_a_small_limit_evaluates_far_fewer_predicates_than_the_heap_holds(self, monkeypatch):
        calls = []

        def greater(left, right):
            calls.append(left)
            return left is not None and left > right

        monkeypatch.setitem(store_base.COMPARATORS, ">", greater)
        store = RelationalStore("pg")
        store.create_table("t", ("a",))
        store.insert("t", [{"a": i} for i in range(5_000)])
        request = ScanRequest("t", (Predicate("a", ">", 9),), None, 10)
        assert len(store.execute(request).rows) == 10
        assert len(calls) == 20
        calls.clear()
        rows = [row for batch in store.execute_batches(request, ("a",), 4) for row in batch.rows]
        assert rows == [(i,) for i in range(10, 20)]
        assert len(calls) == 20

        # An abandoned stream (the LIMIT sits above the store) stops there too.
        calls.clear()
        stream = iter(store.execute_batches(ScanRequest("t", (Predicate("a", ">", 9),)), ("a",), 8))
        assert len(next(stream)) == 8
        stream.close()
        assert len(calls) == 18


# -- operators -------------------------------------------------------------------------


class _Rows(Operator):
    """A source yielding fixed rows in fixed-size batches, counting what was pulled."""

    def __init__(self, columns, rows, batch_size=3):
        self._columns = tuple(columns)
        self._rows = [tuple(row) for row in rows]
        self._batch_size = batch_size
        self.pulled = 0

    def _batches(self, context):
        for start in range(0, len(self._rows), self._batch_size):
            chunk = self._rows[start : start + self._batch_size]
            self.pulled += len(chunk)
            yield RowBatch(self._columns, chunk)


def _drain(operator, batch_size=8):
    return list(operator.batches(ExecutionContext(batch_size=batch_size)))


class TestHashJoinProbe:
    def test_a_skewed_key_never_emits_a_batch_past_batch_size(self):
        fan_out = 100  # >> batch_size
        left = _Rows(("k", "l"), [(i % 2, i) for i in range(6)])
        right = _Rows(("k", "r"), [(0, j) for j in range(fan_out)] + [(1, -1)], batch_size=16)
        batches = _drain(HashJoin(left, right), batch_size=8)
        assert all(batch.columns == ("k", "l", "r") for batch in batches)
        assert max(len(batch) for batch in batches) <= 8
        expected = Counter(
            (i % 2, i, r) for i in range(6) for r in (range(fan_out) if i % 2 == 0 else (-1,))
        )
        assert Counter(row for batch in batches for row in batch.rows) == expected

    def test_a_limit_above_the_join_pulls_one_probe_batch(self):
        left = _Rows(("k", "l"), [(0, i) for i in range(300)], batch_size=3)
        right = _Rows(("k", "r"), [(0, j) for j in range(50)], batch_size=16)
        limited = FusedPipeline(HashJoin(left, right), limit=5)
        result = ExecutionEngine(batch_size=8).execute(limited)
        assert len(result.rows) == 5
        assert left.pulled == 3  # O(k), not the 300 probe rows

    def test_explicit_on_still_checks_the_other_shared_columns(self):
        left = _Rows(("k", "s", "l"), [(1, "x", "l1"), (1, "y", "l2"), (2, None, "l3")])
        right = _Rows(("k", "s", "r"), [(1, "x", "r1"), (1, "z", "r2"), (2, None, "r3")])
        rows = [row for batch in _drain(HashJoin(left, right, on=("k",))) for row in batch.rows]
        assert Counter(rows) == Counter([(1, "x", "l1", "r1"), (2, None, "l3", "r3")])

    def test_no_shared_column_is_a_cartesian_product(self):
        left = _Rows(("l",), [(i,) for i in range(5)], batch_size=2)
        right = _Rows(("r",), [(j,) for j in range(4)])
        batches = _drain(HashJoin(left, right), batch_size=3)
        assert max(len(batch) for batch in batches) <= 3
        assert Counter(row for batch in batches for row in batch.rows) == Counter(
            (i, j) for i in range(5) for j in range(4)
        )


def _aggregate_rows(rows, batch_size, aggregations, group_by=("g",)):
    source = _Rows(("g", "v", "w"), rows, batch_size=batch_size)
    result = ExecutionEngine().execute(Aggregate(source, group_by, aggregations))
    return {row["g"]: row for row in result.rows}


class TestAggregateRunningStates:
    AGGREGATIONS = {
        "n": ("count", None),
        "nv": ("count", "v"),
        "total": ("sum", "v"),
        "mean": ("avg", "v"),
        "lo": ("min", "v"),
        "hi": ("max", "v"),
        "w_total": ("sum", "w"),
        "w_mean": ("avg", "w"),
        "w_lo": ("min", "w"),
    }

    def test_a_group_split_across_batches_is_bit_equal_to_one_batch(self):
        values = [0.1, None, 1e16, 0.2, -1e16, 3, None, 0.30000000000000004, 7.5, 1e-9, 2]
        rows = [("g", value, None) for value in values] + [("other", 1, None)]
        whole = _aggregate_rows(rows, len(rows), self.AGGREGATIONS)
        for batch_size in (1, 2, 3, 4):  # >= 3 batches for the one group
            split = _aggregate_rows(rows, batch_size, self.AGGREGATIONS)
            assert split == whole, batch_size
        # ... and to a plain left-to-right fold.
        present = [value for value in values if value is not None]
        total = 0
        for value in present:
            total += value
        assert whole["g"] == {
            "g": "g", "n": len(values), "nv": len(present), "total": total,
            "mean": total / len(present), "lo": min(present), "hi": max(present),
            "w_total": 0, "w_mean": None, "w_lo": None,
        }

    def test_only_the_requested_folds_run(self):
        """MIN over strings must not try to add them."""
        rows = [("g", "pear", None), ("g", "apple", None), ("g", None, None)]
        got = _aggregate_rows(rows, 2, {"lo": ("min", "v"), "hi": ("max", "v"), "n": ("count", "v")})
        assert got == {"g": {"g": "g", "lo": "apple", "hi": "pear", "n": 2}}

    def test_global_and_composite_keys(self):
        rows = [("a", 1, 1), ("a", 2, 1), ("b", 3, 2)]
        source = _Rows(("g", "v", "w"), rows, batch_size=2)
        (only,) = ExecutionEngine().execute(Aggregate(source, (), {"total": ("sum", "v")})).rows
        assert only == {"total": 6}
        source = _Rows(("g", "v", "w"), rows, batch_size=2)
        result = ExecutionEngine().execute(Aggregate(source, ("g", "w"), {"n": ("count", None)}))
        assert Counter((row["g"], row["w"], row["n"]) for row in result.rows) == Counter(
            [("a", 1, 2), ("b", 2, 1)]
        )


# -- compiled kernels ------------------------------------------------------------------


class TestFusedPicks:
    def test_project_then_output_compiles_to_one_kernel(self):
        source = _Rows(("x", "y", "z"), [(1, 2, 3), (4, 5, 6)])
        stages = (ProjectStage(("z", "x")), OutputStage((("out_z", True, "z"), ("out_x", True, "x"))))
        pipeline = FusedPipeline(source, stages)
        (batch,) = _drain(pipeline)
        assert batch.columns == ("out_z", "out_x")
        assert batch.rows == [(3, 1), (6, 4)]
        ((kernels, _),) = pipeline._compiled.values()
        assert len(kernels) == 1 and kernels[0].picks == (2, 0)
        assert pipeline.describe() == "Fused[project(z, x) → output(out_z, out_x)]"

    def test_one_and_zero_column_picks_keep_row_tuples(self):
        source = _Rows(("x", "y"), [(1, 2), (3, 4)])
        (batch,) = _drain(FusedPipeline(source, (ProjectStage(("y",)),)))
        assert batch.rows == [(2,), (4,)]
        source = _Rows(("x", "y"), [(1, 2), (3, 4)])
        (batch,) = _drain(FusedPipeline(source, (ProjectStage(()),)))
        assert batch.rows == [(), ()]


class TestBindingKernel:
    HOSTILE = (
        "it's",
        'say "hi"',
        "line\nbreak",
        "__import__('os').system('true')",
        "a}, **{'x': 1",
        "\\",
        "",
    )

    def test_hostile_column_names_stay_data(self):
        rows = [tuple(range(len(self.HOSTILE))), tuple("abcdefg")]
        bindings = RowBatch(self.HOSTILE, rows).to_bindings()
        assert bindings == [dict(zip(self.HOSTILE, row)) for row in rows]
        assert [list(binding) for binding in bindings] == [list(self.HOSTILE)] * 2

    def test_narrow_and_duplicate_schemas(self):
        assert RowBatch((), [(), ()]).to_bindings() == [{}, {}]
        assert RowBatch(("a",), [(1,), (2,)]).to_bindings() == [{"a": 1}, {"a": 2}]
        assert RowBatch(("a", "a"), [(1, 2)]).to_bindings() == [{"a": 2}]
        assert binding_kernel(("a", "b")) is binding_kernel(("a", "b"))


class TestDelegatedConstants:
    def test_residual_constants_use_plain_equality_and_are_sliced_off(self):
        store = DocumentStore("mongo")
        store.insert("t", [{"a": 1, "b": None, "c": "x"}, {"a": 2, "b": 0, "c": "x"}, {"a": 3, "c": "y"}])
        leaf = DelegatedRequest(store, ScanRequest("t"), {"a": "?a"}, constants={"b": None, "c": "x"})
        (batch,) = _drain(leaf)
        assert batch.columns == ("?a",)
        assert batch.rows == [(1,)]  # None == None holds; the missing b reads None but c differs
        leaf = DelegatedRequest(store, ScanRequest("t"), {"a": "?a", "c": "?c"}, constants={"c": "y"})
        (batch,) = _drain(leaf)
        assert batch.rows == [(3, "y")]


# -- LIMIT 0 ---------------------------------------------------------------------------


class TestLimitZero:
    def test_limit_zero_issues_no_store_request(self, marketplace_estocada):
        result = marketplace_estocada.query(
            "SELECT uid, sku FROM purchases LIMIT 0", dataset="shop", parallelism=1
        )
        assert result.rows == []
        assert result.batches == 0
        assert result.store_breakdown == {}
