"""The delegated-scan read path, layer by layer, against plain-Python oracles.

* the store scan kernel (``kept_rows`` + ``row_batches``) behind both entry
  points (``execute`` and ``execute_batches``) of the dict-heap stores: a
  hypothesis differential over ragged rows, ``None``s, every comparator,
  wanted columns the collection lacks, dotted paths and limits; the same
  differential over every request kind of every store (lookups, store-side
  joins, key-pinned scans, ranked search), through the sharded and
  replicated routers, and over nested documents read by dotted columns (a
  missing intermediate key, a list index) from the heap and from a
  compacted durable store's segments; limit parity between ``execute`` and
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

import math
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
    JoinRequest,
    KeyValueStore,
    LookupRequest,
    ParallelStore,
    RelationalStore,
    ReplicatedStore,
    SearchRequest,
    ShardedStore,
    ShardingSpec,
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
    """Top-level key, or a dotted walk through nested dicts and list indexes
    (missing -> None)."""
    current = row
    for segment in path.split("."):
        if isinstance(current, dict):
            current = current.get(segment)
        elif isinstance(current, list) and segment.isdigit() and int(segment) < len(current):
            current = current[int(segment)]
        else:
            return None
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


def _execute_bag(store, request, wanted):
    result = store.execute(request, wanted)
    assert all(set(row) == set(wanted) for row in result.rows)
    return Counter(tuple(row[column] for column in wanted) for row in result.rows)


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
        collection, tuple(Predicate(column, op, value) for column, op, value in predicates), limit
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
        assert _execute_bag(store, request, wanted) == expected
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
        assert _execute_bag(store, request, wanted) == expected
        assert _batch_bag(store, request, wanted) == expected


# -- every request kind of every store, both shapes ------------------------------------
#
# A case builds a store over the drawn rows and returns ``(store, request,
# expected, any_of)``: ``expected`` is the oracle's list of answer rows; when
# ``any_of`` is a limit, any ``limit`` of them are a correct answer (stores
# whose row order is not insertion order), otherwise exactly ``expected``.

_WORDS = {None: "amber", -3: "basil", -2: "cedar", -1: "delta", 0: "ember", 1: "fjord", 2: "grove", 3: "hazel"}


def _oracle_kept(rows, predicates, limit=None):
    kept = [
        row
        for row in rows
        if all(_oracle_compare(op, _oracle_read(row, column), value) for column, op, value in predicates)
    ]
    return kept if limit is None else kept[:limit]


def _oracle_search(documents, words, limit):
    """TF-IDF over whitespace tokens: tf = frequency / length, idf = ln((1+N)/(1+df)) + 1."""
    tokens_of = [document["text"].split() for document in documents]
    scores = {}
    for word in words:
        holders = {p: tokens.count(word) for p, tokens in enumerate(tokens_of) if word in tokens}
        if not holders:
            continue
        idf = math.log((1 + max(len(documents), 1)) / (1 + len(holders))) + 1.0
        for position, frequency in holders.items():
            scores[position] = scores.get(position, 0.0) + frequency / len(tokens_of[position]) * idf
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:limit]
    return [{**documents[p], "_score": round(score, 6)} for p, score in ranked]


def _predicates(predicates):
    return tuple(Predicate(column, op, value) for column, op, value in predicates)


def _relational(rows, indexed):
    store = RelationalStore("pg")
    store.create_table("t", _COLUMNS)
    store.insert("t", rows)
    store.create_table("u", ("a", "d"))
    store.insert("u", [{"a": row["b"], "d": row["c"]} for row in rows])
    if indexed:
        store.create_index("t", "a")
    return store


def _parallel(rows, indexed):
    store = ParallelStore("spark", default_partitions=3)
    store.create_dataset("t", partition_column="a")
    store.insert("t", rows)
    store.create_dataset("u", partition_column="a")
    store.insert("u", [{"a": row["b"], "d": row["c"]} for row in rows])
    if indexed:
        store.create_index("t", "a")
    return store


def _join(store, rows, predicates, limit):
    """t ⋈ u on ``a`` (``u.a`` is ``t.b``); the left row wins shared columns."""
    left = ScanRequest("t", _predicates(predicates), limit)
    request = JoinRequest(left, ScanRequest("u"), (("a", "a"),))
    right = [{"a": row["b"], "d": row["c"]} for row in rows]
    kept = _oracle_kept(rows, predicates, limit)
    expected = [{**r, **l} for l in kept for r in right if r["a"] == l["a"]]
    return store, request, expected, None


def _keyvalue(rows):
    store = KeyValueStore("redis")
    store.put_many("t", {row["a"]: dict(row) for row in rows})
    entries = {row["a"]: {**row, "key": row["a"]} for row in rows}
    return store, entries


def _documents(rows, indexed):
    documents = [{"_id": row["a"], **row} for row in rows]
    store = DocumentStore("mongo")
    store.insert("t", documents)
    if indexed:
        store.create_index("t", "_id")
    return store, documents


def _fulltext(rows):
    documents = [{**row, "text": f"{_WORDS[row['b']]} {_WORDS[row['c']]}"} for row in rows]
    store = FullTextStore("solr")
    store.create_collection("t", ("text",))
    store.insert("t", documents)
    return store, documents


def _sharded(rows):
    store = ShardedStore.homogeneous("shardpg", 3, RelationalStore)
    store.set_sharding("t", ShardingSpec("a", 3))
    for child in store.shard_stores():
        child.create_table("t", _COLUMNS)
    store.insert("t", rows)
    return store


def _case_relational_lookup(rows, predicates, limit, keys, indexed, make_directory):
    expected = [row for key in keys for row in rows if row["a"] == key]
    return _relational(rows, indexed), LookupRequest("t", keys), expected, None


def _case_relational_join(rows, predicates, limit, keys, indexed, make_directory):
    return _join(_relational(rows, indexed), rows, predicates, limit)


def _case_document_lookup(rows, predicates, limit, keys, indexed, make_directory):
    store, documents = _documents(rows, indexed)
    expected = [d for key in keys for d in documents if d["_id"] == key]
    return store, LookupRequest("t", keys), expected, None


def _case_keyvalue_lookup(rows, predicates, limit, keys, indexed, make_directory):
    store, entries = _keyvalue(rows)
    expected = [entries[key] for key in keys if key in entries]
    return store, LookupRequest("t", keys), expected, None


def _case_keyvalue_pinned_scan(rows, predicates, limit, keys, indexed, make_directory):
    # One or two key pins (two different ones match nothing) plus the rest.
    predicates = [("key", "=", key) for key in keys] + predicates
    store, entries = _keyvalue(rows)
    expected = _oracle_kept(list(entries.values()), predicates, limit)
    return store, ScanRequest("t", _predicates(predicates), limit), expected, None


def _case_fulltext_scan(rows, predicates, limit, keys, indexed, make_directory):
    store, documents = _fulltext(rows)
    expected = _oracle_kept(documents, predicates, limit)
    return store, ScanRequest("t", _predicates(predicates), limit), expected, None


def _case_fulltext_search(rows, predicates, limit, keys, indexed, make_directory):
    store, documents = _fulltext(rows)
    words = [_WORDS[key] for key in keys]
    request = SearchRequest("t", " ".join(words), limit=limit)
    return store, request, _oracle_search(documents, words, limit), None


def _case_parallel_scan(rows, predicates, limit, keys, indexed, make_directory):
    request = ScanRequest("t", _predicates(predicates), limit)
    return _parallel(rows, indexed), request, _oracle_kept(rows, predicates), limit


def _case_parallel_lookup(rows, predicates, limit, keys, indexed, make_directory):
    expected = [row for key in keys for row in rows if row["a"] == key]
    return _parallel(rows, indexed), LookupRequest("t", keys), expected, None


def _case_parallel_join(rows, predicates, limit, keys, indexed, make_directory):
    # No limit: partitions do not keep insertion order, so "the first k" differ.
    return _join(_parallel(rows, indexed), rows, predicates, None)


def _case_sharded_scan(rows, predicates, limit, keys, indexed, make_directory):
    request = ScanRequest("t", _predicates(predicates), limit)
    return _sharded(rows), request, _oracle_kept(rows, predicates), limit


def _case_sharded_lookup(rows, predicates, limit, keys, indexed, make_directory):
    expected = [row for key in keys for row in rows if row["a"] == key]
    return _sharded(rows), LookupRequest("t", keys), expected, None


def _nest(row):
    """A document holding ``b`` at ``n.x`` and ``c`` at ``n.l.1``.

    Where ``a`` is None the document has no ``n`` (every path through it
    reads None); where ``a`` is 0, ``n`` lacks ``x`` and its list ends
    before index 1.
    """
    document = {"_id": row["a"], "a": row["a"]}
    if row["a"] is not None:
        document["n"] = {"x": row["b"], "l": [row["a"], row["c"]]} if row["a"] else {"l": [0]}
    return document


def _nested_scan(rows, predicates, limit):
    """The drawn scan over :func:`_nest` documents, ``b``/``c`` read by their paths."""
    paths = {"b": "n.x", "c": "n.l.1"}
    predicates = [(paths.get(column, column), op, value) for column, op, value in predicates]
    documents = [_nest(row) for row in rows]
    request = ScanRequest("t", _predicates(predicates), limit)
    return documents, request, _oracle_kept(documents, predicates, limit)


def _case_document_nested_scan(rows, predicates, limit, keys, indexed, make_directory):
    documents, request, expected = _nested_scan(rows, predicates, limit)
    store = DocumentStore("mongo")
    store.insert("t", documents)
    if indexed:
        store.create_index("t", "n.x")
    return store, request, expected, None


def _case_document_nested_segments(rows, predicates, limit, keys, indexed, make_directory):
    documents, request, expected = _nested_scan(rows, predicates, limit)
    store = DocumentStore("mongo")
    store.attach_durable(DurableBacking(str(make_directory()), segment_rows=4))
    cut = (len(documents) + 1) // 2
    store.insert("t", documents[:cut])
    store.compact_durable()
    store.insert("t", documents[cut:])  # a WAL tail beside the segments
    if documents:
        assert store.durable_backing().has_segments("t")
    return store, request, expected, None


def _case_replicated_scan(rows, predicates, limit, keys, indexed, make_directory):
    store = ReplicatedStore("rep", [_relational(rows, indexed), _relational(rows, not indexed)])
    expected = _oracle_kept(rows, predicates, limit)
    return store, ScanRequest("t", _predicates(predicates), limit), expected, None


_CASES = {
    name[len("_case_"):]: case for name, case in globals().items() if name.startswith("_case_")
}
# Columns no drawn row has, except through a request kind that adds them.
_EXTRA_WANTED = ("key", "d", "_score", "n.x", "n.l.1", "n.l.5", "n.x.y")


def _rows_of(store, request, wanted, entry_point):
    if entry_point == "execute":
        return [tuple(row[column] for column in wanted) for row in store.execute(request, wanted).rows]
    batches = list(store.execute_batches(request, wanted, 4))
    assert all(batch.columns == wanted and 0 < len(batch) <= 4 for batch in batches)
    return [row for batch in batches for row in batch.rows]


class TestRequestKindDifferential:
    """``execute`` and ``execute_batches`` of every request kind against the oracle."""

    @pytest.mark.parametrize("case", sorted(_CASES))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_scans(ragged=False), st.lists(_values, min_size=1, max_size=2), st.booleans())
    def test_both_shapes_match_the_oracle(self, tmp_path_factory, case, scan, keys, indexed):
        rows, predicates, wanted, limit = scan
        store, request, expected, any_of = _CASES[case](
            rows, predicates, limit, tuple(keys), indexed, lambda: tmp_path_factory.mktemp(case)
        )
        wanted = wanted + _EXTRA_WANTED
        expected_rows = [tuple(_oracle_read(row, column) for column in wanted) for row in expected]
        for entry_point in ("execute", "batches"):
            got = _rows_of(store, request, wanted, entry_point)
            if isinstance(request, SearchRequest):
                assert got == expected_rows, entry_point  # the ranking, not just the hits
            elif any_of is None:
                assert Counter(got) == Counter(expected_rows), entry_point
            else:
                assert len(got) == min(any_of, len(expected_rows)), entry_point
                assert Counter(got) <= Counter(expected_rows), entry_point


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
            request = ScanRequest("t", (), limit)
            wanted = ("b",)
            batched = _batch_bag(store, request, wanted)
            assert batched == _execute_bag(store, request, wanted), store.name
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
        request = ScanRequest("t", (Predicate("a", ">", 9),), 10)
        assert len(store.execute(request, ("a",)).rows) == 10
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
        # One composed pick, split off as the final one: the result boundary
        # folds it into the binding dicts instead of running it.
        kernels, _, final, _ = pipeline._compiled
        assert kernels == () and final.picks == (2, 0)
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
        assert binding_kernel((0, 1), 2) is binding_kernel((0, 1), 2)


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
