"""Tests for the simulated store substrates (relational, document, KV, full-text, parallel)."""

import pytest

from repro.errors import (
    AccessPatternViolation,
    KeyNotFoundError,
    SchemaError,
    StoreError,
    UnsupportedOperationError,
)
from repro.stores import (
    DocumentStore,
    FullTextStore,
    JoinRequest,
    KeyValueStore,
    LookupRequest,
    ParallelStore,
    Predicate,
    RelationalStore,
    ScanRequest,
    SearchRequest,
    stable_hash,
)
from repro.stores.base import kept_rows
from repro.stores.document.store import flatten_document, get_path, unflatten_document

USERS = ("uid", "name", "city")
ORDERS = ("order_id", "uid", "total")
CARTS = ("_id", "user", "items")
VISITS = ("uid", "sku", "duration")


@pytest.fixture
def relational():
    store = RelationalStore("pg")
    store.create_table("users", ["uid", "name", "city"], primary_key=["uid"])
    store.insert(
        "users",
        [
            {"uid": 1, "name": "ana", "city": "paris"},
            {"uid": 2, "name": "bob", "city": "lyon"},
            {"uid": 3, "name": "cleo", "city": "paris"},
        ],
    )
    store.create_table("orders", ["order_id", "uid", "total"], primary_key=["order_id"])
    store.insert(
        "orders",
        [
            {"order_id": 10, "uid": 1, "total": 99.0},
            {"order_id": 11, "uid": 1, "total": 15.0},
            {"order_id": 12, "uid": 3, "total": 42.0},
        ],
    )
    return store


class TestRelationalStore:
    def test_capabilities(self, relational):
        caps = relational.capabilities()
        assert caps.supports_join and caps.supports_selection and not caps.requires_key_lookup

    def test_full_scan(self, relational):
        result = relational.execute(ScanRequest("users"), USERS)
        assert len(result.rows) == 3
        assert result.metrics.rows_scanned == 3

    def test_scan_with_predicate(self, relational):
        result = relational.execute(ScanRequest("users", (Predicate("city", "=", "paris"),)), USERS)
        assert {row["uid"] for row in result.rows} == {1, 3}

    def test_a_scan_pinned_to_the_primary_key_reads_one_row(self):
        store = RelationalStore("pg")
        store.create_table("t", ("a", "b"), primary_key=("a",))
        store.insert("t", [{"a": i, "b": i % 3} for i in range(50)])
        result = store.execute(ScanRequest("t", (Predicate("a", "=", 7),)), ("a", "b"))
        assert result.rows == [{"a": 7, "b": 1}]
        assert (result.metrics.rows_scanned, result.metrics.index_lookups) == (1, 1)
        missing = store.execute(ScanRequest("t", (Predicate("a", "=", 70),)), ("a", "b"))
        assert missing.rows == [] and missing.metrics.rows_scanned == 0

    def test_scan_with_comparison_predicate(self, relational):
        result = relational.execute(ScanRequest("orders", (Predicate("total", ">", 20),)), ORDERS)
        assert {row["order_id"] for row in result.rows} == {10, 12}

    def test_index_used_for_equality(self, relational):
        relational.create_index("users", "city")
        result = relational.execute(ScanRequest("users", (Predicate("city", "=", "paris"),)), USERS)
        assert result.metrics.index_lookups == 1
        assert result.metrics.rows_scanned == 2

    def test_projection(self, relational):
        result = relational.execute(ScanRequest("users"), ("name",))
        assert all(set(row) == {"name"} for row in result.rows)

    def test_limit(self, relational):
        result = relational.execute(ScanRequest("users", limit=2), USERS)
        assert len(result.rows) == 2

    def test_primary_key_lookup(self, relational):
        result = relational.execute(LookupRequest("users", keys=(2,)), USERS)
        assert result.rows[0]["name"] == "bob"

    def test_lookup_missing_key_returns_empty(self, relational):
        assert relational.execute(LookupRequest("users", keys=(99,)), USERS).rows == []

    def test_delegated_join(self, relational):
        request = JoinRequest(
            left=ScanRequest("users", (Predicate("city", "=", "paris"),)),
            right=ScanRequest("orders"),
            on=(("uid", "uid"),),
        )
        result = relational.execute(request, USERS + ("order_id", "total"))
        assert {row["order_id"] for row in result.rows} == {10, 11, 12}

    def test_join_requires_on_columns(self, relational):
        with pytest.raises(StoreError):
            relational.execute(JoinRequest(ScanRequest("users"), ScanRequest("orders"), on=()), USERS)

    def test_duplicate_primary_key_rejected(self, relational):
        with pytest.raises(StoreError):
            relational.insert("users", [{"uid": 1, "name": "dup", "city": "x"}])

    @pytest.mark.parametrize("duplicate", [1, 4], ids=["held", "in_batch"])
    def test_duplicate_primary_key_refuses_the_whole_insert(self, relational, duplicate):
        # The key check runs before any row is appended: the fresh row
        # ahead of the duplicate must not be left behind.
        batch = [
            {"uid": 4, "name": "dan", "city": "nice"},
            {"uid": duplicate, "name": "dup", "city": "x"},
        ]
        with pytest.raises(StoreError):
            relational.insert("users", batch)
        assert sorted(row["uid"] for row in relational.execute(ScanRequest("users"), USERS).rows) == [1, 2, 3]
        assert relational.execute(LookupRequest("users", keys=(4,)), USERS).rows == []

    def test_unknown_table(self, relational):
        with pytest.raises(StoreError):
            relational.execute(ScanRequest("nope"), USERS)

    def test_row_schema_checked(self, relational):
        with pytest.raises(SchemaError):
            relational.insert("users", [{"uid": 4, "bogus": 1, "name": "x", "city": "y"}])

    def test_search_not_supported(self, relational):
        with pytest.raises(UnsupportedOperationError):
            relational.execute(SearchRequest("users", "ana"), USERS)

    def test_statistics(self, relational):
        stats = relational.column_statistics("users", "city")
        assert stats["count"] == 3 and stats["distinct"] == 2

    def test_cumulative_metrics(self, relational):
        relational.reset_metrics()
        relational.execute(ScanRequest("users"), USERS)
        relational.execute(ScanRequest("orders"), ORDERS)
        assert relational.requests_served == 2
        assert relational.total_metrics.rows_scanned == 6


@pytest.fixture
def documents():
    store = DocumentStore("mongo")
    store.insert(
        "carts",
        [
            {"_id": 1, "user": {"uid": 10, "city": "paris"}, "items": [{"sku": 5}]},
            {"_id": 2, "user": {"uid": 11, "city": "lyon"}, "items": []},
            {"_id": 3, "user": {"uid": 10, "city": "paris"}, "items": [{"sku": 7}, {"sku": 8}]},
        ],
    )
    return store


class TestDocumentStore:
    def test_get_path(self):
        doc = {"a": {"b": [{"c": 1}, {"c": 2}]}}
        assert get_path(doc, "a.b.1.c") == 2
        assert get_path(doc, "a.missing") is None

    def test_flatten(self):
        assert flatten_document({"a": {"b": 1}, "c": 2}) == {"a.b": 1, "c": 2}

    def test_unflatten_reverses_flatten(self):
        document = {"a": {"b": 1, "d": {"e": [1, 2]}}, "c": 2}
        assert unflatten_document(flatten_document(document)) == document
        with pytest.raises(SchemaError):
            unflatten_document({"a": 1, "a.b": 2})
        with pytest.raises(SchemaError):
            unflatten_document({"a.b": 2, "a": 1})

    def test_path_predicate_scan(self, documents):
        result = documents.execute(ScanRequest("carts", (Predicate("user.uid", "=", 10),)), CARTS)
        assert {row["_id"] for row in result.rows} == {1, 3}

    def test_projection_of_paths(self, documents):
        result = documents.execute(ScanRequest("carts", (Predicate("_id", "=", 2),)), ("user.city",))
        assert result.rows == [{"user.city": "lyon"}]

    def test_index_usage(self, documents):
        documents.create_index("carts", "user.uid")
        result = documents.execute(ScanRequest("carts", (Predicate("user.uid", "=", 10),)), CARTS)
        assert result.metrics.index_lookups == 1
        assert result.metrics.rows_scanned == 2

    def test_index_maintained_on_insert(self, documents):
        documents.create_index("carts", "user.uid")
        documents.insert("carts", [{"_id": 4, "user": {"uid": 10}}])
        result = documents.execute(ScanRequest("carts", (Predicate("user.uid", "=", 10),)), CARTS)
        assert len(result.rows) == 3

    def test_lookup_by_id(self, documents):
        result = documents.execute(LookupRequest("carts", keys=(2,)), CARTS)
        assert result.rows[0]["_id"] == 2

    def test_joins_rejected(self, documents):
        request = JoinRequest(ScanRequest("carts"), ScanRequest("carts"), on=(("_id", "_id"),))
        with pytest.raises(UnsupportedOperationError):
            documents.execute(request, CARTS)

    def test_unknown_collection(self, documents):
        with pytest.raises(StoreError):
            documents.execute(ScanRequest("nope"), CARTS)

    def test_non_mapping_rejected(self, documents):
        with pytest.raises(SchemaError):
            documents.insert("carts", ["not a document"])

    def test_drop_collection(self, documents):
        documents.drop_collection("carts")
        assert "carts" not in documents.collections()


@pytest.fixture
def keyvalue():
    store = KeyValueStore("redis")
    store.put_many("prefs", {1: {"category": "books"}, 2: {"category": "toys"}})
    store.put("session", "abc", "token-1")
    return store


class TestKeyValueStore:
    def test_get_put(self, keyvalue):
        assert keyvalue.get("session", "abc") == "token-1"
        keyvalue.put("session", "xyz", "token-2")
        assert keyvalue.get("session", "xyz") == "token-2"

    def test_get_missing(self, keyvalue):
        assert keyvalue.get("session", "nope") is None
        with pytest.raises(KeyNotFoundError):
            keyvalue.get("session", "nope", missing_ok=False)

    def test_mget(self, keyvalue):
        assert keyvalue.mget("prefs", [1, 99, 2]) == [{"category": "books"}, None, {"category": "toys"}]

    def test_delete(self, keyvalue):
        assert keyvalue.delete("session", "abc")
        assert not keyvalue.delete("session", "abc")

    def test_lookup_request(self, keyvalue):
        result = keyvalue.execute(LookupRequest("prefs", keys=(1,)), ("category", "key"))
        assert result.rows == [{"category": "books", "key": 1}]

    def test_scan_without_key_rejected(self, keyvalue):
        with pytest.raises(AccessPatternViolation):
            keyvalue.execute(ScanRequest("prefs"), ("key",))

    def test_scan_with_key_predicate_is_lookup(self, keyvalue):
        result = keyvalue.execute(ScanRequest("prefs", (Predicate("key", "=", 2),)), ("category",))
        assert result.rows[0]["category"] == "toys"

    @staticmethod
    def _both_shapes(store, request):
        rows = [row["category"] for row in store.execute(request, ("category",)).rows]
        stream = store.execute_batches(request, ("category",))
        return rows, [row[0] for batch in stream for row in batch.rows]

    def test_contradictory_key_pins_match_nothing(self, keyvalue):
        pins = (Predicate("key", "=", 1), Predicate("key", "=", 2))
        assert self._both_shapes(keyvalue, ScanRequest("prefs", pins)) == ([], [])

    def test_key_pinned_scan_honours_limit(self, keyvalue):
        for limit in (0, 1):
            request = ScanRequest("prefs", (Predicate("key", "=", 2),), limit=limit)
            expected = ["toys"][:limit]
            assert self._both_shapes(keyvalue, request) == (expected, expected), limit

    def test_durable_scans_read_entries_from_segments(self, tmp_path):
        # Entries freeze into segments like any heap rows; an overwrite is a
        # delete plus an insert, so no scan ever sees the superseded entry.
        from repro.stores.segment import DurableBacking

        store = KeyValueStore("redis", allow_scans=True)
        store.attach_durable(DurableBacking(str(tmp_path / "kv"), segment_rows=2))
        for key in range(7):
            store.put("prefs", key, {"category": f"c{key % 2}"})
        store.put("prefs", 3, {"category": "moved"})
        for _ in range(2):
            assert store.durable_backing().has_segments("prefs")
            pinned = ScanRequest("prefs", (Predicate("key", "=", 3),))
            assert self._both_shapes(store, pinned) == (["moved"], ["moved"])
            filtered = ScanRequest("prefs", (Predicate("category", "=", "c1"),), limit=5)
            rows, batched = self._both_shapes(store, filtered)
            assert rows == batched == ["c1", "c1"]
            rows, batched = self._both_shapes(store, ScanRequest("prefs"))
            assert sorted(rows) == sorted(batched) == ["c0"] * 4 + ["c1"] * 2 + ["moved"]
            store.compact_durable()

    def test_scans_allowed_when_configured(self):
        store = KeyValueStore("debug", allow_scans=True)
        store.put_many("c", {1: "a", 2: "b"})
        assert len(store.execute(ScanRequest("c"), ("key", "value")).rows) == 2

    def test_capabilities_reflect_restriction(self, keyvalue):
        assert keyvalue.capabilities().requires_key_lookup
        assert not KeyValueStore("x", allow_scans=True).capabilities().requires_key_lookup

    def test_joins_rejected(self, keyvalue):
        with pytest.raises(UnsupportedOperationError):
            keyvalue.execute(
                JoinRequest(ScanRequest("prefs"), ScanRequest("prefs"), on=(("key", "key"),)), ("key",)
            )

    def test_unknown_collection(self, keyvalue):
        with pytest.raises(StoreError):
            keyvalue.get("missing", 1)

    def test_key_statistics(self, keyvalue):
        stats = keyvalue.column_statistics("prefs", "key")
        assert stats["indexed"] and stats["count"] == 2


@pytest.fixture
def fulltext():
    store = FullTextStore("solr")
    store.create_collection("catalog", indexed_fields=("title", "description"))
    store.insert(
        "catalog",
        [
            {"sku": 1, "title": "red running shoes", "description": "lightweight running shoes"},
            {"sku": 2, "title": "blue coffee mug", "description": "ceramic mug for coffee"},
            {"sku": 3, "title": "trail running jacket", "description": "waterproof jacket"},
        ],
    )
    return store


class TestFullTextStore:
    def test_search_ranks_relevant_first(self, fulltext):
        result = fulltext.execute(SearchRequest("catalog", "running shoes"), ("sku",))
        assert result.rows[0]["sku"] == 1
        assert {row["sku"] for row in result.rows} >= {1, 3}

    def test_search_no_hits(self, fulltext):
        assert fulltext.execute(SearchRequest("catalog", "zzzunknown"), ("sku",)).rows == []

    def test_search_limit(self, fulltext):
        result = fulltext.execute(SearchRequest("catalog", "running", limit=1), ("sku",))
        assert len(result.rows) == 1

    def test_scores_attached(self, fulltext):
        result = fulltext.execute(SearchRequest("catalog", "coffee"), ("_score",))
        assert result.rows[0]["_score"] > 0

    def test_scan_on_stored_fields(self, fulltext):
        result = fulltext.execute(ScanRequest("catalog", (Predicate("sku", "=", 2),)), ("title",))
        assert result.rows[0]["title"] == "blue coffee mug"

    def test_joins_and_lookups_rejected(self, fulltext):
        with pytest.raises(UnsupportedOperationError):
            fulltext.execute(LookupRequest("catalog", keys=(1,)), ("sku",))

    def test_duplicate_collection_rejected(self, fulltext):
        with pytest.raises(StoreError):
            fulltext.create_collection("catalog")

    def test_analyzer_stems_and_drops_stopwords(self, fulltext):
        from repro.stores.fulltext import Analyzer

        analyzer = Analyzer()
        tokens = analyzer.tokenize("The running shoes are for runners")
        assert "run" in tokens or "runn" in tokens
        assert "the" not in tokens and "are" not in tokens


@pytest.fixture
def parallel():
    store = ParallelStore("spark", default_partitions=4)
    store.create_dataset("visits", partition_column="uid")
    store.insert(
        "visits",
        [{"uid": i % 5, "sku": 100 + i, "duration": i * 10} for i in range(40)],
    )
    return store


class TestParallelStore:
    def test_scan_all_partitions(self, parallel):
        result = parallel.execute(ScanRequest("visits"), VISITS)
        assert len(result.rows) == 40
        assert result.metrics.partitions_used >= 1

    def test_selection(self, parallel):
        result = parallel.execute(ScanRequest("visits", (Predicate("uid", "=", 2),)), VISITS)
        assert all(row["uid"] == 2 for row in result.rows)
        assert len(result.rows) == 8

    def test_partition_pruning_on_lookup(self, parallel):
        result = parallel.execute(LookupRequest("visits", keys=(3,)), VISITS)
        assert all(row["uid"] == 3 for row in result.rows)
        assert result.metrics.partitions_used == 1

    def test_lookup_uses_the_partitions_its_keys_hash_to(self, parallel):
        keys = (0, 1, 2, 3, 4)
        result = parallel.execute(LookupRequest("visits", keys=keys), VISITS)
        assert sorted(row["sku"] for row in result.rows) == list(range(100, 140))
        assert result.metrics.partitions_used == len({stable_hash(key) % 4 for key in keys})

    def test_index_accelerates_scan(self, parallel):
        parallel.create_index("visits", "uid")
        result = parallel.execute(ScanRequest("visits", (Predicate("uid", "=", 1),)), VISITS)
        assert result.metrics.index_lookups >= 1
        assert len(result.rows) == 8

    def test_delegated_join(self, parallel):
        parallel.create_dataset("users", partition_column="uid")
        parallel.insert("users", [{"uid": i, "name": f"u{i}"} for i in range(5)])
        request = JoinRequest(
            left=ScanRequest("visits", (Predicate("uid", "=", 1),)),
            right=ScanRequest("users"),
            on=(("uid", "uid"),),
        )
        result = parallel.execute(request, VISITS + ("name",))
        assert len(result.rows) == 8
        assert all(row["name"] == "u1" for row in result.rows)

    def test_duplicate_dataset_rejected(self, parallel):
        with pytest.raises(StoreError):
            parallel.create_dataset("visits")

    def test_statistics_and_scans_follow_the_partitions(self, parallel):
        stats = parallel.column_statistics("visits", "uid")
        assert stats == {"count": 40, "distinct": 5, "indexed": False}
        # One heap, a live-row count per partition: a scan uses the
        # partitions the five uids hash to.
        used = parallel.execute(ScanRequest("visits"), VISITS).metrics.partitions_used
        assert used == len({stable_hash(uid) % 4 for uid in range(5)})

    def test_zero_partitions_rejected(self):
        with pytest.raises(StoreError):
            ParallelStore("bad", default_partitions=0)


class TestPredicates:
    def test_unknown_operator_rejected(self):
        with pytest.raises(StoreError):
            Predicate("c", "~", 1)

    @pytest.mark.parametrize(
        "op,value,expected",
        [("=", 5, True), ("!=", 5, False), ("<", 10, True), (">=", 5, True), (">", 5, False)],
    )
    def test_comparisons(self, op, value, expected):
        assert _holds(RelationalStore("pg"), {"c": 5}, Predicate("c", op, value)) is expected

    def test_missing_column_compares_as_none(self):
        store = RelationalStore("pg")
        assert not _holds(store, {}, Predicate("c", "=", 5))
        assert not _holds(store, {}, Predicate("c", "<", 5))

    def test_a_dotted_column_walks_a_document(self):
        document = {"attrs": {"x": 5}, "attrs.x": 9}
        assert _holds(DocumentStore("mongo"), document, Predicate("attrs.x", "=", 5))
        assert _holds(RelationalStore("pg"), document, Predicate("attrs.x", "=", 9))


def _holds(store, row, predicate):
    """``predicate`` on one native row, through the store's scan filter and reader."""
    return bool(list(kept_rows([row], [predicate], store._reader_of)))
