"""The row-addressed heap behind every leaf store, against a list-of-dicts oracle.

Random schedules of inserts, deletes and updates — duplicate rows included —
run through each store's ``apply_delta``; after every step the store must
agree with a plain Python list that appends inserts and removes the first
equal row per delete:

* the bag of rows, and the scan order (insertion order of the live rows);
* every index lookup (equality scans an index narrows, key lookups);
* ``LIMIT n``: the first ``n`` live rows in insertion order;
* a delete that matches nothing raises :class:`DeltaError` and leaves the
  store exactly as it was, even beside valid deletes in the same delta;
* the heap never holds more holes than live rows (it compacts past that).

Covered: relational (no index, indexed, primary key), document (dotted-path
index), parallel (partitioned and indexed) and full-text (search hits).
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeltaError
from repro.stores import DocumentStore, FullTextStore, ParallelStore, RelationalStore
from repro.stores.base import LookupRequest, Predicate, ScanRequest, SearchRequest

SMALL = st.integers(0, 3)
WORDS = ("apple", "river", "stone", "cloud")
SCHEDULE = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _freeze(row):
    return tuple(sorted((key, repr(value)) for key, value in row.items()))


def _bag(rows):
    return Counter(_freeze(row) for row in rows)


def _path(row, path):
    for part in path.split("."):
        row = row.get(part) if isinstance(row, dict) else None
    return row


class Harness:
    """One store kind: how to build it, draw rows, and read it back."""

    ordered = True  # one heap: scans follow insertion order
    keyed = None  # primary-key column, if rows must keep it unique
    indexed: tuple[str, ...] = ()
    collection = "c"

    def rows(self):
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def heaps(self, store):
        raise NotImplementedError

    def scan(self, store, *predicates, limit=None):
        return store.execute(ScanRequest(self.collection, tuple(predicates), limit=limit))

    def extra_checks(self, store, oracle):
        """Store-specific lookups beyond equality scans (default: none)."""

    def sample(self, i):
        """A deterministic row, the ``i``-th of a fixed schedule."""
        return {"a": i % 4, "b": (i // 4) % 4}


class RelationalPlain(Harness):
    def rows(self):
        return st.fixed_dictionaries({"a": SMALL, "b": SMALL})

    def build(self):
        store = RelationalStore("pg")
        store.create_table(self.collection, ("a", "b"))
        return store

    def heaps(self, store):
        return [store.table(self.collection).rows]


class RelationalIndexed(RelationalPlain):
    indexed = ("a", "b")

    def build(self):
        store = super().build()
        for column in self.indexed:
            store.create_index(self.collection, column)
        return store


class RelationalKeyed(Harness):
    keyed = "id"
    indexed = ("a",)

    def rows(self):
        return st.fixed_dictionaries({"id": st.integers(0, 7), "a": SMALL})

    def sample(self, i):
        return {"id": i, "a": i % 4}

    def build(self):
        store = RelationalStore("pg")
        store.create_table(self.collection, ("id", "a"), primary_key=("id",))
        store.create_index(self.collection, "a")
        return store

    def heaps(self, store):
        return [store.table(self.collection).rows]

    def extra_checks(self, store, oracle):
        for key in range(8):
            got = store.execute(LookupRequest(self.collection, (key,))).rows
            assert got == [row for row in oracle if row["id"] == key]


class DocumentPathIndexed(Harness):
    indexed = ("p.x",)

    def rows(self):
        return st.builds(lambda x, b: {"p": {"x": x}, "b": b}, SMALL, SMALL)

    def sample(self, i):
        return {"p": {"x": i % 4}, "b": i % 3}

    def build(self):
        store = DocumentStore("mongo")
        store.create_collection(self.collection)
        store.create_index(self.collection, "p.x")
        return store

    def heaps(self, store):
        return [store._documents(self.collection)]


class ParallelPartitioned(Harness):
    ordered = False  # partition by partition
    indexed = ("b",)

    def __init__(self, partition_column):
        self.partition_column = partition_column

    def rows(self):
        return st.fixed_dictionaries({"a": SMALL, "b": SMALL})

    def build(self):
        store = ParallelStore("spark", default_partitions=3)
        store.create_dataset(self.collection, partition_column=self.partition_column)
        store.create_index(self.collection, "b")
        return store

    def heaps(self, store):
        return store._dataset(self.collection).partitions

    def extra_checks(self, store, oracle):
        if self.partition_column is None:
            return
        for key in range(4):
            got = store.execute(LookupRequest(self.collection, (key,))).rows
            assert _bag(got) == _bag(row for row in oracle if row["a"] == key)


class FullTextSearched(Harness):
    def rows(self):
        words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)
        return st.builds(lambda n, w: {"n": n, "text": " ".join(w)}, SMALL, words)

    def sample(self, i):
        return {"n": i % 4, "text": " ".join(WORDS[: 1 + i % 4])}

    def build(self):
        store = FullTextStore("solr")
        store.create_collection(self.collection, indexed_fields=("text",))
        return store

    def heaps(self, store):
        return [store._bucket(self.collection).documents]

    def extra_checks(self, store, oracle):
        for word in WORDS:
            hits = store.execute(SearchRequest(self.collection, word)).rows
            assert all("_score" in hit for hit in hits)
            stripped = [{k: v for k, v in hit.items() if k != "_score"} for hit in hits]
            assert _bag(stripped) == _bag(row for row in oracle if word in row["text"].split())


HARNESSES = {
    "relational-plain": RelationalPlain(),
    "relational-indexed": RelationalIndexed(),
    "relational-keyed": RelationalKeyed(),
    "document-path-index": DocumentPathIndexed(),
    "parallel-partitioned": ParallelPartitioned("a"),
    "parallel-unpartitioned": ParallelPartitioned(None),
    "fulltext": FullTextSearched(),
}


def check(harness, store, oracle):
    """Everything the store answers must equal what the oracle list implies."""
    rows = harness.scan(store).rows
    if harness.ordered:
        assert rows == oracle
        for limit in (0, 1, 2, len(oracle)):
            assert harness.scan(store, limit=limit).rows == oracle[:limit]
    else:
        assert _bag(rows) == _bag(oracle)
        for limit in (0, 1, 2):
            limited = harness.scan(store, limit=limit).rows
            assert len(limited) == min(limit, len(oracle))
            assert not _bag(limited) - _bag(oracle)
    assert store.collection_size(harness.collection) == len(oracle)
    for column in harness.indexed:
        for value in range(4):
            result = harness.scan(store, Predicate(column, "=", value))
            assert result.metrics.index_lookups >= 1 or not oracle
            expected = [row for row in oracle if _path(row, column) == value]
            if harness.ordered:
                assert result.rows == expected
            else:
                assert _bag(result.rows) == _bag(expected)
    harness.extra_checks(store, oracle)
    for heap in harness.heaps(store):
        assert heap.holes <= len(heap)


def _remove_first(oracle, record):
    oracle.remove(record)  # list.remove drops the first equal row


def run_schedule(data, harness):
    store = harness.build()
    oracle: list[dict] = []
    rows = harness.rows()
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        kind = data.draw(st.sampled_from(("insert", "insert", "delete", "update", "refused")))
        if kind != "insert" and not oracle:
            kind = "insert"
        if kind == "insert":
            batch = data.draw(st.lists(rows, min_size=1, max_size=4), label="inserts")
            if harness.keyed:
                live = {row[harness.keyed] for row in oracle}
                fresh = {}
                for row in batch:
                    if row[harness.keyed] not in live:
                        fresh.setdefault(row[harness.keyed], row)
                batch = list(fresh.values())
                if not batch:
                    continue
            store.apply_delta(harness.collection, inserts=[dict(row) for row in batch])
            oracle.extend(dict(row) for row in batch)
        elif kind == "delete":
            picks = data.draw(
                st.lists(st.integers(0, len(oracle) - 1), min_size=1, max_size=4, unique=True),
                label="deleted positions",
            )
            doomed = [dict(oracle[i]) for i in picks]
            assert store.apply_delta(harness.collection, deletes=doomed) == len(doomed)
            for record in doomed:
                _remove_first(oracle, record)
        elif kind == "update":
            before = dict(oracle[data.draw(st.integers(0, len(oracle) - 1), label="updated")])
            after = dict(data.draw(rows, label="after"))
            if harness.keyed:
                after[harness.keyed] = before[harness.keyed]
            store.apply_delta(harness.collection, inserts=[after], deletes=[before])
            _remove_first(oracle, before)
            oracle.append(dict(after))
        else:
            snapshot = harness.scan(store).rows
            absent = dict(data.draw(rows, label="absent"))
            absent[next(iter(absent))] = 99  # outside every drawn domain
            deletes = [dict(oracle[0]), absent]
            with pytest.raises(DeltaError):
                store.apply_delta(harness.collection, deletes=deletes, inserts=[])
            assert harness.scan(store).rows == snapshot
        check(harness, store, oracle)


@pytest.mark.parametrize("name", sorted(HARNESSES))
@SCHEDULE
@given(data=st.data())
def test_random_schedules_match_the_list_oracle(name, data):
    run_schedule(data, HARNESSES[name])


@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_a_schedule_crossing_the_hole_compaction(name):
    """Deleting most rows compacts the heap; every answer and index survives it."""
    harness = HARNESSES[name]
    store = harness.build()
    oracle = [harness.sample(i) for i in range(24)]
    store.apply_delta(harness.collection, inserts=[dict(r) for r in oracle])
    heaps = harness.heaps(store)
    compacted = False
    added = 0
    while len(oracle) > 1:
        picks = sorted({0, len(oracle) // 2})
        doomed = [dict(oracle[i]) for i in picks]
        holes_before = sum(heap.holes for heap in heaps)
        store.apply_delta(harness.collection, deletes=doomed)
        for record in doomed:
            _remove_first(oracle, record)
        compacted |= sum(heap.holes for heap in heaps) < holes_before + len(doomed)
        check(harness, store, oracle)
        if len(oracle) % 5 == 0:
            # Append after a compaction too: new rows take fresh positions.
            added += 1
            extra = harness.sample(100 + added)
            store.apply_delta(harness.collection, inserts=[dict(extra)])
            oracle.append(extra)
            check(harness, store, oracle)
    assert compacted


@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_a_delete_given_as_a_read_only_mapping_is_located(name):
    """Deletes may be any Mapping, not only dicts, on indexed heaps too."""
    harness = HARNESSES[name]
    store = harness.build()
    oracle = [harness.sample(i) for i in range(8)]
    store.apply_delta(harness.collection, inserts=[dict(r) for r in oracle])
    doomed = oracle[3]
    store.apply_delta(harness.collection, deletes=[MappingProxyType(dict(doomed))])
    _remove_first(oracle, doomed)
    check(harness, store, oracle)
