"""Document fragments whose columns live at dotted paths, end to end.

A :class:`~repro.catalog.StorageLayout` may map a view column to a dotted
path (``{"x": "attrs.x"}``): the document store holds the value nested
(``{"attrs": {"x": ...}}``) and reads it back by walking the path.  Every
statement below runs through the facade and must equal a plain-Python
oracle over the relation's current rows, on an in-memory deployment, a
durable one, a durable one of three replicas and one of three shards keyed
by a dotted column, and for each of:

* documents inserted nested straight into the store;
* fragment rows the catalog materialized;
* fragment rows the maintenance engine wrote for an insert, an update and a
  delete (a maintained delete must match the nested document it removes);
* the same after a compaction, when unindexed scans are served from the
  segments.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import register, view
from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom
from repro.datamodel import TableSchema
from repro.stores import DocumentStore, ReplicatedStore, ScanRequest, ShardedStore

ROWS = [{"k": i, "x": i, "y": None if i == 3 else i % 3} for i in range(10)]

# (SQL over ``{table}``, oracle over the table's rows)
STATEMENTS = [
    ("SELECT k, x, y FROM {table}", lambda rows: [(r["k"], r["x"], r["y"]) for r in rows]),
    ("SELECT k FROM {table} WHERE x <> 4", lambda rows: [(r["k"],) for r in rows if r["x"] != 4]),
    ("SELECT k FROM {table} WHERE x > 4", lambda rows: [(r["k"],) for r in rows if r["x"] > 4]),
    ("SELECT k FROM {table} WHERE x = 4", lambda rows: [(r["k"],) for r in rows if r["x"] == 4]),
    (
        "SELECT k, x FROM {table} WHERE y = 1",
        lambda rows: [(r["k"], r["x"]) for r in rows if r["y"] == 1],
    ),
]


def _fragment(table: str, sharded: bool) -> StorageDescriptor:
    name = f"F_{table}"
    return StorageDescriptor(
        name, "d", "mongo",
        view(name, ["?k", "?x", "?y"], [Atom(table, ["?k", "?x", "?y"])], ("k", "x", "y")),
        StorageLayout(table, {"x": "attrs.x", "y": "attrs.meta.y"}), AccessMethod("scan"),
        sharding=ShardingSpec("x", 3) if sharded else None,
    )


def _build(deployment: str, tmp_path) -> tuple[Estocada, object]:
    sharded = deployment == "3-shards"
    if deployment == "memory":
        est, store = Estocada(), DocumentStore("mongo")
    elif sharded:
        est, store = Estocada(), ShardedStore.homogeneous("mongo", 3, DocumentStore)
        store.set_sharding("nested", ShardingSpec("attrs.x", 3))  # routed by the path
    else:
        est = Estocada(durable_path=str(tmp_path / "estocada"))
        if deployment == "durable":
            store = DocumentStore("mongo")
        else:
            store = ReplicatedStore.homogeneous("mongo", 3, DocumentStore)
    register(est, "mongo", store, segment_rows=4)
    est.register_relational_dataset(
        "d", [TableSchema("written", ("k", "x", "y")), TableSchema("nested", ("k", "x", "y"))]
    )
    # "nested": documents the application stored nested itself.
    store.insert(
        "nested", [{"k": r["k"], "attrs": {"x": r["x"], "meta": {"y": r["y"]}}} for r in ROWS]
    )
    est.register_fragment(_fragment("nested", sharded))
    # "written": a writable relation, materialized and maintained by the catalog.
    est.load_relation("written", ROWS, dataset="d")
    est.register_fragment(_fragment("written", sharded))
    return est, store


def _check(est: Estocada, table: str, rows) -> None:
    for sql, oracle in STATEMENTS:
        statement = sql.format(table=table)
        got = est.query(statement, dataset="d").rows
        assert Counter(tuple(row.values()) for row in got) == Counter(oracle(rows)), statement


@pytest.mark.parametrize("deployment", ["memory", "durable", "durable-3-replicas", "3-shards"])
def test_dotted_columns_read_and_write_as_nested_documents(deployment, tmp_path):
    est, store = _build(deployment, tmp_path)
    rows = [dict(row) for row in ROWS]
    for compacted in (False, True):
        _check(est, "nested", ROWS)
        _check(est, "written", rows)
        if not compacted:
            est.compact()

    inserted = [{"k": 10, "x": 10, "y": 1}, {"k": 11, "x": 4, "y": None}]
    est.insert("written", inserted)
    rows += inserted
    _check(est, "written", rows)

    before, after = rows[2], {"k": 2, "x": 7, "y": 1}
    est.update("written", before, after)
    rows[rows.index(before)] = after
    _check(est, "written", rows)

    est.delete("written", rows[5])
    del rows[5]
    _check(est, "written", rows)

    # What the catalog wrote is nested, not flat dotted keys.
    stored = store.execute(ScanRequest("written"), ("k", "attrs", "attrs.x")).rows
    assert sorted((row["k"], row["attrs"]["x"], row["attrs.x"]) for row in stored) == sorted(
        (row["k"], row["x"], row["x"]) for row in rows
    )
