"""Loading a fragment is all or nothing, and a key that is not unique refuses it.

A lookup fragment is keyed: its store holds one row per key (a relational
primary key, a key-value entry).  Rows that repeat a key refuse the load —
a key-value store would otherwise keep only the last row per key and answer
a keyed query with part of its rows.  A refused load unregisters the
fragment and empties its collection, so no query is planned over a
half-built copy, and a retry with valid rows succeeds.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import Estocada
from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.errors import DeltaError, NoRewritingFoundError, StoreError
from repro.stores import DocumentStore, KeyValueStore, RelationalStore

EVENTS = TableSchema("events", ("uid", "kind"))
USERS = TableSchema("users", ("uid", "name"))
DUPLICATED = [{"uid": 1, "kind": "a"}, {"uid": 1, "kind": "b"}, {"uid": 2, "kind": "c"}]
UNIQUE = [{"uid": 1, "kind": "a"}, {"uid": 2, "kind": "c"}]
QUERY = "SELECT kind FROM events WHERE uid = 1"

STORES = {
    "keyvalue": (lambda: KeyValueStore("store"), DeltaError),
    "relational": (lambda: RelationalStore("store"), StoreError),
}


def _lookup_fragment(table):
    variables = [f"?{column}" for column in table.columns]
    name = f"F_{table.name}"
    view = ViewDefinition(
        name, ConjunctiveQuery(name, variables, [Atom(table.name, variables)]),
        column_names=table.columns,
    )
    return StorageDescriptor(
        name, "app", "store", view, StorageLayout(table.name),
        AccessMethod("lookup", key_columns=("uid",)),
    )


def _facade(kind):
    """A store holding users; events are loaded by each test."""
    est = Estocada()
    est.register_store("store", STORES[kind][0]())
    est.register_relational_dataset("app", (EVENTS, USERS))
    est.register_fragment(_lookup_fragment(USERS), rows=[{"uid": 1, "name": "ann"}])
    return est


@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_key_held_twice_refuses_the_load(kind):
    est = _facade(kind)
    with pytest.raises(STORES[kind][1], match="duplicate primary key"):
        est.register_fragment(_lookup_fragment(EVENTS), rows=DUPLICATED)


@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_refused_load_leaves_nothing_registered_and_a_retry_succeeds(kind):
    est = _facade(kind)
    with pytest.raises(STORES[kind][1]):
        est.register_fragment(_lookup_fragment(EVENTS), rows=DUPLICATED)
    assert [fragment.fragment_name for fragment in est.catalog.fragments()] == ["F_users"]
    assert est.catalog.store("store").collection_size("events") == 0
    with pytest.raises(NoRewritingFoundError):
        est.query(QUERY, dataset="app")
    est.register_fragment(_lookup_fragment(EVENTS), rows=UNIQUE)
    assert est.query(QUERY, dataset="app").rows == [{"kind": "a"}]


@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_lookup_fragment_registered_again_replaces_its_rows_and_keeps_them_on_failure(kind):
    """Data outlives ``drop_fragment``; registering the fragment again over
    writable relations reloads its rows in place of the ones left behind."""
    est = _facade(kind)
    est.load_relation("events", UNIQUE, dataset="app")
    est.register_fragment(_lookup_fragment(EVENTS))
    store = est.catalog.store("store")
    read = store._reader_of("uid")
    descriptor = est.drop_fragment("F_events")
    est.insert("events", {"uid": 3, "kind": "d"})
    est.register_fragment(descriptor)
    assert store.collection_size("events") == 3
    assert est.query("SELECT kind FROM events WHERE uid = 3", dataset="app").rows == [
        {"kind": "d"}
    ]
    est.drop_fragment("F_events")
    est.insert("events", {"uid": 1, "kind": "z"})  # uid 1 is no longer unique
    with pytest.raises(STORES[kind][1], match="duplicate primary key"):
        est.register_fragment(descriptor)
    assert [fragment.fragment_name for fragment in est.catalog.fragments()] == ["F_users"]
    assert sorted(read(row, "uid") for row in store.rows("events")) == [1, 2, 3]


@pytest.mark.parametrize("store_factory", [DocumentStore, RelationalStore])
def test_a_scan_fragment_registered_again_holds_only_its_recomputed_rows(store_factory):
    est = Estocada()
    est.register_store("store", store_factory("store"))
    est.register_relational_dataset("app", (EVENTS,))
    est.load_relation("events", UNIQUE, dataset="app")
    descriptor = replace(_lookup_fragment(EVENTS), access=AccessMethod("scan"))
    est.register_fragment(descriptor)
    est.drop_fragment("F_events")
    est.delete("events", {"uid": 2, "kind": "c"})
    est.insert("events", {"uid": 3, "kind": "d"})
    est.register_fragment(descriptor)
    assert est.catalog.store("store").collection_size("events") == 2
    assert est.query(QUERY, dataset="app").rows == [{"kind": "a"}]
    rows = est.query("SELECT uid, kind FROM events", dataset="app").rows
    assert sorted((row["uid"], row["kind"]) for row in rows) == [(1, "a"), (3, "d")]
