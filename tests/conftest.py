"""Shared fixtures: a fully-wired ESTOCADA instance over the marketplace scenario."""

from __future__ import annotations

import gc

import pytest

from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.stores import DocumentStore, FullTextStore, KeyValueStore, ParallelStore, RelationalStore
from repro.testing import FaultInjector, FaultProfile
from repro.workloads import MarketplaceConfig, generate_marketplace


@pytest.fixture(scope="session")
def marketplace_data():
    """Small deterministic marketplace dataset shared by the test session."""
    return generate_marketplace(MarketplaceConfig(users=60, products=80, orders=200, carts=40, log_lines=600, seed=3))


def build_marketplace_estocada(data, algorithm: str = "pacb") -> Estocada:
    """Wire the full multi-store marketplace deployment used by tests and benchmarks."""
    est = Estocada(algorithm=algorithm)
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("redis", KeyValueStore("redis"))
    est.register_store("mongo", DocumentStore("mongo"))
    est.register_store("solr", FullTextStore("solr"))
    est.register_store("spark", ParallelStore("spark"))

    est.register_relational_dataset(
        "shop",
        [
            TableSchema("users", ("uid", "name", "city", "payment", "preferred_category"), primary_key=("uid",)),
            TableSchema("purchases", ("uid", "sku", "category", "quantity", "price")),
            TableSchema("visits", ("uid", "sku", "category", "duration_ms")),
            TableSchema("carts", ("cart_id", "uid", "sku", "quantity")),
            TableSchema("products", ("sku", "title", "description", "category", "price"), primary_key=("sku",)),
        ],
    )

    def view(name, head, body, columns):
        return ViewDefinition(
            name, ConjunctiveQuery(name, head, body), column_names=columns
        )

    # Users as-such in Postgres.
    est.register_fragment(
        StorageDescriptor(
            "F_users", "shop", "pg",
            view("F_users", ["?u", "?n", "?c", "?p", "?pc"], [Atom("users", ["?u", "?n", "?c", "?p", "?pc"])],
                 ("uid", "name", "city", "payment", "preferred_category")),
            StorageLayout("users"), AccessMethod("scan"),
        ),
        rows=[
            {"uid": u["uid"], "name": u["name"], "city": u["city"], "payment": u["payment"],
             "preferred_category": u["preferred_category"]}
            for u in data.users
        ],
        indexes=("uid",),
    )
    # User preferences in Redis, keyed by uid.
    est.register_fragment(
        StorageDescriptor(
            "F_prefs", "shop", "redis",
            view("F_prefs", ["?u", "?pc"], [Atom("users", ["?u", "?n", "?c", "?p", "?pc"])],
                 ("uid", "preferred_category")),
            StorageLayout("prefs"), AccessMethod("lookup", key_columns=("uid",)),
        ),
        rows=[{"uid": u["uid"], "preferred_category": u["preferred_category"]} for u in data.users],
    )
    # Purchases in Postgres.
    est.register_fragment(
        StorageDescriptor(
            "F_purchases", "shop", "pg",
            view("F_purchases", ["?u", "?s", "?c", "?q", "?pr"],
                 [Atom("purchases", ["?u", "?s", "?c", "?q", "?pr"])],
                 ("uid", "sku", "category", "quantity", "price")),
            StorageLayout("purchases"), AccessMethod("scan"),
        ),
        rows=data.purchases(),
        indexes=("uid", "sku"),
    )
    # Browsing history in Spark (parallel store), partitioned by uid.
    est.register_fragment(
        StorageDescriptor(
            "F_visits", "shop", "spark",
            view("F_visits", ["?u", "?s", "?c", "?d"], [Atom("visits", ["?u", "?s", "?c", "?d"])],
                 ("uid", "sku", "category", "duration_ms")),
            StorageLayout("visits"), AccessMethod("scan"),
        ),
        rows=[
            {"uid": v["uid"], "sku": v["sku"], "category": v["category"], "duration_ms": v["duration_ms"]}
            for v in data.weblog
        ],
        indexes=("uid",),
    )
    # Shopping carts (flattened) in MongoDB.
    cart_rows = []
    for cart in data.carts:
        for item in cart["items"]:
            cart_rows.append(
                {"cart_id": cart["_id"], "uid": cart["uid"], "sku": item["sku"], "quantity": item["quantity"]}
            )
    est.register_fragment(
        StorageDescriptor(
            "F_carts", "shop", "mongo",
            view("F_carts", ["?cid", "?u", "?s", "?q"], [Atom("carts", ["?cid", "?u", "?s", "?q"])],
                 ("cart_id", "uid", "sku", "quantity")),
            StorageLayout("carts"), AccessMethod("scan"),
        ),
        rows=cart_rows,
        indexes=("cart_id", "uid"),
    )
    # Product catalog in SOLR.
    est.register_fragment(
        StorageDescriptor(
            "F_catalog", "shop", "solr",
            view("F_catalog", ["?s", "?t", "?d", "?c", "?p"],
                 [Atom("products", ["?s", "?t", "?d", "?c", "?p"])],
                 ("sku", "title", "description", "category", "price")),
            StorageLayout("catalog"), AccessMethod("scan"),
        ),
        rows=data.products,
        indexes=("title", "description"),
    )
    return est


def build_sharded_marketplace_estocada(
    data, shards: int = 8, algorithm: str = "pacb", latency: float = 0.0
) -> Estocada:
    """The marketplace over sharded stores: purchases and visits hash-sharded on uid.

    Users stay in a single relational instance; the two high-volume
    collections are spread across ``shards`` homogeneous relational instances
    each (one sharded store per collection, as separate services would be).
    ``latency`` is the simulated per-request service latency of every shard
    instance.
    """
    est = Estocada(algorithm=algorithm)
    est.register_store("pg", RelationalStore("pg", latency=latency))
    est.register_sharded_store(
        "shardpg", shards, lambda name: RelationalStore(name, latency=latency)
    )
    est.register_sharded_store(
        "shardlog", shards, lambda name: RelationalStore(name, latency=latency)
    )
    est.register_relational_dataset(
        "shop",
        [
            TableSchema("users", ("uid", "name", "city", "payment", "preferred_category"), primary_key=("uid",)),
            TableSchema("purchases", ("uid", "sku", "category", "quantity", "price")),
            TableSchema("visits", ("uid", "sku", "category", "duration_ms")),
        ],
    )

    def view(name, head, body, columns):
        return ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)

    est.register_fragment(
        StorageDescriptor(
            "F_users", "shop", "pg",
            view("F_users", ["?u", "?n", "?c", "?p", "?pc"], [Atom("users", ["?u", "?n", "?c", "?p", "?pc"])],
                 ("uid", "name", "city", "payment", "preferred_category")),
            StorageLayout("users"), AccessMethod("scan"),
        ),
        rows=[
            {"uid": u["uid"], "name": u["name"], "city": u["city"], "payment": u["payment"],
             "preferred_category": u["preferred_category"]}
            for u in data.users
        ],
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_purchases", "shop", "shardpg",
            view("F_purchases", ["?u", "?s", "?c", "?q", "?pr"],
                 [Atom("purchases", ["?u", "?s", "?c", "?q", "?pr"])],
                 ("uid", "sku", "category", "quantity", "price")),
            StorageLayout("purchases"), AccessMethod("scan"),
            sharding=ShardingSpec("uid", shards),
        ),
        rows=data.purchases(),
        indexes=("uid", "sku"),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_visits", "shop", "shardlog",
            view("F_visits", ["?u", "?s", "?c", "?d"], [Atom("visits", ["?u", "?s", "?c", "?d"])],
                 ("uid", "sku", "category", "duration_ms")),
            StorageLayout("visits"), AccessMethod("scan"),
            sharding=ShardingSpec("uid", shards),
        ),
        rows=[
            {"uid": v["uid"], "sku": v["sku"], "category": v["category"], "duration_ms": v["duration_ms"]}
            for v in data.weblog
        ],
        indexes=("uid",),
    )
    return est


def build_replicated_marketplace_estocada(
    data,
    replicas: int = 3,
    algorithm: str = "pacb",
    profiles=None,
    policy=None,
    latency: float = 0.0,
):
    """The marketplace over replicated stores: purchases and visits 3-way replicated.

    Users stay in a single relational instance; the two high-volume
    collections live in full-copy replicated stores.  ``profiles`` maps a
    replica index to the :class:`~repro.testing.FaultProfile` its
    :class:`~repro.testing.FaultInjector` wrapper injects (replicas without a
    profile run fault-free); both replicated stores share the same profile
    map, so one map describes the whole chaos scenario.  ``policy`` is the
    :class:`~repro.stores.ReplicationPolicy` of both stores.
    """
    profiles = profiles or {}
    est = Estocada(algorithm=algorithm)
    est.register_store("pg", RelationalStore("pg", latency=latency))

    def factory(name: str):
        index = int(name.rsplit(".", 1)[1])
        inner = RelationalStore(name, latency=latency)
        profile = profiles.get(index)
        return FaultInjector(inner, profile) if profile is not None else inner

    est.register_replicated_store("reppg", replicas, factory, policy=policy)
    est.register_replicated_store("replog", replicas, factory, policy=policy)
    est.register_relational_dataset(
        "shop",
        [
            TableSchema("users", ("uid", "name", "city", "payment", "preferred_category"), primary_key=("uid",)),
            TableSchema("purchases", ("uid", "sku", "category", "quantity", "price")),
            TableSchema("visits", ("uid", "sku", "category", "duration_ms")),
        ],
    )

    def view(name, head, body, columns):
        return ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)

    est.register_fragment(
        StorageDescriptor(
            "F_users", "shop", "pg",
            view("F_users", ["?u", "?n", "?c", "?p", "?pc"], [Atom("users", ["?u", "?n", "?c", "?p", "?pc"])],
                 ("uid", "name", "city", "payment", "preferred_category")),
            StorageLayout("users"), AccessMethod("scan"),
        ),
        rows=[
            {"uid": u["uid"], "name": u["name"], "city": u["city"], "payment": u["payment"],
             "preferred_category": u["preferred_category"]}
            for u in data.users
        ],
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_purchases", "shop", "reppg",
            view("F_purchases", ["?u", "?s", "?c", "?q", "?pr"],
                 [Atom("purchases", ["?u", "?s", "?c", "?q", "?pr"])],
                 ("uid", "sku", "category", "quantity", "price")),
            StorageLayout("purchases"), AccessMethod("scan"),
        ),
        rows=data.purchases(),
        indexes=("uid", "sku"),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_visits", "shop", "replog",
            view("F_visits", ["?u", "?s", "?c", "?d"], [Atom("visits", ["?u", "?s", "?c", "?d"])],
                 ("uid", "sku", "category", "duration_ms")),
            StorageLayout("visits"), AccessMethod("scan"),
        ),
        rows=[
            {"uid": v["uid"], "sku": v["sku"], "category": v["category"], "duration_ms": v["duration_ms"]}
            for v in data.weblog
        ],
        indexes=("uid",),
    )
    return est


@pytest.fixture
def fresh_worker_budget():
    """Return the Exchange-worker grants of facades earlier tests abandoned.

    Pools give their grant back when they are collected, and abandoned
    facades sit in reference cycles: under ``REPRO_PARALLELISM=4`` a suite
    that allocates little between two cyclic collections can drain the
    process-wide budget, a drained budget grants one worker, and an
    assertion that requests overlap then fails for no fault of the engine.
    """
    gc.collect()


@pytest.fixture
def marketplace_estocada(marketplace_data):
    """A fresh, fully-wired ESTOCADA deployment for each test."""
    return build_marketplace_estocada(marketplace_data)


@pytest.fixture(scope="session")
def marketplace_builder():
    """The deployment builder itself, for tests that need several instances."""
    return build_marketplace_estocada


@pytest.fixture(scope="session")
def sharded_marketplace_builder():
    """Builder for the sharded-marketplace deployment (configurable shard count)."""
    return build_sharded_marketplace_estocada


@pytest.fixture(scope="session")
def replicated_marketplace_builder():
    """Builder for the replicated-marketplace deployment (fault profiles, policy)."""
    return build_replicated_marketplace_estocada
