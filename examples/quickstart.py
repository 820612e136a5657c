"""Quickstart: one dataset, two stores, transparent rewriting.

A ``users`` dataset is stored twice: as-such in the relational store and as a
key-value collection keyed on ``uid``.  The application keeps issuing SQL;
ESTOCADA rewrites each query over the registered fragments, picks the cheapest
feasible plan (the key-value lookup for point queries, the relational scan for
everything else) and executes it.

The second half demonstrates **tuning parallelism**: a query fanning out to
several stores runs its delegated requests concurrently when the executor is
given more than one worker.  The next section demonstrates **sharding**: a
high-volume collection spread across 8 relational instances, with the
planner pruning point queries to a single shard and scatter-gathering
unpruned scans.  The next section demonstrates **replication**: the same
collection held by 3 full-copy replicas, with transient errors retried,
a dead replica failed over, and a slow replica hedged.  The next section
demonstrates **multi-tenant serving**: two tenants sharing one mediator
through an admission-controlled :class:`repro.service.QueryService`, with
per-tenant quotas, priorities, deadlines and plan-cache namespaces.  The
last section demonstrates **durability**: ``Estocada(durable_path=...)``
persists every store through a write-ahead log + columnar segments, a
fresh mediator recovers the data from disk, and zone-mapped segment
skipping shows up in ``result.summary()["segments"]``.

Run with:  python examples/quickstart.py
"""

import time

from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.stores import DocumentStore, KeyValueStore, RelationalStore, ReplicationPolicy
from repro.testing import FaultInjector, FaultProfile


def main() -> None:
    est = Estocada()
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("redis", KeyValueStore("redis"))
    est.register_relational_dataset(
        "app", [TableSchema("users", ("uid", "name", "city"), primary_key=("uid",))]
    )

    users = [
        {"uid": 1, "name": "ana", "city": "paris"},
        {"uid": 2, "name": "bob", "city": "lyon"},
        {"uid": 3, "name": "cleo", "city": "paris"},
    ]

    # Fragment 1: the users table stored as-such in the relational store.
    full_view = ViewDefinition(
        "F_users",
        ConjunctiveQuery("F_users", ["?u", "?n", "?c"], [Atom("users", ["?u", "?n", "?c"])]),
        column_names=("uid", "name", "city"),
    )
    est.register_fragment(
        StorageDescriptor("F_users", "app", "pg", full_view, StorageLayout("users"), AccessMethod("scan")),
        rows=users,
    )

    # Fragment 2: a key-value projection keyed on uid (only reachable by key).
    kv_view = ViewDefinition(
        "F_users_kv",
        ConjunctiveQuery("F_users_kv", ["?u", "?n"], [Atom("users", ["?u", "?n", "?c"])]),
        column_names=("uid", "name"),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_users_kv", "app", "redis", kv_view, StorageLayout("users_kv"),
            AccessMethod("lookup", key_columns=("uid",)),
        ),
        rows=[{"uid": u["uid"], "name": u["name"]} for u in users],
    )

    point = "SELECT name FROM users WHERE uid = 2"
    scan = "SELECT name FROM users WHERE city = 'paris'"

    print("== explain:", point)
    explanation = est.explain(point, dataset="app")
    for ranked in explanation.ranked_plans:
        fragments = sorted({a.relation for a in ranked.rewriting.body})
        print(f"   candidate {fragments} estimated cost {ranked.estimate.total_cost:.1f}")
    print(explanation.plan_text())

    print("== run:", point)
    result = est.query(point, dataset="app")
    print("   rows:", result.rows, "| stores used:", sorted(result.store_breakdown))

    print("== run:", scan)
    result = est.query(scan, dataset="app")
    print("   rows:", result.rows, "| stores used:", sorted(result.store_breakdown))

    tuning_parallelism()
    sharding()
    replication()
    multi_tenant_service()
    durability()


def tuning_parallelism() -> None:
    """Tuning parallelism: overlap the store requests of a multi-store fan-out.

    Three fragments live in three different stores, each simulating a 20 ms
    per-request service latency (as the real Postgres/MongoDB backends
    would).  Serially the query pays ~3 x 20 ms in store time; with
    ``parallelism`` workers the delegated scans overlap and the query pays
    roughly the max.  Three knobs, from coarse to fine:

    * ``REPRO_PARALLELISM=4`` (environment, read when a mediator is built)
      — default of every mediator built afterwards;
    * ``Estocada(parallelism=4)`` — per-mediator default;
    * ``est.query(..., parallelism=4)`` — per-query override (1 = serial).

    Further execution knobs (all usually best left at their defaults):

    * ``Estocada(batch_size=256)`` — rows per
      ``RowBatch`` flowing through the runtime (must be >= 1; bigger batches
      amortize per-batch overhead, smaller ones reduce LIMIT overshoot);
      the per-operator throughput counters show up in
      ``result.summary()["execution"]``;
    * ``REPRO_DURABLE=/abs/path`` / ``Estocada(durable_path=...)`` — persist
      every registered store through a per-store WAL + columnar segment
      backing (see :func:`durability` below; a store registered with its
      own ``DurableBacking(path, segment_rows=N)`` sets how many rows
      freeze per segment).
    """
    est = Estocada(parallelism=1)  # serial by default; overridden per query
    est.register_store("pg", RelationalStore("pg", latency=0.02))
    est.register_store("mongo", DocumentStore("mongo", latency=0.02))
    est.register_store("redis2", KeyValueStore("redis2", latency=0.02, allow_scans=True))
    est.register_relational_dataset(
        "app",
        [
            TableSchema("users", ("uid", "name")),
            TableSchema("orders", ("uid", "sku")),
            TableSchema("visits", ("uid", "ms")),
        ],
    )

    def fragment(name, store, relation, columns, collection):
        head = [f"?{c}" for c in columns]
        view = ViewDefinition(
            name, ConjunctiveQuery(name, head, [Atom(relation, head)]), column_names=columns
        )
        return StorageDescriptor(
            name, "app", store, view, StorageLayout(collection), AccessMethod("scan")
        )

    est.register_fragment(
        fragment("F_users2", "pg", "users", ("uid", "name"), "users"),
        rows=[{"uid": i, "name": f"u{i}"} for i in range(40)],
    )
    est.register_fragment(
        fragment("F_orders", "mongo", "orders", ("uid", "sku"), "orders"),
        rows=[{"uid": i % 40, "sku": f"s{i}"} for i in range(80)],
    )
    # A key-value collection holds one entry per key (here the first column,
    # uid): rows repeating a key would refuse the load.
    est.register_fragment(
        fragment("F_visits2", "redis2", "visits", ("uid", "ms"), "visits"),
        rows=[{"uid": i, "ms": 10 * i} for i in range(40)],
    )

    fanout = ConjunctiveQuery(
        "fanout",
        ["?uid", "?sku", "?ms"],
        [Atom("users", ["?uid", "?name"]), Atom("orders", ["?uid", "?sku"]),
         Atom("visits", ["?uid", "?ms"])],
    )
    est.query(fanout)  # warm the plan cache so both runs measure execution only

    print("== tuning parallelism (3-store fan-out, 20 ms simulated latency/request)")
    for workers in (1, 4):
        started = time.perf_counter()
        result = est.query(fanout, parallelism=workers)
        elapsed = time.perf_counter() - started
        print(
            f"   parallelism={workers}: {elapsed * 1e3:6.1f} ms, "
            f"{len(result.rows)} rows, "
            f"max concurrent store requests: {result.max_concurrent_requests}"
        )


def sharding() -> None:
    """Sharding: spread one collection over 8 instances, prune or fan out.

    The fragment's descriptor declares how it is sharded
    (``ShardingSpec("uid", 8)`` = hash on uid over 8 shards); materialization
    routes the rows.  A query whose constant binds the shard key contacts
    exactly one shard (one request's latency); an unpruned scan fans out one
    request per shard, overlapped by the parallel executor.
    """
    est = Estocada(parallelism=4)
    est.register_sharded_store(
        "shardpg", 8, lambda name: RelationalStore(name, latency=0.01)
    )
    est.register_relational_dataset(
        "app", [TableSchema("events", ("uid", "action", "ms"))]
    )
    view = ViewDefinition(
        "F_events",
        ConjunctiveQuery("F_events", ["?u", "?a", "?m"], [Atom("events", ["?u", "?a", "?m"])]),
        column_names=("uid", "action", "ms"),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_events", "app", "shardpg", view, StorageLayout("events"),
            AccessMethod("scan"),
            sharding=ShardingSpec("uid", 8),   # hash on uid across the 8 instances
        ),
        rows=[{"uid": i % 200, "action": f"a{i % 7}", "ms": i} for i in range(2000)],
        indexes=("uid",),
    )
    print("== sharding (8 relational instances, 10 ms simulated latency/request)")
    print("   topology:", est.shard_configuration()["shardpg"]["shards"], "shards")

    for label, sql in (
        ("point (pruned)", "SELECT action FROM events WHERE uid = 17"),
        ("scan (fan-out)", "SELECT uid, action FROM events"),
        ("aggregate (per-shard partials)",
         "SELECT action, COUNT(uid) AS n FROM events GROUP BY action"),
    ):
        started = time.perf_counter()
        result = est.query(sql, dataset="app")
        elapsed = time.perf_counter() - started
        shards = result.summary()["shards"]
        print(
            f"   {label}: {elapsed * 1e3:6.1f} ms, {len(result.rows)} rows, "
            f"shards {shards['contacted']} contacted / {shards['pruned']} pruned"
        )


def replication() -> None:
    """Replication: 3 full copies, retry / failover / hedging knobs.

    Every replica is wrapped in a deterministic :class:`FaultInjector`: one
    drops 30 % of requests (absorbed by same-replica retries), one is a
    straggler with 40 ms latency spikes, and the policy hedges a backup
    request once the primary is slower than 5 ms — the first winner answers,
    so a spike costs the hedge delay instead of the spike.  Results are
    always bag-identical to a fault-free run; ``summary()["replicas"]``
    reports what the recovery layers actually did.
    """
    est = Estocada(parallelism=4)

    def replica_factory(name: str):
        index = int(name.rsplit(".", 1)[1])
        inner = RelationalStore(name, latency=0.002)
        if index == 0:
            # The preferred copy has gone spiky: 40 ms pauses on 60% of requests.
            return FaultInjector(inner, FaultProfile(seed=7, slow_rate=0.6, slow_seconds=0.04))
        if index == 1:
            # A flaky network path: ~30% of requests are dropped.
            return FaultInjector(inner, FaultProfile(seed=8, error_rate=0.3))
        return inner

    est.register_replicated_store(
        "reppg", 3, replica_factory,
        policy=ReplicationPolicy(
            max_retries=2,              # transient errors retried on the same replica
            hedge=True,                 # fire a backup against stragglers ...
            hedge_delay_seconds=0.005,  # ... once the primary is 5 ms overdue
            prefer_order=(0, 1, 2),     # "read-local": pin the preferred copy
        ),
    )
    est.register_relational_dataset(
        "app", [TableSchema("events", ("uid", "action", "ms"))]
    )
    view = ViewDefinition(
        "F_events",
        ConjunctiveQuery("F_events", ["?u", "?a", "?m"], [Atom("events", ["?u", "?a", "?m"])]),
        column_names=("uid", "action", "ms"),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_events", "app", "reppg", view, StorageLayout("events"), AccessMethod("scan"),
        ),
        rows=[{"uid": i % 100, "action": f"a{i % 5}", "ms": i} for i in range(1000)],
        indexes=("uid",),
    )
    print("== replication (3 full copies: one spiky, one flaky, one clean)")
    for _ in range(6):
        started = time.perf_counter()
        result = est.query("SELECT uid, action FROM events WHERE uid = 17", dataset="app")
        elapsed = time.perf_counter() - started
        activity = result.summary()["replicas"]
        print(
            f"   {elapsed * 1e3:6.1f} ms, {len(result.rows)} rows — "
            f"attempts {activity['attempts']}, retries {activity['retries']}, "
            f"hedges {activity['hedges']}, failovers {activity['failovers']}"
        )
    health = est.replication_configuration()["reppg"]["health"]
    for entry in health:
        latency = entry["ewma_latency_seconds"]
        print(
            f"   {entry['replica']}: healthy={entry['healthy']}, "
            f"ewma={'-' if latency is None else f'{latency * 1e3:.1f} ms'}, "
            f"hedge wins={entry['hedges_won']}"
        )




def multi_tenant_service() -> None:
    from repro.errors import OverloadedError
    from repro.service import QueryService, TenantPolicy

    est = Estocada()
    est.register_store("pg", RelationalStore("pg", latency=0.01))
    est.register_relational_dataset(
        "app", [TableSchema("events", ("uid", "action", "ms"))]
    )
    view = ViewDefinition(
        "F_events",
        ConjunctiveQuery("F_events", ["?u", "?a", "?m"], [Atom("events", ["?u", "?a", "?m"])]),
        column_names=("uid", "action", "ms"),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_events", "app", "pg", view, StorageLayout("events"), AccessMethod("scan"),
        ),
        rows=[{"uid": i % 100, "action": f"a{i % 5}", "ms": i} for i in range(1000)],
        indexes=("uid",),
    )

    print("== multi-tenant service (two tenants, one facade, 10 ms store latency)")
    service = QueryService(est, workers=2, default_policy=None)
    # An interactive tenant: small queue, tight per-query deadline, first in
    # line when both tenants have queries waiting.
    service.register_tenant(
        "web", TenantPolicy(max_concurrent=2, queue_depth=4, priority=0,
                            default_deadline_seconds=0.25),
    )
    # A batch tenant: rate-limited to 50 qps and dispatched after web.
    service.register_tenant(
        "reports", TenantPolicy(max_concurrent=1, queue_depth=8, priority=5,
                                rate_qps=50.0),
    )

    point = "SELECT uid, action FROM events WHERE uid = 17"
    scan = "SELECT uid, action, ms FROM events"
    tickets = [service.submit(scan, dataset="app", tenant="reports")]
    for _ in range(12):
        try:
            tickets.append(service.submit(point, dataset="app", tenant="web"))
        except OverloadedError:
            pass  # fast-rejected before any planning work: .reason says why
    for ticket in tickets:
        try:
            ticket.result(timeout=10)
        except Exception:
            pass
    summary = service.summary()
    for name in ("web", "reports"):
        tenant = summary["tenants"][name]
        print(
            f"   {name}: completed {tenant['completed']}, "
            f"shed {tenant['shed_queue_full'] + tenant['shed_rate_limited']}, "
            f"queue {tenant['queue_seconds'] * 1e3:.1f} ms vs engine {tenant['engine_seconds'] * 1e3:.1f} ms"
        )
    hits = summary["plan_cache"]["namespaces"]["web"]["hits"]
    print(f"   web plan-cache namespace: {hits} hits (isolated from reports' churn)")
    service.close()


def durability() -> None:
    """Durability: WAL + columnar segments behind every store.

    ``Estocada(durable_path=dir)`` (or ``REPRO_DURABLE=/abs/dir``) attaches a
    :class:`repro.stores.segment.DurableBacking` to each store as it is
    registered: every write is acknowledged only after an fsync'd
    write-ahead-log append, and full collections freeze into immutable
    columnar segment files carrying per-column min/max **zone maps** and
    dictionaries for low-cardinality string columns.  A fresh mediator
    pointed at the same directory recovers the data by replaying the
    manifest + WAL — here the second facade answers from disk without
    re-registering any rows.  Scans are served from the segments: the
    range predicate below excludes most segments by zone map alone, and
    ``result.summary()["segments"]`` counts what was skipped.
    ``est.compact()`` folds the WAL and tombstones into a new segment
    generation.
    """
    import shutil
    import tempfile

    directory = tempfile.mkdtemp(prefix="repro-quickstart-durable-")
    try:
        view = ViewDefinition(
            "F_events",
            ConjunctiveQuery("F_events", ["?u", "?a", "?m"], [Atom("events", ["?u", "?a", "?m"])]),
            column_names=("uid", "action", "ms"),
        )

        est = Estocada(durable_path=directory)
        est.register_store("pg", RelationalStore("pg"))
        est.register_relational_dataset(
            "app", [TableSchema("events", ("uid", "action", "ms"))]
        )
        est.register_fragment(
            StorageDescriptor(
                "F_events", "app", "pg", view, StorageLayout("events"), AccessMethod("scan"),
            ),
            rows=[{"uid": i % 100, "action": f"a{i % 5}", "ms": i} for i in range(20_000)],
        )
        print("== durability (WAL + columnar segments, zone-map pruned scans)")
        result = est.query(
            "SELECT uid, action, ms FROM events WHERE ms >= 19800", dataset="app"
        )
        segments = result.summary()["segments"]
        print(
            f"   1% range scan: {len(result.rows)} rows — segments "
            f"{segments['scanned']} scanned / {segments['skipped']} skipped, "
            f"{segments['rows_decoded']} rows decoded"
        )

        # A fresh mediator on the same directory recovers from disk alone:
        # register the same topology, but hand register_fragment no rows.
        recovered = Estocada(durable_path=directory)
        recovered.register_store("pg", RelationalStore("pg"))
        recovered.register_relational_dataset(
            "app", [TableSchema("events", ("uid", "action", "ms"))]
        )
        recovered.register_fragment(
            StorageDescriptor(
                "F_events", "app", "pg", view, StorageLayout("events"), AccessMethod("scan"),
            ),
        )
        result = recovered.query(
            "SELECT uid, action, ms FROM events WHERE ms >= 19800", dataset="app"
        )
        print(f"   recovered mediator answers from disk: {len(result.rows)} rows")
        reports = recovered.compact()
        print(f"   compacted to generation {reports['pg']['generation']}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
