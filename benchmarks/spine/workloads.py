"""The five spine workloads: seeded data, deployments, statements and oracles.

Every workload builds its deployment from the public ``repro`` API with
``latency=0`` everywhere, and produces *passes*: one statement of each of
its classes in a fixed order.  The expected answer of every read is computed
here, in plain Python, from the generated rows — never by the program.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from collections import Counter, defaultdict, namedtuple
from functools import partial

from repro import Estocada, QueryService, TenantPolicy
from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.stores import DocumentStore, KeyValueStore, RelationalStore

# One statement of a pass.  ``run()`` issues it; ``expected`` is the oracle's
# bag of ``columns`` tuples and ``count`` its size; a write has no bag and
# counts the base rows it writes.
Stmt = namedtuple("Stmt", "cls run columns expected count")

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")

FULL = {"users": 2_000, "events": 30_000, "orders": 30_000, "hot_keys": 32,
        "relations": 1_000, "relation_keys": 25, "settle_passes": 800}
SMOKE = {"users": 100, "events": 600, "orders": 600, "hot_keys": 4,
         "relations": 30, "relation_keys": 5, "settle_passes": 0}

KINDS = 4
VALUES = 100
APP_TABLES = (
    TableSchema("users", ("uid", "name", "city"), primary_key=("uid",)),
    TableSchema("events", ("uid", "kind", "val", "ts")),
    TableSchema("orders", ("oid", "uid", "sku", "qty"), primary_key=("oid",)),
)


DURABLE_METRICS = ("segment.compact_s", "segment.compact_bytes_rewritten",
                   "segment.disk_bytes_before_compact", "segment.recover_rows_per_s",
                   "recover_s", "disk_bytes_per_user_byte")
REOPENS = 3


def app_data(seed: int, sizes: dict) -> dict[str, list[dict]]:
    """Dataset ``app``: ``events.ts`` is monotonic, everything else seeded."""
    rng = random.Random(seed)
    users = sizes["users"]
    return {
        "users": [
            {"uid": uid, "name": f"user{uid}", "city": f"city{rng.randrange(50)}"}
            for uid in range(users)
        ],
        "events": [
            {"uid": rng.randrange(users), "kind": f"k{rng.randrange(KINDS)}",
             "val": rng.randrange(VALUES), "ts": ts}
            for ts in range(sizes["events"])
        ],
        "orders": [
            {"oid": oid, "uid": rng.randrange(users), "sku": f"s{rng.randrange(500)}",
             "qty": rng.randrange(1, 10)}
            for oid in range(sizes["orders"])
        ],
    }


def fragment(name, dataset, store, head, body, columns, collection, access=AccessMethod("scan")):
    view = ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)
    return StorageDescriptor(name, dataset, store, view, StorageLayout(collection), access)


def identity_fragment(table: TableSchema, dataset: str, store: str) -> StorageDescriptor:
    """The table stored as such: ``F_<table>`` over all its columns."""
    variables = [f"?{column}" for column in table.columns]
    return fragment(f"F_{table.name}", dataset, store, variables,
                    [Atom(table.name, variables)], table.columns, table.name)


def bag(rows, columns) -> Counter:
    return Counter(tuple(row.get(column) for column in columns) for row in rows)


class Workload:
    """Base: a deployment (:meth:`build`), an oracle (:meth:`prepare`), passes."""

    name = ""
    classes: tuple[str, ...] = ()
    clients = 1
    dataset = "app"
    settle_passes = 0  # untimed passes before the run, to reach a steady state
    one_cpu = False  # whether the run is pinned to one CPU

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.sizes = SMOKE if smoke else FULL
        self.est: Estocada | None = None
        self.stores: dict[str, object] = {}
        # Filled by build(): what the catalog layer did during set-up.
        self.fragments_registered = 0
        self.register_seconds = 0.0
        self.rows_loaded = 0

    # -- set-up (timed as setup_s) -------------------------------------------------------
    def build(self) -> None:
        """Generate the data, deploy it, load it and warm it up."""
        raise NotImplementedError

    def _facade(self, **options) -> Estocada:
        self.close()
        self.fragments_registered = self.rows_loaded = 0
        self.register_seconds = 0.0
        self.est = Estocada(parallelism=1, **options)
        return self.est

    def _store(self, name: str, store) -> None:
        self.est.register_store(name, store)
        self.stores[name] = store

    def _register(self, descriptor, rows=None, indexes=()) -> None:
        started = time.perf_counter()
        self.est.register_fragment(descriptor, rows=rows, indexes=indexes)
        self.register_seconds += time.perf_counter() - started
        self.fragments_registered += 1
        self.rows_loaded += len(rows or ())

    def close(self) -> None:
        self.est = None
        self.stores = {}

    # -- the instrument's side -----------------------------------------------------------
    def prepare(self) -> None:
        """Compute the oracle and the statement lists (after the last build)."""
        raise NotImplementedError

    def statements(self, index: int, client: int = 0):
        """The statements of pass ``index`` for ``client``, in class order."""
        raise NotImplementedError

    def issue(self, sql: str):
        return self.est.query(sql, dataset=self.dataset)

    def read(self, cls: str, sql: str, columns, rows) -> Stmt:
        expected = bag(rows, columns)
        return Stmt(cls, partial(self.issue, sql), columns, expected, sum(expected.values()))

    def final_check(self) -> bool:
        """A whole-state check after the timed run (writes only)."""
        return True

    def progress(self) -> dict[str, int]:
        """Running byte totals, read before and after the traced rounds."""
        return {"wal_bytes": 0, "user_bytes": 0}

    def durable_phases(self) -> dict[str, float]:
        """Compaction and recovery, run once after the rounds (durable only)."""
        return dict.fromkeys(DURABLE_METRICS, 0.0)


class AppWorkload(Workload):
    """Dataset ``app`` over three in-memory stores, every table stored as such."""

    def build(self) -> None:
        self.data = data = app_data(self.seed, self.sizes)
        est = self._facade()
        self._store("pg", RelationalStore("pg"))
        self._store("redis", KeyValueStore("redis"))
        self._store("mongo", DocumentStore("mongo"))
        est.register_relational_dataset("app", APP_TABLES)
        users, events, orders = APP_TABLES
        self._register(identity_fragment(users, "app", "pg"), data["users"], ("uid",))
        self._register(identity_fragment(events, "app", "pg"), data["events"], ("uid",))
        self._register(
            fragment("F_users_kv", "app", "redis", ["?u", "?n"],
                     [Atom("users", ["?u", "?n", "?c"])], ("uid", "name"), "users_kv",
                     AccessMethod("lookup", key_columns=("uid",))),
            [{"uid": row["uid"], "name": row["name"]} for row in data["users"]],
        )
        self._register(identity_fragment(orders, "app", "mongo"), data["orders"], ("oid", "uid"))
        self.warm()

    def warm(self) -> None:
        """Run every statement once, so plans are cached before timing."""
        raise NotImplementedError


class PointLookup(AppWorkload):
    """Three warm, cached point statements, one per store kind."""

    name = "point_lookup"
    classes = ("point_rel", "point_kv", "point_doc")

    def keys(self):
        """``hot_keys`` (event uid, user uid, order oid) triples from the seed."""
        rng = random.Random(self.seed + 1)
        hot = self.sizes["hot_keys"]
        return list(zip(rng.sample(range(self.sizes["users"]), hot),
                        rng.sample(range(self.sizes["users"]), hot),
                        rng.sample(range(self.sizes["orders"]), hot)))

    def sql(self):
        for uid, user, oid in self.keys():
            yield (f"SELECT kind, val, ts FROM events WHERE uid = {uid}",
                   f"SELECT name FROM users WHERE uid = {user}",
                   f"SELECT uid, sku, qty FROM orders WHERE oid = {oid}")

    def warm(self) -> None:
        for statements in self.sql():
            for sql in statements:
                self.issue(sql)

    def prepare(self) -> None:
        by_uid = defaultdict(list)
        for row in self.data["events"]:
            by_uid[row["uid"]].append(row)
        passes = [
            (self.read("point_rel", rel, ("kind", "val", "ts"), by_uid[uid]),
             self.read("point_kv", kv, ("name",), [self.data["users"][user]]),
             self.read("point_doc", doc, ("uid", "sku", "qty"), [self.data["orders"][oid]]))
            for (uid, user, oid), (rel, kv, doc) in zip(self.keys(), self.sql())
        ]
        # Clients get disjoint statements, so concurrent requests never share
        # a query object (the tracer tells requests apart by it).
        self.passes = [passes[client::self.clients] for client in range(self.clients)]

    def statements(self, index: int, client: int = 0):
        mine = self.passes[client]
        return mine[index % len(mine)]


class ServiceClosed(PointLookup):
    """The point_lookup pass through ``QueryService`` from two client threads."""

    name = "service_closed"
    clients = 2
    tenant = "bench"
    # The two clients and two workers all take turns on the interpreter lock.
    # Free to roam over 2 CPUs they deliver 740-870 passes/s at a p50 of
    # 2.2-2.6 ms that moves 13-18% between runs; on one CPU 1,300-1,380
    # passes/s at 1.43-1.49 ms, steady.  The gated numbers are therefore taken
    # on one CPU, the way a lock-bound service is deployed (a process per
    # core); the roaming rate stays visible as service.ops_per_s_unpinned.
    one_cpu = True
    service: QueryService | None = None

    def warm(self) -> None:
        self.service = QueryService(self.est, workers=2, default_policy=None)
        self.service.register_tenant(self.tenant, TenantPolicy(max_concurrent=2, queue_depth=64))
        super().warm()

    def issue(self, sql: str):
        return self.service.execute(sql, dataset=self.dataset, tenant=self.tenant)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        super().close()


class ScanAnalytics(AppWorkload):
    """Five scan-bound shapes over the in-memory stores; no join view exists."""

    name = "scan_analytics"
    classes = ("sel_scan", "range_scan", "full_project", "xstore_join", "group_agg")

    SQL = {
        "sel_scan": "SELECT uid, ts FROM events WHERE kind = 'k3' AND val = 7",
        # `val` is selected because the program drops a filter column that is
        # not in the select list before filtering (found while building this).
        "range_scan": "SELECT uid, val, ts FROM events WHERE val > 93",
        "full_project": "SELECT uid, val FROM events",
        # u.city keeps the key-value copy of users (uid, name) out of the plan.
        "xstore_join": "SELECT u.city, o.sku, o.qty FROM users u, orders o WHERE u.uid = o.uid",
        "group_agg": "SELECT kind, COUNT(*) AS n, SUM(val) AS total FROM events GROUP BY kind",
    }

    def warm(self) -> None:
        for sql in self.SQL.values():
            self.issue(sql)

    def prepare(self) -> None:
        events, users, orders = self.data["events"], self.data["users"], self.data["orders"]
        groups: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for row in events:
            groups[row["kind"]][0] += 1
            groups[row["kind"]][1] += row["val"]
        answers = {
            "sel_scan": (("uid", "ts"),
                         [r for r in events if r["kind"] == "k3" and r["val"] == 7]),
            "range_scan": (("uid", "val", "ts"), [r for r in events if r["val"] > 93]),
            "full_project": (("uid", "val"), events),
            "xstore_join": (("city", "sku", "qty"),
                            [{"city": users[o["uid"]]["city"], "sku": o["sku"], "qty": o["qty"]}
                             for o in orders]),
            "group_agg": (("kind", "n", "total"),
                          [{"kind": kind, "n": n, "total": total}
                           for kind, (n, total) in groups.items()]),
        }
        self.single_pass = tuple(
            self.read(cls, self.SQL[cls], *answers[cls]) for cls in self.classes
        )

    def statements(self, index: int, client: int = 0):
        return self.single_pass


class ColdPlan(Workload):
    """Never-repeated 1-, 2- and 3-relation chain joins over a wide catalog."""

    name = "cold_plan"
    classes = ("chain1", "chain2", "chain3")
    dataset = "wide"
    WARM_PASSES = 3
    # The rewriting memos are LRU-bounded and a pass gets ~10% dearer while
    # they fill (measured: 6.5 -> 7.4 ms over the first ~700 passes), so the
    # run starts once they are full.  Not set-up: it is the workload itself.
    @property
    def settle_passes(self) -> int:
        return self.sizes["settle_passes"]

    def build(self) -> None:
        rng = random.Random(self.seed)
        count, keys = self.sizes["relations"], self.sizes["relation_keys"]
        # Every key value appears twice per relation, so result sizes (2, 4, 8
        # rows) do not depend on the seed; only the join partners do.
        self.relations = [
            [{"a": position % keys, "b": rng.randrange(keys)} for position in range(2 * keys)]
            for _ in range(count)
        ]
        self.order = list(range(count))
        rng.shuffle(self.order)
        tables = [TableSchema(f"r{i}", ("a", "b")) for i in range(count)]
        est = self._facade()
        self._store("pg", RelationalStore("pg"))
        est.register_relational_dataset("wide", tables)
        for table, rows in zip(tables, self.relations):
            self._register(identity_fragment(table, "wide", "pg"), rows, ("a",))
        for index in range(self.WARM_PASSES):
            for sql in self.sql(index):
                self.issue(sql)

    def chain(self, index: int):
        """Pass ``index``: three relations and a constant, distinct per pass."""
        count = len(self.order)
        relations = [self.order[(index + step) % count] for step in range(3)]
        return relations, (index // count) % self.sizes["relation_keys"]

    def sql(self, index: int):
        (i, j, k), constant = self.chain(index)
        return (
            f"SELECT t0.b FROM r{i} t0 WHERE t0.a = {constant}",
            f"SELECT t1.b FROM r{i} t0, r{j} t1 WHERE t0.a = {constant} AND t0.b = t1.a",
            f"SELECT t2.b FROM r{i} t0, r{j} t1, r{k} t2"
            f" WHERE t0.a = {constant} AND t0.b = t1.a AND t1.b = t2.a",
        )

    def prepare(self) -> None:
        self.successors = []
        for rows in self.relations:
            by_key = defaultdict(list)
            for row in rows:
                by_key[row["a"]].append(row["b"])
            self.successors.append(by_key)

    def statements(self, index: int, client: int = 0):
        index += self.WARM_PASSES  # the warm-up used the first statements
        relations, constant = self.chain(index)
        reached = [constant]
        for cls, sql, relation in zip(self.classes, self.sql(index), relations):
            reached = [b for a in reached for b in self.successors[relation][a]]
            yield self.read(cls, sql, ("b",), [{"b": b} for b in reached])


class WriteDurable(Workload):
    """Small writes beside reads on a durable facade with a maintained join view."""

    name = "write_durable"
    classes = ("insert", "update", "delete", "read_point", "read_range")
    BATCH = 5  # rows per insert statement
    RANGE_ROWS = 300  # the range read covers the newest 1% of events

    EVENTS, USERS = APP_TABLES[1], APP_TABLES[0]
    JOIN = ("F_user_events", "app", "pg", ["?u", "?n", "?k", "?t"],
            [Atom("users", ["?u", "?n", "?c"]), Atom("events", ["?u", "?k", "?v", "?t"])],
            ("uid", "name", "kind", "ts"), "user_events")

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.directory: str | None = None
        self.recovered = True
        self.range_rows = min(self.RANGE_ROWS, self.sizes["events"] // 4)

    def build(self) -> None:
        self.data = data = app_data(self.seed, self.sizes)
        os.makedirs(WORK_DIR, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="durable-", dir=WORK_DIR)
        est = self._facade(durable_path=directory)
        self.directory = directory
        self._deploy(est)
        self.issue(self._point_sql(0))
        self.issue(self._range_sql(self.sizes["events"] - self.range_rows))

    def _deploy(self, est: Estocada) -> None:
        """Eager policy (the default); base relations shadowed before the views."""
        est.register_relational_dataset("app", (self.USERS, self.EVENTS))
        est.load_relation("users", self.data["users"], dataset="app")
        est.load_relation("events", self.data["events"], dataset="app")
        self.rows_loaded = 2 * len(self.data["events"])  # one row per event in each fragment
        self._register(identity_fragment(self.EVENTS, "app", "pg"), indexes=("uid",))
        self._register(fragment(*self.JOIN), indexes=("uid",))

    def _facade(self, **options) -> Estocada:
        est = super()._facade(**options)
        self._store("pg", RelationalStore("pg"))
        return est

    def close(self) -> None:
        super().close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    @staticmethod
    def _point_sql(uid: int) -> str:
        return f"SELECT kind, val, ts FROM events WHERE uid = {uid}"

    @staticmethod
    def _range_sql(threshold: int) -> str:
        return f"SELECT uid, val, ts FROM events WHERE ts >= {threshold}"

    # -- the oracle: a plain mirror of ``events`` ------------------------------------------
    def prepare(self) -> None:
        rng = random.Random(self.seed + 2)
        self.hot = rng.sample(range(self.sizes["users"]), self.sizes["hot_keys"])
        self.rng = rng
        self.by_uid: dict[int, list[dict]] = defaultdict(list)
        self.by_ts: dict[int, dict] = {}
        for row in self.data["events"]:
            self._mirror_insert(dict(row))
        # Live events are exactly ts in [oldest_ts, next_ts): every pass appends
        # 30 and retires the 30 oldest, so the table keeps its size and a pass
        # costs the same at the end of a run as at its start.  (The program
        # finds a row to delete by scanning from the front of the heap, so
        # retiring the *newest* rows instead costs ~7 ms per row.)
        self.oldest_ts, self.next_ts = 0, self.sizes["events"]
        self.current: list[dict] = []  # what this pass inserted so far
        self.user_bytes_written = 0

    def _mirror_insert(self, row: dict) -> None:
        self.by_uid[row["uid"]].append(row)
        self.by_ts[row["ts"]] = row

    def _mirror_delete(self, row: dict) -> None:
        self.by_uid[row["uid"]].remove(row)
        del self.by_ts[row["ts"]]

    def _write(self, cls: str, call, *row_lists) -> Stmt:
        self.user_bytes_written += sum(len(json.dumps(rows)) for rows in row_lists)
        return Stmt(cls, call, None, None, sum(len(rows) for rows in row_lists))

    def _insert(self):
        """One burst of BATCH events of one hot user."""
        uid = self.rng.choice(self.hot)
        rows = [{"uid": uid, "kind": f"k{self.rng.randrange(KINDS)}",
                 "val": self.rng.randrange(VALUES), "ts": self.next_ts + offset}
                for offset in range(self.BATCH)]
        self.next_ts += self.BATCH
        # The facade gets copies: the mirror must not alias what the program holds.
        yield self._write("insert", partial(self.est.insert, "events", [dict(r) for r in rows]), rows)
        for row in rows:
            self._mirror_insert(row)
        self.current.extend(rows)

    def _update(self, row: dict):
        after = dict(row, val=row["val"] + VALUES)
        yield self._write("update", partial(self.est.update, "events", dict(row), dict(after)),
                          [row], [after])
        self._mirror_delete(row)
        self._mirror_insert(after)
        self.current[self.current.index(row)] = after

    def _read_point(self, uid: int) -> Stmt:
        return self.read("read_point", self._point_sql(uid), ("kind", "val", "ts"),
                         self.by_uid[uid])

    def statements(self, index: int, client: int = 0):
        """6 inserts, 2 updates, 2 read-your-write point reads, 1 delete, 1 range read."""
        batch = self.BATCH
        yield from self._insert()
        yield from self._insert()
        yield self._read_point(self.current[0]["uid"])  # reads the first insert back
        yield from self._insert()
        yield from self._update(self.current[batch])
        yield from self._insert()
        yield self._read_point(self.current[batch]["uid"])  # sees the update
        yield from self._insert()
        yield from self._update(self.current[2 * batch])
        yield from self._insert()
        retired = self.oldest_ts + len(self.current)
        doomed = [self.by_ts[ts] for ts in range(self.oldest_ts, retired)]
        self.oldest_ts, self.current = retired, []
        yield self._write("delete", partial(self.est.delete, "events", [dict(r) for r in doomed]),
                          doomed)
        for row in doomed:
            self._mirror_delete(row)
        threshold = self.next_ts - self.range_rows
        yield self.read("read_range", self._range_sql(threshold), ("uid", "val", "ts"),
                        [self.by_ts[ts] for ts in range(threshold, self.next_ts)])

    # -- whole-state checks and the durable phases ------------------------------------------
    def live_events(self) -> list[dict]:
        return list(self.by_ts.values())

    def progress(self) -> dict[str, int]:
        return {"wal_bytes": self._bytes("wal-"), "user_bytes": self.user_bytes_written}

    def durable_phases(self) -> dict[str, float]:
        before = self._bytes()
        started = time.perf_counter()
        self.est.compact()
        compact_seconds = time.perf_counter() - started
        reopened = [self.recover() for _ in range(REOPENS)]
        self.recovered = all(correct for _, _, correct in reopened)
        seconds, rows, _ = min(reopened)
        return dict(zip(DURABLE_METRICS, (
            compact_seconds, self._bytes("seg-"), before, rows / seconds, seconds,
            self._bytes() / len(json.dumps(self.live_events())))))

    def final_check(self) -> bool:
        """Both fragments equal what the oracle derives from its mirror."""
        if not self.recovered:
            return False
        events = self.live_events()
        names = {row["uid"]: row["name"] for row in self.data["users"]}
        joined = [dict(row, name=names[row["uid"]]) for row in events]
        return self._events_match(self.est, events) and bag(
            self.est.query("SELECT u.name, e.kind, e.ts FROM users u, events e"
                           " WHERE u.uid = e.uid", dataset="app").rows,
            ("name", "kind", "ts")) == bag(joined, ("name", "kind", "ts"))

    @staticmethod
    def _events_match(est: Estocada, events: list[dict]) -> bool:
        columns = ("uid", "kind", "val", "ts")
        rows = est.query("SELECT uid, kind, val, ts FROM events", dataset="app").rows
        return bag(rows, columns) == bag(events, columns)

    def _bytes(self, prefix: str = "") -> int:
        """Bytes under the durable directory, of files whose name has ``prefix``."""
        return sum(os.path.getsize(os.path.join(folder, name))
                   for folder, _, names in os.walk(self.directory) for name in names
                   if name.startswith(prefix))

    def recover(self) -> tuple[float, int, bool]:
        """Re-open the directory: (seconds to recover, rows recovered, correct)."""
        started = time.perf_counter()
        est = Estocada(parallelism=1, durable_path=self.directory)
        store = RelationalStore("pg")
        est.register_store("pg", store)
        seconds = time.perf_counter() - started
        rows = sum(store.collection_size(name) for name in store.collections())
        est.register_relational_dataset("app", (self.USERS, self.EVENTS))
        est.register_fragment(identity_fragment(self.EVENTS, "app", "pg"))
        return seconds, rows, self._events_match(est, self.live_events())


WORKLOADS = {cls.name: cls for cls in
             (PointLookup, ScanAnalytics, ColdPlan, WriteDurable, ServiceClosed)}
