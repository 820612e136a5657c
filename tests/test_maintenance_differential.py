"""The oracle-vs-incremental differential harness (the write-path oracle).

``TestMaintenanceDifferential`` replays hypothesis-generated programs of
interleaved inserts, deletes, updates, reads and maintenance calls against a
live deployment whose fragments are maintained *incrementally* (delta rules),
and checks every read — and the final fragment contents — bag-for-bag against
a pure-Python oracle that recomputes from the op log from scratch.  The same
programs run over four deployment shapes:

* **serial** — every fragment in one relational store;
* **sharded** — the written relation hash-sharded over 8 instances;
* **replicated** — the written relation fanned to 3 full-copy replicas;
* **chaos** — replicas behind seeded fault injectors that crash mid-write
  and maintenance cancelled mid-delta: fragments must end fully maintained
  or *detectably stale* (pending deltas, typed errors), never silently wrong.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.errors import MaintenanceCancelledError, PartialWriteError
from repro.stores import RelationalStore
from repro.testing import FaultInjector, FaultProfile

USERS_SEED = [
    {"uid": 0, "name": "n0", "city": "paris"},
    {"uid": 1, "name": "n1", "city": "lyon"},
    {"uid": 2, "name": "n2", "city": "paris"},
]
ORDERS_SEED = [
    {"uid": 0, "sku": "a", "qty": 2},
    {"uid": 1, "sku": "b", "qty": 1},
    {"uid": 2, "sku": "a", "qty": 3},
    {"uid": 2, "sku": "a", "qty": 3},  # duplicate row: bag semantics matter
]

_COLUMNS = {"users": ("uid", "name", "city"), "orders": ("uid", "sku", "qty")}


def _view(name, head, body, columns):
    return ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)


def build_deployment(kind: str):
    """A small writable deployment of the requested shape, plus its injectors.

    ``users`` always lives in a plain relational store; ``orders`` (the
    relation the generated programs hammer) lives in a store of the given
    kind.  Returns ``(est, injectors)`` where ``injectors`` maps replica
    index → :class:`FaultInjector` (empty unless ``kind == "chaos"``).
    """
    est = Estocada()
    injectors: dict[int, FaultInjector] = {}
    est.register_store("pg", RelationalStore("pg"))
    sharding = None
    if kind == "serial":
        orders_store = "pg"
    elif kind == "sharded":
        est.register_sharded_store("spg", 8, lambda name: RelationalStore(name))
        orders_store = "spg"
        sharding = ShardingSpec("uid", 8)
    elif kind == "replicated":
        est.register_replicated_store("rpg", 3, lambda name: RelationalStore(name))
        orders_store = "rpg"
    elif kind == "chaos":

        def factory(name: str):
            index = int(name.rsplit(".", 1)[1])
            injector = FaultInjector(RelationalStore(name), FaultProfile.none(seed=index))
            injectors[index] = injector
            return injector

        est.register_replicated_store("rpg", 3, factory)
        orders_store = "rpg"
    else:  # pragma: no cover - defensive
        raise ValueError(kind)

    est.register_relational_dataset(
        "app",
        [
            TableSchema("users", _COLUMNS["users"]),
            TableSchema("orders", _COLUMNS["orders"]),
        ],
    )
    est.load_relation("users", USERS_SEED, dataset="app")
    est.load_relation("orders", ORDERS_SEED, dataset="app")
    est.register_fragment(
        StorageDescriptor(
            "F_users", "app", "pg",
            _view("F_users", ["?u", "?n", "?c"], [Atom("users", ["?u", "?n", "?c"])],
                  _COLUMNS["users"]),
            StorageLayout("users"), AccessMethod("scan"),
        ),
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_orders", "app", orders_store,
            _view("F_orders", ["?u", "?s", "?q"], [Atom("orders", ["?u", "?s", "?q"])],
                  _COLUMNS["orders"]),
            StorageLayout("orders"), AccessMethod("scan"),
            sharding=sharding,
        ),
        indexes=("uid",),
    )
    return est, injectors


# ---------------------------------------------------------------------------
# The recompute oracle: plain Python lists replayed from the same op log.
# ---------------------------------------------------------------------------


class RecomputeOracle:
    """Ground truth for the differential: recompute-from-scratch semantics."""

    def __init__(self) -> None:
        self.tables = {
            "users": [dict(row) for row in USERS_SEED],
            "orders": [dict(row) for row in ORDERS_SEED],
        }

    def insert(self, relation: str, row: dict) -> None:
        self.tables[relation].append(dict(row))

    def delete(self, relation: str, row: dict) -> None:
        self.tables[relation].remove(row)

    def update(self, relation: str, before: dict, after: dict) -> None:
        self.delete(relation, before)
        self.insert(relation, after)

    def bag(self, relation: str) -> Counter:
        columns = _COLUMNS[relation]
        return Counter(
            tuple(row[column] for column in columns) for row in self.tables[relation]
        )

    def join_bag(self) -> Counter:
        return Counter(
            (user["name"], order["sku"], order["qty"])
            for user in self.tables["users"]
            for order in self.tables["orders"]
            if user["uid"] == order["uid"]
        )


def _served_bag(est, relation: str, max_staleness=None) -> Counter:
    columns = _COLUMNS[relation]
    result = est.query(
        f"SELECT {', '.join(columns)} FROM {relation}",
        dataset="app",
        max_staleness=max_staleness,
    )
    return Counter(tuple(row[column] for column in columns) for row in result.rows)


def _served_join_bag(est, max_staleness=None) -> Counter:
    result = est.query(
        "SELECT u.name, o.sku, o.qty FROM users u, orders o WHERE u.uid = o.uid",
        dataset="app",
        max_staleness=max_staleness,
    )
    return Counter((row["name"], row["sku"], row["qty"]) for row in result.rows)


_user_rows = st.fixed_dictionaries(
    {
        "uid": st.integers(min_value=0, max_value=4),
        "name": st.sampled_from(["n0", "n1", "n2"]),
        "city": st.sampled_from(["paris", "lyon"]),
    }
)
_order_rows = st.fixed_dictionaries(
    {
        "uid": st.integers(min_value=0, max_value=4),
        "sku": st.sampled_from(["a", "b", "c"]),
        "qty": st.integers(min_value=1, max_value=3),
    }
)
_ROW_STRATEGIES = {"users": _user_rows, "orders": _order_rows}


class TestMaintenanceDifferential:
    """Any interleaving of reads and writes == recompute from scratch."""

    def _replay(self, kind: str, data) -> None:
        est, _ = build_deployment(kind)
        est.set_write_policy(data.draw(st.sampled_from(["eager", "deferred"])))
        oracle = RecomputeOracle()
        steps = data.draw(st.integers(min_value=4, max_value=10))
        for _ in range(steps):
            op = data.draw(
                st.sampled_from(
                    ["insert", "insert", "delete", "update", "maintain", "read"]
                )
            )
            relation = data.draw(st.sampled_from(["users", "orders"]))
            if op == "insert":
                row = data.draw(_ROW_STRATEGIES[relation])
                est.insert(relation, row)
                oracle.insert(relation, row)
            elif op == "delete":
                existing = oracle.tables[relation]
                if not existing:
                    continue
                row = dict(
                    existing[data.draw(st.integers(0, len(existing) - 1))]
                )
                est.delete(relation, row)
                oracle.delete(relation, row)
            elif op == "update":
                existing = oracle.tables[relation]
                if not existing:
                    continue
                before = dict(
                    existing[data.draw(st.integers(0, len(existing) - 1))]
                )
                after = data.draw(_ROW_STRATEGIES[relation])
                est.update(relation, before, after)
                oracle.update(relation, before, after)
            elif op == "maintain":
                est.maintain()
            else:  # read: a staleness-bounded read sees exactly the log
                assert _served_bag(est, relation, max_staleness=0) == oracle.bag(
                    relation
                )
        est.maintain()
        for relation in ("users", "orders"):
            assert _served_bag(est, relation) == oracle.bag(relation), relation
        assert _served_join_bag(est) == oracle.join_bag()
        # Nothing left pending: the backlog fully drained.
        assert est.staleness("F_users").fresh
        assert est.staleness("F_orders").fresh

    @given(data=st.data())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_serial_deployment(self, data):
        self._replay("serial", data)

    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sharded_deployment(self, data):
        self._replay("sharded", data)

    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_replicated_deployment(self, data):
        self._replay("replicated", data)


class TestChaosMaintenance:
    """Faults leave fragments fully maintained or detectably stale — never wrong."""

    def test_replica_crash_mid_write_fanout(self):
        est, injectors = build_deployment("chaos")
        oracle = RecomputeOracle()
        injectors[1].crash()
        row = {"uid": 3, "sku": "c", "qty": 2}
        with pytest.raises(PartialWriteError) as excinfo:
            est.insert("orders", row)
        assert excinfo.value.rolled_back
        assert "rpg.1" in excinfo.value.failed_children
        # The delta is queued, not lost: the fragment is detectably stale...
        staleness = est.staleness("F_orders")
        assert staleness.pending_deltas == 1
        # ...and unbounded reads serve the consistent *pre-write* state — no
        # replica ever exposes a half-applied fragment.
        assert _served_bag(est, "orders") == oracle.bag("orders")
        # Revive, maintain, and the differential holds with the write applied.
        injectors[1].revive()
        est.maintain()
        oracle.insert("orders", row)
        assert est.staleness("F_orders").fresh
        assert _served_bag(est, "orders") == oracle.bag("orders")
        # Every replica converged to the same bag.
        for injector in injectors.values():
            replica_bag = Counter(
                (r["uid"], r["sku"], r["qty"])
                for r in injector.fault_target.rows("orders")
            )
            assert replica_bag == oracle.bag("orders")

    def test_maintenance_cancelled_mid_delta(self):
        est, _ = build_deployment("serial")
        est.set_write_policy("deferred")
        oracle = RecomputeOracle()
        row = {"uid": 4, "sku": "b", "qty": 1}
        est.insert("orders", row)
        cancelled = threading.Event()
        cancelled.set()
        with pytest.raises(MaintenanceCancelledError):
            est.maintain("F_orders", cancel=cancelled)
        # Cancellation is clean: the delta is still queued and visible.
        assert est.staleness("F_orders").pending_deltas == 1
        assert _served_bag(est, "orders") == oracle.bag("orders")
        # A later uncancelled maintenance converges.
        est.maintain("F_orders")
        oracle.insert("orders", row)
        assert est.staleness("F_orders").fresh
        assert _served_bag(est, "orders") == oracle.bag("orders")

    def test_crash_during_deferred_backlog_keeps_earlier_entries_applied(self):
        est, injectors = build_deployment("chaos")
        est.set_write_policy("deferred")
        oracle = RecomputeOracle()
        first = {"uid": 3, "sku": "a", "qty": 1}
        second = {"uid": 4, "sku": "b", "qty": 2}
        est.insert("orders", first)
        est.insert("orders", second)
        assert est.staleness("F_orders").pending_deltas == 2
        est.maintain("F_orders")
        oracle.insert("orders", first)
        oracle.insert("orders", second)
        assert _served_bag(est, "orders") == oracle.bag("orders")
        # Now a write whose application crashes partway through the fan-out.
        third = {"uid": 0, "sku": "c", "qty": 3}
        est.insert("orders", third)
        injectors[2].crash()
        with pytest.raises(PartialWriteError):
            est.maintain("F_orders")
        staleness = est.staleness("F_orders")
        assert staleness.pending_deltas == 1
        assert _served_bag(est, "orders") == oracle.bag("orders")
        injectors[2].revive()
        est.maintain("F_orders")
        oracle.insert("orders", third)
        assert _served_bag(est, "orders") == oracle.bag("orders")
