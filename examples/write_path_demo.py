"""Write-path demo: DML interleaved with fragment-served reads.

A ``users`` / ``orders`` dataset backs three materialized fragments — the
two relations stored as-such plus a users ⋈ orders join view.  The demo
declares the relations writable, then interleaves inserts, updates and
deletes with SQL reads:

* under the default **eager** policy every affected fragment (including the
  join view) is maintained incrementally inside the write call, so the next
  read simply sees the new state;
* under the **deferred** policy writes only log view deltas — the demo shows
  the per-fragment staleness counters rising, a bounded read
  (``max_staleness=0``) forcing maintenance, and an explicit ``maintain()``
  draining the backlog.

Run with:  python examples/write_path_demo.py
"""

from repro import Estocada
from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.stores import RelationalStore


def view(name, head, body, columns):
    return ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)


def show(est, label, sql):
    rows = est.query(sql, dataset="app").rows
    print(f"  {label}: {sorted(tuple(sorted(r.items())) for r in rows)}")


def main() -> None:
    est = Estocada()
    est.register_store("pg", RelationalStore("pg"))
    est.register_relational_dataset(
        "app",
        [
            TableSchema("users", ("uid", "name", "city")),
            TableSchema("orders", ("uid", "sku", "qty")),
        ],
    )

    users = [
        {"uid": 1, "name": "ana", "city": "paris"},
        {"uid": 2, "name": "bob", "city": "lyon"},
    ]
    orders = [
        {"uid": 1, "sku": "book", "qty": 2},
        {"uid": 2, "sku": "lamp", "qty": 1},
    ]

    # Declare the base relations writable (the engine shadows them), then
    # register the fragments; each is materialized from the shadow and
    # watched for incremental maintenance.
    est.load_relation("users", users, dataset="app")
    est.load_relation("orders", orders, dataset="app")
    est.register_fragment(
        StorageDescriptor(
            "F_users", "app", "pg",
            view("F_users", ["?u", "?n", "?c"], [Atom("users", ["?u", "?n", "?c"])],
                 ("uid", "name", "city")),
            StorageLayout("users"), AccessMethod("scan"),
        ),
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_orders", "app", "pg",
            view("F_orders", ["?u", "?s", "?q"], [Atom("orders", ["?u", "?s", "?q"])],
                 ("uid", "sku", "qty")),
            StorageLayout("orders"), AccessMethod("scan"),
        ),
        indexes=("uid",),
    )
    est.register_fragment(
        StorageDescriptor(
            "F_user_orders", "app", "pg",
            view("F_user_orders", ["?u", "?n", "?s", "?q"],
                 [Atom("users", ["?u", "?n", "?c"]), Atom("orders", ["?u", "?s", "?q"])],
                 ("uid", "name", "sku", "qty")),
            StorageLayout("user_orders"), AccessMethod("scan"),
        ),
        indexes=("uid",),
    )

    print("== eager policy: writes maintain affected fragments in-line ==")
    show(est, "join before", "SELECT u.name, o.sku, o.qty FROM users u, orders o WHERE u.uid = o.uid")
    est.insert("orders", {"uid": 1, "sku": "pen", "qty": 3})
    est.update(
        "orders",
        {"uid": 2, "sku": "lamp", "qty": 1},
        {"uid": 2, "sku": "lamp", "qty": 5},
    )
    show(est, "join after ", "SELECT u.name, o.sku, o.qty FROM users u, orders o WHERE u.uid = o.uid")
    print(f"  staleness: {dict(est.staleness())}  (eager writes leave nothing pending)")

    print("\n== deferred policy: deltas queue, reads choose their bound ==")
    est.set_write_policy("deferred")
    est.insert("orders", {"uid": 1, "sku": "mug", "qty": 1})
    est.delete("orders", {"uid": 2, "sku": "lamp", "qty": 5})
    for fragment in ("F_orders", "F_user_orders", "F_users"):
        print(f"  {fragment}: {est.staleness(fragment).describe()}")

    # An unbounded read may serve the (detectably) stale fragment; a
    # max_staleness=0 read forces maintenance first.
    rows = est.query(
        "SELECT sku, qty FROM orders WHERE uid = 1", dataset="app", max_staleness=0
    ).rows
    print(f"  bounded read (max_staleness=0): {sorted((r['sku'], r['qty']) for r in rows)}")
    print(f"  F_orders after bounded read: {est.staleness('F_orders').describe()}")

    written = est.maintain()
    print(f"  maintain() drained the rest: {written} store rows written")
    show(est, "join final ", "SELECT u.name, o.sku, o.qty FROM users u, orders o WHERE u.uid = o.uid")
    print(f"  write-path state: {est.describe_writes()['writes']} writes logged")


if __name__ == "__main__":
    main()
