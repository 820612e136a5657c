"""The paper's qualitative claims, each pinned by a deterministic count.

ESTOCADA's demo claims that key-value fragments speed up key lookups, that a
materialized join speeds up personalized search, that PACB beats the
classical Chase & Backchase by orders of magnitude, that cost-based choice
picks the cheaper rewriting, and that the distributed layer (partial
aggregation, hedging, admission control) does the work it is there for.
Every assertion here is a count the program keeps — rows scanned,
equivalence checks, rows gathered from shards, hedges, shed requests —
never a wall-clock time, so each claim holds under every engine mode.
Claims other suites already check are not repeated here.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import replace

import pytest

from conftest import (
    add_user_product_fragment,
    build_marketplace_estocada,
    build_replicated_marketplace_estocada,
    build_sharded_marketplace_estocada,
    cart_rows,
    user_rows,
    view,
)
from repro import Estocada
from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import (
    Atom,
    ConjunctiveQuery,
    Constant,
    ViewDefinition,
    classical_backchase,
    clear_memos,
    pacb_rewrite,
)
from repro.datamodel import TableSchema
from repro.errors import OverloadedError
from repro.runtime import ExecutionEngine
from repro.service import QueryService, TenantPolicy
from repro.stores import ParallelStore, RelationalStore, ReplicationPolicy
from repro.testing import FaultProfile
from repro.workloads import (
    BigDataConfig,
    MarketplaceConfig,
    generate_bigdata,
    generate_marketplace,
    key_lookup_workload,
)
from repro.workloads.bigdata import QUERY_1, QUERY_2, QUERY_3


def _bag(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


def _rows_scanned(results):
    return sum(b.rows_scanned for result in results for b in result.store_breakdown.values())


def _personalized(uid):
    """Personalized search: the items a user both bought and browsed."""
    return ConjunctiveQuery(
        "personalized", ["?s", "?d"],
        [Atom("purchases", [Constant(uid), "?s", "?c", "?q", "?pr"]),
         Atom("visits", [Constant(uid), "?s", "?c2", "?d"])],
    )


def test_key_value_fragments_scan_fewer_rows_for_key_lookups(marketplace_data):
    """Section II: key lookups served by key-value fragments instead of unindexed scans."""
    data = marketplace_data
    est = build_marketplace_estocada(data)
    prefs, users, carts = (est.drop_fragment(name) for name in ("F_prefs", "F_users", "F_carts"))
    # The vanilla layout: users and carts stored as such, with no index.
    est.register_fragment(replace(users, layout=StorageLayout("users_plain")), rows=user_rows(data))
    est.register_fragment(replace(carts, layout=StorageLayout("carts_plain")), rows=cart_rows(data))
    workload = [
        ConjunctiveQuery("prefs", ["?pc"], [Atom("users", [Constant(key), "?n", "?c", "?p", "?pc"])])
        if kind == "prefs"
        else ConjunctiveQuery("cart", ["?u", "?s", "?q"], [Atom("carts", [Constant(key), "?u", "?s", "?q"])])
        for kind, key in key_lookup_workload(data, lookups=40)
    ]
    vanilla = [est.query(query) for query in workload]
    est.register_fragment(prefs)
    est.register_fragment(
        StorageDescriptor(
            "F_carts_kv", "shop", "redis",
            view("F_carts_kv", ["?cid", "?u", "?s", "?q"], [Atom("carts", ["?cid", "?u", "?s", "?q"])],
                 ("cart_id", "uid", "sku", "quantity")),
            StorageLayout("carts_kv"), AccessMethod("lookup", key_columns=("cart_id",)),
        ),
        rows=cart_rows(data),
    )
    tuned = [est.query(query) for query in workload]
    assert [_bag(result.rows) for result in tuned] == [_bag(result.rows) for result in vanilla]
    assert {name for result in tuned for name in result.store_breakdown} == {"redis"}
    assert _rows_scanned(tuned) < _rows_scanned(vanilla)
    # A key-value fragment is only feasible with its key bound: a lookup by
    # a non-key attribute falls back to the relational scan.
    by_category = est.query(
        ConjunctiveQuery("by_category", ["?u"], [Atom("users", ["?u", "?n", "?c", "?p", Constant("books")])])
    )
    assert set(by_category.store_breakdown) == {"pg"}
    assert sorted(row["u"] for row in by_category.rows) == sorted(
        u["uid"] for u in data.users if u["preferred_category"] == "books"
    )


def test_materialized_join_replaces_the_cross_store_join(marketplace_data):
    """Section II: purchases ⋈ visits materialized in Spark answers personalized search."""
    est = build_marketplace_estocada(marketplace_data)
    queries = [_personalized(uid) for uid in range(0, 40, 4)]
    mediated = [est.query(query) for query in queries]
    add_user_product_fragment(est, marketplace_data)
    materialized = [est.query(query) for query in queries]
    assert [_bag(result.rows) for result in materialized] == [_bag(result.rows) for result in mediated]
    # Before: the mediator joins delegated requests to two stores; after: one.
    assert {name for result in mediated for name in result.store_breakdown} == {"pg", "spark"}
    assert {name for result in materialized for name in result.store_breakdown} == {"spark"}
    assert _rows_scanned(materialized) < _rows_scanned(mediated)


def _chain(length):
    """R0 ⋈ … ⋈ R(n-1), one view per relation and one per adjacent pair."""
    query = ConjunctiveQuery(
        "Q", ["?x0", f"?x{length}"], [Atom(f"R{i}", [f"?x{i}", f"?x{i + 1}"]) for i in range(length)]
    )
    views = [
        ViewDefinition(
            f"V{i}", ConjunctiveQuery(f"V{i}", [f"?a{i}", f"?b{i}"], [Atom(f"R{i}", [f"?a{i}", f"?b{i}"])])
        )
        for i in range(length)
    ] + [
        ViewDefinition(
            f"W{i}",
            ConjunctiveQuery(
                f"W{i}", [f"?a{i}", f"?c{i}"],
                [Atom(f"R{i}", [f"?a{i}", f"?b{i}"]), Atom(f"R{i + 1}", [f"?b{i}", f"?c{i}"])],
            ),
        )
        for i in range(length - 1)
    ]
    return query, views


def test_pacb_checks_an_order_of_magnitude_fewer_candidates_than_classical_cb():
    """Section III: PACB reads the rewritings off provenance instead of enumerating subsets."""
    query, views = _chain(5)
    clear_memos()
    pacb = pacb_rewrite(query, views)
    clear_memos()
    classical, statistics = classical_backchase(query, views)
    assert {frozenset(r.body) for r in pacb.rewritings} == {frozenset(r.body) for r in classical}
    assert len(pacb.rewritings) == 8
    assert (pacb.statistics.equivalence_checks, statistics.equivalence_checks) == (13, 105)


def test_big_data_benchmark_queries_answer_over_the_hybrid_layout():
    """Demo step 3: scan, aggregate and join queries over rankings (pg) and uservisits (spark)."""
    data = generate_bigdata(BigDataConfig(pages=120, visits=600, seed=5))
    est = Estocada()
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("spark", ParallelStore("spark"))
    est.register_relational_dataset(
        "bdb",
        [
            TableSchema("rankings", ("pageURL", "pageRank", "avgDuration"), primary_key=("pageURL",)),
            TableSchema("uservisits", ("sourceIP", "destURL", "adRevenue", "countryCode")),
        ],
    )
    est.register_fragment(
        StorageDescriptor(
            "F_rankings", "bdb", "pg",
            view("F_rankings", ["?u", "?r", "?d"], [Atom("rankings", ["?u", "?r", "?d"])],
                 ("pageURL", "pageRank", "avgDuration")),
            StorageLayout("rankings"), AccessMethod("scan"),
        ),
        rows=data.rankings, indexes=("pageURL",),
    )
    columns = ("sourceIP", "destURL", "adRevenue", "countryCode")
    est.register_fragment(
        StorageDescriptor(
            "F_uservisits", "bdb", "spark",
            view("F_uservisits", ["?ip", "?u", "?rev", "?cc"],
                 [Atom("uservisits", ["?ip", "?u", "?rev", "?cc"])], columns),
            StorageLayout("uservisits"), AccessMethod("scan"),
        ),
        rows=[{column: v[column] for column in columns} for v in data.uservisits], indexes=("destURL",),
    )
    q1 = est.query(QUERY_1, dataset="bdb")
    assert _bag(q1.rows) == _bag(
        {"pageURL": r["pageURL"], "pageRank": r["pageRank"]} for r in data.rankings if r["pageRank"] > 500
    )
    revenue = Counter()
    for v in data.uservisits:
        revenue[v["sourceIP"]] += v["adRevenue"]
    q2 = est.query(QUERY_2, dataset="bdb")
    assert {row["sourceIP"]: round(row["totalRevenue"], 6) for row in q2.rows} == {
        ip: round(total, 6) for ip, total in revenue.items()
    }
    assert len(q2.rows) == len(revenue)
    rank = {r["pageURL"]: r["pageRank"] for r in data.rankings}
    french = Counter()
    for v in data.uservisits:
        if v["countryCode"] == "FR":
            french[v["destURL"], rank[v["destURL"]]] += v["adRevenue"]
    q3 = est.query(QUERY_3, dataset="bdb")
    assert {(row["destURL"], row["pageRank"]): round(row["totalRevenue"], 6) for row in q3.rows} == {
        key: round(total, 6) for key, total in french.items()
    }
    assert set(q3.store_breakdown) == {"pg", "spark"}


def test_cost_based_choice_scans_no_more_than_any_alternative(marketplace_data):
    """Section III: of several equivalent rewritings, the cheapest-ranked one does the least work."""
    est = build_marketplace_estocada(marketplace_data)
    add_user_product_fragment(est, marketplace_data)
    ranked = est.explain(_personalized(12)).ranked_plans
    engine = ExecutionEngine()
    try:
        runs = [engine.execute(candidate.plan.root) for candidate in ranked]
    finally:
        engine.close()
    scanned = [_rows_scanned([run]) for run in runs]
    assert len(ranked) >= 2
    assert all(_bag(run.rows) == _bag(runs[0].rows) for run in runs)
    assert scanned[0] == min(scanned) < max(scanned)


def test_feedback_shrinks_estimation_error_after_data_grows(marketplace_data):
    """The cost model's estimate of a fragment that grew behind the catalog converges on the truth."""
    est = build_marketplace_estocada(marketplace_data)
    query = ConjunctiveQuery(
        "fanout", ["?cid", "?n", "?d"],
        [Atom("users", ["?u", "?n", "?c", "?p", "?pc"]), Atom("carts", ["?cid", "?u", "?s", "?q"]),
         Atom("visits", ["?u", "?s", "?c2", "?d"])],
    )
    est.query(query)
    carts = cart_rows(marketplace_data)
    grown = len(carts) * 10
    est.catalog.store("mongo").insert(
        "carts", [{**row, "cart_id": f"{row['cart_id']}-{copy}"} for copy in range(1, 10) for row in carts]
    )
    errors = []
    for _ in range(8):
        errors.append(abs(est.cost_model.estimated_cardinality("F_carts") - grown) / grown)
        est.query(query)
    assert errors[0] >= 0.5  # the catalog still believes the old size
    assert errors[-1] <= errors[0] / 2


def test_partial_aggregation_gathers_a_tenth_of_the_rows_a_plain_fanout_gathers():
    """Sharded GROUP BY: each shard ships one partial state per group, not its rows."""
    # ~36 purchases per (shard, category): one partial state per group is a
    # real reduction here, where the session fixture has about 8.
    data = generate_marketplace(
        MarketplaceConfig(users=200, products=300, orders=900, carts=100, log_lines=2400, seed=11)
    )
    est = build_sharded_marketplace_estocada(data, shards=8)
    aggregate = est.query(
        "SELECT category, COUNT(sku) AS n, SUM(price) AS total FROM purchases GROUP BY category",
        dataset="shop", parallelism=4,
    )
    scan = est.query("SELECT uid, sku, price FROM purchases", dataset="shop", parallelism=4)
    gathered = [
        result.summary()["execution"]["operators"]["ShardGather"]["rows"] for result in (aggregate, scan)
    ]
    assert aggregate.summary()["shards"]["contacted"] == scan.summary()["shards"]["contacted"] == 8
    assert gathered[1] == len(data.purchases())
    assert gathered[0] < gathered[1] / 10


def test_a_slow_preferred_replica_without_hedging_fires_no_hedges(marketplace_builder, marketplace_data):
    """Hedging, not the replica set, is what races stragglers: with it off, none are raced."""
    sql = "SELECT uid, sku, price FROM purchases WHERE uid = 7"
    est = build_replicated_marketplace_estocada(
        marketplace_data,
        profiles={0: FaultProfile(seed=3, slow_rate=1.0, slow_seconds=0.02)},
        policy=ReplicationPolicy(hedge=False, prefer_order=(0, 1, 2)),
    )
    result = est.query(sql, dataset="shop")
    expected = marketplace_builder(marketplace_data).query(sql, dataset="shop").rows
    assert _bag(result.rows) == _bag(expected)
    assert result.summary()["replicas"]["hedges"] == 0
    assert result.summary()["replicas"]["failovers"] == 0


class _GatedStore(RelationalStore):
    """A relational store whose requests wait until the gate opens."""

    def __init__(self, name):
        super().__init__(name)
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def execute_batches(self, *args, **kwargs):
        self.entered.set()
        assert self.gate.wait(10)
        return super().execute_batches(*args, **kwargs)


@pytest.mark.parametrize("queue_depth, shed", [(1_000_000, 0), (4, 16)])
def test_a_bounded_queue_sheds_the_excess_and_an_unbounded_one_sheds_nothing(queue_depth, shed):
    """Admission control: offered load past capacity is rejected up front, not queued without end."""
    est = Estocada()
    store = _GatedStore("pg")
    est.register_store("pg", store)
    est.register_relational_dataset("d", [TableSchema("t", ("a", "b"))])
    est.register_fragment(
        StorageDescriptor(
            "F_t", "d", "pg", view("F_t", ["?a", "?b"], [Atom("t", ["?a", "?b"])], ("a", "b")),
            StorageLayout("t"), AccessMethod("scan"),
        ),
        rows=[{"a": i, "b": 2 * i} for i in range(8)],
    )
    sql = "SELECT a, b FROM t WHERE a = 3"
    service = QueryService(est, workers=1, default_policy=None)
    service.register_tenant("app", TenantPolicy(max_concurrent=1, queue_depth=queue_depth))
    try:
        service.execute(sql, dataset="d", tenant="app")
        store.gate.clear()
        store.entered.clear()
        admitted = [service.submit(sql, dataset="d", tenant="app")]
        assert store.entered.wait(10)
        rejected = 0
        for _ in range(20):
            try:
                admitted.append(service.submit(sql, dataset="d", tenant="app"))
            except OverloadedError as error:
                assert error.reason == "queue_full"
                rejected += 1
        assert rejected == shed
        assert service.queue_depth() == 20 - shed
        store.gate.set()
        assert all(ticket.result(timeout=10).rows == [{"a": 3, "b": 6}] for ticket in admitted)
    finally:
        store.gate.set()
        service.close()
