"""End-to-end tests of the Estocada facade over the multi-store marketplace."""

import pytest

from repro.advisor import WorkloadQuery
from repro.core import Atom, ConjunctiveQuery, Constant
from repro.errors import NoRewritingFoundError, TranslationError
from repro.workloads import generate_marketplace


class TestFacadeQueries:
    def test_sql_point_query(self, marketplace_estocada, marketplace_data):
        result = marketplace_estocada.query(
            "SELECT name, city FROM users WHERE uid = 5", dataset="shop"
        )
        user = marketplace_data.users[5]
        assert result.rows == [{"name": user["name"], "city": user["city"]}]

    def test_sql_selection_matches_ground_truth(self, marketplace_estocada, marketplace_data):
        result = marketplace_estocada.query(
            "SELECT uid FROM users WHERE city = 'paris'", dataset="shop"
        )
        expected = {u["uid"] for u in marketplace_data.users if u["city"] == "paris"}
        assert {row["uid"] for row in result.rows} == expected

    def test_sql_join_across_stores(self, marketplace_estocada, marketplace_data):
        sql = (
            "SELECT p.sku, v.duration_ms FROM purchases p, visits v "
            "WHERE p.uid = 2 AND v.uid = 2 AND p.sku = v.sku"
        )
        result = marketplace_estocada.query(sql, dataset="shop")
        purchases = {p["sku"] for p in marketplace_data.purchases() if p["uid"] == 2}
        visits = {(v["sku"], v["duration_ms"]) for v in marketplace_data.weblog if v["uid"] == 2}
        expected = {(sku, d) for sku, d in visits if sku in purchases}
        assert {(r["sku"], r["duration_ms"]) for r in result.rows} == expected
        assert set(result.store_breakdown) >= {"pg", "spark"}

    def test_sql_aggregation(self, marketplace_estocada, marketplace_data):
        result = marketplace_estocada.query(
            "SELECT uid, COUNT(sku) AS n FROM purchases GROUP BY uid", dataset="shop"
        )
        from collections import Counter

        expected = Counter(p["uid"] for p in marketplace_data.purchases())
        got = {row["uid"]: row["n"] for row in result.rows}
        assert got == dict(expected)

    def test_sql_inequality_residual_filter(self, marketplace_estocada, marketplace_data):
        result = marketplace_estocada.query(
            "SELECT sku, price FROM purchases WHERE price > 400", dataset="shop"
        )
        assert all(row["price"] > 400 for row in result.rows)
        expected = {p["sku"] for p in marketplace_data.purchases() if p["price"] > 400}
        assert {row["sku"] for row in result.rows} == expected

    def test_pivot_query_key_lookup_uses_redis(self, marketplace_estocada, marketplace_data):
        query = ConjunctiveQuery(
            "Q", ["?pc"], [Atom("users", [Constant(7), "?n", "?c", "?p", "?pc"])]
        )
        result = marketplace_estocada.query(query)
        assert result.rows == [{"pc": marketplace_data.users[7]["preferred_category"]}]
        assert list(result.store_breakdown) == ["redis"]

    def test_document_query_over_carts(self, marketplace_estocada, marketplace_data):
        est = marketplace_estocada
        est.register_document_dataset(
            "cartsdb", {"carts": ("cart_id", "uid", "sku", "quantity")}
        )
        cart = marketplace_data.carts[0]
        doc_query = est.document_query("carts").where("cart_id", cart["_id"]).select("uid", "sku")
        result = est.query(doc_query)
        assert result.rows[0]["uid"] == cart["uid"]

    def test_unanswerable_query_raises(self, marketplace_estocada):
        query = ConjunctiveQuery("Q", ["?x"], [Atom("unknown_relation", ["?x"])])
        with pytest.raises(NoRewritingFoundError):
            marketplace_estocada.query(query)

    def test_sql_requires_dataset(self, marketplace_estocada):
        with pytest.raises(TranslationError):
            marketplace_estocada.query("SELECT name FROM users WHERE uid = 1")

    def test_explain_reports_rewritings_and_plan(self, marketplace_estocada):
        snapshot = marketplace_estocada.catalog.describe()
        assert (len(snapshot["stores"]), len(snapshot["fragments"])) == (5, 6)
        explanation = marketplace_estocada.explain(
            "SELECT name FROM users WHERE uid = 3", dataset="shop"
        )
        assert explanation.algorithm == "pacb"
        assert explanation.rewritings
        assert explanation.chosen is not None
        assert "DelegatedRequest" in explanation.plan_text()

    def test_explain_cost_ranking_prefers_cheaper_plan(self, marketplace_estocada):
        query = ConjunctiveQuery(
            "Q", ["?pc"], [Atom("users", [Constant(9), "?n", "?c", "?p", "?pc"])]
        )
        explanation = marketplace_estocada.explain(query)
        assert len(explanation.ranked_plans) >= 2
        costs = [plan.estimate.total_cost for plan in explanation.ranked_plans]
        assert costs == sorted(costs)

    def test_result_summary_breakdown(self, marketplace_estocada):
        result = marketplace_estocada.query(
            "SELECT name FROM users WHERE uid = 1", dataset="shop"
        )
        summary = result.summary()
        assert summary["rows"] == 1
        assert set(summary["stores"])

    def test_limit_applied(self, marketplace_estocada):
        result = marketplace_estocada.query(
            "SELECT uid FROM purchases LIMIT 5", dataset="shop"
        )
        assert len(result.rows) == 5

    def test_classical_algorithm_end_to_end(self, marketplace_data):
        from tests.conftest import build_marketplace_estocada

        est = build_marketplace_estocada(marketplace_data, algorithm="classical")
        result = est.query("SELECT name FROM users WHERE uid = 4", dataset="shop")
        assert result.rows == [{"name": marketplace_data.users[4]["name"]}]

    def test_fragment_drop_changes_plan(self, marketplace_estocada):
        query = ConjunctiveQuery(
            "Q", ["?pc"], [Atom("users", [Constant(7), "?n", "?c", "?p", "?pc"])]
        )
        before = marketplace_estocada.query(query)
        assert list(before.store_breakdown) == ["redis"]
        marketplace_estocada.drop_fragment("F_prefs")
        after = marketplace_estocada.query(query)
        assert list(after.store_breakdown) == ["pg"]

    def test_single_store_vs_multistore_key_workload(self, marketplace_estocada, marketplace_data):
        """The Section-II claim in miniature: key lookups via the key-value
        fragment touch far less data than via the vanilla relational store."""
        est = marketplace_estocada
        query = ConjunctiveQuery(
            "Q", ["?pc"], [Atom("users", [Constant(11), "?n", "?c", "?p", "?pc"])]
        )
        with_kv = est.query(query)
        est.drop_fragment("F_prefs")
        without_kv = est.query(query)
        assert with_kv.rows == without_kv.rows
        scanned_with = sum(b.rows_scanned for b in with_kv.store_breakdown.values())
        scanned_without = sum(b.rows_scanned for b in without_kv.store_breakdown.values())
        assert scanned_with <= scanned_without


class TestMaterializedJoinFragment:
    def test_materialized_join_answers_personalized_search(self, marketplace_estocada, marketplace_data):
        """Materializing purchases ⋈ visits (the paper's 40 % improvement) is
        picked up by the rewriting engine and avoids the cross-store join."""
        from tests.conftest import add_user_product_fragment

        est = marketplace_estocada
        rows = add_user_product_fragment(est, marketplace_data)
        query = ConjunctiveQuery(
            "personalized", ["?s", "?d"],
            [
                Atom("purchases", [Constant(2), "?s", "?c", "?q", "?pr"]),
                Atom("visits", [Constant(2), "?s", "?c2", "?d"]),
            ],
        )
        explanation = est.explain(query)
        best_fragments = {a.relation for a in explanation.chosen.rewriting.body}
        assert best_fragments == {"F_user_product"}
        result = est.query(query)
        expected = {(r["sku"], r["duration_ms"]) for r in rows if r["uid"] == 2}
        assert {(r["s"], r["d"]) for r in result.rows} == expected


class TestWorkloads:
    def test_marketplace_generation_deterministic(self):
        a = generate_marketplace()
        b = generate_marketplace()
        assert a.users == b.users
        assert a.orders[:10] == b.orders[:10]

    def test_marketplace_sizes(self, marketplace_data):
        assert len(marketplace_data.users) == 60
        assert len(marketplace_data.products) == 80
        assert len(marketplace_data.weblog) == 600

    def test_purchases_flattening(self, marketplace_data):
        purchases = marketplace_data.purchases()
        assert all({"uid", "sku", "category", "quantity", "price"} <= set(p) for p in purchases)
        assert len(purchases) >= len(marketplace_data.orders)

    def test_key_lookup_workload(self, marketplace_data):
        from repro.workloads import key_lookup_workload

        workload = key_lookup_workload(marketplace_data, lookups=50)
        assert len(workload) == 50
        assert {kind for kind, _ in workload} <= {"prefs", "cart"}

    def test_bigdata_generation(self):
        from repro.workloads import generate_bigdata, BigDataConfig

        data = generate_bigdata(BigDataConfig(pages=100, visits=500, seed=1))
        assert len(data.rankings) == 100
        assert len(data.uservisits) == 500
        urls = {r["pageURL"] for r in data.rankings}
        assert all(v["destURL"] in urls for v in data.uservisits)

    def test_advisor_end_to_end_improves_personalized_search(self, marketplace_estocada):
        query = ConjunctiveQuery(
            "personalized", ["?u", "?s"],
            [
                Atom("purchases", ["?u", "?s", "?c", "?q", "?pr"]),
                Atom("visits", ["?u", "?s", "?c2", "?d"]),
            ],
        )
        report = marketplace_estocada.recommend_fragments([WorkloadQuery(query, weight=3.0)])
        assert report.improvement_ratio() >= 0.0
        assert isinstance(report.additions, list)
