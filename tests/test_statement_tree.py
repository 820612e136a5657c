"""What the statement tree answers that the old residual assembly got wrong.

Each case is held to a plain-Python oracle over ``marketplace_data``, on the
single-instance marketplace and on the 4-shard one (where aggregates over a
whole sharded table are partial per shard and merged):

* aggregates without GROUP BY answer one row even when nothing matches —
  COUNT 0, SUM/MIN/MAX/AVG NULL — and grouped ones (even when the WHERE
  clause pins every GROUP BY column) answer no row;
* a SELECT list of aggregates only (``COUNT(*)``) answers, over one table
  and over a join on a declared primary key;
* the result's columns are the SELECT list, in its order.
"""

from __future__ import annotations

import pytest

SCALAR = "COUNT(sku) AS n, SUM(price) AS total, MIN(price) AS lo, MAX(price) AS hi, AVG(price) AS mean"
EMPTY = {"n": 0, "total": None, "lo": None, "hi": None, "mean": None}


@pytest.fixture(scope="module")
def deployments(marketplace_builder, sharded_marketplace_builder, marketplace_data):
    return {
        "plain": marketplace_builder(marketplace_data),
        "sharded4": sharded_marketplace_builder(marketplace_data, shards=4),
    }


def _answers(deployments, sql):
    for name, est in deployments.items():
        result = est.query(sql, dataset="shop")
        yield name, result.rows, result.plan_description


class TestScalarAggregatesOverNoRows:
    def test_residual_filter_selecting_nothing(self, deployments):
        for name, rows, _ in _answers(
            deployments, "SELECT COUNT(uid) AS n FROM users WHERE uid > 10000"
        ):
            assert rows == [{"n": 0}], name

    @pytest.mark.parametrize(
        "where", ["price > 1000000", "category = 'none'", "uid = 100000"]
    )
    def test_every_function_over_no_purchases(self, deployments, where):
        for name, rows, plan in _answers(
            deployments, f"SELECT {SCALAR} FROM purchases WHERE {where}"
        ):
            assert rows == [EMPTY], (name, where)
            if name == "sharded4" and "price" not in where:
                # The equality lives in the scan: every shard (or the one
                # the key prunes to) contributes no partial, the merge answers.
                assert "MergeAggregate" in plan and "PartialAggregate" in plan

    def test_grouped_aggregates_over_no_rows_stay_empty(self, deployments):
        for name, rows, _ in _answers(
            deployments, "SELECT category, COUNT(sku) AS n FROM purchases WHERE uid = 100000 GROUP BY category"
        ):
            assert rows == [], name

    def test_group_column_pinned_to_a_constant_matching_nothing_stays_empty(self, deployments):
        # The equality pins the only GROUP BY column, so no grouping column
        # is left to aggregate by — the statement is still grouped, and a
        # grouped statement over no rows answers no row.
        for name, rows, plan in _answers(
            deployments,
            "SELECT category, COUNT(sku) AS n FROM purchases WHERE category = 'none' GROUP BY category",
        ):
            assert rows == [], name
            if name == "sharded4":
                assert "MergeAggregate" in plan

    def test_group_column_pinned_to_a_constant_answers_its_group(self, deployments, marketplace_data):
        expected = sum(1 for p in marketplace_data.purchases() if p["category"] == "shoes")
        assert expected
        for name, rows, _ in _answers(
            deployments,
            "SELECT category, COUNT(sku) AS n FROM purchases WHERE category = 'shoes' GROUP BY category",
        ):
            assert rows == [{"category": "shoes", "n": expected}], name


class TestCountStar:
    def test_one_table(self, deployments, marketplace_data):
        for name, rows, _ in _answers(deployments, "SELECT COUNT(*) AS n FROM purchases"):
            assert rows == [{"n": len(marketplace_data.purchases())}], name

    def test_with_a_filter(self, deployments, marketplace_data):
        expected = sum(1 for p in marketplace_data.purchases() if p["price"] > 100)
        for name, rows, _ in _answers(
            deployments, "SELECT COUNT(*) AS n FROM purchases WHERE price > 100"
        ):
            assert rows == [{"n": expected}], name

    def test_join_on_a_declared_primary_key(self, deployments, marketplace_data):
        # users.uid is the primary key: each purchase joins at most one user.
        cities = {u["uid"]: u["city"] for u in marketplace_data.users}
        expected = sum(
            1 for p in marketplace_data.purchases() if cities.get(p["uid"]) == "paris"
        )
        assert expected
        for name, rows, _ in _answers(
            deployments,
            "SELECT COUNT(*) AS n FROM users u, purchases p "
            "WHERE u.uid = p.uid AND u.city = 'paris'",
        ):
            assert rows == [{"n": expected}], name


class TestOutputsFollowTheSelectList:
    def test_aggregate_before_its_group_column(self, deployments, marketplace_data):
        counts: dict = {}
        for user in marketplace_data.users:
            counts[user["city"]] = counts.get(user["city"], 0) + 1
        sql = "SELECT COUNT(*) AS n, city FROM users GROUP BY city"
        for name, rows, plan in _answers(deployments, sql):
            assert all(list(row) == ["n", "city"] for row in rows), name
            assert {row["city"]: row["n"] for row in rows} == counts
            assert "output(n, city)" in plan

    def test_group_column_outside_the_select_list_is_not_returned(self, deployments):
        sql = "SELECT SUM(price) AS total FROM purchases GROUP BY category"
        for name, rows, _ in _answers(deployments, sql):
            assert rows and all(list(row) == ["total"] for row in rows), name
