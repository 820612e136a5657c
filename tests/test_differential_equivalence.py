"""The differential query-equivalence harness.

One logical marketplace dataset is deployed four ways — the multi-store
baseline executed serially, the same deployment executed concurrently, and
the sharded deployment at 1 shard and at 8 shards — and a hypothesis-driven
random query generator asserts that every configuration returns the bag of
rows an **oracle** computes for the generated query.  The oracle is a
plain-Python evaluation (list comprehensions and dict grouping over the
generated ``marketplace_data``) built next to the SQL text and importing
nothing from ``repro``: comparing deployments only with each other cannot
see a defect they all share (a filter on an unselected column returning
nothing, an aggregate's input leaking into the output).  Pruning,
scatter-gather fan-out and partial-aggregation pushdown may change the plan
shape and the execution schedule, but never the answer.

The **chaos profile** extends the harness to the replication subsystem: the
same workload runs over a 3-replica deployment under seeded fault injection
— no faults, transient errors + retry, one hard-dead replica + failover, and
latency spikes + hedged backup requests — and every faulted configuration
must return the oracle's bag.  The fault schedules are seeded
(``REPRO_CHAOS_SEED``, CI runs a small seed matrix), so a failing example
replays exactly.

LIMIT queries are nondeterministic by design (any k rows of the answer are a
correct answer), so for them the harness checks cardinality and containment
in the oracle's full result instead of equality.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stores import ReplicationPolicy
from repro.testing import FaultProfile

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))


def _canonical(value):
    """A comparison key that tolerates summation-order float jitter.

    Partial aggregation adds each shard's floats in its own order, so SUM/AVG
    results can differ from the serial engine in the last couple of ulps;
    10 significant digits is far tighter than any real divergence bug and far
    looser than reordering noise.
    """
    if isinstance(value, float):
        return f"{value:.10g}"
    return repr(value)


def _bag(rows):
    """Order-insensitive fingerprint of a result's binding dicts."""
    return Counter(tuple(sorted((k, _canonical(v)) for k, v in row.items())) for row in rows)


@pytest.fixture(scope="module")
def configurations(marketplace_builder, sharded_marketplace_builder, marketplace_data):
    """The four deployments under test, keyed by name.

    Each entry is ``(estocada, parallelism)``; all four host the same logical
    users/purchases/visits data.
    """
    return {
        "serial": (marketplace_builder(marketplace_data), 1),
        "concurrent": (marketplace_builder(marketplace_data), 4),
        "sharded1": (sharded_marketplace_builder(marketplace_data, shards=1), 1),
        "sharded8": (sharded_marketplace_builder(marketplace_data, shards=8), 4),
    }


# -- the random query generator ------------------------------------------------------

_CITIES = ("paris", "lyon", "nantes", "lille")
_CATEGORIES = ("shoes", "electronics", "books", "kitchen")
_COMPARE = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le}
# SQL text → (output column, input column, plain-Python fold over the group's values).
_AGGREGATES = {
    "COUNT(sku) AS n": ("n", "sku", len),
    "SUM(price) AS total": ("total", "price", sum),
    "MIN(price) AS lo": ("lo", "price", min),
    "MAX(price) AS hi": ("hi", "price", max),
    "AVG(price) AS mean": ("mean", "price", lambda values: sum(values) / len(values)),
}
_SCAN_COLUMNS = (("uid", "sku", "price"), ("uid", "sku"), ("sku", "category"))
# SELECT list of the purchases ⋈ visits join → (output column, side, source column).
_JOIN_PROJECTIONS = {
    "p.sku, v.duration_ms": (("sku", "p", "sku"), ("duration_ms", "v", "duration_ms")),
    "p.sku, p.price": (("sku", "p", "sku"), ("price", "p", "price")),
    "v.category, v.duration_ms": (("category", "v", "category"), ("duration_ms", "v", "duration_ms")),
}


def _pick(row, columns):
    return {column: row[column] for column in columns}


@st.composite
def sql_queries(draw):
    """A random SQL query over the shared marketplace tables, with its oracle.

    Returns ``(sql, limit, expected)``; ``expected(data)`` is the full
    (LIMIT-free) answer as a list of dicts, computed in plain Python from the
    generated marketplace data by the branch that wrote the SQL.

    Shapes: single-table scans with optional shard-key / non-key equality and
    range filters (the WHERE column in or out of the SELECT list), a
    purchases ⋈ visits join projecting both sides or one side only
    (optionally pruned by a uid constant), and grouped aggregation over
    purchases with decomposable functions over unselected columns (behind an
    optional equality or range filter) — plus an optional LIMIT on the
    non-aggregate shapes.
    """
    shape = draw(st.sampled_from(["scan", "point", "join", "aggregate", "users"]))
    limit = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=7)))
    if shape == "users":
        city = draw(st.sampled_from(_CITIES))
        sql = f"SELECT uid, name FROM users WHERE city = '{city}'"

        def expected(data):
            return [_pick(u, ("uid", "name")) for u in data.users if u["city"] == city]

    elif shape == "scan":
        price = draw(st.integers(min_value=0, max_value=500))
        op = draw(st.sampled_from(sorted(_COMPARE)))
        columns = draw(st.sampled_from(_SCAN_COLUMNS))
        sql = f"SELECT {', '.join(columns)} FROM purchases WHERE price {op} {price}"

        def expected(data):
            return [
                _pick(p, columns) for p in data.purchases() if _COMPARE[op](p["price"], price)
            ]

    elif shape == "point":
        uid = draw(st.integers(min_value=0, max_value=59))
        table = draw(st.sampled_from(["purchases", "visits"]))
        columns = (
            ("uid", "sku", "category") if table == "purchases" else ("uid", "sku", "duration_ms")
        )
        sql = f"SELECT {', '.join(columns)} FROM {table} WHERE uid = {uid}"

        def expected(data):
            rows = data.purchases() if table == "purchases" else data.weblog
            return [_pick(row, columns) for row in rows if row["uid"] == uid]

    elif shape == "join":
        select = draw(st.sampled_from(sorted(_JOIN_PROJECTIONS)))
        uid = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=59)))
        sql = (
            f"SELECT {select} FROM purchases p, visits v "
            "WHERE p.uid = v.uid AND p.sku = v.sku"
        )
        if uid is not None:
            sql += f" AND p.uid = {uid}"

        def expected(data):
            return [
                {name: {"p": p, "v": v}[side][column]
                 for name, side, column in _JOIN_PROJECTIONS[select]}
                for p in data.purchases()
                if uid is None or p["uid"] == uid
                for v in data.weblog
                if p["uid"] == v["uid"] and p["sku"] == v["sku"]
            ]

    else:  # aggregate
        functions = draw(
            st.lists(st.sampled_from(sorted(_AGGREGATES)), min_size=1, max_size=3, unique=True)
        )
        group = draw(st.sampled_from(["category", "uid"]))
        filtered = draw(st.sampled_from(["none", "category", "price"]))
        if filtered == "category":
            category = draw(st.sampled_from(_CATEGORIES))
            where = f" WHERE category = '{category}'"
            keep = lambda p: p["category"] == category  # noqa: E731
        elif filtered == "price":
            price = draw(st.integers(min_value=0, max_value=500))
            op = draw(st.sampled_from(sorted(_COMPARE)))
            where = f" WHERE price {op} {price}"
            keep = lambda p: _COMPARE[op](p["price"], price)  # noqa: E731
        else:
            where = ""
            keep = lambda p: True  # noqa: E731
        sql = f"SELECT {group}, {', '.join(functions)} FROM purchases{where} GROUP BY {group}"
        limit = None  # aggregates stay deterministic; compare them exactly

        def expected(data):
            groups = {}
            for p in data.purchases():
                if keep(p):
                    groups.setdefault(p[group], []).append(p)
            return [
                {group: key}
                | {
                    name: fold([p[column] for p in members])
                    for name, column, fold in (_AGGREGATES[f] for f in functions)
                }
                for key, members in groups.items()
            ]

    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql, limit, expected


def _assert_matches_oracle(configurations, case, data, note=""):
    """Every ``(estocada, parallelism)`` deployment answers ``case`` like its oracle."""
    sql, limit, expected = case
    full = _bag(expected(data))
    for name, (est, parallelism) in configurations.items():
        rows = est.query(sql, dataset="shop", parallelism=parallelism).rows
        got = _bag(rows)
        if limit is None:
            assert got == full, f"{name} diverged from the oracle on {sql!r}{note}"
        else:
            # LIMIT: any k-subset of the full answer is correct — check the
            # row count and that every returned row belongs to the full bag.
            assert len(rows) == min(limit, sum(full.values())), (
                f"{name} wrong count on {sql!r}{note}"
            )
            assert all(got[key] <= full[key] for key in got), (
                f"{name} returned rows outside the full answer on {sql!r}{note}"
            )


class TestDifferentialEquivalence:
    """Serial, concurrent and sharded configurations answer like the oracle."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=sql_queries())
    def test_random_queries_agree_across_configurations(
        self, configurations, marketplace_data, case
    ):
        _assert_matches_oracle(configurations, case, marketplace_data)

    def test_point_query_prunes_only_on_the_sharded_configs(self, configurations):
        sql = "SELECT uid, sku, category FROM purchases WHERE uid = 7"
        est8, parallelism = configurations["sharded8"]
        result = est8.query(sql, dataset="shop", parallelism=parallelism)
        assert result.summary()["shards"] == {"contacted": 1, "pruned": 7}
        serial_est, _ = configurations["serial"]
        baseline = serial_est.query(sql, dataset="shop", parallelism=1)
        assert baseline.summary()["shards"] == {"contacted": 0, "pruned": 0}
        assert _bag(result.rows) == _bag(baseline.rows)

    def test_limit_early_exit_cancels_sharded_fanout_cleanly(self, configurations):
        # A tiny LIMIT abandons the gather mid-branch; every per-shard stream
        # must still be finalized (cumulative counters move exactly once per
        # served request) and repeated runs must stay consistent.
        est, _ = configurations["sharded8"]
        store = est.catalog.store("shardpg")
        before = {child.name: child.requests_served for child in store.shard_stores()}
        runs = 3
        for _ in range(runs):
            result = est.query(
                "SELECT uid, sku FROM purchases LIMIT 3", dataset="shop", parallelism=4
            )
            assert len(result.rows) == 3
        # Each run issues at most one request per shard; double-counted
        # finalization of an abandoned stream would push a delta above `runs`.
        for child in store.shard_stores():
            delta = child.requests_served - before[child.name]
            assert 0 <= delta <= runs, (child.name, delta)
        full = est.query("SELECT uid, sku FROM purchases", dataset="shop", parallelism=4)
        limited = est.query(
            "SELECT uid, sku FROM purchases LIMIT 5", dataset="shop", parallelism=1
        )
        assert all(_bag(limited.rows)[key] <= _bag(full.rows)[key] for key in _bag(limited.rows))

    def test_sharded_fanout_overlaps_requests(
        self, sharded_marketplace_builder, marketplace_data
    ):
        # With a simulated per-shard service latency the pre-started Exchange
        # workers must hold several shard requests in flight at once.
        est = sharded_marketplace_builder(marketplace_data, shards=8, latency=0.01)
        result = est.query("SELECT uid, sku FROM purchases", dataset="shop", parallelism=4)
        assert result.max_concurrent_requests >= 2
        assert result.summary()["shards"]["contacted"] == 8


# -- the shapes the mode-vs-mode comparisons missed -----------------------------------


@pytest.fixture(scope="module")
def every_configuration(configurations, chaos_configurations):
    """The plain and the chaos deployments together."""
    return {**configurations, **chaos_configurations}


class TestSharedPathRegressions:
    """Defects every deployment shared, pinned against the oracle.

    Each of these was wrong identically on the serial, concurrent, sharded
    and replicated deployments, so no comparison *between* them could fail.
    """

    def test_unselected_where_column_filters(self, every_configuration, marketplace_data):
        # The residual filter ran after the projection had dropped `price`:
        # the answer was empty.
        def expected(data):
            return [
                {"uid": p["uid"], "sku": p["sku"]} for p in data.purchases() if p["price"] > 100
            ]

        sql = "SELECT uid, sku FROM purchases WHERE price > 100"
        _assert_matches_oracle(every_configuration, (sql, None, expected), marketplace_data)

    def test_no_stray_aggregate_columns(self, every_configuration, marketplace_data):
        def prices_by_category(data):
            groups = {}
            for p in data.purchases():
                groups.setdefault(p["category"], []).append(p["price"])
            return groups

        cases = [
            # `price` only feeds SUM: the answer carried a stray `price: None`.
            (
                "SELECT category, SUM(price) AS total FROM purchases GROUP BY category",
                lambda data: [
                    {"category": category, "total": sum(prices)}
                    for category, prices in prices_by_category(data).items()
                ],
            ),
            # Grouping by a column the WHERE pins to a constant: the answer
            # carried a stray `purchases_category: None`.
            (
                "SELECT category, COUNT(sku) AS n FROM purchases "
                "WHERE category = 'shoes' GROUP BY category",
                lambda data: [
                    {"category": "shoes", "n": len(prices_by_category(data)["shoes"])}
                ],
            ),
        ]
        for sql, expected in cases:
            _assert_matches_oracle(every_configuration, (sql, None, expected), marketplace_data)


# -- the rewrite-at-scale profile ----------------------------------------------------


def _alpha_canonical(query):
    """An alpha-invariant, body-order-invariant fingerprint of a CQ.

    The chase invents labelled nulls from a global counter, so the same
    logical rewriting carries different variable names across runs; this
    renames variables by first occurrence (head first) and minimizes over
    body-atom permutations (rewriting bodies are small).
    """
    import itertools as it

    from repro.core import Constant, Variable

    best = None
    for permutation in it.permutations(query.body):
        mapping = {}

        def rename(term):
            if isinstance(term, Variable):
                if term not in mapping:
                    mapping[term] = ("v", len(mapping))
                return mapping[term]
            assert isinstance(term, Constant)
            return ("c", repr(term.value))

        head = tuple(rename(term) for term in query.head_terms)
        body = tuple(
            (atom.relation, tuple(rename(term) for term in atom.terms))
            for atom in permutation
        )
        key = (query.head_relation, head, body)
        if best is None or key < best:
            best = key
    return best


_PIVOT_RELATIONS = ("rel0", "rel1", "rel2", "rel3")


@st.composite
def view_catalogs(draw):
    """A random binary-relation schema, view catalog and chain query."""
    from repro.core import Atom, ConjunctiveQuery, ViewDefinition

    relations = list(
        _PIVOT_RELATIONS[: draw(st.integers(min_value=2, max_value=4))]
    )
    views = []
    for position in range(draw(st.integers(min_value=1, max_value=5))):
        shape = draw(st.sampled_from(["identity", "projection", "join"]))
        first = draw(st.sampled_from(relations))
        if shape == "identity":
            head, body = ["?a", "?b"], [Atom(first, ["?a", "?b"])]
        elif shape == "projection":
            head, body = ["?a"], [Atom(first, ["?a", "?b"])]
        else:
            second = draw(st.sampled_from(relations))
            head = ["?a", "?c"]
            body = [Atom(first, ["?a", "?b"]), Atom(second, ["?b", "?c"])]
        name = f"V{position}"
        views.append(ViewDefinition(name, ConjunctiveQuery(name, head, body)))
    length = draw(st.integers(min_value=1, max_value=2))
    variables = [f"?q{i}" for i in range(length + 1)]
    body = [
        Atom(draw(st.sampled_from(relations)), [variables[i], variables[i + 1]])
        for i in range(length)
    ]
    query = ConjunctiveQuery("Q", [variables[0], variables[length]], body)
    return views, query


@contextmanager
def _execution_mode(**overrides):
    """Temporarily pin env switches read at rewriting time."""
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


_REWRITE_MODES = {
    "indexed_memoized": {"REPRO_REWRITE_INDEX": "1", "REPRO_REWRITE_MEMO": "1"},
    "indexed_cold": {"REPRO_REWRITE_INDEX": "1", "REPRO_REWRITE_MEMO": "0"},
    "unindexed": {"REPRO_REWRITE_INDEX": "0", "REPRO_REWRITE_MEMO": "0"},
}


class TestIndexedRewritingDifferential:
    """The signature index and the memos never change a rewriting result.

    The index prunes candidate views and chase constraints, and the memos
    replay chases/containment verdicts — both must be invisible: for every
    random view catalog, every mode finds the same rewriting set (up to
    variable renaming and body order), and on the marketplace deployment the
    winning plan and its cost estimate agree.
    """

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scenario=view_catalogs())
    @pytest.mark.parametrize("algorithm", ["pacb", "classical"])
    def test_modes_find_identical_rewriting_sets(self, algorithm, scenario):
        from repro.core import Rewriter

        views, query = scenario
        results = {}
        for mode, env in _REWRITE_MODES.items():
            with _execution_mode(**env):
                outcome = Rewriter(views=views, algorithm=algorithm).rewrite(query)
                results[mode] = {
                    _alpha_canonical(rewriting) for rewriting in outcome.rewritings
                }
        reference = results["unindexed"]
        for mode, found in results.items():
            assert found == reference, f"{mode} diverged on {query} over {views}"

    def test_winning_plan_cost_agrees_on_the_marketplace(
        self, marketplace_builder, marketplace_data
    ):
        from repro.core import Atom, ConjunctiveQuery, Constant

        queries = [
            ConjunctiveQuery(
                "QU", ["?pc"], [Atom("users", [Constant(7), "?n", "?c", "?p", "?pc"])]
            ),
            ConjunctiveQuery(
                "QJ",
                ["?s", "?n"],
                [
                    Atom("users", ["?u", "?n", "?c", "?p", "?pc"]),
                    Atom("purchases", ["?u", "?s", "?cat", "?q", "?price"]),
                ],
            ),
        ]
        chosen = {}
        for mode, env in _REWRITE_MODES.items():
            with _execution_mode(**env):
                est = marketplace_builder(marketplace_data)
                chosen[mode] = [
                    (
                        explanation.chosen.estimate.total_cost,
                        explanation.plan_text(),
                        len(explanation.rewritings),
                    )
                    for explanation in (est.explain(query) for query in queries)
                ]
        assert chosen["indexed_memoized"] == chosen["unindexed"]
        assert chosen["indexed_cold"] == chosen["unindexed"]


# -- the chaos profile ---------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_configurations(
    marketplace_builder, replicated_marketplace_builder, marketplace_data
):
    """The chaos deployments under test, keyed by scenario name.

    Each entry is ``(estocada, parallelism)``.  The baseline is the plain
    multi-store deployment executed serially; every chaos scenario deploys
    purchases and visits into 3-replica replicated stores whose replicas are
    wrapped in seeded fault injectors.
    """
    seed = CHAOS_SEED
    return {
        "baseline": (marketplace_builder(marketplace_data), 1),
        "replicated_clean": (replicated_marketplace_builder(marketplace_data), 4),
        # Every replica drops ~30% of requests and loses ~15% of responses
        # mid-stream; bounded same-replica retries must absorb all of it.
        "transient_retry": (
            replicated_marketplace_builder(
                marketplace_data,
                profiles={
                    i: FaultProfile(seed=seed * 101 + i, error_rate=0.3, mid_stream_rate=0.15)
                    for i in range(3)
                },
                policy=ReplicationPolicy(max_retries=4),
            ),
            4,
        ),
        # Replica 0 is dead on arrival; every request must fail over.
        "dead_replica_failover": (
            replicated_marketplace_builder(
                marketplace_data, profiles={0: FaultProfile(crash_after=0)}
            ),
            4,
        ),
        # Random 20 ms latency spikes on every replica; hedged backups cut
        # the spike to the hedge delay without changing any answer.
        "hedged_slow_replica": (
            replicated_marketplace_builder(
                marketplace_data,
                profiles={
                    i: FaultProfile(seed=seed * 211 + i, slow_rate=0.35, slow_seconds=0.02)
                    for i in range(3)
                },
                policy=ReplicationPolicy(hedge=True, hedge_delay_seconds=0.004),
            ),
            4,
        ),
    }


class TestChaosDifferential:
    """Replicated deployments under injected faults never change an answer."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=sql_queries())
    def test_chaos_queries_agree_with_unreplicated_baseline(
        self, chaos_configurations, marketplace_data, case
    ):
        _assert_matches_oracle(
            chaos_configurations, case, marketplace_data, note=f" (seed {CHAOS_SEED})"
        )

    def test_dead_replica_reports_failovers(
        self, marketplace_builder, replicated_marketplace_builder, marketplace_data
    ):
        est = replicated_marketplace_builder(
            marketplace_data, profiles={0: FaultProfile(crash_after=0)}
        )
        sql = "SELECT uid, sku, price FROM purchases"
        result = est.query(sql, dataset="shop", parallelism=4)
        assert result.summary()["replicas"]["failovers"] > 0
        baseline = marketplace_builder(marketplace_data).query(
            sql, dataset="shop", parallelism=1
        )
        assert _bag(result.rows) == _bag(baseline.rows)
        # Once the board marks the dead replica unhealthy, later queries stop
        # paying the failed round-trip (requests route around it up front).
        for _ in range(4):
            est.query(sql, dataset="shop", parallelism=4)
        settled = est.query(sql, dataset="shop", parallelism=4)
        assert settled.summary()["replicas"]["failovers"] == 0
        health = est.replication_configuration()["reppg"]["health"]
        assert health[0]["healthy"] is False

    def test_transient_errors_report_retries(
        self, marketplace_builder, replicated_marketplace_builder, marketplace_data
    ):
        est = replicated_marketplace_builder(
            marketplace_data,
            profiles={
                i: FaultProfile(seed=CHAOS_SEED * 17 + i, error_rate=0.5) for i in range(3)
            },
            policy=ReplicationPolicy(max_retries=4),
        )
        sql = "SELECT uid, sku, price FROM purchases"
        baseline = _bag(
            marketplace_builder(marketplace_data).query(sql, dataset="shop", parallelism=1).rows
        )
        retries = 0
        for _ in range(5):
            result = est.query(sql, dataset="shop", parallelism=4)
            assert _bag(result.rows) == baseline
            retries += result.summary()["replicas"]["retries"]
        assert retries > 0

    def test_hedged_slow_replica_reports_hedges(
        self, marketplace_builder, replicated_marketplace_builder, marketplace_data
    ):
        # Replica 0 is a deterministic straggler and the policy pins it as
        # the preferred replica (a "read-local" deployment whose local copy
        # went slow): every purchases request must hedge to a backup.
        est = replicated_marketplace_builder(
            marketplace_data,
            profiles={0: FaultProfile(seed=CHAOS_SEED, slow_rate=1.0, slow_seconds=0.05)},
            policy=ReplicationPolicy(
                hedge=True, hedge_delay_seconds=0.004, prefer_order=(0, 1, 2)
            ),
        )
        sql = "SELECT uid, sku, price FROM purchases"
        baseline = _bag(
            marketplace_builder(marketplace_data).query(sql, dataset="shop", parallelism=1).rows
        )
        result = est.query(sql, dataset="shop", parallelism=4)
        assert _bag(result.rows) == baseline
        assert result.summary()["replicas"]["hedges"] > 0
        # The backup's win is credited on the health board.
        health = est.replication_configuration()["reppg"]["health"]
        assert sum(entry["hedges_won"] for entry in health) > 0


# -- the service profile -------------------------------------------------------------


@pytest.fixture(scope="module")
def service_configurations(configurations):
    """Each deployment wrapped in a QueryService; workers torn down at the end."""
    from repro.service import QueryService, TenantPolicy

    services = {
        name: QueryService(
            est,
            workers=2,
            default_policy=TenantPolicy(max_concurrent=2, queue_depth=64),
        )
        for name, (est, _parallelism) in configurations.items()
    }
    try:
        yield services
    finally:
        for service in services.values():
            service.close()


class TestServiceDifferential:
    """Serving through admission control never changes an answer.

    The service adds queueing, priority dispatch, per-tenant plan-cache
    namespaces and deadline plumbing between the caller and the facade — all
    of which must be invisible in the result bag, for every deployment shape
    and under chaos faults.
    """

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=sql_queries())
    def test_service_results_match_direct_execution(
        self, configurations, service_configurations, marketplace_data, case
    ):
        sql, limit, expected = case
        for name, (est, parallelism) in configurations.items():
            service = service_configurations[name]
            direct = est.query(sql, dataset="shop", parallelism=parallelism)
            served = service.execute(
                sql, dataset="shop", parallelism=parallelism, tenant="diff"
            )
            if limit is None:
                assert _bag(served.rows) == _bag(direct.rows), (
                    f"service diverged from direct execution on {name} for {sql!r}"
                )
            else:
                # LIMIT answers are any-k: compare cardinality + containment.
                full = _bag(expected(marketplace_data))
                assert len(served.rows) == len(direct.rows)
                got = _bag(served.rows)
                assert all(got[key] <= full[key] for key in got), (
                    f"service returned rows outside the full answer on {name} for {sql!r}"
                )

    def test_service_results_match_baseline_under_chaos(self, chaos_configurations):
        from repro.service import QueryService, TenantPolicy

        queries = [
            "SELECT uid, name FROM users WHERE city = 'paris'",
            "SELECT uid, sku, category FROM purchases WHERE uid = 17",
            (
                "SELECT p.sku, v.duration_ms FROM purchases p, visits v "
                "WHERE p.uid = v.uid AND p.sku = v.sku"
            ),
            "SELECT category, COUNT(sku) AS n FROM purchases GROUP BY category",
        ]
        reference_est, _ = chaos_configurations["baseline"]
        expected = {
            sql: _bag(reference_est.query(sql, dataset="shop", parallelism=1).rows)
            for sql in queries
        }
        for name, (est, parallelism) in chaos_configurations.items():
            service = QueryService(
                est, workers=2, default_policy=TenantPolicy(max_concurrent=2, queue_depth=32)
            )
            try:
                for sql in queries:
                    served = service.execute(
                        sql, dataset="shop", parallelism=parallelism, tenant="chaos"
                    )
                    assert _bag(served.rows) == expected[sql], (
                        f"service over {name} diverged on {sql!r} (seed {CHAOS_SEED})"
                    )
            finally:
                service.close()


# -- the durable profile -------------------------------------------------------------


@contextmanager
def _durable_env(directory, segment_rows=64):
    """Build deployments with write-through durability into ``directory``.

    ``REPRO_SEGMENT_ROWS`` is pinned low so the marketplace volumes actually
    freeze segments — otherwise every scan would serve from the tail and the
    zone-pruning path would go untested.
    """
    saved = {
        key: os.environ.get(key) for key in ("REPRO_DURABLE", "REPRO_SEGMENT_ROWS")
    }
    os.environ["REPRO_DURABLE"] = str(directory)
    os.environ["REPRO_SEGMENT_ROWS"] = str(segment_rows)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@pytest.fixture(scope="module")
def durable_configurations(
    marketplace_builder,
    sharded_marketplace_builder,
    replicated_marketplace_builder,
    marketplace_data,
    tmp_path_factory,
):
    """Durable deployments under test, keyed by name.

    The baseline is the plain in-memory multi-store deployment; every other
    entry writes through a WAL + columnar-segment backing (one per-store
    subdirectory under a fresh tmpdir), so scans are served from frozen
    segments with zone-map pruning wherever no index applies.  The chaos
    entry layers seeded replica fault injection *on top of* durability.
    """
    root = tmp_path_factory.mktemp("durable-differential")
    with _durable_env(root / "serial"):
        serial = marketplace_builder(marketplace_data)
    with _durable_env(root / "sharded"):
        sharded = sharded_marketplace_builder(marketplace_data, shards=4)
    with _durable_env(root / "chaos"):
        chaos = replicated_marketplace_builder(
            marketplace_data,
            profiles={
                i: FaultProfile(seed=CHAOS_SEED * 307 + i, error_rate=0.25)
                for i in range(3)
            },
            policy=ReplicationPolicy(max_retries=4),
        )
    return {
        "baseline": (marketplace_builder(marketplace_data), 1),
        "durable_serial": (serial, 1),
        "durable_sharded": (sharded, 4),
        "durable_chaos": (chaos, 4),
    }


class TestDurableDifferential:
    """Serving scans from durable segments never changes an answer.

    Zone-map pruning, dictionary-code equality and tail merging change how
    rows are produced (and in what order the segments stream) — the bag must
    stay identical to the in-memory heap walk, for every deployment shape
    and with replica faults layered on top.
    """

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=sql_queries())
    def test_durable_queries_agree_with_in_memory_baseline(
        self, durable_configurations, marketplace_data, case
    ):
        _assert_matches_oracle(durable_configurations, case, marketplace_data)

    def test_durable_deployments_actually_touch_segments(self, durable_configurations):
        est, parallelism = durable_configurations["durable_serial"]
        result = est.query(
            "SELECT sku, price FROM purchases WHERE category = 'shoes'",
            dataset="shop",
            parallelism=parallelism,
        )
        activity = result.summary()["segments"]
        assert activity["scanned"] >= 1  # the durable path, not the heap walk
        baseline_est, _ = durable_configurations["baseline"]
        baseline = baseline_est.query(
            "SELECT sku, price FROM purchases WHERE category = 'shoes'",
            dataset="shop",
            parallelism=1,
        )
        assert baseline.summary()["segments"] == {
            "scanned": 0,
            "skipped": 0,
            "rows_decoded": 0,
        }

    def test_compaction_preserves_every_answer(self, durable_configurations):
        est, parallelism = durable_configurations["durable_serial"]
        queries = [
            "SELECT uid, name FROM users WHERE city = 'paris'",
            "SELECT uid, sku, price FROM purchases WHERE price > 250",
            "SELECT category, COUNT(sku) AS n FROM purchases GROUP BY category",
        ]
        before = {
            sql: _bag(est.query(sql, dataset="shop", parallelism=parallelism).rows)
            for sql in queries
        }
        reports = est.compact()
        assert reports  # at least one store folded its WAL
        for sql in queries:
            after = _bag(est.query(sql, dataset="shop", parallelism=parallelism).rows)
            assert after == before[sql], f"compaction changed the answer to {sql!r}"
