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

The **required-variable regressions** vary the *fragmentation* instead of
the deployment: a fragment that lacks a column a WHERE comparison reads must
not answer the statement (``NoRewritingFoundError``), and beside a fragment
that has it the answer is the oracle's.

The **rewrite-at-scale profile** checks the rewriting engine the same way:
random view catalogs with inclusion TGDs are rewritten by PACB and by the
classical backchase, cold and warm, and both must return exactly the
rewritings a brute-force oracle over plain tuples enumerates.

LIMIT queries are nondeterministic by design (any k rows of the answer are a
correct answer), so for them the harness checks cardinality and containment
in the oracle's full result instead of equality.

Every executed plan is also held to **required-column pruning**: no
delegated store request may fetch a variable that no ancestor reads.
"""

from __future__ import annotations

import itertools
import operator
import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.runtime import (
    Aggregate,
    Deduplicate,
    DelegatedRequest,
    FilterStage,
    FusedPipeline,
    HashJoin,
    OutputStage,
    ProjectStage,
)
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
_COMPARE = {
    ">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le, "!=": operator.ne
}
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
    (optionally pruned by a uid constant, optionally with a comparison on
    the purchases side), and aggregation over purchases
    with decomposable functions over unselected columns (behind an optional
    equality or range filter; grouped, or scalar — a scalar one whose filter
    selects nothing still answers one row) — plus an optional LIMIT on the
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
        # A comparison on one side of the join (its column in or out of SELECT).
        bound = draw(
            st.one_of(
                st.none(),
                st.tuples(st.sampled_from(sorted(_COMPARE)), st.integers(0, 500)),
            )
        )
        sql = (
            f"SELECT {select} FROM purchases p, visits v "
            "WHERE p.uid = v.uid AND p.sku = v.sku"
        )
        if uid is not None:
            sql += f" AND p.uid = {uid}"
        if bound is not None:
            sql += f" AND p.price {bound[0]} {bound[1]}"

        def expected(data):
            return [
                {name: {"p": p, "v": v}[side][column]
                 for name, side, column in _JOIN_PROJECTIONS[select]}
                for p in data.purchases()
                if uid is None or p["uid"] == uid
                if bound is None or _COMPARE[bound[0]](p["price"], bound[1])
                for v in data.weblog
                if p["uid"] == v["uid"] and p["sku"] == v["sku"]
            ]

    else:  # aggregate
        functions = draw(
            st.lists(st.sampled_from(sorted(_AGGREGATES)), min_size=1, max_size=3, unique=True)
        )
        # None: the scalar variant (no GROUP BY), one row even over no input.
        group = draw(st.sampled_from(["category", "uid", None]))
        filtered = draw(st.sampled_from(["none", "category", "price"]))
        if filtered == "category":
            # "none" has no purchases: grouped, the answer is empty; scalar, one row.
            category = draw(st.sampled_from(_CATEGORIES + ("none",)))
            where = f" WHERE category = '{category}'"
            keep = lambda p: p["category"] == category  # noqa: E731
        elif filtered == "price":
            # Out-of-range bounds let the predicate select nothing.
            price = draw(st.integers(min_value=0, max_value=500) | st.just(10**6))
            op = draw(st.sampled_from(sorted(_COMPARE)))
            where = f" WHERE price {op} {price}"
            keep = lambda p: _COMPARE[op](p["price"], price)  # noqa: E731
        else:
            where = ""
            keep = lambda p: True  # noqa: E731
        if group is None:
            sql = f"SELECT {', '.join(functions)} FROM purchases{where}"
        else:
            sql = f"SELECT {group}, {', '.join(functions)} FROM purchases{where} GROUP BY {group}"
        limit = None  # aggregates stay deterministic; compare them exactly

        def fold_group(members):
            # SQL: COUNT of nothing is 0, every other aggregate of nothing NULL.
            return {
                name: fold([p[column] for p in members]) if members or fold is len else None
                for name, column, fold in (_AGGREGATES[f] for f in functions)
            }

        def expected(data):
            kept = [p for p in data.purchases() if keep(p)]
            if group is None:
                return [fold_group(kept)]
            groups = {}
            for p in kept:
                groups.setdefault(p[group], []).append(p)
            return [{group: key} | fold_group(members) for key, members in groups.items()]

    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql, limit, expected


def _prefs_join(data):
    category = {u["uid"]: u["preferred_category"] for u in data.users}
    return [
        {"sku": p["sku"], "preferred_category": category[p["uid"]]}
        for p in data.purchases()
        if p["uid"] in category
    ]


def _visits_join(data):
    return [
        {"sku": v["sku"], "preferred_category": u["preferred_category"]}
        for u in data.users
        for v in data.weblog
        if v["uid"] == u["uid"]
    ]


# Fixed joins whose plans fetch the right side by the left side's keys: the
# first through the lookup-only key-value fragment F_prefs wherever the
# deployment hosts it, the second (by cost) through the sharded or
# replicated visits router where visits live in one.
_PREFS_JOIN = "SELECT p.sku, u.preferred_category FROM purchases p, users u WHERE p.uid = u.uid"
_KEYED_JOINS = (
    (_PREFS_JOIN, None, _prefs_join),
    ("SELECT v.sku, u.preferred_category FROM visits v, users u WHERE v.uid = u.uid", None, _visits_join),
)


def _assert_keyed_joins_match_oracle(configurations, data, note=""):
    """The fixed keyed joins answer like the oracle; F_prefs is reached keyed."""
    for case in _KEYED_JOINS:
        _assert_matches_oracle(configurations, case, data, note=note)
    for name, (est, _) in configurations.items():
        texts = [est.explain(sql, dataset="shop").plan_text() for sql, _, _ in _KEYED_JOINS]
        assert any("keyed=uid" in text for text in texts), f"{name} plans no keyed join"
        if "redis" in est.catalog.stores():
            assert "store=redis, prefs" in texts[0] and "keyed=uid" in texts[0], texts[0]


def _emitted(op) -> tuple:
    """The columns ``op`` emits, read off the plan (white-box: operator fields)."""
    if isinstance(op, DelegatedRequest):
        return tuple(op._output.values())
    if isinstance(op, HashJoin):  # plain, or keyed: its right side a keyed DelegatedRequest
        left, right = _emitted(op._left), _emitted(op._right)
        return op._columns or left + tuple(c for c in right if c not in left)
    if isinstance(op, FusedPipeline):
        schema = _emitted(op.child)
        for stage in op.stages:
            schema = stage.compile(schema)[0]
        return schema
    if isinstance(op, Aggregate):
        return op._group_by + tuple(getattr(op, "_final", op._aggregations))
    return _emitted(op.children()[0])  # Exchange, ShardGather, Deduplicate


def _unread_fetches(plan) -> set:
    """Variables some DelegatedRequest fetches that none of its ancestors reads.

    An ancestor reads a variable it filters, projects, outputs, groups,
    aggregates, deduplicates or joins on; the caller reads the root's columns.
    """
    unread: set = set()

    def visit(op, read: set) -> None:
        if isinstance(op, DelegatedRequest):
            unread.update(set(op._output.values()) - read)
        elif isinstance(op, FusedPipeline):
            reads = set()
            for stage in op.stages:
                if isinstance(stage, FilterStage):
                    reads |= {spec.column for spec in stage.specs}
                    reads |= {spec.value for spec in stage.specs if spec.value_is_column}
                elif isinstance(stage, ProjectStage):
                    reads |= set(stage.variables)
                else:
                    reads |= {payload for _, is_var, payload in stage.outputs if is_var}
            shaped = any(isinstance(s, (ProjectStage, OutputStage)) for s in op.stages)
            visit(op.child, reads | (set() if shaped else read))
        elif isinstance(op, HashJoin):
            keys = set(_emitted(op._left)) & set(_emitted(op._right))
            # A keyed right side is fetched by the values of one join key.
            assert op._key is None or op._key in keys, f"{op.describe()} keyed off its keys"
            for child in op.children():
                visit(child, read | keys)
        elif isinstance(op, Aggregate):
            inputs = {column for _, column in op._aggregations.values() if column is not None}
            visit(op.children()[0], set(op._group_by) | inputs)
        elif isinstance(op, Deduplicate):
            visit(op.children()[0], read | set(_emitted(op)))
        else:
            for child in op.children():
                visit(child, read)

    visit(plan, set(_emitted(plan)))
    return unread


def _refiltered(plan) -> set:
    """Comparisons a Filter stage evaluates that a DelegatedRequest below it carries."""

    def carried(op) -> set:
        if isinstance(op, DelegatedRequest):
            return set(op._where)
        return set().union(*map(carried, op.children()))

    twice: set = set()

    def visit(op) -> None:
        if isinstance(op, FusedPipeline):
            below = carried(op.child)
            for stage in op.stages:
                if isinstance(stage, FilterStage):
                    twice.update({spec.describe() for spec in stage.specs} & below)
        for child in op.children():
            visit(child)

    visit(plan)
    return twice


def _assert_matches_oracle(configurations, case, data, note=""):
    """Every ``(estocada, parallelism)`` deployment answers ``case`` like its oracle.

    Each deployment runs the statement twice: the repeat takes the warm path
    (memoized translation, cached plan, the lowered tree and its compiled
    kernels shared with the first run) and is held to the same oracle.  The
    executed plan must fetch nothing that it does not read, and evaluate no
    comparison both in a store request and in a Filter above it.
    """
    sql, limit, expected = case
    full = _bag(expected(data))
    for name, (est, parallelism) in configurations.items():
        for run in ("first run", "warm repeat"):
            result = est.query(sql, dataset="shop", parallelism=parallelism)
            rows = result.rows
            got = _bag(rows)
            where = f"{name} ({run})"
            assert not _unread_fetches(result.plan), f"{where} fetches unread columns on {sql!r}"
            assert not _refiltered(result.plan), f"{where} filters {sql!r} twice"
            if limit is None:
                assert got == full, f"{where} diverged from the oracle on {sql!r}{note}"
            else:
                # LIMIT: any k-subset of the full answer is correct — check the
                # row count and that every returned row belongs to the full bag.
                assert len(rows) == min(limit, sum(full.values())), (
                    f"{where} wrong count on {sql!r}{note}"
                )
                assert all(got[key] <= full[key] for key in got), (
                    f"{where} returned rows outside the full answer on {sql!r}{note}"
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

    def test_keyed_joins_agree_across_configurations(self, configurations, marketplace_data):
        _assert_keyed_joins_match_oracle(configurations, marketplace_data)

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
        self, sharded_marketplace_builder, marketplace_data, fresh_worker_budget
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


# -- the fragmentation: a rewriting must expose what the residual reads ---------------

_EVENT_COLUMNS = ("uid", "kind", "val", "ts")
_EVENTS = [
    {"uid": i % 13, "kind": f"k{i % 4}", "val": (i * 37) % 100, "ts": (i * 53) % 120}
    for i in range(300)
]


def _events_counts_by_kind(events):
    counts = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return [{"kind": kind, "n": n} for kind, n in counts.items()]


# id -> (sql, expected): each statement reads a column (`val`, and `ts` in
# the last) its SELECT list does not expose; `expected` is the plain-Python
# answer over _EVENTS.
_RESIDUAL_READS = {
    "select": (
        "SELECT uid, kind, ts FROM events WHERE val > 93",
        lambda events: [
            {"uid": e["uid"], "kind": e["kind"], "ts": e["ts"]} for e in events if e["val"] > 93
        ],
    ),
    "distinct": (
        "SELECT DISTINCT uid FROM events WHERE val > 93",
        lambda events: [{"uid": uid} for uid in {e["uid"] for e in events if e["val"] > 93}],
    ),
    "group_by": (
        "SELECT kind, COUNT(*) AS n FROM events WHERE val > 93 GROUP BY kind",
        lambda events: _events_counts_by_kind([e for e in events if e["val"] > 93]),
    ),
    "column_comparison": (
        "SELECT uid FROM events WHERE val > ts",
        lambda events: [{"uid": e["uid"]} for e in events if e["val"] > e["ts"]],
    ),
}


def _events_estocada(with_identity: bool):
    """``events`` stored as the narrow ``F_ev_narrow(uid, kind, ts)`` (no ``val``),
    plus the identity ``F_events`` when ``with_identity``."""
    from repro import Estocada
    from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
    from repro.core import Atom, ConjunctiveQuery, ViewDefinition
    from repro.datamodel import TableSchema
    from repro.stores import RelationalStore

    def fragment(name, columns):
        head = [f"?{column}" for column in columns]
        body = [Atom("events", [f"?{column}" for column in _EVENT_COLUMNS])]
        view = ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)
        return StorageDescriptor(
            name, "app", "pg", view, StorageLayout(name.lower()), AccessMethod("scan")
        )

    est = Estocada(parallelism=1)
    est.register_store("pg", RelationalStore("pg"))
    est.register_relational_dataset("app", [TableSchema("events", _EVENT_COLUMNS)])
    fragments = [("F_ev_narrow", ("uid", "kind", "ts"))]
    if with_identity:
        fragments.append(("F_events", _EVENT_COLUMNS))
    for name, columns in fragments:
        rows = [{column: event[column] for column in columns} for event in _EVENTS]
        est.register_fragment(fragment(name, columns), rows=rows)
    return est


class TestRequiredResidualVariables:
    """A fragment lacking a column a WHERE comparison reads is not a rewriting.

    The narrow fragment alone must be refused (``NoRewritingFoundError``),
    not answer with a filter that reads nothing; beside the identity
    fragment, the answer is the oracle's.
    """

    @pytest.mark.parametrize("with_identity", [False, True], ids=["narrow_only", "with_identity"])
    @pytest.mark.parametrize("shape", sorted(_RESIDUAL_READS))
    def test_residual_columns_are_required(self, shape, with_identity):
        from repro.errors import NoRewritingFoundError

        sql, oracle = _RESIDUAL_READS[shape]
        est = _events_estocada(with_identity)
        if not with_identity:
            with pytest.raises(NoRewritingFoundError):
                est.query(sql, dataset="app")
            return
        expected = oracle(_EVENTS)
        assert expected, "the oracle answer must not be empty"
        for run in ("first run", "warm repeat"):
            assert _bag(est.query(sql, dataset="app").rows) == _bag(expected), run


# -- the rewrite-at-scale profile ----------------------------------------------------
#
# The reference is a brute-force rewriting oracle over plain tuples; it uses
# nothing of repro's chase, homomorphism, containment, PACB, backchase, index
# or memo modules.  Every term is a variable (a plain string), an atom is
# ``(relation, terms)``, a view ``name -> (head, body)``, an inclusion TGD
# ``(body_atom, head_atom)`` and a query ``(head, body)``.


def _homs(pattern, facts, seed=()):
    """Every extension of ``seed`` sending each pattern atom onto a fact."""

    def extend(position, mapping):
        if position == len(pattern):
            yield mapping
            return
        relation, terms = pattern[position]
        for fact_relation, fact_terms in facts:
            if fact_relation != relation:
                continue
            extended = dict(mapping)
            if all(extended.setdefault(t, f) == f for t, f in zip(terms, fact_terms)):
                yield from extend(position + 1, extended)

    yield from extend(0, dict(seed))


def _saturate(facts, tgds):
    """The fixpoint of ``facts`` under the (existential-free) TGDs."""
    facts = set(facts)
    while True:
        derived = {
            (head[0], tuple(h[t] for t in head[1]))
            for body, head in tgds
            for h in _homs([body], facts)
        } - facts
        if not derived:
            return facts
        facts |= derived


def _expand(view_atoms, views):
    """Each view atom replaced by its view's body, existentials fresh per atom."""
    facts = set()
    for position, (name, arguments) in enumerate(view_atoms):
        head, body = views[name]
        binding = dict(zip(head, arguments))
        for relation, terms in body:
            facts.add((relation, tuple(binding.get(t, (position, t)) for t in terms)))
    return facts


def _canon(head, body):
    """A fingerprint invariant under variable renaming and body order.

    Terms are renamed by first occurrence (head first), minimized over the
    body's permutations (rewriting bodies are small).
    """
    best = None
    for permutation in itertools.permutations(body):
        names = {}
        key = (
            tuple(names.setdefault(t, len(names)) for t in head),
            tuple(
                (relation, tuple(names.setdefault(t, len(names)) for t in terms))
                for relation, terms in permutation
            ),
        )
        if best is None or key < best:
            best = key
    return best


def _universal_plan(views, tgds, query):
    """Every image of a view body in the saturated query body, as view atoms."""
    saturated = _saturate(query[1], tgds)
    return sorted(
        {
            (name, tuple(h[t] for t in view_head))
            for name, (view_head, view_body) in views.items()
            for h in _homs(view_body, saturated)
        }
    )


def _oracle_rewritings(plan, views, tgds, query):
    """Fingerprints of the subset-minimal rewritings, by enumeration.

    A subset of the universal ``plan`` is a rewriting iff the query maps
    into the subset's saturated expansion with the head fixed (which also
    forces the subset to expose every head variable); the other containment
    holds by construction.
    """
    head, body = query
    minimal = []
    for size in range(1, len(plan) + 1):
        for subset in itertools.combinations(plan, size):
            if any(set(smaller) <= set(subset) for smaller in minimal):
                continue
            expansion = _saturate(_expand(subset, views), tgds)
            if next(_homs(body, expansion, {t: t for t in head}), None) is not None:
                minimal.append(subset)
    return {_canon(head, subset) for subset in minimal}


def _alpha_canonical(query):
    """:func:`_canon` of a constant-free ``ConjunctiveQuery``.

    The chase invents labelled nulls from a global counter, so the same
    logical rewriting carries different variable names across runs.
    """
    return _canon(
        tuple(term.name for term in query.head_terms),
        [(atom.relation, tuple(term.name for term in atom.terms)) for atom in query.body],
    )


def _program_rewriter(views, tgds, query, algorithm):
    """The scenario as ``repro`` objects: ``(Rewriter, pivot query)``."""
    from repro.core import TGD, Atom, ConjunctiveQuery, Rewriter, ViewDefinition

    def atom(relation, terms):
        return Atom(relation, [f"?{term}" for term in terms])

    def conjunctive(name, head, body):
        return ConjunctiveQuery(
            name, [f"?{term}" for term in head], [atom(*member) for member in body]
        )

    rewriter = Rewriter(
        [ViewDefinition(name, conjunctive(name, *view)) for name, view in views.items()],
        [
            TGD([atom(*body)], [atom(*head)], name=f"tgd{position}")
            for position, (body, head) in enumerate(tgds)
        ],
        algorithm=algorithm,
    )
    return rewriter, conjunctive("Q", *query)


_PIVOT_RELATIONS = ("rel0", "rel1", "rel2", "rel3")


@st.composite
def view_catalogs(draw):
    """Random binary relations, views, 0-2 inclusion TGDs and a chain query.

    The TGDs may be cyclic and may flip their arguments; the query is a chain
    of 1-3 atoms whose head is its two ends, its first variable or all of
    its variables.
    """
    relations = list(
        _PIVOT_RELATIONS[: draw(st.integers(min_value=2, max_value=4))]
    )
    views = {}
    for position in range(draw(st.integers(min_value=1, max_value=5))):
        shape = draw(st.sampled_from(["identity", "projection", "join"]))
        first = draw(st.sampled_from(relations))
        if shape == "identity":
            head, body = ("a", "b"), [(first, ("a", "b"))]
        elif shape == "projection":
            head, body = ("a",), [(first, ("a", "b"))]
        else:
            second = draw(st.sampled_from(relations))
            head = ("a", "c")
            body = [(first, ("a", "b")), (second, ("b", "c"))]
        views[f"V{position}"] = (head, body)
    tgds = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if tgds and draw(st.booleans()):
            # Close the cycle: only then is a view the query reaches through
            # a TGD alone an equivalent rewriting (what closure() is for).
            tgds.append(tgds[0][::-1])
            continue
        source = draw(st.sampled_from(relations))
        target = draw(st.sampled_from(relations))
        # relX(x, y) -> relX(x, y) says nothing; between distinct relations
        # both argument orders are drawn.
        flipped = source == target or draw(st.booleans())
        tgds.append(((source, ("x", "y")), (target, ("y", "x") if flipped else ("x", "y"))))
    length = draw(st.integers(min_value=1, max_value=3))
    variables = tuple(f"q{i}" for i in range(length + 1))
    body = [
        (draw(st.sampled_from(relations)), (variables[i], variables[i + 1]))
        for i in range(length)
    ]
    head = draw(
        st.sampled_from([(variables[0], variables[-1]), (variables[0],), variables])
    )
    return views, tgds, (head, body)


class TestIndexedRewritingDifferential:
    """Candidate selection and the memos never change a rewriting result.

    The signature index prunes candidate views and chase constraints, and
    the memos replay chases and containment verdicts.  Both must be
    invisible: for every random catalog the program finds exactly the
    oracle's rewritings (up to variable renaming and body order), cold and
    warm, and on the marketplace deployment a cold and a warm explain agree
    on the winning plan and its cost estimate.
    """

    @settings(max_examples=200, deadline=None)
    @given(scenario=view_catalogs())
    def test_rewritings_match_oracle(self, scenario):
        from repro.core import clear_memos

        views, tgds, query = scenario
        # The oracle and the classical backchase both enumerate the subsets
        # of the universal plan: seconds per example beyond 8 view atoms.
        plan = _universal_plan(views, tgds, query)
        assume(len(plan) <= 8)
        expected = _oracle_rewritings(plan, views, tgds, query)
        for algorithm in ("pacb", "classical"):
            rewriter, pivot_query = _program_rewriter(views, tgds, query, algorithm)
            clear_memos()
            for temperature in ("cold", "warm"):
                found = {
                    _alpha_canonical(rewriting)
                    for rewriting in rewriter.rewrite(pivot_query).rewritings
                }
                assert found == expected, (
                    f"{temperature} {algorithm} diverged from the oracle on {query} "
                    f"over {views} under {tgds}"
                )

    @pytest.mark.parametrize("algorithm", ["pacb", "classical"])
    def test_view_reached_only_through_a_tgd(self, algorithm):
        """The closure must follow TGDs: the query never mentions ``relB``.

        With ``relA ⊆ relB`` alone the ``relB`` view is a candidate but not
        an equivalent rewriting; with ``relB ⊆ relA`` as well it is the only
        one, and a closure that stopped at the query's own relations would
        silently drop it.
        """
        views = {"VB": (("a", "b"), [("relB", ("a", "b"))])}
        query = (("x", "y"), [("relA", ("x", "y"))])
        forth = (("relA", ("x", "y")), ("relB", ("x", "y")))
        back = (("relB", ("x", "y")), ("relA", ("x", "y")))
        through_view = {_canon(("x", "y"), [("VB", ("x", "y"))])}
        for tgds, expected in (([forth], set()), ([forth, back], through_view)):
            plan = _universal_plan(views, tgds, query)
            assert _oracle_rewritings(plan, views, tgds, query) == expected
            rewriter, pivot_query = _program_rewriter(views, tgds, query, algorithm)
            assert {
                _alpha_canonical(rewriting)
                for rewriting in rewriter.rewrite(pivot_query).rewritings
            } == expected

    def test_winning_plan_cost_agrees_on_the_marketplace(
        self, marketplace_builder, marketplace_data
    ):
        from repro.core import Atom, ConjunctiveQuery, Constant, clear_memos

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
        est = marketplace_builder(marketplace_data)

        def chosen():
            return [
                (
                    explanation.chosen.estimate.total_cost,
                    explanation.plan_text(),
                    len(explanation.rewritings),
                )
                for explanation in (est.explain(query) for query in queries)
            ]

        clear_memos()
        cold = chosen()
        assert chosen() == cold


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

    def test_chaos_keyed_joins_agree_with_the_oracle(
        self, chaos_configurations, marketplace_data
    ):
        _assert_keyed_joins_match_oracle(
            chaos_configurations, marketplace_data, note=f" (seed {CHAOS_SEED})"
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


# The segment size is pinned low so the marketplace volumes actually freeze
# segments — otherwise every scan would serve from the tail and the
# zone-pruning path would go untested.
_DURABLE_SEGMENT_ROWS = 64


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

    def durable(name):
        return {"durable_path": str(root / name), "segment_rows": _DURABLE_SEGMENT_ROWS}

    serial = marketplace_builder(marketplace_data, **durable("serial"))
    sharded = sharded_marketplace_builder(marketplace_data, shards=4, **durable("sharded"))
    chaos = replicated_marketplace_builder(
        marketplace_data,
        profiles={
            i: FaultProfile(seed=CHAOS_SEED * 307 + i, error_rate=0.25)
            for i in range(3)
        },
        policy=ReplicationPolicy(max_retries=4),
        **durable("chaos"),
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

    def test_durable_keyed_joins_agree_with_the_oracle(
        self, durable_configurations, marketplace_data
    ):
        _assert_keyed_joins_match_oracle(durable_configurations, marketplace_data)

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
