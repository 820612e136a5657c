"""Tests for the scatter-gather runtime and the statistics feedback loop.

Covers the Exchange/ExecutorPool layer (serial fallback, overlap,
cancellation, error propagation), the thread-safe store metrics finalization,
the serial-vs-parallel equivalence property across workload queries and batch
sizes, and the observed-cardinality feedback into the statistics catalog and
plan cache.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Atom, ConjunctiveQuery, Constant
from repro.errors import ExecutionError
from repro.runtime import (
    ExecutionContext,
    ExecutionEngine,
    Exchange,
    ExecutorPool,
    Operator,
    RowBatch,
    default_parallelism,
)
from repro.stores import RelationalStore, ScanRequest


def _bag(rows):
    """Order-insensitive fingerprint of a result's binding dicts."""
    return Counter(tuple(sorted(row.items())) for row in rows)


class _Rows(Operator):
    """A batch source over fixed rows (optionally failing mid-stream)."""

    def __init__(self, columns, rows, fail_after=None):
        self._columns = tuple(columns)
        self._rows = list(rows)
        self._fail_after = fail_after

    def _batches(self, context):
        for index in range(0, len(self._rows), context.batch_size):
            if self._fail_after is not None and index >= self._fail_after:
                raise ExecutionError("injected failure")
            yield RowBatch(self._columns, self._rows[index : index + context.batch_size])


def _scan_plan(store, collection="t", fragment=None):
    from repro.runtime import DelegatedRequest

    return DelegatedRequest(
        store=store,
        request=ScanRequest(collection),
        output={"a": "a"},
        fragment=fragment,
    )


def _slow_store(name="pg", rows=64, latency=0.02):
    store = RelationalStore(name, latency=latency)
    store.create_table("t", ["a"])
    store.insert("t", [{"a": i} for i in range(rows)])
    return store


class TestExchange:
    def test_serial_fallback_is_pass_through(self):
        source = _Rows(("a",), [(i,) for i in range(10)])
        exchange = Exchange(source)
        context = ExecutionContext(batch_size=3)
        assert context.pool is None
        batches = list(exchange.batches(context))
        assert [b.rows for b in batches] == [b.rows for b in source.batches(ExecutionContext(batch_size=3))]

    def test_parallel_execution_preserves_batch_order(self):
        engine = ExecutionEngine(batch_size=4)
        plan = Exchange(_Rows(("a",), [(i,) for i in range(25)]))
        serial = engine.execute(plan, parallelism=1)
        parallel = engine.execute(plan, parallelism=4)
        assert serial.rows == parallel.rows
        assert parallel.parallelism == 4
        engine.close()

    def test_worker_errors_propagate_to_consumer(self):
        engine = ExecutionEngine(batch_size=4)
        plan = Exchange(_Rows(("a",), [(i,) for i in range(32)], fail_after=8))
        with pytest.raises(ExecutionError):
            engine.execute(plan, parallelism=2)
        engine.close()

    def test_pool_narrower_than_plan_does_not_deadlock(self):
        # Five exchanges, two workers: pending tasks are stolen and run
        # inline by the consumer instead of deadlocking on the bounded queue.
        from repro.runtime import HashJoin

        root = Exchange(_Rows(("a",), [(i,) for i in range(20)]))
        for _ in range(4):
            root = HashJoin(root, Exchange(_Rows(("a",), [(i,) for i in range(20)])))
        engine = ExecutionEngine(batch_size=7)
        serial = engine.execute(root, parallelism=1)
        parallel = engine.execute(root, parallelism=2)
        assert _bag(serial.rows) == _bag(parallel.rows)
        engine.close()

    def test_exchange_workers_overlap_store_latency(self, fresh_worker_budget):
        from repro.runtime import HashJoin

        stores = [_slow_store(f"s{i}") for i in range(3)]
        plans = [Exchange(_scan_plan(store)) for store in stores]
        root = HashJoin(HashJoin(plans[0], plans[1]), plans[2])
        engine = ExecutionEngine()
        serial = engine.execute(root, parallelism=1)
        parallel = engine.execute(root, parallelism=4)
        assert _bag(serial.rows) == _bag(parallel.rows)
        assert parallel.elapsed_seconds < serial.elapsed_seconds
        assert parallel.max_concurrent_requests >= 2
        assert serial.max_concurrent_requests == 1
        engine.close()

    def test_runtime_metrics_are_not_lost_under_concurrency(self):
        # Worker sub-contexts are merged on the consumer thread only, so the
        # unlocked consumer-side counter updates can never race with a merge:
        # serial and parallel runs must report identical totals.
        from repro.runtime import HashJoin

        stores = [_slow_store(f"m{i}", rows=128, latency=0.0) for i in range(3)]
        root = HashJoin(
            HashJoin(Exchange(_scan_plan(stores[0])), Exchange(_scan_plan(stores[1]))),
            Exchange(_scan_plan(stores[2])),
        )
        engine = ExecutionEngine(batch_size=16)
        serial = engine.execute(root, parallelism=1)
        for _ in range(5):
            parallel = engine.execute(root, parallelism=3)
            assert parallel.runtime_rows_processed == serial.runtime_rows_processed
            totals = {
                name: b.rows_returned for name, b in parallel.store_breakdown.items()
            }
            assert totals == {
                name: b.rows_returned for name, b in serial.store_breakdown.items()
            }
        engine.close()


class TestCancellation:
    def test_limit_under_exchange_closes_all_child_streams(self, marketplace_builder, marketplace_data):
        est = marketplace_builder(marketplace_data)
        for store_name in ("pg", "spark"):
            est.catalog.store(store_name).set_simulated_latency(0.01)
        baseline_threads = threading.active_count()
        sql = (
            "SELECT p.sku, v.duration_ms FROM purchases p, visits v "
            "WHERE p.sku = v.sku LIMIT 3"
        )
        result = est.query(sql, dataset="shop", parallelism=4)
        assert len(result.rows) == 3
        # Every delegated stream was finalized: each store that served a
        # request folded it into its cumulative counters exactly once.
        for name, breakdown in result.store_breakdown.items():
            store = est.catalog.store(name)
            assert store.requests_served >= breakdown.requests
        # Workers were joined before execute() returned; only the (idle)
        # pool threads of the width-4 pool may remain.
        assert threading.active_count() <= baseline_threads + 4

    def test_stream_finalization_is_idempotent_across_threads(self):
        store = _slow_store(latency=0.0)
        stream = store.execute_batches(ScanRequest("t"), ("a",), batch_size=8)
        chunks = iter(stream)
        next(chunks)
        errors = []

        def close_stream():
            try:
                stream.close()
            except Exception as error:  # pragma: no cover - the test fails below
                errors.append(error)

        threads = [threading.Thread(target=close_stream) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert stream.finalized
        # Exactly one request was folded into the cumulative counters.
        assert store.requests_served == 1
        assert stream.metrics.rows_returned == 8
        # Closing again (consumer side) stays a no-op.
        chunks.close()
        stream.close()
        assert store.requests_served == 1


class _SlowRows(Operator):
    """A batch source that sleeps between batches and counts what it produced."""

    def __init__(self, columns, rows, delay=0.005):
        self._columns = tuple(columns)
        self._rows = list(rows)
        self._delay = delay
        self.batches_produced = 0

    def _batches(self, context):
        import time

        for index in range(0, len(self._rows), context.batch_size):
            time.sleep(self._delay)
            self.batches_produced += 1
            yield RowBatch(self._columns, self._rows[index : index + context.batch_size])


class TestFailFastPropagation:
    """A worker failure must cancel siblings and surface the original error.

    Regression: before the FailureSignal, a failure in a late ShardGather
    branch surfaced only after every earlier branch was fully drained, and
    sibling workers kept issuing store requests for a doomed execution.
    """

    def test_late_branch_failure_surfaces_before_slow_siblings_drain(self):
        from repro.runtime import ShardGather

        slow = _SlowRows(("a",), [(i,) for i in range(400)], delay=0.005)
        failing = _Rows(("a",), [(i,) for i in range(32)], fail_after=4)
        plan = ShardGather(
            [Exchange(slow, label="slow"), Exchange(failing, label="failing")],
            fragment="F_chaos",
        )
        engine = ExecutionEngine(batch_size=4)
        with pytest.raises(ExecutionError, match="injected failure"):
            engine.execute(plan, parallelism=4)
        # The slow sibling was cancelled long before its 100 batches ran out:
        # the failure fired within the first batches of the failing branch.
        assert slow.batches_produced < 100
        engine.close()

    def test_original_traceback_is_preserved(self):
        from repro.runtime import ShardGather

        slow = _SlowRows(("a",), [(i,) for i in range(200)], delay=0.005)
        failing = _Rows(("a",), [(i,) for i in range(8)], fail_after=0)
        plan = ShardGather([Exchange(slow), Exchange(failing)])
        engine = ExecutionEngine(batch_size=4)
        with pytest.raises(ExecutionError) as excinfo:
            engine.execute(plan, parallelism=4)
        import traceback

        frames = traceback.extract_tb(excinfo.value.__traceback__)
        # The failing operator's own frame is in the surfaced traceback.
        assert any(frame.name == "_batches" for frame in frames)
        engine.close()

    def test_hash_join_build_failure_cancels_probe_side(self):
        from repro.runtime import HashJoin

        slow = _SlowRows(("a",), [(i,) for i in range(400)], delay=0.005)
        failing = _Rows(("a",), [(i,) for i in range(32)], fail_after=4)
        plan = HashJoin(Exchange(slow), Exchange(failing))
        engine = ExecutionEngine(batch_size=4)
        with pytest.raises(ExecutionError, match="injected failure"):
            engine.execute(plan, parallelism=4)
        assert slow.batches_produced < 100
        engine.close()

    def test_serial_execution_error_semantics_unchanged(self):
        from repro.runtime import ShardGather

        healthy = _Rows(("a",), [(i,) for i in range(8)])
        failing = _Rows(("a",), [(i,) for i in range(8)], fail_after=4)
        plan = ShardGather([Exchange(healthy), Exchange(failing)])
        engine = ExecutionEngine(batch_size=4)
        with pytest.raises(ExecutionError, match="injected failure"):
            engine.execute(plan, parallelism=1)
        engine.close()

    def test_successful_runs_do_not_trip_the_signal(self):
        from repro.runtime import ShardGather

        branches = [Exchange(_Rows(("a",), [(i,) for i in range(20)])) for _ in range(3)]
        plan = ShardGather(branches)
        engine = ExecutionEngine(batch_size=4)
        result = engine.execute(plan, parallelism=4)
        assert len(result.rows) == 60
        engine.close()


QUERIES = [
    ("SELECT uid FROM users WHERE city = 'paris'", "shop"),
    ("SELECT uid, COUNT(sku) AS n FROM purchases GROUP BY uid", "shop"),
    (
        "SELECT p.sku, v.duration_ms FROM purchases p, visits v "
        "WHERE p.uid = 2 AND v.uid = 2 AND p.sku = v.sku",
        "shop",
    ),
    ("SELECT sku, price FROM purchases WHERE price > 400", "shop"),
]

PIVOT_QUERIES = [
    ConjunctiveQuery("Q_prefs", ["?pc"], [Atom("users", [Constant(7), "?n", "?c", "?p", "?pc"])]),
    ConjunctiveQuery(
        "Q_fanout",
        ["?u", "?s", "?d"],
        [
            Atom("users", ["?u", "?n", "?c", "?p", "?pc"]),
            Atom("purchases", ["?u", "?s", "?cat", "?q", "?pr"]),
            Atom("visits", ["?u", "?s", "?cat2", "?d"]),
        ],
    ),
]


class TestSerialParallelEquivalence:
    """The property the refactor must preserve: parallelism never changes results."""

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_sql_queries_bag_equal(self, marketplace_builder, marketplace_data, batch_size):
        serial = marketplace_builder(marketplace_data)
        serial._engine = ExecutionEngine(batch_size=batch_size, parallelism=1)
        parallel = marketplace_builder(marketplace_data)
        parallel._engine = ExecutionEngine(batch_size=batch_size, parallelism=4)
        for sql, dataset in QUERIES:
            expected = serial.query(sql, dataset=dataset)
            got = parallel.query(sql, dataset=dataset)
            assert _bag(got.rows) == _bag(expected.rows), sql
        parallel._engine.close()

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_pivot_queries_bag_equal(self, marketplace_builder, marketplace_data, batch_size):
        est = marketplace_builder(marketplace_data)
        est._engine = ExecutionEngine(batch_size=batch_size)
        for query in PIVOT_QUERIES:
            expected = est.query(query, parallelism=1)
            got = est.query(query, parallelism=4)
            assert _bag(got.rows) == _bag(expected.rows), query.name
        est._engine.close()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        uid=st.integers(min_value=0, max_value=59),
        batch_size=st.sampled_from([1, 7, 1024]),
        parallelism=st.integers(min_value=2, max_value=6),
    )
    def test_point_join_property(self, shared_marketplace, uid, batch_size, parallelism):
        query = ConjunctiveQuery(
            "Q_point",
            ["?s", "?d"],
            [
                Atom("purchases", [Constant(uid), "?s", "?c", "?q", "?pr"]),
                Atom("visits", [Constant(uid), "?s", "?c2", "?d"]),
            ],
        )
        expected = shared_marketplace.query(query, parallelism=1)
        got = shared_marketplace.query(query, parallelism=parallelism)
        assert _bag(got.rows) == _bag(expected.rows)


@pytest.fixture(scope="module")
def shared_marketplace(marketplace_builder, marketplace_data):
    """One deployment reused across hypothesis examples (plans are cached)."""
    return marketplace_builder(marketplace_data)


class TestFeedbackLoop:
    def _single_store(self, rows=10):
        from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
        from repro.core import ViewDefinition
        from repro.datamodel import TableSchema
        from repro import Estocada

        est = Estocada()
        pg = RelationalStore("pg")
        est.register_store("pg", pg)
        est.register_relational_dataset("db", [TableSchema("users", ("uid", "name"))])
        view = ViewDefinition(
            "F_u",
            ConjunctiveQuery("F_u", ["?u", "?n"], [Atom("users", ["?u", "?n"])]),
            column_names=("uid", "name"),
        )
        est.register_fragment(
            StorageDescriptor(
                "F_u", "db", "pg", view, StorageLayout("users"), AccessMethod("scan")
            ),
            rows=[{"uid": i, "name": f"n{i}"} for i in range(rows)],
        )
        return est, pg

    def test_observed_cardinalities_are_reported(self):
        est, _ = self._single_store(rows=10)
        query = ConjunctiveQuery("Q", ["?u", "?n"], [Atom("users", ["?u", "?n"])])
        result = est.query(query)
        assert result.observed_cardinalities == {"F_u": 10}

    def test_ewma_refresh_tracks_data_growth(self):
        est, pg = self._single_store(rows=10)
        query = ConjunctiveQuery("Q", ["?u", "?n"], [Atom("users", ["?u", "?n"])])
        est.query(query)
        assert est.cost_model.estimated_cardinality("F_u") == 10
        pg.insert("users", [{"uid": 100 + i, "name": f"x{i}"} for i in range(190)])
        estimates = []
        for _ in range(6):
            est.query(query)
            estimates.append(est.cost_model.estimated_cardinality("F_u"))
        # Monotone convergence toward the true cardinality (200).
        assert estimates == sorted(estimates)
        assert estimates[0] > 10
        assert estimates[-1] > 150

    def test_drift_invalidates_cached_plans(self):
        est, pg = self._single_store(rows=10)
        query = ConjunctiveQuery("Q", ["?u", "?n"], [Atom("users", ["?u", "?n"])])
        est.query(query)
        est.query(query)
        assert est.cache_stats()["hits"] == 1
        assert est.cache_stats()["invalidations"] == 0
        pg.insert("users", [{"uid": 100 + i, "name": f"x{i}"} for i in range(190)])
        est.query(query)  # observes 200 vs estimate 10 -> drift
        stats = est.cache_stats()
        assert stats["invalidations"] >= 1
        assert stats["entries"] == 0
        # Once the estimate converges, entries stay cached again.
        for _ in range(8):
            est.query(query)
        final = est.cache_stats()
        assert final["entries"] == 1

    def test_limit_abandoned_scan_records_no_observation(self, marketplace_builder, marketplace_data):
        est = marketplace_builder(marketplace_data)
        # Serial execution: the LIMIT abandons the scan mid-stream, and the
        # partial row count must not be fed back as the fragment's
        # cardinality.  (In a parallel run the Exchange worker may drain the
        # whole small scan before cancellation lands — then the stream *was*
        # exhausted and observing it is correct, checked below.)
        result = est.query(
            "SELECT uid, sku FROM purchases LIMIT 2", dataset="shop", parallelism=1
        )
        assert "F_purchases" not in result.observed_cardinalities
        true_rows = len(marketplace_data.purchases())
        parallel = est.query(
            "SELECT uid, sku FROM purchases LIMIT 2", dataset="shop", parallelism=4
        )
        observed = parallel.observed_cardinalities.get("F_purchases")
        assert observed is None or observed == true_rows


class TestFacadeSurface:
    def test_default_parallelism_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "4")
        assert default_parallelism() == 4
        assert ExecutionEngine().parallelism == 4
        monkeypatch.setenv("REPRO_PARALLELISM", "garbage")
        assert default_parallelism() == 1
        monkeypatch.delenv("REPRO_PARALLELISM")
        assert default_parallelism() == 1

    def test_executor_config_and_summary(self, marketplace_builder, marketplace_data):
        est = marketplace_builder(marketplace_data)
        config = est.executor_config()
        assert config["parallelism"] == est.parallelism
        result = est.query(
            "SELECT uid FROM users WHERE city = 'paris'", dataset="shop", parallelism=2
        )
        summary = result.summary()
        assert summary["parallelism"] == 2
        assert summary["max_concurrent_requests"] >= 1
        assert "parallelism: 2" in result.plan_description

    def test_executor_pool_is_bounded(self):
        pool = ExecutorPool(2)
        assert pool.width == 2
        release = threading.Event()
        running = threading.Semaphore(0)

        def blocker():
            running.release()
            release.wait(timeout=5)

        blockers = [pool.submit(blocker) for _ in range(2)]
        extra = pool.submit(lambda: "ran")
        assert running.acquire(timeout=5) and running.acquire(timeout=5)
        # Both workers are occupied: the third task cannot have run yet.
        assert not extra.done()
        release.set()
        assert extra.result(timeout=5) == "ran"
        for future in blockers:
            future.result(timeout=5)
        pool.close()


class TestDeadlines:
    """Per-query deadlines ride the cooperative-cancellation machinery."""

    def test_serial_overrun_raises_typed_error_promptly(self):
        import time

        from repro.errors import DeadlineExceededError

        store = _slow_store(latency=0.5)
        engine = ExecutionEngine(parallelism=1)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError) as excinfo:
            engine.execute(_scan_plan(store), deadline_seconds=0.05)
        elapsed = time.perf_counter() - started
        assert excinfo.value.deadline_seconds == 0.05
        # The store's 0.5 s simulated latency was interrupted, not served out.
        assert elapsed < 0.4

    def test_parallel_overrun_cancels_exchange_workers_and_store_requests(self):
        import time

        from repro.errors import DeadlineExceededError

        store = _slow_store(latency=0.5, rows=256)
        engine = ExecutionEngine(parallelism=4)
        baseline_threads = threading.active_count()
        started = time.perf_counter()
        try:
            with pytest.raises(DeadlineExceededError):
                engine.execute(Exchange(_scan_plan(store)), deadline_seconds=0.05)
            elapsed = time.perf_counter() - started
            assert elapsed < 0.4
            # Workers were joined on the way out; only the width-4 pool's idle
            # threads may outlive the query.
            assert threading.active_count() <= baseline_threads + 4
        finally:
            engine.close()

    def test_deadline_mid_stream_releases_service_queue_slot(self):
        from repro.errors import DeadlineExceededError
        from repro.estocada import Estocada
        from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
        from repro.core import ViewDefinition
        from repro.datamodel import TableSchema
        from repro.service import QueryService, TenantPolicy

        est = Estocada()
        est.register_store("pg", RelationalStore("pg", latency=0.3))
        est.register_relational_dataset("d", [TableSchema("t", ("a", "b"))])
        est.register_fragment(
            StorageDescriptor(
                "F_t", "d", "pg",
                ViewDefinition(
                    "F_t",
                    ConjunctiveQuery("F_t", ["?a", "?b"], [Atom("t", ["?a", "?b"])]),
                    column_names=("a", "b"),
                ),
                StorageLayout("t"), AccessMethod("scan"),
            ),
            rows=[{"a": i, "b": i * 2} for i in range(8)],
        )
        sql = "SELECT a, b FROM t"
        service = QueryService(
            est, workers=2, default_policy=TenantPolicy(max_concurrent=1, queue_depth=4)
        )
        try:
            doomed = service.submit(sql, dataset="d", tenant="x", deadline_seconds=0.03)
            follow_up = service.submit(sql, dataset="d", tenant="x")
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5)
            # The expired query released its concurrency slot: the queued
            # follow-up (same tenant, max_concurrent=1) runs to completion.
            assert len(follow_up.result(timeout=5).rows) == 8
        finally:
            service.close()

    def test_generous_deadline_leaves_results_untouched(self):
        store = _slow_store(latency=0.0)
        engine = ExecutionEngine(parallelism=1)
        bounded = engine.execute(_scan_plan(store), deadline_seconds=30.0)
        unbounded = engine.execute(_scan_plan(store))
        assert _bag(bounded.rows) == _bag(unbounded.rows)

    def test_deadline_object_lifecycle(self):
        from repro.cancellation import Deadline

        deadline = Deadline(30.0)
        deadline.start()
        try:
            assert not deadline.expired()
            assert 0 < deadline.remaining() <= 30.0
        finally:
            deadline.cancel()
        listener = threading.Event()
        expired = Deadline(0.0)
        expired.start()
        expired.add_listener(listener)
        # A listener registered after the fact is signalled immediately.
        assert listener.wait(timeout=1)
        assert expired.expired()
        assert expired.remaining() == 0.0


class TestWorkerBudget:
    """ExecutorPool grants draw from one process-wide worker pot."""

    def test_grants_are_clamped_and_returned(self, monkeypatch):
        from repro.runtime import active_pool_workers, worker_budget

        monkeypatch.setenv("REPRO_WORKER_BUDGET", "4")
        baseline = active_pool_workers()
        assert worker_budget() == 4
        first = ExecutorPool(3)
        second = ExecutorPool(3)
        try:
            assert first.width == min(3, max(1, 4 - baseline))
            # The pot is (nearly) drained: the second pool is clamped far
            # below its request instead of oversubscribing the process.
            assert second.requested_width == 3
            assert first.width + second.width <= max(4, baseline + 2)
            assert second.width < 3 or baseline == 0 and first.width < 3
        finally:
            first.close()
            second.close()
        assert active_pool_workers() == baseline
        # close() is idempotent: the grant is returned exactly once.
        first.close()
        assert active_pool_workers() == baseline

    def test_exhausted_budget_still_grants_one_worker(self, monkeypatch):
        from repro.runtime import active_pool_workers

        monkeypatch.setenv("REPRO_WORKER_BUDGET", "1")
        pools = [ExecutorPool(4) for _ in range(3)]
        try:
            # Every pool makes progress (width >= 1) even with the pot empty.
            assert all(pool.width >= 1 for pool in pools)
            assert sum(pool.width for pool in pools) <= 3
        finally:
            for pool in pools:
                pool.close()

    def test_nested_parallel_queries_stay_correct_under_tiny_budget(
        self, monkeypatch, marketplace_builder, marketplace_data
    ):
        monkeypatch.setenv("REPRO_WORKER_BUDGET", "2")
        est = marketplace_builder(marketplace_data)
        sql = "SELECT uid FROM users WHERE city = 'paris'"
        expected = _bag(est.query(sql, dataset="shop", parallelism=1).rows)
        # A wide plan over a starved pool falls back to consumer-side
        # steal-and-run instead of deadlocking or dropping batches.
        assert _bag(est.query(sql, dataset="shop", parallelism=8).rows) == expected
