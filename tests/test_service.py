"""Tests for the multi-tenant admission-controlled query service.

Covers the admission primitives (token bucket, bounded queues, concurrency
quotas, priority classes), the service lifecycle (deadlines measured from
submission, close semantics, strict-tenant mode), per-tenant plan-cache
namespace isolation, the facade's ``REPRO_SERVICE`` ambient routing, the
per-tenant usage counters surfaced through ``summary()``, and the open-loop
workload driver's accounting.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceClosedError,
    UnknownTenantError,
)
from repro.estocada import Estocada
from repro.service import (
    AdmissionController,
    QueryService,
    TenantPolicy,
    TokenBucket,
    in_service_worker,
)
from repro.stores import RelationalStore
from repro.testing import OpenLoopDriver, WorkloadQuery


def _bag(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


def _build_est(latency: float = 0.0, rows: int = 16) -> Estocada:
    """One relational store serving t(a, b) with a configurable latency."""
    est = Estocada()
    est.register_store("pg", RelationalStore("pg", latency=latency))
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
        rows=[{"a": i, "b": i * 2} for i in range(rows)],
    )
    return est


SQL = "SELECT a, b FROM t"


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        now = 100.0
        assert bucket.try_acquire(now)
        assert bucket.try_acquire(now)
        assert not bucket.try_acquire(now)
        # 0.15 s at 10 qps refills one token (and half of the next).
        assert bucket.try_acquire(now + 0.15)
        assert not bucket.try_acquire(now + 0.15)

    def test_unlimited_when_rate_is_none(self):
        bucket = TokenBucket(rate=None)
        assert all(bucket.try_acquire(1.0) for _ in range(1000))


class TestAdmission:
    def test_queue_full_fast_reject(self):
        controller = AdmissionController(TenantPolicy(max_concurrent=1, queue_depth=2))
        controller.try_admit("a")
        controller.try_admit("a")
        with pytest.raises(OverloadedError) as excinfo:
            controller.try_admit("a")
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.tenant == "a"
        # Quotas are per tenant: another tenant still admits.
        controller.try_admit("b")

    def test_rate_limited_fast_reject(self):
        controller = AdmissionController(
            TenantPolicy(max_concurrent=4, queue_depth=100, rate_qps=1.0, burst=2)
        )
        controller.try_admit("a")
        controller.try_admit("a")
        with pytest.raises(OverloadedError) as excinfo:
            controller.try_admit("a")
        assert excinfo.value.reason == "rate_limited"

    def test_concurrency_slots_are_claimed_atomically(self):
        controller = AdmissionController(TenantPolicy(max_concurrent=1, queue_depth=10))
        controller.try_admit("a")
        controller.try_admit("a")
        assert controller.try_begin_execution("a")
        assert not controller.try_begin_execution("a")
        controller.end_execution("a")
        assert controller.try_begin_execution("a")
        assert controller.queue_depth() == 0
        assert controller.in_flight() == 1

    def test_strict_mode_rejects_unknown_tenants(self):
        controller = AdmissionController(default_policy=None)
        with pytest.raises(UnknownTenantError):
            controller.try_admit("stranger")
        controller.register("known", TenantPolicy())
        controller.try_admit("known")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy(max_concurrent=0)
        with pytest.raises(ValueError):
            TenantPolicy(rate_qps=-1.0)


class TestQueryService:
    def test_results_match_direct_execution(self):
        est = _build_est()
        expected = _bag(est.query(SQL, dataset="d").rows)
        with QueryService(est, workers=2) as service:
            got = service.execute(SQL, dataset="d", tenant="app")
            assert _bag(got.rows) == expected
            assert got.tenant == "app"
            assert got.queue_seconds >= 0.0
            assert got.engine_seconds > 0.0

    def test_concurrent_clients_share_one_warm_statement(self):
        # Same SQL text from several client threads: after the first execution
        # all run the one memoized statement, its lowered tree and that
        # tree's compiled kernels — all per-execution state must live in the
        # execution, so every answer is the serial answer.
        est = _build_est(rows=200)
        full_sql = "SELECT a FROM t WHERE b > 100"
        limit_sql = "SELECT a, b FROM t WHERE b > 100 LIMIT 7"
        full = Counter({(("a", i),): 1 for i in range(51, 200)})
        admissible = Counter({(("a", i), ("b", 2 * i)): 1 for i in range(51, 200)})
        clients, rounds = 4, 200
        failures: list[str] = []
        start = threading.Barrier(clients)

        def client(service):
            start.wait(timeout=30)
            for _ in range(rounds):
                if _bag(service.execute(full_sql, dataset="d", tenant="app").rows) != full:
                    failures.append(full_sql)
                rows = service.execute(limit_sql, dataset="d", tenant="app").rows
                got = _bag(rows)
                if len(rows) != 7 or any(got[key] > admissible[key] for key in got):
                    failures.append(limit_sql)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleavings inside the shared tree
        try:
            with QueryService(est, workers=2) as service:
                service.register_tenant("app", TenantPolicy(max_concurrent=2, queue_depth=16))
                threads = [
                    threading.Thread(target=client, args=(service,)) for _ in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
        assert failures == []
        stats = est.cache_stats()
        assert stats["statements"] == 2
        assert stats["statement_hits"] + stats["statement_misses"] == 2 * clients * rounds
        assert stats["statement_misses"] <= 2 * clients  # at most one racing miss per client and text

    def test_concurrency_quota_is_enforced(self):
        est = _build_est(latency=0.05)
        lock = threading.Lock()
        service = QueryService(
            est, workers=4, default_policy=TenantPolicy(max_concurrent=1, queue_depth=16)
        )
        in_engine = []
        peak = []

        # Count overlapping facade calls: with max_concurrent=1 and 4 idle
        # workers the tenant must never have two queries in the engine at
        # once.

        class _Probe:
            def __init__(self, inner):
                self._inner = inner

            def query(self, *args, **kwargs):
                with lock:
                    in_engine.append(1)
                    peak.append(len(in_engine))
                try:
                    return self._inner.query(*args, **kwargs)
                finally:
                    with lock:
                        in_engine.pop()

            def __getattr__(self, name):
                return getattr(self._inner, name)

        service._facade = _Probe(est)
        try:
            tickets = [
                service.submit(SQL, dataset="d", tenant="solo") for _ in range(4)
            ]
            for ticket in tickets:
                ticket.result(timeout=10)
            assert max(peak) == 1
        finally:
            service.close()

    def test_priority_classes_dispatch_low_number_first(self):
        est = _build_est(latency=0.05)
        service = QueryService(
            est, workers=1, default_policy=TenantPolicy(max_concurrent=4, queue_depth=16)
        )
        try:
            blocker = service.submit(SQL, dataset="d", tenant="any")
            # Both queue behind the blocker on the single worker; the
            # higher-priority (lower number) submission must run first even
            # though it arrived later.
            low = service.submit(SQL, dataset="d", tenant="batch", priority=5)
            high = service.submit(SQL, dataset="d", tenant="interactive", priority=0)
            blocker.result(timeout=10)
            low.result(timeout=10)
            high.result(timeout=10)
            assert high.dispatched_at < low.dispatched_at
        finally:
            service.close()

    def test_deadline_spent_queued_fails_without_engine_work(self):
        est = _build_est(latency=0.2)
        service = QueryService(
            est, workers=1, default_policy=TenantPolicy(max_concurrent=1, queue_depth=8)
        )
        try:
            blocker = service.submit(SQL, dataset="d", tenant="x")
            # The single worker is busy for ~0.2 s; a 10 ms deadline is spent
            # entirely in the queue.
            doomed = service.submit(SQL, dataset="d", tenant="doomed", deadline_seconds=0.01)
            blocker.result(timeout=10)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10)
            usage = est.statistics.tenant_usage()["doomed"]
            assert usage["timed_out"] == 1
            # The doomed query consumed queue time but no engine time.
            assert usage["engine_seconds"] == 0.0
        finally:
            service.close()

    def test_default_deadline_comes_from_policy(self):
        est = _build_est(latency=0.3)
        service = QueryService(est, workers=1, default_policy=None)
        service.register_tenant(
            "slo", TenantPolicy(max_concurrent=1, queue_depth=4, default_deadline_seconds=0.02)
        )
        try:
            with pytest.raises(DeadlineExceededError):
                service.execute(SQL, dataset="d", tenant="slo")
        finally:
            service.close()

    def test_close_fails_queued_work_and_rejects_new(self):
        est = _build_est(latency=0.1)
        service = QueryService(
            est, workers=1, default_policy=TenantPolicy(max_concurrent=1, queue_depth=8)
        )
        running = service.submit(SQL, dataset="d", tenant="x")
        queued = [service.submit(SQL, dataset="d", tenant="x") for _ in range(3)]
        service.close()
        # In-flight work drains; whatever was still queued fails typed.
        assert running.wait(timeout=10)
        closed_errors = 0
        for ticket in queued:
            assert ticket.wait(timeout=10)
            if isinstance(ticket.error(), ServiceClosedError):
                closed_errors += 1
        assert closed_errors >= 1
        with pytest.raises(ServiceClosedError):
            service.submit(SQL, dataset="d", tenant="x")
        assert service.queue_depth() == 0

    def test_summary_reports_tenants_queue_and_namespaces(self):
        est = _build_est()
        service = QueryService(est, workers=2)
        try:
            service.execute(SQL, dataset="d", tenant="alpha")
            service.execute(SQL, dataset="d", tenant="alpha")
            service.execute(SQL, dataset="d", tenant="beta")
            summary = service.summary()
            assert summary["workers"] == 2
            assert summary["queue_depth"] == 0
            alpha = summary["tenants"]["alpha"]
            assert alpha["submitted"] == 2
            assert alpha["completed"] == 2
            assert alpha["rows_returned"] == 32
            assert alpha["engine_seconds"] > 0.0
            namespaces = summary["plan_cache"]["namespaces"]
            # Each tenant planned under its own namespace; alpha's second run
            # hit its namespace-local cache.
            assert namespaces["alpha"]["hits"] == 1
            assert namespaces["alpha"]["entries"] == 1
            assert namespaces["beta"]["misses"] == 1
        finally:
            service.close()

    def test_worker_thread_flag_is_scoped(self):
        est = _build_est()
        assert not in_service_worker()
        with QueryService(est, workers=1) as service:
            service.execute(SQL, dataset="d", tenant="x")
        assert not in_service_worker()


class TestCacheNamespaces:
    def test_one_tenants_churn_cannot_evict_anothers_plans(self):
        est = _build_est()
        est.configure_tenant_cache("churny", capacity=1)
        queries = [SQL, "SELECT a FROM t", "SELECT b FROM t", "SELECT a, b FROM t WHERE a = 3"]
        assert est.query(SQL, dataset="d", tenant="stable").cache_hit is False
        # Churn a capacity-1 namespace with distinct shapes: every query
        # evicts the previous one, but only inside *its* namespace.
        for sql in queries:
            est.query(sql, dataset="d", tenant="churny")
        assert est.query(SQL, dataset="d", tenant="stable").cache_hit is True
        namespaces = est.cache_stats()["namespaces"]
        assert namespaces["churny"]["entries"] == 1
        assert namespaces["churny"]["evictions"] == len(queries) - 1
        assert namespaces["stable"]["entries"] == 1

    def test_invalidation_spans_all_namespaces(self):
        est = _build_est()
        est.query(SQL, dataset="d", tenant="a")
        est.query(SQL, dataset="d", tenant="b")
        assert est.cache_stats()["entries"] == 2
        est.drop_fragment("F_t")
        assert est.cache_stats()["entries"] == 0

    def test_clear_caches_resets_plans_and_rewrite_memos(self):
        est = _build_est()
        est.query(SQL, dataset="d", tenant="a")
        assert est.cache_stats()["entries"] == 1
        est.clear_caches()
        assert est.cache_stats()["entries"] == 0
        # The facade still answers (rewriter and memos rebuild on demand).
        assert len(est.query(SQL, dataset="d", tenant="a").rows) == 16


class TestAmbientRouting:
    def test_repro_service_env_routes_queries_through_a_service(self, monkeypatch):
        baseline = _bag(_build_est().query(SQL, dataset="d").rows)
        monkeypatch.setenv("REPRO_SERVICE", "1")
        est = _build_est()
        try:
            result = est.query(SQL, dataset="d", tenant="app1")
            assert _bag(result.rows) == baseline
            # The facade built one ambient service and recorded the serve.
            assert est._ambient_service is not None
            assert est.statistics.tenant_usage()["app1"]["completed"] == 1
            # Repeated queries reuse the same ambient service.
            est.query(SQL, dataset="d")
            assert est.statistics.tenant_usage()["default"]["completed"] == 1
        finally:
            if est._ambient_service is not None:
                est._ambient_service.close()


class TestOpenLoopDriver:
    def test_accounting_is_conservative(self):
        est = _build_est(latency=0.005)
        service = QueryService(
            est, workers=2, default_policy=TenantPolicy(max_concurrent=2, queue_depth=4)
        )
        try:
            driver = OpenLoopDriver(
                lambda item: service.submit(
                    item.query, dataset=item.dataset, tenant=item.tenant
                ),
                [WorkloadQuery(query=SQL, dataset="d", tenant="load")],
                seed=3,
            )
            report = driver.run(200.0, 0.3, slo_seconds=0.5, drain_seconds=2.0)
        finally:
            service.close()
        assert report.submitted > 0
        # Every submission is accounted for exactly once.
        assert report.submitted == (
            report.completed + report.shed + report.timed_out
            + report.failed + report.unfinished
        )
        assert report.completed == len(report.latencies_seconds)
        assert sum(report.shed_reasons.values()) == report.shed
        described = report.describe()
        assert described["p99_seconds"] >= described["p50_seconds"]
        assert 0.0 <= described["slo_attainment"] <= 1.0

    def test_shed_load_is_counted_not_raised(self):
        est = _build_est(latency=0.05)
        service = QueryService(
            est, workers=1, default_policy=TenantPolicy(max_concurrent=1, queue_depth=1)
        )
        try:
            driver = OpenLoopDriver(
                lambda item: service.submit(
                    item.query, dataset=item.dataset, tenant=item.tenant
                ),
                [WorkloadQuery(query=SQL, dataset="d", tenant="hot")],
                seed=3,
            )
            # ~100 qps against a ~20 qps service with a 1-deep queue: most of
            # the offered load must be shed, and the run must survive it.
            report = driver.run(100.0, 0.3, drain_seconds=2.0)
        finally:
            service.close()
        assert report.shed > 0
        assert report.shed_reasons.get("queue_full", 0) > 0
        assert report.completed > 0

    def test_rejects_empty_mix_and_bad_rate(self):
        with pytest.raises(ValueError):
            OpenLoopDriver(lambda item: None, [])
        driver = OpenLoopDriver(lambda item: None, [WorkloadQuery(query=SQL)])
        with pytest.raises(ValueError):
            driver.run(0.0, 1.0)
