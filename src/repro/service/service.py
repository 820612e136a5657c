"""Admission-controlled concurrent serving front-end over the Estocada facade.

:class:`QueryService` turns the single-caller :class:`~repro.estocada.Estocada`
facade into a multi-tenant query service: callers submit queries from any
thread, the service admits or fast-rejects them per tenant
(:mod:`repro.service.admission`), queues admitted work by priority class, and
a fixed worker pool executes against the shared facade.  The planning phase
inside the facade is serialised by its planning lock; execution overlaps
across workers, bounded by the process-wide executor budget
(:data:`repro.runtime.parallel.WORKER_BUDGET`).

Deadlines are measured from *submission*, so time spent queued counts against
the budget: a query dispatched after its deadline has already passed fails
immediately with :class:`~repro.errors.DeadlineExceededError` without doing
any planning or store work, and a query that overruns mid-stream cancels its
store requests cooperatively through the engine's deadline machinery.

Each tenant plans under its own plan-cache namespace, so one tenant's churn
(e.g. a scan of ever-changing ad-hoc queries) cannot evict another tenant's
hot plans.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
)
from repro.service.admission import (
    AdmissionController,
    OverloadedError,
    TenantPolicy,
)

__all__ = [
    "QueryService",
    "QueryTicket",
    "ServiceResult",
    "WriteResult",
    "in_service_worker",
    "DEFAULT_SERVICE_WORKERS",
]

DEFAULT_SERVICE_WORKERS = 4
"""Worker threads a service starts when the caller does not choose a width."""

_worker_local = threading.local()

def _service_worker(
    service_ref: "weakref.ref[QueryService]",
    cond: threading.Condition,
) -> None:
    """Dispatch loop for one worker thread.

    The worker owns only a weak reference plus the service's condition
    variable; the strong reference is re-taken per iteration and — crucially —
    dropped *before* the idle ``cond.wait``.  A service with no outside
    references (e.g. a facade's ambient service after the facade is
    discarded) therefore becomes collectable and its workers exit at the next
    timeout, instead of pinning the facade — and its engine's worker-budget
    grants — alive forever.
    """
    while True:
        service = service_ref()
        if service is None:
            return
        with cond:
            ticket = service._next_runnable_locked()
            if ticket is None:
                if service._closed:
                    return
                # Drop the strong reference inside the same cond acquisition
                # as the emptiness check: no lost wakeups, no GC pinning.
                service = None
                cond.wait(timeout=0.05)
                continue
        service._dispatch(ticket)
        service = None


def in_service_worker() -> bool:
    """True on threads currently executing a query on behalf of the service.

    A facade built under ``REPRO_SERVICE=1`` (read once, when the facade is
    constructed) routes its queries through an ambient service; it checks
    this to avoid re-submitting a query the service is already executing
    (infinite recursion otherwise).
    """
    return getattr(_worker_local, "active", False)


@dataclass(slots=True)
class ServiceResult:
    """A completed query plus its serving telemetry.

    ``queue_seconds`` is submission → dispatch (admission + queueing),
    ``engine_seconds`` is dispatch → completion (planning + execution); the
    split shows whether latency is queueing delay or actual work.
    """

    result: Any
    tenant: str
    priority: int
    queue_seconds: float
    engine_seconds: float
    deadline_seconds: float | None = None

    @property
    def rows(self):
        return self.result.rows

    def __len__(self) -> int:
        return len(self.result.rows)


@dataclass(slots=True)
class WriteResult:
    """Outcome of one admitted DML statement.

    ``seq`` is the facade's global write sequence number; ``rows`` stays
    empty (writes return no result set) so the ticket plumbing — which
    counts ``len(result.rows)`` — treats queries and writes uniformly.
    """

    seq: int
    relation: str
    operation: str
    rows: tuple = ()


class QueryTicket:
    """Handle for one submitted query; resolves to a :class:`ServiceResult`.

    Tickets order by ``(priority, seq)`` in the ready heap — priority class
    first, FIFO within a class.
    """

    __slots__ = (
        "seq",
        "tenant",
        "priority",
        "request",
        "deadline_seconds",
        "expires_at",
        "submitted_at",
        "dispatched_at",
        "finished_at",
        "_done",
        "_value",
        "_error",
    )

    def __init__(
        self,
        seq: int,
        tenant: str,
        priority: int,
        request: dict[str, Any],
        deadline_seconds: float | None,
    ) -> None:
        self.seq = seq
        self.tenant = tenant
        self.priority = priority
        self.request = request
        self.deadline_seconds = deadline_seconds
        self.submitted_at = time.monotonic()
        self.expires_at = (
            self.submitted_at + deadline_seconds if deadline_seconds is not None else None
        )
        self.dispatched_at: float | None = None
        self.finished_at: float | None = None
        self._done = threading.Event()
        self._value: ServiceResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> ServiceResult:
        """Block for the outcome; raises the query's error if it failed."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query for tenant {self.tenant!r} still pending after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def error(self) -> BaseException | None:
        """The failure, if any, without raising (None while pending)."""
        return self._error

    def _complete(self, value: ServiceResult | None, error: BaseException | None) -> None:
        self.finished_at = time.monotonic()
        self._value = value
        self._error = error
        self._done.set()


class QueryService:
    """Concurrent, admission-controlled front-end over one Estocada facade.

    ``workers`` fixes the number of dispatch threads (each runs one query at
    a time against the shared facade).  ``default_policy`` admits unknown
    tenants; pass ``None`` to require explicit :meth:`register_tenant` calls
    (unknown tenants then fail with
    :class:`~repro.errors.UnknownTenantError`).
    """

    def __init__(
        self,
        facade,
        workers: int = DEFAULT_SERVICE_WORKERS,
        default_policy: TenantPolicy | None = TenantPolicy(),
    ) -> None:
        self._facade = facade
        self._admission = AdmissionController(default_policy)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._ready: list[tuple[int, int, QueryTicket]] = []
        self._deferred: dict[str, deque[QueryTicket]] = {}
        self._seq = itertools.count()
        self._closed = False
        self._autotune_stop: threading.Event | None = None
        self._autotune_thread: threading.Thread | None = None
        self._autotune_reports: list[dict] = []
        # Workers hold only a *weak* reference to the service between polls
        # (the ThreadPoolExecutor pattern): a bound-method target would pin
        # the service — and through it the facade, its engine and the
        # engine's worker-budget grants — alive forever once abandoned.
        self._workers = [
            threading.Thread(
                target=_service_worker,
                args=(weakref.ref(self), self._cond),
                name=f"repro-service-{index}",
                daemon=True,
            )
            for index in range(max(1, int(workers)))
        ]
        for thread in self._workers:
            thread.start()

    # -- tenant management -------------------------------------------------------------
    def register_tenant(self, tenant: str, policy: TenantPolicy) -> None:
        """Install (or replace) a tenant's admission policy.

        The tenant's plan-cache namespace is created by its first query.
        """
        self._admission.register(tenant, policy)
        self._facade.statistics.tenant(tenant)

    # -- submission --------------------------------------------------------------------
    def submit(
        self,
        query,
        *,
        dataset: str | None = None,
        bound_parameters: Sequence = (),
        parallelism: int | None = None,
        tenant: str = "default",
        deadline_seconds: float | None = None,
        priority: int | None = None,
    ) -> QueryTicket:
        """Admit the query (or fast-reject) and return a ticket for its result.

        Raises :class:`~repro.errors.OverloadedError` when the tenant's rate
        or queue quota is exhausted — *before* any queue insertion or
        planning work, so shedding is cheap.
        """
        return self._admit_and_enqueue(
            {
                "query": query,
                "dataset": dataset,
                "bound_parameters": bound_parameters,
                "parallelism": parallelism,
            },
            tenant=tenant,
            deadline_seconds=deadline_seconds,
            priority=priority,
        )

    def submit_write(
        self,
        relation: str,
        *,
        inserts: Sequence = (),
        deletes: Sequence = (),
        tenant: str = "default",
        deadline_seconds: float | None = None,
        priority: int | None = None,
    ) -> QueryTicket:
        """Admit one DML statement under the tenant's quotas.

        Writes share the tenant's rate limit, queue depth and concurrency
        budget with its queries — a tenant flooding writes is shed exactly
        like one flooding reads.  The ticket resolves to a
        :class:`ServiceResult` wrapping a :class:`WriteResult`; the facade's
        write policy decides whether fragment maintenance happens inside the
        dispatched call (eager) or is left pending (deferred).
        """
        operation = "update" if (inserts and deletes) else ("delete" if deletes else "insert")
        return self._admit_and_enqueue(
            {
                "write": {
                    "relation": relation,
                    "operation": operation,
                    "inserts": list(inserts),
                    "deletes": list(deletes),
                }
            },
            tenant=tenant,
            deadline_seconds=deadline_seconds,
            priority=priority,
        )

    def _admit_and_enqueue(
        self,
        request: dict[str, Any],
        tenant: str,
        deadline_seconds: float | None,
        priority: int | None,
    ) -> QueryTicket:
        if self._closed:
            raise ServiceClosedError("query service is closed")
        stats = self._facade.statistics
        try:
            state = self._admission.try_admit(tenant)
        except OverloadedError as error:
            stats.record_tenant_event(tenant, "submitted")
            stats.record_tenant_event(
                tenant,
                "shed_queue_full" if error.reason == "queue_full" else "shed_rate_limited",
            )
            raise
        stats.record_tenant_event(tenant, "submitted")
        stats.record_tenant_event(tenant, "admitted")
        policy = state.policy
        effective_deadline = (
            deadline_seconds if deadline_seconds is not None else policy.default_deadline_seconds
        )
        ticket = QueryTicket(
            seq=next(self._seq),
            tenant=tenant,
            priority=priority if priority is not None else policy.priority,
            request=request,
            deadline_seconds=effective_deadline,
        )
        with self._cond:
            if self._closed:
                self._admission.release_queue_slot(tenant)
                raise ServiceClosedError("query service is closed")
            heapq.heappush(self._ready, (ticket.priority, ticket.seq, ticket))
            self._cond.notify()
        return ticket

    def execute(self, query, **kwargs) -> ServiceResult:
        """Submit and block for the result (admission errors raise immediately)."""
        return self.submit(query, **kwargs).result()

    def execute_write(self, relation: str, **kwargs) -> ServiceResult:
        """Submit a write and block for its outcome (see :meth:`submit_write`)."""
        return self.submit_write(relation, **kwargs).result()

    # -- scheduling --------------------------------------------------------------------
    def _next_runnable_locked(self) -> QueryTicket | None:
        """Pop the best-priority ticket whose tenant has concurrency headroom.

        Tickets from saturated tenants park in a per-tenant deferred queue
        (re-offered when that tenant releases a slot) so they cannot block
        other tenants' work behind them in the heap.
        """
        while self._ready:
            candidate = heapq.heappop(self._ready)[2]
            if self._admission.try_begin_execution(candidate.tenant):
                return candidate
            self._deferred.setdefault(candidate.tenant, deque()).append(candidate)
        return None

    def _requeue_deferred(self, tenant: str) -> None:
        with self._cond:
            waiting = self._deferred.get(tenant)
            if waiting:
                ticket = waiting.popleft()
                heapq.heappush(self._ready, (ticket.priority, ticket.seq, ticket))
                self._cond.notify()

    def _dispatch(self, ticket: QueryTicket) -> None:
        try:
            self._run(ticket)
        finally:
            self._admission.end_execution(ticket.tenant)
            self._requeue_deferred(ticket.tenant)

    def _run(self, ticket: QueryTicket) -> None:
        stats = self._facade.statistics
        ticket.dispatched_at = time.monotonic()
        queue_seconds = ticket.dispatched_at - ticket.submitted_at
        remaining: float | None = None
        if ticket.expires_at is not None:
            remaining = ticket.expires_at - ticket.dispatched_at
            if remaining <= 0:
                # Expired while queued: fail fast without planning or store
                # work — the queue slot is already released and the deadline
                # error is the same type a mid-stream overrun raises.
                error = DeadlineExceededError(
                    f"query for tenant {ticket.tenant!r} spent its entire "
                    f"{ticket.deadline_seconds:.3f}s deadline queued",
                    deadline_seconds=ticket.deadline_seconds,
                )
                stats.record_tenant_query(
                    ticket.tenant, "timed_out", queue_seconds=queue_seconds
                )
                ticket._complete(None, error)
                return
        _worker_local.active = True
        try:
            request = ticket.request
            if "write" in request:
                result = self._run_write(request["write"])
            else:
                result = self._facade.query(
                    request["query"],
                    dataset=request["dataset"],
                    bound_parameters=request["bound_parameters"],
                    parallelism=request["parallelism"],
                    tenant=ticket.tenant,
                    deadline_seconds=remaining,
                )
        except DeadlineExceededError as error:
            engine_seconds = time.monotonic() - ticket.dispatched_at
            stats.record_tenant_query(
                ticket.tenant,
                "timed_out",
                queue_seconds=queue_seconds,
                engine_seconds=engine_seconds,
            )
            ticket._complete(None, error)
        except BaseException as error:  # noqa: BLE001 - faults propagate to the caller
            engine_seconds = time.monotonic() - ticket.dispatched_at
            stats.record_tenant_query(
                ticket.tenant,
                "failed",
                queue_seconds=queue_seconds,
                engine_seconds=engine_seconds,
            )
            ticket._complete(None, error)
        else:
            engine_seconds = time.monotonic() - ticket.dispatched_at
            stats.record_tenant_query(
                ticket.tenant,
                "completed",
                queue_seconds=queue_seconds,
                engine_seconds=engine_seconds,
                rows=len(result.rows),
            )
            ticket._complete(
                ServiceResult(
                    result=result,
                    tenant=ticket.tenant,
                    priority=ticket.priority,
                    queue_seconds=queue_seconds,
                    engine_seconds=engine_seconds,
                    deadline_seconds=ticket.deadline_seconds,
                ),
                None,
            )
        finally:
            _worker_local.active = False

    def _run_write(self, write: Mapping[str, Any]) -> WriteResult:
        """Execute one admitted DML statement against the facade."""
        operation = write["operation"]
        relation = write["relation"]
        if operation == "update":
            seq = self._facade.update(relation, write["deletes"], write["inserts"])
        elif operation == "delete":
            seq = self._facade.delete(relation, write["deletes"])
        else:
            seq = self._facade.insert(relation, write["inserts"])
        return WriteResult(seq=seq, relation=relation, operation=operation)

    # -- introspection -----------------------------------------------------------------
    def queue_depth(self) -> int:
        """Queries admitted but not yet executing (ready heap + deferred)."""
        return self._admission.queue_depth()

    def in_flight(self) -> int:
        return self._admission.in_flight()

    def summary(self) -> Mapping[str, object]:
        """Serving telemetry: queue state, per-tenant usage, cache namespaces.

        ``tenants`` merges live admission state (queued / in-flight / shed
        counts) with the statistics catalog's cumulative usage (queue vs
        engine seconds, outcomes); ``plan_cache`` exposes the per-namespace
        hit/miss breakdown so tenants' cache behaviour is attributable.
        """
        usage = self._facade.statistics.tenant_usage()
        admission = self._admission.describe()
        tenants: dict[str, dict[str, object]] = {}
        for name in sorted(set(usage) | set(admission)):
            merged: dict[str, object] = {}
            merged.update(admission.get(name, {}))
            merged.update(usage.get(name, {}))
            tenants[name] = merged
        return {
            "workers": len(self._workers),
            "closed": self._closed,
            "queue_depth": self.queue_depth(),
            "in_flight": self.in_flight(),
            "tenants": tenants,
            "plan_cache": self._facade.cache_stats(),
            "migrations": self._facade.describe_migrations(),
            "autotune": {
                "running": self._autotune_thread is not None
                and self._autotune_thread.is_alive(),
                "passes": len(self._autotune_reports),
            },
        }

    # -- self-tuning -------------------------------------------------------------------
    def start_autotune(self, interval_seconds: float = 5.0, policy=None) -> None:
        """Run :meth:`Estocada.autotune` on a timer until :meth:`stop_autotune`.

        The background advisor observes the statistics the serving threads
        already gather and migrates drifted placements live — queries keep
        running throughout (the cutover is an atomic descriptor swap).  One
        pass runs immediately; later passes fire every ``interval_seconds``.
        Idempotent: a second call while running only updates nothing.
        """
        if self._closed:
            raise ServiceClosedError("cannot start autotune on a closed service")
        if self._autotune_thread is not None and self._autotune_thread.is_alive():
            return
        stop = threading.Event()
        self._autotune_stop = stop

        def _loop() -> None:
            while not stop.is_set():
                try:
                    report = self._facade.autotune(policy=policy, cancel=stop)
                except ReproError as exc:  # keep the loop alive across bad passes
                    report = {"error": str(exc)}
                self._autotune_reports.append(report)
                stop.wait(interval_seconds)

        self._autotune_thread = threading.Thread(
            target=_loop, name="repro-autotune", daemon=True
        )
        self._autotune_thread.start()

    def stop_autotune(self, timeout: float = 30.0) -> None:
        """Signal the background advisor to stop and wait for it to exit.

        The stop event doubles as the in-flight migration's cancel event, so
        a migration caught mid-backfill rolls back promptly."""
        if self._autotune_stop is not None:
            self._autotune_stop.set()
        if self._autotune_thread is not None:
            self._autotune_thread.join(timeout=timeout)
            self._autotune_thread = None

    def autotune_reports(self) -> list[dict]:
        """The reports of every background autotune pass so far (oldest first)."""
        return list(self._autotune_reports)

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and fail still-queued tickets with ``ServiceClosedError``."""
        self.stop_autotune()
        with self._cond:
            if self._closed:
                return
            self._closed = True
            abandoned: list[QueryTicket] = [entry[2] for entry in self._ready]
            self._ready.clear()
            for waiting in self._deferred.values():
                abandoned.extend(waiting)
            self._deferred.clear()
            self._cond.notify_all()
        for ticket in abandoned:
            self._admission.release_queue_slot(ticket.tenant)
            ticket._complete(None, ServiceClosedError("query service closed while queued"))
        for thread in self._workers:
            thread.join(timeout=5.0)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
