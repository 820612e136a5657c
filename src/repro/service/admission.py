"""Per-tenant admission control for the concurrent query service.

The ESTOCADA mediator is a shared resource: several applications (tenants)
submit queries against one fragment catalog and one executor budget.  Without
admission control an open-loop overload from any single tenant grows the
service queue without bound, and *every* tenant's tail latency collapses —
the classic queueing-theory failure mode past the saturation knee.  The
:class:`AdmissionController` keeps the service in the controlled regime by
fast-rejecting work the service cannot serve within its SLO:

* a **token bucket** per tenant bounds sustained submission rate (with a
  configurable burst allowance) — rejections raise
  :class:`~repro.errors.OverloadedError` with ``reason="rate_limited"``;
* a **bounded queue** per tenant caps queued-but-not-running queries —
  rejections raise ``reason="queue_full"``;
* a **concurrency quota** per tenant caps in-flight queries, so one tenant's
  burst cannot monopolise the worker pool; excess admitted work waits in the
  tenant's (bounded) queue instead of running.

Rejection is deliberately *fast* (a lock-protected counter check, no queue
insertion, no planning work) so shed load costs the service almost nothing —
that is what keeps goodput flat past saturation instead of collapsing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import OverloadedError, UnknownTenantError

__all__ = [
    "TokenBucket",
    "TenantPolicy",
    "TenantState",
    "AdmissionController",
    "DEFAULT_PRIORITY",
]

DEFAULT_PRIORITY = 1
"""Priority class assigned when a policy does not choose one (lower runs first)."""


class TokenBucket:
    """Classic token-bucket rate limiter on the monotonic clock.

    ``rate`` tokens accrue per second up to ``burst``; each admission costs
    one token.  A ``rate`` of ``None`` disables rate limiting entirely.  Not
    internally locked — the :class:`AdmissionController` serialises access
    under its own lock.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated_at")

    def __init__(self, rate: float | None, burst: float | None = None) -> None:
        self.rate = rate
        self.burst = burst if burst is not None else (rate if rate is not None else 0.0)
        self._tokens = float(self.burst)
        # Anchored on the first acquire, so callers may drive the bucket on
        # their own clock (tests) or the real monotonic one (the service).
        self._updated_at: float | None = None

    def try_acquire(self, now: float | None = None) -> bool:
        """Consume one token if available; refill lazily from elapsed time."""
        if self.rate is None:
            return True
        if now is None:
            now = time.monotonic()
        if self._updated_at is None:
            self._updated_at = now
        elapsed = max(0.0, now - self._updated_at)
        self._updated_at = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True, slots=True)
class TenantPolicy:
    """Admission policy for one tenant (or the service-wide default).

    ``max_concurrent`` caps in-flight queries, ``queue_depth`` caps admitted
    queries waiting for a slot, ``rate_qps``/``burst`` configure the token
    bucket (``None`` disables rate limiting), ``priority`` is the tenant's
    scheduling class (lower dispatches first), and
    ``default_deadline_seconds`` applies when a submission names no deadline.
    """

    max_concurrent: int = 2
    queue_depth: int = 16
    rate_qps: float | None = None
    burst: float | None = None
    priority: int = DEFAULT_PRIORITY
    default_deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.rate_qps is not None and self.rate_qps <= 0:
            raise ValueError("rate_qps must be positive (or None to disable)")


@dataclass(slots=True)
class TenantState:
    """Mutable admission state for one tenant, guarded by the controller lock."""

    name: str
    policy: TenantPolicy
    bucket: TokenBucket
    queued: int = 0
    in_flight: int = 0
    shed_queue_full: int = 0
    shed_rate_limited: int = 0
    admitted: int = 0

    def describe(self) -> dict[str, object]:
        return {
            "tenant": self.name,
            "priority": self.policy.priority,
            "queued": self.queued,
            "in_flight": self.in_flight,
            "max_concurrent": self.policy.max_concurrent,
            "queue_depth": self.policy.queue_depth,
            "rate_qps": self.policy.rate_qps,
            "admitted": self.admitted,
            "shed_queue_full": self.shed_queue_full,
            "shed_rate_limited": self.shed_rate_limited,
        }


class AdmissionController:
    """Thread-safe per-tenant admission bookkeeping.

    ``default_policy=None`` makes the controller *strict*: submissions from
    unregistered tenants raise :class:`~repro.errors.UnknownTenantError`.
    Otherwise unknown tenants are registered on first touch with the default
    policy.
    """

    def __init__(self, default_policy: TenantPolicy | None = None) -> None:
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        self._default_policy = default_policy

    def register(self, tenant: str, policy: TenantPolicy) -> TenantState:
        """Install (or replace) a tenant's policy; live counters carry over."""
        with self._lock:
            state = self._tenants.get(tenant)
            bucket = TokenBucket(policy.rate_qps, policy.burst)
            if state is None:
                state = TenantState(name=tenant, policy=policy, bucket=bucket)
                self._tenants[tenant] = state
            else:
                state.policy = policy
                state.bucket = bucket
            return state

    def state(self, tenant: str) -> TenantState:
        """The tenant's state, auto-registering when a default policy exists."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                if self._default_policy is None:
                    raise UnknownTenantError(
                        f"tenant {tenant!r} is not registered and the service has no default policy"
                    )
                state = TenantState(
                    name=tenant,
                    policy=self._default_policy,
                    bucket=TokenBucket(self._default_policy.rate_qps, self._default_policy.burst),
                )
                self._tenants[tenant] = state
            return state

    def try_admit(self, tenant: str) -> TenantState:
        """Admit one submission or fast-reject with a typed ``OverloadedError``.

        On success the tenant's ``queued`` count is already incremented; the
        caller must balance it with :meth:`release_queue_slot` (on dispatch,
        expiry, or shutdown).
        """
        state = self.state(tenant)
        with self._lock:
            if not state.bucket.try_acquire():
                state.shed_rate_limited += 1
                raise OverloadedError(
                    f"tenant {tenant!r} exceeded its {state.policy.rate_qps:g} qps quota",
                    tenant=tenant,
                    reason="rate_limited",
                )
            if state.queued >= state.policy.queue_depth:
                state.shed_queue_full += 1
                raise OverloadedError(
                    f"tenant {tenant!r} queue is full ({state.policy.queue_depth} waiting)",
                    tenant=tenant,
                    reason="queue_full",
                )
            state.queued += 1
            state.admitted += 1
            return state

    def release_queue_slot(self, tenant: str) -> None:
        with self._lock:
            state = self._tenants[tenant]
            state.queued = max(0, state.queued - 1)

    def try_begin_execution(self, tenant: str) -> bool:
        """Atomically claim a concurrency slot, moving queued → in-flight.

        Returns ``False`` when the tenant is at ``max_concurrent`` — the
        check and the claim happen under one lock so concurrent dispatchers
        cannot both take the last slot.
        """
        with self._lock:
            state = self._tenants[tenant]
            if state.in_flight >= state.policy.max_concurrent:
                return False
            state.queued = max(0, state.queued - 1)
            state.in_flight += 1
            return True

    def end_execution(self, tenant: str) -> None:
        with self._lock:
            state = self._tenants[tenant]
            state.in_flight = max(0, state.in_flight - 1)

    def queue_depth(self) -> int:
        """Total queries admitted but not yet running, across all tenants."""
        with self._lock:
            return sum(state.queued for state in self._tenants.values())

    def in_flight(self) -> int:
        with self._lock:
            return sum(state.in_flight for state in self._tenants.values())

    def describe(self) -> dict[str, dict[str, object]]:
        with self._lock:
            return {name: state.describe() for name, state in sorted(self._tenants.items())}
