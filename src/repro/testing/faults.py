"""Seeded, deterministic fault injection around any store.

A :class:`FaultInjector` wraps a child store and injects the failure modes
real DMS instances exhibit under load — latency spikes, dropped (transient)
requests, responses lost mid-stream, and hard crashes — while leaving the
child's data untouched.  Injection is driven by a dedicated
``random.Random(seed)`` advanced exactly once per request *in a fixed draw
order*, so a given seed produces the same fault schedule on every run
regardless of which fault rates are enabled: the chaos differential suite
and the hedging tests rely on this reproducibility.

The injector is the substrate of the replication layer's fault-tolerance
guarantees: transient errors exercise bounded retry, crashes exercise
failover, latency spikes exercise hedging.  Injected waits go through
:func:`~repro.runtime.parallel.interruptible_sleep`, so a hedged loser (or a
cancelled Exchange worker) stops spinning as soon as its cancel event fires
— injected slowness cooperates with the runtime's cancellation instead of
blocking it.

Metadata calls (collections, sizes, statistics) are only refused while the
store is hard-crashed; transient and latency faults apply to request
execution alone, mirroring systems whose control plane outlives a slow or
flaky data path.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

from repro.errors import SimulatedCrashError, StoreCrashedError, TransientStoreError
from repro.runtime.batch import RowBatch
from repro.runtime.parallel import interruptible_sleep
from repro.stores.base import Store, StoreMetrics, StoreRequest

__all__ = ["FaultProfile", "FaultInjector", "DiskFaultProfile", "DiskFaultInjector"]


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """The seeded fault schedule of one :class:`FaultInjector`.

    ``error_rate`` is the probability a request is dropped before reaching
    the store (a :class:`~repro.errors.TransientStoreError`);
    ``mid_stream_rate`` the probability the store does the work but the
    response is lost partway through (also transient — retries must be
    idempotent); ``slow_rate``/``slow_seconds`` inject latency spikes on top
    of the child's service latency; ``crash_after`` hard-crashes the store
    after that many served requests (0 = dead on arrival) until
    :meth:`FaultInjector.revive` is called.
    """

    seed: int = 0
    error_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.0
    mid_stream_rate: float = 0.0
    crash_after: int | None = None

    def __post_init__(self) -> None:
        for name in ("error_rate", "slow_rate", "mid_stream_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")

    @classmethod
    def none(cls, seed: int = 0) -> "FaultProfile":
        """A profile injecting nothing (a pure pass-through wrapper)."""
        return cls(seed=seed)

    def with_seed(self, seed: int) -> "FaultProfile":
        """The same fault rates under a different seed."""
        return replace(self, seed=seed)


@dataclass(slots=True)
class _Decision:
    """What the schedule injects into one request."""

    error: bool = False
    slow_seconds: float = 0.0
    mid_stream_after: int | None = None


@dataclass(frozen=True, slots=True)
class DiskFaultProfile:
    """The seeded disk-fault schedule of one :class:`DiskFaultInjector`.

    ``crash_window_rate`` is the probability a WAL append dies inside the
    write/fsync window (a :class:`~repro.errors.SimulatedCrashError` at a
    seeded point: before the write lands, after the write but before fsync,
    or right after fsync returns — the three states a real power cut leaves
    behind); ``torn_tail_rate``/``short_read_rate`` drive the file-mangling
    helpers (:meth:`DiskFaultInjector.tear_wal_tail`,
    :meth:`DiskFaultInjector.shorten_file`), which recovery tests apply
    between "crash" and "restart".
    """

    seed: int = 0
    crash_window_rate: float = 0.0
    torn_tail_rate: float = 0.0
    short_read_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_window_rate", "torn_tail_rate", "short_read_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")

    @classmethod
    def none(cls, seed: int = 0) -> "DiskFaultProfile":
        """A profile injecting nothing."""
        return cls(seed=seed)

    def with_seed(self, seed: int) -> "DiskFaultProfile":
        """The same fault rates under a different seed."""
        return replace(self, seed=seed)


class DiskFaultInjector:
    """Seeded disk faults for the durable segment engine.

    Mirrors :class:`FaultInjector`'s reproducibility contract: one
    ``random.Random(seed)`` advanced in a *fixed draw order* per event, so a
    given seed produces the same crash/tear schedule regardless of which
    rates are enabled.  :meth:`crash_hook` plugs into
    :class:`~repro.stores.segment.WriteAheadLog`'s ``crash_hook=`` parameter;
    the file-mangling helpers simulate what the crash left on disk.
    """

    _CRASH_POINTS = ("pre_write", "pre_sync", "post_sync")

    def __init__(self, profile: DiskFaultProfile | None = None) -> None:
        self._profile = profile or DiskFaultProfile.none()
        self._rng = random.Random(self._profile.seed)
        self._lock = threading.Lock()
        self._armed_point: str | None = None
        self._injected = {"crashes": 0, "torn_tails": 0, "short_reads": 0}

    @property
    def profile(self) -> DiskFaultProfile:
        """The active disk-fault profile."""
        return self._profile

    def injection_report(self) -> Mapping[str, int]:
        """How many disk faults of each kind have been injected so far."""
        with self._lock:
            return dict(self._injected)

    def crash_hook(self, point: str) -> None:
        """WAL append callback: maybe die at ``point`` in the fsync window.

        The schedule advances once per append (on ``pre_write``): always two
        draws — whether this append crashes, and at which of the three window
        points — so enabling other fault dimensions never shifts the crash
        schedule.
        """
        with self._lock:
            if point == "pre_write":
                crash_draw = self._rng.random()
                point_draw = self._rng.randrange(len(self._CRASH_POINTS))
                if crash_draw < self._profile.crash_window_rate:
                    self._armed_point = self._CRASH_POINTS[point_draw]
                else:
                    self._armed_point = None
            if self._armed_point == point:
                self._armed_point = None
                self._injected["crashes"] += 1
                raise SimulatedCrashError(
                    f"simulated crash in the WAL fsync window at {point!r}"
                )

    def tear_wal_tail(self, path: str) -> bool:
        """Maybe truncate the file's final bytes (a torn last WAL record).

        Draws once; on injection cuts a seeded 1..N-byte suffix off the file,
        leaving a partial frame that recovery must silently drop.  Returns
        whether a tear was injected.
        """
        with self._lock:
            tear_draw = self._rng.random()
            size = os.path.getsize(path)
            cut = self._rng.randrange(1, max(2, min(size, 12)))
            if tear_draw >= self._profile.torn_tail_rate or size == 0:
                return False
            self._injected["torn_tails"] += 1
        with open(path, "r+b") as handle:
            handle.truncate(max(0, size - cut))
        return True

    def shorten_file(self, path: str) -> bool:
        """Maybe cut a seeded chunk off a file (a short read of a segment).

        Segment readers must surface the damage as
        :class:`~repro.errors.SegmentCorruptError`, never as silent partial
        data.  Returns whether a cut was injected.
        """
        with self._lock:
            short_draw = self._rng.random()
            size = os.path.getsize(path)
            cut = self._rng.randrange(1, max(2, size))
            if short_draw >= self._profile.short_read_rate or size == 0:
                return False
            self._injected["short_reads"] += 1
        with open(path, "r+b") as handle:
            handle.truncate(max(0, size - cut))
        return True


class FaultInjector(Store):
    """Wrap a store, injecting seeded latency spikes, errors and crashes.

    The wrapper is transparent for loading and maintenance APIs (``insert``,
    ``create_index``, ``set_sharding``, ...) via attribute delegation, so a
    wrapped store drops into any deployment recipe unchanged;
    ``fault_target`` exposes the child for code that must bypass injection
    (the materialization path loads data through it).
    """

    def __init__(
        self, inner: Store, profile: FaultProfile | None = None, name: str | None = None
    ) -> None:
        super().__init__(name or inner.name, latency=0.0)
        self._inner = inner
        self._profile = profile or FaultProfile.none()
        self._rng = random.Random(self._profile.seed)
        self._decision_lock = threading.Lock()
        self._requests_seen = 0
        self._crash_at = self._profile.crash_after
        self._crashed = self._crash_at == 0
        self._injected = {"errors": 0, "slow": 0, "mid_stream": 0, "crashed_requests": 0}

    # -- wrapper plumbing ------------------------------------------------------------
    @property
    def fault_target(self) -> Store:
        """The wrapped store (bypasses injection; used by materialization)."""
        return self._inner

    @property
    def profile(self) -> FaultProfile:
        """The active fault profile."""
        return self._profile

    @property
    def crashed(self) -> bool:
        """Whether the store is currently hard-crashed."""
        return self._crashed

    def crash(self) -> None:
        """Hard-crash the store now (every call fails until :meth:`revive`)."""
        self._crashed = True

    def revive(self) -> None:
        """Bring a crashed store back (its data was never lost).

        Also disarms the profile's scheduled ``crash_after``, so the revived
        store stays up until crashed again explicitly.
        """
        self._crashed = False
        self._crash_at = None

    def injection_report(self) -> Mapping[str, int]:
        """How many faults of each kind have been injected so far."""
        with self._decision_lock:
            return dict(self._injected)

    def __getattr__(self, attribute: str):
        # Loading/maintenance APIs (insert, create_table, set_sharding, ...)
        # pass straight through to the child store.  Guard against recursion
        # while __init__ is still running (``_inner`` not yet bound).
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(attribute)
        return getattr(inner, attribute)

    # -- store interface -------------------------------------------------------------
    def capabilities(self):
        return replace(self._inner.capabilities(), name=self.name)

    def collections(self) -> Sequence[str]:
        self._check_alive()
        return self._inner.collections()

    def collection_size(self, collection: str) -> int:
        self._check_alive()
        return self._inner.collection_size(collection)

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        self._check_alive()
        return self._inner.column_statistics(collection, column)

    def reset_metrics(self) -> None:
        super().reset_metrics()
        self._inner.reset_metrics()

    # -- write path ------------------------------------------------------------------
    # Explicit overrides: ``apply_delta``/``truncate_collection`` exist on the
    # Store base class, so attribute lookup resolves them there and never
    # reaches ``__getattr__`` — and unlike materialization (which bypasses
    # injection via ``fault_target``), live writes must *observe* a crash:
    # a crashed replica refusing a delta is exactly what the chaos suite's
    # write-fan-out scenario exercises.
    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        self._check_alive()
        return self._inner.apply_delta(collection, inserts=inserts, deletes=deletes)

    def truncate_collection(self, collection: str) -> None:
        self._check_alive()
        self._inner.truncate_collection(collection)

    # -- durable plumbing --------------------------------------------------------------
    # Also explicit: these live on the Store base class, so attribute lookup
    # never reaches ``__getattr__``.  Attach/report/compact are maintenance
    # operations (like ``create_index``) and bypass injection; the child does
    # the logging, so the wrapper holds no backing of its own.
    def attach_durable(self, backing) -> None:
        self._inner.attach_durable(backing)

    def durable_backing(self):
        return self._inner.durable_backing()

    def compact_durable(self):
        return self._inner.compact_durable()

    def segment_scan_fraction(self, collection: str, bounds) -> float | None:
        return self._inner.segment_scan_fraction(collection, bounds)

    # -- the fault schedule ----------------------------------------------------------
    def _check_alive(self) -> None:
        if self._crashed:
            raise StoreCrashedError(f"store {self.name!r} is down")

    def _decide(self) -> _Decision:
        """Advance the schedule by one request (fixed draw order, thread-safe)."""
        with self._decision_lock:
            self._requests_seen = self._requests_seen + 1
            if self._crash_at is not None and self._requests_seen > self._crash_at:
                self._crashed = True
            if self._crashed:
                self._injected["crashed_requests"] += 1
                raise StoreCrashedError(f"store {self.name!r} is down")
            # Always draw every fault dimension so the schedule of one
            # dimension does not shift when another's rate changes.
            error_draw = self._rng.random()
            slow_draw = self._rng.random()
            mid_stream_draw = self._rng.random()
            mid_stream_rows = self._rng.randrange(1, 64)
            decision = _Decision()
            if error_draw < self._profile.error_rate:
                decision.error = True
                self._injected["errors"] += 1
                return decision
            if slow_draw < self._profile.slow_rate:
                decision.slow_seconds = self._profile.slow_seconds
                self._injected["slow"] += 1
            if mid_stream_draw < self._profile.mid_stream_rate:
                decision.mid_stream_after = mid_stream_rows
                self._injected["mid_stream"] += 1
            return decision

    def _begin(self) -> int | None:
        """Decide one request's faults and inject the pre-request ones.

        Returns after how many rows the response is lost (None: it is not).
        """
        decision = self._decide()
        if decision.error:
            raise TransientStoreError(f"store {self.name!r} dropped the request")
        wait = self._inner.simulated_latency + decision.slow_seconds
        if wait > 0.0 and not interruptible_sleep(wait):
            # The consumer cancelled while we were "in flight" (a hedged
            # backup won, or the query exited early): surface it as a dropped
            # request — nobody is waiting for the answer anyway.
            raise TransientStoreError(f"request to store {self.name!r} was cancelled")
        return decision.mid_stream_after

    # -- execution -------------------------------------------------------------------
    # A request takes one fault decision and then runs the child's own batch
    # hook (its native scan, its segments).
    def _execute_batches(
        self, request: StoreRequest, columns: Sequence[str], batch_size: int
    ) -> tuple[Iterator[RowBatch], StoreMetrics]:
        lost_after = self._begin()
        batches, metrics = self._inner._execute_batches(request, columns, batch_size)
        if lost_after is not None:
            batches = self._truncate(batches, lost_after)
        return batches, metrics

    def _truncate(self, batches: Iterator[RowBatch], after: int) -> Iterator[RowBatch]:
        """Serve ``after`` rows (counted across batches), then lose the stream."""
        try:
            served = 0
            for batch in batches:
                if served + len(batch) > after:
                    if after > served:
                        yield batch.take(after - served)
                    raise TransientStoreError(
                        f"store {self.name!r} lost the stream after {after} rows"
                    )
                served += len(batch)
                yield batch
        finally:
            # The child store's generator must unwind (routers account their
            # partitions there) whether the loss or the consumer ended us.
            batches.close()
