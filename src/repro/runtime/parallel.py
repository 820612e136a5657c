"""Intra-query parallelism: the executor pool and the Exchange operator.

A multi-store plan fans out to several underlying DMSs; executing its
delegation groups serially pays the *sum* of all store latencies where the
*max* would do.  The scatter-gather runtime overlaps them:

* :class:`ExecutorPool` is a bounded thread pool (configurable width) shared
  by every :class:`Exchange` of one execution;
* :class:`Exchange` is a single-child operator inserted by the physical
  planner around independent subtrees (each delegated store request — the
  leaves of hash-join build and probe sides).  When the execution runs with
  ``parallelism > 1`` the child pipeline is evaluated on a pool worker, and
  its :class:`~repro.runtime.batch.RowBatch` stream is forwarded to the
  consumer through a bounded queue.  With ``parallelism == 1`` (or outside an
  engine-managed execution) the Exchange is a pure pass-through, so serial
  execution reproduces the pre-parallel engine exactly.

Scheduling is deadlock-free by construction: the engine *pre-starts* every
Exchange of the plan so independent store requests overlap from the first
batch, and a consumer that reaches an Exchange whose task is still pending in
the pool steals it (``Future.cancel``) and runs the child inline — the
consumer thread therefore never blocks on work that no thread is running.
Cancellation (LIMIT / early exit / errors) is cooperative: the engine signals
every Exchange, workers stop between batches and close their child pipeline,
which finalizes the store streams exactly once and merges the worker's
metrics back into the parent context.

**Failure propagation** is fail-fast: a worker exception is recorded in the
execution's shared :class:`~repro.runtime.operators.FailureSignal`, sibling
workers observe it between batches and stop issuing further store requests,
and any consumer whose stream was truncated by the signal re-raises the
*original* exception object — the first failure surfaces with its own
traceback instead of leaving the pool draining.

The module also hosts two replication-layer primitives that share the same
cooperative-cancellation vocabulary:

* a per-thread **cancel event registry** (:func:`set_current_cancel` /
  :func:`current_cancel_event` / :func:`interruptible_sleep`): Exchange
  workers and hedge attempt threads publish their cancel event so anything
  simulating blocking waits below them (store service latency, injected
  latency spikes) can abort at the next poll instead of sleeping through a
  cancellation;
* :func:`run_hedged`, the bounded **hedged-request** runner used by
  :class:`~repro.stores.replicated.ReplicatedStore`: run the primary
  attempt, fire the backup once the hedge delay elapses (or immediately when
  the primary fails fast), first winner sets the shared cancel event so the
  loser stops at its next cancellable wait.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TypeVar

from repro.cancellation import (
    Deadline,
    current_cancel_event,
    interruptible_sleep,
    set_current_cancel,
)
from repro.runtime.batch import RowBatch
from repro.runtime.operators import ExecutionContext, Operator

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "WORKER_BUDGET",
    "ExecutorPool",
    "Exchange",
    "ExchangeState",
    "AttemptReport",
    "HedgeOutcome",
    "run_hedged",
    "active_pool_workers",
    "Deadline",
    "set_current_cancel",
    "current_cancel_event",
    "interruptible_sleep",
]

DEFAULT_QUEUE_DEPTH = 8

WORKER_BUDGET = 64
"""Process-wide cap on ExecutorPool worker threads (read as each pool is made).

Stacked parallel layers (service workers x shards x replicas) would otherwise
multiply threads; see :class:`ExecutorPool` for how a short grant degrades.
"""

_SENTINEL = object()

_T = TypeVar("_T")

_budget_lock = threading.Lock()
_active_pool_workers = 0


def active_pool_workers() -> int:
    """Worker threads currently granted to live :class:`ExecutorPool` instances."""
    with _budget_lock:
        return _active_pool_workers


def _release_grant(granted: int) -> None:
    global _active_pool_workers
    with _budget_lock:
        _active_pool_workers -= granted


# -- hedged requests ----------------------------------------------------------------


@dataclass(slots=True)
class AttemptReport:
    """What happened to one attempt of a hedged request.

    ``hedged`` distinguishes *why* a backup launched: True when the hedge
    delay elapsed with the earlier attempt still in flight (a straggler
    hedge), False when every earlier attempt had already failed (a fail-fast
    launch — semantically a failover, and accounted as one by callers).
    """

    index: int
    launched: bool = False
    completed: bool = False
    error: BaseException | None = None
    elapsed_seconds: float = 0.0
    hedged: bool = False


@dataclass(slots=True)
class HedgeOutcome:
    """The result of :func:`run_hedged`.

    ``winner`` is the index of the first successful attempt (None when every
    launched attempt failed), ``value`` its return value, ``backups_fired``
    how many attempts beyond the primary were launched.  ``reports`` covers
    every attempt (launched or not) in order; a losing attempt that is still
    running when the winner returns stays ``completed=False``.
    """

    winner: int | None = None
    value: object | None = None
    backups_fired: int = 0
    reports: list[AttemptReport] = field(default_factory=list)

    def errors(self) -> list[BaseException]:
        """The errors of every completed, failed attempt (launch order)."""
        return [r.error for r in self.reports if r.error is not None]


def run_hedged(
    attempts: Sequence[Callable[[threading.Event], _T]],
    delay_seconds: float,
    name: str = "hedge",
) -> HedgeOutcome:
    """Run ``attempts`` with hedging: fire the next one after ``delay_seconds``.

    The first attempt starts immediately; while no attempt has succeeded, the
    next one is launched as soon as either the hedge delay elapses or every
    launched attempt has already failed (failing fast skips the wait).  The
    first success wins and sets the shared cancel :class:`threading.Event`
    (passed to every attempt, and published as the attempt thread's current
    cancel event) so losers stop at their next cancellable wait; their late
    results are discarded.  The *calling* thread's published cancel event is
    honored too: when the surrounding execution is cancelled (LIMIT
    early-exit, sibling failure), the hedge race's cancel fires, no further
    backups launch, and in-flight attempts abort at their next cancellable
    wait.  Never raises — inspect the returned :class:`HedgeOutcome`.
    """
    count = len(attempts)
    if count == 0:
        return HedgeOutcome()
    outer = current_cancel_event()
    cancel = threading.Event()
    condition = threading.Condition()
    outcome = HedgeOutcome(reports=[AttemptReport(i) for i in range(count)])
    state = {"launched": 0, "completed": 0}

    def propagate_outer_cancel() -> None:
        if outer is not None and outer.is_set():
            cancel.set()

    def runner(index: int) -> None:
        set_current_cancel(cancel)
        report = outcome.reports[index]
        started = time.perf_counter()
        try:
            value = attempts[index](cancel)
        except BaseException as error:  # noqa: BLE001 - reported to the caller
            with condition:
                report.error = error
                report.completed = True
                report.elapsed_seconds = time.perf_counter() - started
                state["completed"] += 1
                condition.notify_all()
        else:
            with condition:
                report.completed = True
                report.elapsed_seconds = time.perf_counter() - started
                if outcome.winner is None:
                    outcome.winner = index
                    outcome.value = value
                    cancel.set()
                state["completed"] += 1
                condition.notify_all()

    def launch(index: int, hedged: bool = False) -> None:
        outcome.reports[index].launched = True
        outcome.reports[index].hedged = hedged
        state["launched"] += 1
        threading.Thread(
            target=runner, args=(index,), daemon=True, name=f"repro-{name}-{index}"
        ).start()

    with condition:
        launch(0)
        next_index = 1
        deadline = time.perf_counter() + max(0.0, delay_seconds)
        while outcome.winner is None and next_index < count:
            propagate_outer_cancel()
            if cancel.is_set():
                # The surrounding execution was cancelled: no more backups.
                break
            live = state["launched"] - state["completed"]
            remaining = deadline - time.perf_counter()
            if live == 0 or remaining <= 0:
                # live > 0: the delay elapsed with an attempt still in flight
                # (a straggler hedge); live == 0: everything launched so far
                # already failed, fire the next attempt immediately (a
                # fail-fast launch, i.e. a failover).
                launch(next_index, hedged=live > 0)
                next_index += 1
                deadline = time.perf_counter() + max(0.0, delay_seconds)
                continue
            # Poll in short slices so an outer cancellation is noticed
            # promptly even while waiting out the hedge delay.
            condition.wait(timeout=min(remaining, 0.02))
        while outcome.winner is None and state["completed"] < state["launched"]:
            propagate_outer_cancel()
            condition.wait(timeout=0.02)
    outcome.backups_fired = state["launched"] - 1
    return outcome


class ExecutorPool:
    """A bounded pool of worker threads evaluating Exchange child pipelines.

    ``width`` bounds how many child pipelines run concurrently; excess
    Exchanges wait in the pool's queue until a slot frees up (or are stolen
    and run inline by the consumer, see :meth:`ExchangeState.drain`).

    The requested width is additionally clamped against the *process-wide*
    worker budget (:data:`WORKER_BUDGET`): pools draw their grant from one
    shared pot and return it on :meth:`close`, so stacking parallel layers
    (service workers x sharded fan-out x replicated children) cannot
    multiply threads past the budget.  ``requested_width`` records what the
    caller asked for; :attr:`width` is what the budget granted.
    """

    def __init__(self, width: int) -> None:
        global _active_pool_workers
        self.requested_width = max(1, int(width))
        with _budget_lock:
            available = WORKER_BUDGET - _active_pool_workers
            self.width = max(1, min(self.requested_width, available))
            _active_pool_workers += self.width
        self._granted = self.width
        self._executor = ThreadPoolExecutor(
            max_workers=self.width, thread_name_prefix="repro-exchange"
        )
        # The grant returns when the pool is garbage collected, not only on
        # an explicit close(): an abandoned engine's idle pool threads exit
        # once the executor is unreachable (ThreadPoolExecutor's weakref
        # machinery), so its workers must flow back into the shared pot too
        # or leaked pools would permanently drain the budget.
        self._return_grant = weakref.finalize(self, _release_grant, self._granted)

    def submit(self, fn, *args) -> Future:
        """Schedule ``fn`` on a worker thread."""
        return self._executor.submit(fn, *args)

    def close(self) -> None:
        """Shut the pool down and return its workers to the shared budget."""
        self._executor.shutdown(wait=True, cancel_futures=True)
        # Calling a finalizer detaches it: the grant is returned exactly once
        # whether close() runs zero, one, or many times before collection.
        self._return_grant()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ExecutorPool width={self.width} requested={self.requested_width}>"


class ExchangeState:
    """Per-execution state of one Exchange (operators themselves stay stateless).

    Holds the bounded batch queue, the cancellation event and the worker
    future; created by :meth:`Exchange.start` and registered in the
    :class:`~repro.runtime.operators.ExecutionContext` so the engine can shut
    every Exchange down when the execution ends (normally or early).
    """

    __slots__ = (
        "_child",
        "_parent",
        "_sub",
        "_queue",
        "_cancel",
        "_done",
        "_future",
        "_error",
        "_inline",
        "_merged",
        "_failure",
        "_failure_truncated",
    )

    def __init__(self, child: Operator, context: ExecutionContext, queue_depth: int) -> None:
        self._child = child
        self._parent = context
        self._sub = context.spawn()
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, queue_depth))
        self._cancel = threading.Event()
        if context.deadline is not None:
            # A firing deadline cancels this worker too: its published cancel
            # event wakes any in-flight simulated store wait, and the batch
            # loop stops issuing further store requests.
            context.deadline.add_listener(self._cancel)
        self._done = threading.Event()
        self._future: Future | None = None
        self._error: BaseException | None = None
        self._inline = False
        self._merged = False
        self._failure = context.failure
        self._failure_truncated = False

    # -- producer side -------------------------------------------------------------
    def submit(self, pool: ExecutorPool) -> None:
        """Schedule the child pipeline on the pool."""
        self._future = pool.submit(self._run)

    def _put(self, item: object) -> bool:
        """Enqueue ``item``, giving up on cancellation or a sibling failure."""
        while not self._cancel.is_set() and not self._failure.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def _run(self) -> None:
        """Worker body: drain the child pipeline into the queue."""
        set_current_cancel(self._cancel)
        try:
            source = self._child.batches(self._sub)
            try:
                for batch in source:
                    if self._failure.is_set():
                        # A sibling failed: stop issuing store requests and let
                        # the consumer surface the sibling's original error.
                        self._failure_truncated = True
                        break
                    # Rows forwarded through the queue: the cross-thread data
                    # volume (partial-aggregation pushdown exists to shrink it).
                    self._sub.exchange_rows += len(batch)
                    if not self._put(batch):
                        self._failure_truncated = self._failure.is_set()
                        break
            finally:
                # Closing the generator runs the operators' finally blocks:
                # store streams are finalized (exactly once) and their metrics
                # recorded into the worker's sub-context.
                source.close()
        except BaseException as error:  # noqa: BLE001 - forwarded to the consumer
            self._error = error
            self._failure.signal(error)
        finally:
            set_current_cancel(None)
            self._done.set()
            self._put(_SENTINEL)

    # -- consumer side -------------------------------------------------------------
    def _merge(self) -> None:
        """Fold the worker's sub-context into the parent, exactly once.

        Both call sites — :meth:`drain` after the stream ends and
        :meth:`shutdown` from the engine's cleanup — run on the *consumer*
        thread, after :attr:`_done` is set, so the parent context is never
        mutated concurrently with the consumer-thread operators (which update
        it unlocked).
        """
        if self._merged:
            return
        self._merged = True
        self._parent.merge_child(self._sub)

    def drain(self) -> Iterator[RowBatch]:
        """Yield the child's batches (from the queue, or inline when stolen)."""
        if self._future is not None and self._future.cancel():
            # The pool never started this task: run the child inline on the
            # consumer thread (plain serial semantics, parent context) rather
            # than blocking on a queue nobody fills.
            self._inline = True
            self._done.set()
            sibling_error = self._failure.error
            if sibling_error is not None:
                # A sibling already failed: don't start fresh store requests
                # for a doomed execution, surface the original failure.
                raise sibling_error
            yield from self._child.batches(self._parent)
            return
        while True:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._done.is_set() and self._queue.empty():
                    break
                continue
            if item is _SENTINEL:
                break
            yield item
        self._merge()
        if self._error is not None:
            raise self._error
        if self._failure_truncated:
            # This worker stopped early because a sibling failed; its stream
            # is incomplete, so the consumer must not treat it as exhausted —
            # re-raise the sibling's original exception (traceback intact).
            sibling_error = self._failure.error
            if sibling_error is not None:
                raise sibling_error

    def shutdown(self) -> None:
        """Cancel the worker, wait until its pipeline is closed, merge metrics."""
        self._cancel.set()
        if self._inline:
            return
        if self._future is not None and self._future.cancel():
            # Never started: nothing ran, nothing to merge.
            self._done.set()
            return
        # The worker stops at the next batch/queue-put boundary; drain the
        # queue while waiting so a producer blocked on a full queue wakes up.
        while not self._done.wait(timeout=0.05):
            try:
                while True:
                    self._queue.get_nowait()
            except queue.Empty:
                pass
        self._merge()


class Exchange(Operator):
    """Run the child pipeline concurrently, forwarding batches through a queue.

    The operator itself is stateless (plans stay cacheable and re-executable);
    all per-execution state lives in an :class:`ExchangeState` registered in
    the execution context.  Without a pool on the context the Exchange
    degenerates to ``child.batches(context)`` — the serial fallback.
    """

    def __init__(
        self, child: Operator, label: str = "", queue_depth: int = DEFAULT_QUEUE_DEPTH
    ) -> None:
        self._child = child
        self._label = label
        self._queue_depth = queue_depth

    @property
    def label(self) -> str:
        """The display label (usually the wrapped fragment's name)."""
        return self._label

    def children(self):
        return (self._child,)

    def start(self, context: ExecutionContext) -> ExchangeState:
        """Create (or fetch) this Exchange's state and schedule its worker."""
        state = context.exchange_states.get(id(self))
        if state is None:
            state = ExchangeState(self._child, context, self._queue_depth)
            context.exchange_states[id(self)] = state
            state.submit(context.pool)
        return state

    def batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        if context.pool is None:
            return self._child.batches(context)
        state = context.exchange_states.get(id(self))
        if state is None:
            state = self.start(context)
        return state.drain()

    def describe(self) -> str:
        suffix = f" {self._label}" if self._label else ""
        return f"Exchange[{suffix.strip() or 'scatter-gather'}]"
