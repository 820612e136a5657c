"""Open-loop workload driver for QPS / tail-latency measurement.

A *closed-loop* driver (issue the next query when the previous one returns)
self-throttles: when the service saturates, the driver slows down with it, so
measured latency stays flat and the collapse is invisible.  An **open-loop**
driver submits on a fixed schedule derived only from the offered rate —
exactly like independent clients arriving at a shared service — so once
offered load crosses the service's capacity, the backlog (and therefore tail
latency) grows without bound unless admission control sheds the excess.
The driver here is the instrument that makes queueing collapse observable.

The driver is service-agnostic: it calls a ``submit`` callable that either
returns a ticket (``wait()``/``error()``/``submitted_at``/``finished_at``,
i.e. :class:`repro.service.QueryTicket`'s surface) or raises
:class:`~repro.errors.OverloadedError` for shed load.  Latency is measured
submission → completion, so time spent queued counts — again, the client's
view, not the engine's.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import DeadlineExceededError, OverloadedError

__all__ = ["WorkloadQuery", "LoadReport", "OpenLoopDriver", "percentile"]


def percentile(samples: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = min(len(ordered) - 1, max(0, round(quantile * (len(ordered) - 1))))
    return ordered[position]


@dataclass(frozen=True, slots=True)
class WorkloadQuery:
    """One templated query a workload mix draws from."""

    query: Any
    dataset: str | None = None
    tenant: str = "default"
    deadline_seconds: float | None = None
    parallelism: int | None = None


@dataclass(slots=True)
class LoadReport:
    """Outcome of one open-loop run at a fixed offered rate.

    ``sustained_qps`` is goodput: queries *completed* during the submission
    window divided by its length — under collapse it plateaus (or shrinks)
    while ``offered_qps`` keeps rising.  ``unfinished`` counts queries still
    queued or running when the drain window closed; they are the visible mass
    of an unbounded backlog.
    """

    offered_qps: float
    duration_seconds: float
    slo_seconds: float | None
    submitted: int = 0
    completed: int = 0
    completed_in_window: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    timed_out: int = 0
    failed: int = 0
    unfinished: int = 0
    latencies_seconds: list[float] = field(default_factory=list)

    @property
    def sustained_qps(self) -> float:
        """Goodput: completions *inside* the submission window per second.

        Completions during the drain window are excluded — counting them
        would credit an unbounded backlog served after the offered load
        stopped, masking exactly the collapse this driver exists to show.
        """
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed_in_window / self.duration_seconds

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of *submitted* queries that completed within the SLO."""
        if not self.submitted or self.slo_seconds is None:
            return 0.0
        within = sum(1 for latency in self.latencies_seconds if latency <= self.slo_seconds)
        return within / self.submitted

    @property
    def p50_seconds(self) -> float:
        """Median completion latency."""
        return percentile(self.latencies_seconds, 0.50)

    @property
    def p99_seconds(self) -> float:
        """99th-percentile completion latency."""
        return percentile(self.latencies_seconds, 0.99)

    @property
    def p999_seconds(self) -> float:
        """99.9th-percentile completion latency (one slow durable recovery or
        compaction pause shows up here long before it moves the p99)."""
        return percentile(self.latencies_seconds, 0.999)

    def describe(self) -> Mapping[str, object]:
        return {
            "offered_qps": self.offered_qps,
            "duration_seconds": self.duration_seconds,
            "submitted": self.submitted,
            "completed": self.completed,
            "completed_in_window": self.completed_in_window,
            "shed": self.shed,
            "shed_reasons": dict(self.shed_reasons),
            "timed_out": self.timed_out,
            "failed": self.failed,
            "unfinished": self.unfinished,
            "sustained_qps": self.sustained_qps,
            "shed_rate": self.shed_rate,
            "slo_seconds": self.slo_seconds,
            "slo_attainment": self.slo_attainment,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "p999_seconds": self.p999_seconds,
            "max_seconds": max(self.latencies_seconds, default=0.0),
        }


class OpenLoopDriver:
    """Submit a query mix at a fixed offered rate, independent of completions.

    ``submit`` receives a :class:`WorkloadQuery` and must return a ticket or
    raise ``OverloadedError`` (counted as shed, which is *cheap* by design).
    The driver never waits for a result before the next submission; if it
    falls behind schedule (e.g. the submit path itself blocked) it bursts to
    catch up, preserving the offered-rate contract.
    """

    def __init__(
        self,
        submit: Callable[[WorkloadQuery], Any],
        queries: Sequence[WorkloadQuery],
        seed: int = 0,
    ) -> None:
        if not queries:
            raise ValueError("workload needs at least one query template")
        self._submit = submit
        self._queries = list(queries)
        self._rng = random.Random(seed)

    def run(
        self,
        offered_qps: float,
        duration_seconds: float,
        slo_seconds: float | None = None,
        drain_seconds: float = 2.0,
    ) -> LoadReport:
        """Drive the service at ``offered_qps`` for ``duration_seconds``.

        After the submission window, waits up to ``drain_seconds`` for
        outstanding tickets; whatever is still pending counts as
        ``unfinished`` (the backlog admission control exists to prevent).
        """
        if offered_qps <= 0:
            raise ValueError("offered_qps must be positive")
        report = LoadReport(
            offered_qps=offered_qps,
            duration_seconds=duration_seconds,
            slo_seconds=slo_seconds,
        )
        interval = 1.0 / offered_qps
        outstanding: list[Any] = []
        started = time.monotonic()
        deadline = started + duration_seconds
        tick = 0
        while True:
            target = started + tick * interval
            now = time.monotonic()
            if target >= deadline:
                break
            if target > now:
                time.sleep(target - now)
            template = self._rng.choice(self._queries)
            report.submitted += 1
            try:
                outstanding.append(self._submit(template))
            except OverloadedError as error:
                report.shed += 1
                reason = error.reason or "unknown"
                report.shed_reasons[reason] = report.shed_reasons.get(reason, 0) + 1
            tick += 1

        drain_until = time.monotonic() + max(0.0, drain_seconds)
        for ticket in outstanding:
            remaining = drain_until - time.monotonic()
            if not ticket.wait(max(0.0, remaining)):
                report.unfinished += 1
                continue
            error = ticket.error()
            if error is None:
                report.latencies_seconds.append(ticket.finished_at - ticket.submitted_at)
                report.completed += 1
                if ticket.finished_at <= deadline:
                    report.completed_in_window += 1
            elif isinstance(error, DeadlineExceededError):
                report.timed_out += 1
            else:
                report.failed += 1
        return report
