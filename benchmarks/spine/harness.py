"""Measurement of one workload: set-up, timed rounds, estimators, layer metrics.

Run shape: an *op* is one pass (each statement class once, in order) and its
latency is the sum of its statements' latencies.  The run is cut into short
rounds; a statistic is computed per round and the metric is the **best
round** (min for times, max for rates), which moves far less under neighbour
noise than a median over the whole run.  Answers are checked outside the
timed spans: the row count of every statement, and the full bag of the first
statement of each class in every round.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from repro.core import memo_stats
from repro.errors import DeadlineExceededError, OverloadedError

from trace import Tracer
from workloads import WORK_DIR, WORKLOADS, bag

# A round lasts ROUND_SECONDS and at least MIN_PASSES per client; rounds repeat
# until --seconds are used.  Short rounds, because the best round only helps if
# some round fits between two bursts of neighbour noise (bursts here last
# 0.2-3 s; over ten runs the best of 0.25 s rounds spread 2.5% where the best
# of 2 s rounds spread 7.9% and the median of all rounds 43% - see the README).
ROUND_SECONDS = 0.25
MIN_PASSES = 3
MIN_ROUNDS = 3
# setup_s is the best of at least MIN_SETUPS set-ups, more while they are cheap.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_SECONDS = 3, 7, 2.0
# A traced run gives its untraced rounds (the overhead reference) and its
# traced rounds this share of --seconds each; the 1-client and the unpinned
# rounds of a several-client workload share the rest.
TRACE_SHARE = 0.4

STATEMENT_CLASSES = tuple(dict.fromkeys(
    cls for workload in WORKLOADS.values() for cls in workload.classes))
_READ_COUNTS = ("requests", "rows_scanned", "rows_returned", "index_lookups",
                "segments_scanned", "segments_skipped", "rows_decoded")


def calibration_ms() -> float:
    """A fixed pure-Python loop: compares hosts, and flags a noisy run."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def set_affinity(cpus) -> None:
    """Move every thread of this process onto ``cpus``; later threads inherit."""
    if hasattr(os, "sched_setaffinity"):
        for thread in threading.enumerate():
            os.sched_setaffinity(thread.native_id, cpus)


class ClientLog:
    """What one client thread saw in one round."""

    def __init__(self, classes) -> None:
        self.passes: list[list] = []  # [latency seconds, correct, CPU seconds] per pass
        self.by_class: dict[str, list[float]] = {cls: [] for cls in classes}
        # cls -> (pass position, statement, rows): bag-checked after the round.
        self.samples: dict[str, tuple] = {}
        self.errors: Counter = Counter()
        self.first_error = ""
        self.counts: Counter = Counter()

    def observe(self, stmt, result) -> None:
        """Exact counts the program reports with each result (traced rounds)."""
        counts = self.counts
        counts["statements"] += 1
        if stmt.expected is None:
            counts["writes"] += 1
            counts["rows_written"] += stmt.count
            return
        counts["reads"] += 1
        if hasattr(result, "engine_seconds"):  # a ServiceResult
            counts["queue_seconds"] += result.queue_seconds
            counts["engine_seconds"] += result.engine_seconds
            result = result.result
        counts["cache_hits"] += result.cache_hit
        counts["batches"] += result.batches
        counts["rows_out"] += len(result.rows)
        for breakdown in result.store_breakdown.values():
            for field in _READ_COUNTS:
                counts[field] += getattr(breakdown, field)


def run_client(workload, client, log, index, deadline, observe) -> int:
    """Closed loop: issue passes until the round's deadline; returns the next index."""
    clock, cpu_clock = time.perf_counter, time.process_time
    while len(log.passes) < MIN_PASSES or clock() < deadline:
        latency, correct, cpu_started = 0.0, True, cpu_clock()
        for stmt in workload.statements(index, client):
            started = clock()
            try:
                result = stmt.run()
            except Exception as error:  # noqa: BLE001 - any failure fails the pass
                log.errors[type(error)] += 1
                log.first_error = log.first_error or repr(error)
                correct = False
                continue
            elapsed = clock() - started
            latency += elapsed
            log.by_class[stmt.cls].append(elapsed)
            if stmt.expected is not None:
                if len(result.rows) != stmt.count:
                    correct = False
                elif stmt.cls not in log.samples:
                    log.samples[stmt.cls] = (len(log.passes), stmt, result.rows)
            if observe:
                log.observe(stmt, result)
        log.passes.append([latency, correct, cpu_clock() - cpu_started])
        index += 1
    return index


class Round:
    """The merged outcome of one round over all clients."""

    def __init__(self, logs, window: tuple[int, int], cpu: float, clients: int) -> None:
        self.window = window  # perf_counter_ns at its start and end: selects its spans
        wall = (window[1] - window[0]) / 1e9
        self.extra_columns: set[tuple[str, str]] = set()
        for log in logs:
            for position, stmt, rows in log.samples.values():
                if bag(rows, stmt.columns) != stmt.expected:
                    log.passes[position][1] = False
                if rows:
                    self.extra_columns |= {(stmt.cls, c) for c in set(rows[0]) - set(stmt.columns)}
        self.latencies = [entry[0] for log in logs for entry in log.passes]
        self.attempted = len(self.latencies)
        self.failed = sum(not entry[1] for log in logs for entry in log.passes)
        self.errors = sum((log.errors for log in logs), Counter())
        self.first_error = next((log.first_error for log in logs if log.first_error), "")
        self.counts = sum((log.counts for log in logs), Counter())
        self.p50_ms = statistics.median(self.latencies) * 1e3
        # One client: work time only, so answer checking between statements is
        # not charged, and the median pass's CPU time.  Several: the round's
        # wall clock and CPU time, which is what the clients jointly used
        # (process CPU time cannot be split between overlapping passes).
        if clients == 1:
            self.ops_per_s = (self.attempted - self.failed) / sum(self.latencies)
            self.cpu_ms_per_op = statistics.median(entry[2] for entry in logs[0].passes) * 1e3
        else:
            self.ops_per_s = (self.attempted - self.failed) / wall
            self.cpu_ms_per_op = cpu / self.attempted * 1e3
        self.class_p50_us = {
            cls: statistics.median(samples) * 1e6
            for cls in logs[0].by_class
            if (samples := [s for log in logs for s in log.by_class[cls]])
        }


def run_rounds(workload, seconds: float, cursor: list[int], clients: int, observe=False):
    """Rounds until ``seconds`` are used; ``cursor`` holds each client's next pass index."""
    rounds = []
    round_seconds = min(ROUND_SECONDS, seconds / MIN_ROUNDS)
    end = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < end:
        rounds.append(run_round(workload, round_seconds, cursor, clients, observe))
    return rounds


def run_round(workload, seconds: float, cursor: list[int], clients: int, observe: bool) -> Round:
    gc.collect()
    logs = [ClientLog(workload.classes) for _ in range(clients)]
    cpu_started = time.process_time()
    started_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    if clients == 1:
        cursor[0] = run_client(workload, 0, logs[0], cursor[0], deadline, observe)
    else:
        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [
                pool.submit(run_client, workload, client, logs[client], cursor[client],
                            deadline, observe)
                for client in range(clients)
            ]
            for client, future in enumerate(futures):
                cursor[client] = future.result()
    window = (started_ns, time.perf_counter_ns())
    return Round(logs, window, time.process_time() - cpu_started, clients)


def best(rounds, attribute: str, pick=min) -> float:
    return pick(getattr(entry, attribute) for entry in rounds)


def spread(rounds, attribute: str) -> float:
    values = [getattr(entry, attribute) for entry in rounds]
    return (max(values) - min(values)) / (statistics.median(values) or 1.0)


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Outcome:
    """What a run reports: metric values, round statistics, correctness."""

    def __init__(self) -> None:
        self.metrics: dict[str, float | None] = {}
        self.notes: dict[str, str] = {}  # metric -> "median …, spread …" for the table
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.noisy = False
        self.first_error = ""

    def absorb(self, rounds) -> None:
        self.attempted += sum(entry.attempted for entry in rounds)
        self.failed += sum(entry.failed for entry in rounds)
        self.first_error = self.first_error or next(
            (entry.first_error for entry in rounds if entry.first_error), "")

    def note_rounds(self, name: str, rounds, attribute: str) -> None:
        values = [getattr(entry, attribute) for entry in rounds]
        self.notes[name] = (f"median {statistics.median(values):.4g}, "
                            f"spread {spread(rounds, attribute):.1%} over {len(rounds)} rounds")


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    """Run one workload; end-to-end metrics untraced, layer metrics traced."""
    workload = WORKLOADS[name](seed, smoke)
    outcome = Outcome()
    calibrated = calibration_ms()
    # Where the threads may roam when not pinned (None: this OS cannot pin).
    roaming = os.sched_getaffinity(0) if workload.one_cpu and hasattr(os, "sched_getaffinity") else None
    if roaming:
        set_affinity({min(roaming)})
    try:
        setups: list[float] = []
        least, most = (1, 1) if trace else (MIN_SETUPS, MIN_SETUPS if smoke else MAX_SETUPS)
        while len(setups) < least or (len(setups) < most and sum(setups) < SETUP_BUDGET_SECONDS):
            gc.collect()
            started = time.perf_counter()
            workload.build()
            setups.append(time.perf_counter() - started)
        workload.prepare()
        for index in range(workload.settle_passes):
            for stmt in workload.statements(index):
                stmt.run()
        cursor = [workload.settle_passes] * workload.clients
        if trace:
            _measure_layers(workload, seconds, cursor, outcome, roaming)
        else:
            rounds = run_rounds(workload, seconds, cursor, workload.clients)
            outcome.absorb(rounds)
            outcome.metrics = {
                "setup_s": min(setups),
                "lat_p50_ms": best(rounds, "p50_ms"),
                "ops_per_s": best(rounds, "ops_per_s", max),
                "cpu_ms_per_op": best(rounds, "cpu_ms_per_op"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            for metric in ("lat_p50_ms", "ops_per_s", "cpu_ms_per_op"):
                outcome.note_rounds(metric, rounds, metric.replace("lat_", ""))
            outcome.notes["setup_s"] = "best of " + ", ".join(f"{s:.3f}" for s in setups)
        if not workload.final_check():
            outcome.correct = False
            outcome.first_error = outcome.first_error or "final state differs from the oracle"
    finally:
        workload.close()
    recalibrated = calibration_ms()
    outcome.noisy = abs(recalibrated - calibrated) > 0.10 * min(calibrated, recalibrated)
    if trace:
        outcome.metrics["host.calibration_ms"] = min(calibrated, recalibrated)
    outcome.correct = outcome.correct and outcome.failed == 0
    return outcome


def _measure_layers(workload, seconds: float, cursor, outcome: Outcome, roaming) -> None:
    clients = workload.clients
    untraced = run_rounds(workload, seconds * TRACE_SHARE, cursor, clients)
    single, unpinned = [], []
    if clients > 1:
        rest = seconds * (1 - 2 * TRACE_SHARE) / 2
        single = run_rounds(workload, rest, cursor, 1)
        if roaming:
            set_affinity(roaming)
            unpinned = run_rounds(workload, rest, cursor, clients)
            set_affinity({min(roaming)})

    tracer = Tracer()
    memo_before = memo_stats()
    before = workload.progress()
    tracer.install(workload.stores.values())
    try:
        traced = run_rounds(workload, seconds * TRACE_SHARE, cursor, clients, observe=True)
    finally:
        tracer.uninstall()
    after = workload.progress()
    memo_after = memo_stats()
    everything = untraced + traced + single + unpinned
    outcome.absorb(everything)

    # Layer times and per-statement counts come from the best traced round, as
    # the latencies do: over all rounds their mean would carry every burst of
    # neighbour noise and sum to well above the latency they should explain.
    quietest = min(traced, key=lambda entry: entry.p50_ms)
    spans = tracer.by_name(*quietest.window)
    counts = quietest.counts
    statements = counts["statements"] or 1
    all_spans = tracer.by_name()
    all_counts = sum((entry.counts for entry in traced), Counter())
    unresolved = set(tracer.unresolved)

    def per_statement_us(*names: str, key: str = "self_ns") -> float | None:
        if unresolved.intersection(names):
            return None
        return sum(spans[n][key] for n in names if n in spans) / statements / 1e3

    def calls(name: str, within=spans) -> float | None:
        return None if name in unresolved else within[name]["count"] if name in within else 0

    def ratio(numerator, denominator) -> float | None:
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    facade_spans = ("facade.query", "facade.insert", "facade.update", "facade.delete")
    memo_hits = sum(memo_after[m]["hits"] - memo_before[m]["hits"] for m in memo_after)
    memo_misses = sum(memo_after[m]["misses"] - memo_before[m]["misses"] for m in memo_after)
    latencies = [latency for entry in untraced for latency in entry.latencies]
    class_p50 = {cls: min(entry.class_p50_us[cls] for entry in untraced)
                 for cls in untraced[0].class_p50_us}
    extra_columns = set().union(*(entry.extra_columns for entry in everything))
    errors = sum((entry.errors for entry in everything), Counter())
    rate_one = best(single, "ops_per_s", max) if single else 0.0

    metrics = outcome.metrics
    metrics.update({
        "sql.translate_us": per_statement_us("sql.translate"),
        "sql.parse_us": per_statement_us("sql.parse"),
        "sql.calls_per_stmt": ratio(calls("sql.translate"), statements),
        "facade.self_us": per_statement_us(*facade_spans),
        "facade.plan_cache_hit_ratio": ratio(counts["cache_hits"], counts["reads"]),
        "facade.lat_p99_ms": percentile(latencies, 0.99) * 1e3,
        "facade.extra_columns": len(extra_columns),
        "rewrite.rewrite_us": per_statement_us("rewrite.rewrite"),
        "rewrite.calls_per_stmt": ratio(calls("rewrite.rewrite"), statements),
        "rewrite.memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
        "rewrite.memo_entries": sum(entry["size"] for entry in memo_after.values()),
        "plan.rank_us": per_statement_us("plan.rank"),
        "plan.plans_ranked_per_call": ratio(
            tracer.tallies["plan.rank"], calls("plan.rank", all_spans)),
        "runtime.execute_us": per_statement_us("runtime.execute", key="total_ns"),
        "runtime.self_us": per_statement_us("runtime.execute"),
        "runtime.batches_per_stmt": counts["batches"] / statements,
        "runtime.rows_out_per_stmt": counts["rows_out"] / statements,
        "stores.scan_us": per_statement_us("stores.scan"),
        "stores.requests_per_stmt": counts["requests"] / statements,
        "stores.rows_scanned_per_stmt": counts["rows_scanned"] / statements,
        "stores.scanned_per_returned": ratio(counts["rows_scanned"], counts["rows_returned"]),
        "stores.index_lookups_per_stmt": counts["index_lookups"] / statements,
        "stores.apply_delta_us": per_statement_us("stores.apply_delta"),
        "segment.log_us": per_statement_us("segment.log"),
        "segment.fsync_us": per_statement_us("segment.fsync"),
        "segment.fsyncs_per_write": ratio(calls("segment.fsync", all_spans), all_counts["writes"]),
        "segment.wal_bytes_per_user_byte": ratio(
            after["wal_bytes"] - before["wal_bytes"], after["user_bytes"] - before["user_bytes"]),
        "segment.segments_skipped_ratio": ratio(
            counts["segments_skipped"], counts["segments_skipped"] + counts["segments_scanned"]),
        "segment.rows_decoded_per_returned": ratio(counts["rows_decoded"], counts["rows_returned"]),
        "maintenance.apply_write_us": per_statement_us("maintenance.apply_write"),
        "maintenance.maintain_us": per_statement_us("maintenance.maintain"),
        "maintenance.delta_rows_per_written_row": ratio(
            None if "maintenance.maintain" in unresolved else tracer.tallies["maintenance.maintain"],
            all_counts["rows_written"]),
        "maintenance.pending_after_run": len(workload.est.maintenance.stale_fragments()),
        "service.self_us": per_statement_us("service.execute"),
        "service.queue_us": counts["queue_seconds"] / statements * 1e6,
        "service.engine_us": counts["engine_seconds"] / statements * 1e6,
        "service.shed": errors[OverloadedError],
        "service.timed_out": errors[DeadlineExceededError],
        "service.ops_per_s_c1": rate_one,
        "service.scaling_c2_over_c1": ratio(best(untraced, "ops_per_s", max), rate_one),
        "service.ops_per_s_unpinned": best(unpinned, "ops_per_s", max) if unpinned else 0.0,
        "catalog.register_fragment_ms":
            workload.register_seconds / workload.fragments_registered * 1e3,
        "catalog.load_rows_per_s": workload.rows_loaded / workload.register_seconds,
        "host.nproc": os.cpu_count(),
        "trace.overhead_ratio": quietest.p50_ms / best(untraced, "p50_ms"),
        "trace.unresolved": len(unresolved),
    })
    for cls in STATEMENT_CLASSES:
        metrics[f"facade.{cls}.p50_us"] = class_p50.get(cls, 0.0)
    # Compaction and recovery are one-off phases, timed directly, untraced.
    metrics.update(workload.durable_phases())
    if unresolved:
        print(f"unresolved wrap points: {sorted(unresolved)}", file=sys.stderr)
    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.write_jsonl(os.path.join(WORK_DIR, f"spans-{workload.name}.jsonl"))
