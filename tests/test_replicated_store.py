"""Unit tests for the replication subsystem.

Covers the replica health board (EWMA latency, ranking, hedge-delay
percentile), the fault injector's seeded determinism, the hedged-request
runner, and the ReplicatedStore's retry / failover / hedging behavior,
including facade integration and composition with sharded child stores.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Estocada
from repro.catalog import AccessMethod, ShardingSpec, StorageDescriptor, StorageLayout
from repro.catalog.statistics import ReplicaHealthBoard
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.errors import (
    AllReplicasFailedError,
    StoreCrashedError,
    StoreError,
    TransientStoreError,
)
from repro.runtime import interruptible_sleep, run_hedged
from repro.stores import (
    RelationalStore,
    ReplicatedStore,
    ReplicationPolicy,
    ScanRequest,
    ShardedStore,
)
from repro.testing import FaultInjector, FaultProfile


def _loaded_relational(name: str, rows: int = 20) -> RelationalStore:
    store = RelationalStore(name)
    store.create_table("t", ["a", "b"])
    store.insert("t", [{"a": i, "b": i % 3} for i in range(rows)])
    return store


def _replicated(profiles=None, policy=None, replicas=3, rows=20) -> ReplicatedStore:
    profiles = profiles or {}
    children = []
    for index in range(replicas):
        inner = _loaded_relational(f"r.{index}", rows=rows)
        profile = profiles.get(index)
        children.append(FaultInjector(inner, profile) if profile else inner)
    return ReplicatedStore("rep", children, policy=policy)


class TestReplicaHealthBoard:
    def test_ranking_prefers_cheapest_healthy_ewma(self):
        board = ReplicaHealthBoard(["a", "b", "c"])
        board.record_success(0, 0.030)
        board.record_success(1, 0.010)
        board.record_success(2, 0.020)
        assert board.ranked() == (1, 2, 0)
        assert board.best_healthy_latency() == pytest.approx(0.010)

    def test_unknown_latency_replicas_are_probed_first(self):
        board = ReplicaHealthBoard(["a", "b", "c"])
        board.record_success(0, 0.001)
        ranked = board.ranked()
        assert set(ranked[:2]) == {1, 2}
        assert ranked[2] == 0

    def test_consecutive_failures_demote_then_success_recovers(self):
        board = ReplicaHealthBoard(["a", "b"])
        board.record_success(0, 0.001)
        board.record_success(1, 0.002)
        for _ in range(3):
            board.record_failure(0)
        assert not board.statistics(0).healthy
        assert board.ranked() == (1, 0)
        board.record_success(0, 0.001)
        assert board.statistics(0).healthy
        assert board.ranked()[0] == 0

    def test_ewma_converges_toward_recent_latency(self):
        board = ReplicaHealthBoard(["a"])
        board.record_success(0, 0.100)
        for _ in range(20):
            board.record_success(0, 0.010)
        assert board.statistics(0).ewma_latency_seconds == pytest.approx(0.010, abs=0.002)

    def test_latency_percentile_interpolates(self):
        board = ReplicaHealthBoard(["a", "b", "c"])
        for index, latency in enumerate((0.010, 0.020, 0.030)):
            board.record_success(index, latency)
        assert board.latency_percentile(0.0) == pytest.approx(0.010)
        assert board.latency_percentile(1.0) == pytest.approx(0.030)
        assert board.latency_percentile(0.5) == pytest.approx(0.020)
        assert ReplicaHealthBoard([]).latency_percentile() is None

    def test_describe_is_json_friendly(self):
        board = ReplicaHealthBoard(["a"])
        board.record_success(0, 0.005)
        board.record_hedge_win(0)
        (entry,) = board.describe()
        assert entry["replica"] == "a"
        assert entry["healthy"] is True
        assert entry["hedges_won"] == 1


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        def run(seed):
            injector = FaultInjector(
                _loaded_relational("x"), FaultProfile(seed=seed, error_rate=0.4)
            )
            outcomes = []
            for _ in range(20):
                try:
                    injector.execute(ScanRequest("t"), ("a", "b"))
                    outcomes.append("ok")
                except TransientStoreError:
                    outcomes.append("err")
            return outcomes

        assert run(5) == run(5)
        assert run(5) != run(6)
        assert "err" in run(5) and "ok" in run(5)

    def test_rates_do_not_shift_each_others_schedule(self):
        # Enabling latency spikes must not change *which* requests error.
        def error_pattern(profile):
            injector = FaultInjector(_loaded_relational("x"), profile)
            pattern = []
            for _ in range(15):
                try:
                    injector.execute(ScanRequest("t"), ("a", "b"))
                    pattern.append(False)
                except TransientStoreError:
                    pattern.append(True)
            return pattern

        plain = error_pattern(FaultProfile(seed=9, error_rate=0.4))
        spiky = error_pattern(
            FaultProfile(seed=9, error_rate=0.4, slow_rate=0.9, slow_seconds=0.0)
        )
        assert plain == spiky

    def test_crash_after_and_revive(self):
        injector = FaultInjector(_loaded_relational("x"), FaultProfile(crash_after=2))
        assert len(injector.execute(ScanRequest("t"), ("a", "b")).rows) == 20
        assert len(injector.execute(ScanRequest("t"), ("a", "b")).rows) == 20
        with pytest.raises(StoreCrashedError):
            injector.execute(ScanRequest("t"), ("a", "b"))
        with pytest.raises(StoreCrashedError):
            injector.collections()
        injector.revive()
        assert len(injector.execute(ScanRequest("t"), ("a", "b")).rows) == 20

    def test_mid_stream_loss_is_transient(self):
        injector = FaultInjector(
            _loaded_relational("x", rows=200),
            FaultProfile(seed=3, mid_stream_rate=1.0),
        )
        with pytest.raises(TransientStoreError):
            injector.execute(ScanRequest("t"), ("a", "b"))
        assert injector.injection_report()["mid_stream"] == 1

    def test_batch_requests_run_the_childs_native_scan(self, tmp_path):
        # Segment activity on the wrapper's stream shows the child's own
        # batch scan ran, served from its durable segments.
        from repro.stores.segment import DurableBacking

        inner = RelationalStore("x")
        inner.attach_durable(DurableBacking(str(tmp_path / "x"), segment_rows=50))
        inner.create_table("t", ["a", "b"])
        inner.insert("t", [{"a": i, "b": i % 3} for i in range(230)])
        injector = FaultInjector(inner, FaultProfile.none())
        stream = injector.execute_batches(ScanRequest("t"), ("a", "b"), batch_size=64)
        assert sum(len(batch) for batch in stream) == 230
        assert stream.metrics.segments_scanned == 4
        assert stream.metrics.rows_scanned == injector.execute(ScanRequest("t"), ("a", "b")).metrics.rows_scanned
        assert injector.requests_served == 2

    def test_mid_stream_loss_finalizes_once(self):
        inner = _loaded_relational("x", rows=200)
        profile = FaultProfile(seed=3, mid_stream_rate=1.0)
        # Same seed, same four draws per request: a first request tells after
        # how many rows this schedule loses its response.
        with pytest.raises(TransientStoreError) as lost:
            FaultInjector(inner, profile).execute(ScanRequest("t"), ("a", "b"))
        after = int(str(lost.value).split(" after ")[1].split()[0])
        injector = FaultInjector(inner, profile)
        stream = injector.execute_batches(ScanRequest("t"), ("a",), batch_size=4)
        served = []
        with pytest.raises(TransientStoreError):
            for batch in stream:
                served.extend(batch.rows)
        assert served == [(i,) for i in range(after)]
        assert stream.finalized
        assert stream.metrics.rows_returned == after
        stream.close()
        assert injector.requests_served == 1

    def test_loading_apis_pass_through(self):
        injector = FaultInjector(
            _loaded_relational("x"), FaultProfile(seed=1, error_rate=1.0)
        )
        # insert/create_index reach the child untouched by the schedule.
        injector.insert("t", [{"a": 100, "b": 0}])
        injector.create_index("t", "a")
        assert injector.fault_target.collection_size("t") == 21

    def test_injected_sleep_cooperates_with_cancellation(self):
        from repro.runtime import set_current_cancel

        injector = FaultInjector(
            _loaded_relational("x"), FaultProfile(seed=1, slow_rate=1.0, slow_seconds=5.0)
        )
        cancel = threading.Event()
        outcome = {}

        def attempt():
            set_current_cancel(cancel)
            started = time.perf_counter()
            try:
                injector.execute(ScanRequest("t"), ("a", "b"))
            except TransientStoreError:
                outcome["elapsed"] = time.perf_counter() - started
            finally:
                set_current_cancel(None)

        thread = threading.Thread(target=attempt)
        thread.start()
        time.sleep(0.05)
        cancel.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome["elapsed"] < 1.0  # nowhere near the 5 s spike


class TestRunHedged:
    def test_primary_fast_enough_never_hedges(self):
        outcome = run_hedged([lambda cancel: "primary", lambda cancel: "backup"], 0.5)
        assert outcome.winner == 0
        assert outcome.value == "primary"
        assert outcome.backups_fired == 0

    def test_slow_primary_loses_to_hedged_backup(self):
        def slow(cancel):
            interruptible_sleep(5.0, cancel)
            return "primary"

        outcome = run_hedged([slow, lambda cancel: "backup"], 0.01)
        assert outcome.winner == 1
        assert outcome.value == "backup"
        assert outcome.backups_fired == 1

    def test_fail_fast_primary_fires_backup_immediately(self):
        def failing(cancel):
            raise TransientStoreError("dropped")

        started = time.perf_counter()
        outcome = run_hedged([failing, lambda cancel: "backup"], 5.0)
        assert outcome.winner == 1
        assert time.perf_counter() - started < 2.0  # did not wait the hedge delay
        assert len(outcome.errors()) == 1

    def test_all_attempts_failing_reports_every_error(self):
        def failing(cancel):
            raise TransientStoreError("dropped")

        outcome = run_hedged([failing, failing], 0.01)
        assert outcome.winner is None
        assert len(outcome.errors()) == 2

    def test_empty_attempts(self):
        outcome = run_hedged([], 0.01)
        assert outcome.winner is None


class TestReplicatedStore:
    def test_homogeneity_is_enforced(self):
        from repro.stores import KeyValueStore

        with pytest.raises(StoreError):
            ReplicatedStore("bad", [RelationalStore("a"), KeyValueStore("b")])
        with pytest.raises(StoreError):
            ReplicatedStore("empty", [])

    def test_reads_route_and_writes_fan_out(self):
        store = _replicated()
        result = store.execute(ScanRequest("t"), ("a", "b"))
        assert len(result.rows) == 20
        store.insert("t", [{"a": 99, "b": 9}])
        for replica in store.replica_stores():
            assert replica.collection_size("t") == 21

    def test_transient_errors_are_retried_on_the_same_replica(self):
        # error_rate 0.5: with 4 retries the first-ranked replica eventually
        # answers; the metrics carry the retry count.
        store = _replicated(
            profiles={i: FaultProfile(seed=21 + i, error_rate=0.5) for i in range(3)},
            policy=ReplicationPolicy(max_retries=4),
        )
        retries = 0
        for _ in range(10):
            result = store.execute(ScanRequest("t"), ("a", "b"))
            assert len(result.rows) == 20
            retries += result.metrics.replica_retries
        assert retries > 0
        assert store.replication_report()["retries"] == retries

    def test_dead_primary_fails_over_and_circuit_breaks(self):
        store = _replicated(profiles={0: FaultProfile(crash_after=0)})
        first = store.execute(ScanRequest("t"), ("a", "b"))
        assert len(first.rows) == 20
        assert first.metrics.replica_failovers == 1
        # Three consecutive failures mark the replica unhealthy; from then on
        # it is not attempted first anymore.
        for _ in range(4):
            store.execute(ScanRequest("t"), ("a", "b"))
        settled = store.execute(ScanRequest("t"), ("a", "b"))
        assert settled.metrics.replica_failovers == 0
        assert not store.health.statistics(0).healthy

    def test_crashed_replica_revives_and_rejoins(self):
        injector = FaultInjector(_loaded_relational("r.0"), FaultProfile(crash_after=0))
        store = ReplicatedStore("rep", [injector, _loaded_relational("r.1")])
        for _ in range(5):
            store.execute(ScanRequest("t"), ("a", "b"))
        assert not store.health.statistics(0).healthy
        injector.revive()
        # The unhealthy replica is still reachable as a last resort; a direct
        # success flips it healthy again.
        store.health.record_success(0, 0.001)
        assert store.health.statistics(0).healthy

    def test_every_replica_dead_raises_all_replicas_failed(self):
        store = _replicated(
            profiles={i: FaultProfile(crash_after=0) for i in range(3)}
        )
        with pytest.raises(AllReplicasFailedError):
            store.execute(ScanRequest("t"), ("a", "b"))

    def test_max_failovers_bounds_the_attempted_replicas(self):
        store = _replicated(
            profiles={i: FaultProfile(crash_after=0) for i in range(3)},
            policy=ReplicationPolicy(max_failovers=0),
        )
        with pytest.raises(AllReplicasFailedError) as excinfo:
            store.execute(ScanRequest("t"), ("a", "b"))
        assert "r.0" in str(excinfo.value)
        assert "r.1" not in str(excinfo.value)

    def test_hedging_rescues_a_pinned_slow_primary(self):
        store = _replicated(
            profiles={0: FaultProfile(seed=1, slow_rate=1.0, slow_seconds=0.25)},
            policy=ReplicationPolicy(
                hedge=True, hedge_delay_seconds=0.005, prefer_order=(0, 1, 2)
            ),
        )
        started = time.perf_counter()
        result = store.execute(ScanRequest("t"), ("a", "b"))
        elapsed = time.perf_counter() - started
        assert len(result.rows) == 20
        assert result.metrics.replica_hedges >= 1
        assert elapsed < 0.2  # far below the 250 ms spike
        assert store.health.statistics(1).hedges_won + store.health.statistics(2).hedges_won >= 1
        # Losing a hedge race must not poison the straggler's health.
        assert store.health.statistics(0).failures == 0

    def test_dead_primary_under_hedging_counts_a_failover_not_a_hedge(self):
        # The backup fires because the primary *failed*, not because it was
        # slow: the accounting must say failover, and no hedge win may be
        # credited — operators watching a dead-replica deployment must see
        # failovers even with hedging enabled.
        store = _replicated(
            profiles={0: FaultProfile(crash_after=0)},
            policy=ReplicationPolicy(
                hedge=True, hedge_delay_seconds=0.05, prefer_order=(0, 1, 2)
            ),
        )
        result = store.execute(ScanRequest("t"), ("a", "b"))
        assert len(result.rows) == 20
        assert result.metrics.replica_failovers >= 1
        assert result.metrics.replica_hedges == 0
        assert all(
            store.health.statistics(i).hedges_won == 0
            for i in range(store.replica_count)
        )

    def test_create_index_reaches_every_replica_despite_a_crashed_one(self):
        store = _replicated(profiles={0: FaultProfile(crash_after=0)})
        store.create_index("t", "a")
        for replica in store.replica_stores():
            target = getattr(replica, "fault_target", replica)
            assert target.column_statistics("t", "a")["indexed"]

    def test_hedge_delay_falls_back_to_percentile(self):
        store = _replicated(policy=ReplicationPolicy(hedge=True))
        for index in range(3):
            store.health.record_success(index, 0.010 * (index + 1))
        delay = store._hedge_delay()
        assert 0.010 <= delay <= 0.030

    def test_unsupported_request_surfaces_original_error_without_failover(self):
        from repro.errors import UnsupportedOperationError
        from repro.stores.base import SearchRequest

        store = _replicated()
        with pytest.raises(UnsupportedOperationError):
            store.execute(SearchRequest(collection="t", text="x"), ("a", "b"))
        # No replica was blamed and nothing beyond the first was attempted:
        # the request itself is at fault, every copy would refuse it alike.
        for index in range(store.replica_count):
            assert store.health.statistics(index).failures == 0

    def test_query_cancellation_does_not_poison_replica_health(self):
        from repro.runtime import set_current_cancel

        # Every replica is "slow"; the surrounding execution is already
        # cancelled (a LIMIT was satisfied): the aborted waits must surface
        # as a cancellation, not burn retries/failovers or mark replicas
        # unhealthy.
        store = _replicated(
            profiles={
                i: FaultProfile(seed=50 + i, slow_rate=1.0, slow_seconds=5.0)
                for i in range(3)
            }
        )
        cancelled = threading.Event()
        cancelled.set()
        set_current_cancel(cancelled)
        try:
            started = time.perf_counter()
            with pytest.raises(TransientStoreError):
                store.execute(ScanRequest("t"), ("a", "b"))
            assert time.perf_counter() - started < 1.0
        finally:
            set_current_cancel(None)
        report = store.replication_report()
        assert report["retries"] == 0
        assert report["failovers"] == 0
        for index in range(store.replica_count):
            assert store.health.statistics(index).healthy
            assert store.health.statistics(index).failures == 0

    def test_durable_replicas_serve_unindexed_scans_from_segments(self, tmp_path):
        # Each attempt drains the replica's own batch stream, so a replicated
        # durable deployment prunes segments exactly as a lone replica does.
        from repro.stores import Predicate
        from repro.stores.segment import DurableBacking

        rows = [{"a": i, "b": i % 3} for i in range(230)]
        request = ScanRequest("t", (Predicate("a", ">=", 200),))
        store = ReplicatedStore("rep", [RelationalStore("r.0"), RelationalStore("r.1")])
        store.attach_durable(DurableBacking(str(tmp_path / "rep"), segment_rows=50))
        lone = RelationalStore("lone")
        lone.attach_durable(DurableBacking(str(tmp_path / "lone"), segment_rows=50))
        for target in (*store.replica_stores(), lone):
            target.create_table("t", ["a", "b"])
        store.insert("t", rows)
        lone.insert("t", rows)

        streams = [s.execute_batches(request, ("a", "b")) for s in (store, lone)]
        for stream in streams:
            assert sorted(row for batch in stream for row in batch.rows) == [
                (i, i % 3) for i in range(200, 230)
            ]
        replicated, alone = (stream.metrics for stream in streams)
        assert alone.segments_skipped > 0
        assert replicated.segments_skipped == alone.segments_skipped
        assert replicated.rows_scanned == alone.rows_scanned

    def test_results_identical_with_and_without_faults(self):
        clean = _replicated()
        faulty = _replicated(
            profiles={i: FaultProfile(seed=31 + i, error_rate=0.4) for i in range(3)},
            policy=ReplicationPolicy(max_retries=4),
        )
        expected = sorted(map(repr, clean.execute(ScanRequest("t"), ("a", "b")).rows))
        for _ in range(5):
            got = sorted(map(repr, faulty.execute(ScanRequest("t"), ("a", "b")).rows))
            assert got == expected


class TestReplicatedShardedComposition:
    """A sharded store whose shards are themselves replicated (shard-then-replicate)."""

    def test_sharded_store_of_replicated_shards(self):
        def replicated_shard(name: str) -> ReplicatedStore:
            return ReplicatedStore.homogeneous(
                name, 2, lambda child: RelationalStore(child)
            )

        est = Estocada()
        sharded = ShardedStore.homogeneous("grid", 4, replicated_shard)
        est.register_store("grid", sharded)
        est.register_relational_dataset(
            "app", [TableSchema("events", ("uid", "action"))]
        )
        view = ViewDefinition(
            "F_events",
            ConjunctiveQuery("F_events", ["?u", "?a"], [Atom("events", ["?u", "?a"])]),
            column_names=("uid", "action"),
        )
        rows = [{"uid": i % 50, "action": f"a{i % 4}"} for i in range(300)]
        est.register_fragment(
            StorageDescriptor(
                "F_events", "app", "grid", view, StorageLayout("events"),
                AccessMethod("scan"), sharding=ShardingSpec("uid", 4),
            ),
            rows=rows,
        )
        result = est.query("SELECT uid, action FROM events WHERE uid = 7", dataset="app")
        expected = sorted(
            (r["uid"], r["action"]) for r in rows if r["uid"] == 7
        )
        assert sorted((r["uid"], r["action"]) for r in result.rows) == expected
        # The point query pruned to one shard, served by one of its replicas.
        assert result.summary()["shards"]["contacted"] == 1
        assert result.summary()["replicas"]["attempts"] >= 1


class TestFacadeIntegration:
    def test_register_replicated_store_and_configuration(self, marketplace_data):
        est = Estocada()
        store = est.register_replicated_store("rep", 3)
        assert store.replica_count == 3
        config = est.replication_configuration()
        assert config["rep"]["replicas"] == ["rep.0", "rep.1", "rep.2"]
        assert config["rep"]["policy"]["max_retries"] == 2

    def test_replicated_plan_explain_mentions_replication(
        self, replicated_marketplace_builder, marketplace_data
    ):
        est = replicated_marketplace_builder(marketplace_data)
        result = est.query("SELECT uid, sku FROM purchases", dataset="shop")
        assert "replicas=3" in result.plan_description

    def test_cost_model_prices_with_best_healthy_replica_latency(self):
        from repro.cost.cost_model import CostModel, DEFAULT_PROFILES

        store = _replicated()
        profile = DEFAULT_PROFILES["relational"]
        model = CostModel.__new__(CostModel)  # only the static helpers are used
        assert (
            CostModel.request_latency_seconds(model, store, profile)
            == profile.request_latency_seconds
        )
        store.health.record_success(0, 0.5)
        store.health.record_success(1, 0.2)
        store.health.record_success(2, 0.3)
        assert CostModel.request_latency_seconds(model, store, profile) == pytest.approx(0.2)
        assert store.health.ranked()[0] == 1
        for _ in range(3):
            store.health.record_failure(1)
        assert CostModel.request_latency_seconds(model, store, profile) == pytest.approx(0.3)
        assert store.health.ranked()[0] == 2
