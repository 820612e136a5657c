"""The durable columnar segment engine: codec, WAL, segments, recovery.

The trust anchor of the durability subsystem is the **kill-at-any-offset
harness**: a scripted write sequence runs against a durable store, then the
WAL is truncated at *every byte offset* in turn and recovery must restore a
store whose row bag matches an independent oracle interpretation of the
surviving record prefix — never a torn half-applied state, never a
resurrected dropped record.  Everything else here (codec round-trips, zone
pruning, dictionary fast paths, compaction, seeded disk faults) defends the
pieces that harness composes.
"""

from __future__ import annotations

import math
import os
import shutil
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Estocada
from repro.errors import (
    DurabilityError,
    SegmentCorruptError,
    SimulatedCrashError,
    WalCorruptionError,
)
from repro.runtime.kernels import ZoneBound, extract_zone_bounds
from repro.stores import DocumentStore, KeyValueStore, RelationalStore
from repro.stores.base import Predicate, ScanRequest
from repro.stores.segment import (
    ABSENT,
    DurableBacking,
    SegmentReader,
    WriteAheadLog,
    decode_value,
    encode_value,
    frame_offsets,
    replay,
    write_segment,
)
from repro.testing import DiskFaultInjector, DiskFaultProfile

# The recovery-chaos CI job sweeps this over a seed matrix so each run
# exercises a different crash/tear schedule; red runs replay exactly.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))


def _bag(rows):
    """Order-insensitive fingerprint of dict rows."""
    return Counter(tuple(sorted(row.items())) for row in rows)


def _store_rows(store, collection):
    """Every row a store holds for ``collection`` (via its durable dump)."""
    dump = store._durable_dump()
    info = dump.get(collection, {})
    return [dict(row) for row in info.get("rows", [])]


# -- codec ---------------------------------------------------------------------------


class TestCodec:
    def test_scalars_round_trip_with_their_types(self):
        values = [
            None,
            True,
            False,
            0,
            -1,
            2**80,
            -(2**80),
            1.5,
            -0.0,
            "",
            "héllo",
            b"\x00bytes",
            [1, "two", None],
            (3.5, False),
            {"nested": {"deep": [1, (2,)]}, 7: "int key"},
        ]
        for value in values:
            decoded = decode_value(encode_value(value))
            assert decoded == value
            assert type(decoded) is type(value)

    def test_bool_never_collapses_to_int(self):
        decoded = decode_value(encode_value([True, 1, False, 0]))
        assert decoded == [True, 1, False, 0]
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_nan_round_trips(self):
        decoded = decode_value(encode_value(float("nan")))
        assert isinstance(decoded, float) and math.isnan(decoded)

    def test_absent_round_trips_to_the_singleton(self):
        assert decode_value(encode_value(ABSENT)) is ABSENT
        assert decode_value(encode_value([ABSENT, None]))[0] is ABSENT

    def test_unencodable_value_raises(self):
        with pytest.raises(SegmentCorruptError):
            encode_value({1, 2})

    def test_truncated_buffer_raises(self):
        payload = encode_value("a longer string payload")
        with pytest.raises(SegmentCorruptError):
            decode_value(payload[:-3])

    def test_trailing_garbage_raises(self):
        with pytest.raises(SegmentCorruptError):
            decode_value(encode_value(5) + b"\x00")


# -- the write-ahead log -------------------------------------------------------------


class TestWriteAheadLog:
    def _records(self, n):
        return [{"kind": "rows", "collection": "t", "rows": [{"a": i}]} for i in range(n)]

    def test_append_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        for index, record in enumerate(self._records(5)):
            assert log.append(record) == index
        log.close()
        assert replay(path) == self._records(5)

    def test_reopen_continues_the_sequence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append_many(self._records(3))
        log.close()
        log = WriteAheadLog(path)
        assert log.record_count == 3
        assert log.append({"kind": "rows", "collection": "t", "rows": []}) == 3
        log.close()
        assert len(replay(path)) == 4

    def test_torn_final_frame_is_silently_dropped(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append_many(self._records(4))
        log.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 5)
        assert replay(path) == self._records(3)
        # Reopening truncates the torn tail so appends extend a clean prefix.
        log = WriteAheadLog(path)
        assert log.record_count == 3
        log.append(self._records(4)[3])
        log.close()
        assert replay(path) == self._records(4)

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append_many(self._records(3))
        log.close()
        offsets = frame_offsets(path)
        with open(path, "r+b") as handle:
            handle.seek(offsets[0] + 8)  # first byte of the first payload
            byte = handle.read(1)
            handle.seek(offsets[0] + 8)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError):
            replay(path)

    def test_frame_offsets_enumerate_every_crash_point(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append_many(self._records(3))
        log.close()
        offsets = frame_offsets(path)
        assert offsets[0] == 0
        assert offsets[-1] == os.path.getsize(path)
        assert offsets == sorted(offsets) and len(offsets) == 4

    def test_missing_file_replays_empty(self, tmp_path):
        assert replay(str(tmp_path / "nope.log")) == []


# -- segment files -------------------------------------------------------------------


def _write_demo_segment(tmp_path, rows=None, columns=("a", "b", "c")):
    rows = rows if rows is not None else [
        (i, f"cat{i % 3}", float(i) if i % 5 else None) for i in range(50)
    ]
    path = str(tmp_path / "demo.seg")
    write_segment(path, "t", columns, rows)
    return path, rows


class TestSegmentFiles:
    def test_round_trip_and_zone_maps(self, tmp_path):
        path, rows = _write_demo_segment(tmp_path)
        reader = SegmentReader(path)
        assert reader.collection == "t"
        assert reader.row_count == len(rows)
        assert list(reader.rows()) == rows
        zone = reader.zones["a"]
        assert (zone["cls"], zone["lo"], zone["hi"], zone["nulls"]) == ("num", 0, 49, False)
        assert reader.zones["c"]["nulls"] is True  # None never enters min/max

    def test_dictionary_encodes_low_cardinality_strings(self, tmp_path):
        path, rows = _write_demo_segment(tmp_path)
        reader = SegmentReader(path)
        assert set(reader.dictionaries["b"]) == {"cat0", "cat1", "cat2"}
        assert "a" not in reader.dictionaries
        assert reader.column_values("b") == tuple(row[1] for row in rows)
        positions = reader.equality_positions("b", "cat1")
        assert positions == [i for i in range(50) if i % 3 == 1]
        assert reader.equality_positions("b", "never-seen") == []
        assert reader.equality_positions("a", 3) is None  # not dict-encoded

    def test_zone_pruning_decisions(self, tmp_path):
        path, _ = _write_demo_segment(tmp_path)
        reader = SegmentReader(path)
        prune = lambda column, op, value: reader.excluded_by([ZoneBound(column, op, value)])
        assert prune("a", "=", 200)  # above the max
        assert prune("a", ">", 49)
        assert prune("a", "<", 0)
        assert not prune("a", "=", 25)
        assert prune("a", "=", "five")  # class mismatch: no int equals a str
        assert not prune("a", ">", "five")  # ordered cross-class: never prune
        assert prune("b", "=", "cat9")  # in zone range but not in the dictionary
        assert prune("missing", "=", 1)  # absent column scans as None
        assert not prune("missing", "!=", 1)

    def test_all_null_column_gets_the_null_class(self, tmp_path):
        path = str(tmp_path / "nulls.seg")
        write_segment(path, "t", ("x",), [(None,), (ABSENT,), (float("nan"),)])
        reader = SegmentReader(path)
        assert reader.zones["x"]["cls"] == "null"
        assert reader.excluded_by([ZoneBound("x", "=", 5)])
        assert not reader.excluded_by([ZoneBound("x", "!=", 5)])

    def test_mixed_class_column_is_never_pruned(self, tmp_path):
        path = str(tmp_path / "mixed.seg")
        write_segment(path, "t", ("x",), [(1,), ("one",)])
        reader = SegmentReader(path)
        assert "x" not in reader.zones
        assert not reader.excluded_by([ZoneBound("x", "=", 99)])

    def test_cursor_streams_batches_with_absent_as_none(self, tmp_path):
        path = str(tmp_path / "ragged.seg")
        write_segment(path, "t", ("a", "b"), [(1, "x"), (2, ABSENT)])
        reader = SegmentReader(path)
        batches = list(reader.cursor(batch_size=1))
        assert len(batches) == 2
        assert batches[0].columns == ("a", "b")
        assert [row for batch in batches for row in batch.rows] == [(1, "x"), (2, None)]

    def test_bad_magic_and_short_file_raise(self, tmp_path):
        path = str(tmp_path / "bad.seg")
        with open(path, "wb") as handle:
            handle.write(b"NOTSEG")
        with pytest.raises(SegmentCorruptError):
            SegmentReader(path)
        with pytest.raises(SegmentCorruptError):
            SegmentReader(str(tmp_path / "absent.seg"))

    def test_truncated_column_block_raises_not_partial_data(self, tmp_path):
        path, _ = _write_demo_segment(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 10)
        reader = SegmentReader(path)  # header still intact
        with pytest.raises(SegmentCorruptError):
            reader.column_values("c")


# -- seeded disk faults --------------------------------------------------------------


class TestDiskFaults:
    def test_profile_validates_probabilities(self):
        with pytest.raises(ValueError):
            DiskFaultProfile(crash_window_rate=1.5)
        assert DiskFaultProfile.none().crash_window_rate == 0.0
        assert DiskFaultProfile(torn_tail_rate=0.5).with_seed(9).seed == 9

    def test_crash_window_schedule_is_seeded_and_deterministic(self, tmp_path):
        def run(seed):
            injector = DiskFaultInjector(DiskFaultProfile(seed=seed, crash_window_rate=0.4))
            log = WriteAheadLog(str(tmp_path / f"wal-{seed}.log"), crash_hook=injector.crash_hook)
            outcomes = []
            for i in range(30):
                try:
                    log.append({"kind": "rows", "collection": "t", "rows": [{"a": i}]})
                    outcomes.append("ok")
                except SimulatedCrashError:
                    outcomes.append("crash")
            log.close()
            os.remove(log.path)
            return outcomes, injector.injection_report()["crashes"]

        first, crashes = run(11)
        second, _ = run(11)
        assert first == second
        assert 0 < crashes < 30
        assert crashes == first.count("crash")

    def test_zero_rates_inject_nothing(self, tmp_path):
        injector = DiskFaultInjector(DiskFaultProfile.none(seed=5))
        log = WriteAheadLog(str(tmp_path / "wal.log"), crash_hook=injector.crash_hook)
        log.append_many({"kind": "rows", "collection": "t", "rows": [{"a": i}]} for i in range(10))
        log.close()
        path = str(tmp_path / "file.bin")
        with open(path, "wb") as handle:
            handle.write(b"x" * 64)
        assert not injector.tear_wal_tail(path)
        assert not injector.shorten_file(path)
        assert injector.injection_report() == {"crashes": 0, "torn_tails": 0, "short_reads": 0}

    def test_torn_tail_is_recovered_from(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        records = [{"kind": "rows", "collection": "t", "rows": [{"a": i}]} for i in range(5)]
        log.append_many(records)
        log.close()
        injector = DiskFaultInjector(DiskFaultProfile(seed=1, torn_tail_rate=1.0))
        assert injector.tear_wal_tail(path)
        survivors = replay(path)  # the torn record drops, the prefix survives
        assert survivors == records[: len(survivors)]
        assert len(survivors) < 5

    def test_shortened_segment_surfaces_as_corruption(self, tmp_path):
        path, _ = _write_demo_segment(tmp_path)
        injector = DiskFaultInjector(DiskFaultProfile(seed=2, short_read_rate=1.0))
        assert injector.shorten_file(path)
        with pytest.raises(SegmentCorruptError):
            SegmentReader(path).rows() and list(SegmentReader(path).rows())


# -- durable backing: write path, recovery, compaction -------------------------------


def _fresh_relational(tmp_path, segment_rows=50, subdir="pg"):
    store = RelationalStore("pg")
    backing = DurableBacking(str(tmp_path / subdir), segment_rows=segment_rows)
    store.attach_durable(backing)
    return store, backing


def _recover_relational(tmp_path, subdir="pg", segment_rows=50):
    store = RelationalStore("pg")
    store.attach_durable(DurableBacking(str(tmp_path / subdir), segment_rows=segment_rows))
    return store


class TestDurableBacking:
    def test_insert_freeze_and_recover(self, tmp_path):
        store, backing = _fresh_relational(tmp_path)
        store.create_table("t", ("a", "b"))
        rows = [{"a": i, "b": f"x{i % 7}"} for i in range(230)]
        store.insert("t", rows)
        described = backing.describe()["collections"]["t"]
        assert described["segments"] == 4  # 230 rows at 50/segment
        assert described["rows_tail"] == 30
        recovered = _recover_relational(tmp_path)
        assert _bag(_store_rows(recovered, "t")) == _bag(rows)

    def test_delta_and_truncate_survive_recovery(self, tmp_path):
        store, _ = _fresh_relational(tmp_path, segment_rows=10)
        store.create_table("t", ("a", "b"))
        rows = [{"a": i, "b": i * 2} for i in range(35)]
        store.insert("t", rows)
        store.apply_delta("t", inserts=[{"a": 99, "b": 0}], deletes=[{"a": 5, "b": 10}])
        expected = [r for r in rows if r["a"] != 5] + [{"a": 99, "b": 0}]
        recovered = _recover_relational(tmp_path, segment_rows=10)
        assert _bag(_store_rows(recovered, "t")) == _bag(expected)
        store.truncate_collection("t")
        recovered = _recover_relational(tmp_path, segment_rows=10)
        assert _store_rows(recovered, "t") == []

    def test_compaction_folds_wal_and_recovers(self, tmp_path):
        store, backing = _fresh_relational(tmp_path, segment_rows=10)
        store.create_table("t", ("a", "b"))
        rows = [{"a": i, "b": i % 3} for i in range(42)]
        store.insert("t", rows)
        store.apply_delta("t", deletes=[{"a": 0, "b": 0}])
        report = store.compact_durable()
        assert report["generation"] == 1
        assert report["wal_records_folded"] > 0
        assert backing.generation == 1
        # The old generation's WAL is gone; the new WAL starts empty.
        assert not os.path.exists(str(tmp_path / "pg" / "wal-0.log"))
        assert backing.describe()["wal_records"] == 0
        recovered = _recover_relational(tmp_path, segment_rows=10)
        assert _bag(_store_rows(recovered, "t")) == _bag(rows[1:])

    def test_bootstrap_snapshots_a_preloaded_store(self, tmp_path):
        store = RelationalStore("pg")
        store.create_table("t", ("a",))
        store.insert("t", [{"a": i} for i in range(20)])
        store.attach_durable(DurableBacking(str(tmp_path / "pg"), segment_rows=8))
        recovered = _recover_relational(tmp_path, segment_rows=8)
        assert _bag(_store_rows(recovered, "t")) == _bag([{"a": i} for i in range(20)])

    def test_double_attach_raises(self, tmp_path):
        store, backing = _fresh_relational(tmp_path)
        with pytest.raises(DurabilityError):
            backing.attach(RelationalStore("other"))
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            store.attach_durable(DurableBacking(str(tmp_path / "pg2")))

    def test_document_store_round_trips_ragged_documents(self, tmp_path):
        store = DocumentStore("mongo")
        store.attach_durable(DurableBacking(str(tmp_path / "mongo"), segment_rows=4))
        store.create_collection("docs")
        docs = [
            {"_id": 1, "name": "a", "tags": ["x", "y"]},
            {"_id": 2, "name": None},
            {"_id": 3, "nested": {"deep": True}},
            {"_id": 4, "name": "d", "score": 2.5},
            {"_id": 5, "name": "e"},
        ]
        store.insert("docs", docs)
        recovered = DocumentStore("mongo")
        recovered.attach_durable(DurableBacking(str(tmp_path / "mongo"), segment_rows=4))
        got = _store_rows(recovered, "docs")
        # Ragged keys must come back exactly: no None backfill for absent keys.
        assert sorted(got, key=lambda d: d["_id"]) == docs

    def test_keyvalue_store_recovers_last_write_wins(self, tmp_path):
        store = KeyValueStore("redis")
        store.attach_durable(DurableBacking(str(tmp_path / "redis"), segment_rows=4))
        store.create_collection("kv")
        store.put("kv", "k1", {"v": 1})
        store.put("kv", "k1", {"v": 2})  # overwrite: recovery must keep only this
        store.put("kv", "k2", {"v": 3})
        store.delete("kv", "k2")
        recovered = KeyValueStore("redis")
        recovered.attach_durable(DurableBacking(str(tmp_path / "redis"), segment_rows=4))
        assert recovered.get("kv", "k1") == {"v": 2}
        assert recovered.get("kv", "k2") is None
        # Append-only segments cannot express overwrites, so the key-value
        # store never serves scans from them.
        assert recovered.segment_scan_fraction("kv", ()) is None


# -- kill-at-any-offset recovery -----------------------------------------------------


def _oracle_rows(records, collection):
    """Independent interpretation of a WAL record prefix: the expected row bag.

    Deliberately re-implements the replay semantics in straight-line code so
    a bug in the production replay path cannot cancel itself out.
    """
    rows: list[dict] = []
    for record in records:
        if record.get("collection") not in (collection, None):
            continue
        kind = record["kind"]
        if kind == "rows":
            rows.extend(dict(r) for r in record["rows"])
        elif kind == "delta":
            for delete in record.get("deletes", ()):
                delete = dict(delete)
                for position, row in enumerate(rows):
                    if row == delete:
                        del rows[position]
                        break
            rows.extend(dict(r) for r in record.get("inserts", ()))
        elif kind == "truncate":
            rows = []
        # create / index / freeze don't change the row bag.
    return rows


class TestKillAtAnyOffset:
    """The acceptance harness: recovery is correct at every crash point."""

    def _build_scripted_history(self, tmp_path):
        """A write sequence that exercises inserts, freezes and deltas."""
        store, backing = _fresh_relational(tmp_path, segment_rows=4, subdir="live")
        store.create_table("t", ("a", "b"))
        store.insert("t", [{"a": i, "b": i % 3} for i in range(6)])  # one freeze
        store.apply_delta("t", deletes=[{"a": 1, "b": 1}])  # tombstone (frozen row)
        store.insert("t", [{"a": i, "b": i % 3} for i in range(6, 11)])  # another freeze
        store.apply_delta("t", inserts=[{"a": 100, "b": 0}], deletes=[{"a": 9, "b": 0}])
        return str(tmp_path / "live")

    def test_recovery_is_bag_identical_at_every_wal_byte_offset(self, tmp_path):
        live = self._build_scripted_history(tmp_path)
        wal_path = os.path.join(live, "wal-0.log")
        size = os.path.getsize(wal_path)
        starts = frame_offsets(wal_path)
        full_records = replay(wal_path)
        checked = 0
        for cut in range(size + 1):
            workdir = str(tmp_path / "crash")
            if os.path.exists(workdir):
                shutil.rmtree(workdir)
            shutil.copytree(live, workdir)
            with open(os.path.join(workdir, "wal-0.log"), "r+b") as handle:
                handle.truncate(cut)
            # The oracle: every frame fully contained in the surviving prefix.
            survivors = sum(1 for start in starts[1:] if start <= cut)
            expected = _oracle_rows(full_records[:survivors], "t")
            recovered = RelationalStore("pg")
            recovered.attach_durable(DurableBacking(workdir, segment_rows=4))
            assert _bag(_store_rows(recovered, "t")) == _bag(expected), (
                f"recovery diverged after truncating the WAL at byte {cut}"
            )
            checked += 1
        assert checked == size + 1  # every byte offset, including 0 and EOF

    @pytest.mark.parametrize(
        "seed", [CHAOS_SEED, CHAOS_SEED * 3 + 1, CHAOS_SEED * 13 + 5]
    )
    def test_crashed_appends_recover_to_an_acknowledged_prefix(self, tmp_path, seed):
        """Under seeded fsync-window crashes, recovery never loses an ack.

        A crash before the write means the record is gone; a crash after the
        bytes landed may keep it — both are legal.  What is *never* legal is
        losing a record whose append returned, or recovering a non-prefix.
        """
        directory = str(tmp_path / f"crash-{seed}")
        injector = DiskFaultInjector(DiskFaultProfile(seed=seed, crash_window_rate=0.3))
        backing = DurableBacking(directory, segment_rows=4, crash_hook=injector.crash_hook)
        store = RelationalStore("pg")
        store.attach_durable(backing)
        acknowledged = []
        attempted = []
        try:
            store.create_table("t", ("a",))
            for i in range(40):
                row = {"a": i}
                attempted.append(row)
                store.insert("t", [row])
                acknowledged.append(row)
        except SimulatedCrashError:
            pass  # the process is dead; everything below is the restart
        assert injector.injection_report()["crashes"] >= 1
        recovered = RelationalStore("pg")
        recovered.attach_durable(DurableBacking(directory, segment_rows=4))
        got = sorted(row["a"] for row in _store_rows(recovered, "t"))
        acked = [row["a"] for row in acknowledged]
        # Prefix of the attempt order, and at least everything acknowledged.
        assert got == list(range(len(got)))
        assert len(got) >= len(acked)
        assert len(got) <= len(attempted)

    def test_torn_tail_between_crash_and_restart(self, tmp_path):
        live = self._build_scripted_history(tmp_path)
        injector = DiskFaultInjector(DiskFaultProfile(seed=CHAOS_SEED, torn_tail_rate=1.0))
        wal_path = os.path.join(live, "wal-0.log")
        full_records = replay(wal_path)
        assert injector.tear_wal_tail(wal_path)
        survivors = replay(wal_path)
        assert survivors == full_records[: len(survivors)]
        recovered = RelationalStore("pg")
        recovered.attach_durable(DurableBacking(live, segment_rows=4))
        assert _bag(_store_rows(recovered, "t")) == _bag(_oracle_rows(survivors, "t"))


# -- segment-skipping scans ----------------------------------------------------------


class TestSegmentSkippingScans:
    def _loaded_store(self, tmp_path):
        store, backing = _fresh_relational(tmp_path)
        store.create_table("t", ("a", "b"))
        store.insert("t", [{"a": i, "b": f"x{i % 3}"} for i in range(230)])
        return store, backing

    def _scan(self, store, *predicates):
        request = ScanRequest("t", predicates=tuple(predicates))
        batches, metrics = store._execute_batches(request, ("a", "b"), 64)
        rows = [row for batch in batches for row in batch.rows]
        return rows, metrics

    def test_zone_maps_skip_provably_excluded_segments(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)
        rows, metrics = self._scan(store, Predicate("a", "=", 5))
        assert len(rows) == 1
        assert metrics.segments_scanned == 1
        assert metrics.segments_skipped == 3
        assert metrics.rows_decoded == 50  # only the surviving segment decodes

    def test_a_one_percent_range_on_a_monotonic_column_skips_nine_segments_in_ten(self, tmp_path):
        """The retired bench_e18's structural claim, at test size."""
        store, _ = _fresh_relational(tmp_path, segment_rows=20)
        store.create_table("t", ("ts", "b"))
        rows = [{"ts": ts, "b": ts % 7} for ts in range(2_000)]
        for start in range(0, len(rows), 250):
            store.insert("t", rows[start : start + 250])
        request = ScanRequest("t", predicates=(Predicate("ts", ">=", 1_980),))
        batches, metrics = store._execute_batches(request, ("ts", "b"), 64)
        got = Counter(row for batch in batches for row in batch.rows)
        assert got == Counter((row["ts"], row["b"]) for row in rows[1_980:])
        total = metrics.segments_scanned + metrics.segments_skipped
        assert total == 100
        assert metrics.segments_skipped >= 90
        recovered = _recover_relational(tmp_path, segment_rows=20)
        assert _bag(_store_rows(recovered, "t")) == _bag(rows)

    def test_dictionary_equality_decodes_only_the_hits(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)
        rows, metrics = self._scan(store, Predicate("b", "=", "x1"))
        expected = [i for i in range(230) if i % 3 == 1]
        assert sorted(row[0] for row in rows) == expected
        # Hits in frozen segments are matched on dictionary codes; only those
        # positions decode (the 30-row tail is evaluated natively).
        frozen_hits = sum(1 for i in expected if i < 200)
        assert metrics.rows_decoded == frozen_hits
        assert metrics.segments_scanned == 4

    def test_scan_results_match_in_memory_semantics(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)
        plain = RelationalStore("plain")
        plain.create_table("t", ("a", "b"))
        plain.insert("t", [{"a": i, "b": f"x{i % 3}"} for i in range(230)])
        for predicates in (
            (Predicate("a", ">", 100),),
            (Predicate("b", "=", "x2"), Predicate("a", "<", 60)),
            (Predicate("a", "!=", 3),),
            (),
        ):
            durable_rows, _ = self._scan(store, *predicates)
            plain_rows, _ = self._scan(plain, *predicates)
            assert Counter(durable_rows) == Counter(plain_rows), predicates

    def test_scan_fraction_prices_pruning_for_the_cost_model(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)
        bounds = extract_zone_bounds((Predicate("a", "=", 5),))
        fraction = store.segment_scan_fraction("t", bounds)
        # One 50-row segment survives out of 200 frozen + 30 tail rows.
        assert fraction == pytest.approx(80 / 230)
        assert store.segment_scan_fraction("t", ()) == 1.0
        assert store.segment_scan_fraction("missing", bounds) is None

    def test_tombstoned_rows_never_resurrect_in_scans(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)
        store.apply_delta("t", deletes=[{"a": 5, "b": "x2"}])
        rows, _ = self._scan(store, Predicate("a", "=", 5))
        assert rows == []
        recovered = _recover_relational(tmp_path)
        rows, _ = self._scan(recovered, Predicate("a", "=", 5))
        assert rows == []


# -- the facade: durable_path, REPRO_DURABLE, compaction, summary ---------------------


class TestFacadeDurability:
    def test_durable_path_persists_and_recovers_through_the_facade(self, tmp_path):
        directory = str(tmp_path / "estocada")
        est = Estocada(durable_path=directory)
        assert est.durable_path == directory
        est.register_store("pg", RelationalStore("pg"))
        store = est.catalog.store("pg")
        store.create_table("t", ("a", "b"))
        store.insert("t", [{"a": i, "b": i % 5} for i in range(64)])
        reports = est.compact()
        assert reports["pg"]["generation"] >= 1
        fresh = Estocada(durable_path=directory)
        fresh.register_store("pg", RelationalStore("pg"))
        recovered = fresh.catalog.store("pg")
        assert _bag(_store_rows(recovered, "t")) == _bag(
            [{"a": i, "b": i % 5} for i in range(64)]
        )

    def test_repro_durable_env_enables_a_tmpdir_deployment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DURABLE", str(tmp_path / "env"))
        est = Estocada()
        assert est.durable_path == str(tmp_path / "env")
        monkeypatch.setenv("REPRO_DURABLE", "0")
        assert Estocada().durable_path is None

    def test_summary_reports_segment_activity(self, tmp_path, marketplace_data, monkeypatch):
        from tests.conftest import build_marketplace_estocada

        monkeypatch.setenv("REPRO_DURABLE", str(tmp_path / "shop"))
        monkeypatch.setenv("REPRO_SEGMENT_ROWS", "64")
        est = build_marketplace_estocada(marketplace_data)
        result = est.query(
            "SELECT sku, price FROM purchases WHERE category = 'shoes'", dataset="shop"
        )
        segments = result.summary()["segments"]
        assert set(segments) == {"scanned", "skipped", "rows_decoded"}
        assert segments["scanned"] >= 1
        monkeypatch.delenv("REPRO_DURABLE")
        plain = build_marketplace_estocada(marketplace_data)
        expected = plain.query(
            "SELECT sku, price FROM purchases WHERE category = 'shoes'", dataset="shop"
        )
        assert _bag(result.rows) == _bag(expected.rows)
        assert expected.summary()["segments"] == {
            "scanned": 0,
            "skipped": 0,
            "rows_decoded": 0,
        }

    def test_residual_range_predicates_prune_segments_through_the_facade(
        self, tmp_path
    ):
        """A SQL range filter is residual (mediator-side), yet still prunes.

        The facade forwards residual comparisons as scan hints, so the leaf
        scan narrows its store request and the durable backing's zone maps
        skip the segments the bound provably excludes — with the answer
        bag-identical to a plain in-memory deployment.
        """
        from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
        from repro.core import Atom, ConjunctiveQuery, ViewDefinition
        from repro.datamodel import TableSchema

        view = ViewDefinition(
            "F_events",
            ConjunctiveQuery(
                "F_events", ["?u", "?m"], [Atom("events", ["?u", "?m"])]
            ),
            column_names=("uid", "ms"),
        )
        rows = [{"uid": i % 10, "ms": i} for i in range(400)]
        sql = "SELECT uid, ms FROM events WHERE ms >= 390"

        def deploy(durable_path):
            est = Estocada(durable_path=durable_path)
            est.register_store("pg", RelationalStore("pg"))
            est.register_relational_dataset(
                "app", [TableSchema("events", ("uid", "ms"))]
            )
            est.register_fragment(
                StorageDescriptor(
                    "F_events", "app", "pg", view,
                    StorageLayout("events"), AccessMethod("scan"),
                ),
                rows=rows,
            )
            return est

        os.environ["REPRO_SEGMENT_ROWS"] = "50"
        try:
            result = deploy(str(tmp_path / "durable")).query(sql, dataset="app")
        finally:
            del os.environ["REPRO_SEGMENT_ROWS"]
        expected = deploy(None).query(sql, dataset="app")
        assert _bag(result.rows) == _bag(expected.rows)
        assert len(result.rows) == 10
        segments = result.summary()["segments"]
        # 400 rows freeze into 8 monotone segments of 50; ms >= 390 excludes
        # the first seven by zone map alone.
        assert segments == {"scanned": 1, "skipped": 7, "rows_decoded": 50}


# -- property: rows -> segments -> cursor is the identity ----------------------------

_scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)

_COLUMNS = ("a", "b", "c")


@st.composite
def _ragged_rows(draw):
    """Rows over a fixed schema where any cell may be absent entirely."""
    rows = draw(
        st.lists(
            st.dictionaries(st.sampled_from(_COLUMNS), _scalar_values, max_size=3),
            min_size=0,
            max_size=40,
        )
    )
    return rows


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_ragged_rows())
    def test_rows_to_segment_to_cursor_is_the_identity(self, rows, tmp_path_factory):
        directory = tmp_path_factory.mktemp("prop")
        path = str(directory / "prop.seg")
        tuples = [tuple(row.get(column, ABSENT) for column in _COLUMNS) for row in rows]
        write_segment(path, "t", _COLUMNS, tuples)
        reader = SegmentReader(path)
        assert reader.row_count == len(rows)
        # Full-width tuples keep ABSENT identity; the cursor view maps it to
        # None exactly like ``row.get(column)`` at the scan boundary.
        assert Counter(reader.rows()) == Counter(tuples)
        streamed = [
            row for batch in reader.cursor(batch_size=7) for row in batch.rows
        ]
        expected = [tuple(row.get(column) for column in _COLUMNS) for row in rows]
        assert streamed == expected

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        value=st.recursive(
            _scalar_values | st.binary(max_size=16),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=6), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_codec_round_trips_arbitrary_trees(self, value):
        assert decode_value(encode_value(value)) == value
