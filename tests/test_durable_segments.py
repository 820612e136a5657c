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

import gc
import math
import os
import shutil
import struct
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Estocada
from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.errors import (
    DurabilityError,
    SegmentCorruptError,
    SimulatedCrashError,
    WalCorruptionError,
)
from repro.runtime.batch import freeze_value
from repro.stores import (
    DocumentStore,
    FullTextStore,
    KeyValueStore,
    ParallelStore,
    RelationalStore,
    ReplicatedStore,
    ShardedStore,
)
from repro.stores.base import Predicate, ScanRequest, SearchRequest
from repro.stores.segment import (
    ABSENT,
    DurableBacking,
    SegmentReader,
    WriteAheadLog,
    decode_value,
    encode_value,
    frame_offsets,
    replay,
    write_group,
    write_segment,
)
from repro.stores.segment.backing import _newest_index
from repro.stores.sharding import ShardingSpec
from repro.testing import DiskFaultInjector, DiskFaultProfile

from conftest import build_marketplace_estocada

# The recovery-chaos CI job sweeps this over a seed matrix so each run
# exercises a different crash/tear schedule; red runs replay exactly.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))


def _bag(rows):
    """Order-insensitive fingerprint of dict rows (nested values included)."""
    return Counter(freeze_value(row) for row in rows)


def _assert_same(decoded, value):
    """``decoded`` equals ``value`` with the same exact type at every level:
    ``True`` never stands in for ``1``, nor a list for a tuple, and floats
    keep NaN and the sign of zero."""
    assert type(decoded) is type(value), (decoded, value)
    if isinstance(value, float):
        if math.isnan(value):
            assert math.isnan(decoded)
        else:
            assert decoded == value and math.copysign(1.0, decoded) == math.copysign(1.0, value)
    elif isinstance(value, (list, tuple)):
        assert len(decoded) == len(value)
        for got, want in zip(decoded, value):
            _assert_same(got, want)
    elif isinstance(value, dict):
        assert list(decoded) == list(value)  # key order too
        for got, want in zip(decoded.values(), value.values()):
            _assert_same(got, want)
    elif value is ABSENT:
        assert decoded is ABSENT
    else:
        assert decoded == value


def _per_value_encoding(value) -> bytes:
    """``value`` with one tagged value per list, tuple and dict item: the
    layout the codec wrote before typed blocks (scalars are unchanged)."""
    if isinstance(value, (list, tuple)):
        tag = b"\x07" if isinstance(value, list) else b"\x08"
        return tag + struct.pack("<I", len(value)) + b"".join(map(_per_value_encoding, value))
    if isinstance(value, dict):
        return b"\x09" + struct.pack("<I", len(value)) + b"".join(
            _per_value_encoding(key) + _per_value_encoding(item) for key, item in value.items()
        )
    return encode_value(value)


def _store_rows(store, collection):
    """Every row a store holds for ``collection`` (via its durable dump)."""
    dump = store._durable_dump()
    info = dump.get(collection, {})
    return [dict(row) for row in info.get("rows", [])]


def _heap_pairs(store, collection="t"):
    """The ``(a, b)`` pairs a heap store's own rows hold, as a bag."""
    read = store._reader_of
    return Counter((read("a")(row, "a"), read("b")(row, "b")) for row in store.rows(collection))


def _scanned_pairs(store, collection="t"):
    """The ``(a, b)`` pairs a scan of ``collection`` answers, as a bag."""
    request = ScanRequest(collection, predicates=(Predicate("a", ">=", 0),))
    batches, _ = store._execute_batches(request, ("a", "b"), 16)
    return Counter(row for batch in batches for row in batch.rows)


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

    def test_typed_blocks_pin_their_little_endian_layout(self):
        # tag, list (0) / tuple (1) flag, u32 count, fixed-width payload
        assert encode_value([1, -2]) == bytes.fromhex(
            "0b00" "02000000" "0100000000000000" "feffffffffffffff"
        )
        assert encode_value((1.5, -0.0)) == bytes.fromhex(
            "0c01" "02000000" "000000000000f83f" "0000000000000080"
        )
        # code-point lengths, then the UTF-8 byte length and the text
        assert encode_value(["ab", "é", ""]) == bytes.fromhex(
            "0d00" "03000000" "02000000" "01000000" "00000000" "04000000"
        ) + "abé".encode()
        # dict rows: the keys once (a str block), then one block per column
        assert encode_value([{"k": 1, "s": "x"}, {"k": 2, "s": "y"}]) == bytes.fromhex(
            "0e00" "02000000"
            "0d01" "02000000" "01000000" "01000000" "02000000" "6b73"
            "0b01" "02000000" "0100000000000000" "0200000000000000"
            "0d01" "02000000" "01000000" "01000000" "02000000" "7879"
        )

    def test_values_outside_a_typed_block_keep_their_per_value_tags(self):
        for value in ([True, 1], [2**63, 1], [1, None], [ABSENT, 2], [[1], [2]], [{"a": 1}, {"b": 1}]):
            assert encode_value(value)[0] == 0x07  # the per-value list tag
            _assert_same(decode_value(encode_value(value)), value)

    @pytest.mark.parametrize(
        "value",
        [
            [1, -2, 3],
            (0.5, float("nan")),
            ("ab", "é", "", "\U0001d11e"),
            [{"k": 1, "s": "x"}, {"k": 2, "s": "y"}],
            {"rows": [{"k": 1}, {"k": 2}], "kind": "rows"},
        ],
    )
    def test_a_typed_block_cut_at_any_byte_raises(self, value):
        payload = encode_value(value)
        for cut in range(len(payload)):
            with pytest.raises(SegmentCorruptError):
                decode_value(payload[:cut])

    def test_corrupt_typed_block_fields_raise(self):
        flagged = bytearray(encode_value([1, 2]))
        flagged[1] = 7  # neither list nor tuple
        lengths = bytearray(encode_value(["ab", "c"]))
        lengths[6] = 9  # the first string's length no longer sums to the text
        keys = bytearray(encode_value([{"k": 1}, {"k": 2}]))
        keys[6] = 0x07  # the keys' tag no longer marks a str block
        for corrupt in (flagged, lengths, keys, encode_value(["\u00e9"])[:-1] + b"\xff"):
            with pytest.raises(SegmentCorruptError):
                decode_value(bytes(corrupt))

    def test_per_value_encodings_still_decode(self):
        for value in (
            [1, -2, 2**40],
            (1.5, float("-inf"), -0.0),
            ["a", "", "\x00", "\U0001d11e"],
            [{"uid": 1, "kind": "k1"}, {"uid": 2, "kind": "k2"}],
            {"kind": "rows", "collection": "t", "rows": [{"a": 1, "b": (2.5, "x")}]},
        ):
            _assert_same(decode_value(_per_value_encoding(value)), value)


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
        prune = lambda column, op, value: reader.excluded_by([Predicate(column, op, value)])
        assert prune("a", "=", 200)  # above the max
        assert prune("a", ">", 49)
        assert prune("a", "<", 0)
        assert not prune("a", "=", 25)
        assert prune("a", "=", "five")  # class mismatch: no int equals a str
        assert not prune("a", ">", "five")  # ordered cross-class: never prune
        assert prune("b", "=", "cat9")  # in zone range but not in the dictionary
        assert prune("missing", "=", 1)  # absent column scans as None
        assert not prune("missing", "!=", 1)
        assert not prune("missing", "=", None)  # a None literal bounds nothing

    def test_all_null_column_gets_the_null_class(self, tmp_path):
        path = str(tmp_path / "nulls.seg")
        write_segment(path, "t", ("x",), [(None,), (ABSENT,), (float("nan"),)])
        reader = SegmentReader(path)
        assert reader.zones["x"]["cls"] == "null"
        assert reader.excluded_by([Predicate("x", "=", 5)])
        assert not reader.excluded_by([Predicate("x", "!=", 5)])

    def test_mixed_class_column_is_never_pruned(self, tmp_path):
        path = str(tmp_path / "mixed.seg")
        write_segment(path, "t", ("x",), [(1,), ("one",)])
        reader = SegmentReader(path)
        assert "x" not in reader.zones
        assert not reader.excluded_by([Predicate("x", "=", 99)])

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
    def test_a_directory_written_with_per_value_encodings_recovers(self, tmp_path, monkeypatch):
        """Files written before typed blocks (every value tagged on its own)
        still open, and new frames append to their WAL."""
        from repro.stores.segment import backing as backing_module, segments, wal

        for module in (backing_module, segments, wal):
            monkeypatch.setattr(module, "encode_value", _per_value_encoding)
        store, _ = _fresh_relational(tmp_path, segment_rows=4)
        store.create_table("t", ("a", "b"))
        rows = [{"a": i, "b": f"x{i % 3}"} for i in range(10)]
        store.insert("t", rows[:6])
        store.compact_durable()
        store.insert("t", rows[6:])  # a frozen segment and a tail past the manifest
        monkeypatch.undo()
        recovered = _recover_relational(tmp_path, segment_rows=4)
        assert _bag(_store_rows(recovered, "t")) == _bag(rows)
        recovered.insert("t", [{"a": 10, "b": "x1"}])
        again = _recover_relational(tmp_path, segment_rows=4)
        assert _bag(_store_rows(again, "t")) == _bag(rows + [{"a": 10, "b": "x1"}])

    def test_empty_documents_survive_compaction(self, tmp_path):
        store = DocumentStore("mongo")
        store.attach_durable(DurableBacking(str(tmp_path / "mongo"), segment_rows=4))
        store.create_collection("c")
        documents = [{} for _ in range(9)] + [{"a": 1}]
        store.insert("c", documents)
        store.compact_durable()  # two segments hold only empty documents
        recovered = DocumentStore("mongo")
        recovered.attach_durable(DurableBacking(str(tmp_path / "mongo"), segment_rows=4))
        assert _bag(_store_rows(recovered, "c")) == _bag(documents)

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
        # An overwrite is a delete of the old entry plus an insert.
        assert recovered.keys("kv") == ("k1",)

    def test_a_record_kind_no_store_writes_fails_recovery(self, tmp_path):
        """A directory holding an unknown record kind (the ``put`` records an
        older key-value store logged, say) fails to open instead of
        recovering part of its entries."""
        directory = tmp_path / "redis"
        directory.mkdir()
        wal = WriteAheadLog(str(directory / "wal-0.log"))
        wal.append({"kind": "create", "collection": "kv", "columns": None})
        wal.append({"kind": "put", "collection": "kv", "entries": [["k1", 1]]})
        wal.close()
        with pytest.raises(DurabilityError, match="unknown durable record kind 'put'"):
            KeyValueStore("redis").attach_durable(DurableBacking(str(directory)))
        with pytest.raises(DurabilityError, match="unknown durable record kind 'put'"):
            KeyValueStore("redis")._durable_replay({"kind": "put", "collection": "kv"})


class TestRouterCompaction:
    """A router store's compaction report merges its children's reports."""

    @pytest.mark.parametrize("router", ["replicated", "sharded"])
    def test_the_report_has_the_newest_generation_and_summed_counts(self, tmp_path, router):
        if router == "sharded":
            store = ShardedStore.homogeneous("s", 4, RelationalStore)
            children = store.shard_stores()
        else:
            store = ReplicatedStore.homogeneous("r", 3, RelationalStore)
            children = store.replica_stores()
        store.attach_durable(DurableBacking(str(tmp_path / router), segment_rows=4))
        for child in children:
            child.create_table("t", ("a",))
        if router == "sharded":
            store.set_sharding("t", ShardingSpec("a", 4))
        store.insert("t", [{"a": i} for i in range(30)])
        children[0].compact_durable()  # the children's generations now differ
        reports = []
        for child in children:
            compact = child.compact_durable
            child.compact_durable = lambda compact=compact: reports.append(compact()) or reports[-1]
        merged = store.compact_durable()
        assert len(reports) == len(children)
        assert merged["generation"] == max(report["generation"] for report in reports) == 2
        for count in ("segments_written", "wal_records_folded"):
            assert merged[count] == sum(report[count] for report in reports)
        assert merged["segments_written"] > 0
        assert merged["collections"] == ["t"]


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


# Every heap store, and how it declares the collection ``t`` of ``{"a", "b"}`` rows.
HEAP_STORES = {
    "relational": (RelationalStore, lambda store: store.create_table("t", ("a", "b"))),
    "document": (DocumentStore, lambda store: store.create_collection("t")),
    "parallel": (ParallelStore, lambda store: store.create_dataset("t", partition_column="a")),
    "fulltext": (FullTextStore, lambda store: store.create_collection("t", indexed_fields=("b",))),
    "keyvalue": (
        lambda name: KeyValueStore(name, allow_scans=True),
        lambda store: store.create_collection("t", key_column="a"),
    ),
}


class TestKillAtAnyOffset:
    """The acceptance harness: recovery is correct at every crash point."""

    def _build_scripted_history(self, tmp_path, kind="relational"):
        """A write sequence that exercises inserts, freezes and deltas."""
        factory, create = HEAP_STORES[kind]
        store = factory(kind)
        store.attach_durable(DurableBacking(str(tmp_path / "live"), segment_rows=4))
        create(store)
        store.insert("t", [{"a": i, "b": i % 3} for i in range(6)])  # one freeze
        store.apply_delta("t", deletes=[{"a": 1, "b": 1}])  # tombstone (frozen row)
        store.insert("t", [{"a": i, "b": i % 3} for i in range(6, 11)])  # another freeze
        store.apply_delta("t", inserts=[{"a": 100, "b": 0}], deletes=[{"a": 9, "b": 0}])
        return str(tmp_path / "live")

    @pytest.mark.parametrize("kind", sorted(HEAP_STORES))
    def test_recovery_is_bag_identical_at_every_wal_byte_offset(self, tmp_path, kind):
        live = self._build_scripted_history(tmp_path, kind)
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
            recovered = HEAP_STORES[kind][0](kind)
            recovered.attach_durable(DurableBacking(workdir, segment_rows=4))
            assert _bag(_store_rows(recovered, "t")) == _bag(expected), (
                f"{kind}: recovery diverged after truncating the WAL at byte {cut}"
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


class TestKillAtAnyOffsetGrouped:
    """Group commit + a tombstone fold: every crash point recovers whole statements.

    Each statement writes two tables (two fragments) inside one write group,
    so one WAL frame holds both tables' records (and any freeze); the third
    statement's tombstones reach ``segment_rows`` and fold the backing into a
    new generation.  For the WAL of *each* generation, truncated at every
    byte offset, recovery must equal the oracle after some prefix of whole
    statements: never one table with a statement and the other without.
    """

    SEGMENT_ROWS = 4

    @staticmethod
    def _statements():
        """(inserts, deletes) per table per statement; deletes hit frozen rows."""
        rows = {t: [{"a": i, "b": f"{t}{i % 3}"} for i in range(8)] for t in ("t1", "t2")}
        later = {t: [{"a": 100 + i, "b": t} for i in range(3)] for t in ("t1", "t2")}
        return [
            {t: (rows[t][:6], []) for t in rows},  # freezes 4 rows per table
            {t: (later[t][:1], rows[t][:2]) for t in rows},  # 2 tombstones each
            {t: ([], rows[t][2:4]) for t in rows},  # 4 tombstones: the fold
            {t: (later[t][1:2], rows[t][4:5]) for t in rows},  # the new generation
            {t: (rows[t][6:8], [later[t][0]]) for t in rows},
            {t: ([dict(later[t][1], b="updated")], [later[t][1]]) for t in rows},
        ]

    def test_recovery_is_a_prefix_of_whole_statements_at_every_offset(self, tmp_path):
        live = str(tmp_path / "live")
        snapshots: list[str] = []

        def snapshot(stage):
            if stage == "post_sync":  # each durable frame: copy the directory as it stands
                target = str(tmp_path / f"snap-{len(snapshots)}")
                shutil.copytree(live, target)
                snapshots.append(target)

        store = RelationalStore("pg")
        backing = DurableBacking(live, segment_rows=self.SEGMENT_ROWS, crash_hook=snapshot)
        store.attach_durable(backing)
        for table in ("t1", "t2"):
            store.create_table(table, ("a", "b"))
        setup_frames = len(snapshots)
        oracle = {"t1": [], "t2": []}
        states = [{t: list(rows) for t, rows in oracle.items()}]
        first_statement = {0: 0}  # generation -> statements already in its manifest
        for statement in self._statements():
            with write_group():
                for table, (inserts, deletes) in statement.items():
                    store.apply_delta(table, inserts=inserts, deletes=deletes)
            for table, (inserts, deletes) in statement.items():
                for row in deletes:
                    oracle[table].remove(row)
                oracle[table].extend(dict(row) for row in inserts)
            states.append({t: list(rows) for t, rows in oracle.items()})
            first_statement.setdefault(backing.generation, len(states) - 1)
        assert backing.generation == 1, "the third statement's tombstones must fold"
        assert first_statement == {0: 0, 1: 3}
        # One frame (one fsync) per statement, freezes included.
        assert len(snapshots) - setup_frames == len(states) - 1

        def generation_of(directory):
            return max(
                int(name[4:-4]) for name in os.listdir(directory) if name.startswith("wal-")
            )

        latest = {}
        for directory in snapshots[setup_frames:]:
            latest[generation_of(directory)] = directory
        assert sorted(latest) == [0, 1]
        checked = 0
        for generation, directory in latest.items():
            wal_name = f"wal-{generation}.log"
            starts = frame_offsets(os.path.join(directory, wal_name))
            skipped = setup_frames if generation == 0 else 0
            size = os.path.getsize(os.path.join(directory, wal_name))
            for cut in range(size + 1):
                workdir = str(tmp_path / "crash")
                if os.path.exists(workdir):
                    shutil.rmtree(workdir)
                shutil.copytree(directory, workdir)
                with open(os.path.join(workdir, wal_name), "r+b") as handle:
                    handle.truncate(cut)
                whole = sum(1 for start in starts[1:] if start <= cut) - skipped
                expected = states[first_statement[generation] + max(whole, 0)]
                recovered = RelationalStore("pg")
                recovered.attach_durable(DurableBacking(workdir, segment_rows=self.SEGMENT_ROWS))
                for table in ("t1", "t2"):
                    got = _store_rows(recovered, table) if table in recovered.collections() else []
                    assert _bag(got) == _bag(expected[table]), (
                        f"generation {generation}: recovery diverged on {table} "
                        f"after truncating the WAL at byte {cut}"
                    )
                checked += 1
        assert checked > 0

    def test_a_statement_that_raises_still_logs_what_it_applied(self, tmp_path):
        store, _ = _fresh_relational(tmp_path)
        store.create_table("t", ("a",))
        with pytest.raises(RuntimeError):
            with write_group():
                store.apply_delta("t", inserts=[{"a": 1}])
                raise RuntimeError("the statement fails after the first delta")
        recovered = _recover_relational(tmp_path)
        assert _store_rows(recovered, "t") == [{"a": 1}]


class TestBoundedTombstones:
    @pytest.mark.parametrize("kind", sorted(HEAP_STORES))
    def test_fifo_deletes_of_frozen_rows_stay_bounded_and_never_resurrect(self, tmp_path, kind):
        segment_rows = 8
        factory, create = HEAP_STORES[kind]
        store = factory(kind)
        backing = DurableBacking(str(tmp_path / kind), segment_rows=segment_rows)
        store.attach_durable(backing)
        create(store)
        live = [{"a": i, "b": i % 5} for i in range(64)]
        store.insert("t", live)
        generations = set()
        while len(live) > 4:
            doomed, live = live[:3], live[3:]
            store.apply_delta("t", deletes=doomed, inserts=[])
            described = backing.describe()["collections"]["t"]
            assert described["tombstones"] <= segment_rows
            generations.add(backing.generation)
            assert _scanned_pairs(store) == Counter((row["a"], row["b"]) for row in live)
        assert len(generations) > 2  # folds happened, more than once
        store.apply_delta("t", deletes=live[:1], inserts=[])  # a delete the WAL replays
        live = live[1:]
        recovered = factory(kind)
        recovered.attach_durable(DurableBacking(str(tmp_path / kind), segment_rows=segment_rows))
        expected = Counter((row["a"], row["b"]) for row in live)
        assert _scanned_pairs(recovered) == expected  # served from the segments
        assert _heap_pairs(recovered) == expected  # the replayed heap

    def test_keyvalue_churn_folds_and_keeps_the_wal_small(self, tmp_path):
        store = KeyValueStore("redis")
        backing = DurableBacking(str(tmp_path / "redis"), segment_rows=64)
        store.attach_durable(backing)
        store.create_collection("kv")
        for key in range(3000):
            store.put("kv", key, {"v": key % 7})
        for key in range(2900):
            store.delete("kv", key)
        assert backing.generation > 0
        assert os.path.getsize(backing.wal_path) < 10_000
        recovered = KeyValueStore("redis")
        recovered.attach_durable(DurableBacking(str(tmp_path / "redis"), segment_rows=64))
        assert sorted(recovered.keys("kv")) == list(range(2900, 3000))
        assert recovered.mget("kv", [0, 2999]) == [None, {"v": 2999 % 7}]

    def test_a_scan_streaming_across_a_fold_still_reads_its_segments(self, tmp_path):
        """A fold retires the old generation's files only after its open scans end."""
        segment_rows = 8
        store, backing = _fresh_relational(tmp_path, segment_rows=segment_rows)
        store.create_table("t", ("a", "b"))
        live = [{"a": i, "b": i % 5} for i in range(64)]
        store.insert("t", live)
        expected = Counter((row["a"], row["b"]) for row in live)
        request = ScanRequest("t", predicates=(Predicate("a", ">=", 0),))
        stream = iter(store.execute_batches(request, ("a", "b"), 4))
        scanned = list(next(stream).rows)  # the snapshot is taken, one block read
        generation = backing.generation
        while backing.generation == generation:
            doomed, live = live[:3], live[3:]
            store.apply_delta("t", deletes=doomed, inserts=[])
        scanned += [row for batch in stream for row in batch.rows]
        assert Counter(scanned) == expected
        # The drained scan released the old generation: its files are gone.
        names = os.listdir(tmp_path / "pg")
        assert not any(name.startswith(f"seg-{generation}-") for name in names)
        recovered = _recover_relational(tmp_path, segment_rows=segment_rows)
        assert _bag(_store_rows(recovered, "t")) == _bag(live)

    def test_an_abandoned_scan_releases_the_retired_files(self, tmp_path):
        store, backing = _fresh_relational(tmp_path, segment_rows=8)
        store.create_table("t", ("a",))
        store.insert("t", [{"a": i} for i in range(32)])
        generation = backing.generation
        stream = iter(store.execute_batches(ScanRequest("t"), ("a",), 4))
        next(stream)
        backing.compact()
        names = os.listdir(tmp_path / "pg")
        assert any(name.startswith(f"seg-{generation}-") for name in names)
        stream.close()
        names = os.listdir(tmp_path / "pg")
        assert not any(name.startswith(f"seg-{generation}-") for name in names)

    def test_tail_deletes_search_newest_first_without_copying(self):
        rows = [{"a": i % 3} for i in range(300)]
        assert _newest_index(rows, {"a": 1}) >= 300 - 64
        assert _newest_index(rows[:10], {"a": 2}) == 2
        with pytest.raises(ValueError):
            _newest_index(rows, {"a": 7})


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

    def test_an_in_skips_segments_whose_zone_holds_none_of_its_keys(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)  # a = 0..199 in four segments, a 30-row tail
        plain = RelationalStore("plain")
        plain.create_table("t", ("a", "b"))
        plain.insert("t", [{"a": i, "b": f"x{i % 3}"} for i in range(230)])
        for keys, skipped in (
            ((60, 75, 99.0, 500), 3),  # all above the first segment's max, one past every max
            ((True, 210), 3),  # True equals 1: only the first segment may hold it
            (("x1",), 4),  # no string lies in a numeric zone
            ((None, 500), 0),  # a key set holding None bounds nothing
            ((float("nan"), 500), 0),  # neither does one holding NaN
        ):
            predicate = Predicate("a", "in", frozenset(keys))
            rows, metrics = self._scan(store, predicate)
            assert metrics.segments_skipped == skipped, keys
            assert metrics.segments_scanned == 4 - skipped
            expected = plain.execute(ScanRequest("t", (predicate,)), ("a", "b")).rows
            assert Counter(rows) == Counter((row["a"], row["b"]) for row in expected)

    def test_an_in_skips_a_dictionary_column_holding_none_of_its_keys(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)  # b is "x0", "x1" or "x2", dictionary-encoded
        # "x10" lies inside every zone's [x0, x2] but in no dictionary.
        rows, metrics = self._scan(store, Predicate("b", "in", frozenset(("x10", "a"))))
        assert rows == [] and metrics.segments_skipped == 4
        rows, metrics = self._scan(store, Predicate("b", "in", frozenset(("x10", "x2"))))
        assert metrics.segments_skipped == 0
        assert sorted(row[0] for row in rows) == [i for i in range(230) if i % 3 == 2]

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

    def test_a_key_value_scan_fraction_prunes_only_on_segment_columns(self, tmp_path):
        """A key-value segment holds ``key`` and ``value``: a bound on a field
        read off the value cannot exclude a segment."""
        store = KeyValueStore("redis", allow_scans=True)
        store.attach_durable(DurableBacking(str(tmp_path / "redis"), segment_rows=8))
        store.create_collection("kv", key_column="uid")
        store.insert("kv", [{"uid": i, "category": i % 3} for i in range(32)])
        assert store.segment_scan_fraction("kv", (Predicate("category", "=", 1),)) == 1.0
        assert store.segment_scan_fraction("kv", (Predicate("key", "=", 40),)) == 0.0

    def test_scan_fraction_prices_pruning_for_the_cost_model(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)
        bounds = (Predicate("a", "=", 5),)
        fraction = store.segment_scan_fraction("t", bounds)
        # One 50-row segment survives out of 200 frozen + 30 tail rows.
        assert fraction == pytest.approx(80 / 230)
        assert store.segment_scan_fraction("t", ()) == 1.0
        assert store.segment_scan_fraction("missing", bounds) is None

    def test_a_parallel_scan_served_from_segments_reports_its_partitions(self, tmp_path):
        store = ParallelStore("spark", default_partitions=4)
        store.attach_durable(DurableBacking(str(tmp_path / "spark"), segment_rows=50))
        store.create_dataset("t", partition_column="a")
        store.insert("t", [{"a": i, "b": f"x{i % 3}"} for i in range(230)])
        rows, metrics = self._scan(store, Predicate("b", "=", "x1"))
        assert sorted(row[0] for row in rows) == [i for i in range(230) if i % 3 == 1]
        assert metrics.segments_scanned == 4  # served from the segments ...
        assert metrics.partitions_used == 4  # ... yet the partitions are counted
        assert store.compact_durable()["collections"] == {"t": 230}

    def test_tombstoned_rows_never_resurrect_in_scans(self, tmp_path):
        store, _ = self._loaded_store(tmp_path)
        store.apply_delta("t", deletes=[{"a": 5, "b": "x2"}])
        rows, _ = self._scan(store, Predicate("a", "=", 5))
        assert rows == []
        recovered = _recover_relational(tmp_path)
        rows, _ = self._scan(recovered, Predicate("a", "=", 5))
        assert rows == []


# -- the facade: durable_path, REPRO_DURABLE, compaction, summary ---------------------


def _two_fragment_deployment(directory, crash_hook):
    """``events`` kept in two fragments of one durable store: itself, and ⋈ users."""
    est = Estocada(durable_path=directory)
    store = RelationalStore("pg")
    store.attach_durable(DurableBacking(os.path.join(directory, "pg"), crash_hook=crash_hook))
    est.register_store("pg", store)
    est.register_relational_dataset(
        "app",
        [
            TableSchema("users", ("uid", "name"), primary_key=("uid",)),
            TableSchema("events", ("uid", "val")),
        ],
    )
    est.load_relation("users", [{"uid": u, "name": f"n{u}"} for u in range(4)], dataset="app")
    est.load_relation("events", [{"uid": u % 4, "val": u} for u in range(12)], dataset="app")
    for name, head, body, columns, collection in (
        ("F_events", ["?u", "?v"], [Atom("events", ["?u", "?v"])], ("uid", "val"), "events"),
        (
            "F_user_events",
            ["?u", "?n", "?v"],
            [Atom("users", ["?u", "?n"]), Atom("events", ["?u", "?v"])],
            ("uid", "name", "val"),
            "user_events",
        ),
    ):
        view = ViewDefinition(name, ConjunctiveQuery(name, head, body), column_names=columns)
        est.register_fragment(
            StorageDescriptor(
                name, "app", "pg", view, StorageLayout(collection), AccessMethod("scan")
            ),
            indexes=("uid",),
        )
    return est


class TestGroupCommit:
    def test_one_fsync_per_write_statement_on_a_two_fragment_deployment(self, tmp_path):
        stages = Counter()
        est = _two_fragment_deployment(str(tmp_path / "d"), lambda stage: stages.update([stage]))
        statements = [
            lambda: est.insert("events", [{"uid": 1, "val": 100}, {"uid": 2, "val": 101}]),
            lambda: est.update("events", {"uid": 1, "val": 100}, {"uid": 3, "val": 100}),
            lambda: est.delete("events", [{"uid": 0, "val": 0}, {"uid": 1, "val": 1}]),
        ]
        for statement in statements:
            stages.clear()
            statement()
            # Both fragments changed, yet their records share one WAL frame.
            assert stages["pre_sync"] == 1
        fresh = Estocada(durable_path=str(tmp_path / "d"))
        fresh.register_store("pg", RelationalStore("pg"))
        recovered = fresh.catalog.store("pg")
        events = [{"uid": u % 4, "val": u} for u in range(2, 12)]
        events += [{"uid": 2, "val": 101}, {"uid": 3, "val": 100}]
        assert _bag(_store_rows(recovered, "events")) == _bag(events)
        assert len(_store_rows(recovered, "user_events")) == len(events)


class TestDroppedFacade:
    def test_a_dropped_facade_and_its_stores_are_freed_by_reference_counting(
        self, marketplace_data, tmp_path
    ):
        """No reference cycle holds a facade, its stores or their rows: with
        the cycle collector off, all are gone right after ``del``.  The
        facade plans (``explain``) and writes, so its rewriter and the
        stores' backings exist; ``query`` is left out because an ambient
        query service's worker threads may hold the facade."""
        gc.collect()
        gc.disable()
        try:
            for durable_path in (None, str(tmp_path / "durable")):
                est = build_marketplace_estocada(marketplace_data, durable_path=durable_path)
                est.explain("SELECT name FROM users WHERE uid = 5", dataset="shop")
                est.load_relation("users", marketplace_data.users, dataset="shop")
                est.insert("users", [{"uid": 10_000, "name": "n", "city": "c"}])
                refs = [weakref.ref(est)]
                refs += [weakref.ref(store) for store in est.catalog.stores().values()]
                del est
                assert [ref for ref in refs if ref() is not None] == [], durable_path
        finally:
            gc.enable()


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
        # An explicit argument wins over the environment.
        assert Estocada(durable_path=str(tmp_path / "arg")).durable_path == str(
            tmp_path / "arg"
        )
        monkeypatch.setenv("REPRO_DURABLE", "0")
        assert Estocada().durable_path is None

    def test_summary_reports_segment_activity(self, tmp_path, marketplace_data, monkeypatch):
        from tests.conftest import build_marketplace_estocada

        monkeypatch.delenv("REPRO_DURABLE", raising=False)
        est = build_marketplace_estocada(
            marketplace_data, durable_path=str(tmp_path / "shop"), segment_rows=64
        )
        result = est.query(
            "SELECT sku, price FROM purchases WHERE category = 'shoes'", dataset="shop"
        )
        segments = result.summary()["segments"]
        assert set(segments) == {"scanned", "skipped", "rows_decoded"}
        assert segments["scanned"] >= 1
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
        from tests.conftest import register

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
            register(est, "pg", RelationalStore("pg"), segment_rows=50)
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

        result = deploy(str(tmp_path / "durable")).query(sql, dataset="app")
        expected = deploy(None).query(sql, dataset="app")
        assert _bag(result.rows) == _bag(expected.rows)
        assert len(result.rows) == 10
        segments = result.summary()["segments"]
        # 400 rows freeze into 8 monotone segments of 50; ms >= 390 excludes
        # the first seven by zone map alone.
        assert segments == {"scanned": 1, "skipped": 7, "rows_decoded": 50}


class TestRestart:
    """Bootstrap, write, reopen, verify: every store of a deployment comes back.

    The marketplace deployment spans all five store kinds.  After a
    maintained write that lands in the parallel store's fragment, a fresh
    facade over the same directory must recover every collection of every
    store bag-identical, with full-text search ranking the same hits; a
    compaction and a second reopen must change none of it.
    """

    STORES = {
        "pg": RelationalStore,
        "redis": KeyValueStore,
        "mongo": DocumentStore,
        "solr": FullTextStore,
        "spark": ParallelStore,
    }
    SEARCH = SearchRequest("catalog", "blue running sneaker")

    def _sizes(self, est):
        """Rows per collection per store."""
        stores = {name: est.catalog.store(name) for name in self.STORES}
        return {
            name: {collection: store.collection_size(collection) for collection in store.collections()}
            for name, store in stores.items()
        }

    def _state(self, est):
        """Every collection's row bag per store, and the ranked search hits."""
        stores = {name: est.catalog.store(name) for name in self.STORES}
        bags = {
            name: {
                collection: Counter(map(freeze_value, _store_rows(store, collection)))
                for collection in store.collections()
            }
            for name, store in stores.items()
        }
        return bags, stores["solr"].execute(self.SEARCH, ("sku", "_score")).rows

    def _reopen(self, directory):
        from tests.conftest import register

        fresh = Estocada(durable_path=directory)
        for name, factory in self.STORES.items():
            register(fresh, name, factory(name), segment_rows=64)
        return fresh

    def test_every_store_comes_back_after_a_maintained_write(
        self, tmp_path, marketplace_data, monkeypatch
    ):
        from tests.conftest import build_marketplace_estocada, visit_rows

        monkeypatch.delenv("REPRO_DURABLE", raising=False)
        directory = str(tmp_path / "shop")
        est = build_marketplace_estocada(marketplace_data, durable_path=directory, segment_rows=64)
        est.load_relation("visits", visit_rows(marketplace_data), dataset="shop")
        visits = next(d for d in est.catalog.fragments() if d.fragment_name == "F_visits")
        assert est.maintenance.watch_fragment(visits)
        written = {"uid": 1, "sku": 9999, "category": "books", "duration_ms": 4242}
        assert est.insert("visits", written) == 1
        sizes = {
            "pg": {"users": 60, "purchases": len(marketplace_data.purchases())},
            "redis": {"prefs": 60},
            "mongo": {"carts": 40},
            "solr": {"catalog": 80},
            "spark": {"visits": 601},
        }
        assert self._sizes(est) == sizes
        recovered = self._reopen(directory)
        assert self._sizes(recovered) == sizes
        bags, hits = self._state(est)
        assert bags["spark"]["visits"][freeze_value(written)] == 1
        assert hits
        assert self._state(recovered) == (bags, hits)
        reports = recovered.compact()
        assert reports["solr"]["collections"] == {"catalog": 80}
        assert reports["spark"]["collections"] == {"visits": 601}
        assert self._state(self._reopen(directory)) == (bags, hits)


# -- property: rows -> segments -> cursor is the identity ----------------------------

_scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)

_COLUMNS = ("a", "b", "c")

# Homogeneous sequences (typed-block candidates) and their near misses.
_int64_edges = st.sampled_from([0, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1])
_odd_text = st.sampled_from(["", "\x00", "\U0001d11e", "é"])


@st.composite
def _dict_rows(draw):
    """Rows sharing one key order, or with one row reordered or missing a key."""
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {"uid": st.integers(-5, 5), "kind": st.text(max_size=3), "val": st.floats()}
            ),
            min_size=1,
            max_size=6,
        )
    )
    twist = draw(st.sampled_from(["none", "reorder", "drop"]))
    at = draw(st.integers(0, len(rows) - 1))
    if twist == "reorder":
        rows[at] = dict(reversed(list(rows[at].items())))
    elif twist == "drop":
        del rows[at]["kind"]
    return rows


def _columns():
    items = st.one_of(
        st.lists(st.integers(-(2**63), 2**63 - 1) | _int64_edges, max_size=8),
        st.lists(st.floats(), max_size=8),  # NaN, infinities and -0.0 included
        st.lists(st.text(max_size=4) | _odd_text, max_size=8),
        st.lists(st.booleans() | st.integers(-3, 3), max_size=8),
        st.lists(st.integers(-3, 3) | st.just(ABSENT) | st.none(), max_size=8),
        _dict_rows(),
    )
    return items.flatmap(lambda column: st.sampled_from([column, tuple(column)]))


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

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        value=st.recursive(
            _scalar_values | st.binary(max_size=16) | _columns(),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.lists(children, max_size=4).map(tuple),
                st.dictionaries(st.text(max_size=6), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_codec_round_trips_arbitrary_trees(self, value):
        _assert_same(decode_value(encode_value(value)), value)
        _assert_same(decode_value(_per_value_encoding(value)), value)
