"""The durable backing of a store: WAL + columnar segment generations.

One :class:`DurableBacking` owns one directory and persists one store's
collections.  The layout::

    MANIFEST                      commit point: generation + schemas + segments
    wal-<generation>.log          append-only CRC-framed record log
    seg-<generation>-<seq>.seg    immutable columnar segments

**Write path.**  A store that opted in calls :meth:`log` *after* applying an
operation in memory — the WAL records only operations that succeeded.  The
backing mirrors each record into its own state: inserted rows accumulate in
a per-collection *tail*, and once the tail reaches the segment size the
backing freezes a run into a segment file (tmp + fsync + rename) and then
appends a ``freeze`` record — in that order, so a crash at any byte leaves
either an orphan segment file (harmless) or a fully valid freeze.  Inside a
:func:`write_group` (one facade write statement) the records are buffered
and written as one frame with one fsync when the group ends.  A delete that
finds no tail row leaves a tombstone for the frozen copy; once a
collection's tombstones reach the segment size the backing *folds* them
away with a compaction, right after the frame that reached the limit.

**Recovery.**  Opening a directory replays MANIFEST segments and then the
WAL's valid prefix through the store's ``_durable_replay`` hook, rebuilding
the in-memory state a crash destroyed; ``freeze`` records only re-attach
segments (their rows were already replayed from the preceding inserts).

**Compaction.**  :meth:`compact` dumps the store's *current* in-memory
state into a fresh segment generation with rebuilt zone maps, starts an
empty WAL, and commits both with one atomic MANIFEST rename; files of the
old generation become garbage and are removed best-effort once no scan
that started before the commit is still streaming from them.

**Scans.**  :meth:`scan_batches` serves a delegated scan straight from the
segments + tail: segments whose zone maps provably exclude a predicate are
skipped without touching their column blocks, and equality predicates on
dictionary-encoded columns are evaluated on the codes before decoding.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import DurabilityError
from repro.runtime.batch import freeze_value
from repro.stores.base import (
    COMPARATORS,
    StoreMetrics,
    batch_tuples,
    kept_rows,
    row_reader,
)
from repro.stores.segment.codec import ABSENT, decode_value, encode_value
from repro.stores.segment.segments import (
    SegmentReader,
    fsync_directory,
    write_columns,
)
from repro.stores.segment import wal as wal_module
from repro.stores.segment.wal import WriteAheadLog

__all__ = [
    "DurableBacking",
    "DEFAULT_SEGMENT_ROWS",
    "write_group",
]

MANIFEST_NAME = "MANIFEST"
DEFAULT_SEGMENT_ROWS = 4096
"""Rows per frozen segment unless a backing is given ``segment_rows``."""

# The open write group of each thread: the backings holding its records.
_open_groups = threading.local()


@contextmanager
def write_group():
    """Group commit: every record logged inside lands as one WAL frame per backing.

    Each backing a thread logs to inside the block buffers that thread's
    records (applying them to its own state at once) and, when the outermost
    block exits — normally *or* by an exception, since what was applied in
    memory must be durable — writes them as one frame with one fsync, then
    folds its tombstones if they reached the segment size.  Recovery thus
    sees one statement's records per backing whole or not at all.  Nested
    blocks join the outer group.
    """
    if getattr(_open_groups, "backings", None) is not None:
        yield
        return
    backings: list[DurableBacking] = []
    _open_groups.backings = backings
    try:
        yield
    finally:
        _open_groups.backings = None
        for backing in backings:
            backing._commit_group(backings)


def _expand(records: Iterable[Mapping[str, object]]) -> Iterator[Mapping[str, object]]:
    """WAL frame payloads to records: a group frame holds several, in order."""
    for record in records:
        if record.get("kind") == "group":
            yield from record["records"]
        else:
            yield record


class _CollectionState:
    """Per-collection durable state: frozen segments + unfrozen tail.

    Rows are keyed (tail counter, tombstones) by their value tuple in the
    collection's declared column order; ragged collections with no declared
    columns fall back to :func:`freeze_value` of the whole row.
    """

    __slots__ = (
        "columns", "meta", "segments", "tail", "tail_keys", "tombstones", "tombstone_count"
    )

    def __init__(
        self,
        columns: tuple[str, ...] | None = None,
        meta: dict | None = None,
    ) -> None:
        self.columns = columns
        self.meta: dict = dict(meta or {})
        self.segments: list[SegmentReader] = []
        # The unfrozen rows, oldest first: the store's own row objects.
        self.tail: list[dict] = []
        # How many tail rows hold each key; built on the first delete only,
        # so bulk loads never pay for it.
        self.tail_keys: Counter | None = None
        # Deletes that matched no tail row necessarily hit rows already frozen
        # into segments; they are remembered here and applied when segment
        # rows are scanned, until a fold (compaction) purges them for real.
        self.tombstones: Counter = Counter()
        self.tombstone_count = 0

    def frozen_rows(self) -> int:
        return sum(segment.row_count for segment in self.segments)

    def key(self, row: Mapping[str, object]) -> object:
        """The row's identity for tail and tombstone matching."""
        if self.columns is None:
            return freeze_value(row)
        return self.key_of(map(row.get, self.columns))

    @staticmethod
    def key_of(values: Iterable[object]) -> object:
        """The identity of a row given its values in declared column order."""
        key = tuple(values)
        try:
            hash(key)
        except TypeError:  # nested values: freeze them
            return freeze_value(key)
        return key

    def append(self, rows: Sequence[dict]) -> None:
        self.tail.extend(rows)
        if self.tail_keys is not None:
            self.tail_keys.update(map(self.key, rows))

    def delete(self, rows: Sequence[Mapping[str, object]]) -> None:
        """Drop one tail copy per row (searched newest first), else tombstone a
        frozen one: O(1) for a frozen row, a C search from the tail's end plus
        the list shift for a row still in the tail."""
        tail = self.tail
        tail_keys = self.tail_keys
        if tail_keys is None:
            tail_keys = self.tail_keys = Counter(map(self.key, tail))
        for row in rows:
            key = self.key(row)
            held = tail_keys.get(key, 0)
            if not held:
                self.tombstones[key] += 1
                self.tombstone_count += 1
                continue
            if held == 1:
                del tail_keys[key]
            else:
                tail_keys[key] = held - 1
            try:
                position = _newest_index(tail, row)
            except ValueError:  # equal by key only (e.g. a missing vs a None column)
                position = next(
                    p for p in range(len(tail) - 1, -1, -1) if self.key(tail[p]) == key
                )
            del tail[position]

    def pop_front(self, count: int) -> list[dict]:
        """Remove and return the oldest ``count`` tail rows (a freeze)."""
        chunk = self.tail[:count]
        del self.tail[:count]
        tail_keys = self.tail_keys
        if tail_keys is not None:
            for key in map(self.key, chunk):
                held = tail_keys[key]
                if held == 1:
                    del tail_keys[key]
                else:
                    tail_keys[key] = held - 1
        return chunk


def _reconstruct(columns: Sequence[str], row: tuple) -> dict:
    """A segment tuple back to its native dict (ABSENT holes dropped)."""
    return {
        column: value for column, value in zip(columns, row) if value is not ABSENT
    }


def _native_rows(reader: SegmentReader) -> list[dict]:
    """Every row of a segment as its native dict, built a column at a time."""
    columns = reader.columns
    if not columns:
        return [{} for _ in range(reader.row_count)]
    series = [reader.column_values(column) for column in columns]
    if any(ABSENT in values for values in series):
        return [_reconstruct(columns, row) for row in zip(*series)]
    return list(map(dict, map(zip, repeat(columns), zip(*series))))


def _column_series(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> list[tuple]:
    """Each column's values over ``rows``, ``ABSENT`` where a row lacks it."""
    if len(columns) > 1 and rows:
        try:
            return list(zip(*map(itemgetter(*columns), rows)))
        except KeyError:  # a ragged row: fill its holes below
            pass
    return [tuple(row.get(column, ABSENT) for row in rows) for column in columns]


class DurableBacking:
    """WAL + segment persistence for one store's collections."""

    def __init__(
        self,
        directory: str,
        *,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        sync: bool = True,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        self._directory = directory
        self._segment_rows = segment_rows
        self._sync = sync
        self._crash_hook = crash_hook
        self._lock = threading.RLock()
        # A weak reference: the store holds its backing, and a dropped store
        # must be freed by reference counting, not by a later cycle collection.
        self._store: weakref.ref | None = None
        self._generation = 0
        self._collections: dict[str, _CollectionState] = {}
        self._wal: WriteAheadLog | None = None
        self._segment_seq = 0
        # Records of the open write group, not yet in the WAL, and its owner.
        self._pending: list[Mapping[str, object]] = []
        self._pending_group: list | None = None
        self._fold_due = False
        # Scans still streaming, per generation they started in, and the
        # files each compaction retired: a scan reads its segment files
        # lazily, after the lock is released, so a retired file is removed
        # only once no scan of an older generation is open.
        self._open_scans: Counter = Counter()
        self._retired: list[tuple[int, list[str]]] = []

    # -- introspection ------------------------------------------------------------
    @property
    def directory(self) -> str:
        """The directory this backing persists into."""
        return self._directory

    @property
    def generation(self) -> int:
        """The committed segment generation."""
        return self._generation

    @property
    def wal_path(self) -> str:
        """Path of the current generation's WAL file."""
        return os.path.join(self._directory, f"wal-{self._generation}.log")

    def child(self, name: str) -> "DurableBacking":
        """A sibling backing in a subdirectory (router stores fan out here)."""
        return DurableBacking(
            os.path.join(self._directory, name),
            segment_rows=self._segment_rows,
            sync=self._sync,
            crash_hook=self._crash_hook,
        )

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly snapshot of the durable state."""
        with self._lock:
            return {
                "directory": self._directory,
                "generation": self._generation,
                "wal_records": self._wal.record_count if self._wal else 0,
                "collections": {
                    name: {
                        "segments": len(state.segments),
                        "rows_frozen": state.frozen_rows(),
                        "rows_tail": len(state.tail),
                        "tombstones": state.tombstone_count,
                    }
                    for name, state in self._collections.items()
                },
            }

    # -- attachment & recovery ----------------------------------------------------
    def attach(self, store) -> None:
        """Bind to ``store``, recovering any persisted state into it.

        When the directory is empty but the store already holds data (a store
        loaded *before* opting in), the existing contents are snapshotted
        into a first segment generation so durability starts complete.
        """
        with self._lock:
            if self._store is not None:
                raise DurabilityError(
                    f"durable directory {self._directory!r} is already attached"
                )
            os.makedirs(self._directory, exist_ok=True)
            self._store = weakref.ref(store)
            manifest = self._read_manifest()
            self._scan_segment_seq()
            had_disk = manifest is not None
            if manifest is not None:
                self._load_manifest(manifest)
            wal_path = self.wal_path
            records = wal_module.replay(wal_path)
            had_disk = had_disk or bool(records) or os.path.exists(wal_path)
            with store._durable_silence():
                for record in _expand(records):
                    self._apply(record, replay=True)
                    if record.get("kind") != "freeze":
                        store._durable_replay(record)
            self._wal = WriteAheadLog(wal_path, sync=self._sync, crash_hook=self._crash_hook)
            if not had_disk:
                self._bootstrap()

    def _bootstrap(self) -> None:
        """Snapshot a pre-loaded store into generation 1 (empty directory only)."""
        if self._owner()._durable_dump():
            self._compact_locked()

    def _owner(self):
        """The attached store (raises when unattached or already dropped)."""
        store = self._store() if self._store is not None else None
        if store is None:
            raise DurabilityError(f"durable directory {self._directory!r} has no live store")
        return store

    def _read_manifest(self) -> Mapping[str, object] | None:
        path = os.path.join(self._directory, MANIFEST_NAME)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        manifest = decode_value(data)
        if not isinstance(manifest, dict) or "generation" not in manifest:
            raise DurabilityError(f"{path}: malformed manifest")
        return manifest

    def _scan_segment_seq(self) -> None:
        highest = -1
        try:
            names = os.listdir(self._directory)
        except FileNotFoundError:
            names = []
        for name in names:
            if name.startswith("seg-") and name.endswith(".seg"):
                parts = name[:-4].split("-")
                try:
                    highest = max(highest, int(parts[-1]))
                except ValueError:
                    continue
        self._segment_seq = highest + 1

    def _load_manifest(self, manifest: Mapping[str, object]) -> None:
        self._generation = int(manifest["generation"])  # type: ignore[arg-type]
        store = self._owner()
        with store._durable_silence():
            for name, info in manifest.get("collections", {}).items():  # type: ignore[union-attr]
                columns = info.get("columns")
                state = _CollectionState(
                    columns=tuple(columns) if columns else None,
                    meta=info.get("meta") or {},
                )
                self._collections[name] = state
                store._durable_replay(
                    {
                        "kind": "create",
                        "collection": name,
                        "columns": state.columns,
                        "meta": dict(state.meta),
                    }
                )
                for filename in info.get("segments", ()):
                    reader = SegmentReader(os.path.join(self._directory, filename))
                    state.segments.append(reader)
                    rows = _native_rows(reader)
                    if rows:
                        store._durable_replay(
                            {"kind": "rows", "collection": name, "rows": rows}
                        )
                for column in state.meta.get("indexes", ()):
                    store._durable_replay(
                        {"kind": "index", "collection": name, "column": column}
                    )

    # -- write path ---------------------------------------------------------------
    def log(self, record: Mapping[str, object]) -> None:
        """Log one operation record and mirror it into the backing.

        Outside a :func:`write_group` the record is its own fsync'd frame;
        inside one it is buffered until the group commits.
        """
        with self._lock:
            if self._wal is None:
                raise DurabilityError(
                    f"durable directory {self._directory!r} is not attached"
                )
            group = getattr(_open_groups, "backings", None)
            if group is None:
                self._flush_pending()
                self._wal.append(record)
                self._apply(record, replay=False)
                self._fold_if_due()
                return
            if self._pending_group is not group:
                # Another thread's statement still buffers here: its records
                # were applied first, so they reach the WAL first.
                self._flush_pending()
                self._pending_group = group
                group.append(self)
            self._pending.append(record)
            self._apply(record, replay=False)

    def _emit(self, record: Mapping[str, object]) -> None:
        """Append a backing-minted record behind the records it follows."""
        if self._pending_group is not None:
            self._pending.append(record)
        else:
            self._wal.append(record)

    def _flush_pending(self) -> None:
        """Write the buffered group records as one frame (one fsync)."""
        records = self._pending
        if not records:
            self._pending_group = None
            return
        self._pending, self._pending_group = [], None
        self._wal.append(records[0] if len(records) == 1 else {"kind": "group", "records": records})

    def _commit_group(self, group: list) -> None:
        with self._lock:
            if self._pending_group is group:
                self._flush_pending()
            self._fold_if_due()

    def _fold_if_due(self) -> None:
        """Fold tombstones that reached the segment size into a new generation."""
        if self._fold_due:
            self._fold_due = False
            self._compact_locked()

    def _apply(self, record: Mapping[str, object], *, replay: bool) -> None:
        kind = record.get("kind")
        collection = record.get("collection")
        if kind == "create":
            state = self._state(collection, create=True)
            columns = record.get("columns")
            if columns:
                state.columns = tuple(columns)
            meta = record.get("meta")
            if meta:
                state.meta.update(meta)
        elif kind == "rows":
            state = self._state(collection, create=True)
            state.append(record["rows"])
            if not replay:
                self._maybe_freeze(collection, state)
        elif kind == "delta":
            state = self._state(collection, create=True)
            deletes = record.get("deletes", ())
            if deletes:
                state.delete(deletes)
                self._note_tombstones(state, replay)
            inserts = record.get("inserts", ())
            if inserts:
                state.append(inserts)
                if not replay:
                    self._maybe_freeze(collection, state)
        elif kind == "truncate":
            state = self._state(collection, create=True)
            state.segments = []
            state.tail = []
            state.tail_keys = None
            state.tombstones = Counter()
            state.tombstone_count = 0
        elif kind == "drop":
            self._collections.pop(collection, None)
        elif kind == "index":
            state = self._state(collection, create=True)
            indexes = state.meta.setdefault("indexes", [])
            if record["column"] not in indexes:
                indexes.append(record["column"])
        elif kind == "freeze":
            if not replay:  # freezes are minted by _maybe_freeze, never logged twice
                return
            state = self._state(collection, create=True)
            reader = SegmentReader(os.path.join(self._directory, record["segment"]))
            state.segments.append(reader)
            state.pop_front(int(record["rows"]))
        else:
            raise DurabilityError(f"unknown durable record kind {kind!r}")

    def _note_tombstones(self, state: _CollectionState, replay: bool) -> None:
        if not replay and state.tombstone_count >= self._segment_rows:
            self._fold_due = True

    def _state(self, collection: str, *, create: bool) -> _CollectionState:
        state = self._collections.get(collection)
        if state is None:
            if not create:
                raise DurabilityError(f"unknown durable collection {collection!r}")
            state = _CollectionState()
            self._collections[collection] = state
        return state

    def _maybe_freeze(self, collection: str, state: _CollectionState) -> None:
        while len(state.tail) >= self._segment_rows:
            self._freeze(collection, state, self._segment_rows)

    def _freeze(self, collection: str, state: _CollectionState, count: int) -> None:
        """Freeze the first ``count`` tail rows: segment file first, then the
        freeze record — a crash between the two leaves only an orphan file."""
        chunk = state.tail[:count]
        columns = state.columns or _union_columns(chunk)
        filename = f"seg-{self._generation}-{self._segment_seq}.seg"
        self._segment_seq += 1
        path = os.path.join(self._directory, filename)
        write_columns(path, collection, columns, _column_series(chunk, columns), len(chunk))
        self._emit(
            {"kind": "freeze", "collection": collection, "segment": filename, "rows": count}
        )
        state.segments.append(SegmentReader(path))
        state.pop_front(count)

    # -- compaction ---------------------------------------------------------------
    def compact(self) -> Mapping[str, object] | None:
        """Merge WAL tail + segments into a fresh generation (atomic commit).

        Dumps the store's current in-memory state — the ground truth the WAL
        and segments reconstruct — into new segment files with rebuilt zone
        maps, starts an empty WAL, and commits with one MANIFEST rename.
        Returns a report, or None when the store has no durable dump.
        """
        with self._lock:
            return self._compact_locked()

    @staticmethod
    def merged_report(
        reports: Iterable[Mapping[str, object] | None],
    ) -> Mapping[str, object] | None:
        """One report for the compactions of a router store's children: the
        newest generation, the summed counts and every collection's name
        (None when no child compacted)."""
        reports = [report for report in reports if report]
        if not reports:
            return None
        return {
            "generation": max(report["generation"] for report in reports),
            "segments_written": sum(report["segments_written"] for report in reports),
            "wal_records_folded": sum(report["wal_records_folded"] for report in reports),
            "collections": sorted({name for report in reports for name in report["collections"]}),
        }

    def _compact_locked(self) -> Mapping[str, object] | None:
        if self._wal is None:
            raise DurabilityError("compact() on an unattached durable backing")
        store = self._owner()
        # Buffered group records belong to the old generation: if this
        # compaction dies before its manifest commits, recovery needs them.
        self._flush_pending()
        self._fold_due = False
        dump = store._durable_dump()
        if dump is None:
            return None
        generation = self._generation + 1
        new_states: dict[str, _CollectionState] = {}
        new_files: list[str] = []
        segments_written = 0
        for name, info in dump.items():
            declared = info.get("columns")
            state = _CollectionState(
                columns=tuple(declared) if declared else None,
                meta=dict(info.get("meta") or {}),
            )
            rows = info.get("rows", [])
            for start in range(0, len(rows), self._segment_rows):
                chunk = rows[start : start + self._segment_rows]
                columns = state.columns or _union_columns(chunk)
                filename = f"seg-{generation}-{self._segment_seq}.seg"
                self._segment_seq += 1
                path = os.path.join(self._directory, filename)
                # The manifest commit's directory fsync covers every new entry.
                write_columns(
                    path, name, columns, _column_series(chunk, columns), len(chunk),
                    sync_directory=False,
                )
                state.segments.append(SegmentReader(path))
                new_files.append(filename)
                segments_written += 1
            new_states[name] = state
        # An empty WAL has no data to sync; the manifest commit's directory
        # fsync makes its entry durable.
        wal_path = os.path.join(self._directory, f"wal-{generation}.log")
        open(wal_path, "wb").close()
        manifest = {
            "generation": generation,
            "collections": {
                name: {
                    "columns": state.columns,
                    "meta": state.meta,
                    "segments": [os.path.basename(seg.path) for seg in state.segments],
                }
                for name, state in new_states.items()
            },
        }
        self._write_manifest(manifest)
        folded = self._wal.record_count if self._wal is not None else 0
        old_wal = self._wal
        old_generation = self._generation
        self._wal = WriteAheadLog(wal_path, sync=self._sync, crash_hook=self._crash_hook)
        self._generation = generation
        self._collections = new_states
        if old_wal is not None:
            old_wal.close()
        self._retire_stale_files(old_generation, generation, keep=set(new_files))
        return {
            "generation": generation,
            "segments_written": segments_written,
            "wal_records_folded": folded,
            "collections": {
                name: state.frozen_rows() for name, state in new_states.items()
            },
        }

    def _write_manifest(self, manifest: Mapping[str, object]) -> None:
        path = os.path.join(self._directory, MANIFEST_NAME)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(encode_value(dict(manifest)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_directory(self._directory)

    def _retire_stale_files(self, old_generation: int, generation: int, keep: set[str]) -> None:
        """Retire the files the new manifest no longer references."""
        try:
            names = os.listdir(self._directory)
        except OSError:  # pragma: no cover - directory vanished
            return
        stale = [
            name
            for name in names
            if name == f"wal-{old_generation}.log"
            or (name.startswith("seg-") and name.endswith(".seg") and name not in keep)
        ]
        self._retired.append((generation, stale))
        self._remove_retired()

    def _remove_retired(self) -> None:
        """Best-effort removal of retired files no open scan can still read."""
        oldest = min(self._open_scans, default=None)
        retired, self._retired = self._retired, []
        for generation, names in retired:
            if oldest is not None and oldest < generation:
                self._retired.append((generation, names))
                continue
            for name in names:
                try:
                    os.remove(os.path.join(self._directory, name))
                except OSError:  # pragma: no cover - already gone
                    pass

    # -- scan serving -------------------------------------------------------------
    def has_segments(self, collection: str) -> bool:
        """Whether scans of ``collection`` can be served from frozen segments."""
        with self._lock:
            state = self._collections.get(collection)
            return state is not None and bool(state.segments)

    def scan_fraction(
        self, collection: str, bounds, reader_of: Callable[[str], Callable]
    ) -> float | None:
        """Expected fraction of rows a scan touches after zone-map pruning.

        The cost model's new statistics source: ``None`` when the collection
        has no frozen segments (pruning cannot help).  Only bounds on a
        column ``reader_of`` reads with ``dict.get`` prune, as in a scan.
        """
        bounds = tuple(bound for bound in bounds if reader_of(bound.column) is dict.get)
        with self._lock:
            state = self._collections.get(collection)
            if state is None or not state.segments:
                return None
            total = state.frozen_rows() + len(state.tail)
            if total <= 0:
                return None
            surviving = len(state.tail)
            for segment in state.segments:
                if not bounds or not segment.excluded_by(bounds):
                    surviving += segment.row_count
            return surviving / total

    def scan_batches(
        self,
        request,
        columns: Sequence[str],
        batch_size: int,
        reader_of: Callable[[str], Callable],
    ) -> tuple[Iterator, StoreMetrics]:
        """Serve a delegated scan from segments + tail, skipping excluded segments.

        ``reader_of(column)`` is the store's column reader
        (``read(native_row, column)``).  A column it reads with ``dict.get``
        is a segment column, so its predicates prune by zone maps and run
        on the decoded column; any other column (a dotted path into nested
        documents) is read off the reconstructed native row.
        """
        metrics = StoreMetrics()
        wanted = tuple(columns)
        with self._lock:
            state = self._collections.get(request.collection) or _CollectionState()
            segments = tuple(state.segments)
            tail = list(state.tail)
            tombstones = Counter(state.tombstones)
            generation = self._generation
            self._open_scans[generation] += 1
            tuples = self._pinned(
                generation,
                self._scan_tuples(
                    request, wanted, segments, tail, tombstones, state, metrics, reader_of
                ),
            )
            next(tuples)  # primed: from here on, closing or dropping it unpins
        return batch_tuples(tuples, wanted, batch_size, request.limit), metrics

    def _pinned(self, generation: int, tuples: Iterator[tuple]) -> Iterator[tuple]:
        """``tuples``, holding ``generation``'s files on disk until the scan
        is drained, closed or dropped (the first item is a priming ``()``)."""
        try:
            yield ()
            yield from tuples
        finally:
            with self._lock:
                self._open_scans[generation] -= 1
                if not self._open_scans[generation]:
                    del self._open_scans[generation]
                self._remove_retired()

    def _scan_tuples(
        self,
        request,
        wanted: tuple[str, ...],
        segments: tuple[SegmentReader, ...],
        tail: list[dict],
        tombstones: Counter,
        keys: _CollectionState,
        metrics: StoreMetrics,
        reader_of: Callable[[str], Callable],
    ) -> Iterator[tuple]:
        predicates = tuple(request.predicates)
        positional = tuple(p for p in predicates if reader_of(p.column) is dict.get)
        pathful = tuple(p for p in predicates if reader_of(p.column) is not dict.get)
        # Full-width reconstruction: path reads and ragged rows with
        # tombstones (keyed by their native form) need the native row.
        native_rows = (
            bool(pathful)
            or any(reader_of(column) is not dict.get for column in wanted)
            or bool(tombstones and keys.columns is None)
        )
        output = row_reader(wanted, reader_of)
        for segment in segments:
            if positional and segment.excluded_by(positional):
                metrics.segments_skipped += 1
                continue
            metrics.segments_scanned += 1
            # Equality on a dictionary-encoded column: match codes first, so
            # only the hits are ever decoded.
            positions: list[int] | None = None
            coded_predicate = None
            for predicate in positional:
                if predicate.op != "=":
                    continue
                hits = segment.equality_positions(predicate.column, predicate.value)
                if hits is not None:
                    positions = hits
                    coded_predicate = predicate
                    break
            if positions is not None and not positions:
                continue
            checks = tuple(p for p in positional if p is not coded_predicate)
            decoded = len(positions) if positions is not None else segment.row_count
            metrics.rows_decoded += decoded
            metrics.rows_scanned += decoded
            # A tombstone consumes one stored copy of its row.  Equal rows pass
            # or fail every predicate alike, so only passing rows need checking.
            if native_rows:
                natives = (_reconstruct(segment.columns, row) for row in segment.rows(positions))
                for native in kept_rows(natives, checks + pathful, reader_of):
                    if tombstones and _consume(tombstones, keys.key(native)):
                        continue
                    yield output(native)
            else:
                key_columns = keys.columns if tombstones else ()
                needed = set(wanted)
                needed.update(p.column for p in checks)
                needed.update(key_columns)
                series = {
                    column: tuple(
                        None if value is ABSENT else value
                        for value in segment.column_values(column)
                    )
                    for column in needed
                }
                tests = tuple(
                    (series[p.column], COMPARATORS[p.op], p.value) for p in checks
                )
                outputs = tuple(series[column] for column in wanted)
                key_series = tuple(series[column] for column in key_columns)
                walk = positions if positions is not None else range(segment.row_count)
                for position in walk:
                    if all(
                        comparator(column[position], value)
                        for column, comparator, value in tests
                    ):
                        if key_series and _consume(
                            tombstones,
                            keys.key_of([column[position] for column in key_series]),
                        ):
                            continue
                        yield tuple(column[position] for column in outputs)
        metrics.rows_scanned += len(tail)
        yield from map(output, kept_rows(tail, predicates, reader_of))


def _consume(tombstones: Counter, key: object) -> bool:
    """Spend one tombstone on ``key`` if any is left (the row is deleted)."""
    left = tombstones.get(key, 0)
    if left:
        tombstones[key] = left - 1
    return bool(left)


def _newest_index(rows: list, row: object) -> int:
    """Position of a copy of ``row`` in the newest window of ``rows`` holding one.

    Windows double backwards from the end and each is searched by
    ``list.index`` in C, so nothing is copied and the search costs
    O(distance from the end).  Raises ValueError when no copy exists.
    """
    high, width = len(rows), 64
    while high > 0:
        low = max(0, high - width)
        try:
            return rows.index(row, low, high)
        except ValueError:
            high, width = low, width * 2
    raise ValueError(row)


def _union_columns(rows: Sequence[Mapping[str, object]]) -> tuple[str, ...]:
    """First-seen-order union of top-level keys (the ragged-document schema)."""
    seen: dict[str, None] = {}
    for row in rows:
        for key in row:
            seen.setdefault(key, None)
    return tuple(seen)
