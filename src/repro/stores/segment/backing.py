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
either an orphan segment file (harmless) or a fully valid freeze.

**Recovery.**  Opening a directory replays MANIFEST segments and then the
WAL's valid prefix through the store's ``_durable_replay`` hook, rebuilding
the in-memory state a crash destroyed; ``freeze`` records only re-attach
segments (their rows were already replayed from the preceding inserts).

**Compaction.**  :meth:`compact` dumps the store's *current* in-memory
state into a fresh segment generation with rebuilt zone maps, starts an
empty WAL, and commits both with one atomic MANIFEST rename; files of the
old generation become garbage and are removed best-effort afterwards.

**Scans.**  :meth:`scan_batches` serves a delegated scan straight from the
segments + tail: segments whose zone maps provably exclude a predicate are
skipped without touching their column blocks, and equality predicates on
dictionary-encoded columns are evaluated on the codes before decoding.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import DurabilityError
from repro.runtime.batch import freeze_value
from repro.runtime.kernels import extract_zone_bounds
from repro.stores.base import COMPARATORS, StoreMetrics, batch_tuples
from repro.stores.segment.codec import ABSENT, decode_value, encode_value
from repro.stores.segment.segments import (
    SegmentReader,
    fsync_directory,
    write_segment,
)
from repro.stores.segment import wal as wal_module
from repro.stores.segment.wal import WriteAheadLog

__all__ = [
    "DurableBacking",
    "DEFAULT_SEGMENT_ROWS",
    "default_segment_rows",
]

MANIFEST_NAME = "MANIFEST"
DEFAULT_SEGMENT_ROWS = 4096

def default_segment_rows() -> int:
    """Rows per frozen segment (``REPRO_SEGMENT_ROWS``, else 4096)."""
    raw = os.environ.get("REPRO_SEGMENT_ROWS", "").strip()
    if not raw:
        return DEFAULT_SEGMENT_ROWS
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_SEGMENT_ROWS
    return max(1, value)


class _CollectionState:
    """Per-collection durable state: frozen segments + unfrozen tail."""

    __slots__ = ("columns", "meta", "segments", "tail", "tombstones")

    def __init__(
        self,
        columns: tuple[str, ...] | None = None,
        meta: dict | None = None,
    ) -> None:
        self.columns = columns
        self.meta: dict = dict(meta or {})
        self.segments: list[SegmentReader] = []
        self.tail: list[dict] = []
        # Deletes that matched no tail row necessarily hit rows already frozen
        # into segments; they are remembered here (keyed by the frozen row's
        # canonical form) and applied when segment rows are scanned, until the
        # next compaction purges them for real.
        self.tombstones: Counter = Counter()

    def frozen_rows(self) -> int:
        return sum(segment.row_count for segment in self.segments)


def _reconstruct(columns: Sequence[str], row: tuple) -> dict:
    """A segment tuple back to its native dict (ABSENT holes dropped)."""
    return {
        column: value for column, value in zip(columns, row) if value is not ABSENT
    }


class DurableBacking:
    """WAL + segment persistence for one store's collections."""

    def __init__(
        self,
        directory: str,
        *,
        segment_rows: int | None = None,
        sync: bool = True,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        self._directory = directory
        self._segment_rows = segment_rows if segment_rows is not None else default_segment_rows()
        self._sync = sync
        self._crash_hook = crash_hook
        self._lock = threading.RLock()
        self._store = None
        self._generation = 0
        self._collections: dict[str, _CollectionState] = {}
        self._wal: WriteAheadLog | None = None
        self._segment_seq = 0

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
                        "tombstones": sum(state.tombstones.values()),
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
            self._store = store
            manifest = self._read_manifest()
            self._scan_segment_seq()
            had_disk = manifest is not None
            if manifest is not None:
                self._load_manifest(manifest)
            wal_path = self.wal_path
            records = wal_module.replay(wal_path)
            had_disk = had_disk or bool(records) or os.path.exists(wal_path)
            with store._durable_silence():
                for record in records:
                    self._apply(record, replay=True)
                    if record.get("kind") != "freeze":
                        store._durable_replay(record)
            self._wal = WriteAheadLog(wal_path, sync=self._sync, crash_hook=self._crash_hook)
            if not had_disk:
                self._bootstrap()

    def _bootstrap(self) -> None:
        """Snapshot a pre-loaded store into generation 1 (empty directory only)."""
        dump = self._store._durable_dump()
        if dump:
            self._compact_locked()

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
        store = self._store
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
                key_column = state.meta.get("key_column")
                if key_column:
                    store._durable_replay(
                        {"kind": "key_column", "collection": name, "column": key_column}
                    )
                for filename in info.get("segments", ()):
                    reader = SegmentReader(os.path.join(self._directory, filename))
                    state.segments.append(reader)
                    rows = [
                        _reconstruct(reader.columns, row) for row in reader.rows()
                    ]
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
        """Append one operation record (fsync'd) and mirror it into the backing."""
        with self._lock:
            if self._wal is None:
                raise DurabilityError(
                    f"durable directory {self._directory!r} is not attached"
                )
            self._wal.append(record)
            self._apply(record, replay=False)

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
            state.tail.extend(dict(row) for row in record["rows"])
            if not replay:
                self._maybe_freeze(collection, state)
        elif kind == "put":
            state = self._state(collection, create=True)
            state.tail.extend(
                {"key": key, "value": value} for key, value in record["entries"]
            )
            if not replay:
                self._maybe_freeze(collection, state)
        elif kind == "delete_keys":
            state = self._state(collection, create=True)
            for key in record["keys"]:
                for position, row in enumerate(state.tail):
                    if row.get("key") == key:
                        del state.tail[position]
                        break
        elif kind == "delta":
            state = self._state(collection, create=True)
            for delete in record.get("deletes", ()):
                delete = dict(delete)
                for position, row in enumerate(state.tail):
                    if row == delete:
                        del state.tail[position]
                        break
                else:
                    state.tombstones[freeze_value(delete)] += 1
            inserts = record.get("inserts", ())
            if inserts:
                state.tail.extend(dict(row) for row in inserts)
                if not replay:
                    self._maybe_freeze(collection, state)
        elif kind == "truncate":
            state = self._state(collection, create=True)
            state.segments = []
            state.tail = []
            state.tombstones = Counter()
        elif kind == "drop":
            self._collections.pop(collection, None)
        elif kind == "index":
            state = self._state(collection, create=True)
            indexes = state.meta.setdefault("indexes", [])
            if record["column"] not in indexes:
                indexes.append(record["column"])
        elif kind == "key_column":
            state = self._state(collection, create=True)
            state.meta["key_column"] = record["column"]
        elif kind == "freeze":
            if not replay:  # freezes are minted by _maybe_freeze, never logged twice
                return
            state = self._state(collection, create=True)
            reader = SegmentReader(os.path.join(self._directory, record["segment"]))
            state.segments.append(reader)
            del state.tail[: int(record["rows"])]
        else:
            raise DurabilityError(f"unknown durable record kind {kind!r}")

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
        rows = [tuple(row.get(column, ABSENT) for column in columns) for row in chunk]
        filename = f"seg-{self._generation}-{self._segment_seq}.seg"
        self._segment_seq += 1
        path = os.path.join(self._directory, filename)
        write_segment(path, collection, columns, rows)
        self._wal.append(
            {"kind": "freeze", "collection": collection, "segment": filename, "rows": count}
        )
        state.segments.append(SegmentReader(path))
        del state.tail[:count]

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

    def _compact_locked(self) -> Mapping[str, object] | None:
        if self._store is None or self._wal is None:
            raise DurabilityError("compact() on an unattached durable backing")
        dump = self._store._durable_dump()
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
                tuples = [
                    tuple(row.get(column, ABSENT) for column in columns) for row in chunk
                ]
                filename = f"seg-{generation}-{self._segment_seq}.seg"
                self._segment_seq += 1
                path = os.path.join(self._directory, filename)
                write_segment(path, name, columns, tuples)
                state.segments.append(SegmentReader(path))
                new_files.append(filename)
                segments_written += 1
            new_states[name] = state
        wal_path = os.path.join(self._directory, f"wal-{generation}.log")
        with open(wal_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
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
        self._remove_stale_files(old_generation, keep=set(new_files))
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

    def _remove_stale_files(self, old_generation: int, keep: set[str]) -> None:
        """Best-effort removal of files the new manifest no longer references."""
        try:
            names = os.listdir(self._directory)
        except OSError:  # pragma: no cover - directory vanished
            return
        for name in names:
            stale_wal = name == f"wal-{old_generation}.log"
            stale_segment = (
                name.startswith("seg-") and name.endswith(".seg") and name not in keep
            )
            if stale_wal or stale_segment:
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

    def scan_fraction(self, collection: str, bounds) -> float | None:
        """Expected fraction of rows a scan touches after zone-map pruning.

        The cost model's new statistics source: ``None`` when the collection
        has no frozen segments (pruning cannot help).
        """
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
        *,
        evaluate: Callable[[Mapping[str, object], object], bool],
        dotted: bool = False,
    ) -> tuple[Iterator, StoreMetrics]:
        """Serve a delegated scan from segments + tail, skipping excluded segments.

        ``evaluate(row_dict, predicate)`` must implement the store's native
        predicate semantics; it is used for tail rows and for predicates the
        positional fast path cannot express (``dotted=True`` marks stores
        whose predicate columns may be paths into nested documents).
        """
        metrics = StoreMetrics()
        wanted = tuple(columns)
        with self._lock:
            state = self._collections.get(request.collection)
            segments = tuple(state.segments) if state is not None else ()
            tail = list(state.tail) if state is not None else []
            tombstones = Counter(state.tombstones) if state is not None else Counter()
        tuples = self._scan_tuples(
            request, wanted, segments, tail, tombstones, metrics, evaluate, dotted
        )
        return batch_tuples(tuples, wanted, batch_size, request.limit), metrics

    def _scan_tuples(
        self,
        request,
        wanted: tuple[str, ...],
        segments: tuple[SegmentReader, ...],
        tail: list[dict],
        tombstones: Counter,
        metrics: StoreMetrics,
        evaluate: Callable[[Mapping[str, object], object], bool],
        dotted: bool,
    ) -> Iterator[tuple]:
        predicates = tuple(request.predicates)
        positional = tuple(
            p for p in predicates if not (dotted and "." in p.column)
        )
        pathful = tuple(p for p in predicates if dotted and "." in p.column)
        bounds = extract_zone_bounds(positional)
        for segment in segments:
            if bounds and segment.excluded_by(bounds):
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
            if pathful or tombstones:
                # Full-width reconstruction: nested-path predicates and
                # tombstone matching need the native row.
                for row in segment.rows(positions):
                    native = _reconstruct(segment.columns, row)
                    if tombstones:
                        key = freeze_value(native)
                        if tombstones.get(key, 0) > 0:
                            tombstones[key] -= 1
                            continue
                    if all(evaluate(native, p) for p in checks) and all(
                        evaluate(native, p) for p in pathful
                    ):
                        yield tuple(native.get(column) for column in wanted)
            else:
                needed = set(wanted)
                needed.update(p.column for p in checks)
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
                output = tuple(series[column] for column in wanted)
                walk = positions if positions is not None else range(segment.row_count)
                for position in walk:
                    if all(
                        comparator(column[position], value)
                        for column, comparator, value in tests
                    ):
                        yield tuple(column[position] for column in output)
        metrics.rows_scanned += len(tail)
        for row in tail:
            if all(evaluate(row, p) for p in predicates):
                yield tuple(row.get(column) for column in wanted)


def _union_columns(rows: Sequence[Mapping[str, object]]) -> tuple[str, ...]:
    """First-seen-order union of top-level keys (the ragged-document schema)."""
    seen: dict[str, None] = {}
    for row in rows:
        for key in row:
            seen.setdefault(key, None)
    return tuple(seen)
