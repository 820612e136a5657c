"""Immutable columnar segment files: writer, reader cursor, zone maps.

A segment freezes a run of rows for one collection into a columnar file::

    magic "RSEG1\\0"
    u32 header length | u32 CRC32(header) | header (codec dict)
    column blocks, back to back

The header carries the schema, the row count, per-column **zone maps**
(min/max over one type class, plus a null flag), optional **dictionaries**
for low-cardinality string columns, and the (offset, length, CRC) of every
column block relative to the end of the header.  Each block is one
codec-encoded tuple: the column's values in row order, or its dictionary
codes when the column is dictionary-encoded.

Readers open lazily: a scan that a zone map excludes touches only the
header, never the column blocks — that is the entire segment-skipping win.
Decoded columns are cached on the reader, so repeated scans over a warm
segment pay the codec cost once.

Zone-map soundness against the store comparator semantics
(:data:`repro.stores.base.COMPARATORS`):

* ``None`` (and the document-store ``ABSENT`` hole, and float NaN, which
  fails every ordered comparison just like ``None``) never enters a
  min/max; the zone records ``nulls=True`` instead.
* A zone map covers exactly one type class — ``"num"`` (int/float/bool) or
  ``"str"`` — because Python refuses ordered comparisons across them.  A
  column mixing classes (or holding non-scalar values) gets **no** zone map
  and its segments are never skipped.
* A column whose values are all null-like gets class ``"null"``: any
  ordered or equality bound with a non-None literal provably excludes it.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import SegmentCorruptError
from repro.runtime.batch import DEFAULT_BATCH_SIZE, RowBatch
from repro.stores.segment.codec import ABSENT, decode_value, encode_value

__all__ = ["SegmentWriter", "SegmentReader", "write_segment", "write_columns", "fsync_directory"]

MAGIC = b"RSEG1\0"
_HEADER = struct.Struct("<II")

# Dictionary-encode a string column when it has few distinct values relative
# to the row count (and an absolute ceiling keeping dictionaries header-sized).
_DICT_MAX_DISTINCT = 256


def fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory (durability of renames/creates)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem refuses directory fsync
        pass
    finally:
        os.close(fd)


def _is_null_like(value: object) -> bool:
    return value is None or value is ABSENT or (isinstance(value, float) and value != value)


def _scalar_kind(values: Sequence[object]) -> type | None:
    """``int``, ``float`` or ``str`` when every value has that exact type."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is int or kind is str or (kind is float and not any(map(math.isnan, values))):
            return kind
    return None


def _zone_for(values: Sequence[object], kind: type | None) -> Mapping[str, object] | None:
    """The zone map for one column's values, or None when unzoneable.

    ``kind`` is the column's :func:`_scalar_kind`: such a column takes its
    bounds from the builtins ``min``/``max``, any other from the loop.
    """
    if kind is not None:
        return {
            "cls": "str" if kind is str else "num",
            "lo": min(values),
            "hi": max(values),
            "nulls": False,
        }
    cls: str | None = None
    lo: object = None
    hi: object = None
    nulls = False
    for value in values:
        if _is_null_like(value):
            nulls = True
            continue
        if isinstance(value, (bool, int, float)):
            vcls = "num"
        elif isinstance(value, str):
            vcls = "str"
        else:
            return None  # non-scalar value: no zone map for this column
        if cls is None:
            cls = vcls
            lo = hi = value
        elif cls != vcls:
            return None  # mixed type classes: ordered bounds would be unsound
        else:
            if value < lo:  # type: ignore[operator]
                lo = value
            if value > hi:  # type: ignore[operator]
                hi = value
    if cls is None:
        return {"cls": "null", "lo": None, "hi": None, "nulls": True}
    return {"cls": cls, "lo": lo, "hi": hi, "nulls": nulls}


def _dictionary_for(
    values: Sequence[object], kind: type | None
) -> tuple[tuple[str, ...], list[int]] | None:
    """(dictionary, codes) for a low-cardinality string column, else None.

    Codes: dictionary index, ``-1`` for ``None``, ``-2`` for ``ABSENT``.
    A column of ``str`` alone (``kind``) is coded by C builtins.
    """
    if kind is str:
        codes = dict.fromkeys(values)
        if len(codes) > _DICT_MAX_DISTINCT or len(codes) * 2 > len(values):
            return None
        for code, word in enumerate(codes):
            codes[word] = code
        return tuple(codes), list(map(codes.__getitem__, values))
    if kind is not None:
        return None
    codes = {}
    encoded: list[int] = []
    for value in values:
        if value is None:
            encoded.append(-1)
        elif value is ABSENT:
            encoded.append(-2)
        elif isinstance(value, str):
            code = codes.get(value)
            if code is None:
                code = len(codes)
                if code >= _DICT_MAX_DISTINCT:
                    return None
                codes[value] = code
            encoded.append(code)
        else:
            return None  # not a pure string column
    if not codes or len(codes) * 2 > len(values):
        return None  # high cardinality (or no strings at all): not worth it
    return tuple(codes), encoded


class SegmentWriter:
    """Freezes rows into immutable segment files inside one directory."""

    def __init__(self, directory: str) -> None:
        self._directory = directory

    def write(
        self,
        filename: str,
        collection: str,
        columns: Sequence[str],
        rows: Sequence[tuple],
    ) -> str:
        """Write one segment atomically (tmp + fsync + rename); returns its path."""
        path = os.path.join(self._directory, filename)
        write_segment(path, collection, columns, rows)
        return path


def write_segment(
    path: str,
    collection: str,
    columns: Sequence[str],
    rows: Sequence[tuple],
    sync_directory: bool = True,
) -> None:
    """Write row tuples as a segment file (see :func:`write_columns`)."""
    columns = tuple(columns)
    series = list(zip(*rows)) if rows and columns else [()] * len(columns)
    write_columns(path, collection, columns, series, len(rows), sync_directory)


def write_columns(
    path: str,
    collection: str,
    columns: Sequence[str],
    series: Sequence[Sequence[object]],
    row_count: int,
    sync_directory: bool = True,
) -> None:
    """Write a segment file atomically: tmp file, fsync, rename, dir fsync.

    ``series`` holds each column's values in row order.  A caller committing
    several segments under one later directory fsync (compaction's manifest
    rename) passes ``sync_directory=False``.
    """
    columns = tuple(columns)
    blocks: list[bytes] = []
    zones: dict[str, object] = {}
    dictionaries: dict[str, tuple[str, ...]] = {}
    offsets: dict[str, tuple[int, int, int]] = {}
    position = 0
    for column, values in zip(columns, series):
        values = tuple(values)
        kind = _scalar_kind(values)
        zone = _zone_for(values, kind)
        if zone is not None:
            zones[column] = zone
        encoded = _dictionary_for(values, kind)
        if encoded is not None:
            dictionary, codes = encoded
            dictionaries[column] = dictionary
            block = encode_value(tuple(codes))
        else:
            block = encode_value(values)
        blocks.append(block)
        offsets[column] = (position, len(block), zlib.crc32(block))
        position += len(block)
    header = encode_value(
        {
            "collection": collection,
            "columns": columns,
            "rows": row_count,
            "zones": zones,
            "dicts": dictionaries,
            "blocks": offsets,
        }
    )
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(_HEADER.pack(len(header), zlib.crc32(header)))
        handle.write(header)
        for block in blocks:
            handle.write(block)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if sync_directory:
        fsync_directory(os.path.dirname(path) or ".")


class SegmentReader:
    """A cursor over one immutable segment file.

    The constructor reads and verifies only the header; column blocks are
    fetched (and CRC-checked) on first use and cached.  :meth:`excluded_by`
    answers zone-map pruning from the header alone.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._cache: dict[str, tuple] = {}
        self._decoded_cache: dict[str, tuple] = {}
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(MAGIC))
                if magic != MAGIC:
                    raise SegmentCorruptError(f"{path}: bad segment magic {magic!r}")
                prefix = handle.read(_HEADER.size)
                if len(prefix) != _HEADER.size:
                    raise SegmentCorruptError(f"{path}: short read in segment header")
                length, crc = _HEADER.unpack(prefix)
                header = handle.read(length)
        except FileNotFoundError as exc:
            raise SegmentCorruptError(f"{path}: segment file missing") from exc
        if len(header) != length or zlib.crc32(header) != crc:
            raise SegmentCorruptError(f"{path}: segment header fails CRC")
        meta = decode_value(header)
        self._data_start = len(MAGIC) + _HEADER.size + length
        self.collection: str = meta["collection"]  # type: ignore[index]
        self.columns: tuple[str, ...] = meta["columns"]  # type: ignore[index]
        self.row_count: int = meta["rows"]  # type: ignore[index]
        self.zones: Mapping[str, Mapping[str, object]] = meta["zones"]  # type: ignore[index]
        self.dictionaries: Mapping[str, tuple[str, ...]] = meta["dicts"]  # type: ignore[index]
        self._blocks: Mapping[str, tuple[int, int, int]] = meta["blocks"]  # type: ignore[index]
        self._column_index = {name: i for i, name in enumerate(self.columns)}
        self._code_lookup: dict[str, dict[str, int]] = {}

    @property
    def path(self) -> str:
        """The segment file's path."""
        return self._path

    # -- zone-map pruning ---------------------------------------------------------
    def excluded_by(self, bounds: Iterable) -> bool:
        """True when some bound provably excludes every row of this segment.

        ``bounds`` are store ``Predicate``s; one with a None literal, or an
        ``in`` whose key set holds None, bounds nothing (``= None`` matches
        nulls, which zone min/max does not describe) and is skipped.  Follows
        the store comparator semantics: ordered comparisons never match
        null-likes, ``=`` and ``in`` never match them for non-None literals,
        ``!=`` always does.
        """
        for bound in bounds:
            op = bound.op
            value = bound.value
            if value is None or (op == "in" and None in value):
                continue
            zone = self.zones.get(bound.column)
            if bound.column not in self._column_index:
                # The column is absent from every row of this segment, so its
                # scan value is None: only "!=" can match.
                if op != "!=":
                    return True
                continue
            if zone is None:
                continue  # unzoneable column: never skip on it
            cls = zone["cls"]
            if cls == "null":
                if op != "!=":
                    return True
                continue
            if op == "in":
                if self._misses_every_key(bound.column, zone, value):
                    return True
                continue
            if isinstance(value, (bool, int, float)):
                vcls = "num"
            elif isinstance(value, str):
                vcls = "str"
            else:
                continue  # non-scalar literal: no pruning
            if vcls != cls:
                if op == "=":
                    return True  # no value of this class can equal the literal
                continue
            lo = zone["lo"]
            hi = zone["hi"]
            if op == "=":
                if value < lo or value > hi:  # type: ignore[operator]
                    return True
                dictionary = self.dictionaries.get(bound.column)
                if dictionary is not None and value not in dictionary:
                    return True
            elif op == "<":
                if lo >= value:  # type: ignore[operator]
                    return True
            elif op == "<=":
                if lo > value:  # type: ignore[operator]
                    return True
            elif op == ">":
                if hi <= value:  # type: ignore[operator]
                    return True
            elif op == ">=":
                if hi < value:  # type: ignore[operator]
                    return True
            elif op == "!=":
                if not zone["nulls"] and lo == hi == value:
                    return True
        return False

    def _misses_every_key(
        self, column: str, zone: Mapping[str, object], keys: Iterable[object]
    ) -> bool:
        """Whether no key of an ``in`` can equal a value of ``column`` here.

        Only keys of the zone's type class can equal its values; one of
        them must lie in ``[lo, hi]`` and, on a dictionary-encoded column,
        in the dictionary.  A NaN or non-scalar key (which may equal a
        value by identity or by a foreign ``__eq__``) prunes nothing.
        """
        cls, lo, hi = zone["cls"], zone["lo"], zone["hi"]
        words = self._lookup(column) if column in self.dictionaries else None
        for key in keys:
            if isinstance(key, (bool, int, float)):
                if key != key:
                    return False
                if cls == "num" and lo <= key <= hi:  # type: ignore[operator]
                    return False
            elif isinstance(key, str):
                in_zone = cls == "str" and lo <= key <= hi  # type: ignore[operator]
                if in_zone and (words is None or key in words):
                    return False
            else:
                return False
        return True

    # -- column access ------------------------------------------------------------
    def _read_block(self, column: str) -> tuple:
        cached = self._cache.get(column)
        if cached is not None:
            return cached
        offset, length, crc = self._blocks[column]
        with open(self._path, "rb") as handle:
            handle.seek(self._data_start + offset)
            payload = handle.read(length)
        if len(payload) != length:
            raise SegmentCorruptError(
                f"{self._path}: short read in column {column!r} "
                f"(wanted {length} bytes, got {len(payload)})"
            )
        if zlib.crc32(payload) != crc:
            raise SegmentCorruptError(f"{self._path}: column {column!r} fails CRC")
        values = decode_value(payload)
        if not isinstance(values, tuple) or len(values) != self.row_count:
            raise SegmentCorruptError(
                f"{self._path}: column {column!r} decoded to the wrong shape"
            )
        self._cache[column] = values
        return values

    def column_values(self, column: str) -> tuple:
        """The decoded values of ``column`` (``ABSENT`` holes preserved).

        A column this segment never saw decodes to all-``ABSENT``.
        """
        cached = self._decoded_cache.get(column)
        if cached is not None:
            return cached
        if column not in self._column_index:
            values: tuple = (ABSENT,) * self.row_count
        else:
            dictionary = self.dictionaries.get(column)
            block = self._read_block(column)
            if dictionary is None:
                values = block
            else:
                decode = (None, ABSENT)  # code -1 -> None, -2 -> ABSENT
                values = tuple(
                    dictionary[code] if code >= 0 else decode[-1 - code] for code in block
                )
        self._decoded_cache[column] = values
        return values

    def _lookup(self, column: str) -> dict[str, int]:
        """Word -> code for dictionary-encoded ``column``."""
        lookup = self._code_lookup.get(column)
        if lookup is None:
            lookup = {word: code for code, word in enumerate(self.dictionaries[column])}
            self._code_lookup[column] = lookup
        return lookup

    def equality_positions(self, column: str, value: object) -> list[int] | None:
        """Row positions where dict-encoded ``column`` equals ``value``.

        Works on the codes without decoding the column; returns None when the
        column is not dictionary-encoded (caller falls back to value scan).
        """
        dictionary = self.dictionaries.get(column)
        if dictionary is None or not isinstance(value, str):
            return None
        code = self._lookup(column).get(value)
        if code is None:
            return []
        codes = self._read_block(column)
        return [position for position, c in enumerate(codes) if c == code]

    # -- cursors ------------------------------------------------------------------
    def rows(self, positions: Sequence[int] | None = None) -> Iterator[tuple]:
        """Full-width tuples in row order (or only the given positions)."""
        columns = [self.column_values(column) for column in self.columns]
        if not columns:  # rows with no column at all (empty documents)
            yield from repeat((), self.row_count if positions is None else len(positions))
        elif positions is None:
            yield from zip(*columns)
        else:
            for position in positions:
                yield tuple(column[position] for column in columns)

    def cursor(
        self,
        columns: Sequence[str] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[RowBatch]:
        """Stream the segment as :class:`RowBatch` es without loading a store.

        ``ABSENT`` holes surface as ``None`` (the scan-boundary semantics of
        ``row.get(column)``).
        """
        wanted = tuple(columns) if columns is not None else self.columns
        series = [
            tuple(None if v is ABSENT else v for v in self.column_values(column))
            for column in wanted
        ]
        total = self.row_count
        start = 0
        while start < total:
            stop = min(start + max(1, batch_size), total)
            rows = [
                tuple(column[position] for column in series)
                for position in range(start, stop)
            ]
            yield RowBatch(wanted, rows)
            start = stop
