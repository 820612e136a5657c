"""Self-describing binary encoding for segment and WAL payloads.

The durable backing persists exactly the values the simulated stores hold in
memory: JSON-ish trees of ``None`` / ``bool`` / ``int`` / ``float`` / ``str``
/ ``bytes`` / lists / tuples / dicts.  The codec is tag-based so a value
round-trips to the *same* Python type (``True`` never becomes ``1``, a tuple
never becomes a list) — the differential harness compares bags of raw values
and would catch any coercion.

Three deliberate choices:

* **Arbitrary-precision ints.**  Integers are encoded via
  ``int.to_bytes(..., signed=True)`` with a length prefix, so Python's
  unbounded ints survive (hypothesis loves 2**80).
* **Typed column blocks.**  A list or tuple whose items all have one exact
  type — ``int`` within int64, ``float``, ``str`` — is one fixed-width
  little-endian ``struct`` payload instead of one tagged value per item,
  and a list of plain dicts sharing one key order (the rows of a WAL
  ``rows`` record) is its keys once plus one encoded column per key.  The
  bulk of what the durable layer writes is encoded and decoded in C; any
  other sequence keeps the per-value tags, which the decoder still reads.
  No ``marshal`` or ``pickle``: their formats follow the interpreter and
  are not hardened against malformed bytes.
* **The ABSENT sentinel.**  Document stores distinguish "key missing from
  the document" from "key stored with value None"; a columnar segment must
  too, because freezing a collection of ragged documents widens every row to
  the union of top-level keys.  ``ABSENT`` fills the holes on disk and is
  dropped again on reconstruction.  Scans treat it as ``None`` (matching
  ``document.get(column)`` semantics).
"""

from __future__ import annotations

import struct
from itertools import accumulate, islice, repeat
from typing import Iterator

from repro.errors import SegmentCorruptError

__all__ = ["ABSENT", "encode_value", "decode_value", "decode_stream"]


class _Absent:
    """Singleton marking a key absent from a document (not a stored None)."""

    _instance: "_Absent | None" = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<ABSENT>"

    def __reduce__(self):  # keep singleton identity across pickling
        return (_Absent, ())


ABSENT = _Absent()

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_TUPLE = 0x08
_TAG_DICT = 0x09
_TAG_ABSENT = 0x0A
# Typed blocks: tag, a list/tuple flag byte, a u32 item count, then the
# column's items in one fixed-width little-endian payload.
_TAG_INT_BLOCK = 0x0B  # <{n}q
_TAG_FLOAT_BLOCK = 0x0C  # <{n}d
_TAG_STR_BLOCK = 0x0D  # <{n}I code-point lengths, u32 byte length, UTF-8 text
_TAG_ROWS_BLOCK = 0x0E  # the shared keys (one value), then one value per column

_FLAG_LIST = 0
_FLAG_TUPLE = 1

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_BLOCK_HEAD = struct.Struct("<BBI")  # tag, list/tuple flag, item count


def _int_block(items: list | tuple) -> bytes | None:
    try:
        return struct.pack(f"<{len(items)}q", *items)
    except struct.error:  # an int past int64: per-value tags keep it exact
        return None


def _float_block(items: list | tuple) -> bytes:
    return struct.pack(f"<{len(items)}d", *items)


def _str_block(items: list | tuple) -> bytes:
    text = "".join(items).encode("utf-8")
    lengths = struct.pack(f"<{len(items)}I", *map(len, items))
    return lengths + _U32.pack(len(text)) + text


def _encode_sequence(value: list | tuple, out: bytearray) -> None:
    """A list or tuple: one typed block when every item has the same exact
    scalar type (or is a plain dict with the same key order), else one
    tagged value per item."""
    flag = _FLAG_LIST if isinstance(value, list) else _FLAG_TUPLE
    count = len(value)
    if count:
        kinds = set(map(type, value))
        if len(kinds) == 1:
            kind = kinds.pop()
            payload = None
            if kind is int:
                payload, tag = _int_block(value), _TAG_INT_BLOCK
            elif kind is float:
                payload, tag = _float_block(value), _TAG_FLOAT_BLOCK
            elif kind is str:
                payload, tag = _str_block(value), _TAG_STR_BLOCK
            elif kind is dict and _encode_rows(value, flag, out):
                return
            if payload is not None:
                out += _BLOCK_HEAD.pack(tag, flag, count)
                out += payload
                return
    out.append(_TAG_LIST if flag == _FLAG_LIST else _TAG_TUPLE)
    out += _U32.pack(count)
    for item in value:
        _encode(item, out)


def _encode_rows(rows: list | tuple, flag: int, out: bytearray) -> bool:
    """Dicts sharing one non-empty key order as the keys once plus one
    column per key; False (nothing written) when the keys differ."""
    keys = tuple(rows[0])
    if not keys or not all(map(keys.__eq__, map(tuple, rows))):
        return False
    out += _BLOCK_HEAD.pack(_TAG_ROWS_BLOCK, flag, len(rows))
    _encode(keys, out)
    for column in zip(*map(dict.values, rows)):
        _encode(column, out)
    return True


def _encode(value: object, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is ABSENT:
        out.append(_TAG_ABSENT)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        payload = value.to_bytes((value.bit_length() + 8) // 8 or 1, "little", signed=True)
        out.append(_TAG_INT)
        out += _U32.pack(len(payload))
        out += payload
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(payload))
        out += payload
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        _encode_sequence(value, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode(key, out)
            _encode(item, out)
    else:
        raise SegmentCorruptError(
            f"value of type {type(value).__name__!r} is not durable-encodable"
        )


def encode_value(value: object) -> bytes:
    """Encode one value tree to bytes."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def _need(buffer: bytes, offset: int, count: int) -> None:
    if offset + count > len(buffer):
        raise SegmentCorruptError(
            f"short read: wanted {count} bytes at offset {offset}, "
            f"buffer holds {len(buffer)}"
        )


def _decode(buffer: bytes, offset: int) -> tuple[object, int]:
    _need(buffer, offset, 1)
    tag = buffer[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_ABSENT:
        return ABSENT, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        _need(buffer, offset, 4)
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        _need(buffer, offset, length)
        value = int.from_bytes(buffer[offset : offset + length], "little", signed=True)
        return value, offset + length
    if tag == _TAG_FLOAT:
        _need(buffer, offset, 8)
        (value,) = _F64.unpack_from(buffer, offset)
        return value, offset + 8
    if tag == _TAG_STR or tag == _TAG_BYTES:
        _need(buffer, offset, 4)
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        _need(buffer, offset, length)
        payload = buffer[offset : offset + length]
        offset += length
        if tag == _TAG_STR:
            try:
                return payload.decode("utf-8"), offset
            except UnicodeDecodeError as exc:
                raise SegmentCorruptError(f"corrupt utf-8 payload: {exc}") from exc
        return bytes(payload), offset
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        _need(buffer, offset, 4)
        (count,) = _U32.unpack_from(buffer, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode(buffer, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if _TAG_INT_BLOCK <= tag <= _TAG_ROWS_BLOCK:
        _need(buffer, offset, 5)
        flag = buffer[offset]
        (count,) = _U32.unpack_from(buffer, offset + 1)
        offset += 5
        if flag != _FLAG_LIST and flag != _FLAG_TUPLE:
            raise SegmentCorruptError(f"bad list/tuple flag {flag} at offset {offset - 5}")
        items, offset = _BLOCK_DECODERS[tag](buffer, offset, count)
        if flag == _FLAG_LIST:
            return (items if type(items) is list else list(items)), offset
        return tuple(items), offset
    if tag == _TAG_DICT:
        _need(buffer, offset, 4)
        (count,) = _U32.unpack_from(buffer, offset)
        offset += 4
        record: dict = {}
        for _ in range(count):
            key, offset = _decode(buffer, offset)
            item, offset = _decode(buffer, offset)
            record[key] = item
        return record, offset
    raise SegmentCorruptError(f"unknown value tag 0x{tag:02x} at offset {offset - 1}")


def _decode_fixed(code: str):
    def decode(buffer: bytes, offset: int, count: int) -> tuple[tuple, int]:
        size = 8 * count
        _need(buffer, offset, size)
        return struct.unpack_from(f"<{count}{code}", buffer, offset), offset + size

    return decode


def _decode_strs(buffer: bytes, offset: int, count: int) -> tuple[list, int]:
    _need(buffer, offset, 4 * count + 4)
    lengths = struct.unpack_from(f"<{count}I", buffer, offset)
    offset += 4 * count
    (size,) = _U32.unpack_from(buffer, offset)
    offset += 4
    _need(buffer, offset, size)
    try:
        text = str(buffer[offset : offset + size], "utf-8")
    except UnicodeDecodeError as exc:
        raise SegmentCorruptError(f"corrupt utf-8 payload: {exc}") from exc
    bounds = list(accumulate(lengths, initial=0))
    if bounds[-1] != len(text):
        raise SegmentCorruptError(
            f"string block lengths sum to {bounds[-1]}, its text holds {len(text)}"
        )
    return [text[start:stop] for start, stop in zip(bounds, islice(bounds, 1, None))], offset + size


def _decode_rows(buffer: bytes, offset: int, count: int) -> tuple[list, int]:
    keys, offset = _decode(buffer, offset)
    if type(keys) is not tuple or not keys:
        raise SegmentCorruptError(f"row block keys decoded to {type(keys).__name__}")
    columns = []
    for _ in keys:
        column, offset = _decode(buffer, offset)
        if not isinstance(column, (list, tuple)) or len(column) != count:
            raise SegmentCorruptError("row block column decoded to the wrong shape")
        columns.append(column)
    try:
        rows = list(map(dict, map(zip, repeat(keys), zip(*columns))))
    except TypeError as exc:  # an unhashable key
        raise SegmentCorruptError(f"corrupt row block keys: {exc}") from exc
    return rows, offset


_BLOCK_DECODERS = {
    _TAG_INT_BLOCK: _decode_fixed("q"),
    _TAG_FLOAT_BLOCK: _decode_fixed("d"),
    _TAG_STR_BLOCK: _decode_strs,
    _TAG_ROWS_BLOCK: _decode_rows,
}


def decode_value(buffer: bytes) -> object:
    """Decode one value tree; the buffer must hold exactly one value."""
    value, offset = _decode(buffer, 0)
    if offset != len(buffer):
        raise SegmentCorruptError(
            f"trailing garbage: {len(buffer) - offset} bytes after value"
        )
    return value


def decode_stream(buffer: bytes) -> Iterator[object]:
    """Decode values back-to-back until the buffer is exhausted."""
    offset = 0
    while offset < len(buffer):
        value, offset = _decode(buffer, offset)
        yield value
