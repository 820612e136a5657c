"""The append-only write-ahead log: CRC-framed, fsync'd records.

Frame layout (little-endian)::

    +----------------+----------------+------------------+
    | payload length |  CRC32(payload)|  payload (codec) |
    |    4 bytes     |     4 bytes    |  `length` bytes  |
    +----------------+----------------+------------------+

Each payload is one codec-encoded dict record (``{"kind": ..., ...}``).
Appends write the frame, flush, then ``os.fsync`` — a record is durable the
moment :meth:`WriteAheadLog.append` returns.

Recovery (:func:`replay`) decodes frames front-to-back and stops at the
first frame that is torn (runs past end-of-file) or fails its CRC — but only
if that frame is the **last** thing in the file, which is what a crash
mid-append produces.  A bad frame *followed by more bytes* means real
corruption and raises :class:`~repro.errors.WalCorruptionError`: replaying
past it could resurrect a state that never existed.

A ``crash_hook`` callable can be installed to model crashes inside the
append/fsync window; the disk fault injector in ``testing/faults.py`` uses
it to raise :class:`~repro.errors.SimulatedCrashError` at seeded points.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Callable, Iterable, Mapping

from repro.errors import WalCorruptionError
from repro.stores.segment.codec import decode_value, encode_value

__all__ = ["WriteAheadLog", "replay", "frame_offsets"]

_HEADER = struct.Struct("<II")


def _scan_frames(data: bytes) -> tuple[list[tuple[int, bytes]], int]:
    """(offset, payload) for every valid frame, plus the valid-prefix length.

    Tolerates a torn/corrupt *final* frame (dropped); raises
    :class:`WalCorruptionError` for corruption before the tail.
    """
    frames: list[tuple[int, bytes]] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            break  # torn header at the tail
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > size:
            break  # torn payload at the tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            if end < size:
                raise WalCorruptionError(
                    f"WAL frame at offset {offset} fails CRC with "
                    f"{size - end} bytes following it"
                )
            break  # corrupt final frame: the classic torn write
        frames.append((offset, bytes(payload)))
        offset = end
    return frames, offset


def replay(path: str) -> list[Mapping[str, object]]:
    """Decode the valid record prefix of the WAL at ``path`` (may be absent)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return []
    frames, _ = _scan_frames(data)
    return [decode_value(payload) for _, payload in frames]  # type: ignore[misc]


def frame_offsets(path: str) -> list[int]:
    """Byte offset of every valid frame (for crash-point enumeration)."""
    with open(path, "rb") as handle:
        data = handle.read()
    frames, valid_length = _scan_frames(data)
    return [offset for offset, _ in frames] + [valid_length]


class WriteAheadLog:
    """One open WAL file; appends are CRC-framed and fsync'd.

    Opening an existing file truncates any torn tail (the crash artefact
    recovery already skipped) so new appends extend a clean prefix.
    """

    def __init__(
        self,
        path: str,
        *,
        sync: bool = True,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        self._path = path
        self._sync = sync
        self.crash_hook = crash_hook
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        frames, valid_length = _scan_frames(data)
        self._records = len(frames)
        self._handle = open(path, "ab")
        if valid_length != len(data):
            self._handle.truncate(valid_length)

    @property
    def path(self) -> str:
        """The log file's path."""
        return self._path

    @property
    def record_count(self) -> int:
        """Records durably in the log."""
        return self._records

    def append(self, record: Mapping[str, object]) -> int:
        """Append one record, fsync, and return its index."""
        payload = encode_value(dict(record))
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if self.crash_hook is not None:
            self.crash_hook("pre_write")
        self._handle.write(frame)
        self._handle.flush()
        if self.crash_hook is not None:
            self.crash_hook("pre_sync")
        if self._sync:
            os.fsync(self._handle.fileno())
        if self.crash_hook is not None:
            self.crash_hook("post_sync")
        index = self._records
        self._records += 1
        return index

    def append_many(self, records: Iterable[Mapping[str, object]]) -> int:
        """Append several records in order; returns how many."""
        count = 0
        for record in records:
            self.append(record)
            count += 1
        return count

    def close(self) -> None:
        """Close the file handle (the log stays valid on disk)."""
        if not self._handle.closed:
            self._handle.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<WriteAheadLog {self._path!r} records={self._records}>"
