"""Durable columnar segment engine: WAL, segment files, store backing.

See :mod:`repro.stores.segment.backing` for the full design narrative.
"""

from repro.stores.segment.backing import (
    DEFAULT_SEGMENT_ROWS,
    DurableBacking,
    default_segment_rows,
    write_group,
)
from repro.stores.segment.codec import ABSENT, decode_value, encode_value
from repro.stores.segment.segments import SegmentReader, SegmentWriter, write_segment
from repro.stores.segment.wal import WriteAheadLog, frame_offsets, replay

__all__ = [
    "ABSENT",
    "DEFAULT_SEGMENT_ROWS",
    "DurableBacking",
    "SegmentReader",
    "SegmentWriter",
    "WriteAheadLog",
    "decode_value",
    "default_segment_rows",
    "encode_value",
    "frame_offsets",
    "replay",
    "write_group",
    "write_segment",
]
