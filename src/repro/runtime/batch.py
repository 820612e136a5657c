"""Column-oriented row batches: the unit of data flow of the streaming runtime.

The execution engine is batch-at-a-time: every operator produces an iterator
of :class:`RowBatch` objects instead of one fully materialized list of
per-row dictionaries.  A batch holds a *schema* (the tuple of column names,
shared by every row of the batch) plus plain Python tuples, one per row,
aligned with the schema.  Compared to per-row dicts this removes one dict
allocation and one hash probe per column per row on the hot path, and lets
operators resolve column positions once per batch instead of once per row.

The stores themselves produce :class:`RowBatch` streams
(:meth:`repro.stores.base.Store.execute_batches`), so tuples flow end-to-end
through a query.  Bindings (``dict[str, object]``) are the *boundary*
representation: bind-join probes return dict rows and hand request factories
a dict view of the left row, and the terminal collection in
:class:`~repro.runtime.engine.ExecutionEngine` converts the final batches
back to bindings.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "default_batch_size",
    "RowBatch",
    "binding_kernel",
    "BatchBuilder",
    "batches_from_bindings",
    "freeze_value",
]

DEFAULT_BATCH_SIZE = 256


def default_batch_size() -> int:
    """The process-wide default batch size (``REPRO_BATCH_SIZE``, else 256).

    An unparseable value falls back to the default; an explicit value below 1
    is a configuration error and raises — a zero/negative batch size would
    silently stall every stream.
    """
    raw = os.environ.get("REPRO_BATCH_SIZE", "").strip()
    if not raw:
        return DEFAULT_BATCH_SIZE
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_BATCH_SIZE
    if value < 1:
        raise ValueError(f"REPRO_BATCH_SIZE must be >= 1, got {value}")
    return value


_SCALAR_TYPES = frozenset((str, int, float, bool, bytes, type(None)))


class _FrozenItems(tuple):
    """An already-frozen dict payload (sorted key/value pairs).

    Tagging the tuple lets :func:`freeze_value` return it unchanged when the
    same payload is frozen again — hash-join and deduplication keys over
    nested values are built repeatedly from the same rows, and re-sorting an
    already-canonical payload on every call was pure waste.
    """

    __slots__ = ()


def freeze_value(value: object) -> object:
    """A hashable stand-in for ``value`` (lists/dicts become nested tuples)."""
    if value.__class__ in _SCALAR_TYPES:
        # The overwhelmingly common case: plain scalars are already hashable.
        return value
    if isinstance(value, _FrozenItems):
        return value
    if isinstance(value, dict):
        return _FrozenItems(sorted((k, freeze_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(v) for v in value)
    if isinstance(value, set):
        return frozenset(freeze_value(v) for v in value)
    return value


@lru_cache(maxsize=256)
def binding_kernel(columns: tuple[str, ...]):
    """The ``rows -> [binding dict, ...]`` transform of one schema, built once.

    A compiled dict display (``[{'uid': a0, 'val': a1} for a0, a1 in rows]``)
    builds each binding about three times faster than ``dict(zip(...))`` and
    keeps the keys in schema order.  Column names enter the generated source
    only through ``repr()``; the row variables are positional.
    """
    if not columns:
        return lambda rows: [{} for _ in rows]
    names = [f"a{position}" for position in range(len(columns))]
    display = ", ".join(f"{column!r}: {name}" for column, name in zip(columns, names))
    source = f"lambda rows: [{{{display}}} for ({', '.join(names)},) in rows]"
    return eval(source, {"__builtins__": {}})  # noqa: S307 - names are repr()-quoted


class RowBatch:
    """A batch of rows sharing one schema.

    ``columns`` is the schema; ``rows`` is a list of tuples aligned with it.
    Batches are treated as immutable by the operators: transformations build
    new batches rather than mutating in place.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: list[tuple]) -> None:
        self.columns = tuple(columns)
        self.rows = rows

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_bindings(
        cls, bindings: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None
    ) -> "RowBatch":
        """Build a batch from dict rows (schema = union of keys unless given)."""
        if columns is None:
            seen: dict[str, None] = {}
            for binding in bindings:
                for key in binding:
                    seen.setdefault(key, None)
            columns = tuple(seen)
        else:
            columns = tuple(columns)
        rows = [tuple(binding.get(column) for column in columns) for binding in bindings]
        return cls(columns, rows)

    # -- inspection -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column_index(self, name: str) -> int:
        """Position of ``name`` in the schema (raises ValueError when absent)."""
        return self.columns.index(name)

    def indexer(self, wanted: Sequence[str]) -> list[int | None]:
        """Positions of ``wanted`` columns (None for columns not in the schema)."""
        positions: list[int | None] = []
        for name in wanted:
            try:
                positions.append(self.columns.index(name))
            except ValueError:
                positions.append(None)
        return positions

    # -- conversion -------------------------------------------------------------
    def to_bindings(self) -> list[dict[str, object]]:
        """All rows as binding dicts (the boundary representation)."""
        return binding_kernel(self.columns)(self.rows)

    def take(self, n: int) -> "RowBatch":
        """A batch with only the first ``n`` rows."""
        if n >= len(self.rows):
            return self
        return RowBatch(self.columns, self.rows[:n])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<RowBatch {len(self.rows)} rows x {self.columns}>"


class BatchBuilder:
    """Accumulates tuple rows for one schema, emitting full batches."""

    __slots__ = ("columns", "batch_size", "_rows")

    def __init__(self, columns: Sequence[str], batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.columns = tuple(columns)
        self.batch_size = max(1, batch_size)
        self._rows: list[tuple] = []

    def add(self, row: tuple) -> RowBatch | None:
        """Add one row; returns a full batch when the size threshold is hit."""
        self._rows.append(row)
        if len(self._rows) >= self.batch_size:
            return self.flush()
        return None

    def flush(self) -> RowBatch | None:
        """The pending rows as a (possibly short) batch, or None when empty."""
        if not self._rows:
            return None
        batch = RowBatch(self.columns, self._rows)
        self._rows = []
        return batch

    def __len__(self) -> int:
        return len(self._rows)


def batches_from_bindings(
    bindings: Iterable[Mapping[str, object]],
    batch_size: int = DEFAULT_BATCH_SIZE,
    columns: Sequence[str] | None = None,
) -> Iterator[RowBatch]:
    """Chunk dict rows into batches (adapter for materialized sources)."""
    chunk: list[Mapping[str, object]] = []
    for binding in bindings:
        chunk.append(binding)
        if len(chunk) >= batch_size:
            yield RowBatch.from_bindings(chunk, columns)
            chunk = []
    if chunk:
        yield RowBatch.from_bindings(chunk, columns)
