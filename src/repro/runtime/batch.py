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
representation: the terminal collection in
:class:`~repro.runtime.engine.ExecutionEngine` converts the final batches
back to bindings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "RowBatch",
    "binding_kernel",
    "probe_kernel",
    "batches_from_bindings",
    "freeze_value",
]

DEFAULT_BATCH_SIZE = 256


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


def _compiled(source: str):
    """Evaluate generated kernel source (positions only: no name reaches it)."""
    return eval(source, {"__builtins__": {"zip": zip}})  # noqa: S307 - integers only


@lru_cache(maxsize=256)
def binding_kernel(positions: tuple[int, ...], arity: int):
    """The ``(rows, *names) -> [binding dict, ...]`` transform of one row shape.

    Each ``arity``-wide row becomes ``{names[0]: row[positions[0]], ...}``,
    so a final projection folds into the dict construction.  A compiled dict
    display (``[{k0: a2, k1: a0} for (a0, a1, a2) in rows]``) builds each
    binding about three times faster than ``dict(zip(...))`` and keeps the
    keys in output order.  The cache key is the shape alone: statements over
    different relations and columns share a kernel.
    """
    keys = ", ".join(f"k{index}" for index in range(len(positions)))
    display = ", ".join(f"k{index}: a{position}" for index, position in enumerate(positions))
    row = "".join(f"a{position}, " for position in range(arity))
    return _compiled(f"lambda rows, {keys}: [{{{display}}} for ({row}) in rows]")


@lru_cache(maxsize=256)
def probe_kernel(picks: tuple[tuple[int, int], ...], checks: tuple[tuple[int, int], ...]):
    """A hash join's ``(left rows, their keys, build.get) -> joined rows`` probe.

    ``picks`` lists each output column as ``(side, position)`` — side 0 reads
    the left row, side 1 the matched build row — and ``checks`` pairs
    (left, right) positions that must also agree.  One comprehension joins a
    whole batch; like :func:`binding_kernel` it is keyed by positions only.
    """
    item = "".join(f"{'lr'[side]}[{position}], " for side, position in picks)
    condition = "".join(f" if l[{left}] == r[{right}]" for left, right in checks)
    return _compiled(
        f"lambda rows, keys, matches: [({item}) for l, k in zip(rows, keys)"
        f" for r in matches(k, ()){condition}]"
    )


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
        cls, bindings: Sequence[Mapping[str, object]], columns: Sequence[str]
    ) -> "RowBatch":
        """Build a batch of ``columns`` from dict rows (absent keys read None)."""
        columns = tuple(columns)
        rows = [tuple(binding.get(column) for column in columns) for binding in bindings]
        return cls(columns, rows)

    # -- inspection -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    # -- conversion -------------------------------------------------------------
    def to_bindings(self) -> list[dict[str, object]]:
        """All rows as binding dicts (the boundary representation)."""
        width = len(self.columns)
        return binding_kernel(tuple(range(width)), width)(self.rows, *self.columns)

    def take(self, n: int) -> "RowBatch":
        """A batch with only the first ``n`` rows."""
        if n >= len(self.rows):
            return self
        return RowBatch(self.columns, self.rows[:n])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<RowBatch {len(self.rows)} rows x {self.columns}>"


def batches_from_bindings(
    bindings: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[RowBatch]:
    """Chunk dict rows into batches of one schema (adapter for materialized sources)."""
    chunk: list[Mapping[str, object]] = []
    for binding in bindings:
        chunk.append(binding)
        if len(chunk) >= batch_size:
            yield RowBatch.from_bindings(chunk, columns)
            chunk = []
    if chunk:
        yield RowBatch.from_bindings(chunk, columns)
