"""Shard routing: the stable hash and the per-collection sharding spec.

Horizontal sharding spreads one logical collection over N homogeneous store
instances.  Everything that must agree on *which* shard a value lives in —
the :class:`~repro.stores.sharded.ShardedStore` router, the materialization
path, the planner's shard pruning and the cost model — goes through the
:class:`ShardingSpec` defined here, so routing is computed in exactly one
place.

Routing is **stable across processes**: Python's builtin ``hash`` is salted
per process (``PYTHONHASHSEED``), so a partition assignment computed with it
is not reproducible from one run to the next.  :func:`stable_hash` instead
hashes a canonical text encoding of the value with CRC-32, making shard (and
parallel-store partition) placement, per-shard statistics and benchmark
numbers deterministic.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.errors import StoreError

__all__ = ["stable_hash", "ShardingSpec"]

_RANGE_OPS = {"<", "<=", ">", ">=", "="}


def stable_hash(value: object) -> int:
    """A process-independent 32-bit hash of ``value``.

    Follows ``==``-equivalence the way the builtin ``hash`` does: ``1``,
    ``1.0`` and ``True`` hash alike.  This is load-bearing for sharding —
    store predicates compare with ``==``, so a query constant of a different
    numeric type than the stored key must still route to the shard holding
    the row, or pruning would silently lose answers.  Values of genuinely
    distinct kinds stay apart via a type tag in the encoding (``5`` never
    collides with ``"5"`` by accident of its ``repr``).
    """
    if isinstance(value, bool):
        value = int(value)
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    encoded = f"{type(value).__name__}:{value!r}".encode("utf-8", errors="replace")
    return zlib.crc32(encoded)


@dataclass(frozen=True, slots=True)
class ShardingSpec:
    """How one collection is spread over ``shards`` store instances.

    ``shard_key`` names the routing column (a view column on catalog
    descriptors; the materialization path translates it to the store-side
    name before handing the spec to the router).  ``strategy`` is ``"hash"``
    (stable hash modulo ``shards``) or ``"range"`` (``boundaries`` holds the
    ``shards - 1`` ascending split points; shard *i* covers values in
    ``[boundaries[i-1], boundaries[i])``).
    """

    shard_key: str
    shards: int
    strategy: str = "hash"
    boundaries: tuple = field(default=())

    def __post_init__(self) -> None:
        if not self.shard_key:
            raise StoreError("sharding needs a non-empty shard key column")
        if self.shards < 1:
            raise StoreError("sharding needs at least one shard")
        if self.strategy not in {"hash", "range"}:
            raise StoreError(f"unknown sharding strategy {self.strategy!r}")
        if self.strategy == "range" and len(self.boundaries) != self.shards - 1:
            raise StoreError(
                f"range sharding over {self.shards} shards needs exactly "
                f"{self.shards - 1} boundaries, got {len(self.boundaries)}"
            )

    # -- routing -------------------------------------------------------------------
    def route(self, value: object) -> int:
        """The shard holding rows whose shard-key column equals ``value``."""
        if self.strategy == "hash":
            return stable_hash(value) % self.shards
        try:
            return bisect_right(self.boundaries, value)
        except TypeError:
            # Not comparable with the boundaries (e.g. None): park in shard 0.
            return 0

    def all_shards(self) -> tuple[int, ...]:
        """Every shard index, in order."""
        return tuple(range(self.shards))

    def shards_for_predicate(self, op: str, value: object) -> tuple[int, ...]:
        """The shards that can hold rows satisfying ``shard_key <op> value``.

        Equality prunes to one shard under either strategy, and ``in`` to the
        shards its keys route to; range operators prune only under range
        sharding (a hash scatters adjacent values).  Unknown operators and
        uncomparable values fall back to all shards — pruning must never
        lose rows.
        """
        if op == "=":
            return (self.route(value),)
        if op == "in":
            return tuple(sorted({self.route(key) for key in value}))
        if self.strategy != "range" or op not in _RANGE_OPS:
            return self.all_shards()
        try:
            # Shards are value-ordered under range sharding: every row
            # matching ``< value`` / ``<= value`` lives at or before the shard
            # holding ``value`` itself, and symmetrically for ``>`` / ``>=``.
            # (Not route(): that maps uncomparable values to shard 0, which
            # here must mean "cannot prune", not "prune to shard 0".)
            pivot = bisect_right(self.boundaries, value)
        except TypeError:
            return self.all_shards()
        if op in ("<", "<="):
            return tuple(range(0, pivot + 1))
        return tuple(range(pivot, self.shards))

    def shards_for_predicates(
        self, constraints: Iterable[tuple[str, object]]
    ) -> tuple[int, ...]:
        """Intersect the shard sets of several ``(op, value)`` constraints."""
        candidates = set(self.all_shards())
        for op, value in constraints:
            candidates &= set(self.shards_for_predicate(op, value))
            if not candidates:
                break
        return tuple(sorted(candidates))

    def renamed(self, shard_key: str) -> "ShardingSpec":
        """The same spec routing on a different column name (view → store)."""
        if shard_key == self.shard_key:
            return self
        return replace(self, shard_key=shard_key)

    def describe(self) -> dict[str, object]:
        """JSON-friendly summary (catalog introspection, facade config)."""
        info: dict[str, object] = {
            "shard_key": self.shard_key,
            "shards": self.shards,
            "strategy": self.strategy,
        }
        if self.strategy == "range":
            info["boundaries"] = list(self.boundaries)
        return info
