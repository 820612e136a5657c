"""Bounded memoization caches for the rewriting engine.

The PACB backchase repeats the same expensive sub-computations many times:
chasing the canonical instance of a candidate with the same constraint set,
and checking containment between alpha-equivalent candidate/query pairs.
This module provides the small, bounded LRU caches those call sites share,
plus a global registry so benchmarks can report hit rates and tests can
reset state.  Homomorphism search itself is not memoized, but compiling it
is: ``chase_programs`` (:mod:`repro.core.chase`) holds the templates of
constraint bodies, heads and EGD bodies, keyed by their ordered atoms and
bound variables.  No memo holds an index: a template is positions and
getters only, and a chase result keeps its facts, not its index.

Soundness of the keys rests on two facts:

* :func:`repro.core.query.freeze_atoms` uses a *per-call* counter, so the
  same query body always freezes to the identical canonical instance —
  frozen fact sets are therefore stable cache keys;
* a :class:`~repro.core.constraints.ConstraintSet`, which is mutable, is
  keyed by its globally monotonic *mutation token*, never by content, so a
  set that changed (or a new set that happens to have equal content) can
  never alias a stale entry.

Memoization is always on; a *cold* run is one after :func:`clear_memos`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

__all__ = ["LRUMemo", "memo_stats", "clear_memos", "register_memo"]

_MISSING = object()


class LRUMemo:
    """A small bounded least-recently-used cache with hit/miss counters."""

    __slots__ = ("name", "max_entries", "_entries", "hits", "misses", "evictions")

    def __init__(self, name: str, max_entries: int = 4096) -> None:
        self.name = name
        self.max_entries = max_entries
        self._entries: OrderedDict[object, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        register_memo(self)

    def get(self, key: object) -> object:
        """Return the cached value for ``key`` or the module sentinel."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return _MISSING
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: object, value: object) -> None:
        """Insert ``key -> value``, evicting the least recently used entry."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(self, key: object, compute: Callable[[], object]) -> object:
        """Cached lookup with fallback computation (exceptions are not cached)."""
        value = self.get(key)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    @property
    def missing(self) -> object:
        """The sentinel returned by :meth:`get` on a miss."""
        return _MISSING

    def clear(self) -> None:
        """Drop all entries and reset counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Counters for telemetry: size, hits, misses, evictions."""
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_REGISTRY: list[LRUMemo] = []


def register_memo(memo: LRUMemo) -> None:
    """Track a memo in the global registry (for stats and reset)."""
    _REGISTRY.append(memo)


def memo_stats() -> dict[str, dict[str, int]]:
    """Stats of every registered memo, keyed by memo name."""
    return {memo.name: memo.stats() for memo in _REGISTRY}


def clear_memos() -> None:
    """Reset every registered memo (used by tests and benchmarks)."""
    for memo in _REGISTRY:
        memo.clear()
