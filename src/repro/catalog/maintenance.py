"""Incremental maintenance of materialized fragments under DML.

When a write hits a base relation, every fragment whose defining query
mentions that relation goes stale.  Instead of re-materializing each one
from scratch, the :class:`MaintenanceEngine` keeps a bag-semantics shadow of
the base relations, pushes each write through the fragments' defining
queries with the select/project/join delta rules of
:mod:`repro.core.deltas`, and logs the resulting *view deltas* — typically a
handful of rows — in a per-fragment pending queue.  Applying a pending
delta touches only those rows in the fragment's store, so maintenance cost
scales with the size of the change, not the size of the fragment.

The engine separates *propagation* (computing view deltas at write time;
cheap, always done) from *application* (writing them into the stores; done
eagerly by the facade's default write policy, lazily under ``deferred``, or
forced by a read with ``max_staleness=0``).  Staleness accounting lives in
the :class:`~repro.catalog.statistics.StatisticsCatalog`, so the cost model
can price a stale copy against a fresh one.

Failure semantics are all-or-nothing per pending delta: a store error (or a
cancelled maintenance pass) leaves the remaining entries queued and the
staleness counters standing, so the fragment is *detectably* stale, never
silently wrong.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.catalog.descriptors import StorageDescriptor
from repro.catalog.manager import StorageDescriptorManager
from repro.catalog.statistics import StatisticsCatalog
from repro.core.deltas import BagIndex, delta_evaluate, evaluate
from repro.core.query import ConjunctiveQuery
from repro.errors import (
    DeltaError,
    MaintenanceCancelledError,
    MaintenanceError,
    StoreError,
    WriteError,
)

__all__ = ["PendingDelta", "MaintenanceEngine"]


@dataclass(frozen=True, slots=True)
class PendingDelta:
    """One logged, still-pending view delta of a fragment.

    ``delta`` maps view-row tuples (in view column order) to signed counts:
    positive counts are rows maintenance will insert, negative counts rows
    it will delete.  ``seq`` is the global write sequence number of the
    producing write.
    """

    seq: int
    fragment: str
    delta: Mapping[tuple, int]

    @property
    def row_volume(self) -> int:
        """Unsigned row volume (the work applying this delta will do)."""
        return sum(abs(count) for count in self.delta.values())


@dataclass(slots=True)
class _WatchedFragment:
    """Maintenance state of one fragment: its definition and pending queue."""

    descriptor: StorageDescriptor
    definition: ConjunctiveQuery
    view_columns: tuple[str, ...]
    relations: frozenset[str]
    pending: list[PendingDelta]


class MaintenanceEngine:
    """Propagates base-relation writes into materialized fragments.

    The engine shadows each writable base relation as a bag of row tuples
    (with hash indexes reused across writes), computes fragment view deltas
    at write time, and applies them on demand.  All public methods are
    thread-safe behind one reentrant lock — writes and maintenance are
    serialized, mirroring a single-writer log.
    """

    def __init__(
        self, manager: StorageDescriptorManager, statistics: StatisticsCatalog
    ) -> None:
        self._manager = manager
        self._statistics = statistics
        self._lock = threading.RLock()
        self._columns: dict[str, tuple[str, ...]] = {}
        self._bags: dict[str, BagIndex] = {}
        self._fragments: dict[str, _WatchedFragment] = {}
        self._next_seq = 0

    # -- base relations ----------------------------------------------------------------
    def register_relation(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Mapping[str, object]] = (),
    ) -> None:
        """Start shadowing base relation ``name`` with the given initial rows."""
        with self._lock:
            order = tuple(columns)
            self._columns[name] = order
            self._bags[name] = BagIndex(
                Counter(tuple(row.get(column) for column in order) for row in rows)
            )

    def has_relation(self, name: str) -> bool:
        """Whether ``name`` is a shadowed (writable) base relation."""
        with self._lock:
            return name in self._bags

    def relation_columns(self, name: str) -> tuple[str, ...]:
        """Column order of a shadowed relation."""
        with self._lock:
            order = self._columns.get(name)
        if order is None:
            raise MaintenanceError(f"relation {name!r} is not registered for writes")
        return order

    def relation_rows(self, name: str) -> list[dict[str, object]]:
        """The shadowed relation's current rows (bag order unspecified)."""
        with self._lock:
            order = self.relation_columns(name)
            bag = self._bags[name].rows
            rows: list[dict[str, object]] = []
            for row, count in bag.items():
                rows.extend(dict(zip(order, row)) for _ in range(count))
            return rows

    # -- fragments ---------------------------------------------------------------------
    def watch_fragment(self, descriptor: StorageDescriptor) -> bool:
        """Start maintaining ``descriptor`` if all its base relations are shadowed.

        Returns False (and leaves the fragment unmanaged) when the defining
        query reads a relation the engine does not shadow — such fragments
        can only be refreshed by re-registration.
        """
        definition = descriptor.view.definition
        relations = frozenset(definition.relations())
        with self._lock:
            if not relations <= set(self._bags):
                return False
            self._fragments[descriptor.fragment_name] = _WatchedFragment(
                descriptor=descriptor,
                definition=definition,
                view_columns=descriptor.view_columns(),
                relations=relations,
                pending=[],
            )
            return True

    @property
    def lock(self) -> threading.RLock:
        """The engine's reentrant lock.

        Live migration holds it across the cutover steps (drain, descriptor
        swap, shadow promotion) so no write can slip between them; acquire it
        *before* any facade planning lock, matching the write path's order.
        """
        return self._lock

    def watch_shadow(
        self, descriptor: StorageDescriptor, chunk_rows: int = 256
    ) -> bool:
        """Start maintaining a *shadow* placement for live migration.

        Unlike :meth:`watch_fragment` — whose store already holds the view —
        the shadow's target collection starts empty: the view's current
        contents are queued as chunked *backfill* deltas ahead of any
        dual-written view deltas.  From this call on, every base write fans
        its view delta to the shadow exactly as to the live placement;
        :meth:`maintain` then streams backfill chunks and queued writes in
        order.  Cancelling mid-backfill leaves the shadow detectably stale
        (its counters stand) and the live placement untouched.  Returns
        False when a base relation is not shadowed.
        """
        definition = descriptor.view.definition
        relations = frozenset(definition.relations())
        with self._lock:
            if not relations <= set(self._bags):
                return False
            name = descriptor.fragment_name
            if name in self._fragments:
                raise MaintenanceError(f"fragment {name!r} is already watched")
            content = evaluate(definition, self._bags)
            pending: list[PendingDelta] = []
            chunk: dict[tuple, int] = {}
            volume = 0
            for row, count in content.items():
                chunk[row] = count
                volume += abs(count)
                if volume >= max(1, chunk_rows):
                    pending.append(PendingDelta(seq=self._next_seq, fragment=name, delta=chunk))
                    chunk = {}
                    volume = 0
            if chunk:
                pending.append(PendingDelta(seq=self._next_seq, fragment=name, delta=chunk))
            self._fragments[name] = _WatchedFragment(
                descriptor=descriptor,
                definition=definition,
                view_columns=descriptor.view_columns(),
                relations=relations,
                pending=pending,
            )
            for entry in pending:
                self._statistics.note_pending_delta(name, entry.row_volume, entry.seq)
            return True

    def promote_shadow(self, shadow: str, descriptor: StorageDescriptor) -> None:
        """Cutover bookkeeping: the shadow becomes the fragment's live watch.

        The shadow's residual pending deltas carry over to
        ``descriptor.fragment_name``, replacing the old placement's watch;
        staleness counters are re-keyed accordingly.
        The caller holds :attr:`lock` across the catalog swap and this call
        so no write lands in between.
        """
        with self._lock:
            watched = self._fragments.pop(shadow, None)
            if watched is None:
                raise MaintenanceError(f"shadow fragment {shadow!r} is not watched")
            name = descriptor.fragment_name
            definition = descriptor.view.definition
            pending = [
                PendingDelta(seq=entry.seq, fragment=name, delta=entry.delta)
                for entry in watched.pending
            ]
            self._fragments[name] = _WatchedFragment(
                descriptor=descriptor,
                definition=definition,
                view_columns=descriptor.view_columns(),
                relations=frozenset(definition.relations()),
                pending=pending,
            )
            self._statistics.clear_staleness(shadow)
            self._statistics.clear_staleness(name)
            for entry in pending:
                self._statistics.note_pending_delta(name, entry.row_volume, entry.seq)

    def unwatch_fragment(self, name: str) -> None:
        """Stop maintaining a fragment (dropped or re-registered)."""
        with self._lock:
            self._fragments.pop(name, None)

    def watched_fragments(self) -> tuple[str, ...]:
        """Names of the fragments under incremental maintenance."""
        with self._lock:
            return tuple(sorted(self._fragments))

    def compute_fragment_rows(
        self, descriptor: StorageDescriptor
    ) -> list[dict[str, object]]:
        """Evaluate a fragment's definition over the shadowed base state.

        Used to materialize fragments registered *after* data was loaded, so
        the store contents agree exactly (bag semantics) with what the delta
        rules will maintain.
        """
        with self._lock:
            result = evaluate(descriptor.view.definition, self._bags)
            columns = descriptor.view_columns()
            rows: list[dict[str, object]] = []
            for row, count in result.items():
                rows.extend(dict(zip(columns, row)) for _ in range(count))
            return rows

    def pending(self, fragment: str) -> tuple[PendingDelta, ...]:
        """The fragment's queued view deltas, oldest first."""
        with self._lock:
            watched = self._fragments.get(fragment)
            return tuple(watched.pending) if watched else ()

    def stale_fragments(self) -> tuple[str, ...]:
        """Fragments with at least one pending delta."""
        with self._lock:
            return tuple(
                sorted(name for name, w in self._fragments.items() if w.pending)
            )

    # -- the write path ----------------------------------------------------------------
    def apply_write(
        self,
        relation: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> tuple[int, tuple[str, ...]]:
        """Apply one write to the shadowed base state and log fragment deltas.

        Computes each affected fragment's view delta against the *old* base
        state (the delta rules' contract), appends it to the fragment's
        pending queue, then advances the base bags.  Returns the write's
        global sequence number and the fragments whose queues grew.  Raises
        :class:`DeltaError` when a delete matches no stored row — the base
        write is then refused outright.
        """
        with self._lock:
            order = self.relation_columns(relation)
            delta: Counter = Counter()
            for row in inserts:
                delta[tuple(row.get(column) for column in order)] += 1
            for row in deletes:
                delta[tuple(row.get(column) for column in order)] -= 1
            delta = Counter({row: count for row, count in delta.items() if count})
            base = self._bags[relation]
            # Refuse deletes of absent rows before anything is logged.
            for row, count in delta.items():
                if base.rows[row] + count < 0:
                    raise DeltaError(
                        f"relation {relation!r}: delete of {dict(zip(order, row))!r} "
                        "matches no stored row"
                    )
            self._next_seq += 1
            seq = self._next_seq
            self._statistics.note_write_seq(seq)
            affected: list[str] = []
            if delta:
                for watched in self._fragments.values():
                    if relation not in watched.relations:
                        continue
                    view_delta = delta_evaluate(
                        watched.definition, self._bags, {relation: delta}
                    )
                    if not view_delta:
                        continue
                    entry = PendingDelta(
                        seq=seq,
                        fragment=watched.descriptor.fragment_name,
                        delta=dict(view_delta),
                    )
                    watched.pending.append(entry)
                    affected.append(entry.fragment)
                    self._statistics.note_pending_delta(
                        entry.fragment, entry.row_volume, seq
                    )
                base.update(delta)
            return seq, tuple(affected)

    # -- maintenance -------------------------------------------------------------------
    def maintain(
        self,
        fragment: str | None = None,
        cancel: threading.Event | None = None,
    ) -> int:
        """Apply pending deltas (one fragment, or every stale fragment).

        Returns the number of store rows written.  Each pending delta
        lands all-or-nothing; a store failure or a set ``cancel`` event
        leaves the remaining entries queued (and counted as staleness) and
        raises — :class:`MaintenanceCancelledError` for cancellation, the
        store's own typed error otherwise.
        """
        with self._lock:
            targets = [fragment] if fragment is not None else list(self.stale_fragments())
            written = 0
            for name in targets:
                watched = self._fragments.get(name)
                if watched is None:
                    raise MaintenanceError(f"fragment {name!r} is not under maintenance")
                written += self._maintain_fragment(watched, cancel)
            return written

    def _maintain_fragment(
        self, watched: _WatchedFragment, cancel: threading.Event | None
    ) -> int:
        if not watched.pending:
            return 0
        descriptor = watched.descriptor
        store = self._manager.store(descriptor.store)
        collection = descriptor.layout.collection
        written = 0
        while watched.pending:
            if cancel is not None and cancel.is_set():
                self._restate_staleness(watched)
                raise MaintenanceCancelledError(
                    f"maintenance of fragment {descriptor.fragment_name!r} cancelled "
                    f"with {len(watched.pending)} delta(s) still pending"
                )
            entry = watched.pending[0]
            inserts, deletes = self._store_delta(watched, entry.delta)
            try:
                written += store.apply_delta(collection, inserts=inserts, deletes=deletes)
            except (StoreError, WriteError, DeltaError):
                # The entry stays queued: the fragment is detectably stale.
                self._restate_staleness(watched)
                raise
            watched.pending.pop(0)
        self._finish_fragment(watched)
        return written

    def _store_delta(
        self, watched: _WatchedFragment, delta: Mapping[tuple, int]
    ) -> tuple[list[dict[str, object]], list[dict[str, object]]]:
        """Expand a signed view delta into store-side insert/delete rows."""
        layout = watched.descriptor.layout
        store_columns = [layout.store_column(column) for column in watched.view_columns]
        inserts: list[dict[str, object]] = []
        deletes: list[dict[str, object]] = []
        for row, count in delta.items():
            record = dict(zip(store_columns, row))
            target = inserts if count > 0 else deletes
            target.extend(dict(record) for _ in range(abs(count)))
        return inserts, deletes

    def _finish_fragment(self, watched: _WatchedFragment) -> None:
        """Post-apply bookkeeping: the fragment is fresh, its stats changed."""
        self._statistics.note_data_write(watched.descriptor.fragment_name)

    def _restate_staleness(self, watched: _WatchedFragment) -> None:
        """Re-derive the staleness counters from the surviving queue."""
        name = watched.descriptor.fragment_name
        self._statistics.clear_staleness(name)
        for entry in watched.pending:
            self._statistics.note_pending_delta(name, entry.row_volume, entry.seq)

    # -- durable compaction ------------------------------------------------------------
    def compact_durable(self, stores: Mapping[str, "object"]) -> Mapping[str, object]:
        """Fold every durable store's WAL tail into fresh segments.

        One explicit compaction pass over ``stores`` (name → store), under
        the maintenance lock so no delta application interleaves with the
        generation swap.  Stores without a durable backing report nothing.
        The *write* path needs no equivalent here: each store's
        ``apply_delta`` already appends its delta records to the WAL as the
        delta lands, so compaction only ever folds, never catches up.
        """
        reports: dict[str, object] = {}
        with self._lock:
            for name, store in stores.items():
                compact = getattr(store, "compact_durable", None)
                if compact is None:
                    continue
                report = compact()
                if report is not None:
                    reports[name] = report
        return reports

    # -- introspection -----------------------------------------------------------------
    def describe(self) -> Mapping[str, object]:
        """JSON-friendly maintenance state (facade introspection)."""
        with self._lock:
            return {
                "writes": self._next_seq,
                "relations": sorted(self._bags),
                "fragments": {
                    name: {
                        "pending_deltas": len(watched.pending),
                        "pending_rows": sum(e.row_volume for e in watched.pending),
                    }
                    for name, watched in sorted(self._fragments.items())
                },
            }
