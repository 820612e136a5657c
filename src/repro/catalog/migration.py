"""Live fragment migration: dual-write, backfill, cutover — or roll back.

The self-tuning loop's actuator.  When the drift monitor (or an operator)
decides a fragment should live in a different store, the
:class:`MigrationEngine` moves it without ever taking the fragment out of
service:

1. **dual-write** — the new placement is registered *shadow-only*: an empty
   collection in the target store plus a maintenance watch
   (:meth:`~repro.catalog.maintenance.MaintenanceEngine.watch_shadow`) whose
   pending queue is seeded with chunked backfill deltas of the view's current
   contents.  The shadow never enters the descriptor manager, so planners
   cannot see it; from this moment every base-relation write fans its view
   delta to both placements through the ordinary maintenance machinery.
2. **backfill** — :meth:`Estocada.maintain` streams the backfill chunks and
   any queued dual-written deltas, in order, into the target store.
3. **cutover** — under the maintenance engine's lock (no write can land) the
   residual queue is drained, the descriptor manager atomically swaps the
   fragment's descriptor to the new placement
   (:meth:`~repro.catalog.manager.StorageDescriptorManager.replace_fragment`),
   the persistent rewriter is updated in place, only the touched relations'
   cached plans are invalidated, and the shadow's maintenance state is
   promoted to the live watch.

A cancelled or failed migration **rolls back**: the shadow watch is removed,
its staleness counters cleared and the half-built target collection
truncated — the old placement served every read throughout and keeps serving
them, so reads are bag-identical to a deployment that never migrated.  There
is no phase in which a kill can leave the catalog half-cut: before cutover
the old descriptor is untouched, and the cutover itself is a single locked
descriptor swap.

Fragments whose base relations are not shadowed by the maintenance engine
(no DML can reach them) migrate by *offline copy*: scan the source store,
chunk-load the target, then the same atomic cutover.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from repro.catalog.descriptors import StorageDescriptor, StorageLayout
from repro.catalog.materialize import materialize_fragment
from repro.core.views import ViewDefinition
from repro.errors import (
    DeltaError,
    MaintenanceCancelledError,
    MaintenanceError,
    MigrationError,
    ReproError,
    StoreError,
    WriteError,
)
from repro.stores.base import ScanRequest, Store
from repro.stores.sharded import ShardedStore

__all__ = ["Migration", "MigrationEngine", "SHADOW_SUFFIX", "BACKFILL_CHUNK_ROWS"]

SHADOW_SUFFIX = "__migrating"
"""Suffix of the shadow placement's fragment name while a migration runs."""

BACKFILL_CHUNK_ROWS = 256
"""Default rows per backfill chunk (bounds the work between cancel checks)."""


@dataclass(slots=True)
class Migration:
    """The record of one migration attempt (live telemetry + history)."""

    fragment: str
    source_store: str
    target_store: str
    collection: str
    phase: str = "pending"
    managed: bool = True
    backfill_rows: int = 0
    error: str | None = None

    @property
    def finished(self) -> bool:
        """Whether the migration reached a terminal phase."""
        return self.phase in {"done", "rolled_back", "failed"}

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly snapshot (surfaces in ``summary()["migrations"]``)."""
        return {
            "fragment": self.fragment,
            "source_store": self.source_store,
            "target_store": self.target_store,
            "collection": self.collection,
            "phase": self.phase,
            "managed": self.managed,
            "backfill_rows": self.backfill_rows,
            "error": self.error,
        }


class MigrationEngine:
    """Moves one fragment at a time between stores, live.

    One engine belongs to one :class:`~repro.estocada.Estocada` facade.
    Migrations are serialized (``_active`` admits one at a time) — each one
    briefly holds the maintenance engine's lock at cutover, and overlapping
    shadow queues for the same relations would multiply write amplification
    for no benefit.
    """

    def __init__(self, estocada) -> None:
        self._estocada = estocada
        self._lock = threading.Lock()
        self._migrations: list[Migration] = []
        self._active: str | None = None
        self._counter = 0

    # -- introspection -----------------------------------------------------------------
    def active(self) -> str | None:
        """The fragment currently migrating, if any."""
        with self._lock:
            return self._active

    def describe(self) -> list[Mapping[str, object]]:
        """Every migration attempted so far, oldest first."""
        with self._lock:
            return [migration.describe() for migration in self._migrations]

    # -- the migration ------------------------------------------------------------------
    def migrate(
        self,
        fragment: str,
        target_store: str,
        cancel: threading.Event | None = None,
        chunk_rows: int = BACKFILL_CHUNK_ROWS,
        phase_hook: Callable[[str], None] | None = None,
    ) -> Migration:
        """Move ``fragment`` to ``target_store`` and return the migration record.

        A set ``cancel`` event aborts at the next phase boundary or backfill
        chunk; the migration then rolls back (phase ``rolled_back``) and the
        old placement keeps serving.  ``phase_hook`` is called with each
        phase name as it begins — the chaos harness uses it to kill
        migrations at exact points.  Store failures roll back too and
        re-raise as :class:`MigrationError`.
        """
        estocada = self._estocada
        old = estocada.catalog.fragment(fragment)
        target = estocada.catalog.store(target_store)
        if old.store == target_store:
            raise MigrationError(
                f"fragment {fragment!r} already lives in store {target_store!r}"
            )
        with self._lock:
            if self._active is not None:
                raise MigrationError(
                    f"migration of {self._active!r} is in flight; migrations are serialized"
                )
            self._active = fragment
            self._counter += 1
            collection = f"{old.layout.collection}__mig{self._counter}"
            migration = Migration(
                fragment=fragment,
                source_store=old.store,
                target_store=target_store,
                collection=collection,
            )
            self._migrations.append(migration)
        try:
            final = self._final_descriptor(old, target_store, target, collection)
            managed = all(
                estocada.maintenance.has_relation(relation)
                for relation in old.view.definition.relations()
            )
            migration.managed = managed
            if managed:
                self._run_managed(migration, old, final, target, cancel, chunk_rows, phase_hook)
            else:
                self._run_offline(migration, old, final, target, cancel, chunk_rows, phase_hook)
        finally:
            with self._lock:
                self._active = None
        return migration

    # -- descriptor plumbing -----------------------------------------------------------
    def _final_descriptor(
        self,
        old: StorageDescriptor,
        target_store: str,
        store: Store,
        collection: str,
    ) -> StorageDescriptor:
        """The post-cutover descriptor: same name and view, new placement."""
        sharding = old.sharding
        if isinstance(store, ShardedStore):
            if sharding is None:
                raise MigrationError(
                    f"fragment {old.fragment_name!r} carries no sharding spec; "
                    f"cannot migrate it into sharded store {target_store!r}"
                )
            if sharding.shards != store.shard_count:
                raise MigrationError(
                    f"fragment {old.fragment_name!r} declares {sharding.shards} shards "
                    f"but store {target_store!r} has {store.shard_count}"
                )
        else:
            sharding = None
        return replace(
            old,
            store=target_store,
            # Identity column mapping: the target collection is materialized
            # fresh under the view's own column names.
            layout=StorageLayout(collection=collection),
            sharding=sharding,
        )

    def _shadow_descriptor(self, final: StorageDescriptor) -> StorageDescriptor:
        shadow_name = final.fragment_name + SHADOW_SUFFIX
        shadow_view = ViewDefinition(
            name=shadow_name,
            definition=final.view.definition,
            column_names=final.view.column_names,
        )
        return replace(final, fragment_name=shadow_name, view=shadow_view)

    @staticmethod
    def _cancelled(cancel: threading.Event | None) -> bool:
        return cancel is not None and cancel.is_set()

    @staticmethod
    def _enter_phase(
        migration: Migration, phase: str, hook: Callable[[str], None] | None
    ) -> None:
        migration.phase = phase
        if hook is not None:
            hook(phase)

    # -- the managed (dual-write) path ---------------------------------------------------
    def _run_managed(
        self,
        migration: Migration,
        old: StorageDescriptor,
        final: StorageDescriptor,
        target: Store,
        cancel: threading.Event | None,
        chunk_rows: int,
        hook: Callable[[str], None] | None,
    ) -> None:
        estocada = self._estocada
        engine = estocada.maintenance
        shadow = self._shadow_descriptor(final)
        shadow_name = shadow.fragment_name

        self._enter_phase(migration, "dual_write", hook)
        if self._cancelled(cancel):
            self._abandon(migration, "cancelled before dual-write began")
            return
        # Create the (empty) target collection, then open the shadow watch:
        # its queue starts with the chunked backfill of the view's current
        # contents, and every subsequent write dual-fans to it.
        materialize_fragment(target, shadow, rows=[])
        if not engine.watch_shadow(shadow, chunk_rows=chunk_rows):
            self._rollback(migration, shadow, target, "base relations lost their shadows")
            raise MigrationError(
                f"fragment {migration.fragment!r} lost its writable base relations"
            )
        try:
            self._enter_phase(migration, "backfill", hook)
            if self._cancelled(cancel):
                raise MaintenanceCancelledError("migration cancelled before backfill")
            migration.backfill_rows += estocada.maintain(shadow_name, cancel=cancel)

            self._enter_phase(migration, "cutover", hook)
            if self._cancelled(cancel):
                raise MaintenanceCancelledError("migration cancelled before cutover")
            with engine.lock:
                # Writes are frozen: drain anything dual-written since the
                # backfill pass, then swap the descriptor atomically.
                migration.backfill_rows += estocada.maintain(shadow_name, cancel=cancel)
                if self._cancelled(cancel):
                    raise MaintenanceCancelledError("migration cancelled at cutover")
                estocada._cutover_descriptor(final, shadow_name)
            migration.phase = "done"
        except MaintenanceCancelledError as error:
            self._rollback(migration, shadow, target, str(error))
        except (StoreError, WriteError, DeltaError, MaintenanceError) as error:
            self._rollback(migration, shadow, target, f"{type(error).__name__}: {error}")
            raise MigrationError(
                f"migration of {migration.fragment!r} to {migration.target_store!r} "
                f"failed and rolled back: {error}"
            ) from error

    # -- the offline-copy path ----------------------------------------------------------
    def _run_offline(
        self,
        migration: Migration,
        old: StorageDescriptor,
        final: StorageDescriptor,
        target: Store,
        cancel: threading.Event | None,
        chunk_rows: int,
        hook: Callable[[str], None] | None,
    ) -> None:
        """Copy-then-cutover for fragments no DML can reach.

        Without writable base relations there is nothing to dual-write: the
        fragment's contents are static, so a chunked scan-and-load of the
        source collection is already consistent.
        """
        estocada = self._estocada

        self._enter_phase(migration, "backfill", hook)
        if self._cancelled(cancel):
            self._abandon(migration, "cancelled before backfill began")
            return
        source = estocada.catalog.store(old.store)
        view_columns = old.view_columns()
        store_columns = [old.layout.store_column(column) for column in view_columns]
        try:
            stream = source.execute_batches(
                ScanRequest(collection=old.layout.collection), store_columns
            )
            rows = [dict(zip(view_columns, row)) for batch in stream for row in batch.rows]
        except StoreError as error:
            self._abandon(migration, f"{type(error).__name__}: {error}")
            raise MigrationError(
                f"cannot scan fragment {migration.fragment!r} out of store "
                f"{old.store!r}: {error}"
            ) from error
        try:
            for start in range(0, max(1, len(rows)), max(1, chunk_rows)):
                if self._cancelled(cancel):
                    raise MaintenanceCancelledError(
                        f"migration cancelled mid-backfill at row {start}"
                    )
                chunk = rows[start : start + max(1, chunk_rows)]
                migration.backfill_rows += materialize_fragment(target, final, chunk)

            self._enter_phase(migration, "cutover", hook)
            if self._cancelled(cancel):
                raise MaintenanceCancelledError("migration cancelled before cutover")
            estocada._cutover_descriptor(final, None)
            migration.phase = "done"
        except MaintenanceCancelledError as error:
            self._rollback(migration, final, target, str(error))
        except (StoreError, WriteError, DeltaError) as error:
            self._rollback(migration, final, target, f"{type(error).__name__}: {error}")
            raise MigrationError(
                f"migration of {migration.fragment!r} to {migration.target_store!r} "
                f"failed and rolled back: {error}"
            ) from error

    # -- rollback ------------------------------------------------------------------------
    def _abandon(self, migration: Migration, reason: str) -> None:
        """Terminal bookkeeping when nothing was built yet."""
        migration.phase = "rolled_back"
        migration.error = reason

    def _rollback(
        self,
        migration: Migration,
        built: StorageDescriptor,
        target: Store,
        reason: str,
    ) -> None:
        """Tear down the half-built placement; the old one never stopped serving."""
        estocada = self._estocada
        estocada.maintenance.unwatch_fragment(built.fragment_name)
        estocada.statistics.clear_staleness(built.fragment_name)
        try:
            target.truncate_collection(built.layout.collection)
        except (ReproError, NotImplementedError):
            # Best effort: an orphaned target collection wastes space but is
            # invisible to planning (the descriptor never entered the catalog).
            pass
        migration.phase = "rolled_back"
        migration.error = reason
