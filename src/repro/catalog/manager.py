"""The Storage Descriptor Manager: registry of datasets, stores and fragments.

One of the boxes of the paper's Figure 1.  It keeps track of which stores are
available, which logical datasets exist (with their pivot-model constraints),
and which fragments (storage descriptors) are currently materialized where.
The query evaluator consults it to obtain the view definitions and access
patterns feeding the rewriting engine, and the translation layer to locate
each fragment's store and layout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.binding_patterns import AccessPatternRegistry
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.views import ViewDefinition
from repro.catalog.descriptors import StorageDescriptor
from repro.errors import (
    DuplicateRegistrationError,
    UnknownDatasetError,
    UnknownFragmentError,
    UnknownStoreError,
)
from repro.stores.base import Store

__all__ = ["DatasetInfo", "StorageDescriptorManager"]


@dataclass(slots=True)
class DatasetInfo:
    """A logical dataset: its data model, pivot relations and constraints."""

    name: str
    data_model: str
    relations: tuple[str, ...] = ()
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    description: str = ""


class StorageDescriptorManager:
    """Registry of stores, datasets and fragment descriptors.

    All reads and mutations synchronize on one reentrant lock, so concurrent
    service queries can never observe a half-applied registration (descriptor
    visible but epochs not yet bumped, or vice versa) while a migration or
    advisor-driven reorganization mutates the catalog.  The lock is strictly
    leaf-level: no method calls out to stores, planners or other locked
    components while holding it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._stores: dict[str, Store] = {}
        self._datasets: dict[str, DatasetInfo] = {}
        self._fragments: dict[str, StorageDescriptor] = {}
        self._version = 0
        self._registry: tuple[int, AccessPatternRegistry] = (-1, AccessPatternRegistry())
        self._epoch_clock = 0
        self._relation_epochs: dict[str, int] = {}
        self._structural_epoch = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every catalog mutation.

        Kept for backwards compatibility and coarse change detection; cached
        plans key on the finer-grained per-relation epochs instead (see
        :meth:`epoch_signature`), so registering fragment #5000 does not
        invalidate plans that never touch its relations.
        """
        with self._lock:
            return self._version

    # -- epochs -------------------------------------------------------------------------
    @property
    def structural_epoch(self) -> int:
        """Epoch bumped by schema-level changes (dataset registration).

        Dataset constraints can affect the rewriting of *any* query, so plans
        must additionally key on this coarse epoch.
        """
        with self._lock:
            return self._structural_epoch

    def relation_epoch(self, relation: str) -> int:
        """Epoch of one relation signature (0 while no fragment over it changed)."""
        with self._lock:
            return self._relation_epochs.get(relation, 0)

    def epoch_signature(self, relations: Iterable[str]) -> tuple[tuple[str, int], ...]:
        """Sorted ``(relation, epoch)`` pairs for a set of relations.

        Epochs are structural: registering, dropping or moving a fragment
        bumps its relations' epochs, and a data write bumps none.  A cached
        plan whose key embeds this signature over the relations it can
        possibly touch keeps its key until one of those relations' fragments
        is added, removed or moved; what data writes change (backlogs,
        statistics) the plan cache handles per fragment.
        """
        with self._lock:
            return tuple(
                (relation, self._relation_epochs.get(relation, 0))
                for relation in sorted(set(relations))
            )

    def fragment_relations(self, descriptor: StorageDescriptor) -> frozenset[str]:
        """The relation signature of a fragment: its body relations + its name."""
        return descriptor.view.definition.relations() | {descriptor.fragment_name}

    def _bump_relations(self, relations: Iterable[str]) -> None:
        with self._lock:
            self._epoch_clock += 1
            for relation in relations:
                self._relation_epochs[relation] = self._epoch_clock

    # -- stores ---------------------------------------------------------------------
    def register_store(self, name: str, store: Store) -> None:
        """Register a store under ``name``."""
        with self._lock:
            if name in self._stores:
                raise DuplicateRegistrationError(f"store {name!r} is already registered")
            self._stores[name] = store
            self._version += 1

    def unregister_store(self, name: str) -> None:
        """Remove a store (its fragments must have been dropped first)."""
        with self._lock:
            if name not in self._stores:
                raise UnknownStoreError(f"store {name!r} is not registered")
            still_used = [f.fragment_name for f in self._fragments.values() if f.store == name]
            if still_used:
                raise DuplicateRegistrationError(
                    f"store {name!r} still hosts fragments {still_used}; drop them first"
                )
            del self._stores[name]
            self._version += 1

    def store(self, name: str) -> Store:
        """Look up a registered store."""
        with self._lock:
            store = self._stores.get(name)
        if store is None:
            raise UnknownStoreError(f"store {name!r} is not registered")
        return store

    def stores(self) -> Mapping[str, Store]:
        """All registered stores by name."""
        with self._lock:
            return dict(self._stores)

    # -- datasets ---------------------------------------------------------------------
    def register_dataset(
        self,
        name: str,
        data_model: str,
        relations: Sequence[str] = (),
        constraints: Iterable[Constraint] = (),
        description: str = "",
    ) -> DatasetInfo:
        """Register a logical dataset and its pivot-model constraints."""
        with self._lock:
            if name in self._datasets:
                raise DuplicateRegistrationError(f"dataset {name!r} is already registered")
            info = DatasetInfo(
                name=name,
                data_model=data_model,
                relations=tuple(relations),
                constraints=ConstraintSet(constraints),
                description=description,
            )
            self._datasets[name] = info
            self._version += 1
            self._structural_epoch += 1
            return info

    def dataset(self, name: str) -> DatasetInfo:
        """Look up a registered dataset."""
        with self._lock:
            info = self._datasets.get(name)
        if info is None:
            raise UnknownDatasetError(f"dataset {name!r} is not registered")
        return info

    def datasets(self) -> Mapping[str, DatasetInfo]:
        """All registered datasets by name."""
        with self._lock:
            return dict(self._datasets)

    # -- fragments -----------------------------------------------------------------------
    def register_fragment(self, descriptor: StorageDescriptor) -> None:
        """Register a fragment descriptor (its dataset and store must exist)."""
        with self._lock:
            if descriptor.fragment_name in self._fragments:
                raise DuplicateRegistrationError(
                    f"fragment {descriptor.fragment_name!r} is already registered"
                )
            if descriptor.dataset not in self._datasets:
                raise UnknownDatasetError(
                    f"fragment {descriptor.fragment_name!r} references unknown dataset "
                    f"{descriptor.dataset!r}"
                )
            if descriptor.store not in self._stores:
                raise UnknownStoreError(
                    f"fragment {descriptor.fragment_name!r} references unknown store "
                    f"{descriptor.store!r}"
                )
            self._fragments[descriptor.fragment_name] = descriptor
            self._version += 1
            self._bump_relations(self.fragment_relations(descriptor))

    def drop_fragment(self, name: str) -> StorageDescriptor:
        """Remove a fragment descriptor and return it."""
        with self._lock:
            descriptor = self._fragments.pop(name, None)
            if descriptor is None:
                raise UnknownFragmentError(f"fragment {name!r} is not registered")
            self._version += 1
            self._bump_relations(self.fragment_relations(descriptor))
            return descriptor

    def replace_fragment(self, descriptor: StorageDescriptor) -> StorageDescriptor:
        """Atomically swap a fragment's descriptor for a new placement.

        The cutover primitive of live migration: readers either see the old
        placement or the new one — never a window where the fragment is
        missing (a concurrent planner would then silently produce plans
        without it).  Returns the previous descriptor.  Epochs of both
        placements' relation signatures are bumped once.
        """
        name = descriptor.fragment_name
        with self._lock:
            previous = self._fragments.get(name)
            if previous is None:
                raise UnknownFragmentError(f"fragment {name!r} is not registered")
            if descriptor.dataset not in self._datasets:
                raise UnknownDatasetError(
                    f"fragment {name!r} references unknown dataset {descriptor.dataset!r}"
                )
            if descriptor.store not in self._stores:
                raise UnknownStoreError(
                    f"fragment {name!r} references unknown store {descriptor.store!r}"
                )
            self._fragments[name] = descriptor
            self._version += 1
            self._bump_relations(
                self.fragment_relations(previous) | self.fragment_relations(descriptor)
            )
            return previous

    def fragment(self, name: str) -> StorageDescriptor:
        """Look up a fragment descriptor."""
        with self._lock:
            descriptor = self._fragments.get(name)
        if descriptor is None:
            raise UnknownFragmentError(f"fragment {name!r} is not registered")
        return descriptor

    def fragments(self, dataset: str | None = None, store: str | None = None
                  ) -> list[StorageDescriptor]:
        """Fragment descriptors, optionally filtered by dataset and/or store."""
        with self._lock:
            result = list(self._fragments.values())
        if dataset is not None:
            result = [d for d in result if d.dataset == dataset]
        if store is not None:
            result = [d for d in result if d.store == store]
        return result

    # -- derived inputs for the rewriting engine -----------------------------------------
    def view_definitions(self, datasets: Iterable[str] | None = None) -> list[ViewDefinition]:
        """The view definitions of the registered fragments.

        When ``datasets`` is given, only fragments over those datasets are
        returned (the evaluator passes the datasets touched by the query).
        """
        wanted = set(datasets) if datasets is not None else None
        views: list[ViewDefinition] = []
        with self._lock:
            descriptors = list(self._fragments.values())
        for descriptor in descriptors:
            if wanted is not None and descriptor.dataset not in wanted:
                continue
            views.append(self.resolved_view(descriptor))
        return views

    def resolved_view(self, descriptor: StorageDescriptor) -> ViewDefinition:
        """One fragment's view definition with its access pattern resolved."""
        view = descriptor.view
        pattern = descriptor.access_pattern()
        if pattern is not None and view.access_pattern is None:
            view = ViewDefinition(
                name=view.name,
                definition=view.definition,
                access_pattern=pattern,
                store=descriptor.store,
                column_names=view.column_names,
            )
        return view

    def access_pattern_registry(self) -> AccessPatternRegistry:
        """Binding patterns of every registered fragment.

        Built once per catalog version and shared: callers only read it (a
        :class:`~repro.core.rewriting.Rewriter` copies what it is given).
        """
        with self._lock:
            version, cached = self._registry
            if version == self._version:
                return cached
            version, descriptors = self._version, list(self._fragments.values())
        registry = AccessPatternRegistry(
            pattern for descriptor in descriptors
            if (pattern := descriptor.access_pattern()) is not None
        )
        with self._lock:
            if version == self._version:
                self._registry = (version, registry)
        return registry

    def schema_constraints(self, datasets: Iterable[str] | None = None) -> ConstraintSet:
        """The union of the constraints of the chosen datasets (all by default)."""
        wanted = set(datasets) if datasets is not None else None
        constraints = ConstraintSet()
        with self._lock:
            infos = list(self._datasets.values())
        for info in infos:
            if wanted is not None and info.name not in wanted:
                continue
            constraints.extend(info.constraints)
        return constraints

    def describe(self) -> Mapping[str, object]:
        """A JSON-friendly snapshot of the whole catalog (demo-style inspection)."""
        with self._lock:
            return {
                "stores": {name: store.capabilities().data_model for name, store in self._stores.items()},
                "datasets": {name: info.data_model for name, info in self._datasets.items()},
                "fragments": {name: d.describe() for name, d in self._fragments.items()},
            }
