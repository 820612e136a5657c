"""The ESTOCADA facade: transparent, optimized access to hybrid stores.

:class:`Estocada` wires together every component of the paper's Figure 1:

* the **Storage Descriptor Manager** (datasets, stores, fragment descriptors),
* the **Query Evaluator**: native-language queries are translated to the
  pivot model, rewritten over the registered fragments with PACB (or the
  classical C&B for baseline measurements), the rewritings are filtered for
  access-pattern feasibility, ranked by the cost model, and the cheapest plan
  is handed to the runtime;
* the **Runtime Execution Engine** evaluating the non-delegated operations;
* the **Storage Advisor** (exposed via :meth:`recommend_fragments`).

Most applications only ever touch this class.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Iterable, Mapping, Sequence
from typing import Callable

from repro.catalog.descriptors import StorageDescriptor
from repro.catalog.maintenance import MaintenanceEngine
from repro.catalog.manager import DatasetInfo, StorageDescriptorManager
from repro.catalog.materialize import materialize_fragment
from repro.catalog.statistics import DRIFT_THRESHOLD, StatisticsCatalog
from repro.core.constraints import Constraint
from repro.core.query import ConjunctiveQuery
from repro.core.rewriting import Rewriter, RewritingOutcome
from repro.core.terms import Variable
from repro.cost.chooser import PlanChooser, RankedPlan
from repro.cost.cost_model import CostModel
from repro.datamodel.relational import RelationalSchema, TableSchema
from repro.errors import (
    MaintenanceError,
    NoRewritingFoundError,
    ReproError,
    StaleFragmentError,
    TranslationError,
    UnknownFragmentError,
    UnknownStoreError,
)
from repro.languages.docql import DocumentQuery
from repro.languages.sql.translator import SqlTranslator, TranslatedQuery
from repro.plan.logical import StatementShape, statement_tree
from repro.plan.physical import PhysicalPlanner
from repro.runtime.engine import ExecutionEngine, QueryResult
from repro.runtime.operators import Operator
from repro.settings import Settings
from repro.stores.base import Store
from repro.stores.replicated import ReplicatedStore, ReplicationPolicy
from repro.stores.segment import write_group
from repro.stores.sharded import ShardedStore
from repro.translation.planner import Planner

__all__ = [
    "Explanation",
    "PlanCache",
    "NamespacedPlanCache",
    "DEFAULT_CACHE_NAMESPACE",
    "Estocada",
]


@dataclass(slots=True)
class Explanation:
    """Everything the demo shows for one query: pivot form, rewritings, plans.

    ``root`` is the statement's whole executable tree around ``chosen`` —
    the very tree :meth:`Estocada.query` runs.
    """

    pivot_query: ConjunctiveQuery
    rewritings: list[ConjunctiveQuery]
    feasible_rewritings: list[ConjunctiveQuery]
    ranked_plans: list[RankedPlan]
    chosen: RankedPlan | None
    rewriting_seconds: float
    algorithm: str
    notes: list[str] = field(default_factory=list)
    root: Operator | None = None

    def plan_text(self) -> str:
        """The statement's executable tree, pretty-printed."""
        if self.root is None:
            return "(no executable plan)"
        return self.root.explain()


def _canonical_term(term) -> object:
    if isinstance(term, Variable):
        return f"?{term.name}"
    return ("const", repr(term.value))


def _outputs(columns) -> tuple[tuple[str, bool, object], ...]:
    """``(name, term)`` pairs as output triples: the variable read, or the constant."""
    return tuple(
        (name, True, term.name) if isinstance(term, Variable) else (name, False, term.value)
        for name, term in columns
    )


@dataclass(slots=True)
class _Statement:
    """The half of a query that is a pure function of the query itself.

    For SQL text that is the translation against its dataset's schema; for
    every query kind it is also the *shape* half of the plan-cache key
    (canonical head/body, body relations).  Nothing here depends on
    fragments, stores, data, epochs or tenants, and a dataset's schema is
    fixed at registration, so a statement memoized under ``(dataset, sql
    text)`` can never go stale.

    ``shape`` is everything the statement asks beyond its conjunctive core
    (residual filters, aggregation, outputs, DISTINCT, LIMIT), stacked above
    a rewriting's join tree by :func:`~repro.plan.logical.statement_tree`.
    ``lowered`` is the one derived piece that does depend on planning: the
    executable tree (and its plan text) built around the ranked plan the last
    execution selected.  It is trusted only while that very
    :class:`RankedPlan` object is selected again — a re-plan, another
    tenant's plan or a ``max_staleness`` pick of a different candidate
    lowers afresh.  Concurrent executions may race to store it; the values
    are interchangeable, the last writer wins.
    """

    pivot_query: ConjunctiveQuery
    shape: StatementShape
    head: tuple = field(init=False)
    body: tuple = field(init=False)
    relations: frozenset[str] = field(init=False)
    lowered: "tuple[RankedPlan, Operator, str] | None" = field(init=False, default=None)

    def __post_init__(self) -> None:
        query = self.pivot_query
        self.head = tuple(_canonical_term(term) for term in query.head_terms)
        self.body = tuple(
            (atom.relation, tuple(_canonical_term(term) for term in atom.terms))
            for atom in query.body
        )
        self.relations = query.relations()


class PlanCache:
    """A small LRU cache of rewrite-and-plan results (:class:`Explanation`).

    Keys are the normalized query shape (alpha-renamed variables, constants
    included) plus the rewriting algorithm and the catalog's per-relation
    epoch signature over the query's reachable relations.  Epochs are
    structural: registering, dropping or moving a fragment changes the keys
    of exactly the entries whose queries can see its relations, and
    ``register_fragment`` / ``drop_fragment`` additionally drop those entries
    eagerly via :meth:`invalidate_relations` to free memory.  A data write
    changes no key.  A hit skips the whole PACB chase/backchase pipeline and
    the planner.

    What data can move is the ranking: the cost model reads fragment
    statistics and prices each fragment's maintenance backlog.  So each entry
    remembers the backlogs it was ranked under, and :meth:`invalidate_fragment`
    drops the entries over a fragment whose backlog is no longer that one (a
    deferred write left it stale, maintenance caught it up), or every entry
    over a fragment whose statistics drifted past the threshold.
    """

    def __init__(self, capacity: int = 128) -> None:
        self._capacity = max(0, capacity)
        self._entries: OrderedDict[
            tuple, tuple[Explanation, frozenset[str], Mapping[str, int]]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.scoped_invalidations = 0

    def get(self, key: tuple) -> Explanation | None:
        """The cached explanation for ``key``, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(
        self,
        key: tuple,
        explanation: Explanation,
        relations: Iterable[str] = (),
        backlogs: Mapping[str, int] | None = None,
    ) -> None:
        """Insert an entry, evicting the least recently used beyond capacity.

        ``relations`` is the entry's relation signature — every pivot
        relation and fragment name the query's rewritings can possibly touch
        (the index closure of its body relations); scoped invalidation drops
        entries whose signature intersects a mutated fragment's.
        ``backlogs`` maps each fragment that had pending deltas when the
        ranking began to their count (fresh fragments are absent).
        """
        if self._capacity == 0:
            return
        self._entries[key] = (explanation, frozenset(relations), dict(backlogs or {}))
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def invalidate_fragment(self, fragment: str, backlog: int | None = None) -> int:
        """Drop entries whose candidate plans touch ``fragment``.

        With no ``backlog``, every such entry goes: the fragment's statistics
        drifted past the threshold, so the cached cost-based choices (plan
        ranking, hash-vs-keyed joins) were made from estimates that no
        longer hold.  With a ``backlog`` (the fragment's pending-delta count
        now), only the entries ranked under another count go.  Returns the
        number of entries dropped.
        """
        stale = [
            key
            for key, (explanation, _, ranked_under) in self._entries.items()
            if (backlog is None or ranked_under.get(fragment, 0) != backlog)
            and any(
                access.descriptor.fragment_name == fragment
                for ranked in explanation.ranked_plans
                for group in ranked.plan.groups
                for access in group.accesses
            )
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def invalidate_relations(self, relations: Iterable[str]) -> int:
        """Drop every entry whose relation signature intersects ``relations``.

        Called when a fragment is registered or dropped: only cached plans
        for queries that can reach one of the fragment's relations could have
        chosen differently, so everything else survives.  Returns the number
        of entries dropped.
        """
        touched = frozenset(relations)
        stale = [
            key
            for key, (_, signature, _) in self._entries.items()
            if signature & touched
        ]
        for key in stale:
            del self._entries[key]
        self.scoped_invalidations += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Mapping[str, int]:
        """JSON-friendly counters."""
        return {
            "entries": len(self._entries),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "scoped_invalidations": self.scoped_invalidations,
        }


DEFAULT_CACHE_NAMESPACE = ""
"""The namespace direct (non-tenant) queries plan under."""


class NamespacedPlanCache:
    """Per-tenant :class:`PlanCache` instances behind one facade-level API.

    Each namespace owns a *separate* LRU with its own capacity, so one
    tenant's query churn can evict only its own entries — a noisy tenant
    cycling through thousands of ad-hoc shapes cannot push another tenant's
    hot plans out of cache.  Invalidation (fragment drift, catalog
    mutations) spans every namespace: the underlying catalog is shared, so a
    stale plan is stale for everyone.

    All methods are thread-safe with respect to namespace creation; the
    per-namespace caches themselves are guarded by the facade's planning
    lock (plan lookup and insertion happen inside it).
    """

    def __init__(self, capacity: int = 128) -> None:
        self._default_capacity = max(0, capacity)
        self._lock = threading.Lock()
        self._namespaces: dict[str, PlanCache] = {}

    def namespace(self, name: str = DEFAULT_CACHE_NAMESPACE) -> PlanCache:
        """The namespace's cache, created at the default capacity on first use."""
        with self._lock:
            cache = self._namespaces.get(name)
            if cache is None:
                cache = PlanCache(self._default_capacity)
                self._namespaces[name] = cache
            return cache

    def _snapshot(self) -> list[PlanCache]:
        with self._lock:
            return list(self._namespaces.values())

    def get(self, key: tuple, namespace: str = DEFAULT_CACHE_NAMESPACE):
        return self.namespace(namespace).get(key)

    def put(
        self,
        key: tuple,
        explanation: "Explanation",
        relations: Iterable[str] = (),
        namespace: str = DEFAULT_CACHE_NAMESPACE,
        backlogs: Mapping[str, int] | None = None,
    ) -> None:
        self.namespace(namespace).put(key, explanation, relations, backlogs)

    def clear(self) -> None:
        """Drop every entry in every namespace (counters are preserved)."""
        for cache in self._snapshot():
            cache.clear()

    def invalidate_fragment(self, fragment: str, backlog: int | None = None) -> int:
        """Drop stale entries across all namespaces (the catalog is shared)."""
        return sum(
            cache.invalidate_fragment(fragment, backlog) for cache in self._snapshot()
        )

    def invalidate_relations(self, relations: Iterable[str]) -> int:
        """Scoped catalog-mutation invalidation across all namespaces."""
        touched = frozenset(relations)
        return sum(cache.invalidate_relations(touched) for cache in self._snapshot())

    def __len__(self) -> int:
        return sum(len(cache) for cache in self._snapshot())

    def stats(self) -> Mapping[str, object]:
        """Aggregate counters plus the per-namespace breakdown.

        The top-level keys keep the historical single-cache shape (summed
        over namespaces); ``namespaces`` maps each namespace name to its own
        counters so per-tenant hit rates are visible.
        """
        with self._lock:
            per_namespace = {name: cache.stats() for name, cache in self._namespaces.items()}
        aggregate: dict[str, object] = {
            "entries": sum(s["entries"] for s in per_namespace.values()),
            "capacity": max(
                (s["capacity"] for s in per_namespace.values()),
                default=self._default_capacity,
            ),
            "hits": sum(s["hits"] for s in per_namespace.values()),
            "misses": sum(s["misses"] for s in per_namespace.values()),
            "evictions": sum(s["evictions"] for s in per_namespace.values()),
            "invalidations": sum(s["invalidations"] for s in per_namespace.values()),
            "scoped_invalidations": sum(
                s["scoped_invalidations"] for s in per_namespace.values()
            ),
        }
        aggregate["namespaces"] = per_namespace
        return aggregate


def _data_model_for(manager: StorageDescriptorManager, fragment: str) -> str | None:
    """The data model of a fragment's store (None when unknown)."""
    try:
        descriptor = manager.fragment(fragment)
        return manager.store(descriptor.store).capabilities().data_model
    except (UnknownFragmentError, UnknownStoreError):
        return None


class Estocada:
    """The hybrid-store mediator: register stores, datasets and fragments, then query.

    The environment is read once, at construction (:mod:`repro.settings`).
    """

    def __init__(
        self,
        algorithm: str = "pacb",
        plan_cache_size: int = 128,
        parallelism: int | None = None,
        batch_size: int | None = None,
        durable_path: str | None = None,
    ) -> None:
        settings = Settings.from_env()
        if durable_path is None:
            durable_path = settings.durable or None
            if durable_path is True:
                durable_path = tempfile.mkdtemp(prefix="repro-durable-")
                # A directory the facade made goes with the facade (or at
                # interpreter exit); a directory the caller named never does.
                weakref.finalize(self, shutil.rmtree, durable_path, ignore_errors=True)
        self._durable_path = None if durable_path is None else str(durable_path)
        self._service_routing = settings.service
        self._manager = StorageDescriptorManager()
        self._statistics = StatisticsCatalog(self._manager)
        self._cost_model = CostModel(self._statistics)
        self._engine = ExecutionEngine(
            batch_size=batch_size,
            parallelism=settings.parallelism if parallelism is None else parallelism,
        )
        self._algorithm = algorithm
        self._relational_schemas: dict[str, RelationalSchema] = {}
        self._document_collections: dict[str, tuple[str, ...]] = {}
        self._maintenance = MaintenanceEngine(self._manager, self._statistics)
        self._write_policy = "eager"
        self._plan_cache = NamespacedPlanCache(plan_cache_size)
        # (dataset, sql text) -> _Statement, LRU-bounded like a plan-cache
        # namespace.  Entries are pure functions of their key (see _Statement),
        # so nothing ever invalidates them; guarded by the planning lock.
        self._statements: OrderedDict[tuple[str, str], _Statement] = OrderedDict()
        self._statement_capacity = max(0, plan_cache_size)
        self._statement_hits = 0
        self._statement_misses = 0
        # Serializes the rewrite-and-plan phase (rewriter, memos, plan cache
        # bookkeeping) when concurrent service workers share this facade;
        # execution itself runs outside the lock and overlaps freely.
        self._planning_lock = threading.RLock()
        # The ambient QueryService used by REPRO_SERVICE=1 routing.
        self._ambient_service = None
        # The live-migration engine, created on first use.
        self._migration_engine = None
        # The rewriter persists across queries so its signature index and the
        # constraint-set identity behind the chase/containment memo keys are
        # reused; fragment registration updates it incrementally, and any
        # catalog mutation it was not told about (detected via the version
        # counter) forces a full rebuild.
        self._rewriter_instance: Rewriter | None = None
        self._rewriter_version = -1

    # -- registration ------------------------------------------------------------------
    @property
    def catalog(self) -> StorageDescriptorManager:
        """The storage descriptor manager (Figure 1's catalog component)."""
        return self._manager

    @property
    def statistics(self) -> StatisticsCatalog:
        """Per-fragment statistics used by the cost model."""
        return self._statistics

    @property
    def cost_model(self) -> CostModel:
        """The cost model used to rank rewritings."""
        return self._cost_model

    @property
    def parallelism(self) -> int:
        """The default executor width queries run with (1 = serial)."""
        return self._engine.parallelism

    @property
    def batch_size(self) -> int:
        """The batch size queries stream with (``batch_size=``, else 256)."""
        return self._engine.batch_size

    def executor_config(self) -> Mapping[str, object]:
        """JSON-friendly executor configuration (width, batching, drift threshold)."""
        return {
            "parallelism": self._engine.parallelism,
            "batch_size": self._engine.batch_size,
            "drift_threshold": DRIFT_THRESHOLD,
        }

    def register_store(self, name: str, store: Store) -> None:
        """Register an underlying DMS under ``name``.

        On a durable facade (``durable_path=`` or ``REPRO_DURABLE``) the
        store gets its own :class:`~repro.stores.segment.DurableBacking` in a
        per-store subdirectory: existing segments and WAL records are
        recovered into the store before registration returns, and every
        subsequent write is logged.  Every leaf store kind persists this way
        (relational, document, key-value, parallel and full-text); a sharded
        or replicated store gives each child its own subdirectory.
        """
        if self._durable_path is not None and store.durable_backing() is None:
            from repro.stores.segment import DurableBacking

            store.attach_durable(
                DurableBacking(os.path.join(self._durable_path, name))
            )
        self._manager.register_store(name, store)

    def register_sharded_store(
        self,
        name: str,
        shards: int,
        factory: "Callable[[str], Store] | None" = None,
    ) -> ShardedStore:
        """Register a horizontally sharded store of ``shards`` homogeneous instances.

        ``factory`` builds one child store per shard from its generated name
        (``f"{name}.{i}"``); the default spins up simulated relational
        instances.  Fragments materialized into the returned store must carry
        a :class:`~repro.catalog.ShardingSpec` on their descriptor — the
        planner then prunes or fans out shard requests per query.
        """
        if factory is None:
            from repro.stores.relational import RelationalStore

            factory = RelationalStore
        store = ShardedStore.homogeneous(name, shards, factory)
        self.register_store(name, store)
        return store

    def shard_configuration(self) -> Mapping[str, object]:
        """Per-store sharding topology (shard counts and collection specs)."""
        configuration: dict[str, object] = {}
        for name, store in self._manager.stores().items():
            if isinstance(store, ShardedStore):
                configuration[name] = {
                    "shards": store.shard_count,
                    "collections": dict(store.describe_sharding()),
                }
        return configuration

    def register_replicated_store(
        self,
        name: str,
        replicas: int,
        factory: "Callable[[str], Store] | None" = None,
        policy: ReplicationPolicy | None = None,
    ) -> ReplicatedStore:
        """Register a replicated store of ``replicas`` full-copy instances.

        ``factory`` builds one replica per index from its generated name
        (``f"{name}.{i}"``); the default spins up simulated relational
        instances.  Fragments materialized into the returned store are
        written to *every* replica; reads route to the cheapest healthy
        replica with bounded retry, failover and (when the ``policy``
        enables it) hedged backup requests — see
        :class:`~repro.stores.replicated.ReplicationPolicy` for the knobs.
        Per-query recovery activity shows up in
        ``QueryResult.summary()["replicas"]``.
        """
        if factory is None:
            from repro.stores.relational import RelationalStore

            factory = RelationalStore
        store = ReplicatedStore.homogeneous(name, replicas, factory, policy=policy)
        self.register_store(name, store)
        return store

    def replication_configuration(self) -> Mapping[str, object]:
        """Per-store replication topology, policy and live replica health."""
        configuration: dict[str, object] = {}
        for name, store in self._manager.stores().items():
            if isinstance(store, ReplicatedStore):
                configuration[name] = dict(store.describe_replication())
        return configuration

    def register_relational_dataset(
        self,
        name: str,
        tables: Sequence[TableSchema],
        constraints: Iterable[Constraint] = (),
        description: str = "",
    ) -> DatasetInfo:
        """Register a relational dataset (tables become pivot relations)."""
        schema = RelationalSchema()
        for table in tables:
            schema.add(table)
        from repro.datamodel.relational import RelationalEncoding

        encoding = RelationalEncoding(schema)
        all_constraints = encoding.extended_constraints(constraints)
        info = self._manager.register_dataset(
            name,
            data_model="relational",
            relations=tuple(table.name for table in tables),
            constraints=all_constraints,
            description=description,
        )
        # Published only once the catalog accepted the name: a rejected
        # duplicate must not swap the schema statements translate against
        # (the statement memo relies on a dataset's schema never changing).
        self._relational_schemas[name] = schema
        return info

    def register_document_dataset(
        self,
        name: str,
        collections: Mapping[str, Sequence[str]],
        constraints: Iterable[Constraint] = (),
        description: str = "",
    ) -> DatasetInfo:
        """Register a document dataset.

        ``collections`` maps each logical collection name to the dotted paths
        it exposes; each collection becomes a logical pivot relation with one
        column per path (the full Node/Child/Descendant encoding is available
        in :mod:`repro.datamodel.document` for constraint-level reasoning).
        """
        info = self._manager.register_dataset(
            name,
            data_model="document",
            relations=tuple(collections),
            constraints=constraints,
            description=description,
        )
        for collection, paths in collections.items():
            self._document_collections[collection] = tuple(paths)
        return info

    def register_dataset(
        self,
        name: str,
        data_model: str,
        relations: Sequence[str] = (),
        constraints: Iterable[Constraint] = (),
        description: str = "",
    ) -> DatasetInfo:
        """Register a dataset of any other data model (key-value, nested, ...)."""
        return self._manager.register_dataset(
            name, data_model, relations=relations, constraints=constraints, description=description
        )

    def register_fragment(
        self,
        descriptor: StorageDescriptor,
        rows: Sequence[Mapping[str, object]] | None = None,
        indexes: Sequence[str] = (),
        partitions: int | None = None,
    ) -> None:
        """Register a fragment descriptor; optionally materialize its rows.

        Data outlives :meth:`drop_fragment`, so loaded rows replace whatever
        the fragment's collection already holds, in one delta per leaf store.
        A failed materialization unregisters the descriptor, empties the
        collection when this call created it (an existing one keeps its
        rows), and re-raises.

        Only cached plans whose queries can reach one of the fragment's
        relations are invalidated; the persistent rewriter's signature index
        is updated in place instead of being rebuilt.
        """
        with self._planning_lock:
            self._manager.register_fragment(descriptor)
            if self._rewriter_instance is not None and self._rewriter_version == self._manager.version - 1:
                self._rewriter_instance.add_view(self._manager.resolved_view(descriptor))
                self._rewriter_version = self._manager.version
        if rows is None and all(
            self._maintenance.has_relation(relation)
            for relation in descriptor.view.definition.relations()
        ):
            # Every base relation is shadowed by the maintenance engine:
            # materialize from its bag-semantics state, so the store contents
            # agree exactly with what the delta rules will maintain.
            rows = self._maintenance.compute_fragment_rows(descriptor)
        if rows is not None:
            store = self._manager.store(descriptor.store)
            collection = descriptor.layout.collection
            existed = collection in store.collections()
            try:
                materialize_fragment(
                    store, descriptor, rows, indexes=indexes, partitions=partitions,
                    replace=existed,
                )
            except Exception:
                # All or nothing: a refused load (a duplicate key, say) leaves
                # neither the descriptor nor a half-built collection behind;
                # rows an earlier load left stay as they were.
                self.drop_fragment(descriptor.fragment_name)
                if not existed:
                    with contextlib.suppress(ReproError, NotImplementedError):
                        store.truncate_collection(collection)
                raise
        self._maintenance.watch_fragment(descriptor)
        self._statistics.invalidate(descriptor.fragment_name)
        self._plan_cache.invalidate_relations(self._manager.fragment_relations(descriptor))

    def drop_fragment(self, name: str) -> StorageDescriptor:
        """Unregister a fragment descriptor (data stays in the store).

        Invalidation is scoped like :meth:`register_fragment`'s."""
        self._maintenance.unwatch_fragment(name)
        self._statistics.invalidate(name)
        with self._planning_lock:
            descriptor = self._manager.drop_fragment(name)
            if self._rewriter_instance is not None and self._rewriter_version == self._manager.version - 1:
                self._rewriter_instance.remove_view(descriptor.view.name)
                self._rewriter_version = self._manager.version
        self._plan_cache.invalidate_relations(self._manager.fragment_relations(descriptor))
        return descriptor

    # -- live migration ----------------------------------------------------------------
    @property
    def migrations(self) -> "MigrationEngine":
        """The live-migration engine (created on first touch)."""
        if self._migration_engine is None:
            from repro.catalog.migration import MigrationEngine

            self._migration_engine = MigrationEngine(self)
        return self._migration_engine

    def migrate_fragment(
        self,
        fragment: str,
        target_store: str,
        cancel: "threading.Event | None" = None,
        chunk_rows: int | None = None,
        phase_hook=None,
    ):
        """Move ``fragment`` to ``target_store`` without taking it out of service.

        Dual-write + backfill + atomic cutover (see
        :mod:`repro.catalog.migration`); a set ``cancel`` event or a store
        failure rolls back to the old placement.  Returns the
        :class:`~repro.catalog.migration.Migration` record.
        """
        from repro.catalog.migration import BACKFILL_CHUNK_ROWS

        return self.migrations.migrate(
            fragment,
            target_store,
            cancel=cancel,
            chunk_rows=chunk_rows if chunk_rows is not None else BACKFILL_CHUNK_ROWS,
            phase_hook=phase_hook,
        )

    def describe_migrations(self) -> list:
        """Every migration attempted on this facade, oldest first."""
        if self._migration_engine is None:
            return []
        return self._migration_engine.describe()

    def _cutover_descriptor(
        self, descriptor: StorageDescriptor, shadow_name: "str | None"
    ) -> StorageDescriptor:
        """Atomically swap a fragment's descriptor to its migrated placement.

        Under the planning lock: the manager swap is a single
        :meth:`~repro.catalog.manager.StorageDescriptorManager.replace_fragment`
        (readers see old or new, never neither), the persistent rewriter is
        updated in place, and — when the migration ran managed — the shadow's
        maintenance state is promoted to the fragment's live watch.  Only
        cached plans reaching the touched relations are invalidated.
        """
        with self._planning_lock:
            previous = self._manager.replace_fragment(descriptor)
            if self._rewriter_instance is not None and self._rewriter_version == self._manager.version - 1:
                self._rewriter_instance.remove_view(previous.view.name)
                self._rewriter_instance.add_view(self._manager.resolved_view(descriptor))
                self._rewriter_version = self._manager.version
            if shadow_name is not None:
                self._maintenance.promote_shadow(shadow_name, descriptor)
        self._statistics.invalidate(descriptor.fragment_name)
        self._statistics.reset_fragment_usage(descriptor.fragment_name)
        self._plan_cache.invalidate_relations(
            self._manager.fragment_relations(previous)
            | self._manager.fragment_relations(descriptor)
        )
        return previous

    # -- the write path ----------------------------------------------------------------
    @property
    def maintenance(self) -> MaintenanceEngine:
        """The fragment maintenance engine behind the DML methods."""
        return self._maintenance

    def set_write_policy(self, policy: str) -> None:
        """Choose when pending deltas are applied.

        ``"eager"`` (the default) maintains every affected fragment inside
        the write call, so reads never see stale fragments; ``"deferred"``
        only logs the deltas — fragments stay (detectably) stale until
        :meth:`maintain` runs or a read's ``max_staleness`` bound forces it.
        """
        if policy not in {"eager", "deferred"}:
            raise MaintenanceError(f"unknown write policy {policy!r}")
        self._write_policy = policy

    def load_relation(
        self,
        relation: str,
        rows: Sequence[Mapping[str, object]] = (),
        columns: Sequence[str] | None = None,
        dataset: str | None = None,
    ) -> None:
        """Declare ``relation`` writable, seeding its maintenance shadow.

        The engine keeps a bag-semantics shadow of every writable relation to
        push writes through fragment definitions; ``rows`` is the relation's
        current (already materialized) content.  The column order comes from
        ``columns``, the registered relational schema of ``dataset`` (or any
        dataset declaring the table), or the first row's keys.
        """
        if columns is None:
            for name, schema in self._relational_schemas.items():
                if dataset is not None and name != dataset:
                    continue
                if relation in schema:
                    columns = schema.table(relation).columns
                    break
        rows = [dict(row) for row in rows]
        if columns is None:
            if not rows:
                raise MaintenanceError(
                    f"relation {relation!r} is not in a registered relational schema; "
                    "pass columns= (or non-empty rows) to declare its column order"
                )
            columns = tuple(rows[0])
        self._maintenance.register_relation(relation, columns, rows)

    def insert(
        self,
        relation: str,
        rows: Mapping[str, object] | Sequence[Mapping[str, object]],
        cancel: "threading.Event | None" = None,
    ) -> int:
        """Insert rows into a writable base relation (see :meth:`_write`)."""
        return self._write(relation, inserts=rows, cancel=cancel)

    def delete(
        self,
        relation: str,
        rows: Mapping[str, object] | Sequence[Mapping[str, object]],
        cancel: "threading.Event | None" = None,
    ) -> int:
        """Delete exact rows from a writable base relation (strict bag match)."""
        return self._write(relation, deletes=rows, cancel=cancel)

    def update(
        self,
        relation: str,
        before: Mapping[str, object] | Sequence[Mapping[str, object]],
        after: Mapping[str, object] | Sequence[Mapping[str, object]],
        cancel: "threading.Event | None" = None,
    ) -> int:
        """Replace ``before`` rows with ``after`` rows (a delete plus an insert)."""
        return self._write(relation, inserts=after, deletes=before, cancel=cancel)

    @staticmethod
    def _normalize_rows(
        rows: Mapping[str, object] | Sequence[Mapping[str, object]],
    ) -> list[Mapping[str, object]]:
        if isinstance(rows, Mapping):
            return [rows]
        return list(rows)

    def _write(
        self,
        relation: str,
        inserts: Mapping[str, object] | Sequence[Mapping[str, object]] = (),
        deletes: Mapping[str, object] | Sequence[Mapping[str, object]] = (),
        cancel: "threading.Event | None" = None,
    ) -> int:
        """One DML statement: log fragment deltas, then (eagerly) maintain.

        The write lands in the maintenance engine's base shadow first (a
        delete of an absent row is refused outright with
        :class:`~repro.errors.DeltaError`) and each affected fragment's view
        delta is logged.  Under the eager policy the deltas are applied
        before returning; a store failure during application (e.g. a crashed
        replica mid-fan-out) propagates as its typed error with the delta
        still safely queued — the fragment is detectably stale, never
        silently wrong.  On durable stores the statement is one write group:
        each backing writes its records as one WAL frame with one fsync when
        the statement ends (even when it raises).

        A data write leaves the catalog epochs alone, so cached plans keep
        their keys; when the statement ends, :meth:`_replan` drops only the
        ones whose ranking inputs it moved.  An eager write whose fragments
        start and end fresh and do not drift keeps every cached plan.
        Returns the write's global sequence number.
        """
        inserts = self._normalize_rows(inserts)
        deletes = self._normalize_rows(deletes)
        seq, affected = self._maintenance.apply_write(
            relation, inserts=inserts, deletes=deletes
        )
        try:
            if self._write_policy == "eager" and affected:
                # The engine lock spans the group's commit, so a tombstone
                # fold's store dump never interleaves with another
                # statement's deltas.
                with self._maintenance.lock, write_group():
                    for fragment in affected:
                        self._maintenance.maintain(fragment, cancel=cancel)
        finally:
            self._replan(affected)
        return seq

    def maintain(
        self, fragment: str | None = None, cancel: "threading.Event | None" = None
    ) -> int:
        """Apply pending deltas (one fragment, or every stale one).

        Returns the number of store rows written.  Cached plans ranked while
        a maintained fragment was stale are dropped (see :meth:`_replan`),
        also when a later fragment's application fails or is cancelled.
        """
        engine = self._maintenance
        targets: Sequence[str] = ()
        try:
            with engine.lock, write_group():
                targets = (fragment,) if fragment is not None else engine.stale_fragments()
                return engine.maintain(fragment, cancel=cancel)
        finally:
            self._replan(targets)

    def _replan(self, fragments: Iterable[str]) -> None:
        """Drop the cached plans whose ranking inputs a finished statement moved.

        Of the entries over each of ``fragments`` (the fragments a write or
        maintenance pass touched), only those ranked under another backlog
        than the fragment has now go: the cost model prices a backlog, so a
        deferred write that leaves a fragment stale, or maintenance that
        catches one up, re-plans the reads over it.  Every entry over a
        fragment whose statistics drifted past ``DRIFT_THRESHOLD`` goes too.
        """
        drifted = self._maintenance.take_drifted()
        with self._planning_lock:
            backlogs = self._statistics.backlogs()
            for name in drifted:
                self._plan_cache.invalidate_fragment(name)
            for name in fragments:
                self._plan_cache.invalidate_fragment(name, backlogs.get(name, 0))

    @property
    def durable_path(self) -> str | None:
        """The directory the facade's stores persist under (None = in-memory)."""
        return self._durable_path

    def compact(self) -> Mapping[str, object]:
        """Fold every store's WAL tail into fresh segments (see the backing).

        Delegates to the maintenance engine's
        :meth:`~repro.catalog.maintenance.MaintenanceEngine.compact_durable`
        over the registered stores; a no-op (empty report) on an in-memory
        facade.
        """
        return self._maintenance.compact_durable(self._manager.stores())

    def staleness(self, fragment: str | None = None):
        """One fragment's :class:`FragmentStaleness`, or every backlog's snapshot."""
        if fragment is not None:
            return self._statistics.fragment_staleness(fragment)
        return self._statistics.staleness_snapshot()

    def describe_writes(self) -> Mapping[str, object]:
        """JSON-friendly write-path state (policy, shadows, backlogs)."""
        description = dict(self._maintenance.describe())
        description["policy"] = self._write_policy
        description["staleness"] = self._statistics.staleness_snapshot()
        return description

    # -- plan cache --------------------------------------------------------------------
    def cache_stats(self) -> Mapping[str, object]:
        """Hit/miss/eviction counters and occupancy of the rewrite/plan cache.

        The top-level counters aggregate every namespace; the ``namespaces``
        key breaks them down per tenant namespace (plus the default ``""``
        namespace direct queries plan under).  ``statements`` /
        ``statement_hits`` / ``statement_misses`` describe the statement memo
        in front of it (SQL texts whose translation is being reused).
        """
        with self._planning_lock:
            return {
                **self._plan_cache.stats(),
                "statements": len(self._statements),
                "statement_hits": self._statement_hits,
                "statement_misses": self._statement_misses,
            }

    def clear_caches(self) -> None:
        """Drop every plan-cache entry, the statement memo *and* the core rewrite memos.

        After this call the next query is genuinely cold: its text is
        re-translated, the PACB pipeline re-chases and re-verifies
        containment from scratch instead of replaying memoized verdicts, and
        the persistent rewriter (whose constraint-set identities anchor the
        memo keys) is rebuilt.
        """
        from repro.core import clear_memos

        with self._planning_lock:
            self._plan_cache.clear()
            self._statements.clear()
            clear_memos()
            self._rewriter_instance = None
            self._rewriter_version = -1

    def _plan_cache_key(
        self, statement: _Statement, bound_parameters: Sequence[Variable]
    ) -> tuple[tuple, frozenset[str]]:
        """Normalized query shape + rewriting algorithm + relation epochs.

        The shape (``statement.head`` / ``statement.body``) keeps the query's
        actual variable names (a cached plan's operators emit those names,
        and the residual filters / output renaming applied around a cached
        plan must keep matching them) and its constants (they are baked into
        the compiled store requests).  The query language translators name
        variables deterministically from column names, so a repeated query
        template maps to the same key.  The shape is computed once per
        statement; everything below is read afresh on every call.

        Instead of the global catalog version, the key embeds the catalog's
        per-relation epoch signature over the query's *reachable* relations
        (the signature index's TGD/view closure of its body relations — a
        sound over-approximation of every relation and fragment its
        rewritings can mention).  Registering or dropping fragment #5000
        therefore only changes the keys of queries that could actually see
        it; everything else keeps hitting.  A data write changes no epoch
        (:meth:`_replan` drops what it moved).  Schema-level changes (dataset
        constraints) key on the coarse structural epoch.

        Returns the key plus the reachable-relation set, which the cache
        stores per entry for eager scoped invalidation.  Callers hold the
        planning lock.
        """
        bound = tuple(sorted(f"?{variable.name}" for variable in bound_parameters))
        reachable = self._rewriter_locked().index.closure(statement.relations)
        key = (
            self._algorithm,
            self._manager.structural_epoch,
            self._manager.epoch_signature(reachable),
            statement.head,
            statement.body,
            bound,
        )
        return key, reachable

    # -- query translation ----------------------------------------------------------------
    def translate_sql(self, dataset: str, sql: str) -> TranslatedQuery:
        """Translate a SQL query over a registered relational dataset."""
        schema = self._relational_schemas.get(dataset)
        if schema is None:
            raise TranslationError(f"dataset {dataset!r} is not a registered relational dataset")
        return SqlTranslator(schema).translate(sql)

    def document_query(self, collection: str) -> DocumentQuery:
        """Start a document query over a registered logical collection."""
        paths = self._document_collections.get(collection)
        if paths is None:
            raise TranslationError(f"collection {collection!r} is not registered")
        return DocumentQuery(collection=collection, paths=paths)

    # -- the query evaluator -----------------------------------------------------------------
    def _rewriter(self) -> Rewriter:
        with self._planning_lock:
            return self._rewriter_locked()

    def _rewriter_locked(self) -> Rewriter:
        version = self._manager.version
        if self._rewriter_instance is None or self._rewriter_version != version:
            self._rewriter_instance = Rewriter(
                views=self._manager.view_definitions(),
                schema_constraints=self._manager.schema_constraints(),
                access_patterns=self._manager.access_pattern_registry(),
                algorithm=self._algorithm,
                # Over the manager, not the facade: the facade holds the
                # rewriter, and a cycle would keep a dropped facade alive.
                cost_bound_factory=partial(
                    self._cost_model.rewriting_bound, partial(_data_model_for, self._manager)
                ),
            )
            self._rewriter_version = version
        return self._rewriter_instance

    def explain(
        self,
        query: ConjunctiveQuery | str,
        dataset: str | None = None,
        bound_parameters: Sequence[Variable] = (),
    ) -> Explanation:
        """Rewrite and plan a query without executing it (demo steps 1–2)."""
        statement = self._to_pivot(query, dataset)
        explanation = self._explain_pivot(statement.pivot_query, bound_parameters)
        if explanation.chosen is not None:
            explanation.root = self._lower(statement, explanation.chosen)
        return explanation

    def _explain_pivot(
        self, pivot_query: ConjunctiveQuery, bound_parameters: Sequence[Variable]
    ) -> Explanation:
        rewriter = self._rewriter()
        outcome: RewritingOutcome = rewriter.rewrite(
            pivot_query, bound_parameters=bound_parameters
        )
        planner = Planner(self._manager, cost_model=self._cost_model)
        chooser = PlanChooser(planner, self._cost_model)
        ranked: list[RankedPlan] = []
        chosen: RankedPlan | None = None
        notes: list[str] = list(outcome.notes)
        if outcome.feasible_rewritings:
            try:
                ranked = chooser.rank(outcome.feasible_rewritings, bound_parameters=bound_parameters)
                chosen = ranked[0]
            except NoRewritingFoundError as error:
                notes.append(str(error))
        else:
            notes.append("no feasible rewriting over the registered fragments")
        return Explanation(
            pivot_query=pivot_query,
            rewritings=outcome.rewritings,
            feasible_rewritings=outcome.feasible_rewritings,
            ranked_plans=ranked,
            chosen=chosen,
            rewriting_seconds=outcome.elapsed_seconds,
            algorithm=outcome.algorithm,
            notes=notes,
        )

    def query(
        self,
        query: ConjunctiveQuery | str | DocumentQuery,
        dataset: str | None = None,
        bound_parameters: Sequence[Variable] = (),
        parallelism: int | None = None,
        tenant: str | None = None,
        deadline_seconds: float | None = None,
        max_staleness: int | None = None,
    ) -> QueryResult:
        """Answer a query over the registered fragments (demo step 3).

        ``query`` may be a pivot conjunctive query, SQL text (``dataset`` must
        name a relational dataset), or a :class:`DocumentQuery`.
        ``parallelism`` overrides the instance-wide executor width for this
        query (1 forces serial execution).  ``tenant`` selects the plan-cache
        namespace the query plans under (the serving layer passes each
        session's tenant so cache churn stays isolated); ``deadline_seconds``
        bounds the execution wall clock — an overrunning query cancels its
        store requests cooperatively and raises
        :class:`~repro.errors.DeadlineExceededError`.

        ``max_staleness`` bounds how many pending maintenance deltas a
        fragment serving this read may carry: the ranked plans are searched
        for one within the bound, and when none qualifies the cheapest plan's
        stale fragments are maintained synchronously first (``0`` therefore
        reads exactly the written state — fresh-fragment fallback when one
        exists, forced maintenance otherwise).  Staleness-bounded queries
        always execute inline, never through ``REPRO_SERVICE`` routing.
        """
        if max_staleness is None and self._service_routing:
            from repro.service import in_service_worker

            if not in_service_worker():
                ambient = self._ambient_service
                if ambient is None:
                    from repro.service import QueryService, TenantPolicy

                    ambient = QueryService(
                        self,
                        workers=2,
                        default_policy=TenantPolicy(
                            max_concurrent=8, queue_depth=100_000
                        ),
                    )
                    self._ambient_service = ambient
                return ambient.execute(
                    query,
                    dataset=dataset,
                    bound_parameters=bound_parameters,
                    parallelism=parallelism,
                    tenant=tenant or "default",
                    deadline_seconds=deadline_seconds,
                ).result
        namespace = tenant if tenant is not None else DEFAULT_CACHE_NAMESPACE
        # A warm SQL text takes the planning lock once, for dict work only:
        # its memoized statement, the epoch check and the plan-cache lookup.
        memo_key = (dataset, query) if isinstance(query, str) and dataset is not None else None
        with self._planning_lock:
            statement = self._statements.get(memo_key) if memo_key is not None else None
            if statement is not None:
                self._statements.move_to_end(memo_key)
                self._statement_hits += 1
                explanation, cache_hit = self._plan(statement, bound_parameters, namespace)
            elif memo_key is not None:
                self._statement_misses += 1
        if statement is None:
            # Translation runs outside the lock; only a success is kept.
            statement = self._to_pivot(query, dataset)
            with self._planning_lock:
                if memo_key is not None:
                    self._statements[memo_key] = statement
                    if len(self._statements) > self._statement_capacity:
                        self._statements.popitem(last=False)
                explanation, cache_hit = self._plan(statement, bound_parameters, namespace)
        if explanation.chosen is None:
            raise NoRewritingFoundError(
                f"query {statement.pivot_query.name!r} cannot be answered from the registered "
                "fragments: " + "; ".join(explanation.notes)
            )
        selected = explanation.chosen
        if max_staleness is not None:
            selected = self._select_for_staleness(explanation, max_staleness)
        lowered = statement.lowered
        if lowered is None or lowered[0] is not selected:
            root = self._lower(statement, selected)
            # Rendered once per lowered tree.
            lowered = statement.lowered = (selected, root, root.explain())
        _, root, plan_text = lowered
        result = self._engine.execute(
            root, parallelism=parallelism, deadline_seconds=deadline_seconds
        )
        result.cache_hit = cache_hit
        sharding_note = ""
        if result.shards_contacted or result.shards_pruned:
            sharding_note = (
                f", shards: {result.shards_contacted} contacted"
                f" / {result.shards_pruned} pruned"
            )
        result.plan_description = (
            plan_text
            + f"\n-- plan cache: {'hit' if cache_hit else 'miss'}"
            + f", batches: {result.batches}"
            + f", parallelism: {result.parallelism}"
            + sharding_note
        )
        self._absorb_observations(result)
        for fragment in self._plan_fragments(selected):
            self._statistics.record_fragment_read(fragment, result.elapsed_seconds)
        return result

    def _plan(
        self, statement: _Statement, bound_parameters: Sequence[Variable], namespace: str
    ) -> tuple[Explanation, bool]:
        """The statement's (explanation, cache hit) — planning-lock holders only.

        The plan cache is the authority on every call: the key's epoch half
        is recomputed and the namespace's LRU consulted, so invalidation,
        eviction, tenant isolation and the hit/miss counters are untouched by
        the statement memo in front of it.
        """
        cache_key, reachable = self._plan_cache_key(statement, bound_parameters)
        explanation = self._plan_cache.get(cache_key, namespace)
        if explanation is not None:
            return explanation, True
        # Read before ranking: a backlog that moves while this ranks then
        # differs from the recorded one, and the mover's _replan drops it.
        backlogs = {
            name: count
            for name, count in self._statistics.backlogs().items()
            if name in reachable
        }
        explanation = self._explain_pivot(statement.pivot_query, bound_parameters)
        if explanation.chosen is not None:
            self._plan_cache.put(cache_key, explanation, reachable, namespace, backlogs)
        return explanation, False

    def _plan_fragments(self, ranked: RankedPlan) -> frozenset[str]:
        """Every fragment a ranked plan's delegated accesses touch."""
        return frozenset(
            access.descriptor.fragment_name
            for group in ranked.plan.groups
            for access in group.accesses
        )

    def _select_for_staleness(self, explanation: Explanation, bound: int) -> RankedPlan:
        """The best plan within the staleness bound, maintaining if none is.

        Scans the explanation's ranked plans (cheapest first) for one whose
        fragments all carry at most ``bound`` pending deltas — a fresh copy
        of the data beats forced maintenance.  When every plan is over the
        bound, the cheapest plan's stale fragments are maintained
        synchronously; an unmaintainable stale fragment (its base relations
        are not shadowed) raises :class:`~repro.errors.StaleFragmentError`
        rather than serving data known to be wrong.
        """
        bound = max(0, bound)

        def worst(ranked: RankedPlan) -> int:
            return max(
                (
                    self._statistics.fragment_staleness(name).pending_deltas
                    for name in self._plan_fragments(ranked)
                ),
                default=0,
            )

        for ranked in explanation.ranked_plans:
            if worst(ranked) <= bound:
                return ranked
        chosen = explanation.chosen
        assert chosen is not None
        stale = sorted(
            name
            for name in self._plan_fragments(chosen)
            if self._statistics.fragment_staleness(name).pending_deltas > bound
        )
        unmanaged = [
            name for name in stale if name not in self._maintenance.watched_fragments()
        ]
        if unmanaged:
            raise StaleFragmentError(
                f"fragments {unmanaged!r} exceed max_staleness={bound} and are not "
                "under incremental maintenance (re-register them to refresh)"
            )
        for name in stale:
            self.maintain(name)
        return chosen

    def _absorb_observations(self, result: QueryResult) -> None:
        """Close the runtime → planner loop with the query's observed cardinalities.

        Every fully-drained, unrestricted fragment scan of the execution
        reported its row count; each is folded into the statistics catalog's
        exponentially-weighted estimate.  When a fragment's estimate drifts
        past the threshold, cached plans that relied on it are invalidated so
        the next query re-plans against the refreshed statistics.
        """
        if not result.observed_cardinalities and not result.observed_shard_cardinalities:
            return  # filtered or partial scans only: nothing to learn, no lock
        with self._planning_lock:
            for fragment, observed_rows in result.observed_cardinalities.items():
                drift = self._cost_model.record_observation(fragment, observed_rows)
                if drift is not None and drift > DRIFT_THRESHOLD:
                    self._plan_cache.invalidate_fragment(fragment)
            # Per-shard observations from sharded fan-out scans: a shard whose
            # row count drifted re-prices the pruning / fan-out trade-off, so
            # cached plans over the fragment are dropped and re-planned against
            # the refreshed per-shard statistics.
            for fragment, per_shard in result.observed_shard_cardinalities.items():
                for shard, observed_rows in per_shard.items():
                    drift = self._statistics.record_shard_observation(
                        fragment, shard, observed_rows
                    )
                    if drift is not None and drift > DRIFT_THRESHOLD:
                        self._plan_cache.invalidate_fragment(fragment)

    # -- helpers ---------------------------------------------------------------------------------
    def _to_pivot(
        self, query: ConjunctiveQuery | str | DocumentQuery, dataset: str | None
    ) -> _Statement:
        if isinstance(query, ConjunctiveQuery):
            # Plain pivot conjunctive queries follow set semantics.
            return _Statement(query, StatementShape(distinct=True))
        if isinstance(query, DocumentQuery):
            pivot_query, output_names = query.to_pivot()
            outputs = _outputs(zip(output_names, pivot_query.head_terms))
            return _Statement(pivot_query, StatementShape(outputs=outputs))
        if isinstance(query, str):
            if dataset is None:
                raise TranslationError("SQL queries need the dataset argument")
            translated = self.translate_sql(dataset, query)
            aggregation = translated.aggregation
            shape = StatementShape(
                predicates=translated.residual_predicates,
                aggregate=(
                    None
                    if aggregation is None
                    else (aggregation.group_by, aggregation.aggregations, aggregation.scalar)
                ),
                outputs=_outputs(translated.outputs),
                distinct=translated.distinct,
                limit=translated.limit,
            )
            return _Statement(translated.query, shape)
        raise TranslationError(f"unsupported query type {type(query).__name__}")

    def _lower(self, statement: _Statement, ranked: RankedPlan) -> Operator:
        """The statement's whole tree over ``ranked``'s pinned joins, lowered."""
        return PhysicalPlanner().lower_tree(statement_tree(ranked.plan.logical, statement.shape))

    # -- storage advisor ------------------------------------------------------------------------
    def recommend_fragments(self, workload, **options):
        """Run the storage advisor on a workload (see :mod:`repro.advisor`)."""
        from repro.advisor import StorageAdvisor

        advisor = StorageAdvisor(self)
        return advisor.recommend(workload, **options)

    def autotune(self, policy=None, apply: bool = True, cancel=None) -> dict:
        """One pass of the self-tuning loop: detect drift, migrate, report.

        Runs the :class:`~repro.advisor.monitor.DriftMonitor` over the
        statistics the serving layer already gathered, plans migrations for
        the actionable findings and — when ``apply`` is true — executes them
        live through :meth:`migrate_fragment`.  A migration that fails or is
        cancelled rolls back and is reported, never raised; the pass is safe
        to run unattended on a timer (see
        :meth:`repro.service.QueryService.start_autotune`).

        Returns a JSON-friendly report: ``findings`` (all drift symptoms,
        most severe first), ``actions`` (the planned migrations and — with
        the policy's ``retire_cold`` set — cold-fragment retirements),
        ``migrations`` (per-migration outcome with the final phase) and
        ``retirements`` (per-retirement outcome; a retirement drops the
        fragment through :meth:`drop_fragment`, i.e. the scoped epoch
        invalidation path).
        """
        from repro.advisor.monitor import DriftMonitor, RetirementAction
        from repro.errors import MigrationError, UnknownFragmentError

        monitor = DriftMonitor(self, policy)
        findings = monitor.findings()
        actions = monitor.plan_actions(findings)
        outcomes: list[dict] = []
        retirements: list[dict] = []
        if apply:
            for action in actions:
                if cancel is not None and cancel.is_set():
                    break
                if isinstance(action, RetirementAction):
                    try:
                        self.drop_fragment(action.fragment)
                    except UnknownFragmentError as exc:
                        retirements.append(
                            {**action.describe(), "phase": "failed", "error": str(exc)}
                        )
                    else:
                        retirements.append(
                            {**action.describe(), "phase": "retired", "error": None}
                        )
                    continue
                if self.migrations.active() is not None:
                    outcomes.append(
                        {**action.describe(), "phase": "skipped",
                         "error": "another migration is in flight"}
                    )
                    continue
                try:
                    migration = self.migrate_fragment(
                        action.fragment, action.target_store, cancel=cancel
                    )
                except MigrationError as exc:
                    outcomes.append({**action.describe(), "phase": "failed", "error": str(exc)})
                else:
                    outcomes.append(
                        {**action.describe(), "phase": migration.phase, "error": migration.error}
                    )
        return {
            "findings": [finding.describe() for finding in findings],
            "actions": [action.describe() for action in actions],
            "migrations": outcomes,
            "retirements": retirements,
        }
