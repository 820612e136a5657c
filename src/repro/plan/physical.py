"""The physical planning pass: logical IR → runtime operator tree.

Lowering decides *how* each logical step executes:

* each delegation group is compiled into the store-request micro-IR — scans
  with pushed-down equality predicates, key lookups when constants pin the
  whole key, or delegated joins for join-capable stores;
* each logical join becomes a :class:`~repro.runtime.operators.BindJoin` when
  the right group's access pattern requires left-produced values, and
  otherwise a hash join *or* a bind join — with a cost model, the cheaper of
  the two is picked from the estimated left cardinality and the store's cost
  profile (per-probe lookups beat a full scan when the left side is small);
* projection and duplicate elimination map onto the streaming
  :class:`~repro.runtime.operators.Project` / ``Deduplicate`` operators; the
  facade's residual assembly then lowers the terminal
  Filter → Project → Output (→ LIMIT) chain into kernel stages fused into a
  single :class:`~repro.runtime.kernels.FusedPipeline`
  (:func:`~repro.runtime.kernels.attach_stage`), which
  :func:`push_partial_aggregation` sees through like a plain ``Project``;
* every delegated store request — the independent subtrees of the plan:
  distinct delegation groups, the build and probe sides of hash joins — is
  wrapped in an :class:`~repro.runtime.parallel.Exchange` node, the explicit
  marker the engine uses to overlap store requests when executing with
  ``parallelism > 1`` (with ``parallelism == 1`` an Exchange is a pure
  pass-through, so the serial plan semantics are unchanged);
* a scan of a fragment in a **sharded store** lowers to one delegated request
  *per target shard* (each against the shard's child store, each wrapped in
  its own Exchange) united by a
  :class:`~repro.runtime.operators.ShardGather` — a pruned point access
  contacts a single shard, an unpruned scan scatter-gathers across all of
  them; :func:`push_partial_aggregation` additionally rewrites
  ``Aggregate ∘ (Project ∘) ShardGather`` into per-shard
  :class:`~repro.runtime.operators.PartialAggregate` branches merged by a
  :class:`~repro.runtime.operators.MergeAggregate`, so each shard reduces its
  own rows before anything crosses the exchange queues;
* a fragment in a **replicated store** compiles against the replica *router*
  rather than a pinned replica: plans are cached and re-executed, so binding
  a replica index at plan time would replay a cached plan against a replica
  that has since slowed down or died.  Replica selection is split between
  planning and execution: at planning time the cost model prices the access
  (and the hash-vs-bind choice) with the cheapest healthy replica's EWMA
  latency (:meth:`~repro.cost.cost_model.CostModel.request_latency_seconds`),
  and at execution time the router resolves the same health board into the
  actual attempt order, with bounded retry, failover and hedging
  (:mod:`repro.stores.replicated`).  The lowered operator is annotated with
  the replica count so ``explain()`` shows where dynamic routing happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.query import ConjunctiveQuery
from repro.errors import CatalogError, CostModelError, PlanningError, StoreError
from repro.plan.logical import (
    LogicalAccess,
    LogicalDistinct,
    LogicalJoin,
    LogicalNode,
    LogicalPlan,
    LogicalProject,
)
from repro.runtime.kernels import FusedPipeline, ProjectStage
from repro.runtime.operators import (
    BindJoin,
    Deduplicate,
    DelegatedRequest,
    HashJoin,
    MergeAggregate,
    Operator,
    PartialAggregate,
    Project,
    ShardGather,
)
from repro.runtime.parallel import Exchange
from repro.runtime.values import Binding
from repro.stores.base import JoinRequest, LookupRequest, Predicate, ScanRequest, StoreRequest
from repro.stores.replicated import ReplicatedStore
from repro.stores.sharded import ShardedStore
from repro.translation.grouping import AtomAccess, DelegationGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Mapping

    from repro.cost.cost_model import CostModel

__all__ = ["PhysicalPlan", "PhysicalPlanner", "push_partial_aggregation"]


@dataclass(slots=True)
class PhysicalPlan:
    """A physical plan: the operator tree plus planning metadata."""

    rewriting: ConjunctiveQuery
    root: Operator
    groups: list[DelegationGroup]
    head_variables: tuple[str, ...]
    logical: LogicalPlan | None = None

    def explain(self) -> str:
        """Printable plan (operator tree)."""
        return self.root.explain()


class PhysicalPlanner:
    """Lowers logical plans to operator trees, choosing join algorithms.

    Without a cost model the lowering is purely structural (hash joins unless
    an access pattern forces a bind join) — the seed planner's behavior.  With
    one, single-atom scannable groups may instead be probed per left row when
    the estimated probe cost undercuts the scan.
    """

    def __init__(self, cost_model: "CostModel | None" = None) -> None:
        self._cost_model = cost_model

    # -- lowering -----------------------------------------------------------------
    def lower(self, logical: LogicalPlan) -> PhysicalPlan:
        """Lower ``logical`` to a physical plan."""
        accesses_so_far: list[AtomAccess] = []
        root = self._lower_node(logical.root, accesses_so_far)
        return PhysicalPlan(
            rewriting=logical.rewriting,
            root=root,
            groups=logical.groups,
            head_variables=logical.head_variables,
            logical=logical,
        )

    def _lower_node(self, node: LogicalNode, accesses_so_far: list[AtomAccess]) -> Operator:
        if isinstance(node, LogicalAccess):
            operator = self._delegated_operator(
                node.group, shard_targets=node.shard_targets, shard_total=node.shard_total
            )
            accesses_so_far.extend(node.group.accesses)
            return operator
        if isinstance(node, LogicalJoin):
            left = self._lower_node(node.left, accesses_so_far)
            operator = self._lower_join(left, node, accesses_so_far)
            accesses_so_far.extend(node.right.group.accesses)
            return operator
        if isinstance(node, LogicalProject):
            return Project(self._lower_node(node.child, accesses_so_far), node.variables)
        if isinstance(node, LogicalDistinct):
            return Deduplicate(self._lower_node(node.child, accesses_so_far))
        raise PlanningError(f"cannot lower logical node {type(node).__name__}")

    def _lower_join(
        self, left: Operator, node: LogicalJoin, accesses_so_far: list[AtomAccess]
    ) -> Operator:
        group = node.right.group
        if node.requires_binding:
            return self._bind_join(left, group)
        algorithm = node.algorithm or self._choose_algorithm(group, accesses_so_far)
        if algorithm == "bind":
            probe_columns = self._bound_probe_columns(group.accesses[0], accesses_so_far)
            return self._bind_join(left, group, probe_columns=probe_columns)
        return HashJoin(
            left,
            self._delegated_operator(
                group,
                shard_targets=node.right.shard_targets,
                shard_total=node.right.shard_total,
            ),
        )

    # -- join algorithm choice ---------------------------------------------------------
    @staticmethod
    def _bound_probe_columns(
        access: AtomAccess, accesses_so_far: list[AtomAccess]
    ) -> tuple[str, ...]:
        """Columns of ``access`` whose variable the left side already produces."""
        produced = set()
        for earlier in accesses_so_far:
            produced.update(earlier.atom.variable_set())
        return tuple(
            column
            for column, variable in access.variable_by_column().items()
            if variable in produced
        )

    def _choose_algorithm(
        self, group: DelegationGroup, accesses_so_far: list[AtomAccess]
    ) -> str:
        """'hash' or 'bind' for a group that does not *require* binding."""
        if self._cost_model is None or not group.is_single():
            return "hash"
        access = group.accesses[0]
        if access.descriptor.access.kind == "lookup":
            # Constants already pin the key: the delegated lookup is a point
            # access, nothing to gain from per-row probing.
            return "hash"
        if not access.store.capabilities().supports_selection:
            return "hash"
        probe_columns = self._bound_probe_columns(access, accesses_so_far)
        if not probe_columns:
            return "hash"
        try:
            left_rows = self._cost_model.estimator.estimate_rows(accesses_so_far)
            return self._cost_model.join_algorithm(
                access, left_rows, probe_columns=probe_columns
            )
        except (CatalogError, StoreError, CostModelError):
            # Missing statistics (e.g. unmaterialized fragment) fall back to
            # the structural default rather than failing the plan.
            return "hash"

    # -- delegated requests --------------------------------------------------------------
    def _delegated_operator(
        self,
        group: DelegationGroup,
        shard_targets: tuple[int, ...] | None = None,
        shard_total: int = 0,
    ) -> Operator:
        """One delegation group as an Exchange-wrapped store request subtree.

        Each delegated request is an independent leaf of the plan — exactly
        the unit the scatter-gather runtime overlaps — so every one is marked
        with an :class:`Exchange` here.  A scan of a sharded fragment becomes
        one request per target shard under a :class:`ShardGather`.  Requests
        against a replicated store target the router (replica selection is
        resolved per execution from the live health board, never baked into
        the cached plan) and carry a ``×Nr`` annotation in the plan text.
        """
        if group.is_single():
            access = group.accesses[0]
            request, output, residual = self._scan_request(access)
            if shard_targets is not None and isinstance(request, ScanRequest):
                return self._sharded_scan(
                    access, request, output, residual, shard_targets, shard_total
                )
            operator = DelegatedRequest(
                store=group.store,
                request=request,
                output=output,
                constants=residual,
                label=access.descriptor.layout.collection,
                fragment=access.descriptor.fragment_name,
            )
            return Exchange(operator, label=self._exchange_label(group.store, access))
        try:
            request, output, residual = self._join_request(group)
        except PlanningError:
            # The store-side join would clobber a column (two collections expose
            # the same column name bound to different variables): fall back to
            # per-fragment delegation joined at the mediator.
            root: Operator | None = None
            for access in group.accesses:
                request, output, residual = self._scan_request(access)
                operator = Exchange(
                    DelegatedRequest(
                        store=group.store,
                        request=request,
                        output=output,
                        constants=residual,
                        label=access.descriptor.layout.collection,
                        fragment=access.descriptor.fragment_name,
                    ),
                    label=access.descriptor.fragment_name,
                )
                root = operator if root is None else HashJoin(root, operator)
            return root
        label = "+".join(a.descriptor.layout.collection for a in group.accesses)
        return Exchange(
            DelegatedRequest(
                store=group.store,
                request=request,
                output=output,
                constants=residual,
                label=label,
            ),
            label=label,
        )

    @staticmethod
    def _exchange_label(store, access: AtomAccess) -> str:
        """Exchange display label; replicated stores advertise their fan size."""
        label = access.descriptor.fragment_name
        if isinstance(store, ReplicatedStore):
            return f"{label}×{store.replica_count}r"
        return label

    def _sharded_scan(
        self,
        access: AtomAccess,
        request: ScanRequest,
        output: dict[str, str],
        residual: dict[str, object],
        shard_targets: tuple[int, ...],
        shard_total: int,
    ) -> Operator:
        """Scatter a sharded fragment scan: one delegated request per shard.

        Each per-shard request targets the shard's *child* store directly and
        is wrapped in its own Exchange, so the scatter-gather executor
        overlaps the shard round-trips; the :class:`ShardGather` above them
        unions the disjoint shard streams and accounts contacted vs pruned
        shards.  A pruned access (one target) keeps the same shape — a
        single-branch gather — so plan rendering and metrics stay uniform.
        """
        store = access.store
        if not isinstance(store, ShardedStore):
            raise PlanningError(
                f"fragment {access.descriptor.fragment_name!r} has shard targets but "
                f"store {store.name!r} is not sharded"
            )
        fragment = access.descriptor.fragment_name
        collection = access.descriptor.layout.collection
        branches: list[Operator] = []
        for index in shard_targets:
            operator = DelegatedRequest(
                store=store.shard(index),
                request=request,
                output=output,
                constants=residual,
                label=f"{collection}#{index}",
                fragment=fragment,
                shard=index,
            )
            branches.append(Exchange(operator, label=f"{fragment}#{index}"))
        return ShardGather(branches, fragment=fragment, shards_total=shard_total)

    def _scan_request(
        self, access: AtomAccess
    ) -> tuple[StoreRequest, dict[str, str], dict[str, object]]:
        """Compile one atom into a scan/lookup request plus its output mapping."""
        layout = access.descriptor.layout
        capabilities = access.store.capabilities()

        # A lookup fragment whose key columns are all pinned by constants is a
        # point access: emit a LookupRequest (key-value stores reject scans).
        key_columns = access.descriptor.access.key_columns
        constants_by_column = access.constant_by_column()
        if (
            access.descriptor.access.kind == "lookup"
            and key_columns
            and all(column in constants_by_column for column in key_columns)
        ):
            output = {
                layout.store_column(column): variable.name
                for column, variable in access.variable_by_column().items()
            }
            residual = {
                layout.store_column(column): value
                for column, value in constants_by_column.items()
                if column not in key_columns
            }
            request: StoreRequest = LookupRequest(
                collection=layout.collection,
                keys=tuple(constants_by_column[column] for column in key_columns[:1]),
            )
            return request, output, residual

        predicates: list[Predicate] = []
        residual: dict[str, object] = {}
        for column, value in access.constant_by_column().items():
            store_column = layout.store_column(column)
            if capabilities.supports_selection or column in access.input_columns():
                predicates.append(Predicate(store_column, "=", value))
            else:
                residual[store_column] = value
        output = {
            layout.store_column(column): variable.name
            for column, variable in access.variable_by_column().items()
        }
        request = ScanRequest(
            collection=layout.collection,
            predicates=tuple(predicates),
            projection=None,
        )
        return request, output, residual

    def _join_request(
        self, group: DelegationGroup
    ) -> tuple[StoreRequest, dict[str, str], dict[str, object]]:
        """Compile a multi-atom group into one delegated join request."""
        requests: list[StoreRequest] = []
        outputs: list[dict[str, str]] = []
        residuals: dict[str, object] = {}
        for access in group.accesses:
            request, output, residual = self._scan_request(access)
            requests.append(request)
            outputs.append(output)
            residuals.update(residual)

        # Column-name collisions across collections (other than the join
        # columns) would be clobbered by the store-side merge; fall back to a
        # mediator join in that case by raising, the caller catches this.
        merged_output: dict[str, str] = {}
        for output in outputs:
            for store_column, variable in output.items():
                existing = merged_output.get(store_column)
                if existing is not None and existing != variable:
                    raise PlanningError(
                        "store-side join would clobber column "
                        f"{store_column!r}; delegation not possible"
                    )
                merged_output[store_column] = variable

        joined = requests[0]
        joined_output = dict(outputs[0])
        for request, output in zip(requests[1:], outputs[1:]):
            variable_to_column_left = {v: c for c, v in joined_output.items()}
            on: list[tuple[str, str]] = []
            for store_column, variable in output.items():
                left_column = variable_to_column_left.get(variable)
                if left_column is not None:
                    on.append((left_column, store_column))
            if not on:
                raise PlanningError("delegated join has no shared variables")
            joined = JoinRequest(left=joined, right=request, on=tuple(on))
            joined_output.update(output)
        return joined, merged_output, residuals

    # -- bind joins ----------------------------------------------------------------------
    def _bind_join(
        self,
        left: Operator,
        group: DelegationGroup,
        probe_columns: tuple[str, ...] | None = None,
    ) -> Operator:
        """Probe a group once per left binding.

        ``probe_columns`` are the columns fed from the left side; by default
        the fragment's access-pattern input columns (the access-restricted
        case), or — for a cost-chosen bind join over a scannable fragment —
        the columns whose variables the left side produces.
        """
        if not group.is_single():
            raise PlanningError("bind joins are built one access-restricted atom at a time")
        access = group.accesses[0]
        layout = access.descriptor.layout
        input_columns = (
            tuple(probe_columns) if probe_columns is not None else access.input_columns()
        )
        lookup_key_columns = access.descriptor.access.key_columns or input_columns[:1]

        # Columns whose value comes from the left side (variables already bound)
        # and columns fixed by constants in the atom.
        constants = access.constant_by_column()
        variables = access.variable_by_column()

        def request_factory(binding: Binding) -> StoreRequest | None:
            key_values: list[object] = []
            predicates: list[Predicate] = []
            for column in input_columns:
                if column in constants:
                    value = constants[column]
                else:
                    variable = variables.get(column)
                    if variable is None or variable.name not in binding:
                        return None
                    value = binding[variable.name]
                if column in lookup_key_columns and access.descriptor.access.kind == "lookup":
                    key_values.append(value)
                else:
                    predicates.append(Predicate(layout.store_column(column), "=", value))
            if access.descriptor.access.kind == "lookup":
                if not key_values:
                    return None
                return LookupRequest(
                    collection=layout.collection,
                    keys=tuple(key_values),
                )
            # Non-lookup probe: a scan restricted by the bound columns plus the
            # atom's own constants.
            for column, value in constants.items():
                store_column = layout.store_column(column)
                if all(store_column != p.column for p in predicates):
                    predicates.append(Predicate(store_column, "=", value))
            return ScanRequest(collection=layout.collection, predicates=tuple(predicates))

        output = {
            layout.store_column(column): variable.name
            for column, variable in variables.items()
        }
        # Constants are re-checked on the probe results: lookup requests cannot
        # carry extra predicates, and double-checking scans is harmless.
        residual = {
            layout.store_column(column): value for column, value in constants.items()
        }
        return BindJoin(
            left=left,
            store=group.store,
            request_factory=request_factory,
            output=output,
            constants=residual,
            label=layout.collection,
        )


# -- partial aggregation pushdown ------------------------------------------------------
def push_partial_aggregation(
    root: Operator,
    group_by: Sequence[str],
    aggregations: "Mapping[str, tuple[str, str | None]]",
) -> Operator | None:
    """Rewrite ``Aggregate(root)`` into per-shard partials when ``root`` allows.

    Applies when the plan is a (possibly projected) single sharded fragment
    access — ``Project(ShardGather(...))`` or a bare ``ShardGather`` — and
    every aggregation function decomposes (count/sum/min/max/avg).  Each
    gather branch is rebuilt as ``Exchange(PartialAggregate(shard scan))`` so
    the blocking per-shard reduction runs on the Exchange worker that owns
    the shard, and a :class:`MergeAggregate` above the gather combines the
    partial states.  Returns ``None`` when the shape does not match; the
    caller then falls back to a plain mediator-side ``Aggregate``.
    """
    node = root
    projected: set[str] | None = None
    if isinstance(node, Project):
        projected = set(node.variables)
        node = node.children()[0]
    elif isinstance(node, FusedPipeline) and node.limit is None:
        # The facade's lowering turns the terminal Project into a fused
        # ProjectStage chain; the pushdown sees through it the same way
        # (rename-free stages only — a renamed column would decouple the
        # stage's outputs from the aggregation's input names).
        stages = node.stages
        if (
            stages
            and all(
                isinstance(stage, ProjectStage) and not stage.renaming
                for stage in stages
            )
        ):
            projected = set(stages[-1].variables)
            node = node.child
    if not isinstance(node, ShardGather):
        return None
    needed = set(group_by) | {
        column for _, column in aggregations.values() if column is not None
    }
    if projected is not None and not needed <= projected:
        return None
    if any(function not in {"count", "sum", "min", "max", "avg"} for function, _ in aggregations.values()):
        return None
    branches: list[Operator] = []
    for branch in node.branches:
        inner = branch.children()[0] if isinstance(branch, Exchange) else branch
        label = getattr(branch, "label", "")
        branches.append(
            Exchange(PartialAggregate(inner, group_by, aggregations), label=label)
        )
    gathered = ShardGather(
        branches, fragment=node.fragment, shards_total=node.shards_total
    )
    return MergeAggregate(gathered, group_by, aggregations)
