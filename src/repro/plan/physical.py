"""The physical planning pass: logical IR → runtime operator tree.

Lowering decides *how* each logical step executes:

* each delegation group is compiled into the store-request micro-IR — scans
  with pushed-down equality predicates, key lookups when constants pin the
  whole key, or delegated joins for join-capable stores;
* each logical join becomes a :class:`~repro.runtime.operators.HashJoin`.
  Its right side is *keyed* — fetched by the left side's distinct key
  values, ``batch_size`` keys per store request — when the right group's
  access pattern requires left-produced values, or when the cost model
  prefers such a bind join (from the estimated left cardinality and the
  store's cost profile); otherwise it is a plain delegated request.
  Ranking pins the choice into the plan's logical joins;
* **required columns** flow top-down: each node is lowered knowing which of
  its columns its ancestors read, so a delegated request fetches only those
  and a hash join emits exactly them, in the order its parent reads them;
* the statement's nodes map onto the runtime: each maximal
  Filter/Project/Output chain (under an optional Limit) becomes one
  :class:`~repro.runtime.kernels.FusedPipeline`, Distinct a ``Deduplicate``,
  and an Aggregate directly over a sharded scan per-shard
  :class:`~repro.runtime.operators.PartialAggregate` branches merged by a
  :class:`~repro.runtime.operators.MergeAggregate` (each shard reduces its own
  rows before anything crosses the exchange queues), any other Aggregate a
  plain ``Aggregate``;
* every delegated store request — the independent subtrees of the plan — is
  wrapped in an :class:`~repro.runtime.parallel.Exchange`, the marker the
  engine uses to overlap store requests with ``parallelism > 1`` (serially
  an Exchange is a pass-through); a scan of a fragment in a **sharded
  store** lowers to one such request *per target shard* under a
  :class:`~repro.runtime.operators.ShardGather`;
* a fragment in a **replicated store** compiles against the replica *router*,
  never a pinned replica: the cost model prices the access with the cheapest
  healthy replica's EWMA latency, and the router resolves the live health
  board into the attempt order per execution
  (:mod:`repro.stores.replicated`).  The plan text shows the replica count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.core.query import ConjunctiveQuery
from repro.errors import CatalogError, CostModelError, PlanningError, StoreError
from repro.plan.logical import (
    LogicalAccess,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalOutput,
    LogicalPlan,
    LogicalProject,
)
from repro.runtime.kernels import FilterStage, FusedPipeline, OutputStage, PredicateSpec, ProjectStage
from repro.runtime.operators import (
    Aggregate,
    Deduplicate,
    DelegatedRequest,
    HashJoin,
    MergeAggregate,
    Operator,
    PartialAggregate,
    ShardGather,
)
from repro.runtime.parallel import Exchange
from repro.stores.base import JoinRequest, LookupRequest, Predicate, ScanRequest, StoreRequest
from repro.stores.replicated import ReplicatedStore
from repro.stores.sharded import ShardedStore
from repro.translation.grouping import AtomAccess, DelegationGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cost.cost_model import CostModel

__all__ = ["PhysicalPlan", "PhysicalPlanner"]

# The nodes one FusedPipeline evaluates as kernel stages, and a chain's heads.
_STAGES = (LogicalFilter, LogicalProject, LogicalOutput)
_CHAIN = (LogicalLimit,) + _STAGES
_JOIN_TREE = (LogicalAccess, LogicalJoin)

# The comparisons a store request carries with the statement's semantics: a
# store's "!=" keeps a row whose value is None, which SQL drops.
_PUSHED_OPS = frozenset(("<", "<=", ">", ">="))


@dataclass(slots=True)
class PhysicalPlan:
    """A ranked rewriting: its logical plan with every join algorithm pinned.

    A statement lowers its own tree over ``logical``, fetching what it reads.
    """

    rewriting: ConjunctiveQuery
    groups: list[DelegationGroup]
    head_variables: tuple[str, ...]
    logical: LogicalPlan

    @property
    def root(self) -> Operator:
        """The rewriting on its own (its head projection), lowered anew on each read."""
        return PhysicalPlanner().lower_tree(self.logical.root)

    def explain(self) -> str:
        """Printable plan (operator tree)."""
        return self.root.explain()


Required = tuple[str, ...] | None  # the columns read above a node, in order; None: all


def _union(first: tuple[str, ...], second) -> tuple[str, ...]:
    """``first`` followed by the members of ``second`` it lacks."""
    return first + tuple(dict.fromkeys(v for v in second if v not in first))


def _produced(node: LogicalNode) -> tuple[str, ...]:
    """The variables a join tree's rows carry, in their natural order."""
    if isinstance(node, LogicalJoin):
        return _union(_produced(node.left), _produced(node.right))
    accesses = node.group.accesses
    return _union((), (v.name for a in accesses for v in a.variable_by_column().values()))


def _narrowed(output: dict[str, str], required: Required) -> dict[str, str]:
    """The ``store column -> variable`` pairs of ``output`` read above, in reading order."""
    if required is None:
        return output
    return {c: v for wanted in required for c, v in output.items() if v == wanted}


class PhysicalPlanner:
    """Lowers logical plans to operator trees, choosing join algorithms.

    Without a cost model the lowering is purely structural (plain hash joins
    unless an access pattern forces a keyed one) — the seed planner's
    behavior.  With one, single-atom scannable groups may instead be fetched
    by the left side's keys when the estimated probe cost undercuts the scan.
    """

    def __init__(self, cost_model: "CostModel | None" = None) -> None:
        self._cost_model = cost_model

    # -- lowering -----------------------------------------------------------------
    def lower(self, logical: LogicalPlan) -> PhysicalPlan:
        """Pin ``logical``'s join algorithms: the ranked physical plan."""
        joins = self._pin(logical.joins, [])
        return PhysicalPlan(
            rewriting=logical.rewriting,
            groups=logical.groups,
            head_variables=logical.head_variables,
            logical=replace(logical, root=replace(logical.root, child=joins)),
        )

    def _pin(self, node: LogicalNode, accesses_so_far: list[AtomAccess]) -> LogicalNode:
        """``node``'s join tree with every join's algorithm chosen."""
        if isinstance(node, LogicalJoin):
            left = self._pin(node.left, accesses_so_far)
            node = replace(node, left=left, algorithm=self._algorithm(node, accesses_so_far))
            accesses_so_far.extend(node.right.group.accesses)
        else:
            accesses_so_far.extend(node.group.accesses)
        return node

    def lower_tree(self, node: LogicalNode) -> Operator:
        """Lower a logical tree (a rewriting's, or a whole statement's).

        Comparisons go into the store requests that can take them first;
        then the root's every column is read, and below it each node gets
        only the columns its ancestors read.
        """
        return self._lower_node(self._push_comparisons(node), None, [])

    # -- comparisons into store requests ------------------------------------------------
    def _push_comparisons(self, node: LogicalNode) -> LogicalNode:
        """``node`` with each Filter's comparisons placed where they run once.

        A Filter directly over a join tree offers each literal ``<``, ``<=``,
        ``>`` or ``>=`` comparison to every scan of the tree that outputs the
        compared variable and whose store selects; a keyed join's right side
        takes none.  The Filter keeps what no scan took, and goes when that
        is nothing.
        """
        if isinstance(node, _JOIN_TREE):
            return node
        child = self._push_comparisons(node.child)
        if isinstance(node, LogicalFilter) and isinstance(child, _JOIN_TREE):
            offered = tuple(
                p
                for p in node.predicates
                if p.op in _PUSHED_OPS and not p.value_is_column and p.value is not None
            )
            taken: set[PredicateSpec] = set()
            child = self._offer(self._pin(child, []), offered, taken)
            kept = tuple(p for p in node.predicates if p not in taken)
            return replace(node, child=child, predicates=kept) if kept else child
        return node if child is node.child else replace(node, child=child)

    def _offer(
        self, node: LogicalNode, offered: tuple[PredicateSpec, ...], taken: set[PredicateSpec]
    ) -> LogicalNode:
        """``node``'s (pinned) join tree with ``offered`` placed on the scans that take them."""
        if isinstance(node, LogicalJoin):
            left, right = self._offer(node.left, offered, taken), node.right
            if node.algorithm != "bind":
                right = self._offer(right, offered, taken)
            return replace(node, left=left, right=right)
        accesses = node.group.accesses
        comparisons = tuple(p for p in offered if any(self._takes(a, p) for a in accesses))
        taken.update(comparisons)
        return replace(node, comparisons=comparisons) if comparisons else node

    def _takes(self, access: AtomAccess, comparison: PredicateSpec) -> bool:
        """Whether ``access``'s scan request can carry ``comparison``."""
        return (
            access.store.capabilities().supports_selection
            and not self._point_lookup(access)
            and any(v.name == comparison.column for v in access.variable_by_column().values())
        )

    def _lower_node(
        self, node: LogicalNode, required: Required, accesses_so_far: list[AtomAccess]
    ) -> Operator:
        if isinstance(node, LogicalAccess):
            operator = self._lower_access(node, required)
            accesses_so_far.extend(node.group.accesses)
            return operator
        if isinstance(node, LogicalJoin):
            return self._lower_join(node, required, accesses_so_far)
        if isinstance(node, _CHAIN):
            return self._lower_chain(node, required, accesses_so_far)
        if isinstance(node, LogicalAggregate):
            return self._lower_aggregate(node, accesses_so_far)
        if isinstance(node, LogicalDistinct):
            # Deduplication compares whole rows: it reads every column.
            return Deduplicate(self._lower_node(node.child, None, accesses_so_far))
        raise PlanningError(f"cannot lower logical node {type(node).__name__}")

    def _lower_chain(
        self, node: LogicalNode, required: Required, accesses_so_far: list[AtomAccess]
    ) -> Operator:
        """A maximal Filter/Project/Output chain, under an optional Limit, as one pipeline.

        A Limit only ever closes a chain from above: fusing a stage across it
        would filter before truncating.  The child is asked for the columns
        the chain reads, in the order the last stage reads them, so the
        stages' picks compose to nothing when no filter column rides along.
        """
        limit = None
        if isinstance(node, LogicalLimit):
            limit, node = node.count, node.child
        stages: list = []
        while isinstance(node, _STAGES):
            if isinstance(node, LogicalFilter):
                stages.append(FilterStage(node.predicates))
                if required is not None:
                    required = _union(required, [spec.column for spec in node.predicates] + [
                        spec.value for spec in node.predicates if spec.value_is_column
                    ])
            elif isinstance(node, LogicalProject):
                stages.append(ProjectStage(node.variables))
                read = tuple(v for v in required or () if v in node.variables)
                required = _union(read, node.variables)
            else:
                stages.append(OutputStage(node.outputs))
                required = tuple(
                    dict.fromkeys(payload for _, is_variable, payload in node.outputs if is_variable)
                )
            node = node.child
        child = self._lower_node(node, required, accesses_so_far)
        return FusedPipeline(child, tuple(reversed(stages)), limit)

    def _lower_aggregate(
        self, node: LogicalAggregate, accesses_so_far: list[AtomAccess]
    ) -> Operator:
        """Aggregate; directly over a sharded scan, partial per shard and merged.

        Each gather branch becomes ``Exchange(PartialAggregate(shard scan))``,
        so the blocking per-shard reduction runs on the worker that owns the
        shard, and a :class:`MergeAggregate` above the gather combines the
        partial states (every supported function decomposes).  The child is
        asked for the group-by and aggregated columns only.
        """
        child = node.child
        required = _union(
            node.group_by,
            (column for _, column in node.aggregations.values() if column is not None),
        )
        if isinstance(child, LogicalAccess):
            gathered = self._scatter(
                child,
                required,
                per_shard=lambda scan: PartialAggregate(scan, node.group_by, node.aggregations),
            )
            if gathered is not None:
                accesses_so_far.extend(child.group.accesses)
                return MergeAggregate(
                    gathered, node.group_by, node.aggregations, scalar=node.scalar
                )
        return Aggregate(
            self._lower_node(child, required, accesses_so_far),
            node.group_by,
            node.aggregations,
            scalar=node.scalar,
        )

    def _lower_join(
        self, node: LogicalJoin, required: Required, accesses_so_far: list[AtomAccess]
    ) -> Operator:
        """A join reading its keys and splitting what is read above between its sides."""
        left_variables, right_variables = _produced(node.left), _produced(node.right)
        produced = _union(left_variables, right_variables)
        required = produced if required is None else tuple(v for v in required if v in produced)
        keys = tuple(v for v in left_variables if v in right_variables)
        left_required = _union(tuple(v for v in required if v in left_variables), keys)
        right_required = _union(tuple(v for v in required if v in right_variables), keys)
        left = self._lower_node(node.left, left_required, accesses_so_far)
        if self._algorithm(node, accesses_so_far) == "bind":
            right = self._keyed_access(node, right_required, accesses_so_far)
        else:
            right = self._lower_access(node.right, right_required)
        accesses_so_far.extend(node.right.group.accesses)
        return HashJoin(left, right, columns=required)

    def _keyed_access(
        self, node: LogicalJoin, required: tuple[str, ...], accesses_so_far: list[AtomAccess]
    ) -> Operator:
        """The right side of a keyed join: fetched by the left side's distinct keys.

        The key is a lookup fragment's key column, else the first bound probe
        column: an access-pattern input column when the join requires
        binding, otherwise a column whose variable the left side produces.
        A lookup fetches ``LookupRequest(keys=...)``; a scan adds ``in`` to
        the atom's constants.  The constants are re-checked on every fetched
        row (a lookup cannot carry them).  A key pinned by a constant leaves
        a plain access: its point lookup needs nothing from the left.
        """
        access = node.right.group.accesses[0]
        layout, method = access.descriptor.layout, access.descriptor.access
        bound = self._bound_probe_columns(access, accesses_so_far)
        if method.kind == "lookup":
            candidates = (method.key_columns or access.input_columns())[:1]
        else:
            candidates = access.input_columns() if node.requires_binding else bound
        column = next((c for c in candidates if c in bound), None)
        if column is None:
            return self._lower_access(node.right, required)
        request, output, _ = self._scan_request(access)
        if method.kind == "lookup":
            request = LookupRequest(layout.collection, keys=())
        return DelegatedRequest(
            store=node.right.group.store,
            request=request,
            output=_narrowed(output, required),
            constants={layout.store_column(c): v for c, v in access.constant_by_column().items()},
            label=layout.collection,
            fragment=access.descriptor.fragment_name,
            key=layout.store_column(column),
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

    def _algorithm(self, node: LogicalJoin, accesses_so_far: list[AtomAccess]) -> str:
        """``node``'s join algorithm: pinned, forced by an access pattern, or chosen."""
        if node.requires_binding:
            if not node.right.group.is_single():
                raise PlanningError("bind joins are built one access-restricted atom at a time")
            return "bind"
        return node.algorithm or self._choose_algorithm(node.right.group, accesses_so_far)

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
    def _lower_access(self, node: LogicalAccess, required: Required) -> Operator:
        """One delegation group: scattered per shard when sharded, else one request."""
        scattered = self._scatter(node, required)
        if scattered is not None:
            return scattered
        return self._delegated_operator(node, required)

    def _delegated_operator(self, node: LogicalAccess, required: Required) -> Operator:
        """One delegation group as an Exchange-wrapped store request subtree.

        Each delegated request is an independent leaf of the plan — exactly
        the unit the scatter-gather runtime overlaps — so every one is marked
        with an :class:`Exchange` here.  Requests against a replicated store
        target the router (replica selection is resolved per execution from
        the live health board, never baked into the cached plan) and carry a
        ``×Nr`` annotation in the plan text.  Each request outputs only the
        ``required`` variables (residual constants are fetched beside them).
        """
        group, comparisons = node.group, node.comparisons
        where = [comparison.describe() for comparison in comparisons]
        if group.is_single():
            access = group.accesses[0]
            request, output, residual = self._scan_request(access, comparisons)
            operator = DelegatedRequest(
                store=group.store,
                request=request,
                output=_narrowed(output, required),
                constants=residual,
                label=access.descriptor.layout.collection,
                fragment=access.descriptor.fragment_name,
                where=where,
            )
            return Exchange(operator, label=self._exchange_label(group.store, access))
        try:
            request, output, residual = self._join_request(group, comparisons)
        except PlanningError:
            # The store-side join would clobber a column (two collections expose
            # the same column name bound to different variables): fall back to
            # per-fragment delegation hash-joined at the mediator.
            chain: LogicalNode | None = None
            for access in group.accesses:
                single = LogicalAccess(
                    DelegationGroup(group.store, [access]),
                    comparisons=tuple(c for c in comparisons if self._takes(access, c)),
                )
                chain = single if chain is None else LogicalJoin(chain, single, algorithm="hash")
            return self._lower_node(chain, required, [])
        label = "+".join(a.descriptor.layout.collection for a in group.accesses)
        return Exchange(
            DelegatedRequest(
                store=group.store,
                request=request,
                output=_narrowed(output, required),
                constants=residual,
                label=label,
                where=where,
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

    def _scatter(
        self,
        node: LogicalAccess,
        required: Required,
        per_shard: Callable[[Operator], Operator] | None = None,
    ) -> Operator | None:
        """A sharded fragment scan as one delegated request per target shard.

        ``None`` unless ``node`` is a single-fragment scan in a sharded store
        (a key lookup goes to the router instead).  Each per-shard request
        targets the shard's *child* store directly — wrapped by ``per_shard``
        when given — and sits in its own Exchange, so the scatter-gather
        executor overlaps the shard round-trips; the :class:`ShardGather`
        above them unions the disjoint shard streams and accounts contacted
        vs pruned shards.  A pruned access (one target) keeps the same shape.
        """
        if node.shard_targets is None or not node.group.is_single():
            return None
        access = node.group.accesses[0]
        request, output, residual = self._scan_request(access, node.comparisons)
        if not isinstance(request, ScanRequest):
            return None
        store = access.store
        if not isinstance(store, ShardedStore):
            raise PlanningError(
                f"fragment {access.descriptor.fragment_name!r} has shard targets but "
                f"store {store.name!r} is not sharded"
            )
        fragment = access.descriptor.fragment_name
        collection = access.descriptor.layout.collection
        output = _narrowed(output, required)
        branches: list[Operator] = []
        for index in node.shard_targets:
            operator: Operator = DelegatedRequest(
                store=store.shard(index),
                request=request,
                output=output,
                constants=residual,
                label=f"{collection}#{index}",
                fragment=fragment,
                shard=index,
                where=[comparison.describe() for comparison in node.comparisons],
            )
            if per_shard is not None:
                operator = per_shard(operator)
            branches.append(Exchange(operator, label=f"{fragment}#{index}"))
        return ShardGather(branches, fragment=fragment, shards_total=node.shard_total)

    @staticmethod
    def _point_lookup(access: AtomAccess) -> bool:
        """A lookup fragment whose key columns constants all pin: a LookupRequest."""
        key_columns = access.descriptor.access.key_columns
        constants_by_column = access.constant_by_column()
        return (
            access.descriptor.access.kind == "lookup"
            and bool(key_columns)
            and all(column in constants_by_column for column in key_columns)
        )

    def _scan_request(
        self, access: AtomAccess, comparisons: tuple[PredicateSpec, ...] = ()
    ) -> tuple[StoreRequest, dict[str, str], dict[str, object]]:
        """Compile one atom into a scan/lookup request plus its output mapping.

        A scan carries the atom's constants and the ``comparisons`` on the
        variables it outputs (only scans of a selecting store are offered any).
        """
        layout = access.descriptor.layout
        capabilities = access.store.capabilities()

        # A lookup fragment whose key columns are all pinned by constants is a
        # point access: emit a LookupRequest (key-value stores reject scans).
        key_columns = access.descriptor.access.key_columns
        constants_by_column = access.constant_by_column()
        if self._point_lookup(access):
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
        variables = access.variable_by_column()
        predicates.extend(
            Predicate(layout.store_column(column), comparison.op, comparison.value)
            for comparison in comparisons
            for column, variable in variables.items()
            if variable.name == comparison.column
        )
        output = {
            layout.store_column(column): variable.name for column, variable in variables.items()
        }
        request = ScanRequest(collection=layout.collection, predicates=tuple(predicates))
        return request, output, residual

    def _join_request(
        self, group: DelegationGroup, comparisons: tuple[PredicateSpec, ...]
    ) -> tuple[StoreRequest, dict[str, str], dict[str, object]]:
        """Compile a multi-atom group into one delegated join request."""
        requests: list[StoreRequest] = []
        outputs: list[dict[str, str]] = []
        residuals: dict[str, object] = {}
        for access in group.accesses:
            request, output, residual = self._scan_request(access, comparisons)
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
