"""The logical plan IR.

A logical plan is the translation layer's output: rewriting atoms resolved
against the catalog, ordered for access-pattern feasibility, grouped into
maximal per-store delegation units, and arranged as a left-deep join chain
under a projection of the rewriting's head.  A *statement* stacks what no
store can do above that join chain (:func:`statement_tree`): residual
filters, aggregation, output naming, duplicate elimination and LIMIT, so
one tree describes everything the statement computes.  It says nothing
about join algorithms or store-request compilation — that is the physical
pass's job (:mod:`repro.plan.physical`), which keeps the cost model's
choices out of the structural translation step.

Accesses to fragments materialized in a **sharded store** additionally carry
the shard selection: when an equality constant in the atom binds the
fragment's shard key, routing is computed here (via the descriptor's
:class:`~repro.stores.sharding.ShardingSpec`) and the access is *pruned* to
the single shard that can hold matching rows; otherwise every shard is a
target and the physical pass fans the scan out shard-by-shard.  Constants
are part of the plan-cache key, so a cached pruned plan can never be replayed
against a different shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.catalog.manager import StorageDescriptorManager
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable
from repro.errors import PlanningError
from repro.runtime.kernels import PredicateSpec
from repro.stores.sharded import ShardedStore
from repro.translation.grouping import (
    AtomAccess,
    DelegationGroup,
    group_for_delegation,
    order_atoms,
)

__all__ = [
    "LogicalNode",
    "LogicalAccess",
    "LogicalJoin",
    "LogicalProject",
    "LogicalFilter",
    "LogicalAggregate",
    "LogicalOutput",
    "LogicalDistinct",
    "LogicalLimit",
    "LogicalPlan",
    "StatementShape",
    "build_logical_plan",
    "statement_tree",
    "shard_selection",
]


class LogicalNode:
    """Base class of logical plan nodes."""

    def children(self) -> Sequence["LogicalNode"]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Printable logical sub-plan."""
        line = "  " * indent + self.describe()
        for child in self.children():
            line += "\n" + child.explain(indent + 1)
        return line


@dataclass(slots=True)
class LogicalAccess(LogicalNode):
    """One delegation group: the largest sub-query one store can evaluate.

    ``shard_targets`` is ``None`` for unsharded fragments; for fragments in a
    sharded store it lists the shards that can hold matching rows (all of
    them for an unpruned scan, exactly one when a constant binds the shard
    key), and ``shard_total`` is the store's shard count.  ``comparisons``
    are the WHERE comparisons the group's store requests carry (placed by
    the physical pass).
    """

    group: DelegationGroup
    shard_targets: tuple[int, ...] | None = None
    shard_total: int = 0
    comparisons: tuple[PredicateSpec, ...] = ()

    def describe(self) -> str:
        fragments = "+".join(
            access.descriptor.fragment_name for access in self.group.accesses
        )
        sharding = ""
        if self.shard_targets is not None:
            sharding = f", shards={len(self.shard_targets)}/{self.shard_total}"
        return f"Access[store={self.group.store.name}, {fragments}{sharding}]"


@dataclass(slots=True)
class LogicalJoin(LogicalNode):
    """Join the plan so far with one more delegation group.

    ``requires_binding`` is True when the right group's access pattern needs
    values produced by the left side (the join *must* be a bind join, its
    right side fetched by the left side's keys);
    ``algorithm`` pins the implementation ('hash' or 'bind'), or is None to
    let the physical pass choose.
    """

    left: LogicalNode
    right: LogicalAccess
    requires_binding: bool = False
    algorithm: str | None = None

    def children(self) -> Sequence[LogicalNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        how = self.algorithm or ("bind" if self.requires_binding else "any")
        return f"Join[{how}]"


@dataclass(slots=True)
class LogicalProject(LogicalNode):
    """Keep only ``variables`` of the rows below."""

    child: LogicalNode
    variables: tuple[str, ...]

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project[{', '.join(self.variables)}]"


@dataclass(slots=True)
class LogicalFilter(LogicalNode):
    """Keep the rows satisfying every residual comparison."""

    child: LogicalNode
    predicates: tuple[PredicateSpec, ...]

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter[{' AND '.join(p.describe() for p in self.predicates)}]"


@dataclass(slots=True)
class LogicalAggregate(LogicalNode):
    """Group by ``group_by`` and fold ``aggregations`` (name -> (function, column)).

    Emits the group-by columns followed by one column per aggregation.  A
    ``scalar`` aggregate (a statement without GROUP BY) answers one row even
    over no input; a grouped one answers no row then.
    """

    child: LogicalNode
    group_by: tuple[str, ...]
    aggregations: Mapping[str, tuple[str, str | None]]
    scalar: bool

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"Aggregate[by {', '.join(self.group_by) or '()'}]"


@dataclass(slots=True)
class LogicalOutput(LogicalNode):
    """Name the statement's columns, in SELECT order.

    One ``(name, is_variable, payload)`` triple per column: the payload is
    the input column a variable output reads, or the constant it returns.
    """

    child: LogicalNode
    outputs: tuple[tuple[str, bool, object], ...]

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"Output[{', '.join(name for name, _, _ in self.outputs)}]"


@dataclass(slots=True)
class LogicalDistinct(LogicalNode):
    """Set semantics: eliminate duplicate result rows."""

    child: LogicalNode

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)


@dataclass(slots=True)
class LogicalLimit(LogicalNode):
    """Return at most ``count`` rows."""

    child: LogicalNode
    count: int

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit[{self.count}]"


@dataclass(slots=True)
class LogicalPlan:
    """The logical plan of one rewriting, plus its planning metadata."""

    rewriting: ConjunctiveQuery
    root: LogicalProject
    groups: list[DelegationGroup]
    head_variables: tuple[str, ...]
    bound_parameters: tuple[Variable, ...] = ()

    @property
    def joins(self) -> LogicalNode:
        """The join tree under the rewriting's head projection."""
        return self.root.child

    def explain(self) -> str:
        """Printable logical plan."""
        return self.root.explain()


@dataclass(frozen=True, slots=True)
class StatementShape:
    """What a statement asks of the mediator beyond its conjunctive core.

    ``predicates`` are residual comparisons over the rewriting's rows;
    ``aggregate`` is ``(group_by, aggregations, scalar)`` (the fields of
    :class:`LogicalAggregate`) or None; ``outputs`` are
    :class:`LogicalOutput` triples in SELECT order, or None for a pivot
    query, which returns its head variables; ``distinct`` and ``limit``
    shape the result.  A pure function of the statement.
    """

    predicates: tuple[PredicateSpec, ...] = ()
    aggregate: tuple[tuple[str, ...], Mapping[str, tuple[str, str | None]], bool] | None = None
    outputs: tuple[tuple[str, bool, object], ...] | None = None
    distinct: bool = False
    limit: int | None = None


def statement_tree(plan: LogicalPlan, shape: StatementShape) -> LogicalNode:
    """The whole statement as one tree, stacked above ``plan``'s join tree.

    Filter, then Aggregate (which reads only its own columns) or a Project
    onto the head variables the outputs read, then Output, Distinct and
    Limit.  Deduplication runs on the shaped output: the columns the
    statement returns.
    """
    node = plan.joins
    if shape.predicates:
        node = LogicalFilter(node, shape.predicates)
    if shape.aggregate is not None:
        node = LogicalAggregate(node, *shape.aggregate)
    else:
        kept = plan.head_variables
        if shape.outputs is not None:
            read = {payload for _, is_variable, payload in shape.outputs if is_variable}
            kept = tuple(variable for variable in kept if variable in read)
        node = LogicalProject(node, kept)
    if shape.outputs is not None:
        node = LogicalOutput(node, shape.outputs)
    if shape.distinct:
        node = LogicalDistinct(node)
    if shape.limit is not None:
        node = LogicalLimit(node, shape.limit)
    return node


def shard_selection(access: AtomAccess) -> tuple[tuple[int, ...], int] | None:
    """The shard targets of one atom access, or ``None`` when not sharded.

    Pruning uses the equality constants of the atom: a constant on the shard
    key routes to exactly one shard (under either strategy); without one,
    every shard is a target.  Range comparisons live outside the conjunctive
    pivot query: lowering puts them into each target shard's request, and
    they prune no shard here.
    """
    spec = access.descriptor.sharding
    if spec is None or not isinstance(access.store, ShardedStore):
        return None
    if spec.shards != access.store.shard_count:
        raise PlanningError(
            f"fragment {access.descriptor.fragment_name!r} declares {spec.shards} shards "
            f"but store {access.store.name!r} has {access.store.shard_count}"
        )
    constants = access.constant_by_column()
    if spec.shard_key in constants:
        targets = spec.shards_for_predicates([("=", constants[spec.shard_key])])
    else:
        targets = spec.all_shards()
    return targets, spec.shards


def _access_node(group: DelegationGroup) -> LogicalAccess:
    """A LogicalAccess for ``group``, with shard targets when applicable."""
    if group.is_single():
        selection = shard_selection(group.accesses[0])
        if selection is not None:
            targets, total = selection
            return LogicalAccess(group, shard_targets=targets, shard_total=total)
    return LogicalAccess(group)


def build_logical_plan(
    rewriting: ConjunctiveQuery,
    manager: StorageDescriptorManager,
    bound_parameters: Sequence[Variable] = (),
) -> LogicalPlan:
    """Translate a rewriting into the logical IR.

    Atoms are ordered so every access pattern is satisfiable, grouped into
    per-store delegation units, and chained into a left-deep join tree.
    """
    bound = tuple(bound_parameters)
    ordered = order_atoms(rewriting, manager, bound_parameters=bound)
    groups = group_for_delegation(ordered)
    if not groups:
        raise PlanningError(f"rewriting {rewriting.name!r} produced no delegation groups")

    parameters: set[Variable] = set(bound)
    root: LogicalNode | None = None
    for group in groups:
        needs_binding = any(
            access.requires_binding(parameters) for access in group.accesses
        )
        access_node = _access_node(group)
        if root is None:
            if needs_binding:
                raise PlanningError(
                    f"first delegation group of {rewriting.name!r} needs runtime bindings; "
                    "the atom order should have prevented this"
                )
            root = access_node
        else:
            root = LogicalJoin(left=root, right=access_node, requires_binding=needs_binding)

    head_variables = tuple(
        term.name for term in rewriting.head_terms if isinstance(term, Variable)
    )
    return LogicalPlan(
        rewriting=rewriting,
        root=LogicalProject(root, head_variables),
        groups=groups,
        head_variables=head_variables,
        bound_parameters=bound,
    )
