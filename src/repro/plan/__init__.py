"""The shared plan IR: logical plans emitted by translation, lowered physically.

The rewriting translation step emits a **logical plan** (:mod:`repro.plan.logical`)
describing *what* the mediator must compute: the delegation groups and the
join structure between them, with the statement's filters, aggregation,
output naming, duplicate elimination and LIMIT stacked above.  The
**physical planning pass** (:mod:`repro.plan.physical`) lowers that IR to the
runtime's operator tree, deciding *how* each step runs — delegated scan vs.
key lookup vs. store-side join, and per group whether a hash join fetches
its right side whole or by the left side's keys (a bind join), the latter
forced by an access pattern or chosen by the cost model when one is
available.
"""

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
    StatementShape,
    build_logical_plan,
    shard_selection,
    statement_tree,
)
from repro.plan.physical import PhysicalPlan, PhysicalPlanner

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
    "PhysicalPlan",
    "PhysicalPlanner",
]
