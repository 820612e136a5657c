"""The rewriting translation step: from a CQ over fragments to a physical plan.

Given a rewriting produced by the PACB engine (a conjunctive query whose
atoms are fragment relations), planning happens in two passes over the shared
plan IR (:mod:`repro.plan`):

1. the **logical pass** (:func:`repro.plan.logical.build_logical_plan`)
   resolves each atom against the catalog, orders the atoms so every access
   pattern is satisfied, and groups consecutive atoms that can be
   **delegated** together to the same join-capable store;
2. the **physical pass** (:class:`repro.plan.physical.PhysicalPlanner`)
   compiles each group into the store-request micro-IR and stitches the
   delegated requests together with runtime operators — a
   :class:`~repro.runtime.operators.HashJoin` per join, whose right side is
   fetched by the left side's distinct keys when a group needs values
   produced earlier (access-restricted sources) or when the cost model
   prefers such a bind join.

:class:`Planner` is the façade tying the two passes together.  Choosing
*among* alternative rewritings remains the chooser's job (:mod:`repro.cost`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.catalog.manager import StorageDescriptorManager
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable
from repro.plan.logical import LogicalPlan, build_logical_plan
from repro.plan.physical import PhysicalPlan, PhysicalPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cost.cost_model import CostModel

__all__ = ["PhysicalPlan", "Planner"]


class Planner:
    """Builds physical plans for rewritings over the registered fragments.

    With a ``cost_model``, the physical pass picks the join algorithm (hash
    vs. keyed bind join) per delegation group from estimated cardinalities; without
    one the lowering is purely structural, as in the seed planner.
    """

    def __init__(
        self,
        manager: StorageDescriptorManager,
        cost_model: "CostModel | None" = None,
    ) -> None:
        self._manager = manager
        self._cost_model = cost_model

    # -- public API -----------------------------------------------------------------
    def logical_plan(
        self,
        rewriting: ConjunctiveQuery,
        bound_parameters: Sequence[Variable] = (),
    ) -> LogicalPlan:
        """Translate ``rewriting`` into the logical plan IR."""
        return build_logical_plan(
            rewriting, self._manager, bound_parameters=tuple(bound_parameters)
        )

    def plan(
        self,
        rewriting: ConjunctiveQuery,
        bound_parameters: Sequence[Variable] = (),
    ) -> PhysicalPlan:
        """Build the physical plan of ``rewriting`` (logical pass + lowering)."""
        logical = self.logical_plan(rewriting, bound_parameters=bound_parameters)
        return PhysicalPlanner(cost_model=self._cost_model).lower(logical)
