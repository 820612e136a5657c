"""Textbook cardinality estimation for rewritings over fragments.

ESTOCADA "estimates the cardinality of [a delegated sub-query's] result,
based on statistics it gathers ... and using database textbook formulas".
The estimator walks a rewriting in its planned atom order and applies the
classical System-R style formulas:

* base cardinality of a fragment = its row count;
* an equality predicate on column ``c`` keeps a fraction ``1 / V(c)`` of the
  rows (``V(c)`` = number of distinct values);
* an equi-join of two inputs on column ``c`` has cardinality
  ``|L| * |R| / max(V_L(c), V_R(c))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.catalog.statistics import StatisticsCatalog
from repro.core.terms import Constant, Variable
from repro.translation.grouping import AtomAccess

__all__ = ["AtomEstimate", "CardinalityEstimator"]


@dataclass(slots=True)
class AtomEstimate:
    """Estimated size and selectivity of accessing one rewriting atom."""

    fragment: str
    base_cardinality: int
    selectivity: float
    estimated_rows: float


class CardinalityEstimator:
    """Estimates result sizes of rewritings using fragment statistics."""

    def __init__(self, statistics: StatisticsCatalog) -> None:
        self._statistics = statistics

    # -- per-atom estimates ------------------------------------------------------
    def atom_estimate(self, access: AtomAccess) -> AtomEstimate:
        """Cardinality of one atom access after its constant predicates."""
        stats = self._statistics.get(access.descriptor.fragment_name)
        selectivity = 1.0
        for column, term in zip(access.columns, access.atom.terms):
            if isinstance(term, Constant):
                selectivity *= stats.selectivity_of_equality(column)
        estimated = max(stats.cardinality * selectivity, 0.0)
        return AtomEstimate(
            fragment=access.descriptor.fragment_name,
            base_cardinality=stats.cardinality,
            selectivity=selectivity,
            estimated_rows=estimated,
        )

    # -- whole-rewriting estimate ---------------------------------------------------
    def estimate_rows(self, ordered_accesses: Sequence[AtomAccess]) -> float:
        """Estimated cardinality of the join of the ordered atom accesses."""
        if not ordered_accesses:
            return 0.0
        total: float | None = None
        bound: dict[Variable, tuple[str, str]] = {}  # variable -> (fragment, column)
        for access in ordered_accesses:
            estimate = self.atom_estimate(access)
            if total is None:
                total = estimate.estimated_rows
            else:
                join_selectivity = 1.0
                stats = self._statistics.get(access.descriptor.fragment_name)
                for column, term in zip(access.columns, access.atom.terms):
                    if isinstance(term, Variable) and term in bound:
                        previous_fragment, previous_column = bound[term]
                        previous_stats = self._statistics.get(previous_fragment)
                        distinct = max(
                            stats.distinct(column), previous_stats.distinct(previous_column), 1
                        )
                        join_selectivity *= 1.0 / distinct
                total = total * estimate.estimated_rows * join_selectivity
            for column, term in zip(access.columns, access.atom.terms):
                if isinstance(term, Variable) and term not in bound:
                    bound[term] = (access.descriptor.fragment_name, column)
        return max(total or 0.0, 0.0)
