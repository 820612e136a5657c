"""The top-level rewriting driver used by the ESTOCADA query evaluator.

:class:`Rewriter` bundles everything the query evaluator needs to turn an
application query (already translated into the pivot model) into executable
candidate rewritings over the registered fragments:

* the fragment (view) definitions,
* the data-model constraints of the application and storage schemas,
* the access-pattern registry describing binding restrictions of the stores,
* a choice of rewriting algorithm (PACB by default, classical C&B for
  baseline measurements).

Rewritings violating an access pattern (e.g. requiring a full scan of a
key-value collection) are filtered out, implementing the paper's notion of
*feasible* rewritings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.backchase import BackchaseStatistics, classical_backchase
from repro.core.binding_patterns import AccessPatternRegistry, is_feasible
from repro.core.chase import ChaseConfig
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.index import RewriteIndex
from repro.core.minimization import minimize
from repro.core.pacb import PACBStatistics, pacb_rewrite
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable
from repro.core.views import ViewDefinition
from repro.errors import InfeasibleRewritingError, NoRewritingFoundError, RewritingError

__all__ = ["RewritingOutcome", "Rewriter"]


@dataclass(slots=True)
class RewritingOutcome:
    """All rewritings found for one query, plus search telemetry."""

    query: ConjunctiveQuery
    rewritings: list[ConjunctiveQuery]
    feasible_rewritings: list[ConjunctiveQuery]
    algorithm: str
    elapsed_seconds: float
    statistics: PACBStatistics | BackchaseStatistics | None = None
    dropped_infeasible: int = 0
    notes: list[str] = field(default_factory=list)

    def best(self) -> ConjunctiveQuery:
        """The first feasible rewriting (callers may re-rank by cost)."""
        if not self.feasible_rewritings:
            raise NoRewritingFoundError(
                f"no feasible rewriting for query {self.query.name!r}"
            )
        return self.feasible_rewritings[0]


class Rewriter:
    """View-based query rewriting under constraints, with feasibility filtering.

    Parameters
    ----------
    views:
        The fragment definitions available for rewriting.
    schema_constraints:
        Constraints describing the application and storage data models.
    access_patterns:
        Binding-pattern registry; views may also carry their own pattern,
        which is registered automatically under the view's name.
    algorithm:
        ``"pacb"`` (default) or ``"classical"``.
    chase_config:
        Budget configuration forwarded to the chase.
    cost_bound_factory:
        Optional zero-argument callable returning a
        :class:`repro.cost.cost_model.RewritingCostBound` (or None); called
        once per :meth:`rewrite` so pruning always sees fresh statistics.
    """

    def __init__(
        self,
        views: Sequence[ViewDefinition],
        schema_constraints: ConstraintSet | Iterable[Constraint] | None = None,
        access_patterns: AccessPatternRegistry | None = None,
        algorithm: str = "pacb",
        chase_config: ChaseConfig | None = None,
        cost_bound_factory: "object | None" = None,
    ) -> None:
        if algorithm not in {"pacb", "classical"}:
            raise RewritingError(f"unknown rewriting algorithm {algorithm!r}")
        self._constraints = ConstraintSet(schema_constraints or ())
        self._access_patterns = access_patterns or AccessPatternRegistry()
        self._algorithm = algorithm
        self._chase_config = chase_config or ChaseConfig()
        self._cost_bound_factory = cost_bound_factory
        # The index is the only registry of views.
        self._index = RewriteIndex(constraints=self._constraints)
        for view in views:
            self.add_view(view)

    # -- configuration -------------------------------------------------------
    @property
    def views(self) -> tuple[ViewDefinition, ...]:
        """The registered fragment definitions, in registration order."""
        return tuple(self._index)

    @property
    def constraints(self) -> ConstraintSet:
        """The registered schema constraints."""
        return self._constraints

    @property
    def access_patterns(self) -> AccessPatternRegistry:
        """The binding-pattern registry used for feasibility filtering."""
        return self._access_patterns

    @property
    def algorithm(self) -> str:
        """The configured rewriting algorithm name."""
        return self._algorithm

    @property
    def index(self) -> RewriteIndex:
        """The relation-signature index used for candidate view selection."""
        return self._index

    def add_view(self, view: ViewDefinition) -> None:
        """Register a fragment definition, replacing any same-named one."""
        self.remove_view(view.name)
        if view.access_pattern is not None:
            self._access_patterns.register(view.access_pattern)
        self._index.add_view(view)

    def remove_view(self, name: str) -> bool:
        """Drop a fragment definition by name; returns False when unknown."""
        view = self._index.remove_view(name)
        if view is None:
            return False
        if view.access_pattern is not None:
            self._access_patterns.unregister(name)
        return True

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        """Register additional schema constraints."""
        added = [c for c in constraints if c not in self._constraints]
        self._constraints.extend(added)
        self._index.add_constraints(added)

    # -- rewriting -------------------------------------------------------------
    def rewrite(
        self,
        query: ConjunctiveQuery,
        bound_parameters: Iterable[Variable] = (),
        minimize_results: bool = True,
        max_rewritings: int | None = None,
        require_feasible: bool = False,
    ) -> RewritingOutcome:
        """Rewrite ``query`` over the registered views.

        Parameters
        ----------
        bound_parameters:
            Head variables whose values are supplied at execution time; they
            count as bound when checking access-pattern feasibility.
        minimize_results:
            Minimize each rewriting (drop redundant view atoms).
        require_feasible:
            When True, raise :class:`InfeasibleRewritingError` if rewritings
            exist but none is feasible.
        """
        if not self._index:
            raise RewritingError("no views registered; cannot rewrite")
        started = time.perf_counter()
        notes: list[str] = []
        # Candidate selection: only views whose definition body lies in the
        # TGD-reachability closure of the query's relations can ever contribute
        # an atom to the universal plan.  This is what keeps rewriting
        # sub-linear in catalog size.
        candidates = self._index.candidate_views(query.relations())
        if len(candidates) < len(self._index):
            notes.append(
                f"signature index selected {len(candidates)} of "
                f"{len(self._index)} views"
            )
        if not candidates:
            elapsed = time.perf_counter() - started
            notes.append("no candidate views share a relation signature with the query")
            return RewritingOutcome(
                query=query,
                rewritings=[],
                feasible_rewritings=[],
                algorithm=self._algorithm,
                elapsed_seconds=elapsed,
                statistics=None,
                notes=notes,
            )
        cost_bound = (
            self._cost_bound_factory() if self._cost_bound_factory is not None else None
        )
        statistics: PACBStatistics | BackchaseStatistics
        if self._algorithm == "pacb":
            result = pacb_rewrite(
                query,
                candidates,
                schema_constraints=self._constraints,
                config=self._chase_config,
                max_rewritings=max_rewritings,
                cost_bound=cost_bound,
            )
            rewritings = result.rewritings
            statistics = result.statistics
        else:
            rewritings, statistics = classical_backchase(
                query,
                candidates,
                schema_constraints=self._constraints,
                config=self._chase_config,
                max_rewritings=max_rewritings,
                cost_bound=cost_bound,
            )
        if minimize_results:
            rewritings = [minimize(rewriting) for rewriting in rewritings]
            rewritings = _deduplicate(rewritings)

        bound = tuple(bound_parameters)
        feasible = [
            rewriting
            for rewriting in rewritings
            if is_feasible(rewriting, self._access_patterns, bound_head_variables=bound)
        ]
        dropped = len(rewritings) - len(feasible)
        elapsed = time.perf_counter() - started

        outcome = RewritingOutcome(
            query=query,
            rewritings=rewritings,
            feasible_rewritings=feasible,
            algorithm=self._algorithm,
            elapsed_seconds=elapsed,
            statistics=statistics,
            dropped_infeasible=dropped,
            notes=notes,
        )
        if require_feasible and rewritings and not feasible:
            raise InfeasibleRewritingError(
                f"{len(rewritings)} rewriting(s) found for {query.name!r} but none is "
                "feasible under the registered access patterns"
            )
        return outcome


def _deduplicate(rewritings: Sequence[ConjunctiveQuery]) -> list[ConjunctiveQuery]:
    """Drop syntactic duplicates (same body atom multiset and head)."""
    seen: set[tuple] = set()
    unique: list[ConjunctiveQuery] = []
    for rewriting in rewritings:
        key = (rewriting.head_relation, rewriting.head_terms, frozenset(rewriting.body))
        if key not in seen:
            seen.add(key)
            unique.append(rewriting)
    return unique
