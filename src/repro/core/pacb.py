"""Provenance-Aware Chase & Backchase (PACB).

This is the efficient rewriting algorithm ESTOCADA relies on [Ileana, Cautis,
Deutsch, Katsis — SIGMOD 2014].  Instead of enumerating and re-chasing the
exponentially many sub-queries of the universal plan (the classical
backchase), PACB performs a *single* chase of the view atoms of the universal
plan with the backward view constraints and the data-model constraints, while
annotating every derived fact with a provenance formula recording which view
atoms it depends on.  Matching the original query once against this chased,
annotated instance and reading off the provenance of the matched facts yields
exactly the (minimal) rewritings.

The steps, mirrored by :func:`pacb_rewrite`:

1. chase the query with the forward view constraints (+ schema constraints)
   to obtain the universal plan and its view atoms;
2. annotate each view atom with a distinct provenance variable;
3. provenance-chase the annotated view atoms with the backward view
   constraints (+ schema constraints);
4. enumerate homomorphisms from the query body into the chased instance that
   preserve the head; conjoin the provenance of the image facts;
5. every minimal monomial of the resulting DNF names a subset of view atoms —
   a candidate rewriting; thaw it into a CQ over the view relations;
6. optionally verify and minimize each candidate (cheap, and keeps the
   implementation honest even on constraint sets beyond the theory's
   guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.chase import ChaseConfig, follow_equalities, provenance_chase
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.containment import is_equivalent_under_constraints
from repro.core.homomorphism import iterate_homomorphisms
from repro.core.provenance import ProvenanceFormula
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Atom, Substitution
from repro.core.universal_plan import UniversalPlan, chase_query
from repro.core.backchase import candidate_to_query
from repro.core.views import ViewDefinition, combined_constraint_set
from repro.errors import RewritingError

__all__ = ["PACBStatistics", "PACBResult", "pacb_rewrite"]


@dataclass(slots=True)
class PACBStatistics:
    """Counters describing the work performed by a PACB run."""

    view_atoms_in_plan: int = 0
    chase_steps: int = 0
    provenance_chase_steps: int = 0
    head_matches: int = 0
    monomials_examined: int = 0
    equivalence_checks: int = 0
    rewritings_found: int = 0
    candidates_pruned_by_cost: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass(slots=True)
class PACBResult:
    """The output of :func:`pacb_rewrite`."""

    query: ConjunctiveQuery
    rewritings: list[ConjunctiveQuery]
    statistics: PACBStatistics
    universal_plan: UniversalPlan | None = None


def pacb_rewrite(
    query: ConjunctiveQuery,
    views: Sequence[ViewDefinition],
    schema_constraints: ConstraintSet | Iterable[Constraint] | None = None,
    config: ChaseConfig | None = None,
    verify: bool = True,
    max_rewritings: int | None = None,
    cost_bound: "object | None" = None,
) -> PACBResult:
    """Compute the view-based rewritings of ``query`` with the PACB algorithm.

    Parameters
    ----------
    query:
        The application query translated into the pivot model.
    views:
        Fragment definitions (materialized views over the pivot schema).
    schema_constraints:
        Data-model constraints (keys, functional dependencies, structural
        axioms such as "every Child is a Descendant").
    verify:
        When True (default), every candidate read off the provenance is
        double-checked for equivalence with the original query under the full
        constraint set before being returned.
    max_rewritings:
        Optional cap on the number of rewritings returned.
    cost_bound:
        Optional :class:`repro.cost.cost_model.RewritingCostBound`.  When
        given, a candidate whose *admissible lower bound* is already no better
        than the cheapest accepted rewriting's estimate is discarded before
        the (expensive) equivalence verification.
    """
    if not views:
        raise RewritingError("PACB needs at least one view")
    statistics = PACBStatistics()
    # Keep the caller's ConstraintSet identity when there is one: the chase
    # and containment memos key on its mutation token, so copying it here
    # would orphan every cross-call memo entry.
    if isinstance(schema_constraints, ConstraintSet):
        schema = schema_constraints
    else:
        schema = ConstraintSet(schema_constraints or ())
    views = tuple(views)

    # Step 1: universal plan (forward chase).
    forward = combined_constraint_set(views, schema, direction="forward")
    plan = chase_query(query, forward, config=config)
    view_names = {view.name for view in views}
    view_facts = plan.view_facts(view_names)
    statistics.view_atoms_in_plan = len(view_facts)
    if not view_facts:
        return PACBResult(query, [], statistics, plan)

    # Step 2: annotate each view atom with a provenance variable.
    annotated: dict[Atom, ProvenanceFormula] = {
        fact: ProvenanceFormula.variable(identifier)
        for identifier, fact in enumerate(view_facts)
    }
    identifier_to_fact = dict(enumerate(view_facts))

    # Step 3: provenance chase with the backward constraints.
    backward = combined_constraint_set(views, schema, direction="backward")
    chased = provenance_chase(annotated, backward, config=config)
    statistics.provenance_chase_steps = chased.steps

    # The provenance chase may have merged labelled nulls: track the head images.
    frozen_head = tuple(follow_equalities(t, chased.equalities) for t in plan.frozen_head)

    # Step 4: match the query body against the chased instance.
    index = chased.index()
    combined = ProvenanceFormula.false()
    head_terms = query.head_terms

    def head_preserving(homomorphism: Substitution) -> bool:
        for query_term, frozen_term in zip(head_terms, frozen_head):
            if homomorphism.resolve(query_term) != frozen_term:
                return False
        return True

    for homomorphism in iterate_homomorphisms(query.body, index):
        if not head_preserving(homomorphism):
            continue
        statistics.head_matches += 1
        match_provenance = ProvenanceFormula.true()
        for body_atom in query.body:
            image = body_atom.apply(homomorphism)
            match_provenance = match_provenance.conjunction(
                chased.provenance.get(image, ProvenanceFormula.true())
            )
        combined = combined.disjunction(match_provenance)

    if combined.is_false():
        statistics.notes.append("no head-preserving match of the query in the backchase instance")
        return PACBResult(query, [], statistics, plan)

    # Step 5/6: one candidate rewriting per minimal monomial.
    all_constraints = combined_constraint_set(views, schema, direction="both")
    rewritings: list[ConjunctiveQuery] = []
    seen: set[frozenset[Atom]] = set()
    best_estimate: float | None = None
    for monomial in sorted(combined.minimal_monomials(), key=lambda m: (len(m), sorted(m))):
        statistics.monomials_examined += 1
        facts = tuple(identifier_to_fact[i] for i in sorted(monomial))
        key = frozenset(facts)
        if key in seen:
            continue
        seen.add(key)
        if cost_bound is not None and best_estimate is not None:
            # Admissible pruning: the lower bound can only underestimate the
            # candidate's true cost, so discarding it cannot lose a rewriting
            # cheaper than the best one already accepted.
            floor = cost_bound.lower_bound(fact.relation for fact in facts)
            if floor >= best_estimate:
                statistics.candidates_pruned_by_cost += 1
                continue
        candidate = candidate_to_query(query, facts, plan)
        if candidate is None:
            statistics.notes.append("candidate dropped: head variables not exposed by views")
            continue
        if verify:
            statistics.equivalence_checks += 1
            if not is_equivalent_under_constraints(candidate, query, all_constraints, config=config):
                statistics.notes.append("candidate dropped: failed verification")
                continue
        rewritings.append(candidate)
        statistics.rewritings_found += 1
        if cost_bound is not None:
            estimate = cost_bound.estimate(fact.relation for fact in facts)
            if best_estimate is None or estimate < best_estimate:
                best_estimate = estimate
        if max_rewritings is not None and len(rewritings) >= max_rewritings:
            break

    return PACBResult(query, rewritings, statistics, plan)
