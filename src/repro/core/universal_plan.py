"""Chasing a query into its *universal plan*.

The first phase of Chase & Backchase takes the user query ``Q`` and chases it
(as a query, i.e. symbolically on its body atoms) with the forward view
constraints and the data-model constraints.  The result — the *universal
plan* ``U`` — is a query whose body contains, in particular, one atom per
view that can contribute to answering ``Q``.  The second phase (backchase)
looks for minimal sub-queries of ``U`` that remain equivalent to ``Q``.

Chasing a query symbolically is implemented by freezing the body (variables
become labelled nulls), running the instance-level chase, then thawing
(labelled nulls become variables again, preserving the identity of the
original variables).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.chase import ChaseConfig, ChaseResult, chase, follow_equalities, is_labelled_null
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.query import ConjunctiveQuery, freeze_atoms
from repro.core.terms import Atom, Constant, Substitution, Term, Variable

__all__ = ["UniversalPlan", "chase_query", "thaw_term", "thaw_atoms"]


class UniversalPlan:
    """The chased form of a query, with the bookkeeping needed by the backchase.

    Attributes
    ----------
    query:
        The original query ``Q``.
    plan:
        The universal plan as a conjunctive query (same head as ``Q``,
        chased body, variables throughout).
    frozen_facts:
        The chased body as ground facts (labelled nulls in place of
        variables); the backchase works on this representation.
    frozen_head:
        The images of the head terms under freezing + chase equalities.
    freezing:
        The substitution that froze the original query variables.
    thawing:
        The mapping from labelled nulls back to variables used to build
        ``plan`` (and used again to thaw candidate rewriting bodies).
    """

    __slots__ = ("query", "plan", "frozen_facts", "frozen_head", "freezing", "thawing")

    def __init__(
        self,
        query: ConjunctiveQuery,
        plan: ConjunctiveQuery,
        frozen_facts: frozenset[Atom],
        frozen_head: tuple[Term, ...],
        freezing: Substitution,
        thawing: dict[Constant, Variable],
    ) -> None:
        self.query = query
        self.plan = plan
        self.frozen_facts = frozen_facts
        self.frozen_head = frozen_head
        self.freezing = freezing
        self.thawing = thawing

    def view_facts(self, view_names: Iterable[str]) -> tuple[Atom, ...]:
        """The frozen facts of the plan whose relation is one of ``view_names``."""
        names = set(view_names)
        return tuple(
            fact for fact in sorted(self.frozen_facts, key=repr) if fact.relation in names
        )


def thaw_term(term: Term, thawing: dict[Constant, Variable]) -> Term:
    """Convert a labelled null back into a variable (other terms unchanged)."""
    if isinstance(term, Constant) and is_labelled_null(term):
        variable = thawing.get(term)
        if variable is None:
            variable = Variable(f"u{len(thawing)}")
            thawing[term] = variable
        return variable
    return term


def thaw_atoms(atoms: Iterable[Atom], thawing: dict[Constant, Variable]) -> list[Atom]:
    """Thaw a collection of frozen atoms back into atoms over variables."""
    return [
        Atom(atom.relation, [thaw_term(t, thawing) for t in atom.terms]) for atom in atoms
    ]


def chase_query(
    query: ConjunctiveQuery,
    constraints: ConstraintSet | Iterable[Constraint],
    config: ChaseConfig | None = None,
) -> UniversalPlan:
    """Chase ``query`` with ``constraints`` and return its universal plan."""
    frozen_facts, freezing = freeze_atoms(query.body)
    result: ChaseResult = chase(frozen_facts, constraints, config=config)

    # The chase may have merged labelled nulls: re-resolve the frozen head.
    frozen_head = tuple(
        follow_equalities(freezing.resolve(t), result.equalities) for t in query.head_terms
    )

    # Thaw: original variables keep their identity, chase-invented nulls get
    # fresh variable names.
    thawing: dict[Constant, Variable] = {}
    for variable, null in freezing.items():
        resolved = follow_equalities(null, result.equalities)
        if isinstance(resolved, Constant) and is_labelled_null(resolved):
            thawing.setdefault(resolved, variable)

    plan_body = thaw_atoms(sorted(result.facts, key=repr), thawing)
    plan_head = [thaw_term(t, thawing) for t in frozen_head]
    plan = ConjunctiveQuery(
        query.head_relation, plan_head, plan_body, name=f"{query.name}_universal"
    )
    return UniversalPlan(
        query=query,
        plan=plan,
        frozen_facts=result.facts,
        frozen_head=frozen_head,
        freezing=freezing,
        thawing=thawing,
    )
