"""Conjunctive-query containment and equivalence (plain and under constraints).

Containment ``Q1 ⊑ Q2`` (every answer of Q1 is an answer of Q2, over all
instances) is decided with the classical homomorphism criterion: freeze Q1
into its canonical instance and look for a homomorphism from Q2's body into
it that maps Q2's head onto Q1's frozen head.

Containment *under constraints* first chases the canonical instance of Q1
with the constraints, then performs the same homomorphism check against the
chased instance.  This is sound and complete for weakly-acyclic constraint
sets (the ones this library generates).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.chase import ChaseConfig, ChaseFailure, ChaseResult, chase, follow_equalities
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.homomorphism import InstanceIndex, find_homomorphism
from repro.core.memo import LRUMemo
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Substitution, Term, Variable
from repro.errors import PivotModelError

__all__ = [
    "is_contained_in",
    "is_equivalent",
    "is_contained_under_constraints",
    "is_equivalent_under_constraints",
    "canonical_query_signature",
]


def canonical_query_signature(query: ConjunctiveQuery) -> tuple:
    """An alpha-invariant, hashable fingerprint of a conjunctive query.

    Variables are renamed to their first-occurrence index (head first, then
    body in atom order), so two queries differing only in variable names get
    the same signature.  Containment and equivalence are invariant under such
    renaming, which makes the signature a sound memo key component.
    """
    numbering: dict[Variable, int] = {}

    def canon(term: Term) -> tuple:
        if isinstance(term, Variable):
            number = numbering.get(term)
            if number is None:
                number = numbering[term] = len(numbering)
            return ("v", number)
        return ("c", term)

    head = tuple(canon(t) for t in query.head_terms)
    body = tuple(
        (atom.relation, tuple(canon(t) for t in atom.terms)) for atom in query.body
    )
    return (query.head_relation, head, body)


# The backchase checks dozens-to-thousands of candidates against the same
# query under the same constraint set; both the canonical-instance chase and
# the full containment verdicts repeat heavily.  Keys use the constraint set's
# mutation token (see repro.core.constraints), never its contents.
_chase_memo = LRUMemo("containment_chase", max_entries=2048)
_containment_memo = LRUMemo("containment_verdict", max_entries=8192)
_CHASE_FAILED = object()


def _chased(
    frozen_facts: frozenset,
    constraints: ConstraintSet,
    config: ChaseConfig | None,
) -> ChaseResult | object:
    """Chase a canonical instance, memoized; returns ``_CHASE_FAILED`` on EGD failure."""
    key = (frozen_facts, constraints.token, config)
    cached = _chase_memo.get(key)
    if cached is _chase_memo.missing:
        try:
            cached = chase(frozen_facts, constraints, config=config)
        except ChaseFailure:
            cached = _CHASE_FAILED
        _chase_memo.put(key, cached)
    return cached


def _head_requirement(
    container: ConjunctiveQuery,
    frozen_head_terms: tuple[Term, ...],
) -> "callable":
    """Build the filter ensuring the containment homomorphism preserves the head."""
    if len(container.head_terms) != len(frozen_head_terms):
        raise PivotModelError(
            "cannot compare containment of queries with different head arities"
        )

    def requirement(homomorphism: Substitution) -> bool:
        for container_term, frozen_term in zip(container.head_terms, frozen_head_terms):
            image = homomorphism.resolve(container_term)
            if image != frozen_term:
                return False
        return True

    return requirement


def is_contained_in(contained: ConjunctiveQuery, container: ConjunctiveQuery) -> bool:
    """Decide ``contained ⊑ container`` with the homomorphism criterion."""
    frozen_facts, freezing = contained.canonical_instance()
    frozen_head = tuple(freezing.resolve(t) for t in contained.head_terms)
    index = InstanceIndex(frozen_facts)
    homomorphism = find_homomorphism(
        container.body, index, requirement=_head_requirement(container, frozen_head)
    )
    return homomorphism is not None


def is_equivalent(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """Decide plain CQ equivalence (mutual containment)."""
    return is_contained_in(left, right) and is_contained_in(right, left)


def is_contained_under_constraints(
    contained: ConjunctiveQuery,
    container: ConjunctiveQuery,
    constraints: ConstraintSet | Iterable[Constraint],
    config: ChaseConfig | None = None,
) -> bool:
    """Decide ``contained ⊑_Σ container`` by chasing then checking homomorphism.

    If the chase fails (an EGD equates two distinct constants), the canonical
    instance is inconsistent with the constraints, hence the containment holds
    vacuously and True is returned.

    Verdicts are memoized on the alpha-invariant signatures of both queries
    plus the constraint set's mutation token; the chase of the canonical
    instance is memoized separately (it is shared by every containment check
    against the same contained query).
    """
    if not isinstance(constraints, ConstraintSet):
        constraints = ConstraintSet(constraints)
    verdict_key = (
        canonical_query_signature(contained),
        canonical_query_signature(container),
        constraints.token,
        config,
    )
    cached = _containment_memo.get(verdict_key)
    if cached is not _containment_memo.missing:
        return cached  # type: ignore[return-value]
    frozen_facts, freezing = contained.canonical_instance()
    frozen_head = tuple(freezing.resolve(t) for t in contained.head_terms)
    result = _chased(frozen_facts, constraints, config)
    if result is _CHASE_FAILED:
        _containment_memo.put(verdict_key, True)
        return True
    # EGD firings may have merged labelled nulls appearing in the frozen head.
    resolved_head = tuple(follow_equalities(t, result.equalities) for t in frozen_head)
    index = result.index()
    homomorphism = find_homomorphism(
        container.body, index, requirement=_head_requirement(container, resolved_head)
    )
    verdict = homomorphism is not None
    _containment_memo.put(verdict_key, verdict)
    return verdict


def is_equivalent_under_constraints(
    left: ConjunctiveQuery,
    right: ConjunctiveQuery,
    constraints: ConstraintSet | Iterable[Constraint],
    config: ChaseConfig | None = None,
) -> bool:
    """Decide equivalence under constraints (mutual constrained containment)."""
    return is_contained_under_constraints(
        left, right, constraints, config=config
    ) and is_contained_under_constraints(right, left, constraints, config=config)
