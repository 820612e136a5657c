"""The chase procedure (standard and provenance-aware) over pivot instances.

The chase takes an instance (a set of ground atoms whose "unknown" values are
labelled nulls) and a set of TGDs/EGDs, and repeatedly *fires* constraints
whose body matches the instance but whose conclusion does not yet hold:

* firing a TGD adds the head atoms, inventing fresh labelled nulls for the
  existential variables;
* firing an EGD equates two terms — replacing a labelled null by the other
  term throughout the instance — or *fails* if both are distinct constants.

ESTOCADA uses the chase in two places: to compute the *universal plan*
(chasing the query with the forward view constraints and data-model
constraints) and inside the backchase to check candidate rewritings for
equivalence.  The provenance-aware variant additionally tracks, for every
derived fact, which view atoms it depends on; this is the key ingredient of
the PACB algorithm (see :mod:`repro.core.pacb`).

Termination: with arbitrary existential TGDs the chase may not terminate.
All constraint sets produced by this library are weakly acyclic in practice,
but a configurable step budget guards against accidental non-termination and
raises :class:`ChaseNonTerminationError` when exceeded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.core.constraints import EGD, TGD, Constraint, ConstraintSet
from repro.core.homomorphism import InstanceIndex, Program, compile_pattern
from repro.core.provenance import ProvenanceFormula
from repro.core.terms import Atom, Constant, Substitution, Term
from repro.errors import ChaseError, ChaseNonTerminationError

__all__ = [
    "ChaseResult",
    "ChaseConfig",
    "chase",
    "ChaseFailure",
    "follow_equalities",
    "provenance_chase",
    "ProvenanceChaseResult",
]

_null_counter = itertools.count()


def _fresh_null(hint: str = "n") -> Constant:
    """Invent a fresh labelled null (a constant tagged with the ``_:`` prefix)."""
    return Constant(f"_:c{next(_null_counter)}_{hint}")


def is_labelled_null(term: Term) -> bool:
    """True when ``term`` is a labelled null (invented by freezing or the chase)."""
    return (
        isinstance(term, Constant)
        and isinstance(term.value, str)
        and term.value.startswith("_:")
    )


class ChaseFailure(ChaseError):
    """An EGD tried to equate two distinct constants: the chase fails."""


@dataclass(frozen=True, slots=True)
class ChaseConfig:
    """Tuning knobs for the chase.

    Attributes
    ----------
    max_steps:
        Upper bound on the number of constraint firings before the chase is
        declared non-terminating.
    max_facts:
        Upper bound on the size of the chased instance.
    """

    max_steps: int = 10_000
    max_facts: int = 100_000


@dataclass(slots=True)
class ChaseResult:
    """Outcome of a (standard) chase run."""

    facts: frozenset[Atom]
    steps: int
    equalities: dict[Constant, Term] = field(default_factory=dict)

    def index(self) -> InstanceIndex:
        """The chased instance as a homomorphism index."""
        return InstanceIndex(self.facts)


def follow_equalities(term: Term, equalities: Mapping[Constant, Term]) -> Term:
    """Follow the chase's equalities from ``term`` to a fixpoint (cycle-safe)."""
    seen: set[Term] = set()
    while isinstance(term, Constant) and term in equalities and term not in seen:
        seen.add(term)
        term = equalities[term]
    return term


def _count_step(steps: int, config: ChaseConfig, chase_name: str) -> int:
    steps += 1
    if steps > config.max_steps:
        raise ChaseNonTerminationError(f"{chase_name} exceeded {config.max_steps} steps")
    return steps


def _check_size(index: InstanceIndex, config: ChaseConfig, chase_name: str) -> None:
    if len(index) > config.max_facts:
        raise ChaseNonTerminationError(f"{chase_name} instance exceeded {config.max_facts} facts")


def _head_check(tgd: TGD, body: Program, index: InstanceIndex) -> tuple[Program, Callable]:
    """The restricted chase's "already satisfied" test, compiled once per
    visit of ``tgd``: its head with the frontier as bound slots, and the
    frontier of a body binding."""
    frontier = sorted(tgd.frontier(), key=lambda v: v.name)
    return compile_pattern(tgd.head, index, frontier), body.getter(frontier)


def _fire_tgd(tgd: TGD, trigger: Substitution) -> list[Atom]:
    """Produce the head facts of a TGD firing, inventing nulls for existentials."""
    extended = trigger
    for variable in sorted(tgd.existential_variables(), key=lambda v: v.name):
        extended = extended.bind(variable, _fresh_null(variable.name))
    return [atom.apply(extended) for atom in tgd.head]


def _resolve_egd_equality(left: Term, right: Term) -> tuple[Term, Term] | None:
    """Decide how to apply the equality ``left = right``.

    Returns ``(old, new)`` — replace ``old`` by ``new`` — or None when the
    terms are already equal.  Raises :class:`ChaseFailure` when both terms are
    distinct non-null constants.
    """
    if left == right:
        return None
    left_null = is_labelled_null(left)
    right_null = is_labelled_null(right)
    if left_null and right_null:
        # Deterministic orientation keeps the chase confluent for our purposes:
        # always replace the lexicographically larger null by the smaller one.
        first, second = sorted((left, right), key=lambda t: str(t.value))
        return second, first
    if left_null:
        return left, right
    if right_null:
        return right, left
    raise ChaseFailure(f"EGD requires {left} = {right}, both are distinct constants")


def _unmet_equality(egd: EGD, index: InstanceIndex) -> tuple[Substitution, Term, Term] | None:
    """The first trigger of ``egd`` whose equalities do not hold yet, with the
    ``(old, new)`` merge that makes them hold; None when every one holds."""
    body = compile_pattern(egd.body, index)
    sides = body.getter([term for pair in egd.equalities for term in pair])
    for binding, _ in body.run():
        values = sides(binding)
        for left, right in zip(values[::2], values[1::2]):
            resolution = _resolve_egd_equality(left, right)
            if resolution is not None:
                return body.substitution(binding), *resolution
    return None


def chase(
    facts: Iterable[Atom],
    constraints: ConstraintSet | Iterable[Constraint],
    config: ChaseConfig | None = None,
) -> ChaseResult:
    """Run the standard (restricted) chase of ``facts`` with ``constraints``.

    Returns a :class:`ChaseResult`; raises :class:`ChaseFailure` when an EGD
    fails and :class:`ChaseNonTerminationError` when the step budget is hit.
    """
    if not isinstance(constraints, ConstraintSet):
        constraints = ConstraintSet(constraints)
    config = config or ChaseConfig()

    index = InstanceIndex(facts)
    equalities: dict[Constant, Term] = {}
    steps = 0

    changed = True
    while changed:
        changed = False
        for constraint, body_relations in constraints.constraints_with_body_relations():
            # Inverted dispatch: a constraint whose body mentions a relation
            # absent from the instance has no trigger, so matching its body
            # would find nothing.
            if not body_relations <= index.relations():
                continue
            if isinstance(constraint, TGD):
                body = compile_pattern(constraint.body, index)
                head, frontier_of = _head_check(constraint, body, index)
                # Every trigger is tested against the instance as the visit
                # found it; the new facts land once the match is done.
                new_facts: list[Atom] = []
                for binding, _ in body.run():
                    if next(head.run(frontier_of(binding)), None) is not None:
                        continue
                    steps = _count_step(steps, config, "chase")
                    trigger = body.substitution(binding)
                    new_facts.extend(f for f in _fire_tgd(constraint, trigger) if f not in index)
                if index.add_all(new_facts):
                    changed = True
                    _check_size(index, config, "chase")
            else:  # EGD: merges may cascade, so re-match after each one.
                while (unmet := _unmet_equality(constraint, index)) is not None:
                    _, old, new = unmet
                    steps = _count_step(steps, config, "chase")
                    index.merge(old, new)
                    if isinstance(old, Constant):
                        equalities[old] = new
                    changed = True

    return ChaseResult(facts=index.facts(), steps=steps, equalities=equalities)


# ---------------------------------------------------------------------------
# Provenance-aware chase
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ProvenanceChaseResult:
    """Outcome of a provenance-aware chase run.

    ``provenance`` maps every fact of the chased instance to the DNF formula
    over provenance variables describing which annotated input facts it
    depends on.  Input facts passed without an annotation carry the ``TRUE``
    formula (they are "free": not charged to any view atom).
    """

    facts: frozenset[Atom]
    provenance: dict[Atom, ProvenanceFormula]
    steps: int
    equalities: dict[Constant, Term] = field(default_factory=dict)

    def index(self) -> InstanceIndex:
        """The chased instance as a homomorphism index."""
        return InstanceIndex(self.facts)


def provenance_chase(
    annotated_facts: Mapping[Atom, ProvenanceFormula],
    constraints: ConstraintSet | Iterable[Constraint],
    config: ChaseConfig | None = None,
) -> ProvenanceChaseResult:
    """Chase while tracking provenance formulas.

    Only TGDs and EGDs are supported.  For TGD firings the provenance of each
    produced fact is the conjunction of the provenances of the trigger's image
    facts; if the fact already exists, its provenance is extended with a
    disjunct.  EGD firings merge terms and take the disjunction of the merged
    facts' provenances.

    Unlike the standard restricted chase, a TGD trigger is re-fired when it
    can *improve* the provenance of existing facts (derive them more cheaply),
    which is required for the PACB read-off to discover every minimal
    rewriting.
    """
    if not isinstance(constraints, ConstraintSet):
        constraints = ConstraintSet(constraints)
    config = config or ChaseConfig()

    provenance: dict[Atom, ProvenanceFormula] = dict(annotated_facts)
    index = InstanceIndex(annotated_facts)
    equalities: dict[Constant, Term] = {}
    steps = 0
    true = ProvenanceFormula.true()

    changed = True
    while changed:
        changed = False
        for constraint, body_relations in constraints.constraints_with_body_relations():
            # Same inverted dispatch as the standard chase (see above).
            if not body_relations <= index.relations():
                continue
            if isinstance(constraint, TGD):
                body = compile_pattern(constraint.body, index)
                head, frontier_of = _head_check(constraint, body, index)
                body_images = [(a.relation, body.getter(a.terms)) for a in constraint.body]
                head_images = [(a.relation, head.getter(a.terms)) for a in constraint.head]
                # The triggers are collected first: a firing adds facts to the
                # buckets the match is reading.
                for binding, _ in list(body.run()):
                    trigger_provenance = true
                    for relation, image_of in body_images:
                        trigger_provenance = trigger_provenance.conjunction(
                            provenance.get(Atom(relation, image_of(binding)), true)
                        )
                    # Restricted-chase check: only invent new nulls when the head
                    # cannot be satisfied at all with the frontier bindings.
                    head_match = next(head.run(frontier_of(binding)), None)
                    if head_match is not None:
                        # Head already present: only update provenance.
                        updated = False
                        for relation, image_of in head_images:
                            image = Atom(relation, image_of(head_match[0]))
                            old = provenance.get(image, ProvenanceFormula.false())
                            new = old.disjunction(trigger_provenance)
                            if new != old:
                                provenance[image] = new
                                updated = True
                        if updated:
                            changed = True
                            steps = _count_step(steps, config, "provenance chase")
                        continue
                    steps = _count_step(steps, config, "provenance chase")
                    for fact in _fire_tgd(constraint, body.substitution(binding)):
                        old = provenance.get(fact)
                        if old is None:
                            provenance[fact] = trigger_provenance
                            index.add(fact)
                            changed = True
                        else:
                            new = old.disjunction(trigger_provenance)
                            if new != old:
                                provenance[fact] = new
                                changed = True
                    _check_size(index, config, "provenance chase")
            else:  # EGD
                while (unmet := _unmet_equality(constraint, index)) is not None:
                    trigger, old_term, new_term = unmet
                    steps = _count_step(steps, config, "provenance chase")
                    trigger_provenance = true
                    for body_atom in constraint.body:
                        trigger_provenance = trigger_provenance.conjunction(
                            provenance.get(body_atom.apply(trigger), true)
                        )
                    new_provenance: dict[Atom, ProvenanceFormula] = {}
                    for fact, formula in provenance.items():
                        if old_term in fact.terms:
                            renamed = Atom(
                                fact.relation,
                                [new_term if t == old_term else t for t in fact.terms],
                            )
                            merged = formula.conjunction(trigger_provenance)
                            existing = new_provenance.get(renamed)
                            if existing is not None:
                                merged = existing.disjunction(merged)
                            other = provenance.get(renamed)
                            if other is not None and renamed != fact:
                                merged = merged.disjunction(other)
                            new_provenance[renamed] = merged
                        else:
                            existing = new_provenance.get(fact)
                            if existing is not None:
                                new_provenance[fact] = existing.disjunction(formula)
                            else:
                                new_provenance[fact] = formula
                    provenance = new_provenance
                    index.merge(old_term, new_term)
                    if isinstance(old_term, Constant):
                        equalities[old_term] = new_term
                    changed = True

    return ProvenanceChaseResult(
        facts=index.facts(), provenance=provenance, steps=steps, equalities=equalities
    )
