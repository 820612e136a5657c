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
from typing import Iterable, Mapping

from repro.core.constraints import EGD, TGD, Constraint, ConstraintSet
from repro.core.homomorphism import InstanceIndex, find_homomorphism, iterate_homomorphisms
from repro.core.provenance import ProvenanceFormula
from repro.core.terms import Atom, Constant, Substitution, Term
from repro.errors import ChaseError, ChaseNonTerminationError

__all__ = ["ChaseResult", "ChaseConfig", "chase", "ChaseFailure", "provenance_chase", "ProvenanceChaseResult"]

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
    fired_constraints: tuple[str, ...]
    equalities: dict[Constant, Term] = field(default_factory=dict)

    def index(self) -> InstanceIndex:
        """The chased instance as a homomorphism index."""
        return InstanceIndex(self.facts)


def _tgd_is_satisfied(tgd: TGD, trigger: Substitution, index: InstanceIndex) -> bool:
    """Check whether a TGD trigger is already satisfied (restricted chase)."""
    return (
        find_homomorphism(tgd.head, index, seed=_frontier_seed(tgd, trigger)) is not None
    )


def _frontier_seed(tgd: TGD, trigger: Substitution) -> Substitution:
    """Restrict a body trigger to the frontier variables (shared with the head)."""
    seed = Substitution.empty()
    for variable in tgd.frontier():
        value = trigger.get(variable)
        if value is not None:
            seed = seed.bind(variable, value)
    return seed


def _fire_tgd(tgd: TGD, trigger: Substitution) -> list[Atom]:
    """Produce the head facts of a TGD firing, inventing nulls for existentials."""
    extended = trigger
    for variable in sorted(tgd.existential_variables(), key=lambda v: v.name):
        extended = extended.bind(variable, _fresh_null(variable.name))
    return [atom.apply(extended) for atom in tgd.head]


def _apply_equality(
    facts: set[Atom], old: Term, new: Term
) -> set[Atom]:
    """Replace every occurrence of ``old`` by ``new`` in ``facts``."""
    replaced: set[Atom] = set()
    for fact in facts:
        if old in fact.terms:
            replaced.add(
                Atom(fact.relation, [new if t == old else t for t in fact.terms])
            )
        else:
            replaced.add(fact)
    return replaced


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

    current: set[Atom] = set(facts)
    equalities: dict[Constant, Term] = {}
    steps = 0
    fired: list[str] = []

    changed = True
    while changed:
        changed = False
        index = InstanceIndex(current)
        for constraint, body_relations in constraints.constraints_with_body_relations():
            # Inverted dispatch: a constraint whose body mentions a relation
            # absent from the instance has no trigger, so matching its body
            # would find nothing.
            if not body_relations <= index.relations():
                continue
            if isinstance(constraint, TGD):
                new_facts: list[Atom] = []
                for trigger in iterate_homomorphisms(constraint.body, index):
                    if _tgd_is_satisfied(constraint, trigger, index):
                        continue
                    steps += 1
                    if steps > config.max_steps:
                        raise ChaseNonTerminationError(
                            f"chase exceeded {config.max_steps} steps"
                        )
                    produced = _fire_tgd(constraint, trigger)
                    for fact in produced:
                        if fact not in current:
                            new_facts.append(fact)
                    fired.append(constraint.name)
                if new_facts:
                    current.update(new_facts)
                    index.add_all(new_facts)
                    changed = True
                    if len(current) > config.max_facts:
                        raise ChaseNonTerminationError(
                            f"chase instance exceeded {config.max_facts} facts"
                        )
            else:  # EGD
                # EGDs may cascade; iterate until no trigger produces a change.
                egd_changed = True
                while egd_changed:
                    egd_changed = False
                    index = InstanceIndex(current)
                    for trigger in iterate_homomorphisms(constraint.body, index):
                        for left_var, right_var in constraint.equalities:
                            left = trigger.resolve(left_var)
                            right = trigger.resolve(right_var)
                            resolution = _resolve_egd_equality(left, right)
                            if resolution is None:
                                continue
                            old, new = resolution
                            steps += 1
                            if steps > config.max_steps:
                                raise ChaseNonTerminationError(
                                    f"chase exceeded {config.max_steps} steps"
                                )
                            current = _apply_equality(current, old, new)
                            if isinstance(old, Constant):
                                equalities[old] = new
                            fired.append(constraint.name)
                            changed = True
                            egd_changed = True
                            break
                        if egd_changed:
                            break

    return ChaseResult(
        facts=frozenset(current),
        steps=steps,
        fired_constraints=tuple(fired),
        equalities=equalities,
    )


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
    current: set[Atom] = set(annotated_facts)
    equalities: dict[Constant, Term] = {}
    steps = 0

    changed = True
    while changed:
        changed = False
        index = InstanceIndex(current)
        for constraint, body_relations in constraints.constraints_with_body_relations():
            # Same inverted dispatch as the standard chase (see above).
            if not body_relations <= index.relations():
                continue
            if isinstance(constraint, TGD):
                for trigger in iterate_homomorphisms(constraint.body, index):
                    trigger_provenance = ProvenanceFormula.true()
                    for body_atom in constraint.body:
                        image = body_atom.apply(trigger)
                        trigger_provenance = trigger_provenance.conjunction(
                            provenance.get(image, ProvenanceFormula.true())
                        )
                    extended = trigger
                    existentials = sorted(
                        constraint.existential_variables(), key=lambda v: v.name
                    )
                    # Restricted-chase check: only invent new nulls when the head
                    # cannot be satisfied at all with the frontier bindings.
                    head_match = find_homomorphism(
                        constraint.head, index, seed=_frontier_seed(constraint, trigger)
                    )
                    if head_match is not None:
                        # Head already present: only update provenance.
                        updated = False
                        for head_atom in constraint.head:
                            image = head_atom.apply(head_match)
                            old = provenance.get(image, ProvenanceFormula.false())
                            new = old.disjunction(trigger_provenance)
                            if new != old:
                                provenance[image] = new
                                updated = True
                        if updated:
                            changed = True
                            steps += 1
                            if steps > config.max_steps:
                                raise ChaseNonTerminationError(
                                    f"provenance chase exceeded {config.max_steps} steps"
                                )
                        continue
                    for variable in existentials:
                        extended = extended.bind(variable, _fresh_null(variable.name))
                    steps += 1
                    if steps > config.max_steps:
                        raise ChaseNonTerminationError(
                            f"provenance chase exceeded {config.max_steps} steps"
                        )
                    for head_atom in constraint.head:
                        fact = head_atom.apply(extended)
                        old = provenance.get(fact)
                        if old is None:
                            provenance[fact] = trigger_provenance
                            current.add(fact)
                            index.add(fact)
                            changed = True
                        else:
                            new = old.disjunction(trigger_provenance)
                            if new != old:
                                provenance[fact] = new
                                changed = True
                    if len(current) > config.max_facts:
                        raise ChaseNonTerminationError(
                            f"provenance chase instance exceeded {config.max_facts} facts"
                        )
            else:  # EGD
                egd_changed = True
                while egd_changed:
                    egd_changed = False
                    index = InstanceIndex(current)
                    for trigger in iterate_homomorphisms(constraint.body, index):
                        for left_var, right_var in constraint.equalities:
                            left = trigger.resolve(left_var)
                            right = trigger.resolve(right_var)
                            resolution = _resolve_egd_equality(left, right)
                            if resolution is None:
                                continue
                            old_term, new_term = resolution
                            steps += 1
                            if steps > config.max_steps:
                                raise ChaseNonTerminationError(
                                    f"provenance chase exceeded {config.max_steps} steps"
                                )
                            trigger_provenance = ProvenanceFormula.true()
                            for body_atom in constraint.body:
                                image = body_atom.apply(trigger)
                                trigger_provenance = trigger_provenance.conjunction(
                                    provenance.get(image, ProvenanceFormula.true())
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
                            current = set(provenance)
                            if isinstance(old_term, Constant):
                                equalities[old_term] = new_term
                            changed = True
                            egd_changed = True
                            break
                        if egd_changed:
                            break

    return ProvenanceChaseResult(
        facts=frozenset(current), provenance=provenance, steps=steps, equalities=equalities
    )
