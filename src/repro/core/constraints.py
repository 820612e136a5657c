"""Constraints of the pivot model: TGDs, EGDs and constraint sets.

ESTOCADA describes each application data model and each storage data model
inside a single relational pivot model *plus constraints*.  Two classical
constraint classes suffice:

* **Tuple-generating dependencies (TGDs)** — "whenever the body holds, the
  head must hold (possibly with new existential values)".  They capture view
  definitions (two TGDs per view: forward and backward), data-model axioms
  ("every child is a descendant"), inclusion dependencies and access mappings.
* **Equality-generating dependencies (EGDs)** — "whenever the body holds, two
  terms must be equal".  They capture keys, functional dependencies and
  single-valuedness ("every node has exactly one tag").

A :class:`ConstraintSet` bundles the constraints describing a schema or a
fragment layout and offers the indexing used by the chase.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from repro.core.terms import Atom, Variable
from repro.errors import PivotModelError

__all__ = ["TGD", "EGD", "Constraint", "ConstraintSet", "key_constraint", "functional_dependency", "inclusion_dependency"]


class TGD:
    """A tuple-generating dependency ``∀x̄ (body(x̄) → ∃ȳ head(x̄, ȳ))``.

    ``body`` and ``head`` are conjunctions of atoms.  Variables appearing in
    the head but not in the body are existentially quantified; the chase
    invents labelled nulls for them.
    """

    __slots__ = ("body", "head", "name", "_hash", "_frontier", "_existentials")

    def __init__(self, body: Sequence[Atom], head: Sequence[Atom], name: str | None = None) -> None:
        if not body or not head:
            raise PivotModelError("a TGD needs a non-empty body and a non-empty head")
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "name", name or "tgd")
        object.__setattr__(self, "_hash", hash((frozenset(self.body), frozenset(self.head))))
        body_variables, head_variables = self.body_variables(), self.head_variables()
        object.__setattr__(self, "_frontier", head_variables & body_variables)
        object.__setattr__(self, "_existentials", head_variables - body_variables)

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("TGD is immutable")

    # -- accessors ---------------------------------------------------------
    def body_variables(self) -> frozenset[Variable]:
        """Variables occurring in the body (universally quantified)."""
        result: set[Variable] = set()
        for atom in self.body:
            result.update(atom.variable_set())
        return frozenset(result)

    def head_variables(self) -> frozenset[Variable]:
        """All variables occurring in the head."""
        result: set[Variable] = set()
        for atom in self.head:
            result.update(atom.variable_set())
        return frozenset(result)

    def existential_variables(self) -> frozenset[Variable]:
        """Head variables that do not appear in the body."""
        return self._existentials

    def frontier(self) -> frozenset[Variable]:
        """Variables shared between body and head (the 'frontier')."""
        return self._frontier

    def is_full(self) -> bool:
        """True when the TGD has no existential variables (a *full* TGD)."""
        return not self.existential_variables()

    def relations(self) -> frozenset[str]:
        """All relation names used by this constraint."""
        return frozenset(a.relation for a in self.body) | frozenset(a.relation for a in self.head)

    # -- protocol -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TGD)
            and frozenset(self.body) == frozenset(other.body)
            and frozenset(self.head) == frozenset(other.head)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(repr(a) for a in self.body)
        head = ", ".join(repr(a) for a in self.head)
        return f"[{self.name}] {body} -> {head}"


class EGD:
    """An equality-generating dependency ``∀x̄ (body(x̄) → x = y)``.

    ``equalities`` is a sequence of variable pairs that must be equal whenever
    the body holds.  EGDs express keys and functional dependencies.
    """

    __slots__ = ("body", "equalities", "name", "_hash")

    def __init__(
        self,
        body: Sequence[Atom],
        equalities: Sequence[tuple[Variable, Variable]],
        name: str | None = None,
    ) -> None:
        if not body:
            raise PivotModelError("an EGD needs a non-empty body")
        if not equalities:
            raise PivotModelError("an EGD needs at least one equality")
        body_vars: set[Variable] = set()
        for atom in body:
            body_vars.update(atom.variable_set())
        normalized: list[tuple[Variable, Variable]] = []
        for left, right in equalities:
            if left not in body_vars or right not in body_vars:
                raise PivotModelError(
                    f"EGD equality {left} = {right} uses variables not in the body"
                )
            normalized.append((left, right))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "equalities", tuple(normalized))
        object.__setattr__(self, "name", name or "egd")
        object.__setattr__(self, "_hash", hash((frozenset(self.body), tuple(normalized))))

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("EGD is immutable")

    def body_variables(self) -> frozenset[Variable]:
        """Variables occurring in the body."""
        result: set[Variable] = set()
        for atom in self.body:
            result.update(atom.variable_set())
        return frozenset(result)

    def relations(self) -> frozenset[str]:
        """All relation names used by this constraint."""
        return frozenset(a.relation for a in self.body)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EGD)
            and frozenset(self.body) == frozenset(other.body)
            and self.equalities == other.equalities
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(repr(a) for a in self.body)
        eqs = ", ".join(f"{left} = {right}" for left, right in self.equalities)
        return f"[{self.name}] {body} -> {eqs}"


Constraint = TGD | EGD

# Globally monotonic tokens identifying constraint-set states.  Memo caches
# (see :mod:`repro.core.memo`) key entries on the token instead of the set's
# contents: a mutated or freshly built set gets a token that has never been
# seen before, so stale memo entries can never alias it.
_mutation_tokens = itertools.count()


class ConstraintSet:
    """An ordered, indexed collection of TGDs and EGDs.

    The chase iterates over constraints many times; the set indexes TGDs and
    EGDs by the relations appearing in their bodies so that only constraints
    potentially triggered by newly derived facts are re-examined.
    """

    __slots__ = ("_constraints", "_by_body_relation", "_body_relations", "_token")

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        self._constraints: list[Constraint] = []
        self._by_body_relation: dict[str, list[tuple[int, Constraint]]] = {}
        self._body_relations: list[frozenset[str]] = []
        self._token: int = next(_mutation_tokens)
        for constraint in constraints:
            self.add(constraint)

    @property
    def token(self) -> int:
        """Monotonic token identifying this set's current state (see module note)."""
        return self._token

    def add(self, constraint: Constraint) -> None:
        """Add a constraint (duplicates are silently ignored)."""
        if not isinstance(constraint, (TGD, EGD)):
            raise PivotModelError(f"not a constraint: {constraint!r}")
        if constraint in self._constraints:
            return
        sequence = len(self._constraints)
        self._constraints.append(constraint)
        body_relations = frozenset(atom.relation for atom in constraint.body)
        self._body_relations.append(body_relations)
        for relation in body_relations:
            self._by_body_relation.setdefault(relation, []).append((sequence, constraint))
        self._token = next(_mutation_tokens)

    def extend(self, constraints: Iterable[Constraint]) -> None:
        """Add several constraints."""
        for constraint in constraints:
            self.add(constraint)

    def union(self, other: "ConstraintSet | Iterable[Constraint]") -> "ConstraintSet":
        """A new set containing the constraints of both operands."""
        result = ConstraintSet(self._constraints)
        result.extend(other)
        return result

    # -- access --------------------------------------------------------------
    def tgds(self) -> tuple[TGD, ...]:
        """All TGDs, in insertion order."""
        return tuple(c for c in self._constraints if isinstance(c, TGD))

    def egds(self) -> tuple[EGD, ...]:
        """All EGDs, in insertion order."""
        return tuple(c for c in self._constraints if isinstance(c, EGD))

    def triggered_by(self, relation: str) -> tuple[Constraint, ...]:
        """Constraints whose body mentions ``relation``."""
        return tuple(c for _, c in self._by_body_relation.get(relation, ()))

    def constraints_with_body_relations(self) -> Iterator[tuple[Constraint, frozenset[str]]]:
        """Pairs ``(constraint, body relation names)`` in insertion order.

        Lets the chase skip constraints whose body mentions an absent relation
        without recomputing the relation sets every round.
        """
        return zip(self._constraints, self._body_relations)

    def relations(self) -> frozenset[str]:
        """All relation names mentioned anywhere in the constraint set."""
        names: set[str] = set()
        for constraint in self._constraints:
            names.update(constraint.relations())
        return frozenset(names)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __contains__(self, constraint: object) -> bool:
        return constraint in self._constraints

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ConstraintSet({len(self._constraints)} constraints)"


# ---------------------------------------------------------------------------
# Convenience constructors for the common constraint shapes
# ---------------------------------------------------------------------------

def key_constraint(relation: str, arity: int, key_positions: Sequence[int],
                   name: str | None = None) -> EGD:
    """Build the EGDs stating that ``key_positions`` form a key of ``relation``.

    Two tuples agreeing on the key positions must agree on every other
    position; this returns a single EGD with one equality per non-key position.
    """
    xs = [Variable(f"k{i}") for i in range(arity)]
    ys = [Variable(f"k{i}") if i in key_positions else Variable(f"o{i}") for i in range(arity)]
    equalities = [
        (xs[i], ys[i]) for i in range(arity) if i not in key_positions
    ]
    if not equalities:
        raise PivotModelError("key covering all positions induces no equalities")
    return EGD(
        [Atom(relation, xs), Atom(relation, ys)],
        equalities,
        name=name or f"key_{relation}",
    )


def functional_dependency(relation: str, arity: int, determinant: Sequence[int],
                          dependent: Sequence[int], name: str | None = None) -> EGD:
    """Build the EGD for the functional dependency determinant → dependent."""
    xs = [Variable(f"f{i}") for i in range(arity)]
    ys = [Variable(f"f{i}") if i in determinant else Variable(f"g{i}") for i in range(arity)]
    equalities = [(xs[i], ys[i]) for i in dependent if i not in determinant]
    if not equalities:
        raise PivotModelError("functional dependency with no dependent positions")
    return EGD(
        [Atom(relation, xs), Atom(relation, ys)],
        equalities,
        name=name or f"fd_{relation}",
    )


def inclusion_dependency(source: str, source_arity: int, source_positions: Sequence[int],
                         target: str, target_arity: int, target_positions: Sequence[int],
                         name: str | None = None) -> TGD:
    """Build the TGD for the inclusion dependency source[positions] ⊆ target[positions]."""
    if len(source_positions) != len(target_positions):
        raise PivotModelError("inclusion dependency position lists must have the same length")
    xs = [Variable(f"s{i}") for i in range(source_arity)]
    ys: list[Variable] = []
    shared = {sp: xs[sp] for sp in source_positions}
    mapping = dict(zip(target_positions, source_positions))
    for i in range(target_arity):
        if i in mapping:
            ys.append(shared[mapping[i]])
        else:
            ys.append(Variable(f"t{i}"))
    return TGD([Atom(source, xs)], [Atom(target, ys)], name=name or f"ind_{source}_{target}")
