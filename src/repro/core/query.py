"""Conjunctive queries over the pivot model.

A :class:`ConjunctiveQuery` (CQ) has a *head* — the answer relation name and
its distinguished variables/constants — and a *body*, an ordered tuple of
atoms.  CQs are the common currency of ESTOCADA: application queries, view
(fragment) definitions and rewritings are all CQs (or small unions of CQs).

The module also provides :class:`UnionQuery` for unions of conjunctive
queries, plus the structural helpers needed by the chase and the rewriting
engine: variable classification, canonical instances (freezing), renaming
apart, and merging.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from repro.core.terms import Atom, Constant, Substitution, Term, Variable, fresh_variable
from repro.errors import PivotModelError

__all__ = ["ConjunctiveQuery", "UnionQuery", "freeze_atoms", "canonical_instance"]


class ConjunctiveQuery:
    """A conjunctive query ``head(x...) :- body_1, ..., body_n``.

    Parameters
    ----------
    head_relation:
        Name of the answer relation (conventionally ``"Q"`` for user queries
        or the fragment name for view definitions).
    head_terms:
        The distinguished terms.  Raw strings starting with ``?`` are parsed
        as variables, other raw values as constants.
    body:
        The atoms of the query body.
    name:
        Optional human-readable name used in plans and error messages.
    """

    __slots__ = ("head_relation", "head_terms", "body", "name", "_hash")

    def __init__(
        self,
        head_relation: str,
        head_terms: Sequence[object],
        body: Sequence[Atom],
        name: str | None = None,
    ) -> None:
        if not body:
            raise PivotModelError("conjunctive query body must contain at least one atom")
        head = Atom(head_relation, head_terms)
        object.__setattr__(self, "head_relation", head.relation)
        object.__setattr__(self, "head_terms", head.terms)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "name", name or head_relation)
        object.__setattr__(
            self, "_hash", hash((self.head_relation, self.head_terms, frozenset(self.body)))
        )
        self._validate()

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("ConjunctiveQuery is immutable")

    def _validate(self) -> None:
        body_vars = self.body_variables()
        for term in self.head_terms:
            if isinstance(term, Variable) and term not in body_vars:
                raise PivotModelError(
                    f"head variable {term} of query {self.name!r} does not occur in the body"
                )

    # -- accessors ---------------------------------------------------------
    @property
    def head(self) -> Atom:
        """The head as an atom (recomputed on demand)."""
        return Atom(self.head_relation, self.head_terms)

    def head_variables(self) -> tuple[Variable, ...]:
        """Distinguished variables, in head order (duplicates preserved)."""
        return tuple(t for t in self.head_terms if isinstance(t, Variable))

    def body_variables(self) -> frozenset[Variable]:
        """All variables occurring in the body."""
        result: set[Variable] = set()
        for atom in self.body:
            result.update(atom.variable_set())
        return frozenset(result)

    def existential_variables(self) -> frozenset[Variable]:
        """Body variables that do not appear in the head."""
        return self.body_variables() - set(self.head_variables())

    def constants(self) -> frozenset[Constant]:
        """All constants occurring in head or body."""
        result: set[Constant] = set()
        result.update(t for t in self.head_terms if isinstance(t, Constant))
        for atom in self.body:
            result.update(atom.constants())
        return frozenset(result)

    def relations(self) -> frozenset[str]:
        """Names of the relations used in the body."""
        return frozenset(atom.relation for atom in self.body)

    def atoms_over(self, relation: str) -> tuple[Atom, ...]:
        """The body atoms over ``relation``."""
        return tuple(atom for atom in self.body if atom.relation == relation)

    # -- transformations -----------------------------------------------------
    def apply(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to head and body."""
        return ConjunctiveQuery(
            self.head_relation,
            [substitution.resolve(t) for t in self.head_terms],
            [atom.apply(substitution) for atom in self.body],
            name=self.name,
        )

    def rename_apart(self, suffix: str | None = None) -> "ConjunctiveQuery":
        """Return an isomorphic copy whose variables are globally fresh.

        Used before combining queries (e.g. folding a view definition into a
        query body) so that variable names never clash.
        """
        mapping: dict[Variable, Variable] = {}
        for var in sorted(self.body_variables() | set(self.head_variables()),
                          key=lambda v: v.name):
            mapping[var] = fresh_variable(suffix or var.name)
        return self.rename(mapping)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "ConjunctiveQuery":
        """Rename variables; variables not in ``mapping`` are unchanged."""
        return ConjunctiveQuery(
            self.head_relation,
            [mapping.get(t, t) if isinstance(t, Variable) else t for t in self.head_terms],
            [atom.rename(mapping) for atom in self.body],
            name=self.name,
        )

    def with_body(self, body: Sequence[Atom], name: str | None = None) -> "ConjunctiveQuery":
        """A copy of this query with a different body (same head)."""
        return ConjunctiveQuery(
            self.head_relation, self.head_terms, body, name=name or self.name
        )

    def extend_body(self, extra: Iterable[Atom]) -> "ConjunctiveQuery":
        """A copy with additional body atoms appended."""
        return self.with_body(tuple(self.body) + tuple(extra))

    def project(self, head_terms: Sequence[object], head_relation: str | None = None
                ) -> "ConjunctiveQuery":
        """A copy of this query with a different head."""
        return ConjunctiveQuery(
            head_relation or self.head_relation, head_terms, self.body, name=self.name
        )

    # -- canonical (frozen) instance -----------------------------------------
    def canonical_instance(self) -> tuple[frozenset[Atom], Substitution]:
        """Freeze the query body into a set of facts.

        Every variable is replaced by a distinct labelled-null constant; the
        result is the *canonical instance* used by the chase and by
        containment checks.  Returns the facts and the freezing substitution.
        """
        return canonical_instance(self.body)

    # -- protocol -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self.head_relation == other.head_relation
            and self.head_terms == other.head_terms
            and frozenset(self.body) == frozenset(other.body)
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:
        head = ", ".join(str(t) for t in self.head_terms)
        body = ", ".join(repr(atom) for atom in self.body)
        return f"{self.head_relation}({head}) :- {body}"


class UnionQuery:
    """A union of conjunctive queries sharing the same head signature."""

    __slots__ = ("disjuncts", "name")

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery], name: str | None = None) -> None:
        if not disjuncts:
            raise PivotModelError("a union query needs at least one disjunct")
        arities = {len(q.head_terms) for q in disjuncts}
        if len(arities) != 1:
            raise PivotModelError(
                f"union disjuncts must share the head arity, got arities {sorted(arities)}"
            )
        object.__setattr__(self, "disjuncts", tuple(disjuncts))
        object.__setattr__(self, "name", name or disjuncts[0].name)

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("UnionQuery is immutable")

    def __iter__(self):
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __repr__(self) -> str:
        return " UNION ".join(repr(q) for q in self.disjuncts)


def freeze_atoms(
    atoms: Sequence[Atom], prefix: str = "null"
) -> tuple[frozenset[Atom], Substitution]:
    """Replace every variable in ``atoms`` by a fresh labelled-null constant.

    The labelled nulls are :class:`Constant` objects whose value is a string
    ``"_:<prefix><i>_<varname>"``; they are distinguishable from ordinary
    constants by :func:`is_labelled_null`.
    """
    counter = itertools.count()
    mapping: dict[Variable, Term] = {}
    frozen: list[Atom] = []
    for atom in atoms:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in mapping:
                mapping[term] = Constant(f"_:{prefix}{next(counter)}_{term.name}")
        substitution = Substitution(mapping)
        frozen.append(atom.apply(substitution))
    return frozenset(frozen), Substitution(mapping)


def canonical_instance(atoms: Sequence[Atom]) -> tuple[frozenset[Atom], Substitution]:
    """Alias of :func:`freeze_atoms` with the conventional name."""
    return freeze_atoms(atoms)


def is_labelled_null(term: Term) -> bool:
    """True when ``term`` is a labelled null produced by :func:`freeze_atoms`."""
    return isinstance(term, Constant) and isinstance(term.value, str) and term.value.startswith("_:")
