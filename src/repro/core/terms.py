"""Terms of the pivot model: variables, constants, atoms and substitutions.

The pivot model of ESTOCADA is relational: every data model (relational,
document, key-value, nested) is encoded as a set of relations, and queries,
view definitions and constraints are built from *atoms* over those relations.
An atom is a relation name applied to a tuple of *terms*; a term is either a
:class:`Variable` or a :class:`Constant`.

The module also provides :class:`Substitution`, a mapping from variables to
terms used by homomorphism search, the chase and query rewriting.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ArityError, PivotModelError

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "Substitution",
    "fresh_variable",
    "reset_variable_counter",
]

# Chase and homomorphism inner loops hash the same few variables millions of
# times; interning bounds allocation and makes the identity fast path in
# ``__eq__`` hit for all common variables.  The cap keeps the table from
# growing without bound under fresh-variable generation.
_VARIABLE_INTERN_LIMIT = 65_536


class Variable:
    """A named variable of the pivot model.

    Variables are compared and hashed by name; two variables with the same
    name are the same variable.  Instances are immutable, hash-cached and
    interned (up to a bound), so construction of a known name returns the
    existing object and equality short-circuits on identity.
    """

    __slots__ = ("name", "_hash")

    _interned: dict[str, "Variable"] = {}

    def __new__(cls, name: str) -> "Variable":
        interned = cls._interned.get(name)
        if interned is not None:
            return interned
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))
        if len(cls._interned) < _VARIABLE_INTERN_LIMIT:
            cls._interned[name] = self
        return self

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Variable is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Variable, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"?{self.name}"

    def __str__(self) -> str:
        return f"?{self.name}"


class Constant:
    """A constant value (string, number, boolean or ``None``).

    Immutable with a lazily cached hash (lazy because arbitrary values may be
    unhashable until someone actually asks).  Not interned: distinct values
    are unbounded, and Python's ``1 == True == 1.0`` coercion would make an
    intern table conflate representations that print differently.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: object) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Constant is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("Constant", self.value))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self) -> tuple:
        return (Constant, (self.value,))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.value!r}"

    def __str__(self) -> str:
        return repr(self.value)


Term = Variable | Constant

_fresh_counter = itertools.count()


def fresh_variable(prefix: str = "v") -> Variable:
    """Return a variable with a globally unique name.

    Used by the chase (labelled nulls), query normalization and the
    rewriting engine when new existential variables must be invented.
    """
    return Variable(f"_{prefix}{next(_fresh_counter)}")


def reset_variable_counter() -> None:
    """Reset the fresh-variable counter (for reproducible tests only)."""
    global _fresh_counter
    _fresh_counter = itertools.count()


def _as_term(value: object) -> Term:
    """Coerce a raw Python value into a :class:`Term`.

    Strings starting with ``?`` become variables; everything else becomes a
    constant.  Existing terms pass through unchanged.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value.startswith("?"):
        return Variable(value[1:])
    return Constant(value)


class Atom:
    """A relational atom ``R(t1, ..., tn)`` over pivot-model terms.

    Atoms are immutable and hashable, which lets chase instances and query
    bodies be stored in sets for fast duplicate detection.
    """

    __slots__ = ("relation", "terms", "_hash")

    def __init__(self, relation: str, terms: Sequence[object]) -> None:
        if not relation:
            raise PivotModelError("atom relation name must be non-empty")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", tuple(_as_term(t) for t in terms))
        object.__setattr__(self, "_hash", hash((relation, self.terms)))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Atom is immutable")

    # -- basic protocol ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.relation == other.relation
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({args})"

    def __len__(self) -> int:
        return len(self.terms)

    # -- accessors ---------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of terms in the atom."""
        return len(self.terms)

    def variables(self) -> tuple[Variable, ...]:
        """All variable occurrences, in positional order (with duplicates)."""
        return tuple(t for t in self.terms if isinstance(t, Variable))

    def variable_set(self) -> frozenset[Variable]:
        """The set of distinct variables appearing in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> tuple[Constant, ...]:
        """All constant occurrences, in positional order."""
        return tuple(t for t in self.terms if isinstance(t, Constant))

    def is_ground(self) -> bool:
        """True when the atom contains no variables (i.e. it is a fact)."""
        return not any(isinstance(t, Variable) for t in self.terms)

    # -- transformation ----------------------------------------------------
    def apply(self, substitution: "Substitution") -> "Atom":
        """Return a copy of the atom with ``substitution`` applied."""
        return Atom(self.relation, [substitution.resolve(t) for t in self.terms])

    def rename(self, mapping: Mapping[Variable, Variable]) -> "Atom":
        """Rename variables according to ``mapping`` (missing ones unchanged)."""
        return Atom(
            self.relation,
            [mapping.get(t, t) if isinstance(t, Variable) else t for t in self.terms],
        )

    def check_arity(self, expected: int) -> None:
        """Raise :class:`ArityError` unless the atom has ``expected`` terms."""
        if self.arity != expected:
            raise ArityError(
                f"relation {self.relation!r} expects arity {expected}, "
                f"atom has arity {self.arity}"
            )


class Substitution:
    """A mapping from variables to terms.

    Substitutions are the workhorse of homomorphism search and the chase.
    They are immutable from the outside: ``bind`` returns a new substitution
    (sharing storage where possible) rather than mutating in place, which keeps
    backtracking search code simple and bug-free.
    """

    __slots__ = ("_mapping", "_hash")

    def __init__(self, mapping: Mapping[Variable, Term] | None = None) -> None:
        self._mapping: dict[Variable, Term] = dict(mapping or {})
        self._hash: int | None = None

    # -- construction ------------------------------------------------------
    @classmethod
    def empty(cls) -> "Substitution":
        """The identity substitution."""
        return cls()

    def bind(self, variable: Variable, term: Term) -> "Substitution":
        """Return a new substitution extending this one with ``variable -> term``.

        Raises :class:`PivotModelError` if the variable is already bound to a
        different term.
        """
        existing = self._mapping.get(variable)
        if existing is not None and existing != term:
            raise PivotModelError(
                f"variable {variable} already bound to {existing}, cannot rebind to {term}"
            )
        new = Substitution(self._mapping)
        new._mapping[variable] = term
        return new

    def bind_mutable(self, variable: Variable, term: Term) -> None:
        """In-place bind used by performance-sensitive search loops."""
        self._mapping[variable] = term
        self._hash = None

    def unbind_mutable(self, variable: Variable) -> None:
        """In-place unbind used by performance-sensitive search loops."""
        self._mapping.pop(variable, None)
        self._hash = None

    def copy(self) -> "Substitution":
        """Return an independent copy."""
        return Substitution(self._mapping)

    # -- lookup ------------------------------------------------------------
    def resolve(self, term: Term) -> Term:
        """Map a term through the substitution (constants map to themselves)."""
        if isinstance(term, Variable):
            return self._mapping.get(term, term)
        return term

    def get(self, variable: Variable) -> Term | None:
        """The image of ``variable``, or None when unbound."""
        return self._mapping.get(variable)

    def __contains__(self, variable: Variable) -> bool:
        return variable in self._mapping

    def __len__(self) -> int:
        return len(self._mapping)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def items(self) -> Iterable[tuple[Variable, Term]]:
        """Iterate over (variable, term) bindings."""
        return self._mapping.items()

    # -- combination ---------------------------------------------------------
    def compose(self, other: "Substitution") -> "Substitution":
        """Return ``self`` followed by ``other`` (apply self, then other)."""
        combined: dict[Variable, Term] = {
            var: other.resolve(term) for var, term in self._mapping.items()
        }
        for var, term in other.items():
            combined.setdefault(var, term)
        return Substitution(combined)

    def merge(self, other: "Substitution") -> "Substitution | None":
        """Union of two substitutions, or None if they conflict."""
        merged = dict(self._mapping)
        for var, term in other.items():
            existing = merged.get(var)
            if existing is not None and existing != term:
                return None
            merged[var] = term
        return Substitution(merged)

    # -- protocol ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._mapping == other._mapping

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._mapping.items()))
            self._hash = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        pairs = ", ".join(f"{v} -> {t}" for v, t in sorted(
            self._mapping.items(), key=lambda item: item[0].name))
        return f"{{{pairs}}}"


def _micro_assert_equality_semantics() -> None:
    """Equality must behave exactly as with the former dataclass terms."""
    assert Variable("x") == Variable("x") and hash(Variable("x")) == hash(Variable("x"))
    assert Variable("x") != Variable("y")
    assert Constant(1) == Constant(1) and hash(Constant(1)) == hash(Constant(1))
    assert Constant(1) != Constant(2)
    assert Variable("x") != Constant("x") and Constant("x") != Variable("x")
    assert Atom("R", ["?x", 1]) == Atom("R", ["?x", 1])
    assert Substitution({Variable("x"): Constant(1)}) == Substitution(
        {Variable("x"): Constant(1)}
    )


_micro_assert_equality_semantics()
