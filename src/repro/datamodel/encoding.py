"""Base contract for pivot-model encodings of heterogeneous data models.

ESTOCADA describes every application and storage data model inside the same
relational pivot model plus constraints.  A :class:`DataModelEncoding`
packages, for one data model:

* the names and arities of the pivot relations encoding it (the *signature*),
* the constraints axiomatising the model (e.g. "every node has exactly one
  parent", "every child is a descendant"),
* a way to encode native data (tuples, documents, key-value pairs) into
  pivot facts, so that the rewriting engine and the tests can
  reason about concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.constraints import Constraint, ConstraintSet
from repro.core.terms import Atom
from repro.errors import PivotModelError

__all__ = ["RelationSignature", "DataModelEncoding"]


@dataclass(frozen=True, slots=True)
class RelationSignature:
    """Name, arity and column names of one pivot relation."""

    name: str
    columns: tuple[str, ...]

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def atom(self, *terms: object) -> Atom:
        """Build an atom over this relation, checking the arity."""
        if len(terms) != self.arity:
            raise PivotModelError(
                f"relation {self.name!r} expects {self.arity} terms, got {len(terms)}"
            )
        return Atom(self.name, terms)

    def position_of(self, column: str) -> int:
        """The index of ``column`` (raises when unknown)."""
        try:
            return self.columns.index(column)
        except ValueError as exc:
            raise PivotModelError(
                f"relation {self.name!r} has no column {column!r}"
            ) from exc


class DataModelEncoding:
    """Abstract base class for pivot-model encodings.

    Subclasses fix the relation signatures and the axioms of one data model;
    :meth:`encode` turns a native instance into pivot facts.
    """

    #: Short identifier of the data model (``"relational"``, ``"document"``, ...).
    model_name: str = "abstract"

    def signatures(self) -> Sequence[RelationSignature]:
        """The pivot relations used by this encoding."""
        raise NotImplementedError

    def constraints(self) -> ConstraintSet:
        """The axioms of the data model, as a constraint set."""
        raise NotImplementedError

    def encode(self, data: object, **options: object) -> list[Atom]:
        """Encode a native instance into pivot facts."""
        raise NotImplementedError

    # -- helpers shared by subclasses -----------------------------------------
    def signature(self, name: str) -> RelationSignature:
        """Look up a relation signature by name."""
        for candidate in self.signatures():
            if candidate.name == name:
                return candidate
        raise PivotModelError(f"{self.model_name} encoding has no relation {name!r}")

    def extended_constraints(self, extra: Iterable[Constraint]) -> ConstraintSet:
        """The model axioms plus caller-provided constraints."""
        combined = ConstraintSet(self.constraints())
        combined.extend(extra)
        return combined

    def describe(self) -> Mapping[str, object]:
        """A JSON-friendly description (used by storage descriptors and docs)."""
        return {
            "model": self.model_name,
            "relations": {s.name: list(s.columns) for s in self.signatures()},
            "constraints": len(self.constraints()),
        }
