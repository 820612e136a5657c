"""Access-pattern (binding-pattern) restrictions on pivot relations.

Key-value stores — and more generally any source behind a lookup API — cannot
be scanned freely: *"the value of the key must be specified in order to access
the values associated to this key"*.  ESTOCADA encodes such access
restrictions as *binding patterns* on the pivot relations representing the
stored fragments: every position is either an **input** position (must be
bound before the source can be called) or an **output** position (returned by
the source).

A rewriting is *feasible* only if its atoms can be ordered so that, when an
atom over an access-restricted relation is reached, all its input positions
are already bound — by a constant of the query or by an output of a
previously evaluated atom.  The same notion drives the planner's join order
at execution time: an access-restricted atom is fetched by the distinct
values its left side binds (a keyed join).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.query import ConjunctiveQuery
from repro.core.terms import Atom, Constant, Variable
from repro.errors import PivotModelError

__all__ = ["AccessPattern", "AccessPatternRegistry", "feasible_order", "is_feasible"]


@dataclass(frozen=True, slots=True)
class AccessPattern:
    """The binding pattern of a relation.

    ``pattern`` is a string with one character per position: ``'i'`` for an
    input (bound) position and ``'o'`` for an output (free) position.  A
    relation with no input positions is freely scannable.
    """

    relation: str
    pattern: str

    def __post_init__(self) -> None:
        if not all(ch in "io" for ch in self.pattern):
            raise PivotModelError(
                f"access pattern for {self.relation!r} must use only 'i'/'o', got {self.pattern!r}"
            )

    @property
    def arity(self) -> int:
        """Number of positions covered by the pattern."""
        return len(self.pattern)

    def input_positions(self) -> tuple[int, ...]:
        """Positions that must be bound before access."""
        return tuple(i for i, ch in enumerate(self.pattern) if ch == "i")


class AccessPatternRegistry:
    """Registry mapping relation names to their access patterns.

    Relations without a registered pattern are assumed freely accessible
    (all-output), which is the right default for ordinary relational and
    document fragments.
    """

    __slots__ = ("_patterns",)

    def __init__(self, patterns: Iterable[AccessPattern] = ()) -> None:
        self._patterns: dict[str, AccessPattern] = {}
        for pattern in patterns:
            self.register(pattern)

    def register(self, pattern: AccessPattern) -> None:
        """Register (or replace) the pattern for a relation."""
        self._patterns[pattern.relation] = pattern

    def unregister(self, relation: str) -> AccessPattern | None:
        """Drop the pattern of ``relation`` (no-op when unregistered)."""
        return self._patterns.pop(relation, None)

    def get(self, relation: str, arity: int | None = None) -> AccessPattern:
        """The pattern of ``relation`` (an all-output default when unregistered)."""
        pattern = self._patterns.get(relation)
        if pattern is not None:
            return pattern
        return AccessPattern(relation, "o" * (arity or 0))

    def __contains__(self, relation: str) -> bool:
        return relation in self._patterns

    def __len__(self) -> int:
        return len(self._patterns)

    def patterns(self) -> Mapping[str, AccessPattern]:
        """A read-only view of the registered patterns."""
        return dict(self._patterns)


def feasible_order(
    atoms: Sequence[Atom],
    registry: AccessPatternRegistry,
    initially_bound: Iterable[Variable] = (),
) -> list[Atom] | None:
    """Find an evaluation order satisfying every access pattern, or None.

    Greedy algorithm: repeatedly pick any not-yet-placed atom whose input
    positions are all bound (by constants, by ``initially_bound`` variables,
    or by outputs of already-placed atoms).  The greedy strategy is complete
    here because placing an atom never *unbinds* anything: if a feasible
    order exists, at every step at least one atom is placeable.
    """
    bound: set[Variable] = set(initially_bound)
    remaining = list(atoms)
    ordered: list[Atom] = []

    def placeable(atom: Atom) -> bool:
        pattern = registry.get(atom.relation, atom.arity)
        for position in pattern.input_positions():
            if position >= atom.arity:
                raise PivotModelError(
                    f"access pattern of {atom.relation!r} longer than atom arity {atom.arity}"
                )
            term = atom.terms[position]
            if isinstance(term, Constant):
                continue
            if isinstance(term, Variable) and term in bound:
                continue
            return False
        return True

    while remaining:
        progress = False
        for atom in list(remaining):
            if placeable(atom):
                ordered.append(atom)
                remaining.remove(atom)
                bound.update(atom.variable_set())
                progress = True
                break
        if not progress:
            return None
    return ordered


def is_feasible(
    query: ConjunctiveQuery,
    registry: AccessPatternRegistry,
    bound_head_variables: Iterable[Variable] = (),
) -> bool:
    """True when ``query`` admits an access-pattern-respecting evaluation order.

    ``bound_head_variables`` lists head variables whose values are supplied by
    the caller (e.g. parameters of a parameterized query); they count as bound
    from the start.
    """
    return feasible_order(query.body, registry, initially_bound=bound_head_variables) is not None
