"""Homomorphism search over sets of atoms.

A homomorphism from a conjunction of atoms ``P`` into an instance ``I`` is a
substitution mapping the variables of ``P`` such that every atom of ``P``
lands on an atom of ``I``.  Homomorphisms underlie every algorithm in the
rewriting engine:

* the chase looks for *triggers* (homomorphisms from a constraint body into
  the current instance),
* CQ containment checks for a homomorphism from one query's body into the
  canonical instance of the other,
* the backchase checks candidate sub-queries for equivalence via the chase.

The implementation is a backtracking search with two standard optimisations:

* atoms of the instance are indexed by relation name (and by
  (relation, position, constant) for constant positions), so candidate target
  atoms are found without scanning the whole instance;
* pattern atoms are ordered most-constrained-first (fewest candidate targets,
  most already-bound variables), which prunes the search tree early.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, KeysView, Sequence

from repro.core.memo import LRUMemo
from repro.core.terms import Atom, Constant, Substitution, Term, Variable

__all__ = ["InstanceIndex", "find_homomorphism", "iterate_homomorphisms", "count_homomorphisms"]

# Tokens distinguishing index instances for memo keys: two indexes with equal
# content never share a fingerprint, so cached homomorphisms cannot go stale.
_index_tokens = itertools.count()


class InstanceIndex:
    """Index of a set of facts, by relation and by constant positions.

    The index is incrementally updatable: the chase adds facts as it derives
    them and the index keeps lookup structures in sync.
    """

    __slots__ = ("_facts", "_by_relation", "_by_rel_pos_value", "_token", "_mutations")

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._facts: set[Atom] = set()
        self._by_relation: dict[str, list[Atom]] = {}
        self._by_rel_pos_value: dict[tuple[str, int, object], list[Atom]] = {}
        self._token: int = next(_index_tokens)
        self._mutations: int = 0
        for fact in facts:
            self.add(fact)

    # -- updates -------------------------------------------------------------
    def add(self, fact: Atom) -> bool:
        """Add a fact; returns False when it was already present."""
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._mutations += 1
        self._by_relation.setdefault(fact.relation, []).append(fact)
        for position, term in enumerate(fact.terms):
            if isinstance(term, Constant):
                key = (fact.relation, position, term.value)
                self._by_rel_pos_value.setdefault(key, []).append(fact)
        return True

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Add several facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    # -- lookups -------------------------------------------------------------
    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def facts(self) -> frozenset[Atom]:
        """All facts as a frozen set."""
        return frozenset(self._facts)

    def relations(self) -> KeysView[str]:
        """Relation names present in the instance (a live set-like view)."""
        return self._by_relation.keys()

    @property
    def fingerprint(self) -> tuple[int, int]:
        """Identity + mutation count: a stable memo key for this index state."""
        return (self._token, self._mutations)

    def by_relation(self, relation: str) -> Sequence[Atom]:
        """Facts over ``relation``."""
        return self._by_relation.get(relation, ())

    def candidates(self, pattern: Atom, substitution: Substitution) -> Sequence[Atom]:
        """Facts that could match ``pattern`` under the current partial substitution.

        Uses the most selective available index: if any position of the
        pattern is a constant (or a variable already bound to a constant), the
        (relation, position, value) index is used; otherwise all facts of the
        relation are returned.
        """
        best: Sequence[Atom] | None = None
        for position, term in enumerate(pattern.terms):
            resolved = substitution.resolve(term)
            if isinstance(resolved, Constant):
                key = (pattern.relation, position, resolved.value)
                bucket = self._by_rel_pos_value.get(key, ())
                if best is None or len(bucket) < len(best):
                    best = bucket
                    if not best:
                        return ()
        if best is not None:
            return best
        return self._by_relation.get(pattern.relation, ())


def _match_atom(pattern: Atom, fact: Atom, substitution: Substitution) -> Substitution | None:
    """Try to extend ``substitution`` so that ``pattern`` maps onto ``fact``.

    Returns the extended substitution, or None when the atoms are incompatible.
    The input substitution is not modified.
    """
    if pattern.relation != fact.relation or pattern.arity != fact.arity:
        return None
    bindings: dict[Variable, Term] = {}
    for pattern_term, fact_term in zip(pattern.terms, fact.terms):
        resolved = substitution.resolve(pattern_term)
        if isinstance(resolved, Variable):
            # Still unbound (or bound within this atom): bind it.
            pending = bindings.get(resolved)
            if pending is None:
                bindings[resolved] = fact_term
            elif pending != fact_term:
                return None
        else:
            if resolved != fact_term:
                return None
    result = substitution
    for variable, term in bindings.items():
        result = result.bind(variable, term)
    return result


def _order_pattern(pattern: Sequence[Atom], index: InstanceIndex) -> list[Atom]:
    """Order pattern atoms most-constrained-first.

    A greedy ordering: repeatedly pick the atom with the fewest candidate
    facts, preferring atoms that share variables with already-placed atoms.
    """
    empty_substitution = Substitution.empty()
    # Fanout and variable sets do not change while ordering: compute them once
    # instead of once per (round, atom) pair as the greedy loop progresses.
    remaining = [
        (atom, len(index.candidates(atom, empty_substitution)), atom.variable_set())
        for atom in pattern
    ]
    ordered: list[Atom] = []
    bound: set[Variable] = set()
    while remaining:
        # Fewer candidates first; among equals, more shared variables first.
        # min() keeps the first minimal entry, preserving the deterministic
        # tie-break of the original (scan-in-pattern-order) implementation.
        best_position = min(
            range(len(remaining)),
            key=lambda i: (remaining[i][1], -len(remaining[i][2] & bound)),
        )
        atom, _, variables = remaining.pop(best_position)
        ordered.append(atom)
        bound.update(variables)
    return ordered


def iterate_homomorphisms(
    pattern: Sequence[Atom],
    instance: InstanceIndex | Iterable[Atom],
    seed: Substitution | None = None,
    limit: int | None = None,
) -> Iterator[Substitution]:
    """Yield homomorphisms from ``pattern`` into ``instance``.

    Parameters
    ----------
    pattern:
        Atoms (possibly containing variables) to map.
    instance:
        The target facts, as an :class:`InstanceIndex` or any iterable of
        ground atoms (an index is built on the fly in the latter case).
    seed:
        A partial substitution that every returned homomorphism must extend
        (used by the chase to fix the trigger found on the constraint body).
    limit:
        If given, stop after yielding this many homomorphisms.
    """
    if not isinstance(instance, InstanceIndex):
        instance = InstanceIndex(instance)
    if not pattern:
        yield seed or Substitution.empty()
        return

    ordered = _order_pattern(pattern, instance)
    produced = 0

    def search(position: int, substitution: Substitution) -> Iterator[Substitution]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if position == len(ordered):
            produced += 1
            yield substitution
            return
        atom = ordered[position]
        for fact in instance.candidates(atom, substitution):
            extended = _match_atom(atom, fact, substitution)
            if extended is None:
                continue
            yield from search(position + 1, extended)
            if limit is not None and produced >= limit:
                return

    yield from search(0, seed or Substitution.empty())


_NO_HOMOMORPHISM = object()
_find_memo = LRUMemo("find_homomorphism", max_entries=8192)


def find_homomorphism(
    pattern: Sequence[Atom],
    instance: InstanceIndex | Iterable[Atom],
    seed: Substitution | None = None,
    requirement: Callable[[Substitution], bool] | None = None,
) -> Substitution | None:
    """Return one homomorphism from ``pattern`` into ``instance`` or None.

    ``requirement`` optionally filters homomorphisms (e.g. "head variables must
    map to the expected values" for containment checks).

    Requirement-free searches against an :class:`InstanceIndex` are memoized
    on (pattern, index fingerprint, seed): the chase re-checks the same TGD
    head against the same instance state many times per round.
    """
    key = None
    if requirement is None and isinstance(instance, InstanceIndex):
        key = (
            tuple(pattern),
            instance.fingerprint,
            None if seed is None else frozenset(seed.items()),
        )
        cached = _find_memo.get(key)
        if cached is not _find_memo.missing:
            return None if cached is _NO_HOMOMORPHISM else cached  # type: ignore[return-value]
    for homomorphism in iterate_homomorphisms(pattern, instance, seed=seed):
        if requirement is None or requirement(homomorphism):
            if key is not None:
                _find_memo.put(key, homomorphism)
            return homomorphism
    if key is not None:
        _find_memo.put(key, _NO_HOMOMORPHISM)
    return None


def count_homomorphisms(
    pattern: Sequence[Atom],
    instance: InstanceIndex | Iterable[Atom],
    limit: int | None = None,
) -> int:
    """Count homomorphisms from ``pattern`` into ``instance`` (up to ``limit``)."""
    count = 0
    for _ in iterate_homomorphisms(pattern, instance, limit=limit):
        count += 1
    return count
