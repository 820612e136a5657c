"""Select/project/join delta rules for conjunctive-query view maintenance.

A materialized fragment is defined by a conjunctive query over base
relations.  When a base relation changes, the fragment can be kept current
without re-evaluating the query: the classical delta rules express the
change of the view as a (much smaller) join of the *delta* with the old and
new states of the other body atoms,

    ΔQ = Σ_i  eval( new_1, ..., new_{i-1}, ΔR_i, old_{i+1}, ..., old_n )

where atom *i* ranges over the body occurrences of a changed relation.
Selections (constants / repeated variables in an atom) and projections (the
head) distribute through unchanged, and an update is a delete plus an
insert.  Everything here is **bag** semantics over *signed multisets* —
:class:`collections.Counter` objects mapping row tuples to signed counts —
so duplicate rows and deletions fall out of the same arithmetic: positive
counts are rows to insert, negative counts rows to delete.

The module is pure (no stores, no catalog): relations are named bags of
positionally-ordered tuples, which is what makes the rules unit-testable as
algebraic properties (see ``tests/test_delta_rules.py``).  The maintenance
engine in :mod:`repro.catalog.maintenance` layers column names, storage
layouts and the delta log on top.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.errors import DeltaError

__all__ = [
    "Delta",
    "bag",
    "apply_delta_to_bag",
    "evaluate",
    "delta_evaluate",
    "BagIndex",
]

Delta = Counter
"""A signed multiset of row tuples: +n means insert n copies, -n delete n."""


def bag(rows: Iterable[tuple]) -> Counter:
    """The bag (multiset) of ``rows`` as a Counter."""
    return Counter(rows)


def apply_delta_to_bag(state: Counter, delta: Mapping[tuple, int]) -> None:
    """Apply a signed delta to ``state`` in place (strict bag semantics).

    Driving any multiplicity below zero raises :class:`DeltaError`: a
    negative count means the delta deletes a row the state never held, i.e.
    the two sides have diverged.
    """
    for row, count in delta.items():
        updated = state[row] + count
        if updated < 0:
            raise DeltaError(
                f"delta drives multiplicity of {row!r} to {updated} (< 0); "
                "state and delta have diverged"
            )
        if updated:
            state[row] = updated
        else:
            del state[row]


class BagIndex:
    """Hash indexes over one bag, keyed by column-position subsets.

    ``probe(positions, key)`` returns the ``(row, count)`` pairs whose values
    at ``positions`` equal ``key``; the empty position tuple returns the whole
    bag.  Indexes are built lazily per position subset and updated in place by
    :meth:`update`, so repeated small deltas against a large base relation
    stay O(|Δ|) instead of O(|relation|).
    """

    __slots__ = ("_bag", "_indexes")

    def __init__(self, rows: Counter | None = None) -> None:
        self._bag: Counter = rows if rows is not None else Counter()
        self._indexes: dict[tuple[int, ...], dict[tuple, Counter]] = {}

    @property
    def rows(self) -> Counter:
        """The underlying bag (do not mutate directly; use :meth:`update`)."""
        return self._bag

    def _index_for(self, positions: tuple[int, ...]) -> dict[tuple, Counter]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row, count in self._bag.items():
                key = tuple(row[p] for p in positions)
                index.setdefault(key, Counter())[row] = count
            self._indexes[positions] = index
        return index

    def probe(self, positions: tuple[int, ...], key: tuple) -> Iterable[tuple[tuple, int]]:
        """``(row, signed count)`` pairs matching ``key`` at ``positions``."""
        if not positions:
            return self._bag.items()
        bucket = self._index_for(positions).get(key)
        return bucket.items() if bucket is not None else ()

    def update(self, delta: Mapping[tuple, int]) -> None:
        """Apply a signed delta to the bag and to every built index (strict)."""
        apply_delta_to_bag(self._bag, delta)
        for positions, index in self._indexes.items():
            for row, count in delta.items():
                key = tuple(row[p] for p in positions)
                bucket = index.setdefault(key, Counter())
                updated = bucket[row] + count
                if updated:
                    bucket[row] = updated
                else:
                    del bucket[row]
                if not bucket:
                    del index[key]


def _join(
    atoms: Sequence[tuple[object, BagIndex]],
    head_terms: Sequence[object],
) -> Counter:
    """Bag-join ``atoms`` left to right and project onto ``head_terms``.

    Each atom's terms bind positionally against its bag's row tuples;
    constants and already-bound variables become hash-probe keys (the
    selection), fresh variables extend the binding, and multiplicities
    multiply through the join.  Signed counts flow through unchanged, which
    is what lets the same evaluator serve full recomputation (all-positive
    bags) and delta propagation (one signed factor).
    """
    partial: list[tuple[dict[Variable, object], int]] = [({}, 1)]
    for atom, index in atoms:
        grown: list[tuple[dict[Variable, object], int]] = []
        terms = atom.terms
        for binding, count in partial:
            positions: list[int] = []
            key: list[object] = []
            for position, term in enumerate(terms):
                if isinstance(term, Constant):
                    positions.append(position)
                    key.append(term.value)
                elif term in binding:
                    positions.append(position)
                    key.append(binding[term])
            for row, row_count in index.probe(tuple(positions), tuple(key)):
                extended = dict(binding)
                ok = True
                for position, term in enumerate(terms):
                    if isinstance(term, Constant):
                        continue
                    bound = extended.get(term, _UNBOUND)
                    if bound is _UNBOUND:
                        extended[term] = row[position]
                    elif bound != row[position]:
                        # A repeated variable inside the atom (self-equality
                        # selection) that the probe key could not cover.
                        ok = False
                        break
                if ok:
                    grown.append((extended, count * row_count))
        partial = grown
        if not partial:
            break
    result: Counter = Counter()
    for binding, count in partial:
        if not count:
            continue
        row = tuple(
            term.value if isinstance(term, Constant) else binding[term]
            for term in head_terms
        )
        result[row] += count
    return Counter({row: count for row, count in result.items() if count})


class _Unbound:
    """Sentinel distinguishing "unbound" from "bound to None"."""


_UNBOUND = _Unbound()


def _as_index(rows: Counter | BagIndex) -> BagIndex:
    return rows if isinstance(rows, BagIndex) else BagIndex(rows)


def evaluate(
    query: ConjunctiveQuery, relations: Mapping[str, Counter | BagIndex]
) -> Counter:
    """Evaluate ``query`` over named bags, returning the result bag.

    Every body relation must be present in ``relations`` (an absent relation
    raises :class:`DeltaError` rather than silently evaluating to empty).
    """
    plan = []
    for atom in query.body:
        rows = relations.get(atom.relation)
        if rows is None:
            raise DeltaError(f"no bag provided for relation {atom.relation!r}")
        plan.append((atom, _as_index(rows)))
    return _join(plan, query.head_terms)


def delta_evaluate(
    query: ConjunctiveQuery,
    old: Mapping[str, Counter | BagIndex],
    deltas: Mapping[str, Mapping[tuple, int]],
) -> Counter:
    """The signed delta of ``query``'s result under ``deltas`` to its inputs.

    ``old`` holds the pre-delta state of every body relation; ``deltas`` the
    signed change of each changed relation.  Implements the per-occurrence
    sum above: occurrence *i* of a changed relation contributes the join of
    the *new* states of atoms before it, its own delta, and the *old* states
    of atoms after it — which handles self-joins exactly.
    """
    new_indexes: dict[str, BagIndex] = {}

    def new_index(relation: str) -> BagIndex:
        index = new_indexes.get(relation)
        if index is None:
            rows = old.get(relation)
            if rows is None:
                raise DeltaError(f"no bag provided for relation {relation!r}")
            delta = deltas.get(relation)
            if delta:
                state = Counter(rows.rows if isinstance(rows, BagIndex) else rows)
                apply_delta_to_bag(state, delta)
                index = BagIndex(state)
            else:
                # Unchanged: its new state is its old one, indexes and all.
                index = _as_index(rows)
            new_indexes[relation] = index
        return index

    total: Counter = Counter()
    for i, atom in enumerate(query.body):
        delta = deltas.get(atom.relation)
        if not delta:
            continue
        plan: list[tuple[object, BagIndex]] = []
        # The delta factor leads: it is by far the smallest bag, so binding
        # its variables first turns every other atom into an indexed probe.
        plan.append((atom, BagIndex(Counter(delta))))
        for j, other in enumerate(query.body):
            if j == i:
                continue
            if j < i:
                plan.append((other, new_index(other.relation)))
            else:
                rows = old.get(other.relation)
                if rows is None:
                    raise DeltaError(f"no bag provided for relation {other.relation!r}")
                plan.append((other, _as_index(rows)))
        partial = _join(plan, query.head_terms)
        total.update(partial)
    return Counter({row: count for row, count in total.items() if count})
