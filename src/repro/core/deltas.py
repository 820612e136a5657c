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

from repro.core.homomorphism import BagIndex, Program, Template, apply_delta_to_bag
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Atom
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


def _join(atoms: Sequence[tuple[Atom, BagIndex]], head_terms: Sequence[object]) -> Counter:
    """Bag-join ``atoms`` in order and project onto ``head_terms``.

    The join is the one matcher of :mod:`repro.core.homomorphism`.  Signed
    counts multiply through it unchanged, which is what lets the same
    evaluator serve full recomputation (all-positive bags) and delta
    propagation (one signed factor).
    """
    template = Template([atom for atom, _ in atoms], values=True)
    program = Program(template, [index for _, index in atoms])
    project = template.getter(head_terms)
    result: Counter = Counter()
    for binding, count in program.run():
        result[project(binding)] += count
    return Counter({row: count for row, count in result.items() if count})


def _index(relations: Mapping[str, Counter | BagIndex], relation: str) -> BagIndex:
    rows = relations.get(relation)
    if rows is None:
        raise DeltaError(f"no bag provided for relation {relation!r}")
    return rows if isinstance(rows, BagIndex) else BagIndex(rows)


def evaluate(
    query: ConjunctiveQuery, relations: Mapping[str, Counter | BagIndex]
) -> Counter:
    """Evaluate ``query`` over named bags, returning the result bag.

    Every body relation must be present in ``relations`` (an absent relation
    raises :class:`DeltaError` rather than silently evaluating to empty).
    """
    plan = [(atom, _index(relations, atom.relation)) for atom in query.body]
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
            # Unchanged, its new state is its old one, indexes and all.
            index = _index(old, relation)
            if deltas.get(relation):
                state = Counter(index.rows)
                apply_delta_to_bag(state, deltas[relation])
                index = BagIndex(state)
            new_indexes[relation] = index
        return index

    total: Counter = Counter()
    for i, atom in enumerate(query.body):
        delta = deltas.get(atom.relation)
        if not delta:
            continue
        # The delta factor leads: it is by far the smallest bag, so binding
        # its variables first turns every other atom into an indexed probe.
        plan = [(atom, BagIndex(Counter(delta)))]
        for j, other in enumerate(query.body):
            if j < i:
                plan.append((other, new_index(other.relation)))
            elif j > i:
                plan.append((other, _index(old, other.relation)))
        total.update(_join(plan, query.head_terms))
    return Counter({row: count for row, count in total.items() if count})
