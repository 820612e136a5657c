"""Property tests of the select/project/join delta rules as pure units.

The delta rules of :mod:`repro.core.deltas` are algebraic: for any query Q
and any change Δ to its inputs, ``delta_evaluate(Q, old, Δ)`` must equal
``evaluate(Q, old + Δ) − evaluate(Q, old)`` as signed multisets.  These
tests check that identity — and its corollaries for inserts, deletes,
update-as-delete+insert and duplicate rows — over randomly generated
queries and bags, with no store or catalog involved.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Atom, ConjunctiveQuery
from repro.core.deltas import (
    BagIndex,
    apply_delta_to_bag,
    bag,
    delta_evaluate,
    evaluate,
)
from repro.errors import DeltaError

# ---------------------------------------------------------------------------
# Strategies: queries over R(a, b) and S(b, c); bags of small-integer tuples.
# Small value domains force collisions — duplicates, self-join matches and
# empty deltas all occur with high probability.
# ---------------------------------------------------------------------------

_ARITIES = {"R": 2, "S": 2}
_values = st.integers(min_value=0, max_value=4)


def _rows(arity: int):
    return st.lists(
        st.tuples(*[_values] * arity), min_size=0, max_size=8
    ).map(bag)


_bags = st.fixed_dictionaries({name: _rows(arity) for name, arity in _ARITIES.items()})


@st.composite
def _queries(draw):
    """A conjunctive query with selections (constants, repeated variables),
    projections (head keeps a subset) and joins (shared variables)."""
    body = []
    variables = ["?x", "?y", "?z", "?w"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        relation = draw(st.sampled_from(sorted(_ARITIES)))
        terms = [
            draw(st.one_of(st.sampled_from(variables), _values))
            for _ in range(_ARITIES[relation])
        ]
        body.append(Atom(relation, terms))
    body_vars = sorted(
        {t.name for atom in body for t in atom.terms if hasattr(t, "name")}
    )
    if body_vars:
        count = draw(st.integers(min_value=1, max_value=len(body_vars)))
        head = [f"?{name}" for name in body_vars[:count]]
    else:
        head = [draw(_values)]
    return ConjunctiveQuery("Q", head, body)


@st.composite
def _deltas(draw, old):
    """A signed delta applicable to ``old``: deletes only existing rows."""
    deltas: dict[str, Counter] = {}
    for relation, arity in _ARITIES.items():
        delta: Counter = Counter()
        for row in draw(
            st.lists(st.tuples(*[_values] * arity), min_size=0, max_size=4)
        ):
            delta[row] += 1
        existing = list(old[relation].elements())
        if existing:
            for index in draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(existing) - 1),
                    min_size=0,
                    max_size=min(4, len(existing)),
                    unique=True,
                )
            ):
                delta[existing[index]] -= 1
        delta = Counter({row: count for row, count in delta.items() if count})
        if delta:
            deltas[relation] = delta
    return deltas


def _bag_difference(after, before) -> Counter:
    """The signed delta turning ``before`` into ``after`` (after − before)."""
    delta: Counter = Counter(after)
    delta.subtract(before)
    return Counter({row: count for row, count in delta.items() if count})


def _apply(old, deltas):
    new = {name: Counter(rows) for name, rows in old.items()}
    for relation, delta in deltas.items():
        apply_delta_to_bag(new[relation], delta)
    return new


class TestDeltaRuleProperties:
    """ΔQ(old, Δ) == Q(old + Δ) − Q(old), for any Q and any applicable Δ."""

    @given(query=_queries(), old=_bags, data=st.data())
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    def test_delta_matches_recompute_difference(self, query, old, data):
        deltas = data.draw(_deltas(old))
        expected = _bag_difference(evaluate(query, _apply(old, deltas)), evaluate(query, old))
        got = delta_evaluate(query, old, deltas)
        assert Counter(got) == expected

    @given(query=_queries(), old=_bags, data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_insert_only_deltas_are_nonnegative(self, query, old, data):
        deltas = data.draw(_deltas(old))
        inserts = {
            relation: Counter({row: count for row, count in delta.items() if count > 0})
            for relation, delta in deltas.items()
        }
        inserts = {relation: delta for relation, delta in inserts.items() if delta}
        got = delta_evaluate(query, old, inserts)
        assert all(count > 0 for count in got.values())

    @given(query=_queries(), old=_bags, data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_update_equals_delete_plus_insert(self, query, old, data):
        """One combined delete+insert delta == the two applied sequentially."""
        deltas = data.draw(_deltas(old))
        combined = delta_evaluate(query, old, deltas)
        deletes = {
            r: Counter({row: c for row, c in d.items() if c < 0})
            for r, d in deltas.items()
        }
        deletes = {r: d for r, d in deletes.items() if d}
        inserts = {
            r: Counter({row: c for row, c in d.items() if c > 0})
            for r, d in deltas.items()
        }
        inserts = {r: d for r, d in inserts.items() if d}
        first = delta_evaluate(query, old, deletes)
        mid = _apply(old, deletes)
        second = delta_evaluate(query, mid, inserts)
        sequential = Counter(first)
        sequential.update(second)
        sequential = Counter({row: c for row, c in sequential.items() if c})
        assert Counter(combined) == sequential

    @given(query=_queries(), old=_bags)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_empty_delta_changes_nothing(self, query, old):
        assert delta_evaluate(query, old, {}) == Counter()

    @given(old=_bags, data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_duplicate_rows_multiply_through_joins(self, old, data):
        """Inserting a row k times scales its join contribution k-fold."""
        query = ConjunctiveQuery(
            "Q", ["?x", "?z"], [Atom("R", ["?x", "?y"]), Atom("S", ["?y", "?z"])]
        )
        row = data.draw(st.tuples(_values, _values))
        k = data.draw(st.integers(min_value=2, max_value=4))
        once = delta_evaluate(query, old, {"R": Counter({row: 1})})
        k_times = delta_evaluate(query, old, {"R": Counter({row: k})})
        assert Counter({r: c * k for r, c in once.items()}) == Counter(k_times)


class TestStrictBagSemantics:
    def test_deleting_an_absent_row_raises(self):
        state = bag([(1, 2)])
        with pytest.raises(DeltaError):
            apply_delta_to_bag(state, Counter({(9, 9): -1}))

    def test_over_deleting_a_present_row_raises(self):
        state = bag([(1, 2)])
        with pytest.raises(DeltaError):
            apply_delta_to_bag(state, Counter({(1, 2): -2}))

    def test_missing_relation_raises(self):
        join = ConjunctiveQuery(
            "Q", ["?x"], [Atom("R", ["?x", "?y"]), Atom("S", ["?y", "?z"])]
        )
        with pytest.raises(DeltaError):
            evaluate(join, {"R": bag([(1, 2)])})
        with pytest.raises(DeltaError):
            delta_evaluate(join, {"R": bag([(1, 2)])}, {"R": Counter({(1, 2): 1})})


class TestBagIndex:
    @given(rows=_rows(2), delta_rows=st.lists(st.tuples(_values, _values), max_size=6))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_incremental_update_matches_rebuild(self, rows, delta_rows):
        """Updating built indexes in place == rebuilding them from scratch."""
        index = BagIndex(Counter(rows))
        # Build all position-subset indexes before the update.
        for positions in ((0,), (1,), (0, 1)):
            list(index.probe(positions, positions))
        delta = Counter(delta_rows)
        index.update(delta)
        fresh = BagIndex(Counter(index.rows))
        for positions in ((0,), (1,), (0, 1)):
            keys = {tuple(row[p] for p in positions) for row in index.rows}
            for key in keys:
                assert dict(index.probe(positions, key)) == dict(fresh.probe(positions, key))

    def test_probe_with_no_positions_returns_whole_bag(self):
        index = BagIndex(bag([(1, 2), (1, 2), (3, 4)]))
        assert dict(index.probe((), ())) == {(1, 2): 2, (3, 4): 1}
