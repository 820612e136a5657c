"""The one conjunctive matcher against a brute-force oracle, and its garbage.

``iterate_homomorphisms`` must find *every* homomorphism (completeness) and
nothing else (soundness): the oracle enumerates all assignments of the
pattern's free variables over the instance's terms with ``itertools``.  The
GC test checks that rewriting leaves no matcher object for the cycle
collector.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import types

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import build_marketplace_estocada
from repro.core import Atom, Constant, Substitution, Variable
from repro.core.homomorphism import BagIndex, InstanceIndex, Program, iterate_homomorphisms

# One relation name (mostly R) at several arities, small domains: repeated
# variables, constants and arity clashes all occur often.
_relations = st.sampled_from(["R", "R", "S"])
_arities = st.sampled_from([0, 1, 2, 2, 3])
_variables = st.sampled_from(["x", "y"]).map(Variable)
_constants = st.integers(min_value=0, max_value=2).map(Constant)


@st.composite
def _facts(draw):
    relation, arity = draw(_relations), draw(_arities)
    return Atom(relation, [draw(_constants) for _ in range(arity)])


@st.composite
def _pattern_atoms(draw):
    relation, arity = draw(_relations), draw(_arities)
    return Atom(relation, [draw(st.one_of(_variables, _constants)) for _ in range(arity)])


# A seed may bind variables outside the pattern (w) and values outside the
# instance (3).
_seeds = st.dictionaries(
    st.sampled_from(["x", "y", "w"]).map(Variable),
    st.integers(min_value=0, max_value=3).map(Constant),
    max_size=2,
).map(Substitution)


def _oracle(pattern, instance, seed):
    """Every extension of ``seed`` mapping each pattern atom onto a fact."""
    facts = set(instance)
    terms = sorted({term for fact in facts for term in fact.terms}, key=repr)
    free = sorted(
        {t for atom in pattern for t in atom.terms if isinstance(t, Variable)} - set(seed),
        key=lambda v: v.name,
    )
    found = set()
    for values in itertools.product(terms, repeat=len(free)):
        candidate = Substitution({**dict(seed.items()), **dict(zip(free, values))})
        if all(atom.apply(candidate) in facts for atom in pattern):
            found.add(candidate)
    return found


@given(
    st.lists(_facts(), max_size=8),
    st.lists(_pattern_atoms(), max_size=3),
    _seeds,
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
# A variable repeated inside an atom, one name at two arities, a limit of 0.
@example([Atom("R", [0, 1])], [Atom("R", ["?x", "?x"])], Substitution(), None)
@example([Atom("R", []), Atom("R", [0, 1])], [Atom("R", ["?x"])], Substitution(), None)
@example([], [], Substitution(), 0)
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_matcher_finds_exactly_the_brute_force_homomorphisms(instance, pattern, seed, limit):
    expected = _oracle(pattern, instance, seed)
    assert set(iterate_homomorphisms(pattern, instance, seed)) == expected
    limited = list(iterate_homomorphisms(pattern, InstanceIndex(instance), seed, limit=limit))
    assert len(limited) == len(set(limited))
    assert set(limited) <= expected
    assert len(limited) == (len(expected) if limit is None else min(limit, len(expected)))


_MATCHER_FILES = {
    importlib.import_module(f"repro.core.{name}").__file__
    for name in ("homomorphism", "chase", "containment", "deltas", "pacb")
}


def _is_matcher_object(obj) -> bool:
    if isinstance(obj, (InstanceIndex, BagIndex, Program)):
        return True
    if isinstance(obj, types.FunctionType):
        return obj.__code__.co_filename in _MATCHER_FILES
    if isinstance(obj, types.GeneratorType):
        return obj.gi_code.co_filename in _MATCHER_FILES
    if isinstance(obj, types.CellType):
        try:
            return _is_matcher_object(obj.cell_contents)
        except ValueError:  # an empty cell
            return False
    return False


def test_rewriting_leaves_no_matcher_garbage(marketplace_data):
    """Rewriting (chase, containment, PACB) creates no reference cycle through
    a matcher function, cell, generator or index.  The statement goes through
    ``explain`` because an ambient query service may hold a facade that ran
    ``query``."""
    gc.collect()
    est = build_marketplace_estocada(marketplace_data)
    est.explain("SELECT name FROM users WHERE uid = 5", dataset="shop")
    del est
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        leaked = [obj for obj in gc.garbage if _is_matcher_object(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
