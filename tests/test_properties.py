"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Atom,
    ConjunctiveQuery,
    Constant,
    ProvenanceFormula,
    Substitution,
    Variable,
    chase,
    is_contained_in,
    is_equivalent,
    minimize,
)
from repro.core.homomorphism import find_homomorphism, iterate_homomorphisms
from repro.core.query import freeze_atoms
from repro.stores import Predicate, RelationalStore, ScanRequest
from repro.stores.fulltext import Analyzer

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_relations = st.sampled_from(["R", "S", "T"])
_variables = st.sampled_from(["x", "y", "z", "w"]).map(lambda n: Variable(n))
_constants = st.integers(min_value=0, max_value=5).map(Constant)
_terms = st.one_of(_variables, _constants)


@st.composite
def atoms(draw, min_arity=1, max_arity=3):
    relation = draw(_relations)
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    return Atom(relation, [draw(_terms) for _ in range(arity)])


@st.composite
def ground_atoms(draw):
    relation = draw(_relations)
    arity = draw(st.integers(min_value=1, max_value=3))
    return Atom(relation, [draw(_constants) for _ in range(arity)])


@st.composite
def conjunctive_queries(draw):
    body = draw(st.lists(atoms(), min_size=1, max_size=4))
    body_variables = sorted(
        {t for atom in body for t in atom.terms if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    if body_variables:
        head_count = draw(st.integers(min_value=1, max_value=len(body_variables)))
        head = body_variables[:head_count]
    else:
        head = [draw(_constants)]
    return ConjunctiveQuery("Q", head, body)


# ---------------------------------------------------------------------------
# Homomorphisms and containment
# ---------------------------------------------------------------------------

@given(conjunctive_queries())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_every_query_maps_into_its_own_canonical_instance(query):
    frozen, freezing = query.canonical_instance()
    requirement_head = tuple(freezing.resolve(t) for t in query.head_terms)
    match = find_homomorphism(
        query.body,
        frozen,
        requirement=lambda h: all(
            h.resolve(term) == frozen_term
            for term, frozen_term in zip(query.head_terms, requirement_head)
        ),
    )
    assert match is not None


@given(conjunctive_queries())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_containment_is_reflexive(query):
    assert is_contained_in(query, query)


@given(conjunctive_queries(), st.lists(atoms(), min_size=1, max_size=2))
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_adding_body_atoms_only_shrinks_the_query(query, extra):
    extended = query.extend_body(extra)
    assert is_contained_in(extended, query)


@given(conjunctive_queries())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_minimization_preserves_equivalence_and_never_grows(query):
    minimized = minimize(query)
    assert len(minimized.body) <= len(query.body)
    assert is_equivalent(query, minimized)


@given(conjunctive_queries())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_rename_apart_is_isomorphic(query):
    renamed = query.rename_apart()
    assert is_equivalent(query, renamed)


@given(st.lists(ground_atoms(), min_size=0, max_size=8), st.lists(atoms(), min_size=1, max_size=2))
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_homomorphism_images_are_instance_facts(instance, pattern):
    for match in iterate_homomorphisms(pattern, instance, limit=20):
        for atom in pattern:
            assert atom.apply(match) in set(instance)


# ---------------------------------------------------------------------------
# Chase
# ---------------------------------------------------------------------------

@given(st.lists(ground_atoms(), min_size=1, max_size=6))
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_chase_with_full_tgd_is_monotone_and_idempotent(facts):
    from repro.core import TGD

    rule = TGD([Atom("R", ["?a", "?b"])], [Atom("T", ["?b", "?a"])])
    once = chase(facts, [rule])
    assert set(facts) <= set(once.facts)
    twice = chase(once.facts, [rule])
    assert twice.facts == once.facts


@given(st.lists(atoms(), min_size=1, max_size=5))
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_freezing_produces_ground_facts_preserving_count_of_relations(body):
    frozen, _ = freeze_atoms(body)
    assert all(fact.is_ground() for fact in frozen)
    assert {f.relation for f in frozen} == {a.relation for a in body}


# ---------------------------------------------------------------------------
# Provenance formulas (semiring-like laws)
# ---------------------------------------------------------------------------

_formulas = st.lists(
    st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=3), min_size=0, max_size=3
).map(ProvenanceFormula)


@given(_formulas, _formulas)
@settings(max_examples=80)
def test_provenance_disjunction_commutative(a, b):
    assert a.disjunction(b) == b.disjunction(a)


@given(_formulas, _formulas)
@settings(max_examples=80)
def test_provenance_conjunction_commutative(a, b):
    assert a.conjunction(b) == b.conjunction(a)


@given(_formulas, _formulas, _formulas)
@settings(max_examples=60)
def test_provenance_conjunction_associative(a, b, c):
    assert a.conjunction(b).conjunction(c) == a.conjunction(b.conjunction(c))


@given(_formulas)
@settings(max_examples=60)
def test_provenance_absorption_keeps_minimal_monomials(a):
    for monomial in a.minimal_monomials():
        assert not any(
            other < monomial for other in a.minimal_monomials() if other != monomial
        )


# ---------------------------------------------------------------------------
# Substitutions and bindings
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 5)), max_size=5))
@settings(max_examples=80)
def test_substitution_bind_is_order_insensitive_for_distinct_variables(pairs):
    distinct = {}
    for name, value in pairs:
        distinct.setdefault(name, value)
    forward = Substitution.empty()
    for name, value in distinct.items():
        forward = forward.bind(Variable(name), Constant(value))
    backward = Substitution.empty()
    for name, value in reversed(list(distinct.items())):
        backward = backward.bind(Variable(name), Constant(value))
    assert forward == backward


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 5)), min_size=0, max_size=60),
       st.integers(0, 5))
@settings(max_examples=50)
def test_relational_scan_predicate_matches_python_filter(rows, probe):
    store = RelationalStore("pg")
    store.create_table("t", ["a", "b"])
    store.insert("t", [{"a": a, "b": b} for a, b in rows])
    result = store.execute(ScanRequest("t", (Predicate("b", "=", probe),)), ("a", "b"))
    assert len(result.rows) == sum(1 for _, b in rows if b == probe)


@given(st.text(max_size=200))
@settings(max_examples=80)
def test_analyzer_tokens_are_normalized(text):
    analyzer = Analyzer()
    for token in analyzer.tokenize(text):
        assert token == token.lower()
        assert len(token) >= 2
