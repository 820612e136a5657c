"""Tests for constraints, homomorphisms, the chase and containment."""

import pytest

from repro.core import (
    EGD,
    TGD,
    Atom,
    ChaseConfig,
    ChaseFailure,
    ConjunctiveQuery,
    Constant,
    ConstraintSet,
    InstanceIndex,
    Variable,
    chase,
    chase_query,
    find_homomorphism,
    functional_dependency,
    inclusion_dependency,
    is_contained_in,
    is_contained_under_constraints,
    is_equivalent,
    is_equivalent_under_constraints,
    iterate_homomorphisms,
    key_constraint,
    minimize,
    minimize_under_constraints,
    provenance_chase,
)
from repro.core.provenance import ProvenanceFormula
from repro.errors import ChaseNonTerminationError, PivotModelError


class TestConstraints:
    def test_tgd_requires_nonempty_sides(self):
        with pytest.raises(PivotModelError):
            TGD([], [Atom("R", ["?x"])])
        with pytest.raises(PivotModelError):
            TGD([Atom("R", ["?x"])], [])

    def test_tgd_variable_classification(self):
        tgd = TGD([Atom("R", ["?x", "?y"])], [Atom("S", ["?x", "?z"])])
        assert tgd.frontier() == {Variable("x")}
        assert tgd.existential_variables() == {Variable("z")}
        assert not tgd.is_full()

    def test_full_tgd(self):
        tgd = TGD([Atom("R", ["?x", "?y"])], [Atom("S", ["?y", "?x"])])
        assert tgd.is_full()

    def test_egd_equality_variables_must_be_in_body(self):
        with pytest.raises(PivotModelError):
            EGD([Atom("R", ["?x", "?y"])], [(Variable("x"), Variable("z"))])

    def test_key_constraint_shape(self):
        egd = key_constraint("R", 3, [0])
        assert len(egd.body) == 2
        assert len(egd.equalities) == 2

    def test_key_constraint_full_key_rejected(self):
        with pytest.raises(PivotModelError):
            key_constraint("R", 2, [0, 1])

    def test_functional_dependency(self):
        egd = functional_dependency("R", 3, [0], [2])
        assert len(egd.equalities) == 1

    def test_inclusion_dependency(self):
        tgd = inclusion_dependency("Orders", 3, [1], "Users", 2, [0])
        assert tgd.body[0].relation == "Orders"
        assert tgd.head[0].relation == "Users"
        # The shared variable appears in both body and head.
        assert tgd.frontier()

    def test_constraint_set_indexing(self):
        constraints = ConstraintSet()
        tgd = TGD([Atom("Child", ["?p", "?c"])], [Atom("Descendant", ["?p", "?c"])])
        constraints.add(tgd)
        assert tgd in constraints
        assert constraints.triggered_by("Child") == (tgd,)
        assert constraints.triggered_by("Other") == ()

    def test_constraint_set_ignores_duplicates(self):
        tgd = TGD([Atom("R", ["?x"])], [Atom("S", ["?x"])])
        constraints = ConstraintSet([tgd, tgd])
        assert len(constraints) == 1

    def test_constraint_set_union(self):
        a = ConstraintSet([TGD([Atom("R", ["?x"])], [Atom("S", ["?x"])])])
        b = ConstraintSet([TGD([Atom("S", ["?x"])], [Atom("T", ["?x"])])])
        assert len(a.union(b)) == 2


class TestHomomorphism:
    def test_find_simple_match(self):
        instance = [Atom("R", [1, 2]), Atom("R", [2, 3])]
        pattern = [Atom("R", ["?x", "?y"]), Atom("R", ["?y", "?z"])]
        match = find_homomorphism(pattern, instance)
        assert match is not None
        assert match.resolve(Variable("x")) == Constant(1)
        assert match.resolve(Variable("z")) == Constant(3)

    def test_no_match(self):
        instance = [Atom("R", [1, 2])]
        pattern = [Atom("R", ["?x", "?x"])]
        assert find_homomorphism(pattern, instance) is None

    def test_iterate_counts_all_matches(self):
        instance = [Atom("R", [1, 2]), Atom("R", [3, 4]), Atom("R", [5, 6])]
        pattern = [Atom("R", ["?x", "?y"])]
        assert len(list(iterate_homomorphisms(pattern, instance))) == 3

    def test_limit(self):
        instance = [Atom("R", [i, i + 1]) for i in range(10)]
        pattern = [Atom("R", ["?x", "?y"])]
        assert len(list(iterate_homomorphisms(pattern, instance, limit=4))) == 4

    def test_constant_in_pattern_restricts_matches(self):
        instance = [Atom("R", [1, 2]), Atom("R", [1, 3]), Atom("R", [2, 3])]
        pattern = [Atom("R", [1, "?y"])]
        assert len(list(iterate_homomorphisms(pattern, instance))) == 2

    def test_seed_restricts_search(self):
        instance = [Atom("R", [1, 2]), Atom("R", [2, 3])]
        pattern = [Atom("R", ["?x", "?y"])]
        from repro.core import Substitution

        seed = Substitution({Variable("x"): Constant(2)})
        matches = list(iterate_homomorphisms(pattern, instance, seed=seed))
        assert len(matches) == 1
        assert matches[0].resolve(Variable("y")) == Constant(3)

    def test_empty_pattern_yields_identity(self):
        assert len(list(iterate_homomorphisms([], [Atom("R", [1])]))) == 1

    def test_instance_index_candidates(self):
        index = InstanceIndex([Atom("R", [1, 2]), Atom("R", [3, 4]), Atom("S", [1])])
        assert len(index.bag("R", 2).rows) == 2
        assert dict(index.bag("R", 2).probe((0,), (Constant(3),))) == {
            (Constant(3), Constant(4)): 1
        }
        assert len(index) == 3
        assert Atom("S", [1]) in index

    def test_index_add_reports_new(self):
        index = InstanceIndex()
        assert index.add(Atom("R", [1]))
        assert not index.add(Atom("R", [1]))


class TestChase:
    def test_tgd_adds_facts(self):
        child_descendant = TGD([Atom("Child", ["?p", "?c"])], [Atom("Descendant", ["?p", "?c"])])
        result = chase([Atom("Child", ["a", "b"])], [child_descendant])
        assert Atom("Descendant", ["a", "b"]) in result.facts

    def test_transitive_closure(self):
        rules = [
            TGD([Atom("Child", ["?p", "?c"])], [Atom("Descendant", ["?p", "?c"])]),
            TGD(
                [Atom("Descendant", ["?a", "?b"]), Atom("Child", ["?b", "?c"])],
                [Atom("Descendant", ["?a", "?c"])],
            ),
        ]
        facts = [Atom("Child", ["a", "b"]), Atom("Child", ["b", "c"]), Atom("Child", ["c", "d"])]
        result = chase(facts, rules)
        assert Atom("Descendant", ["a", "d"]) in result.facts

    def test_existential_tgd_invents_nulls(self):
        has_parent = TGD([Atom("Person", ["?x"])], [Atom("Parent", ["?y", "?x"])])
        result = chase([Atom("Person", ["alice"])], [has_parent])
        parents = [f for f in result.facts if f.relation == "Parent"]
        assert len(parents) == 1

    def test_restricted_chase_does_not_refire_satisfied_tgds(self):
        has_parent = TGD([Atom("Person", ["?x"])], [Atom("Parent", ["?y", "?x"])])
        facts = [Atom("Person", ["alice"]), Atom("Parent", ["bob", "alice"])]
        result = chase(facts, [has_parent])
        parents = [f for f in result.facts if f.relation == "Parent"]
        assert parents == [Atom("Parent", ["bob", "alice"])]

    def test_egd_merges_nulls(self):
        from repro.core.query import freeze_atoms

        single_value = EGD(
            [Atom("V", ["?n", "?a"]), Atom("V", ["?n", "?b"])],
            [(Variable("a"), Variable("b"))],
        )
        frozen, _ = freeze_atoms([Atom("V", ["k", "?v1"]), Atom("V", ["k", "?v2"])])
        result = chase(frozen, [single_value])
        assert len([f for f in result.facts if f.relation == "V"]) == 1

    def test_egd_failure_on_distinct_constants(self):
        single_value = EGD(
            [Atom("V", ["?n", "?a"]), Atom("V", ["?n", "?b"])],
            [(Variable("a"), Variable("b"))],
        )
        with pytest.raises(ChaseFailure):
            chase([Atom("V", ["k", 1]), Atom("V", ["k", 2])], [single_value])

    def test_step_budget_enforced(self):
        # R(x, y) -> exists z: R(y, z): generates an infinite chain.
        grower = TGD([Atom("R", ["?x", "?y"])], [Atom("R", ["?y", "?z"])])
        with pytest.raises(ChaseNonTerminationError):
            chase([Atom("R", [0, 1])], [grower], config=ChaseConfig(max_steps=50))

    def test_chase_query_produces_universal_plan(self):
        view_fwd = TGD(
            [Atom("R", ["?a", "?b"]), Atom("S", ["?b", "?c"])], [Atom("V", ["?a", "?c"])]
        )
        query = ConjunctiveQuery("Q", ["?x", "?z"], [Atom("R", ["?x", "?y"]), Atom("S", ["?y", "?z"])])
        plan = chase_query(query, [view_fwd])
        assert "V" in plan.plan.relations()
        assert plan.plan.head_relation == "Q"

    def test_provenance_chase_tracks_dependencies(self):
        backward = TGD([Atom("V", ["?a", "?c"])], [Atom("R", ["?a", "?b"]), Atom("S", ["?b", "?c"])])
        annotated = {Atom("V", ["u", "w"]): ProvenanceFormula.variable(0)}
        result = provenance_chase(annotated, [backward])
        derived = [f for f in result.facts if f.relation == "R"]
        assert derived
        assert result.provenance[derived[0]].variables() == {0}


class TestChaseEdgeCases:
    def test_cyclic_full_tgds_reach_fixpoint(self):
        # Mutually recursive FULL TGDs terminate without touching the budget:
        # the restricted chase stops once both implications are satisfied.
        rules = [
            TGD([Atom("A", ["?x", "?y"])], [Atom("B", ["?y", "?x"])]),
            TGD([Atom("B", ["?x", "?y"])], [Atom("A", ["?y", "?x"])]),
        ]
        result = chase([Atom("A", [1, 2])], rules, config=ChaseConfig(max_steps=10))
        assert result.facts == frozenset({Atom("A", [1, 2]), Atom("B", [2, 1])})

    def test_cyclic_existential_tgd_hits_fact_budget(self):
        # R(x, y) -> exists z: R(y, z) grows the instance forever; the fact
        # budget must stop it even when the step budget is generous.
        grower = TGD([Atom("R", ["?x", "?y"])], [Atom("R", ["?y", "?z"])])
        with pytest.raises(ChaseNonTerminationError):
            chase(
                [Atom("R", [0, 1])],
                [grower],
                config=ChaseConfig(max_steps=1_000_000, max_facts=32),
            )

    def test_egd_null_resolution_is_deterministic(self):
        from repro.core.chase import is_labelled_null
        from repro.core.query import freeze_atoms

        single_value = EGD(
            [Atom("V", ["?n", "?a"]), Atom("V", ["?n", "?b"])],
            [(Variable("a"), Variable("b"))],
        )
        frozen, _ = freeze_atoms(
            [Atom("V", ["k", "?v1"]), Atom("V", ["k", "?v2"]), Atom("V", ["k", "?v3"])]
        )
        nulls = sorted(
            term.value for fact in frozen for term in fact.terms if is_labelled_null(term)
        )
        result = chase(frozen, [single_value])
        # The cascade merges all three nulls; the orientation rule keeps the
        # lexicographically smallest one, every run.
        assert result.facts == frozenset({Atom("V", ["k", nulls[0]])})
        again = chase(frozen, [single_value])
        assert again.facts == result.facts
        assert set(result.equalities) == {Constant(value) for value in nulls[1:]}

    def test_egd_null_yields_to_constant(self):
        from repro.core.query import freeze_atoms

        single_value = EGD(
            [Atom("V", ["?n", "?a"]), Atom("V", ["?n", "?b"])],
            [(Variable("a"), Variable("b"))],
        )
        frozen, _ = freeze_atoms([Atom("V", ["k", "?v"])])
        result = chase(list(frozen) + [Atom("V", ["k", 42])], [single_value])
        assert result.facts == frozenset({Atom("V", ["k", 42])})

    def test_order_pattern_is_deterministic(self):
        from repro.core.homomorphism import InstanceIndex, compile_pattern

        index = InstanceIndex(
            [Atom("R", [i, i + 1]) for i in range(3)]
            + [Atom("S", [1]), Atom("T", [1])]
        )
        pattern = [Atom("R", ["?x", "?y"]), Atom("S", ["?y"]), Atom("T", ["?y"])]
        ordered = compile_pattern(pattern, index).atoms
        # Most-constrained first; the S/T candidate-count tie breaks by
        # pattern position, and once ?y is bound T beats the wider R scan.
        assert ordered == (Atom("S", ["?y"]), Atom("T", ["?y"]), Atom("R", ["?x", "?y"]))
        assert all(compile_pattern(pattern, index).atoms == ordered for _ in range(5))

    def test_homomorphism_results_insensitive_to_pattern_order(self):
        import itertools as it

        instance = [Atom("R", [1, 2]), Atom("R", [2, 3]), Atom("S", [2]), Atom("S", [3])]
        pattern = [Atom("R", ["?x", "?y"]), Atom("S", ["?y"]), Atom("R", ["?y", "?z"])]
        expected = None
        for permutation in it.permutations(pattern):
            found = {
                frozenset(match.items())
                for match in iterate_homomorphisms(list(permutation), instance)
            }
            if expected is None:
                expected = found
            assert found == expected


class TestTermInterning:
    def test_variables_are_interned(self):
        assert Variable("x") is Variable("x")
        assert Variable("x") is not Variable("y")

    def test_interned_equality_and_hash(self):
        assert Variable("x") == Variable("x")
        assert hash(Variable("x")) == hash(Variable("x"))
        assert Variable("x") != Constant("x")
        assert Constant(1) == Constant(1)
        assert hash(Constant(1)) == hash(Constant(1))

    def test_slots_prevent_instance_dicts(self):
        for term in (Variable("x"), Constant(1)):
            assert not hasattr(term, "__dict__")

    def test_variables_are_immutable(self):
        with pytest.raises(AttributeError):
            Variable("x").name = "y"

    def test_pickle_roundtrip(self):
        import pickle

        for term in (Variable("x"), Constant((1, "a"))):
            assert pickle.loads(pickle.dumps(term)) == term

    def test_substitution_hash_follows_equality(self):
        from repro.core import Substitution

        substitution = Substitution({Variable("x"): Constant(1)})
        frozen_twin = Substitution({Variable("x"): Constant(1)})
        assert hash(substitution) == hash(frozen_twin)


class TestContainment:
    def test_self_containment(self):
        query = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", "?y"])])
        assert is_contained_in(query, query)

    def test_more_constrained_query_is_contained(self):
        general = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", "?y"])])
        specific = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", "?y"]), Atom("S", ["?y"])])
        assert is_contained_in(specific, general)
        assert not is_contained_in(general, specific)

    def test_constants_affect_containment(self):
        general = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", "?y"])])
        pinned = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", 7])])
        assert is_contained_in(pinned, general)
        assert not is_contained_in(general, pinned)

    def test_equivalence_of_redundant_query(self):
        redundant = ConjunctiveQuery(
            "Q", ["?x"], [Atom("R", ["?x", "?y"]), Atom("R", ["?x", "?z"])]
        )
        minimal = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", "?y"])])
        assert is_equivalent(redundant, minimal)

    def test_containment_under_constraints(self):
        # Under "every Manager is an Employee", Q1 (over Employee) contains Q2 (over Manager).
        axiom = TGD([Atom("Manager", ["?x"])], [Atom("Employee", ["?x"])])
        over_employee = ConjunctiveQuery("Q", ["?x"], [Atom("Employee", ["?x"])])
        over_manager = ConjunctiveQuery("Q", ["?x"], [Atom("Manager", ["?x"])])
        assert is_contained_under_constraints(over_manager, over_employee, [axiom])
        assert not is_contained_under_constraints(over_employee, over_manager, [axiom])

    def test_equivalence_under_key_constraint(self):
        # With uid a key of Users, joining Users with itself on uid is redundant.
        key = key_constraint("Users", 2, [0])
        joined = ConjunctiveQuery(
            "Q", ["?u", "?n"], [Atom("Users", ["?u", "?n"]), Atom("Users", ["?u", "?m"])]
        )
        simple = ConjunctiveQuery("Q", ["?u", "?n"], [Atom("Users", ["?u", "?n"])])
        assert is_equivalent_under_constraints(joined, simple, [key])

    def test_different_arity_rejected(self):
        q1 = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", "?y"])])
        q2 = ConjunctiveQuery("Q", ["?x", "?y"], [Atom("R", ["?x", "?y"])])
        with pytest.raises(PivotModelError):
            is_contained_in(q1, q2)


class TestMinimization:
    def test_redundant_atom_removed(self):
        query = ConjunctiveQuery(
            "Q", ["?x"], [Atom("R", ["?x", "?y"]), Atom("R", ["?x", "?z"])]
        )
        assert len(minimize(query).body) == 1

    def test_minimal_query_unchanged(self):
        query = ConjunctiveQuery("Q", ["?x", "?z"], [Atom("R", ["?x", "?y"]), Atom("S", ["?y", "?z"])])
        assert len(minimize(query).body) == 2

    def test_minimization_preserves_equivalence(self):
        query = ConjunctiveQuery(
            "Q",
            ["?x"],
            [Atom("R", ["?x", "?y"]), Atom("R", ["?x", "?z"]), Atom("S", ["?y"])],
        )
        minimized = minimize(query)
        assert is_equivalent(query, minimized)

    def test_minimize_under_constraints_uses_keys(self):
        key = key_constraint("Users", 2, [0])
        query = ConjunctiveQuery(
            "Q", ["?u", "?n"], [Atom("Users", ["?u", "?n"]), Atom("Users", ["?u", "?m"])]
        )
        minimized = minimize_under_constraints(query, [key])
        assert len(minimized.body) == 1
