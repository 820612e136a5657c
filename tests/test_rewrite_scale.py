"""Tests for the rewrite-at-scale machinery.

Covers the relation-signature index (candidate-view selection and TGD
reachability), the memoization layer and its invalidation tokens, admissible
cost-bound pruning in both backchase algorithms, the catalog's per-relation
epochs, and the facade's scoped plan-cache invalidation.
"""

from __future__ import annotations

import pytest

from repro.catalog.manager import StorageDescriptorManager
from repro.core import (
    TGD,
    Atom,
    ConjunctiveQuery,
    Constant,
    ConstraintSet,
    InstanceIndex,
    RewriteIndex,
    Rewriter,
    ViewDefinition,
    clear_memos,
    find_homomorphism,
    memo_stats,
)
from repro.cost.cost_model import RewritingCostBound, StoreCostProfile


def _view(name: str, head, body) -> ViewDefinition:
    return ViewDefinition(name, ConjunctiveQuery(name, head, body))


IDENTITY_R = _view("VR", ["?a", "?b"], [Atom("R", ["?a", "?b"])])
IDENTITY_S = _view("VS", ["?a", "?b"], [Atom("S", ["?a", "?b"])])
JOIN_RS = _view(
    "VRS", ["?a", "?c"], [Atom("R", ["?a", "?b"]), Atom("S", ["?b", "?c"])]
)


class TestRewriteIndex:
    def test_candidates_filtered_by_relation(self):
        index = RewriteIndex([IDENTITY_R, IDENTITY_S, JOIN_RS], ConstraintSet())
        assert [v.name for v in index.candidate_views({"R"})] == ["VR"]
        assert [v.name for v in index.candidate_views({"R", "S"})] == ["VR", "VS", "VRS"]
        assert index.candidate_views({"T"}) == []

    def test_closure_follows_tgd_edges(self):
        # R is derivable from T via a schema TGD, so a query over T can use
        # views over R.
        constraints = ConstraintSet(
            [TGD([Atom("T", ["?x", "?y"])], [Atom("R", ["?x", "?y"])])]
        )
        index = RewriteIndex([IDENTITY_R], constraints)
        assert "R" in index.closure({"T"})
        assert [v.name for v in index.candidate_views({"T"})] == ["VR"]

    def test_multi_body_tgd_needs_all_relations(self):
        constraints = ConstraintSet(
            [TGD([Atom("A", ["?x"]), Atom("B", ["?x"])], [Atom("R", ["?x", "?x"])])]
        )
        index = RewriteIndex([IDENTITY_R], constraints)
        assert index.candidate_views({"A"}) == []
        assert [v.name for v in index.candidate_views({"A", "B"})] == ["VR"]

    def test_join_view_needs_every_body_relation(self):
        index = RewriteIndex([JOIN_RS], ConstraintSet())
        assert index.candidate_views({"R"}) == []
        assert [v.name for v in index.candidate_views({"R", "S"})] == ["VRS"]

    def test_add_and_remove_view(self):
        index = RewriteIndex([IDENTITY_R], ConstraintSet())
        index.add_view(IDENTITY_S)
        assert [v.name for v in index.candidate_views({"S"})] == ["VS"]
        index.remove_view("VS")
        assert index.candidate_views({"S"}) == []
        assert "VR" in index

    def test_rewriter_add_view_replaces_a_same_named_view(self):
        # The index is the rewriter's only registry: re-registering a name
        # swaps the definition, it does not leave two views behind one name.
        query = ConjunctiveQuery("Q", ["?x", "?y"], [Atom("R", ["?x", "?y"])])
        for replacement, found in (
            (_view("VR", ["?a", "?b"], [Atom("S", ["?a", "?b"])]), []),
            (_view("VR", ["?b", "?a"], [Atom("R", ["?b", "?a"])]), ["VR"]),
        ):
            rewriter = Rewriter(views=[IDENTITY_R])
            rewriter.add_view(replacement)
            assert len(rewriter.views) == len(rewriter.index) == 1
            assert rewriter.views[0] is replacement
            outcome = rewriter.rewrite(query)
            assert [r.body[0].relation for r in outcome.rewritings] == found

    def test_candidates_preserve_registration_order(self):
        other = _view("V0", ["?a"], [Atom("R", ["?a", "?b"])])
        index = RewriteIndex([IDENTITY_R, other], ConstraintSet())
        assert [v.name for v in index.candidate_views({"R"})] == ["VR", "V0"]

    def test_rewriter_skips_unrelated_catalog(self):
        unrelated = [
            _view(f"U{i}", ["?a", "?b"], [Atom(f"other{i}", ["?a", "?b"])])
            for i in range(50)
        ]
        rewriter = Rewriter(views=[IDENTITY_R] + unrelated)
        query = ConjunctiveQuery("Q", ["?x"], [Atom("R", ["?x", "?y"])])
        outcome = rewriter.rewrite(query)
        assert [r.body[0].relation for r in outcome.rewritings] == ["VR"]
        assert any("selected 1 of 51 views" in note for note in outcome.notes)

    def test_rewriter_short_circuits_on_empty_candidates(self):
        rewriter = Rewriter(views=[IDENTITY_R])
        query = ConjunctiveQuery("Q", ["?x"], [Atom("Z", ["?x", "?y"])])
        outcome = rewriter.rewrite(query)
        assert outcome.rewritings == []
        assert outcome.statistics is None
        assert any("no candidate views" in note for note in outcome.notes)


class TestMemoization:
    def test_repeated_rewrites_hit_the_containment_memos(self):
        clear_memos()
        rewriter = Rewriter(views=[IDENTITY_R, JOIN_RS, IDENTITY_S])
        query = ConjunctiveQuery(
            "Q", ["?x", "?z"], [Atom("R", ["?x", "?y"]), Atom("S", ["?y", "?z"])]
        )
        first = rewriter.rewrite(query)
        cold = memo_stats()
        second = rewriter.rewrite(query)
        warm = memo_stats()
        assert {frozenset(r.body) for r in first.rewritings} == {
            frozenset(r.body) for r in second.rewritings
        }
        # The second run replays the cached containment verdicts outright
        # (short-circuiting even the memoized chases).
        assert warm["containment_verdict"]["hits"] > cold["containment_verdict"]["hits"]
        assert warm["containment_chase"]["misses"] == cold["containment_chase"]["misses"]

    def test_clear_memos_resets_counters(self):
        clear_memos()
        for stats in memo_stats().values():
            assert stats == {"size": 0, "hits": 0, "misses": 0, "evictions": 0}

    def test_instance_fingerprint_tracks_mutation(self):
        index = InstanceIndex([Atom("R", [1, 2])])
        before = index.fingerprint
        index.add(Atom("R", [1, 2]))  # duplicate: no mutation
        assert index.fingerprint == before
        index.add(Atom("R", [2, 3]))
        assert index.fingerprint != before

    def test_hom_memo_respects_instance_identity(self):
        clear_memos()
        pattern = [Atom("R", ["?x", "?y"])]
        hit = InstanceIndex([Atom("R", [1, 2])])
        miss = InstanceIndex([Atom("S", [1, 2])])
        assert find_homomorphism(pattern, hit) is not None
        # A different index with different content must not alias the entry.
        assert find_homomorphism(pattern, miss) is None
        # Growing the instance changes its fingerprint: new facts are seen.
        assert find_homomorphism([Atom("T", ["?x"])], hit) is None
        hit.add(Atom("T", [9]))
        assert find_homomorphism([Atom("T", ["?x"])], hit) is not None

    def test_constraint_set_token_changes_on_mutation(self):
        constraints = ConstraintSet()
        token = constraints.token
        constraints.add(TGD([Atom("R", ["?x", "?y"])], [Atom("S", ["?x", "?y"])]))
        assert constraints.token != token
        assert ConstraintSet().token != constraints.token


class TestCostBoundPruning:
    CHEAP = StoreCostProfile(scan_row_cost=1.0, lookup_cost=1.0, request_overhead=1.0)
    EXPENSIVE = StoreCostProfile(
        scan_row_cost=1.0, lookup_cost=1.0, request_overhead=1_000_000.0
    )

    def _bound(self) -> RewritingCostBound:
        profiles = {"VR": self.CHEAP, "W0": self.EXPENSIVE, "W1": self.EXPENSIVE}
        return RewritingCostBound(profiles.get, lambda fragment: 10.0)

    def _views(self):
        expensive = [
            _view(f"W{i}", ["?a", "?b"], [Atom("R", ["?a", "?b"])]) for i in range(2)
        ]
        return [IDENTITY_R] + expensive

    @pytest.mark.parametrize("algorithm", ["pacb", "classical"])
    def test_dominated_candidates_are_pruned(self, algorithm):
        rewriter = Rewriter(
            views=self._views(), algorithm=algorithm, cost_bound_factory=self._bound
        )
        query = ConjunctiveQuery("Q", ["?x", "?y"], [Atom("R", ["?x", "?y"])])
        outcome = rewriter.rewrite(query)
        # The cheap rewriting survives; candidates whose admissible floor
        # (a tenth of the request overhead) already exceeds its estimate are
        # dropped before the expensive equivalence check.
        assert any(r.body[0].relation == "VR" for r in outcome.rewritings)
        assert outcome.statistics.candidates_pruned_by_cost >= 1

    @pytest.mark.parametrize("algorithm", ["pacb", "classical"])
    def test_no_pruning_without_a_bound(self, algorithm):
        rewriter = Rewriter(views=self._views(), algorithm=algorithm)
        query = ConjunctiveQuery("Q", ["?x", "?y"], [Atom("R", ["?x", "?y"])])
        outcome = rewriter.rewrite(query)
        assert outcome.statistics.candidates_pruned_by_cost == 0
        assert {r.body[0].relation for r in outcome.rewritings} == {"VR", "W0", "W1"}

    def test_unknown_fragments_are_never_pruned(self):
        bound = RewritingCostBound(lambda fragment: None, lambda fragment: 10.0)
        assert bound.lower_bound(["mystery"]) == 0.0
        assert bound.estimate(["mystery"]) == float("inf")


class TestRelationEpochs:
    def test_epochs_move_only_for_touched_relations(self, marketplace_estocada):
        manager = marketplace_estocada.catalog
        users_before = manager.relation_epoch("users")
        carts_before = manager.relation_epoch("carts")
        marketplace_estocada.drop_fragment("F_carts")
        assert manager.relation_epoch("carts") > carts_before
        assert manager.relation_epoch("users") == users_before

    def test_epoch_signature_is_sorted_and_deduplicated(self):
        manager = StorageDescriptorManager()
        signature = manager.epoch_signature(["b", "a", "b"])
        assert signature == (("a", 0), ("b", 0))

    def test_dataset_registration_bumps_structural_epoch(self):
        manager = StorageDescriptorManager()
        before = manager.structural_epoch
        manager.register_dataset("d", data_model="relational", relations=("R",))
        assert manager.structural_epoch == before + 1


class TestScopedPlanCacheInvalidation:
    USERS = ConjunctiveQuery(
        "QU", ["?pc"], [Atom("users", [Constant(7), "?n", "?c", "?p", "?pc"])]
    )
    CARTS = ConjunctiveQuery(
        "QC", ["?s"], [Atom("carts", ["?cid", Constant(7), "?s", "?q"])]
    )

    def test_fragment_drop_invalidates_only_same_signature_plans(
        self, marketplace_estocada
    ):
        est = marketplace_estocada
        est.query(self.USERS)
        est.query(self.CARTS)
        assert est.cache_stats()["entries"] == 2
        dropped = est.drop_fragment("F_carts")
        stats = est.cache_stats()
        # Exactly the carts entry went; the users entry survived and hits.
        assert stats["scoped_invalidations"] == 1
        assert stats["entries"] == 1
        assert est.query(self.USERS).cache_hit is True
        # Re-registering over carts has nothing left to invalidate, and the
        # unrelated users entry still keeps hitting.
        est.register_fragment(dropped)
        stats = est.cache_stats()
        assert stats["scoped_invalidations"] == 1
        assert stats["entries"] == 1
        assert est.query(self.USERS).cache_hit is True
        assert est.query(self.CARTS).cache_hit is False

    def test_fragment_register_invalidates_same_signature_plans(
        self, marketplace_estocada, marketplace_data
    ):
        from repro.catalog.descriptors import AccessMethod, StorageLayout, StorageDescriptor

        est = marketplace_estocada
        est.query(self.USERS)
        est.query(self.CARTS)
        # A second users fragment shares the users signature: the cached
        # users plan must go (it might now lose the cost ranking), the carts
        # plan must stay.
        est.register_fragment(
            StorageDescriptor(
                "F_users2",
                "shop",
                "pg",
                ViewDefinition(
                    "F_users2",
                    ConjunctiveQuery(
                        "F_users2",
                        ["?u", "?pc"],
                        [Atom("users", ["?u", "?n", "?c", "?p", "?pc"])],
                    ),
                    column_names=("uid", "preferred_category"),
                ),
                StorageLayout("users2"),
                AccessMethod("scan"),
            ),
            rows=[
                {"uid": u["uid"], "preferred_category": u["preferred_category"]}
                for u in marketplace_data.users
            ],
        )
        stats = est.cache_stats()
        assert stats["scoped_invalidations"] == 1
        assert est.query(self.CARTS).cache_hit is True
        assert est.query(self.USERS).cache_hit is False


class TestIncrementalRewriter:
    def test_facade_rewriter_updates_in_place(self, marketplace_estocada):
        est = marketplace_estocada
        est.query(self.__class__.QUERY)
        rewriter = est._rewriter()
        dropped = est.drop_fragment("F_carts")
        # Same instance, fewer views: no O(catalog) rebuild happened.
        assert est._rewriter() is rewriter
        assert all(v.name != "F_carts" for v in rewriter.views)
        est.register_fragment(dropped)
        assert est._rewriter() is rewriter
        assert any(v.name == "F_carts" for v in rewriter.views)

    def test_direct_catalog_mutation_forces_rebuild(self, marketplace_estocada):
        est = marketplace_estocada
        est.query(self.__class__.QUERY)
        rewriter = est._rewriter()
        est.catalog.drop_fragment("F_carts")
        rebuilt = est._rewriter()
        assert rebuilt is not rewriter
        assert all(v.name != "F_carts" for v in rebuilt.views)

    QUERY = ConjunctiveQuery(
        "Q", ["?pc"], [Atom("users", [Constant(7), "?n", "?c", "?p", "?pc"])]
    )
