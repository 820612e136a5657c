"""Tests for the query-language front-ends, the cost model and the storage advisor."""

import pytest

from repro.advisor import WorkloadQuery, enumerate_candidates, greedy_select
from repro.advisor.heuristics import CandidateScore
from repro.core import Atom, ConjunctiveQuery, Constant
from repro.cost import CostModel, PlanChooser
from repro.errors import ParseError, TranslationError
from repro.languages.docql import DocumentQuery
from repro.languages.sql import SqlTranslator, parse_select, tokenize
from repro.datamodel import RelationalSchema, TableSchema
from repro.translation import Planner


def _schema():
    schema = RelationalSchema()
    schema.add(TableSchema("rankings", ("pageURL", "pageRank", "avgDuration"), primary_key=("pageURL",)))
    schema.add(TableSchema("uservisits", ("sourceIP", "destURL", "adRevenue", "countryCode")))
    return schema


class TestSqlParser:
    def test_tokenize_basic(self):
        kinds = [t.kind for t in tokenize("SELECT a FROM t WHERE a = 1")]
        assert kinds == ["KEYWORD", "IDENT", "KEYWORD", "IDENT", "KEYWORD", "IDENT", "OP", "NUMBER", "EOF"]

    def test_illegal_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT a FROM t WHERE a = $1")

    def test_parse_simple_select(self):
        statement = parse_select("SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100")
        assert len(statement.items) == 2
        assert statement.tables[0].table == "rankings"
        assert statement.conditions[0].op == ">"

    def test_parse_aliases_and_join(self):
        statement = parse_select(
            "SELECT r.pageURL FROM rankings r, uservisits uv WHERE r.pageURL = uv.destURL"
        )
        assert [t.alias for t in statement.tables] == ["r", "uv"]
        assert statement.conditions[0].left.table == "r"

    def test_parse_join_on_syntax(self):
        statement = parse_select(
            "SELECT r.pageURL FROM rankings r JOIN uservisits uv ON r.pageURL = uv.destURL"
        )
        assert len(statement.tables) == 2
        assert len(statement.conditions) == 1

    def test_parse_aggregates_and_group_by(self):
        statement = parse_select(
            "SELECT sourceIP, SUM(adRevenue) AS total FROM uservisits GROUP BY sourceIP"
        )
        aggregates = statement.aggregates()
        assert aggregates[0].function == "sum" and aggregates[0].alias == "total"
        assert statement.group_by[0].column == "sourceIP"

    def test_parse_count_star(self):
        statement = parse_select("SELECT COUNT(*) FROM rankings")
        assert statement.aggregates()[0].argument is None

    def test_parse_distinct_and_limit(self):
        statement = parse_select("SELECT DISTINCT pageURL FROM rankings LIMIT 10")
        assert statement.distinct and statement.limit == 10

    def test_parse_string_literal(self):
        statement = parse_select("SELECT a FROM t WHERE b = 'FR'")
        assert statement.conditions[0].right.value == "FR"

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_select("SELECT FROM WHERE")

    def test_select_star(self):
        assert parse_select("SELECT * FROM rankings").select_star


class TestSqlTranslator:
    def test_single_table_translation(self):
        translated = SqlTranslator(_schema()).translate(
            "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100"
        )
        assert translated.query.relations() == {"rankings"}
        assert [name for name, _ in translated.outputs] == ["pageURL", "pageRank"]
        assert translated.residual_predicates[0].op == ">"

    def test_equality_constant_becomes_pivot_constant(self):
        translated = SqlTranslator(_schema()).translate(
            "SELECT destURL FROM uservisits WHERE countryCode = 'FR'"
        )
        atom = translated.query.body[0]
        assert Constant("FR") in atom.terms

    def test_join_unifies_variables(self):
        translated = SqlTranslator(_schema()).translate(
            "SELECT r.pageRank FROM rankings r, uservisits uv WHERE r.pageURL = uv.destURL"
        )
        rankings_atom = translated.query.atoms_over("rankings")[0]
        uservisits_atom = translated.query.atoms_over("uservisits")[0]
        assert rankings_atom.terms[0] == uservisits_atom.terms[1]

    def test_aggregation_translated_to_residual(self):
        translated = SqlTranslator(_schema()).translate(
            "SELECT sourceIP, SUM(adRevenue) AS total FROM uservisits GROUP BY sourceIP"
        )
        assert translated.aggregation is not None
        assert "total" in translated.aggregation.aggregations

    def test_unknown_table_rejected(self):
        with pytest.raises(TranslationError):
            SqlTranslator(_schema()).translate("SELECT a FROM missing")

    def test_unknown_column_rejected(self):
        with pytest.raises(TranslationError):
            SqlTranslator(_schema()).translate("SELECT wrong FROM rankings")

    def test_ambiguous_column_rejected(self):
        schema = RelationalSchema()
        schema.add(TableSchema("a", ("x",)))
        schema.add(TableSchema("b", ("x",)))
        with pytest.raises(TranslationError):
            SqlTranslator(schema).translate("SELECT x FROM a, b")

    def test_contradictory_constants_rejected(self):
        with pytest.raises(TranslationError):
            SqlTranslator(_schema()).translate(
                "SELECT pageURL FROM rankings WHERE pageURL = 'a' AND pageURL = 'b'"
            )

    def test_select_star_expands_columns(self):
        translated = SqlTranslator(_schema()).translate("SELECT * FROM rankings")
        assert [name for name, _ in translated.outputs] == ["pageURL", "pageRank", "avgDuration"]


class TestDocQLAndKV:
    def test_document_query_builder(self):
        query, names = (
            DocumentQuery("carts", ("cart_id", "uid", "items.sku"))
            .where("uid", 7)
            .select("cart_id", "items.sku")
            .to_pivot()
        )
        assert names == ("cart_id", "items_sku")
        assert Constant(7) in query.body[0].terms

    def test_document_query_unknown_path(self):
        with pytest.raises(TranslationError):
            DocumentQuery("carts", ("uid",)).where("missing", 1)

    def test_document_query_describe(self):
        described = DocumentQuery("carts", ("uid",)).where("uid", 3).describe()
        assert described["filters"] == {"uid": 3}


class TestCostModel:
    def test_key_lookup_cheaper_than_scan(self, marketplace_estocada):
        est = marketplace_estocada
        statistics = est.statistics
        cost_model = CostModel(statistics)
        planner = Planner(est.catalog)
        # Point lookup of one user's preferred category.
        lookup_rewriting = ConjunctiveQuery(
            "via_prefs", ["?pc"], [Atom("F_prefs", [Constant(5), "?pc"])]
        )
        scan_rewriting = ConjunctiveQuery(
            "via_users", ["?pc"],
            [Atom("F_users", [Constant(5), "?n", "?c", "?p", "?pc"])],
        )
        chooser = PlanChooser(planner, cost_model)
        ranked = chooser.rank([lookup_rewriting, scan_rewriting])
        assert ranked[0].rewriting.name == "via_prefs"

    def test_estimates_scale_with_cardinality(self, marketplace_estocada):
        est = marketplace_estocada
        cost_model = CostModel(est.statistics)
        planner = Planner(est.catalog)
        small = ConjunctiveQuery("small", ["?pc"], [Atom("F_prefs", [Constant(5), "?pc"])])
        big = ConjunctiveQuery(
            "big", ["?u", "?s"], [Atom("F_visits", ["?u", "?s", "?c", "?d"])]
        )
        chooser = PlanChooser(planner, cost_model)
        small_cost = chooser.rank([small])[0].estimate.total_cost
        big_cost = chooser.rank([big])[0].estimate.total_cost
        assert big_cost > small_cost

    def test_cardinality_estimator_equality_selectivity(self, marketplace_estocada):
        est = marketplace_estocada
        cost_model = CostModel(est.statistics)
        from repro.translation.grouping import resolve_atoms

        rewriting = ConjunctiveQuery(
            "Q", ["?n"], [Atom("F_users", [Constant(5), "?n", "?c", "?p", "?pc"])]
        )
        accesses = resolve_atoms(rewriting, est.catalog)
        estimate = cost_model.estimator.atom_estimate(accesses[0])
        assert estimate.estimated_rows == pytest.approx(1.0, rel=0.2)

    def test_chooser_raises_when_nothing_plannable(self, marketplace_estocada):
        est = marketplace_estocada
        chooser = PlanChooser(Planner(est.catalog), CostModel(est.statistics))
        infeasible = ConjunctiveQuery("Q", ["?u", "?pc"], [Atom("F_prefs", ["?u", "?pc"])])
        from repro.errors import NoRewritingFoundError

        with pytest.raises(NoRewritingFoundError):
            chooser.rank([infeasible])


class TestAdvisor:
    def test_candidate_enumeration_key_lookup(self):
        query = ConjunctiveQuery(
            "prefs_lookup", ["?pc"], [Atom("users", [Constant(1), "?n", "?c", "?p", "?pc"])]
        )
        candidates = enumerate_candidates([WorkloadQuery(query)])
        assert any(c.target_model == "keyvalue" for c in candidates)

    def test_candidate_enumeration_join(self):
        query = ConjunctiveQuery(
            "personalized", ["?u", "?s"],
            [Atom("purchases", ["?u", "?s", "?c", "?q", "?p"]), Atom("visits", ["?u", "?s", "?c2", "?d"])],
        )
        candidates = enumerate_candidates([WorkloadQuery(query)])
        assert any(c.target_model == "nested" for c in candidates)

    def test_greedy_select_respects_budget(self):
        def make(name, benefit, space):
            query = ConjunctiveQuery(name, ["?x"], [Atom("R", ["?x"])])
            from repro.advisor import CandidateFragment

            return CandidateScore(
                CandidateFragment(name, query, "relational"), benefit, space
            )

        scores = [make("a", 100, 10), make("b", 90, 100), make("c", 0, 1)]
        chosen = greedy_select(scores, space_budget=50)
        assert [s.candidate.name for s in chosen] == ["a"]

    def test_advisor_recommends_keyvalue_and_join_fragments(self, marketplace_estocada):
        est = marketplace_estocada
        prefs_query = ConjunctiveQuery(
            "prefs_lookup", ["?pc"], [Atom("users", [Constant(3), "?n", "?c", "?p", "?pc"])]
        )
        join_query = ConjunctiveQuery(
            "personalized", ["?u", "?s"],
            [Atom("purchases", ["?u", "?s", "?c", "?q", "?p"]), Atom("visits", ["?u", "?s", "?c2", "?d"])],
        )
        report = est.recommend_fragments(
            [WorkloadQuery(prefs_query, weight=10.0), WorkloadQuery(join_query, weight=5.0)]
        )
        assert report.baseline_cost > 0
        assert report.improved_cost <= report.baseline_cost
        target_models = {r.candidate.target_model for r in report.additions}
        assert "nested" in target_models or "keyvalue" in target_models

    def test_advisor_flags_unused_fragments(self, marketplace_estocada):
        est = marketplace_estocada
        # A workload that only ever touches users leaves the catalog/cart/visit
        # fragments unused.
        query = ConjunctiveQuery(
            "users_only", ["?n"], [Atom("users", [Constant(1), "?n", "?c", "?p", "?pc"])]
        )
        report = est.recommend_fragments([WorkloadQuery(query)])
        assert "F_catalog" in report.drops

    def test_advisor_requires_workload(self, marketplace_estocada):
        from repro.errors import AdvisorError

        with pytest.raises(AdvisorError):
            marketplace_estocada.recommend_fragments([])
