"""Edge cases and failure-mode tests across the stack."""

import pytest

from repro import (
    Database,
    Executor,
    IndexAdvisor,
    IndexDefinition,
    IndexValueType,
    Optimizer,
    OptimizerMode,
    WhatIfSession,
    Workload,
)
from repro.core.benefit import ConfigurationEvaluator
from repro.core.config import IndexConfiguration
from repro.query import parse_statement
from repro.xpath import parse_pattern


class TestEmptyWorlds:
    def test_advisor_on_empty_workload(self, security_db):
        advisor = IndexAdvisor(security_db, Workload())
        recommendation = advisor.recommend(budget_bytes=10_000)
        assert len(recommendation.configuration) == 0
        assert recommendation.estimated_speedup == pytest.approx(1.0)

    def test_advisor_on_empty_collection(self):
        db = Database()
        db.create_collection("E")
        workload = Workload.from_statements(
            ["for $x in C('E')/a where $x/b = 1 return $x"]
        )
        advisor = IndexAdvisor(db, workload)
        recommendation = advisor.recommend(budget_bytes=10_000)
        # the pattern is enumerated, but an index on no data has no size
        # and no benefit
        assert recommendation.search.size_bytes == 0

    def test_query_on_empty_collection(self):
        db = Database()
        db.create_collection("E")
        result = Executor(db).execute(
            parse_statement("for $x in C('E')/a where $x/b = 1 return $x")
        )
        assert result.rows == 0
        assert result.docs_examined == 0

    def test_optimizer_unknown_collection(self, security_db):
        statement = parse_statement("COLLECTION('NOPE')/a")
        with pytest.raises(KeyError):
            Optimizer(security_db).optimize(statement)

    def test_workload_only_updates(self, security_db):
        workload = Workload.from_statements(
            ["insert into SDOC value '<Security/>'"]
        )
        advisor = IndexAdvisor(security_db, workload)
        recommendation = advisor.recommend(budget_bytes=10_000)
        assert len(recommendation.configuration) == 0


class TestBudgetEdges:
    def test_negative_budget_like_zero(self, tpox_advisor):
        recommendation = tpox_advisor.recommend(budget_bytes=-5)
        assert len(recommendation.configuration) == 0

    def test_budget_smaller_than_any_index(self, tpox_advisor):
        recommendation = tpox_advisor.recommend(budget_bytes=10)
        assert len(recommendation.configuration) == 0

    def test_enormous_budget_finite_config(self, tpox_advisor):
        recommendation = tpox_advisor.recommend(budget_bytes=10**12)
        assert len(recommendation.configuration) <= len(tpox_advisor.candidates)


class TestDegenerateQueries:
    def test_predicate_no_match_in_data(self, security_db):
        result = Executor(security_db).execute(
            parse_statement(
                'for $s in X(\'SDOC\')/Security where $s/Symbol = "ZZZZZ" return $s'
            )
        )
        assert result.rows == 0

    def test_predicate_on_missing_path(self, security_db):
        statement = parse_statement(
            "for $s in X('SDOC')/Security where $s/No/Such/Path = 1 return $s"
        )
        assert Executor(security_db).execute(statement).rows == 0
        # and the optimizer survives costing it with a virtual index on it
        optimizer = Optimizer(security_db)
        definition = IndexDefinition(
            "v", "SDOC", parse_pattern("/Security/No/Such/Path"),
            IndexValueType.NUMERIC, virtual=True,
        )
        result = optimizer.optimize(statement, OptimizerMode.EVALUATE, [definition])
        assert result.estimated_cost >= 0

    def test_contradictory_predicates(self, security_db):
        statement = parse_statement(
            "for $s in X('SDOC')/Security where $s/Yield > 5 and $s/Yield < 1 return $s"
        )
        assert Executor(security_db).execute(statement).rows == 0

    def test_same_path_range_conjunction(self, security_db):
        statement = parse_statement(
            "for $s in X('SDOC')/Security where $s/Yield >= 2.5 and $s/Yield <= 4.5 return $s"
        )
        result = Executor(security_db).execute(statement, collect_output=True)
        assert result.rows > 0


class TestEvaluatorEdges:
    def test_benefit_of_foreign_collection_candidate(self, security_db):
        from repro.core.candidates import CandidateIndex

        workload = Workload.from_statements(
            ["for $s in X('SDOC')/Security where $s/Yield > 5 return $s"]
        )
        evaluator = ConfigurationEvaluator(
            security_db, WhatIfSession(security_db), workload
        )
        foreign = CandidateIndex(
            parse_pattern("/Other/Thing"), IndexValueType.STRING, "OTHER"
        )
        foreign.size_bytes = 10
        # never crashes; contributes nothing
        assert evaluator.benefit(IndexConfiguration([foreign])) == 0.0

    def test_duplicate_candidates_in_config_collapse(self, tpox_advisor):
        candidates = tpox_advisor.candidates.basics()
        config = IndexConfiguration([candidates[0], candidates[0]])
        assert len(config) == 1

    def test_speedup_of_empty_config_is_one(self, tpox_advisor):
        evaluator = tpox_advisor.evaluator
        assert evaluator.estimated_speedup(IndexConfiguration()) == pytest.approx(1.0)


class TestIndexEdges:
    def test_index_on_pattern_matching_nothing(self, security_db):
        index = security_db.create_index(
            IndexDefinition(
                "inone", "SDOC", parse_pattern("/No/Match"), IndexValueType.STRING
            )
        )
        try:
            assert index.entry_count() == 0
            assert index.size_bytes() == 0
            assert index.lookup_eq("x") == []
        finally:
            security_db.drop_index("inone")

    def test_reinserting_same_document_text_separate_entries(self):
        db = Database()
        db.create_collection("C")
        index = db.create_index(
            IndexDefinition("i", "C", parse_pattern("/a/v"), IndexValueType.NUMERIC)
        )
        db.insert_document("C", "<a><v>1</v></a>")
        db.insert_document("C", "<a><v>1</v></a>")
        assert index.entry_count() == 2
        assert len(index.lookup_eq(1.0)) == 2
