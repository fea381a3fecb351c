"""Tests for the decoupled advisor baseline."""

import pytest

from repro import IndexAdvisor, WhatIfSession, Workload
from repro.baselines import DecoupledAdvisor
from repro.core.benefit import ConfigurationEvaluator
from repro.storage.index import IndexValueType


@pytest.fixture()
def setup(tpox_db, tpox_wl):
    return DecoupledAdvisor(tpox_db, tpox_wl)


class TestCandidateGeneration:
    def test_candidates_are_data_paths(self, setup, tpox_db):
        candidates = setup.enumerate_candidates()
        stats = tpox_db.runstats("SDOC")
        patterns = {str(c.pattern) for c in candidates if c.collection == "SDOC"}
        for tag_path in stats.path_counts:
            assert "/" + "/".join(tag_path) in patterns

    def test_numeric_variants_for_numeric_paths(self, setup):
        candidates = setup.enumerate_candidates()
        yield_types = {
            c.value_type
            for c in candidates
            if str(c.pattern) == "/Security/Yield"
        }
        assert yield_types == {IndexValueType.STRING, IndexValueType.NUMERIC}

    def test_candidate_space_much_larger_than_coupled(self, setup, tpox_db, tpox_wl):
        coupled = IndexAdvisor(tpox_db, tpox_wl)
        assert len(setup.enumerate_candidates()) > 2 * len(coupled.candidates)

    def test_only_workload_collections(self, tpox_db):
        workload = Workload.from_statements(
            ["for $s in X('SDOC')/Security where $s/Yield > 1 return $s"]
        )
        advisor = DecoupledAdvisor(tpox_db, workload)
        assert {c.collection for c in advisor.enumerate_candidates()} == {"SDOC"}


class TestHeuristicBenefit:
    def test_mentioned_tag_scores(self, setup):
        candidates = {
            str(c.pattern): c
            for c in setup.enumerate_candidates()
            if c.value_type is IndexValueType.STRING
        }
        # Symbol appears in several TPoX queries; an obscure path does not
        assert setup.heuristic_benefit(candidates["/Security/Symbol"]) > 0
        assert setup.heuristic_benefit(candidates["/Security/Price/Bid"]) == 0

    def test_no_selectivity_awareness(self, setup):
        """The hallmark flaw: a mention scores the same regardless of the
        predicate's selectivity (contrast with the coupled evaluator)."""
        candidates = {
            (str(c.pattern), c.value_type): c
            for c in setup.enumerate_candidates()
        }
        yield_candidate = candidates[("/Security/Yield", IndexValueType.NUMERIC)]
        score = setup.heuristic_benefit(yield_candidate)
        assert score > 0  # "Yield" appears in Q4's text


class TestRecommendation:
    def test_budget_respected(self, setup):
        recommendation = setup.recommend(budget_bytes=30_000)
        assert recommendation.size_bytes <= 30_000

    def test_zero_budget(self, setup):
        assert len(setup.recommend(budget_bytes=0).configuration) == 0

    def test_coupled_wins_at_equal_budget(self, tpox_db, tpox_wl, setup):
        budget = 40_000
        coupled_rec = IndexAdvisor(tpox_db, tpox_wl).recommend(
            budget_bytes=budget, algorithm="greedy_heuristics"
        )
        decoupled_rec = setup.recommend(budget)
        evaluator = ConfigurationEvaluator(tpox_db, WhatIfSession(tpox_db), tpox_wl)
        assert evaluator.estimated_speedup(
            coupled_rec.configuration
        ) >= evaluator.estimated_speedup(decoupled_rec.configuration)

    def test_some_recommended_indexes_unused(self, tpox_db, tpox_wl, setup):
        """Section II: 'no guarantee that the optimizer will use the
        recommended indexes'."""
        from repro.core.whatif import analyze

        recommendation = setup.recommend(budget_bytes=60_000)
        report = analyze(tpox_db, tpox_wl, recommendation.configuration)
        assert report.unused_indexes()
