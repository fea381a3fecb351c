"""Tests for configuration benefit evaluation (Sections III, VI-C)."""

import pytest

from repro.core.benefit import ConfigurationEvaluator
from repro.core.candidates import enumerate_basic_candidates
from repro.core.config import IndexConfiguration
from repro.core.generalization import generalize_candidates
from repro.optimizer.session import WhatIfSession
from repro.query import Workload
from repro.storage.index import IndexValueType


@pytest.fixture()
def setup(tpox_db, tpox_wl):
    session = WhatIfSession(tpox_db)
    candidates = enumerate_basic_candidates(session, tpox_wl)
    generalize_candidates(candidates)
    candidates.compute_sizes(tpox_db)
    evaluator = ConfigurationEvaluator(tpox_db, session, tpox_wl)
    return candidates, evaluator


class TestBenefit:
    def test_empty_configuration_zero(self, setup):
        _, evaluator = setup
        assert evaluator.benefit(IndexConfiguration()) == 0.0

    def test_single_index_positive(self, setup):
        candidates, evaluator = setup
        symbol = candidates.get(("/Security/Symbol", IndexValueType.STRING))
        assert evaluator.benefit(IndexConfiguration([symbol])) > 0

    def test_useless_index_zero_benefit(self, setup, tpox_db, tpox_wl):
        from repro.core.candidates import CandidateSet
        from repro.xpath import parse_pattern

        _, evaluator = setup
        candidates = CandidateSet()
        useless = candidates.get_or_add(
            parse_pattern("/Security/Name"), IndexValueType.STRING, "SDOC"
        )
        useless.size_bytes = 100
        assert evaluator.benefit(IndexConfiguration([useless])) == 0.0

    def test_benefit_monotone_in_configuration(self, setup):
        """For a query-only workload, adding an index never hurts."""
        candidates, evaluator = setup
        config = IndexConfiguration()
        previous = 0.0
        for candidate in candidates.basics():
            config = config.with_candidate(candidate)
            current = evaluator.benefit(config)
            assert current >= previous - 1e-9
            previous = current

    def test_benefit_bounded_by_base_cost(self, setup):
        candidates, evaluator = setup
        config = IndexConfiguration(list(candidates))
        assert evaluator.benefit(config) <= evaluator.total_base_cost()

    def test_workload_cost_identity(self, setup):
        candidates, evaluator = setup
        config = IndexConfiguration(candidates.basics())
        assert evaluator.workload_cost(config) == pytest.approx(
            evaluator.total_base_cost() - evaluator.benefit(config)
        )

    def test_speedup_at_least_one(self, setup):
        candidates, evaluator = setup
        config = IndexConfiguration(candidates.basics())
        assert evaluator.estimated_speedup(config) >= 1.0
        assert evaluator.estimated_speedup(IndexConfiguration()) == pytest.approx(1.0)


class TestSubConfigurationDecomposition:
    def test_matches_naive_evaluation(self, tpox_db, tpox_wl):
        """The efficient evaluation must return exactly the same benefit
        as re-optimizing the entire workload."""
        candidates = enumerate_basic_candidates(WhatIfSession(tpox_db), tpox_wl)
        generalize_candidates(candidates)
        candidates.compute_sizes(tpox_db)
        fast = ConfigurationEvaluator(tpox_db, WhatIfSession(tpox_db), tpox_wl)
        naive = ConfigurationEvaluator(
            tpox_db, WhatIfSession(tpox_db), tpox_wl, naive=True
        )
        import itertools

        basics = candidates.basics()
        for size in (1, 2, 3):
            for combo in itertools.islice(itertools.combinations(basics, size), 6):
                config = IndexConfiguration(combo)
                assert fast.benefit(config) == pytest.approx(
                    naive.benefit(config)
                )

    def test_fewer_optimizer_calls_than_naive(self, tpox_db, tpox_wl):
        session_fast = WhatIfSession(tpox_db)
        session_naive = WhatIfSession(tpox_db)
        candidates = enumerate_basic_candidates(WhatIfSession(tpox_db), tpox_wl)
        candidates.compute_sizes(tpox_db)
        fast = ConfigurationEvaluator(tpox_db, session_fast, tpox_wl)
        naive = ConfigurationEvaluator(
            tpox_db, session_naive, tpox_wl, naive=True
        )
        basics = candidates.basics()
        configs = [IndexConfiguration(basics[: i + 1]) for i in range(len(basics))]
        for config in configs:
            fast.benefit(config)
            naive.benefit(config)
        assert (
            session_fast.counters.optimizer_calls
            < session_naive.counters.optimizer_calls
        )

    def test_cache_hits_on_repeat(self, setup):
        candidates, evaluator = setup
        config = IndexConfiguration(candidates.basics()[:3])
        evaluator.benefit(config)
        calls_after_first = evaluator.session.counters.optimizer_calls
        evaluator.benefit(config)
        # fully cached
        assert evaluator.session.counters.optimizer_calls == calls_after_first

    def test_subconfigurations_group_by_affected_overlap(self, setup):
        candidates, evaluator = setup
        symbol = candidates.get(("/Security/Symbol", IndexValueType.STRING))
        order = candidates.get(("/FIXML/Order/@ID", IndexValueType.STRING))
        config = IndexConfiguration([symbol, order])
        groups = evaluator._sub_configurations(config)
        assert len(groups) == 2  # disjoint affected sets stay separate

    def test_interacting_candidates_grouped(self, setup):
        candidates, evaluator = setup
        yield_c = candidates.get(("/Security/Yield", IndexValueType.NUMERIC))
        sector = candidates.get(
            ("/Security/SecInfo/*/Sector", IndexValueType.STRING)
        )
        config = IndexConfiguration([yield_c, sector])
        groups = evaluator._sub_configurations(config)
        assert len(groups) == 1  # both enumerated from Q4 -> same group


class TestAffectedSets:
    def test_recomputed_for_new_workload(self, tpox_db, tpox_wl, setup):
        """A candidate trained on one workload gets fresh affected sets
        when evaluated against another (the Figure 4/5 requirement)."""
        candidates, _ = setup
        symbol = candidates.get(("/Security/Symbol", IndexValueType.STRING))
        other_wl = Workload.from_statements(
            ["""for $s in X('SDOC')/Security where $s/Symbol = "Z" return $s"""]
        )
        evaluator = ConfigurationEvaluator(tpox_db, WhatIfSession(tpox_db), other_wl)
        assert evaluator.affected_set(symbol) == frozenset({0})

    def test_general_candidate_affects_covered_statements(self, setup):
        candidates, evaluator = setup
        general = candidates.get(("/Security//*", IndexValueType.STRING))
        if general is None:
            pytest.skip("no /Security//* general generated")
        symbol = candidates.get(("/Security/Symbol", IndexValueType.STRING))
        assert evaluator.affected_set(symbol) <= evaluator.affected_set(general)
