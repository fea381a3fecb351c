"""Tests for the five configuration search algorithms."""

import os
import subprocess
import sys

import pytest

from repro.core.benefit import ConfigurationEvaluator
from repro.core.candidates import enumerate_basic_candidates
from repro.core.generalization import generalize_candidates
from repro.core.search import (
    ALGORITHMS,
    dynamic_programming_search,
    greedy_search,
    greedy_search_with_heuristics,
    top_down_full,
    top_down_lite,
)
from repro.optimizer.session import WhatIfSession
from repro.storage.index import IndexValueType


@pytest.fixture()
def searchers_input(tpox_db, tpox_wl):
    session = WhatIfSession(tpox_db)
    candidates = enumerate_basic_candidates(session, tpox_wl)
    generalize_candidates(candidates)
    candidates.compute_sizes(tpox_db)
    evaluator = ConfigurationEvaluator(tpox_db, session, tpox_wl)
    all_size = sum(c.size_bytes for c in candidates.basics())
    return candidates, evaluator, all_size


ALL_SEARCHERS = [
    greedy_search,
    greedy_search_with_heuristics,
    top_down_lite,
    top_down_full,
    dynamic_programming_search,
]


class TestCommonProperties:
    @pytest.mark.parametrize("searcher", ALL_SEARCHERS)
    def test_budget_respected(self, searchers_input, searcher):
        candidates, evaluator, all_size = searchers_input
        for fraction in (0.2, 0.5, 1.0):
            budget = int(all_size * fraction)
            result = searcher(candidates, evaluator, budget)
            assert result.size_bytes <= budget

    @pytest.mark.parametrize("searcher", ALL_SEARCHERS)
    def test_zero_budget_empty_config(self, searchers_input, searcher):
        candidates, evaluator, _ = searchers_input
        result = searcher(candidates, evaluator, 0)
        assert len(result.configuration) == 0
        assert result.benefit == 0.0

    @pytest.mark.parametrize("searcher", ALL_SEARCHERS)
    def test_nonnegative_benefit(self, searchers_input, searcher):
        candidates, evaluator, all_size = searchers_input
        result = searcher(candidates, evaluator, all_size)
        assert result.benefit >= 0.0

    @pytest.mark.parametrize("searcher", ALL_SEARCHERS)
    def test_result_metadata(self, searchers_input, searcher):
        candidates, evaluator, all_size = searchers_input
        result = searcher(candidates, evaluator, all_size // 2)
        assert result.elapsed_seconds >= 0
        assert result.optimizer_calls >= 0
        assert result.general_count + result.specific_count == len(
            result.configuration
        )
        assert result.algorithm in ALGORITHMS
        assert result.algorithm in result.summary()

    @pytest.mark.parametrize("searcher", ALL_SEARCHERS)
    def test_speedup_grows_with_budget(self, searchers_input, searcher):
        candidates, evaluator, all_size = searchers_input
        benefits = [
            searcher(candidates, evaluator, int(all_size * f)).benefit
            for f in (0.25, 0.5, 1.0)
        ]
        assert benefits == sorted(benefits)


class TestGreedyVsHeuristics:
    def test_heuristics_avoid_redundant_generals(self, searchers_input):
        """At a budget around the all-basic size, plain greedy may spend
        space on general indexes that duplicate chosen specifics; the
        heuristic search must not end up worse."""
        candidates, evaluator, all_size = searchers_input
        plain = greedy_search(candidates, evaluator, all_size)
        smart = greedy_search_with_heuristics(candidates, evaluator, all_size)
        assert smart.benefit >= plain.benefit - 1e-9

    def test_heuristics_conservative_about_generals(self, searchers_input):
        """Table IV: greedy-with-heuristics recommends (almost) no general
        indexes."""
        candidates, evaluator, all_size = searchers_input
        result = greedy_search_with_heuristics(candidates, evaluator, 2 * all_size)
        assert result.general_count <= 1

    def test_beta_zero_blocks_bigger_generals(self, searchers_input):
        candidates, evaluator, all_size = searchers_input
        strict = greedy_search_with_heuristics(
            candidates, evaluator, 2 * all_size, beta=0.0
        )
        loose = greedy_search_with_heuristics(
            candidates, evaluator, 2 * all_size, beta=10.0
        )
        assert strict.general_count <= loose.general_count


class TestTopDown:
    def test_recommends_generals_with_space(self, searchers_input):
        """Table IV: top down recommends more general indexes the more
        disk space it has."""
        candidates, evaluator, all_size = searchers_input
        small = top_down_lite(candidates, evaluator, int(all_size * 0.4))
        big = top_down_lite(candidates, evaluator, all_size * 4)
        assert big.general_count >= small.general_count
        assert big.general_count >= 1

    def test_full_and_lite_respect_budget(self, searchers_input):
        candidates, evaluator, all_size = searchers_input
        for budget in (all_size // 3, all_size, all_size * 3):
            for searcher in (top_down_lite, top_down_full):
                assert searcher(candidates, evaluator, budget).size_bytes <= budget

    def test_drops_zero_benefit_candidates(self, searchers_input):
        """Preprocessing removes candidates the optimizer never uses."""
        candidates, evaluator, all_size = searchers_input
        result = top_down_full(candidates, evaluator, all_size * 10)
        for chosen in result.configuration:
            assert evaluator.standalone_benefit(chosen) > 0

    def test_full_makes_more_optimizer_calls_than_lite(self, tpox_db, tpox_wl):
        """With cold caches, full's per-step configuration evaluations
        cost more optimizer calls than lite's standalone sums."""
        candidates, evaluator, all_size = None, None, None
        results = {}
        for searcher in (top_down_lite, top_down_full):
            session = WhatIfSession(tpox_db)
            candidates = enumerate_basic_candidates(session, tpox_wl)
            generalize_candidates(candidates)
            candidates.compute_sizes(tpox_db)
            evaluator = ConfigurationEvaluator(tpox_db, session, tpox_wl)
            all_size = sum(c.size_bytes for c in candidates.basics())
            results[searcher] = searcher(
                candidates, evaluator, int(all_size * 0.5)
            )
        assert (
            results[top_down_full].optimizer_calls
            >= results[top_down_lite].optimizer_calls
        )


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Top down search at a budget holding every basic candidate, on an XMark
#: database where the search replaces generals by their children: the
#: children's order fixes the order the final benefit is summed in.
TOPDOWN_SCRIPT = """
from repro.core.advisor import IndexAdvisor
from repro.query.workload import Workload
from repro.workloads import xmark

database = xmark.build_database(
    num_items=200, num_persons=200, num_auctions=200, seed=7
)
texts = xmark.xmark_queries(seed=11)
advisor = IndexAdvisor(database, Workload.from_statements(texts))
budget = sum(c.size_bytes for c in advisor.candidates.basics())
for algorithm in ("topdown_lite", "topdown_full"):
    advisor = IndexAdvisor(database, Workload.from_statements(texts))
    print(repr(advisor.recommend(budget, algorithm=algorithm).search.benefit))
"""


def test_topdown_benefit_does_not_depend_on_the_hash_seed():
    """The DAG's children come out in candidate order, not set order, so
    the benefit's float summation order -- and its last bit -- is the
    same in every interpreter (it wobbled by one ulp with
    ``PYTHONHASHSEED``)."""
    outputs = {}
    for seed in ("0", "12345", "77"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", TOPDOWN_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs[seed] = done.stdout.split()
    assert len(outputs["0"]) == 2
    assert outputs["0"] == outputs["12345"] == outputs["77"], outputs


class TestDynamicProgramming:
    def test_dp_at_least_greedy_on_standalone_objective(self, searchers_input):
        """DP is exact for the interaction-free knapsack, so its sum of
        standalone benefits must match or beat greedy's."""
        candidates, evaluator, all_size = searchers_input
        for fraction in (0.3, 0.6, 1.0):
            budget = int(all_size * fraction)
            dp = dynamic_programming_search(candidates, evaluator, budget)
            greedy = greedy_search(candidates, evaluator, budget)
            dp_standalone = sum(
                evaluator.standalone_benefit(c) for c in dp.configuration
            )
            greedy_standalone = sum(
                evaluator.standalone_benefit(c) for c in greedy.configuration
            )
            assert dp_standalone >= greedy_standalone - 1e-9

    def test_dp_respects_quantized_budget(self, searchers_input):
        candidates, evaluator, all_size = searchers_input
        result = dynamic_programming_search(candidates, evaluator, all_size // 2)
        assert result.size_bytes <= all_size // 2


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(ALGORITHMS) == {
            "greedy",
            "greedy_heuristics",
            "topdown_lite",
            "topdown_full",
            "dp",
            "exhaustive",
            "ilp",
        }


class TestExhaustiveOracle:
    """Exhaustive search as ground truth on a small candidate pool."""

    @pytest.fixture()
    def small_input(self, security_db):
        from repro.core.candidates import enumerate_basic_candidates
        from repro.query import Workload

        workload = Workload.from_statements(
            [
                """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s""",
                """for $s in X('SDOC')/Security[Yield>4.5]
                   where $s/SecInfo/*/Sector = "Energy" return $s""",
                """for $s in X('SDOC')/Security where $s/Yield < 2 return $s""",
            ]
        )
        session = WhatIfSession(security_db)
        candidates = enumerate_basic_candidates(session, workload)
        generalize_candidates(candidates)
        candidates.compute_sizes(security_db)
        evaluator = ConfigurationEvaluator(security_db, session, workload)
        all_size = sum(c.size_bytes for c in candidates.basics())
        return candidates, evaluator, all_size

    def test_exhaustive_respects_budget(self, small_input):
        from repro.core.search import exhaustive_search

        candidates, evaluator, all_size = small_input
        result = exhaustive_search(candidates, evaluator, all_size // 2)
        assert result.size_bytes <= all_size // 2

    def test_no_algorithm_beats_exhaustive(self, small_input):
        from repro.core.search import exhaustive_search

        candidates, evaluator, all_size = small_input
        for budget in (all_size // 2, all_size):
            optimum = exhaustive_search(candidates, evaluator, budget)
            for name, searcher in ALGORITHMS.items():
                if name == "exhaustive":
                    continue
                result = searcher(candidates, evaluator, budget)
                assert result.benefit <= optimum.benefit + 1e-9, name

    def test_heuristics_near_optimal_here(self, small_input):
        from repro.core.search import exhaustive_search

        candidates, evaluator, all_size = small_input
        optimum = exhaustive_search(candidates, evaluator, all_size)
        heuristic = greedy_search_with_heuristics(candidates, evaluator, all_size)
        assert heuristic.benefit >= 0.9 * optimum.benefit

    def test_limit_enforced(self, searchers_input):
        from repro.core.search import EXHAUSTIVE_LIMIT, exhaustive_search

        candidates, evaluator, all_size = searchers_input
        if len(list(candidates)) <= EXHAUSTIVE_LIMIT:
            pytest.skip("candidate set unexpectedly small")
        with pytest.raises(ValueError):
            exhaustive_search(candidates, evaluator, all_size)
