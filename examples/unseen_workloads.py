#!/usr/bin/env python3
"""Recommending general indexes that help queries you have not seen yet.

This is the paper's headline capability (Section V + VI-B, Figures 4/5):
train the advisor on a *partial* workload, and compare how well the
configurations recommended by top-down search (which prefers general
indexes) and greedy-with-heuristics (which over-fits the training
workload) serve the *full* workload -- including never-seen queries.

Run:  python examples/unseen_workloads.py
"""

from repro import IndexAdvisor, WhatIfSession, Workload
from repro.core.benefit import ConfigurationEvaluator
from repro.workloads import synthetic, tpox


def main() -> None:
    db = tpox.build_database(
        num_securities=200, num_orders=200, num_customers=100, seed=42
    )
    # The test workload: 11 TPoX queries + 9 synthetic ones (as in the
    # paper's 20-query experiment).
    test_workload = tpox.tpox_workload(num_securities=200, seed=42)
    for query in synthetic.random_path_queries(db, "SDOC", 9, seed=5):
        test_workload.add(query)

    reference = IndexAdvisor(db, test_workload)
    all_config = reference.all_index_configuration()
    all_speedup = reference.evaluate_configuration(all_config)
    budget = 2 * all_config.size_bytes()
    print(
        f"test workload: {len(test_workload)} queries; "
        f"All-Index speedup {all_speedup:.2f}x; budget {budget} B"
    )

    # Train on only the first 8 queries.
    training = test_workload.subset(8)
    print(f"\ntraining on the first {len(training)} queries only\n")

    for algorithm in ("topdown_lite", "greedy_heuristics"):
        advisor = IndexAdvisor(db, training)
        recommendation = advisor.recommend(budget_bytes=budget, algorithm=algorithm)
        evaluator = ConfigurationEvaluator(db, WhatIfSession(db), test_workload)
        speedup = evaluator.estimated_speedup(recommendation.configuration)
        print(f"=== {algorithm} ===")
        print(
            f"  {len(recommendation.configuration)} indexes "
            f"(general: {recommendation.search.general_count}, "
            f"specific: {recommendation.search.specific_count})"
        )
        for candidate in recommendation.configuration:
            print(f"    {candidate}")
        print(f"  speedup on the FULL 20-query workload: {speedup:.2f}x\n")

    print(
        "The general indexes (e.g. /Security//*) recommended by top-down\n"
        "search cover path expressions that never appeared in the training\n"
        "queries, so the unseen test queries can still use them -- that is\n"
        "why its full-workload speedup is far higher at equal budget."
    )


if __name__ == "__main__":
    main()
