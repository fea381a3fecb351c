"""Ablation (Section VI-B motivation): robustness to workload drift.

Train on the original workload, then evaluate the recommended
configurations against *drifted* variants (literals changed, where-clause
paths redirected to sibling elements).  Greedy-with-heuristics over-fits
the training paths; top down's general indexes keep covering the drifted
paths -- the reason the paper builds top down search at all.
"""

from __future__ import annotations

import pytest

from repro import IndexAdvisor, WhatIfSession
from repro.core.benefit import ConfigurationEvaluator
from repro.workloads.drift import drift_workload

DRIFT_SEEDS = (1, 2, 3)


def run_drift(db, workload):
    reference = IndexAdvisor(db, workload)
    budget = 2 * reference.all_index_configuration().size_bytes()
    recommendations = {
        algorithm: IndexAdvisor(db, workload).recommend(
            budget_bytes=budget, algorithm=algorithm
        )
        for algorithm in ("topdown_lite", "greedy_heuristics")
    }
    rows = []
    # training workload itself first
    evaluator = ConfigurationEvaluator(db, WhatIfSession(db), workload)
    rows.append(
        {
            "workload": "training",
            "topdown_lite": evaluator.estimated_speedup(
                recommendations["topdown_lite"].configuration
            ),
            "greedy_heuristics": evaluator.estimated_speedup(
                recommendations["greedy_heuristics"].configuration
            ),
        }
    )
    for seed in DRIFT_SEEDS:
        drifted = drift_workload(db, workload, seed=seed)
        evaluator = ConfigurationEvaluator(db, WhatIfSession(db), drifted)
        rows.append(
            {
                "workload": f"drift(seed={seed})",
                "topdown_lite": evaluator.estimated_speedup(
                    recommendations["topdown_lite"].configuration
                ),
                "greedy_heuristics": evaluator.estimated_speedup(
                    recommendations["greedy_heuristics"].configuration
                ),
            }
        )
    return rows


def print_drift(rows):
    print("\n=== Ablation: robustness to workload drift ===")
    print(f"{'workload':>16} {'topdown_lite':>13} {'greedy_heur':>12}")
    for row in rows:
        print(
            f"{row['workload']:>16} {row['topdown_lite']:>13.2f} "
            f"{row['greedy_heuristics']:>12.2f}"
        )


def test_ablation_drift(benchmark, bench_db, bench_workload):
    rows = benchmark.pedantic(
        run_drift, args=(bench_db, bench_workload), rounds=1, iterations=1
    )
    print_drift(rows)

    training = rows[0]
    drifted = rows[1:]
    # on the training workload itself, heuristics is at least competitive
    assert training["greedy_heuristics"] >= training["topdown_lite"] * 0.8

    # under drift, top down's general indexes dominate on average
    topdown_avg = sum(r["topdown_lite"] for r in drifted) / len(drifted)
    heuristics_avg = sum(r["greedy_heuristics"] for r in drifted) / len(drifted)
    assert topdown_avg > heuristics_avg

    # heuristics loses a larger fraction of its training speedup
    topdown_retention = topdown_avg / training["topdown_lite"]
    heuristics_retention = heuristics_avg / training["greedy_heuristics"]
    assert topdown_retention > heuristics_retention
