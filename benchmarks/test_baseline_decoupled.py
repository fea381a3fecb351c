"""Baseline comparison (Section II claims): tight coupling vs a decoupled
advisor.

The paper argues optimizer-independent advisors suffer from (1) an
uncontrolled candidate space (candidates = all data paths), (2) inaccurate
benefit estimates (their own cost model), and (3) no guarantee the
optimizer uses the recommended indexes.  This benchmark quantifies all
three against the tightly-coupled advisor at equal disk budgets.
"""

from __future__ import annotations

import pytest

from repro import IndexAdvisor, WhatIfSession
from repro.baselines import DecoupledAdvisor
from repro.core.benefit import ConfigurationEvaluator
from repro.core.whatif import analyze


def run_comparison(db, workload):
    coupled = IndexAdvisor(db, workload)
    all_size = coupled.all_index_configuration().size_bytes()
    rows = []
    for fraction in (0.5, 1.0):
        budget = int(all_size * fraction)
        coupled_rec = IndexAdvisor(db, workload).recommend(
            budget_bytes=budget, algorithm="greedy_heuristics"
        )
        decoupled_rec = DecoupledAdvisor(db, workload).recommend(budget)
        evaluator = ConfigurationEvaluator(db, WhatIfSession(db), workload)
        coupled_speedup = evaluator.estimated_speedup(coupled_rec.configuration)
        decoupled_speedup = evaluator.estimated_speedup(
            decoupled_rec.configuration
        )
        decoupled_report = analyze(db, workload, decoupled_rec.configuration)
        coupled_report = analyze(db, workload, coupled_rec.configuration)
        rows.append(
            {
                "budget": budget,
                "coupled_candidates": len(
                    IndexAdvisor(db, workload).candidates
                ),
                "decoupled_candidates": decoupled_rec.candidate_count,
                "coupled_speedup": coupled_speedup,
                "decoupled_speedup": decoupled_speedup,
                "coupled_indexes": len(coupled_rec.configuration),
                "decoupled_indexes": len(decoupled_rec.configuration),
                "coupled_unused": len(coupled_report.unused_indexes()),
                "decoupled_unused": len(decoupled_report.unused_indexes()),
            }
        )
    return rows


def print_comparison(rows):
    print("\n=== Baseline: tightly-coupled advisor vs decoupled advisor ===")
    print(
        f"{'budget':>9} {'cands C/D':>12} {'speedup C/D':>16} "
        f"{'indexes C/D':>12} {'unused C/D':>11}"
    )
    for row in rows:
        print(
            f"{row['budget']:>9} "
            f"{row['coupled_candidates']:>5}/{row['decoupled_candidates']:<6} "
            f"{row['coupled_speedup']:>7.2f}/{row['decoupled_speedup']:<8.2f} "
            f"{row['coupled_indexes']:>5}/{row['decoupled_indexes']:<6} "
            f"{row['coupled_unused']:>5}/{row['decoupled_unused']:<5}"
        )


def test_baseline_decoupled(benchmark, bench_db, bench_workload):
    rows = benchmark.pedantic(
        run_comparison, args=(bench_db, bench_workload), rounds=1, iterations=1
    )
    print_comparison(rows)

    for row in rows:
        # (1) candidate-space explosion
        assert row["decoupled_candidates"] > 2 * row["coupled_candidates"]
        # (2)+(3): at equal budget the coupled advisor achieves at least
        # as much speedup, and the decoupled one wastes budget on indexes
        # no plan ever uses
        assert row["coupled_speedup"] >= row["decoupled_speedup"] - 1e-6
        assert row["coupled_unused"] == 0
        assert row["decoupled_unused"] >= 1
    # the gap is material somewhere in the sweep
    assert any(
        row["coupled_speedup"] > 1.2 * row["decoupled_speedup"] for row in rows
    )
