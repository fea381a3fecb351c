"""System-level property-based tests.

These encode the contracts the whole reproduction leans on:

* adding a virtual index never makes the optimizer's estimate worse;
* the efficient benefit evaluation equals naive whole-workload evaluation
  for arbitrary configurations;
* execution results are invariant under arbitrary subsets of the
  recommended indexes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    Executor,
    IndexAdvisor,
    OptimizerMode,
    WhatIfSession,
    Workload,
)
from repro.core.benefit import ConfigurationEvaluator
from repro.core.config import IndexConfiguration
from repro.workloads import tpox

# ---------------------------------------------------------------------------
# Shared small world (module scope keeps hypothesis fast)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    db = tpox.build_database(
        num_securities=60, num_orders=40, num_customers=20, seed=17
    )
    workload = tpox.tpox_workload(num_securities=60, seed=17)
    advisor = IndexAdvisor(db, workload)
    candidates = list(advisor.candidates)
    return db, workload, advisor, candidates


SUBSET = st.lists(st.integers(min_value=0, max_value=200), max_size=6)


def pick(candidates, indices):
    return [candidates[i % len(candidates)] for i in indices]


@given(indices=SUBSET, extra=st.integers(min_value=0, max_value=200))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_adding_virtual_index_never_hurts(world, indices, extra):
    """EVALUATE-mode estimates are monotone: a superset of virtual indexes
    never yields a more expensive plan for any query."""
    db, workload, advisor, candidates = world
    optimizer = advisor.optimizer
    base_candidates = pick(candidates, indices)
    bigger = base_candidates + [candidates[extra % len(candidates)]]
    base_defs = [c.definition(f"a{i}") for i, c in enumerate(base_candidates)]
    bigger_defs = [c.definition(f"b{i}") for i, c in enumerate(bigger)]
    for entry in workload.queries()[:4]:
        cost_base = optimizer.optimize(
            entry.statement, OptimizerMode.EVALUATE, base_defs
        ).estimated_cost
        cost_bigger = optimizer.optimize(
            entry.statement, OptimizerMode.EVALUATE, bigger_defs
        ).estimated_cost
        assert cost_bigger <= cost_base + 1e-9


@given(indices=SUBSET)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fast_benefit_equals_naive(world, indices):
    db, workload, __, candidates = world
    config = IndexConfiguration(pick(candidates, indices))
    fast = ConfigurationEvaluator(db, WhatIfSession(db), workload)
    naive = ConfigurationEvaluator(db, WhatIfSession(db), workload, naive=True)
    assert fast.benefit(config) == pytest.approx(naive.benefit(config))


@given(indices=SUBSET)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_execution_results_invariant_under_indexes(world, indices):
    """Whatever subset of candidate indexes is physically built, every
    query returns exactly the same rows."""
    db, workload, __, candidates = world
    chosen = {c.key: c for c in pick(candidates, indices)}.values()
    names = []
    try:
        for i, candidate in enumerate(chosen):
            name = db.catalog.fresh_name("prop")
            db.create_index(candidate.definition(name, virtual=False))
            names.append(name)
        executor = Executor(db)
        for entry in workload.queries()[:5]:
            result = executor.execute(entry.statement, collect_output=True)
            baseline = _baseline_outputs(db, entry.statement)
            assert sorted(result.output) == baseline
    finally:
        for name in names:
            db.drop_index(name)


_BASELINE_CACHE = {}


def _baseline_outputs(db, statement):
    key = statement.describe()
    if key not in _BASELINE_CACHE:
        bare = Database("baseline")
        # reuse the same collections (read-only) but no indexes
        bare.collections = db.collections
        _BASELINE_CACHE[key] = sorted(
            Executor(bare).execute(statement, collect_output=True).output
        )
    return _BASELINE_CACHE[key]
