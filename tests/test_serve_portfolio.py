"""The served recommend is one ILP search on the request's snapshot.

* **parity** -- a served recommend equals a fresh
  ``IndexAdvisor.recommend(algorithm="ilp")`` on the same database:
  configuration, DDL, benefit, size, optimizer calls and the ``ilp``
  block, over TPoX, XMark and mixed databases at three budgets;
* **deadline** -- a recommend whose deadline ran out still answers,
  truncated and within budget;
* **attempts** -- a failed ``ilp`` attempt is followed by exactly one
  ``greedy_heuristics`` attempt with what is left of the deadline and
  the same call budget; both failing is one typed error;
* **chaos** -- ``optimizer.evaluate`` faults never escape a recommend,
  and it is flagged ``degraded`` exactly when it read a fallback
  estimate.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.portfolio as portfolio_module
from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.robustness.errors import ConfigError, FatalAdvisorError
from repro.robustness.faults import FaultInjector, FaultRule, injected
from repro.serve import run_portfolio
from repro.storage.snapshots import SnapshotStore
from repro.workloads import tpox


def tpox_case():
    database = tpox.build_database(
        num_securities=30, num_orders=30, num_customers=15, seed=7
    )
    return database, tpox.tpox_workload(
        num_securities=30, seed=7, include_updates=True, update_frequency=0.5
    )


def test_an_expired_recommend_answers_truncated_within_budget():
    database, workload = tpox_case()
    deadline = 1e-6  # spent before candidate enumeration finishes
    started = time.perf_counter()
    recommendation = run_portfolio(
        database, workload, 50_000, deadline_seconds=deadline
    )
    assert time.perf_counter() - started < deadline + 2.0
    assert recommendation.truncated
    assert recommendation.search.size_bytes <= 50_000


def test_portfolio_rejects_a_non_positive_budget():
    database, workload = tpox_case()
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget_bytes"):
            run_portfolio(database, workload, budget)


# ---------------------------------------------------------------------------
# The attempt ladder: ilp, then one greedy_heuristics attempt
# ---------------------------------------------------------------------------

def record_attempts(monkeypatch, fail=lambda algorithm: None, pause=0.0):
    """Record each attempt's algorithm, deadline and call budget; an
    attempt for which ``fail(algorithm)`` returns an exception raises
    it after ``pause`` seconds."""
    attempts = []
    original = IndexAdvisor.recommend

    def recording(self, budget_bytes, algorithm, **knobs):
        attempts.append((algorithm, knobs))
        error = fail(algorithm)
        if error is not None:
            time.sleep(pause)
            raise error
        return original(self, budget_bytes, algorithm=algorithm, **knobs)

    monkeypatch.setattr(IndexAdvisor, "recommend", recording)
    return attempts


@pytest.mark.parametrize("deadline", [None, 60.0, 0.01])
def test_the_fallback_gets_what_is_left_and_the_same_call_budget(
    deadline, monkeypatch, fault_free
):
    attempts = record_attempts(
        monkeypatch,
        fail=lambda a: FatalAdvisorError("boom") if a == "ilp" else None,
        pause=0.02,
    )
    database, workload = tpox_case()
    recommendation = run_portfolio(
        database, workload, 50_000,
        deadline_seconds=deadline, optimizer_call_budget=400,
    )
    assert [a for a, _ in attempts] == ["ilp", "greedy_heuristics"]
    (_, first), (_, second) = attempts
    assert first["optimizer_call_budget"] == 400
    assert second["optimizer_call_budget"] == 400
    if deadline is None:
        assert first["deadline_seconds"] is None
        assert second["deadline_seconds"] is None
    elif deadline > 1.0:
        assert first["deadline_seconds"] <= deadline
        assert second["deadline_seconds"] < first["deadline_seconds"] - 0.01
    else:
        # spent while the ilp attempt failed: floored, not zero
        assert second["deadline_seconds"] == portfolio_module._EXPIRED_SECONDS
        assert recommendation.truncated
    assert recommendation.search.algorithm == "greedy_heuristics"
    assert any(
        "ilp attempt failed (FatalAdvisorError: boom)" in line
        for line in recommendation.diagnostics
    )


def test_a_successful_ilp_attempt_is_the_only_attempt(
    monkeypatch, fault_free
):
    attempts = record_attempts(monkeypatch)
    database, workload = tpox_case()
    recommendation = run_portfolio(database, workload, 50_000)
    assert [a for a, _ in attempts] == ["ilp"]
    assert not any("attempt failed" in d for d in recommendation.diagnostics)


@pytest.mark.parametrize(
    "errors, raised",
    [
        ((FatalAdvisorError("a"), FatalAdvisorError("b")), FatalAdvisorError),
        ((RuntimeError("a"), ConfigError("b")), ConfigError),
        ((ConfigError("a"), RuntimeError("b")), ConfigError),
    ],
)
def test_both_attempts_failing_raise_one_typed_error(
    errors, raised, monkeypatch, fault_free
):
    by_algorithm = dict(zip(("ilp", "greedy_heuristics"), errors))
    record_attempts(monkeypatch, fail=by_algorithm.get)
    database, workload = tpox_case()
    with pytest.raises(raised) as excinfo:
        run_portfolio(database, workload, 50_000)
    assert "ilp: a" in str(excinfo.value)
    assert "greedy_heuristics: b" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Chaos: whether the recommend read a fallback estimate
# ---------------------------------------------------------------------------

def test_a_fault_free_recommend_is_not_degraded(fault_free):
    database, workload = tpox_case()
    recommendation = run_portfolio(database, workload, 50_000)
    assert recommendation.to_dict()["degraded"] is False


def test_a_recommend_that_read_a_fallback_is_degraded():
    """Every attempt of the first evaluation -- a base cost -- fails:
    the search starts from that fallback estimate."""
    database, workload = tpox_case()
    rules = [FaultRule(site="optimizer.evaluate", at={0, 1, 2})]
    with injected(FaultInjector(rules, seed=1)):
        recommendation = run_portfolio(database, workload, 50_000)
    assert recommendation.session_stats["degraded_estimates"] == 1
    assert recommendation.to_dict()["degraded"] is True


@settings(max_examples=8, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_evaluate_faults_never_escape_a_recommend(rate, seed):
    database, workload = tpox_case()
    rules = [FaultRule(site="optimizer.evaluate", rate=rate)]
    with injected(FaultInjector(rules, seed=seed)):
        recommendation = run_portfolio(database, workload, 50_000)
    assert recommendation.degraded == (
        recommendation.session_stats["degraded_estimates"] > 0
    )
    assert recommendation.search.size_bytes <= 50_000


# ---------------------------------------------------------------------------
# The served recommend is the ILP search
# ---------------------------------------------------------------------------

#: What a served recommend must share with a fresh ILP advisor.
PARITY_KEYS = (
    "algorithm", "budget_bytes", "degraded", "indexes", "ddl", "benefit",
    "size_bytes", "optimizer_calls", "ilp",
)

PARITY_STATEMENTS = 30


def pool_sample(database, seed):
    """A 30-statement sample of a read-only Zipfian stream, the way the
    serve journeys draw their recommend requests, kept to the statements
    whose collections ``database`` holds."""
    import random

    from repro.query.model import JoinQuery
    from repro.query.parser import parse_statement
    from repro.workloads.stream import synthetic_stream

    securities = len(database.collections.get("SDOC", ())) or 60
    pool = []
    for entry in synthetic_stream(
        300, seed=seed, num_securities=securities, update_fraction=0.0
    ):
        statement = entry.statement
        names = (
            [statement.left.collection, statement.right.collection]
            if isinstance(statement, JoinQuery)
            else [statement.collection]
        )
        if set(names) <= set(database.collections):
            pool.append(statement.describe())
    return random.Random(seed).sample(pool, PARITY_STATEMENTS)


def parity_projection(data):
    return {key: data[key] for key in PARITY_KEYS}


@pytest.mark.parametrize("seed", [11, 1229, 7])
@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.6])
@pytest.mark.parametrize("case", ["tpox_db", "xmark_db", "mixed_db"])
def test_served_recommend_equals_a_fresh_ilp_advisor(
    case, fraction, seed, request, fault_free
):
    import asyncio

    from repro.serve import AdvisorServer
    from tests.fault_projection import assert_same_advice

    database = request.getfixturevalue(case)
    texts = pool_sample(database, seed)
    snapshot = SnapshotStore().snapshot(database)
    basics = sum(
        candidate.size_bytes
        for candidate in IndexAdvisor(
            snapshot, Workload.from_statements(texts),
            session=WhatIfSession(snapshot),
        ).candidates.basics()
    )
    budget = max(1, int(basics * fraction))

    async def served():
        async with AdvisorServer(database) as server:
            return await server.recommend(texts, budget)

    response = asyncio.run(asyncio.wait_for(served(), timeout=120))
    assert response.ok, response.error
    snapshot = SnapshotStore().snapshot(database)
    fresh = IndexAdvisor(
        snapshot, Workload.from_statements(texts),
        session=WhatIfSession(snapshot),
    ).recommend(budget, algorithm="ilp")
    assert_same_advice(
        parity_projection(response.value),
        parity_projection(fresh.to_dict()),
        f"{case} at {fraction} of the basics, seed {seed}",
    )
