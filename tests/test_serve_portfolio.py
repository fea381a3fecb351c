"""The served recommend is one advise ladder on the request's snapshot.

* **parity** -- a served recommend, the daemon's first tuned cycle, a
  1x1 ``tune_cluster`` and ``repro recommend --json`` each equal a
  fresh ``IndexAdvisor.advise(budget)`` on the database and workload
  they saw: configuration, DDL, benefit, size, optimizer calls and the
  ``ilp`` block, over TPoX, XMark and mixed databases at three budgets;
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

import repro.core.advisor as advisor_module
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
        assert second["deadline_seconds"] == advisor_module._EXPIRED_SECONDS
        assert recommendation.truncated
    assert recommendation.search.algorithm == "greedy_heuristics"
    assert recommendation.degraded
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
# Every caller runs the same ILP search
# ---------------------------------------------------------------------------

#: What each caller's advice must share with a fresh ILP advisor.
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


# Each caller below advises on ``database`` for ``texts`` within
# ``budget`` by its default path and returns its advice as a
# ``Recommendation.to_dict()``, with the database and workload a fresh
# advisor must be handed to see what the caller saw.

def advice_from_server(database, texts, budget, tmp_path, capsys):
    import asyncio

    from repro.serve import AdvisorServer

    async def served():
        async with AdvisorServer(database) as server:
            return await server.recommend(texts, budget)

    response = asyncio.run(asyncio.wait_for(served(), timeout=120))
    assert response.ok, response.error
    return (
        response.value,
        SnapshotStore().snapshot(database),
        Workload.from_statements(texts),
    )


def advice_from_daemon(database, texts, budget, tmp_path, capsys):
    """The daemon's first tuned cycle over a private copy of
    ``database``: nothing is materialized yet, so nothing is hidden."""
    import pickle

    from repro.online import OnlineAdvisor, OnlinePolicy

    snapshot = SnapshotStore().snapshot(database)
    daemon = OnlineAdvisor(
        pickle.loads(pickle.dumps(snapshot)),
        OnlinePolicy(
            budget_bytes=budget,
            algorithm="ilp",
            compress="off",
            window_capacity=len(texts),
            cycle_interval=10 * len(texts),
        ),
    )
    for text in texts:
        daemon.ingest(text)
    tuned = []
    tune = daemon._tune
    daemon._tune = lambda workload: tuned.append(tune(workload)) or tuned[-1]
    workload = daemon.window.workload()
    report = daemon.run_cycle()
    assert report.action != "failed", report.error
    return tuned[0].to_dict(), snapshot, workload


def advice_from_cluster(database, texts, budget, tmp_path, capsys):
    """A 1x1 cluster; the fresh advisor gets a second one, whose catalog
    mints the same index names."""
    from repro.cluster import Cluster, tune_cluster

    workload = Workload.from_statements(texts)
    result = tune_cluster(
        Cluster.from_database(database, shards=1, replicas=1),
        workload,
        budget,
    )
    return (
        result.tunings[0].recommendation.to_dict(),
        Cluster.from_database(database, shards=1, replicas=1),
        workload,
    )


def advice_from_cli(database, texts, budget, tmp_path, capsys):
    import json

    from repro.cli import main, read_workload_file
    from repro.storage.persist import load_database, save_database

    dbdir = str(tmp_path / "db")
    save_database(database, dbdir)
    path = tmp_path / "workload.xq"
    path.write_text("".join(f"{text}\n;\n" for text in texts))
    capsys.readouterr()
    assert main(
        ["recommend", dbdir, "--workload", str(path), "--budget",
         str(budget), "--json"]
    ) == 0
    return (
        json.loads(capsys.readouterr().out),
        load_database(dbdir),
        read_workload_file(str(path)),
    )


CALLERS = {
    "server": advice_from_server,
    "daemon": advice_from_daemon,
    "cluster": advice_from_cluster,
    "cli": advice_from_cli,
}


@pytest.mark.parametrize("seed", [11, 1229, 7])
@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.6])
@pytest.mark.parametrize("case", ["tpox_db", "xmark_db", "mixed_db"])
@pytest.mark.parametrize(
    "caller", list(CALLERS.values()), ids=list(CALLERS)
)
def test_served_recommend_equals_a_fresh_ilp_advisor(
    caller, case, fraction, seed, request, tmp_path, capsys, fault_free
):
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
    advice, seen, workload = caller(
        database, texts, budget, tmp_path, capsys
    )
    fresh = IndexAdvisor(
        seen, workload, session=WhatIfSession(seen)
    ).advise(budget)
    assert_same_advice(
        parity_projection(advice),
        parity_projection(fresh.to_dict()),
        f"{case} at {fraction} of the basics, seed {seed}",
    )
