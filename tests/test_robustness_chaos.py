"""Chaos property test (ISSUE satellite): under ANY seeded fault
schedule, ``recommend()`` either returns a valid :class:`Recommendation`
or raises a typed :class:`FatalAdvisorError` -- never an unhandled
exception.  The serving front end is held to the same discipline."""

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advisor import IndexAdvisor, Recommendation
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.robustness.errors import FatalAdvisorError
from repro.robustness.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    injected,
)
from repro.robustness.policy import RetryPolicy
from repro.serve import AdvisorServer, run_portfolio
from repro.serve.requests import ERROR_CODES, Response
from repro.workloads import tpox

FAST_RETRIES = RetryPolicy(sleep=lambda seconds: None)
BUDGET = 50_000

SITES = st.sampled_from(
    [
        "optimizer",
        "optimizer.evaluate",
        "optimizer.enumerate",
        "optimizer.plan",
        "statistics",
        "statistics.runstats",
        "statistics.derive",
    ]
)

RULES = st.builds(
    FaultRule,
    site=SITES,
    rate=st.floats(min_value=0.0, max_value=1.0),
)

ALGORITHMS = st.sampled_from(
    ["greedy", "greedy_heuristics", "topdown_full", "dp", "ilp"]
)


def small_database():
    return tpox.build_database(
        num_securities=12, num_orders=12, num_customers=6, seed=7
    )


SMALL_WORKLOAD = tpox.tpox_workload(num_securities=12, seed=7).subset(6)


@settings(max_examples=25, deadline=None)
@given(
    rules=st.lists(RULES, min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
    algorithm=ALGORITHMS,
)
def test_recommend_never_raises_unhandled(rules, seed, algorithm):
    database = small_database()
    advisor = IndexAdvisor(
        database,
        Workload(SMALL_WORKLOAD.entries),
        session=WhatIfSession(database, retry_policy=FAST_RETRIES),
    )
    with injected(FaultInjector(rules, seed=seed)):
        try:
            recommendation = advisor.recommend(BUDGET, algorithm=algorithm)
        except FatalAdvisorError:
            return  # the one allowed failure mode
    assert isinstance(recommendation, Recommendation)
    assert recommendation.search.size_bytes <= BUDGET
    assert recommendation.search.benefit >= 0.0 or recommendation.degraded
    json.dumps(recommendation.to_dict())  # always serializable


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    algorithm=ALGORITHMS,
)
def test_chaos_schedules_replay_deterministically(seed, algorithm):
    """The same fault seed must reproduce the same outcome -- the
    property that makes chaos failures debuggable."""
    def run():
        database = small_database()
        advisor = IndexAdvisor(
            database,
            Workload(SMALL_WORKLOAD.entries),
            session=WhatIfSession(database, retry_policy=FAST_RETRIES),
        )
        rules = [FaultRule(site="optimizer", rate=0.2)]
        with injected(FaultInjector(rules, seed=seed)):
            try:
                recommendation = advisor.recommend(BUDGET, algorithm=algorithm)
            except FatalAdvisorError as exc:
                return ("fatal", str(exc))
        return (
            "ok",
            recommendation.search.benefit,
            recommendation.session_stats["retries"],
            recommendation.session_stats["degraded_estimates"],
            [str(c.pattern) for c in recommendation.configuration],
        )

    assert run() == run()


def test_degraded_ilp_still_beats_degraded_greedy():
    """PR 8 satellite: with every optimizer evaluation failing
    (rate=1.0 pins the degradation deterministically regardless of call
    order), ``ilp`` must still return a valid configuration whose
    benefit -- scored on the same degraded estimates -- is at least the
    degraded greedy baseline's."""
    rules = [
        FaultRule(
            site="optimizer.evaluate",
            rate=1.0,
            exception=lambda site, index: InjectedFault(site, 0),
        )
    ]

    def run(algorithm):
        database = small_database()
        advisor = IndexAdvisor(
            database,
            Workload(SMALL_WORKLOAD.entries),
            session=WhatIfSession(database, retry_policy=FAST_RETRIES),
        )
        with injected(FaultInjector(rules, seed=5)):
            return advisor.recommend(BUDGET, algorithm=algorithm)

    ilp = run("ilp")
    greedy = run("greedy_heuristics")
    assert isinstance(ilp, Recommendation)
    assert ilp.degraded and greedy.degraded
    assert len(ilp.configuration) > 0
    assert ilp.search.size_bytes <= BUDGET
    assert ilp.search.benefit >= greedy.search.benefit - 1e-9
    json.dumps(ilp.to_dict())


# ---------------------------------------------------------------------------
# PR 9: the serving front end under the same chaos discipline
# ---------------------------------------------------------------------------

QUERY_TEXTS = [e.statement.describe() for e in SMALL_WORKLOAD.entries]
SERVE_TIMEOUT = 120


def _serve(coro):
    """Every serve chaos scenario is hang-guarded: a faulted request
    that deadlocked the event loop would trip the wait_for, not CI."""
    return asyncio.run(asyncio.wait_for(coro, timeout=SERVE_TIMEOUT))


def test_faulted_ilp_attempt_falls_back_to_greedy_heuristics():
    """Killing exactly the first attempt (the ILP) at the
    ``advise.attempt`` site must fall back to ``greedy_heuristics``'s standalone result -- the
    served recommend never surfaces the fault, it records it."""
    rules = [
        FaultRule(
            site="advise.attempt",
            at={0},
            exception=lambda site, index: InjectedFault(site, 0),
        )
    ]
    database = small_database()
    with injected(FaultInjector(rules, seed=5)):
        recommendation = run_portfolio(
            database, Workload(SMALL_WORKLOAD.entries), BUDGET
        )
    assert recommendation.search.algorithm == "greedy_heuristics"
    assert any(
        "ilp attempt failed (InjectedFault" in line
        for line in recommendation.diagnostics
    )

    clean_db = small_database()
    standalone = IndexAdvisor(
        clean_db,
        Workload(SMALL_WORKLOAD.entries),
        session=WhatIfSession(clean_db),
    ).recommend(BUDGET, algorithm="greedy_heuristics")
    assert recommendation.search.benefit == standalone.search.benefit
    assert recommendation.ddl == standalone.ddl
    json.dumps(recommendation.to_dict())


def test_all_lanes_faulted_is_a_typed_response_never_a_hang():
    """Both recommend attempts faulted: the server's recommend endpoint
    must answer with a typed ``advisor-error`` response -- not an
    unhandled exception, not a hang, not a bare 500."""
    rules = [
        FaultRule(
            site="advise.attempt",
            rate=1.0,
            exception=lambda site, index: InjectedFault(site, 0),
        )
    ]

    async def scenario():
        async with AdvisorServer(small_database()) as server:
            return await server.recommend(QUERY_TEXTS, BUDGET)

    with injected(FaultInjector(rules, seed=9)):
        response = _serve(scenario())
    assert isinstance(response, Response)
    assert not response.ok
    assert response.code == "advisor-error"
    assert "injected" in response.error
    json.dumps(response.to_dict())


@settings(max_examples=15, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_request_faults_always_typed_never_hang(rate, seed):
    """Faults at the ``serve.request`` admission boundary, at any rate
    and seed: every response is still a typed :class:`Response` (ok or
    a taxonomy code), the server never raises, and rejected requests
    leave no partial state (storage counters equal a fault-free run's
    for the requests that did commit)."""
    rules = [
        FaultRule(
            site="serve.request",
            rate=rate,
            exception=lambda site, index: InjectedFault(site, 0),
        )
    ]
    schedule = [{"kind": "query", "text": text} for text in QUERY_TEXTS[:3]]
    schedule.append(
        {
            "kind": "dml",
            "text": "insert into SDOC value "
            "'<Security><Symbol>CHAOS</Symbol></Security>'",
        }
    )

    async def scenario():
        async with AdvisorServer(small_database()) as server:
            responses = await server.run_schedule(schedule)
            return responses, server

    with injected(FaultInjector(rules, seed=seed)):
        responses, server = _serve(scenario())
    for response in responses:
        assert isinstance(response, Response)
        if not response.ok:
            assert response.code in ERROR_CODES
            assert response.seq is None  # nothing committed
    committed = [r for r in responses if r.kind == "dml" and r.ok]
    assert server.stats()["writes"] == len(committed)
    json.dumps([response.to_dict() for response in responses])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_serve_chaos_replays_deterministically(seed):
    """The same fault seed against the same schedule reproduces the
    same responses -- serve chaos failures are debuggable replays, like
    every other chaos site."""
    rules = [FaultRule(site="serve.request", rate=0.5)]
    schedule = [
        {"kind": "query", "text": QUERY_TEXTS[0]},
        {
            "kind": "dml",
            "text": "insert into SDOC value "
            "'<Security><Symbol>RPL</Symbol></Security>'",
        },
        {"kind": "query", "text": QUERY_TEXTS[1]},
    ]

    async def scenario():
        async with AdvisorServer(small_database()) as server:
            return await server.run_schedule(schedule)

    def run_once():
        with injected(FaultInjector(rules, seed=seed)):
            return [r.comparable() for r in _serve(scenario())]

    assert run_once() == run_once()
