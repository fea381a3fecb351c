"""Tests for the shared :class:`WhatIfSession` coupling layer.

Covers the cross-component cache contract (what-if analysis after a
``recommend()`` run re-optimizes nothing), invalidation on database
modification, instrumentation surfacing, and agreement between the
session-cached and naive evaluators.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, IndexAdvisor, Workload
from repro.core import whatif
from repro.core.benefit import ConfigurationEvaluator
from repro.core.config import IndexConfiguration
from repro.optimizer.session import InstrumentationCounters, WhatIfSession
from repro.query.parser import parse_statement
from repro.workloads import tpox

BUDGET = 200_000


@pytest.fixture()
def session(tpox_db) -> WhatIfSession:
    return WhatIfSession(tpox_db)


# ---------------------------------------------------------------------------
# Core caching contract
# ---------------------------------------------------------------------------
def test_repeated_cost_hits_cache(tpox_db, tpox_wl, session):
    statement = tpox_wl.entries[0].statement
    first = session.cost(statement)
    assert session.counters.cache_misses == 1
    assert session.counters.optimizer_calls == 1
    second = session.cost(statement)
    assert second == first
    assert session.counters.cache_hits == 1
    assert session.counters.optimizer_calls == 1  # no new optimization


def test_equal_statements_share_cache_entries(tpox_db, session):
    text = "for $s in X('SDOC')/Security where $s/Yield > 4 return $s"
    session.cost(parse_statement(text))
    session.cost(parse_statement(text))  # re-parsed, equal by value
    assert session.counters.optimizer_calls == 1
    assert session.counters.cache_hits == 1


def test_projection_ignores_irrelevant_indexes(tpox_db, tpox_wl, session):
    """An index that matches none of a statement's path requests must not
    change its cache key, so adding it costs zero optimizer calls."""
    advisor = IndexAdvisor(tpox_db, tpox_wl, session=session)
    candidates = list(advisor.candidates)
    statement = tpox_wl.entries[0].statement
    relevant = [
        c for c in candidates if 0 in advisor.evaluator.affected_set(c)
    ]
    irrelevant = [
        c for c in candidates if 0 not in advisor.evaluator.affected_set(c)
    ]
    assert relevant and irrelevant  # fixture sanity
    baseline = session.cost(statement, session.definitions_for(relevant[:1]))
    calls = session.counters.optimizer_calls
    padded = relevant[:1] + irrelevant
    assert session.cost(
        statement, session.definitions_for(padded)
    ) == baseline
    assert session.counters.optimizer_calls == calls


def test_analyze_after_recommend_reoptimizes_nothing(tpox_db, tpox_wl):
    """Acceptance: every (statement, configuration) pair the search costed
    is served warm to what-if analysis -- zero new optimizer calls."""
    session = WhatIfSession(tpox_db)
    advisor = IndexAdvisor(tpox_db, tpox_wl, session=session)
    recommendation = advisor.recommend(
        budget_bytes=BUDGET, algorithm="greedy_heuristics"
    )
    calls_before = session.counters.optimizer_calls
    hits_before = session.counters.cache_hits
    report = whatif.analyze(
        tpox_db, tpox_wl, recommendation.configuration, session=session
    )
    assert session.counters.optimizer_calls == calls_before
    assert session.counters.cache_hits > hits_before
    assert len(report.impacts) == len(tpox_wl.entries)
    assert report.total_benefit > 0


def test_analyze_without_session_still_works(tpox_db, tpox_wl):
    advisor = IndexAdvisor(tpox_db, tpox_wl)
    recommendation = advisor.recommend(budget_bytes=BUDGET)
    report = whatif.analyze(tpox_db, tpox_wl, recommendation.configuration)
    assert report.total_benefit > 0


# ---------------------------------------------------------------------------
# Invalidation on database modification
# ---------------------------------------------------------------------------
def test_insert_invalidates_cached_costs(security_db):
    session = WhatIfSession(security_db)
    statement = parse_statement(
        "for $s in X('SDOC')/Security where $s/Yield > 2 return $s"
    )
    before = session.cost(statement)
    calls = session.counters.optimizer_calls
    for i in range(40):
        security_db.insert_document(
            "SDOC",
            f"<Security><Symbol>NEW{i}</Symbol><Yield>9.9</Yield></Security>",
        )
    after = session.cost(statement)
    assert session.counters.invalidations >= 1
    assert session.counters.optimizer_calls == calls + 1  # re-optimized
    assert after != before  # 40 extra documents moved the cost


def test_evaluator_caches_follow_database_generation(security_db):
    workload = Workload()
    workload.add(
        parse_statement(
            "for $s in X('SDOC')/Security where $s/Yield > 2 return $s"
        )
    )
    session = WhatIfSession(security_db)
    evaluator = ConfigurationEvaluator(security_db, session, workload)
    advisor_candidates = IndexAdvisor(security_db, workload).candidates
    config = IndexConfiguration(list(advisor_candidates)[:1])
    stale_base = evaluator.total_base_cost()
    evaluator.benefit(config)
    assert evaluator._subconfig_cache  # populated
    for i in range(40):
        security_db.insert_document(
            "SDOC",
            f"<Security><Symbol>NEW{i}</Symbol><Yield>9.9</Yield></Security>",
        )
    fresh_base = evaluator.total_base_cost()  # triggers _refresh()
    assert fresh_base != stale_base
    evaluator.benefit(config)  # recomputed against fresh statistics


def test_index_ddl_invalidates_plans(security_db):
    from repro.storage.catalog import IndexDefinition
    from repro.storage.index import IndexValueType
    from repro.xpath.patterns import parse_pattern

    session = WhatIfSession(security_db)
    statement = parse_statement(
        "for $s in X('SDOC')/Security where $s/Yield > 9 return $s"
    )
    unindexed = session.plan(statement)
    security_db.create_index(
        IndexDefinition(
            name="yield_idx",
            collection="SDOC",
            pattern=parse_pattern("/Security/Yield"),
            value_type=IndexValueType.NUMERIC,
        )
    )
    indexed = session.plan(statement)
    assert "yield_idx" in indexed.used_indexes
    assert indexed.estimated_cost < unindexed.estimated_cost


def test_explicit_invalidate_clears_results(tpox_db, tpox_wl, session):
    session.cost(tpox_wl.entries[0].statement)
    assert session.stats()["cached_results"] == 1
    session.invalidate()
    assert session.stats()["cached_results"] == 0
    assert session.counters.invalidations == 1


# ---------------------------------------------------------------------------
# Instrumentation surfacing
# ---------------------------------------------------------------------------
def test_recommendation_reports_session_stats(tpox_db, tpox_wl):
    advisor = IndexAdvisor(tpox_db, tpox_wl)
    recommendation = advisor.recommend(budget_bytes=BUDGET)
    payload = recommendation.to_dict()
    assert payload["cache_hits"] == recommendation.search.cache_hits
    assert payload["cache_misses"] == recommendation.search.cache_misses
    stats = payload["session"]
    assert stats["optimizer_calls"] == advisor.session.counters.optimizer_calls
    assert stats["cache_hits"] + stats["cache_misses"] > 0
    assert 0.0 <= stats["cache_hit_ratio"] <= 1.0
    for phase in ("enumerate", "base-costs"):
        assert stats["phase_seconds"][phase] >= 0.0
    assert "Cost cache" in recommendation.report()
    assert "optimizer calls" in recommendation.stats_report()


def test_counters_to_dict_roundtrip():
    counters = InstrumentationCounters()
    counters.optimizer_calls = 7
    counters.cache_hits = 3
    counters.cache_misses = 1
    payload = counters.to_dict()
    assert payload["optimizer_calls"] == 7
    assert payload["cache_hit_ratio"] == pytest.approx(0.75)


def test_search_result_counts_session_cache_traffic(tpox_db, tpox_wl):
    advisor = IndexAdvisor(tpox_db, tpox_wl)
    result = advisor.recommend(budget_bytes=BUDGET).search
    assert result.optimizer_calls > 0
    assert result.cache_misses > 0
    assert result.cache_hits >= 0


def test_greedy_heuristics_issues_no_more_calls_than_greedy(tpox_db, tpox_wl):
    """Regression: the heuristics variant prunes evaluations, so on the
    TPoX workload it must not issue more optimizer calls than plain
    greedy (fresh sessions for a fair count)."""
    plain = IndexAdvisor(tpox_db, tpox_wl)
    plain.recommend(budget_bytes=BUDGET, algorithm="greedy")
    pruned = IndexAdvisor(tpox_db, tpox_wl)
    pruned.recommend(budget_bytes=BUDGET, algorithm="greedy_heuristics")
    assert (
        pruned.session.counters.optimizer_calls
        <= plain.session.counters.optimizer_calls
    )


# ---------------------------------------------------------------------------
# Session/naive evaluator agreement
# ---------------------------------------------------------------------------
def _agreement_fixture():
    db = tpox.build_database(
        num_securities=60, num_orders=60, num_customers=30, seed=11
    )
    workload = tpox.tpox_workload(num_securities=60, seed=11)
    advisor = IndexAdvisor(db, workload)
    candidates = list(advisor.candidates)
    cached = ConfigurationEvaluator(db, WhatIfSession(db), workload)
    naive = ConfigurationEvaluator(
        db, WhatIfSession(db), workload, naive=True
    )
    return candidates, cached, naive


_CANDIDATES, _CACHED, _NAIVE = _agreement_fixture()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_CANDIDATES) - 1),
        min_size=0,
        max_size=6,
        unique=True,
    )
)
def test_cached_and_naive_benefits_agree(picks):
    """Property: sub-configuration splitting plus the session cache are
    pure optimizations -- the naive evaluator (whole workload, whole
    configuration, no cache) computes the same benefit."""
    config = IndexConfiguration([_CANDIDATES[i] for i in picks])
    assert _CACHED.benefit(config) == pytest.approx(
        _NAIVE.benefit(config), rel=1e-9, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Construction discipline
# ---------------------------------------------------------------------------
def test_adopt_wraps_existing_optimizer(tpox_db):
    from repro.optimizer.optimizer import Optimizer

    optimizer = Optimizer(tpox_db)
    session = WhatIfSession.adopt(optimizer)
    assert session.optimizer is optimizer


def test_no_production_optimizer_construction_outside_session():
    """Grep-clean acceptance: ``Optimizer(`` is constructed in exactly one
    production module -- the session layer."""
    import pathlib
    import re

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for path in src.rglob("*.py"):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\bOptimizer\(", line) and "session.py" not in str(
                path
            ):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == [], offenders


def test_public_candidate_maintenance(tpox_db, tpox_wl):
    advisor = IndexAdvisor(tpox_db, tpox_wl)
    candidate = next(iter(advisor.candidates))
    charge = advisor.evaluator.candidate_maintenance(candidate)
    assert charge >= 0.0
    # the deprecated underscore alias stays wired to the public method
    assert advisor.evaluator._candidate_maintenance(candidate) == charge


# ---------------------------------------------------------------------------
# The ``repro.parallel`` shim the benchmark harness's probes call
# ---------------------------------------------------------------------------
def test_create_session_shim_is_a_plain_serial_session(
    tpox_db, tpox_wl, fault_free
):
    """``create_session`` ignores ``workers``/``executor``: it returns a
    plain :class:`WhatIfSession` whose probe calls answer exactly as a
    fresh session's do."""
    from repro.parallel import create_session

    shim = create_session(tpox_db, workers=2, executor="process")
    assert type(shim) is WhatIfSession
    fresh = WhatIfSession(tpox_db)
    candidates = IndexAdvisor(tpox_db, tpox_wl, session=fresh).candidates
    results = []
    for session in (shim, fresh):
        session.register_statements(entry.statement for entry in tpox_wl)
        tasks = [
            (entry.statement, session.definitions_for([candidate]))
            for entry in tpox_wl
            for candidate in candidates.basics()
        ]
        results.append(session.evaluate_batch(tasks, use_cache=False))
        session.close()
    assert results[0] == results[1]
    assert [result.estimated_cost for result in results[0]] == [
        result.estimated_cost for result in results[1]
    ]


# ---------------------------------------------------------------------------
# One execution path: no worker knobs, no pools
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("knob", [{"workers": 2}, {"executor": "thread"}])
def test_advisor_takes_no_worker_knobs(tpox_db, tpox_wl, knob):
    with pytest.raises(TypeError):
        IndexAdvisor(tpox_db, tpox_wl, **knob)


def test_advisor_session_is_a_plain_serial_session(tpox_db, tpox_wl):
    advisor = IndexAdvisor(tpox_db, tpox_wl)
    assert type(advisor.session) is WhatIfSession
    assert "workers" not in advisor.session.stats()


def test_package_exports_no_parallel_session():
    import repro
    import repro.parallel

    assert not hasattr(repro, "ParallelWhatIfSession")
    assert not hasattr(repro, "create_session")
    assert repro.parallel.__all__ == ["create_session"]


def test_src_starts_no_thread_or_process_pool():
    """Every what-if call and every served request runs on the caller's
    thread; no module of the package imports a pool."""
    import pathlib
    import re

    import repro

    root = pathlib.Path(repro.__file__).parent
    pool = re.compile(r"ThreadPoolExecutor|ProcessPoolExecutor|multiprocessing")
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if pool.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
