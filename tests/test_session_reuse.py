"""Differential pins for the one what-if execution path.

Every advisor run evaluates on one serial :class:`WhatIfSession`.  These
tests pin that session's reuse contract against fresh sessions:

* two databases built from the same seed advise bit-identically;
* a session that other advisor runs warmed -- any algorithm first --
  advises what a fresh session on the same database advises, and a
  rerun of the same search re-optimizes nothing;
* a session that lived through DML between two runs (delta statistics,
  epoch-scoped invalidation) advises what a fresh session on the
  post-DML database advises;
* batch costing answers what per-call costing answers, counters too;
* :func:`repro.parallel.create_session`, kept for the benchmark probes,
  is that same session whatever ``workers``/``executor`` it is handed.

Index names in ``ddl`` come from each database's catalog counter, so the
warm-versus-fresh comparisons read the advice itself (:data:`ADVICE_KEYS`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.parallel import create_session
from repro.query.workload import Workload
from repro.workloads import synthetic, tpox, xmark
from repro.xmlmodel.serializer import serialize
from tests.fault_projection import assert_same_advice

BUDGET = 250_000

#: Every search the advisor offers except ``exhaustive``, which refuses
#: candidate sets this large.
ALGORITHMS = (
    "dp",
    "greedy",
    "greedy_heuristics",
    "ilp",
    "topdown_full",
    "topdown_lite",
)

#: What a recommendation advises, as opposed to what it cost to find.
ADVICE_KEYS = (
    "algorithm",
    "budget_bytes",
    "indexes",
    "size_bytes",
    "benefit",
    "workload_cost_before",
    "workload_cost_after",
    "estimated_speedup",
    "truncated",
    "degraded",
)


def build_tpox():
    db = tpox.build_database(
        num_securities=40, num_orders=40, num_customers=20, seed=7
    )
    return db, tpox.tpox_workload(num_securities=40, seed=7)


def build_synthetic():
    db = tpox.build_database(
        num_securities=40, num_orders=40, num_customers=20, seed=7
    )
    workload = Workload([])
    for query in synthetic.random_path_queries(db, "SDOC", 8, seed=5):
        workload.add(query)
    return db, workload


def build_xmark():
    db = xmark.build_database(
        num_items=30, num_persons=30, num_auctions=30, seed=7
    )
    return db, xmark.xmark_workload(seed=7)


BENCHMARKS = {
    "tpox": build_tpox,
    "synthetic": build_synthetic,
    "xmark": build_xmark,
}

#: The collection each benchmark's DML lands in.
DML_COLLECTION = {"tpox": "SDOC", "synthetic": "SDOC", "xmark": "IDOC"}


def normalized(recommendation) -> dict:
    """``to_dict()`` minus wall-clock timing."""
    data = recommendation.to_dict()
    data.pop("elapsed_seconds", None)
    session = dict(data.get("session", {}))
    session.pop("phase_seconds", None)
    data["session"] = session
    return data


def advice(recommendation) -> dict:
    data = recommendation.to_dict()
    return {key: data[key] for key in ADVICE_KEYS}


def apply_dml(database, collection, kind="both"):
    """Grow ``collection`` by one document net: two copies of its last
    document in, its first document out (``kind`` picks one half)."""
    last = serialize(database.collection(collection).documents[-1].root)
    if kind in ("insert", "both"):
        database.insert_document(collection, last)
        database.insert_document(collection, last)
    if kind in ("delete", "both"):
        database.delete_document(collection, 0)


# ---------------------------------------------------------------------------
# Same seed, same advice
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
def test_fresh_builds_advise_bit_identically(bench_name):
    build = BENCHMARKS[bench_name]
    runs = []
    for _ in range(2):
        database, workload = build()
        runs.append(
            normalized(IndexAdvisor(database, workload).recommend(BUDGET))
        )
    assert_same_advice(runs[0], runs[1], bench_name)


# ---------------------------------------------------------------------------
# A warm session advises like a fresh one
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
def test_warm_session_advises_like_a_fresh_session(bench_name, algorithm):
    """A search run on a session another search already filled reads
    cached costs and must reach the fresh session's answer."""
    build = BENCHMARKS[bench_name]
    warmup = "greedy" if algorithm == "topdown_full" else "topdown_full"
    database, workload = build()
    session = WhatIfSession(database)
    IndexAdvisor(database, workload, session=session).recommend(
        BUDGET, algorithm=warmup
    )
    warm = IndexAdvisor(database, workload, session=session).recommend(
        BUDGET, algorithm=algorithm
    )
    database, workload = build()
    fresh = IndexAdvisor(database, workload).recommend(
        BUDGET, algorithm=algorithm
    )
    assert_same_advice(advice(warm), advice(fresh), f"{bench_name}/{algorithm}")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rerun_on_a_warm_session_reoptimizes_nothing(algorithm, fault_free):
    database, workload = build_tpox()
    session = WhatIfSession(database)
    first = IndexAdvisor(database, workload, session=session).recommend(
        BUDGET, algorithm=algorithm
    )
    second = IndexAdvisor(database, workload, session=session).recommend(
        BUDGET, algorithm=algorithm
    )
    first, second = first.to_dict(), second.to_dict()
    assert first["optimizer_calls"] > 0
    assert second["optimizer_calls"] == 0
    assert second["cache_hits"] > 0
    assert {key: second[key] for key in ADVICE_KEYS} == {
        key: first[key] for key in ADVICE_KEYS
    }


# ---------------------------------------------------------------------------
# A session that lived through DML advises like a fresh one
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
def test_session_across_dml_advises_like_a_fresh_session(
    bench_name, algorithm
):
    build = BENCHMARKS[bench_name]
    collection = DML_COLLECTION[bench_name]
    database, workload = build()
    session = WhatIfSession(database)
    before = IndexAdvisor(database, workload, session=session).recommend(
        BUDGET, algorithm=algorithm
    )
    apply_dml(database, collection)
    after = IndexAdvisor(database, workload, session=session).recommend(
        BUDGET, algorithm=algorithm
    )
    database, workload = build()
    apply_dml(database, collection)
    fresh = IndexAdvisor(database, workload).recommend(
        BUDGET, algorithm=algorithm
    )
    assert session.counters.invalidations > 0
    if not (before.degraded or after.degraded):
        # The DML must actually matter to the estimates.
        assert after.workload_cost_before != before.workload_cost_before
    assert_same_advice(advice(after), advice(fresh), f"{bench_name}/{algorithm}")


@pytest.mark.parametrize("kind", ["insert", "delete", "both"])
def test_each_dml_kind_between_runs_matches_a_fresh_session(kind):
    database, workload = build_tpox()
    session = WhatIfSession(database)
    IndexAdvisor(database, workload, session=session).recommend(BUDGET)
    apply_dml(database, "SDOC", kind)
    reused = IndexAdvisor(database, workload, session=session).recommend(BUDGET)
    database, workload = build_tpox()
    apply_dml(database, "SDOC", kind)
    fresh = IndexAdvisor(database, workload).recommend(BUDGET)
    assert_same_advice(advice(reused), advice(fresh), kind)


# ---------------------------------------------------------------------------
# Property: random workloads and budgets, reused session == fresh session
# ---------------------------------------------------------------------------
_PROPERTY_DB = tpox.build_database(
    num_securities=16, num_orders=16, num_customers=8, seed=11
)
_PROPERTY_WL = tpox.tpox_workload(num_securities=16, seed=11)

_PICKS = st.lists(
    st.integers(min_value=0, max_value=len(_PROPERTY_WL.entries) - 1),
    min_size=1,
    max_size=6,
)


@settings(max_examples=12, deadline=None)
@given(
    picks=_PICKS,
    budget=st.integers(min_value=10_000, max_value=500_000),
    algorithm=st.sampled_from(["greedy", "topdown_full", "ilp"]),
)
def test_random_workloads_reused_session_equals_fresh(
    picks, budget, algorithm
):
    """For ANY workload subset (duplicates allowed -- they exercise the
    cache-hit accounting) and ANY disk budget, a session the whole
    workload warmed advises what a fresh session advises."""
    entries = [_PROPERTY_WL.entries[i] for i in picks]

    def build():
        return tpox.build_database(
            num_securities=16, num_orders=16, num_customers=8, seed=11
        )

    database = build()
    session = WhatIfSession(database)
    IndexAdvisor(database, _PROPERTY_WL, session=session).recommend(budget)
    reused = IndexAdvisor(
        database, Workload(list(entries)), session=session
    ).recommend(budget, algorithm=algorithm)
    fresh = IndexAdvisor(build(), Workload(list(entries))).recommend(
        budget, algorithm=algorithm
    )
    assert_same_advice(advice(reused), advice(fresh))


@settings(max_examples=10, deadline=None)
@given(picks=_PICKS)
def test_batch_costs_equal_per_call_costs(picks):
    """``cost_batch`` returns exactly the per-call costs and leaves the
    counters where per-call costing leaves them."""
    statements = [_PROPERTY_WL.entries[i].statement for i in picks]

    per_call = WhatIfSession(_PROPERTY_DB)
    per_call_costs = [per_call.cost(s) for s in statements]

    batch = WhatIfSession(_PROPERTY_DB)
    batch_costs = batch.cost_batch([(s, ()) for s in statements])

    assert batch_costs == per_call_costs
    assert batch.counters.optimizer_calls == per_call.counters.optimizer_calls
    assert batch.counters.cache_hits == per_call.counters.cache_hits
    assert batch.counters.cache_misses == per_call.counters.cache_misses


@settings(max_examples=10, deadline=None)
@given(picks=_PICKS, width=st.integers(min_value=1, max_value=4))
def test_cached_batch_under_configurations_equals_uncached_calls(
    picks, width
):
    """A batch answered from the cache (second pass) under index
    configurations returns what one uncached ``evaluate`` call per
    (statement, configuration) on a fresh session returns."""
    session = WhatIfSession(_PROPERTY_DB)
    candidates = IndexAdvisor(
        _PROPERTY_DB, _PROPERTY_WL, session=session
    ).candidates.basics()
    configurations = [
        session.definitions_for(candidates[start : start + width])
        for start in range(0, len(candidates), width)
    ]
    tasks = [
        (_PROPERTY_WL.entries[i].statement, definitions)
        for i in picks
        for definitions in configurations
    ]
    session.evaluate_batch(tasks)
    calls = session.counters.optimizer_calls
    batch = session.evaluate_batch(tasks)
    assert session.counters.optimizer_calls == calls
    per_call_session = WhatIfSession(_PROPERTY_DB)
    per_call = [
        per_call_session.evaluate(statement, definitions, use_cache=False)
        for statement, definitions in tasks
    ]
    assert [r.estimated_cost for r in batch] == [
        r.estimated_cost for r in per_call
    ]
    assert [r.used_indexes for r in batch] == [r.used_indexes for r in per_call]


# ---------------------------------------------------------------------------
# create_session: the benchmark probes' entry point
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "workers,executor",
    [(None, None), (1, "serial"), (2, "thread"), (2, "process"), (4, "process")],
)
def test_create_session_advises_like_a_plain_session(workers, executor):
    database, workload = build_tpox()
    session = create_session(database, workers=workers, executor=executor)
    assert type(session) is WhatIfSession
    shim = normalized(
        IndexAdvisor(database, workload, session=session).recommend(BUDGET)
    )
    database, workload = build_tpox()
    plain = normalized(
        IndexAdvisor(
            database, workload, session=WhatIfSession(database)
        ).recommend(BUDGET)
    )
    assert_same_advice(shim, plain, f"workers={workers} executor={executor}")
