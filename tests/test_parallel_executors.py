"""Executor and engine edge cases (ISSUE PR 4 satellite).

Covers worker-count/executor parsing, chunk geometry, degenerate batch
shapes (empty workload, single statement, more workers than statements),
pickling of compiled-pattern state across process boundaries (the
``GLOBAL_TABLE`` re-interning path exercised by a spawn pool), and
pool-failure / interrupt cleanup.
"""

import pickle

import pytest

from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.parallel import ParallelWhatIfSession, create_session
from repro.parallel.executors import (
    PoolBrokenError,
    WorkerPool,
    available_workers,
    chunk_count,
    chunk_spans,
    resolve_executor,
    resolve_workers,
    workers_from_env,
)
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.workloads import tpox
from repro.xpath.patterns import parse_pattern


def small_db():
    return tpox.build_database(
        num_securities=16, num_orders=16, num_customers=8, seed=11
    )


SMALL_WORKLOAD = tpox.tpox_workload(num_securities=16, seed=11)


# ---------------------------------------------------------------------------
# Worker-count and executor parsing
# ---------------------------------------------------------------------------

def test_resolve_workers_accepts_counts_and_keywords():
    assert resolve_workers(None, default=3) == 3
    assert resolve_workers(0) == 0
    assert resolve_workers(4) == 4
    assert resolve_workers("4") == 4
    assert resolve_workers(" 2 ") == 2
    assert resolve_workers("serial") == 0
    assert resolve_workers("off") == 0
    assert resolve_workers("") == 0
    assert resolve_workers("auto") == available_workers()
    assert resolve_workers("auto") >= 1


@pytest.mark.parametrize("bad", [-1, "-2", "many", 1.5, True, False])
def test_resolve_workers_rejects_junk(bad):
    with pytest.raises(ValueError):
        resolve_workers(bad)


def test_workers_from_env():
    assert workers_from_env({}) == 0
    assert workers_from_env({"REPRO_WORKERS": "3"}) == 3
    assert workers_from_env({"REPRO_WORKERS": "serial"}) == 0


def test_resolve_executor_kinds_and_start_methods():
    assert resolve_executor(None, environ={}) == ("process", None)
    assert resolve_executor("thread") == ("thread", None)
    assert resolve_executor("serial") == ("serial", None)
    assert resolve_executor("spawn") == ("process", "spawn")
    assert resolve_executor("fork") == ("process", "fork")
    assert resolve_executor(None, environ={"REPRO_EXECUTOR": "thread"}) == (
        "thread",
        None,
    )
    with pytest.raises(ValueError):
        resolve_executor("quantum")


def test_create_session_dispatches_on_worker_count(monkeypatch):
    db = small_db()
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert type(create_session(db)) is WhatIfSession
    session = create_session(db, workers=2, executor="thread")
    assert isinstance(session, ParallelWhatIfSession)
    session.close()
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_EXECUTOR", "thread")
    session = create_session(db)
    assert isinstance(session, ParallelWhatIfSession)
    assert session.workers == 2
    session.close()


# ---------------------------------------------------------------------------
# Chunk geometry
# ---------------------------------------------------------------------------

def test_chunk_spans_cover_contiguously():
    for count in (0, 1, 5, 17, 100):
        for chunks in (1, 3, 8):
            spans = chunk_spans(count, chunks)
            assert spans[0][0] == 0
            assert spans[-1][1] == count
            for (_, prev_end), (start, end) in zip(spans, spans[1:]):
                assert start == prev_end
                assert end >= start
            sizes = [end - start for start, end in spans]
            if count >= chunks:
                assert max(sizes) - min(sizes) <= 1


def test_chunk_count_bounds():
    assert chunk_count(0, 4) == 1
    assert chunk_count(3, 4) == 3  # never more chunks than tasks
    assert chunk_count(100, 2, chunks_per_worker=4) == 8


# ---------------------------------------------------------------------------
# Degenerate batch shapes
# ---------------------------------------------------------------------------

def test_empty_workload_and_empty_batches():
    db = small_db()
    session = ParallelWhatIfSession(db, workers=2, executor="thread")
    try:
        assert session.evaluate_batch([]) == []
        assert session.cost_batch([]) == []
        assert session.enumerate_batch([]) == []
        advisor = IndexAdvisor(db, Workload([]), session=session)
        recommendation = advisor.recommend(100_000)
        assert len(recommendation.configuration) == 0
    finally:
        session.close()


def test_single_statement_and_workers_exceeding_statements():
    """One statement, four workers: the batch runs (inline, below
    min_batch) and matches the serial session exactly."""
    entry = SMALL_WORKLOAD.entries[0]
    serial_db = small_db()
    serial = WhatIfSession(serial_db)
    expected = serial.cost(entry.statement)

    db = small_db()
    session = ParallelWhatIfSession(db, workers=4, executor="thread")
    try:
        costs = session.cost_batch([(entry.statement, ())])
        assert costs == [expected]
        assert session.counters.optimizer_calls == 1
        # And with min_batch=1 the pool path runs even for one task.
        session2 = ParallelWhatIfSession(
            db, workers=4, executor="thread", min_batch=1
        )
        try:
            assert session2.cost_batch([(entry.statement, ())]) == [expected]
            assert session2.stats()["workers"]["parallel_batches"] == 1
        finally:
            session2.close()
    finally:
        session.close()


def test_duplicate_statements_count_cache_hits_like_serial():
    statement = SMALL_WORKLOAD.entries[0].statement
    db = small_db()
    session = ParallelWhatIfSession(
        db, workers=2, executor="thread", min_batch=1
    )
    try:
        costs = session.cost_batch([(statement, ())] * 5)
        assert len(set(costs)) == 1
        assert session.counters.cache_misses == 1
        assert session.counters.cache_hits == 4
        assert session.counters.optimizer_calls == 1
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Pickling across process boundaries
# ---------------------------------------------------------------------------

def test_pattern_pickles_by_reparsing():
    """Patterns pickle as their canonical text so the receiving process
    re-interns against ITS global path table (ids differ across
    processes; bitmap state must not travel)."""
    pattern = parse_pattern("/Security/SecInfo//Sector")
    clone = pickle.loads(pickle.dumps(pattern))
    assert str(clone) == str(pattern)
    assert clone == pattern
    assert clone.covers(parse_pattern("/Security/SecInfo/Industrial/Sector"))


def test_statement_pickles_and_reoptimizes_identically():
    statement = parse_statement(
        "for $s in X('SDOC')/Security where $s/Yield > 4.0 "
        "return $s/Symbol"
    )
    clone = pickle.loads(pickle.dumps(statement))
    db = small_db()
    session = WhatIfSession(db)
    assert session.cost(clone) == WhatIfSession(small_db()).cost(statement)


def test_statistics_pickle_drops_interning_caches():
    db = small_db()
    stats = db.runstats("SDOC")
    pattern = parse_pattern("/Security//Sector")
    stats.matching_paths(pattern)  # warm the caches
    clone = pickle.loads(pickle.dumps(stats))
    assert clone._path_ids == []
    assert clone._matching_cache == {}
    assert clone._matched_paths == {}
    # Rebuilt caches give identical answers.
    assert sorted(clone.matching_paths(pattern)) == sorted(
        stats.matching_paths(pattern)
    )


@pytest.mark.skipif(
    "spawn" not in __import__("multiprocessing").get_all_start_methods(),
    reason="spawn start method unavailable",
)
def test_spawn_executor_reinterns_compiled_state():
    """A spawn worker re-imports everything from scratch -- fresh
    ``GLOBAL_TABLE``, no inherited interning -- and must still produce
    the serial costs (the hard pickling case; fork can hide bugs here).
    """
    statements = [e.statement for e in SMALL_WORKLOAD.entries[:3]]
    serial = WhatIfSession(small_db())
    expected = [serial.cost(s) for s in statements]

    session = ParallelWhatIfSession(
        small_db(), workers=1, executor="spawn", min_batch=1
    )
    try:
        session.register_statements(statements)
        assert session.cost_batch([(s, ()) for s in statements]) == expected
        assert session.stats()["workers"]["parallel_batches"] == 1
        assert session.stats()["workers"]["pool_failures"] == 0
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Pool failure and interrupt cleanup
# ---------------------------------------------------------------------------

def test_pool_failure_falls_back_to_serial():
    """A dead pool costs a ``pool_failures`` tick, never correctness."""
    statements = [e.statement for e in SMALL_WORKLOAD.entries[:4]]
    serial = WhatIfSession(small_db())
    expected = [serial.cost(s) for s in statements]

    session = ParallelWhatIfSession(
        small_db(), workers=2, executor="thread", min_batch=1
    )
    try:
        def broken_dispatch(jobs):
            raise PoolBrokenError("injected pool death")

        session._dispatch = broken_dispatch
        assert session.cost_batch([(s, ()) for s in statements]) == expected
        stats = session.stats()["workers"]
        assert stats["pool_failures"] == 1
        assert session.counters.optimizer_calls == len(statements)
    finally:
        session.close()


def test_keyboard_interrupt_shuts_the_pool_down():
    statements = [e.statement for e in SMALL_WORKLOAD.entries[:4]]
    session = ParallelWhatIfSession(
        small_db(), workers=2, executor="thread", min_batch=1
    )
    try:
        runtime = session._runtime()

        def interrupted(chunk):
            raise KeyboardInterrupt()

        original = runtime.evaluate_chunk
        runtime.evaluate_chunk = interrupted
        with pytest.raises(KeyboardInterrupt):
            session.cost_batch([(s, ()) for s in statements])
        assert session._pool is None  # no orphaned executor
        # The session recovers: the next batch rebuilds the pool.
        runtime.evaluate_chunk = original
        costs = session.cost_batch([(s, ()) for s in statements])
        assert len(costs) == len(statements)
    finally:
        session.close()


def test_worker_pool_run_serial_kind_wraps_exceptions():
    pool = WorkerPool("serial", 1)
    assert pool.run(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
    with pytest.raises(PoolBrokenError):
        pool.run(lambda x: 1 / 0, [1])


def test_worker_pool_shutdown_is_idempotent():
    pool = WorkerPool("thread", 2)
    assert pool.run(lambda x: x * 2, [1, 2]) == [2, 4]
    pool.shutdown()
    pool.shutdown()
    # A fresh run after shutdown lazily rebuilds the executor.
    assert pool.run(lambda x: x * 3, [1]) == [3]
    pool.shutdown()


def test_close_is_idempotent_and_invalidate_rebuilds_snapshot():
    db = small_db()
    statement = SMALL_WORKLOAD.entries[0].statement
    session = ParallelWhatIfSession(
        db, workers=2, executor="thread", min_batch=1
    )
    try:
        before = session.cost_batch([(statement, ())])
        session.invalidate()
        after = session.cost_batch([(statement, ())], use_cache=False)
        assert before == after
    finally:
        session.close()
        session.close()
