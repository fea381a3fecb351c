"""The what-if access table: one compiled set of planner inputs per
statistics stamp, shared by every session, lane and snapshot clone.

The table planner in :mod:`repro.optimizer.optimizer` must answer exactly
what the per-call planner it replaced (``tests/planner_oracle.py``)
answers: ``==`` on ``estimated_cost``, ``used_indexes`` and the
``explain()`` text, for random configurations mixing real and virtual,
generalized and numeric indexes, across interleaved DML, lazy summary
repairs and snapshot clones.  The second half pins the table's lifetime
and isolation: it keeps no database alive, never enters a pickle, stores
nothing computed while its statistics moved, and is safe to share
between threads.
"""

from __future__ import annotations

import functools
import gc
import pickle
import random
import sys
import threading
import weakref
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advisor import IndexAdvisor
from repro.optimizer.optimizer import Optimizer, OptimizerMode, access_table
from repro.optimizer.rewriter import request_signature
from repro.optimizer.session import WhatIfSession
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.robustness.faults import FaultInjector, FaultRule, injected
from repro.robustness.policy import RetryPolicy
from repro.storage import statistics
from repro.storage.catalog import IndexDefinition
from repro.storage.index import IndexValueType
from repro.storage.snapshots import SnapshotStore, canonical_dumps
from repro.workloads import synthetic, tpox, xmark
from repro.xmlmodel.parser import parse_fragment
from repro.xpath.patterns import parse_pattern
from tests.planner_oracle import OracleOptimizer

IXOR_TEXTS = [
    """for $s in X('SDOC')/Security[Symbol="AA0003" or Symbol="AA0007"]
       return $s""",
    """COLLECTION('SDOC')/Security[Yield>9.4 or SecInfo/*/Sector="Energy"]""",
    """COLLECTION('SDOC')/Security[Symbol="AA0001" or Yield>9 and PE<10]""",
    """for $s in X('SDOC')/Security where $s/Yield >= 3 and $s/Yield <= 6
       return $s/Name""",
]


def _tpox_database():
    return tpox.build_database(
        num_securities=40, num_orders=40, num_customers=20, seed=42
    )


def _xmark_database():
    return xmark.build_database(
        num_items=40, num_persons=40, num_auctions=40, seed=7
    )


def _document(name: str, number: int) -> tuple:
    """(collection, text) of one insertable document."""
    rng = random.Random(number)
    if name == "tpox":
        return "SDOC", tpox.security_document(1000 + number, rng)
    return xmark.ITEM_COLLECTION, xmark.item_document(1000 + number, rng)


@functools.lru_cache(maxsize=None)
def _fixture(name: str):
    """(pickled database, statements, candidates) of one data set."""
    if name == "tpox":
        database = _tpox_database()
        texts = (
            tpox.tpox_queries(40, seed=42)
            + tpox.tpox_extended_queries(40, seed=42)
            + tpox.tpox_join_queries(40, seed=42)
            + tpox.tpox_updates(6, 40, seed=42)
            + IXOR_TEXTS
        )
        statements = [parse_statement(text) for text in texts]
        for collection, seed in (("SDOC", 3), ("ODOC", 5)):
            statements += synthetic.random_path_queries(
                database, collection, 6, seed=seed
            )
    else:
        database = _xmark_database()
        statements = [parse_statement(t) for t in xmark.xmark_queries(seed=7)]
        statements += synthetic.random_path_queries(
            database, xmark.ITEM_COLLECTION, 6, seed=2
        )
    advisor = IndexAdvisor(database, Workload.from_statements(statements))
    candidates = list(advisor.candidates)
    advisor.session.close()
    return pickle.dumps(database), tuple(statements), tuple(candidates)


def _assert_same(table_result, oracle_result, context) -> None:
    assert table_result.estimated_cost == oracle_result.estimated_cost, context
    assert table_result.used_indexes == oracle_result.used_indexes, context
    assert table_result.explain() == oracle_result.explain(), context


def _compare_all(session, statements, virtual, oracle_first) -> None:
    """Table planner (twice: compile, then hit) and the session's handle
    path against the oracle, in EVALUATE and NORMAL mode."""
    database = session.database
    planner, oracle = Optimizer(database), OracleOptimizer(database)
    for statement in statements:
        for mode, definitions in (
            (OptimizerMode.EVALUATE, virtual),
            (OptimizerMode.NORMAL, ()),
        ):
            if oracle_first:
                expected = oracle.optimize(statement, mode, definitions)
            got = planner.optimize(statement, mode, definitions)
            again = planner.optimize(statement, mode, definitions)
            if not oracle_first:
                expected = oracle.optimize(statement, mode, definitions)
            context = (statement.describe(), mode, [str(d) for d in definitions])
            _assert_same(got, expected, context)
            _assert_same(again, expected, context)
        _assert_same(
            session.evaluate(statement, virtual),
            oracle.optimize(statement, OptimizerMode.EVALUATE, virtual),
            statement.describe(),
        )


# ---------------------------------------------------------------------------
# Differential: table planner == the per-call oracle
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_table_planner_matches_the_per_call_oracle(data):
    name = data.draw(st.sampled_from(["tpox", "xmark"]), label="data set")
    blob, statements, candidates = _fixture(name)
    indexes = st.sampled_from(range(len(candidates)))
    real = data.draw(st.lists(indexes, unique=True, max_size=4), label="real")
    virtual = data.draw(
        st.lists(indexes, unique=True, max_size=6), label="virtual"
    )
    ops = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 99)),
            max_size=4,
        ),
        label="dml",
    )
    # A cap of 4 leaves summaries dirty after deletes, so planning fires
    # lazy repairs: the stamp moves under the planner, the epoch does not.
    cap = data.draw(st.sampled_from([statistics.MAX_STRING_FREQ, 4]), label="cap")
    oracle_first = data.draw(st.booleans(), label="oracle first")
    with mock.patch.object(statistics, "MAX_STRING_FREQ", cap):
        database = pickle.loads(blob)
        for collection in list(database._statistics):
            database.invalidate_statistics(collection)  # rebuilt at ``cap``
        for position in real:
            database.create_index(candidates[position].definition(f"real{position}", virtual=False))
        definitions = tuple(
            candidates[position].definition(f"v{position}") for position in virtual
        )
        # One session across the DML: its handles must notice the move.
        session = WhatIfSession(database)
        _compare_all(session, statements, definitions, oracle_first)
        for kind, number in ops:
            collection, text = _document(name, number)
            if kind == "insert":
                database.insert_document(collection, text)
            else:
                live = [document.doc_id for document in database.collection(collection)]
                database.delete_document(collection, live[number % len(live)])
        _compare_all(session, statements, definitions, oracle_first)


def test_snapshot_clone_never_serves_a_later_live_stamp():
    """A store snapshot's statistics share the live table at the clone's
    stamp.  After DML the live side installs a table of its own; the
    snapshot keeps planning against its own stamp and agrees with the
    oracle on the snapshot, not on the live database."""
    blob, statements, candidates = _fixture("tpox")
    database = pickle.loads(blob)
    definitions = tuple(c.definition(f"v{i}") for i, c in enumerate(candidates[:6]))
    store = SnapshotStore()
    queries = [s for s in statements if s.describe().startswith("for")][:8]
    live_planner = Optimizer(database)
    for statement in queries:
        live_planner.optimize(statement, OptimizerMode.EVALUATE, definitions)
    shared = database.runstats("SDOC").access_table
    snapshot = store.snapshot(database)
    assert snapshot._statistics["SDOC"].access_table is shared
    for number in range(5):
        database.insert_document(*_document("tpox", number))
    for statement in queries:  # live plans first: fills the live table
        live_planner.optimize(statement, OptimizerMode.EVALUATE, definitions)
    assert database.runstats("SDOC").access_table is not shared
    snapshot_planner = Optimizer(snapshot)
    snapshot_oracle = OracleOptimizer(snapshot)
    live_oracle = OracleOptimizer(database)
    moved = 0
    for statement in queries:
        got = snapshot_planner.optimize(statement, OptimizerMode.EVALUATE, definitions)
        expected = snapshot_oracle.optimize(statement, OptimizerMode.EVALUATE, definitions)
        _assert_same(got, expected, statement.describe())
        live = live_oracle.optimize(statement, OptimizerMode.EVALUATE, definitions)
        moved += live.estimated_cost != got.estimated_cost
    assert moved  # the DML changed what the live side answers
    assert snapshot._statistics["SDOC"].access_table is shared


# ---------------------------------------------------------------------------
# Lifetime and isolation
# ---------------------------------------------------------------------------
def test_database_and_statistics_collectable_after_sessions_close():
    database = _tpox_database()
    workload = tpox.tpox_workload(num_securities=40, seed=42)
    advisor = IndexAdvisor(database, workload)
    advisor.recommend(60_000, algorithm="greedy_heuristics")
    advisor.session.close()
    stats = database.runstats("SDOC")
    assert stats.access_table is not None and stats.access_table.entries
    refs = [weakref.ref(database), weakref.ref(stats), weakref.ref(stats.access_table)]
    del advisor, database, stats
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_table_never_enters_a_pickle():
    blob, statements, candidates = _fixture("tpox")
    database = pickle.loads(blob)
    definitions = tuple(c.definition(f"v{i}") for i, c in enumerate(candidates))
    session = WhatIfSession(database)
    for statement in statements:
        session.evaluate(statement, definitions)
    stats = database.runstats("SDOC")
    assert stats.access_table.entries
    dumped = pickle.dumps(stats)
    assert b"AccessTable" not in dumped and b"access_table" not in dumped
    assert pickle.loads(dumped).access_table is None
    table, stats.access_table = stats.access_table, None
    assert pickle.dumps(stats) == dumped
    stats.access_table = table
    store = SnapshotStore()
    assert canonical_dumps(store.snapshot(database)) == canonical_dumps(
        pickle.loads(pickle.dumps(database))
    )


def test_entry_computed_while_the_stamp_moved_is_not_stored():
    """Planning a statement whose request reads a dirty summary repairs
    it mid-compile: the stamp moves, so the entry (and every access cost
    computed on the way) stays out of the table that was current when
    planning began.  The next call stores into a fresh table."""
    with mock.patch.object(statistics, "MAX_STRING_FREQ", 4):
        database = _tpox_database()
        stats = database.runstats("SDOC")
        database.delete_document("SDOC", 0)
        assert ("Security", "Symbol") in stats._dirty_paths
        statement = parse_statement(
            "for $s in X('SDOC')/Security where $s/Symbol = \"AA0001\" "
            "return $s"
        )
        definitions = (
            IndexDefinition(
                "v", "SDOC", parse_pattern("/Security/Symbol"),
                IndexValueType.STRING, True,
            ),
        )
        mode = OptimizerMode.EVALUATE
        planner, oracle = Optimizer(database), OracleOptimizer(database)
        before = access_table(stats)
        got = planner.optimize(statement, mode, definitions)
        assert stats.mutation_stamp != before.stamp  # a lazy repair ran
        key = (request_signature(statement), planner.constants)
        assert key not in before.entries
        assert all(not slot.costs for slot in before.slots.values())
        again = planner.optimize(statement, mode, definitions)
        assert stats.access_table is not before
        assert stats.access_table.entries[key].requests[0].costs
        expected = oracle.optimize(statement, mode, definitions)
        for result in (got, again):
            _assert_same(result, expected, statement.describe())


def test_fault_mid_fill_leaves_no_partial_or_degraded_entry():
    blob, statements, candidates = _fixture("tpox")
    database = pickle.loads(blob)
    session = WhatIfSession(
        database, retry_policy=RetryPolicy(sleep=lambda seconds: None)
    )
    definitions = session.definitions_for(candidates)
    queries = [s for s in statements if s.describe().startswith("for")]
    # The first derivation succeeds, every later one fails: fills stop
    # half way and the session degrades to its fallback estimator.
    rule = FaultRule(site="statistics.derive", at=frozenset(range(1, 10_000)))
    with injected(FaultInjector([rule])):
        faulted = [session.evaluate(s, definitions) for s in queries]
    assert any(result.degraded for result in faulted)
    oracle = OracleOptimizer(database)
    stored = 0
    for name, stats in database._statistics.items():
        model = oracle._cost_model(name)
        for (request, _), slot in stats.access_table.slots.items():
            for pattern, costs in slot.costs.items():
                definition = next(
                    d for d in definitions
                    if d.pattern == pattern and d.value_type is slot.value_type
                )
                estimate = model.index_access(definition, request)
                assert costs is False or costs == (
                    estimate.candidate_docs, estimate.scan_cost
                )
                stored += 1
    assert stored
    fresh = WhatIfSession(database)
    for statement in queries:
        result = fresh.evaluate(statement, definitions)
        assert not result.degraded
        _assert_same(
            result,
            oracle.optimize(statement, OptimizerMode.EVALUATE, definitions),
            statement.describe(),
        )


def test_threads_planning_through_one_shared_part_match_serial():
    blob, statements, candidates = _fixture("tpox")
    database = pickle.loads(blob)
    for name in database.collections:
        database.runstats(name)  # the parts carry the statistics
    store = SnapshotStore()
    configurations = [
        tuple(c.definition(f"v{i}") for i, c in enumerate(candidates[k::3]))
        for k in range(3)
    ]
    serial_database = pickle.loads(blob)
    serial = [
        [
            OracleOptimizer(serial_database).optimize(
                s, OptimizerMode.EVALUATE, definitions
            ).estimated_cost
            for s in statements
        ]
        for definitions in configurations
    ]
    snapshots = [store.snapshot(database) for _ in range(3)]
    assert snapshots[0]._statistics["SDOC"] is snapshots[2]._statistics["SDOC"]
    results = [None] * 3
    barrier = threading.Barrier(3, timeout=60)

    def plan(lane: int) -> None:
        barrier.wait()
        costs = []
        for _ in range(3):
            session = WhatIfSession(snapshots[lane])
            costs = [
                session.cost(s, configurations[(lane + round_) % 3])
                for round_ in range(3)
                for s in statements
            ]
        results[lane] = costs

    threads = [threading.Thread(target=plan, args=(lane,)) for lane in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-fill as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for lane in range(3):
        expected = [
            cost
            for round_ in range(3)
            for cost in serial[(lane + round_) % 3]
        ]
        assert results[lane] == expected


def test_insert_document_parsed_once_per_statement():
    database = _tpox_database()
    (text,) = [t for t in tpox.tpox_updates(2, 40, seed=42) if t.startswith("insert")]
    statement = parse_statement(text)
    planner = Optimizer(database)
    with mock.patch(
        "repro.optimizer.optimizer.parse_fragment", wraps=parse_fragment
    ) as parse:
        costs = {
            planner.optimize(statement, mode).estimated_cost
            for mode in (OptimizerMode.NORMAL, OptimizerMode.EVALUATE) * 3
        }
    assert parse.call_count == 1
    assert len(costs) == 1
    assert "_document_nodes" not in pickle.loads(pickle.dumps(statement)).__dict__
