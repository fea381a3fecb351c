"""The snapshot shim's contract: a :class:`SnapshotStore` snapshot is a
private, writable copy of the database as of the call.

* **as of the call** -- the snapshot equals the database it was taken of
  under :func:`canonical_dumps`, after any interleaving of DML, DDL,
  runstats and statistics invalidation (hypothesis drives the op stream);
* **private** -- later writes to the database do not reach the snapshot,
  and writes to the snapshot do not reach the database; neither does the
  in-place summary repair a what-if probe makes on either side;
* **readers leave no trace** -- threads reading one database's
  statistics at once agree with a private copy and leave it unchanged;
* **kept only for probes** -- the server's store hands out such copies,
  and no served request takes one.
"""

import asyncio
import contextlib
import io
import pickle
import sys
import threading
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.session import WhatIfSession
from repro.serve import AdvisorServer
from repro.storage import IndexDefinition, IndexValueType, statistics
from repro.storage.snapshots import PROTOCOL, SnapshotStore
from repro.workloads import tpox
from repro.xpath import parse_pattern

TIMEOUT = 180
BUDGET = 50_000

SECURITY = (
    "<Security><Symbol>ZZ9999</Symbol><Yield>9.9</Yield></Security>"
)
ORDER = "<FIXML><Order><OrdQty>17</OrdQty></Order></FIXML>"


def build_database():
    return tpox.build_database(
        num_securities=12, num_orders=12, num_customers=6, seed=7
    )


WORKLOAD = tpox.tpox_workload(num_securities=12, seed=7).subset(6)
QUERY_TEXTS = [e.statement.describe() for e in WORKLOAD.entries]


def canonical_dumps(obj: object) -> bytes:
    """A whole-graph pickle insensitive to the serialization accidents a
    plain ``pickle.dumps`` encodes, so a database and its copy compare
    equal iff their object graphs are identical up to them:

    * **string identity** -- a dump memoizes strings by identity, so its
      bytes record which *equal* strings happen to be one object, an
      accident of build history; equal strings are memoized by value;
    * **tag-path identity** -- the same for tuples of strings (index
      entries and statistics keys take their rooted tag paths from the
      document synopses);
    * **set iteration order** -- a reconstructed set's order depends on
      its insertion history; sets are serialized as sorted markers."""
    values: Dict[object, object] = {}
    buffer = io.BytesIO()
    pickler = pickle._Pickler(buffer, PROTOCOL)
    original_save = pickler.save

    def save(item, save_persistent_id=True):
        kind = type(item)
        if kind is str or (
            kind is tuple and all(type(part) is str for part in item)
        ):
            item = values.setdefault(item, item)
        elif kind in (set, frozenset):
            item = ("__canonical_set__", sorted(item, key=repr))
        return original_save(item, save_persistent_id)

    pickler.save = save
    pickler.dump(obj)
    return buffer.getvalue()


def _yield_index(name="snap_idx"):
    return IndexDefinition(
        name, "SDOC", parse_pattern("/Security/Yield"), IndexValueType.NUMERIC
    )


#: Every mutator a database has, applied to ``db``.
MUTATORS = {
    "insert": lambda db: db.insert_document("SDOC", SECURITY),
    "delete": lambda db: db.delete_document("SDOC", 0),
    "runstats": lambda db: db.runstats("ODOC"),
    "create_index": lambda db: db.create_index(_yield_index("other_idx")),
    "drop_index": lambda db: db.drop_index("snap_idx"),
    "invalidate_statistics": lambda db: db.invalidate_statistics("SDOC"),
}


class TestAsOfTheCall:
    def test_snapshot_equals_the_database(self):
        database = build_database()
        assert canonical_dumps(SnapshotStore().snapshot(database)) == (
            canonical_dumps(database)
        )

    def test_snapshot_after_each_mutation_kind(self):
        database = build_database()
        store = SnapshotStore()
        mutations = [
            lambda: database.runstats("SDOC"),
            lambda: database.insert_document("SDOC", SECURITY),
            lambda: database.delete_document("SDOC", 0),
            lambda: database.create_index(_yield_index()),
            lambda: database.drop_index("snap_idx"),
            lambda: database.invalidate_statistics("SDOC"),
        ]
        for mutate in mutations:
            mutate()
            assert canonical_dumps(store.snapshot(database)) == (
                canonical_dumps(database)
            )
        assert store.stats() == {"compositions": len(mutations)}

    def test_snapshot_of_a_snapshot_equals_the_database(self):
        database = build_database()
        database.runstats("SDOC")
        store = SnapshotStore()
        second = store.snapshot(store.snapshot(database))
        assert canonical_dumps(second) == canonical_dumps(database)


def _apply_op(database, op, payload):
    collections = sorted(database.collections)
    name = collections[payload % len(collections)]
    if op == 0:
        text = SECURITY if name == "SDOC" else ORDER
        database.insert_document(name, text)
    elif op == 1:
        live = [
            doc_id
            for doc_id, document in enumerate(
                database.collections[name].documents
            )
            if document is not None
        ]
        if live:
            database.delete_document(name, live[payload % len(live)])
    elif op == 2:
        database.runstats(name)
    elif op == 3:
        database.invalidate_statistics(name)
    elif op == 4:
        index_name = f"hyp_idx_{payload}"
        if index_name not in database.indexes:
            database.create_index(
                IndexDefinition(
                    index_name,
                    "SDOC",
                    parse_pattern("/Security/Symbol"),
                    IndexValueType.STRING,
                )
            )
    elif op == 5:
        for index_name in list(database.indexes):
            database.drop_index(index_name)
            break


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_any_interleaving_keeps_every_snapshot_at_its_point(ops):
    """For ANY op stream (DML, DDL, runstats, invalidation), a snapshot
    taken after each op equals the database then, and keeps that form
    while the later ops run."""
    database = build_database()
    store = SnapshotStore()
    taken = []
    for op, payload in ops:
        _apply_op(database, op, payload)
        snapshot = store.snapshot(database)
        taken.append((snapshot, canonical_dumps(database)))
        for earlier, form in taken:
            assert canonical_dumps(earlier) == form


class TestPrivateCopies:
    @staticmethod
    def _database():
        database = build_database()
        for name in database.collections:
            database.runstats(name)
        database.create_index(_yield_index())
        return database

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_a_write_on_either_side_spares_the_other(self, mutator):
        database = self._database()
        store = SnapshotStore()
        snapshot, sibling = store.snapshot(database), store.snapshot(database)
        form = canonical_dumps(database)
        MUTATORS[mutator](snapshot)
        assert canonical_dumps(database) == form
        assert canonical_dumps(sibling) == form
        MUTATORS[mutator](database)
        assert canonical_dumps(sibling) == form
        assert canonical_dumps(snapshot) == canonical_dumps(database)


def _probe(database):
    """A what-if probe: it repairs dirty summaries in place (a delete
    leaves them), moving the statistics without an epoch bump."""
    WhatIfSession(database).evaluate(WORKLOAD.entries[0].statement)


@contextlib.contextmanager
def _dirty_database():
    """A database whose SDOC summaries a delete left dirty: string value
    summaries are capped low enough that the small data reaches the cap,
    so the first probe has a repair to make."""
    cap = statistics.MAX_STRING_FREQ
    statistics.MAX_STRING_FREQ = 4
    try:
        database = build_database()
        database.runstats("SDOC")
        database.delete_document("SDOC", 0)
        assert database.runstats("SDOC")._dirty_paths
        yield database
    finally:
        statistics.MAX_STRING_FREQ = cap


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_whatif_probes_between_ops_stay_bit_identical(ops):
    """Probe the database between every op: a snapshot taken after the
    probe equals the repaired database, and the repair reaches no
    snapshot taken before it."""
    store = SnapshotStore()
    taken = []
    with _dirty_database() as database:
        for op, payload in ops:
            _apply_op(database, op, payload)
            taken.append(
                (store.snapshot(database), canonical_dumps(database))
            )
            _probe(database)
            assert canonical_dumps(store.snapshot(database)) == (
                canonical_dumps(database)
            )
            for earlier, form in taken:
                assert canonical_dumps(earlier) == form


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_whatif_probes_through_snapshots_stay_bit_identical(ops):
    """The same probe *through a snapshot*: the probed snapshot equals a
    private round-trip copy given the same probe, and the repair it
    makes reaches neither the database nor the next snapshot of it."""
    store = SnapshotStore()
    with _dirty_database() as database:
        for op, payload in ops:
            _apply_op(database, op, payload)
            form = canonical_dumps(database)
            snapshot = store.snapshot(database)
            private = pickle.loads(pickle.dumps(database, PROTOCOL))
            _probe(snapshot)
            _probe(private)
            assert canonical_dumps(snapshot) == canonical_dumps(private)
            assert canonical_dumps(database) == form
            assert canonical_dumps(store.snapshot(database)) == form


def test_thread_lanes_reading_one_database_leave_it_unchanged():
    """Three lanes (switching every few bytecodes) hammer ``runstats`` /
    ``matching_paths`` on one database's statistics.  The per-pattern
    memo they race on is the only thing written; every answer must equal
    a private copy's and the database's canonical form must not move."""
    database = build_database()
    for name in database.collections:
        database.runstats(name)
    form = canonical_dumps(database)
    reference = SnapshotStore().snapshot(database).runstats("SDOC")
    patterns = [
        parse_pattern(text)
        for path in reference.path_counts
        for text in ("/" + "/".join(path), "//" + path[-1], "/" + path[0] + "//*")
    ]
    expected = [reference.matching_paths(pattern) for pattern in patterns]
    failures = []

    def hammer():
        try:
            for _ in range(300):
                stats = database.runstats("SDOC")
                stats._matching_cache.clear()  # keep the memo race live
                for pattern, want in zip(patterns, expected):
                    if stats.matching_paths(pattern) != want:
                        failures.append(str(pattern))
        except Exception as exc:  # surfaced below, on the main thread
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert canonical_dumps(database) == form


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class TestServeConsumer:
    def test_server_snapshot_is_a_private_copy_of_its_database(self):
        """The server's store (kept for the benchmark probes) hands out
        the database as of the call, and a write to the copy does not
        reach the served database."""

        async def scenario():
            async with AdvisorServer(build_database()) as server:
                form = canonical_dumps(server.database)
                snapshot = server.snapshots.snapshot(server.database)
                copied = canonical_dumps(snapshot)
                MUTATORS["insert"](snapshot)
                return server, form, copied

        server, form, copied = _run(scenario())
        assert copied == form
        assert canonical_dumps(server.database) == form
        assert server.snapshots.stats() == {"compositions": 1}

    def test_served_advice_takes_no_snapshot(self, fault_free):
        """Advise misses, their repeats and a recompute after a write all
        run on the live database: the store composes nothing, and the
        repeat at unchanged epochs is the held answer itself."""

        async def scenario():
            async with AdvisorServer(build_database()) as server:
                first = await server.recommend(QUERY_TEXTS, BUDGET)
                whatif = await server.whatif(
                    QUERY_TEXTS, ["/Security/Yield:numeric"], "SDOC"
                )
                repeat = await server.recommend(QUERY_TEXTS, BUDGET)
                write = await server.dml(
                    f"insert into SDOC value '{SECURITY}'"
                )
                after = await server.recommend(QUERY_TEXTS, BUDGET)
                return server, (first, whatif, repeat, write, after)

        server, responses = _run(scenario())
        first, _, repeat, _, after = responses
        assert all(response.ok for response in responses)
        assert repeat.value is first.value
        assert after.epoch != first.epoch
        assert server.counters["advice_hits"] == 1
        assert server.snapshots.stats() == {"compositions": 0}
