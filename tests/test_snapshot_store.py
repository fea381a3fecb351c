"""The snapshot engine's differential contract (ISSUE PR 10).

Three layers of pinning:

1. **Store bit-identity** -- a :class:`SnapshotStore` snapshot must be
   bit-identical to a fresh ``pickle.loads(pickle.dumps(database))``
   round-trip in both serialized forms (:func:`partitioned_dumps` raw
   equality and whole-graph :func:`canonical_dumps`), under ANY
   interleaving of DML, DDL, runstats, statistics invalidation and lazy
   summary repair (hypothesis drives the op stream).
2. **Generation accounting** -- repeat snapshots at unchanged epochs
   clone nothing; DML on one collection refreshes only that
   collection's generation (the perf claims, pinned as counter
   equalities, not timings).
3. **Shared generations** (ISSUE PR 12, copy-on-write since PR 22) --
   snapshots at unchanged keys share one cloned part per collection;
   parts share the live ``XmlDocument`` objects but own every container;
   the store holds one generation per collection however many writes
   ran; snapshots taken around DML stay isolated; a store-composed
   snapshot is read-only (typed error) while a pickled copy of it is
   writable; concurrent lanes reading one shared part leave it
   unchanged.
4. **Consumers** -- the serve layer's request snapshots are
   bit-identical to their store-less baselines, and the EpochGate's
   read-retry backoff (satellite 1) makes validated reads dominate
   under the seeded adversarial scheduler.
"""

import asyncio
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.robustness.errors import ReadOnlySnapshotError
from repro.serve import AdvisorServer, SeededScheduler
from repro.storage import IndexDefinition, IndexValueType, statistics
from repro.storage.snapshots import (
    SnapshotStore,
    canonical_dumps,
    capture_part,
    partitioned_dumps,
)
from repro.workloads import tpox
from repro.xpath import parse_pattern

TIMEOUT = 180
BUDGET = 50_000


def build_database():
    return tpox.build_database(
        num_securities=12, num_orders=12, num_customers=6, seed=7
    )


WORKLOAD = tpox.tpox_workload(num_securities=12, seed=7).subset(6)
QUERY_TEXTS = [e.statement.describe() for e in WORKLOAD.entries]

SECURITY = (
    "<Security><Symbol>ZZ9999</Symbol><Yield>9.9</Yield></Security>"
)
ORDER = "<FIXML><Order><OrdQty>17</OrdQty></Order></FIXML>"


def fresh_round_trip(database):
    """The store-less baseline: one whole-database pickle round-trip."""
    return pickle.loads(pickle.dumps(database, pickle.HIGHEST_PROTOCOL))


def assert_bit_identical(snapshot, baseline):
    """Both serialized forms of the bit-identity contract."""
    assert partitioned_dumps(snapshot) == partitioned_dumps(baseline)
    assert canonical_dumps(snapshot) == canonical_dumps(baseline)


# ---------------------------------------------------------------------------
# Store bit-identity
# ---------------------------------------------------------------------------


class TestStoreBitIdentity:
    def test_snapshot_equals_fresh_round_trip(self):
        database = build_database()
        store = SnapshotStore()
        assert_bit_identical(
            store.snapshot(database), fresh_round_trip(database)
        )

    def test_snapshot_after_each_mutation_kind(self):
        """Walk every mutation kind and re-check identity after each."""
        database = build_database()
        store = SnapshotStore()
        mutations = [
            lambda: database.runstats("SDOC"),
            lambda: database.insert_document("SDOC", SECURITY),
            lambda: database.delete_document("SDOC", 0),
            lambda: database.create_index(
                IndexDefinition(
                    "snap_idx",
                    "SDOC",
                    parse_pattern("/Security/Yield"),
                    IndexValueType.NUMERIC,
                )
            ),
            lambda: database.drop_index("snap_idx"),
            lambda: database.invalidate_statistics("SDOC"),
        ]
        for mutate in mutations:
            mutate()
            assert_bit_identical(
                store.snapshot(database), fresh_round_trip(database)
            )

    def test_snapshot_of_snapshot_is_pure_cache_hits(self):
        """A composed snapshot inherits its source's token: snapshotting
        it again clones nothing and stays bit-identical."""
        database = build_database()
        database.runstats("SDOC")
        store = SnapshotStore()
        first = store.snapshot(database)
        before = store.stats()
        second = store.snapshot(first)
        after = store.stats()
        assert after["clones"] == before["clones"]
        assert after["misses"] == before["misses"]
        assert_bit_identical(second, fresh_round_trip(database))


#: The hypothesis op alphabet: (label, mutator).  Each op is keyed by
#: integers drawn per-example so the stream stays shrinkable.
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
    ),
    snapshot_every_step=st.booleans(),
)
def test_any_interleaving_stays_bit_identical(ops, snapshot_every_step):
    """For ANY op stream (DML, DDL, runstats, invalidation) the store's
    snapshot equals the fresh round-trip -- whether the store
    snapshotted at every step (warm, mostly hits) or only at the end
    (cold keys for every intermediate state)."""
    database = build_database()
    store = SnapshotStore()
    for op, payload in ops:
        _apply_op(database, op, payload)
        if snapshot_every_step:
            assert_bit_identical(
                store.snapshot(database), fresh_round_trip(database)
            )
    assert_bit_identical(store.snapshot(database), fresh_round_trip(database))


def _probe(database):
    session = WhatIfSession(database)
    with session.evaluating(()) as scope:
        scope.result(WORKLOAD.entries[0].statement)


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
    """What-if probing mutates statistics lazily (dirty-summary repair
    moves the mutation stamp without an epoch bump) -- the store must
    track it.  Probe between every op and re-check identity."""
    database = build_database()
    store = SnapshotStore()
    for op, payload in ops:
        _apply_op(database, op, payload)
        _probe(database)
        assert_bit_identical(
            store.snapshot(database), fresh_round_trip(database)
        )


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
    """The same probe *through a store snapshot* reaches parts other
    snapshots share (after a delete it repairs a dirty summary in
    place).  The probed snapshot must equal a private round-trip copy
    given the same probe, and the next snapshot of the untouched live
    database must still equal a fresh round-trip of it -- the store may
    not hand the repaired part out again under the old key."""
    database = build_database()
    store = SnapshotStore()
    for op, payload in ops:
        _apply_op(database, op, payload)
        snapshot = store.snapshot(database)
        private = fresh_round_trip(database)
        _probe(snapshot)
        _probe(private)
        assert_bit_identical(snapshot, private)
        assert_bit_identical(
            store.snapshot(database), fresh_round_trip(database)
        )


# ---------------------------------------------------------------------------
# Generation accounting (the perf claims as counter equalities)
# ---------------------------------------------------------------------------


class TestReserializationAccounting:
    def test_unchanged_epoch_serializes_nothing(self):
        """Repeat snapshots at unchanged epochs are pure cache hits --
        the 'repeat advise at unchanged epoch = zero re-clones' gate."""
        database = build_database()
        database.runstats("SDOC")
        store = SnapshotStore()
        store.snapshot(database)
        baseline = store.stats()
        for _ in range(5):
            store.snapshot(database)
        after = store.stats()
        assert after["clones"] == baseline["clones"]
        assert after["misses"] == baseline["misses"]
        assert (
            after["hits"]
            == baseline["hits"] + 5 * len(database.collections)
        )

    def test_dml_reserializes_only_the_touched_collection(self):
        """DML on SDOC refreshes SDOC's generation only: the next
        snapshot clones that one collection and hits every other (the
        old ``_snapshot_payload`` re-pickled the world); the one after
        clones nothing."""
        database = build_database()
        store = SnapshotStore()
        store.snapshot(database)
        before = store.stats()
        assert before["clones"] == len(database.collections)
        database.insert_document("SDOC", SECURITY)
        store.snapshot(database)
        after = store.stats()
        assert after["clones"] == before["clones"] + 1
        assert after["misses"] == before["misses"] + 1
        untouched = len(database.collections) - 1
        assert after["hits"] == before["hits"] + untouched
        assert after["generations"] == len(database.collections)
        store.snapshot(database)
        again = store.stats()
        assert again["misses"] == after["misses"]
        assert again["clones"] == after["clones"]

    def test_runstats_moves_only_its_collection_key(self):
        """Statistics transitions (appear/mutate/disappear) re-key only
        their collection, without any epoch bump."""
        database = build_database()
        store = SnapshotStore()
        store.snapshot(database)
        before = store.stats()
        epochs = dict(database.collection_epochs)
        database.runstats("ODOC")
        assert dict(database.collection_epochs) == epochs
        store.snapshot(database)
        after = store.stats()
        assert after["clones"] == before["clones"] + 1
        assert after["misses"] == before["misses"] + 1


# ---------------------------------------------------------------------------
# Shared generations: one cloned part per collection, read-only snapshots
# ---------------------------------------------------------------------------


def _primed_database():
    database = build_database()
    for name in database.collections:
        database.runstats(name)
    return database


def _recommend_on(database):
    return IndexAdvisor(
        database,
        Workload(list(WORKLOAD.entries)),
        session=WhatIfSession(database),
    ).recommend(BUDGET)


class TestSharedGenerations:
    def test_unchanged_keys_clone_nothing_and_share_parts(self):
        database = _primed_database()
        names = list(database.collections)
        store = SnapshotStore()
        first = store.snapshot(database)
        warm = store.stats()
        assert warm["clones"] == warm["generations"] == len(names)
        second = store.snapshot(database)
        assert store.stats()["clones"] == warm["clones"]
        for name in names:
            assert second.collections[name] is first.collections[name]
            assert second._statistics[name] is first._statistics[name]
        # the shell is private: catalogs and counters never cross
        assert second.catalog is not first.catalog
        assert second.collection_epochs is not first.collection_epochs

    def test_dml_clones_only_the_touched_collection(self):
        database = _primed_database()
        store = SnapshotStore()
        before = store.snapshot(database)
        clones = store.stats()["clones"]
        database.insert_document("SDOC", SECURITY)
        after = store.snapshot(database)
        assert store.stats()["clones"] == clones + 1
        assert after.collections["SDOC"] is not before.collections["SDOC"]
        for name in database.collections:
            if name != "SDOC":
                assert after.collections[name] is before.collections[name]

    def test_parts_share_documents_and_own_their_containers(self):
        """Copy-on-write: a part lists the live ``XmlDocument`` objects
        in containers of its own, so later writes to the live database
        -- an append, a tombstone, an entry merge, a statistics delta --
        never show through it."""
        database = _primed_database()
        database.create_index(
            IndexDefinition(
                "snap_idx",
                "SDOC",
                parse_pattern("/Security/Yield"),
                IndexValueType.NUMERIC,
            )
        )
        live = database.collections["SDOC"]
        snapshot = SnapshotStore().snapshot(database)
        part = snapshot.collections["SDOC"]
        assert part is not live and part.documents is not live.documents
        assert all(
            mine is theirs
            for mine, theirs in zip(part.documents, live.documents)
        )
        entries = snapshot.indexes["snap_idx"].entries
        assert entries is not database.indexes["snap_idx"].entries
        assert entries == database.indexes["snap_idx"].entries
        stats = snapshot._statistics["SDOC"]
        assert stats is not database.runstats("SDOC")
        assert stats._collection is part
        frozen = partitioned_dumps(snapshot)
        documents, doc_zero = list(part.documents), part.documents[0]
        database.insert_document("SDOC", SECURITY)
        database.delete_document("SDOC", 0)
        assert live.documents[0] is None and len(live.documents) == 13
        assert part.documents == documents and part.documents[0] is doc_zero
        assert len(part) == 12 and stats.doc_count == 12
        assert partitioned_dumps(snapshot) == frozen

    def test_built_index_shares_entries_not_its_definition_link(self):
        """Each snapshot's built index shares its definition object with
        its *own* catalog (what a whole-database pickle memoizes) while
        the entry list is the shared part's."""
        database = _primed_database()
        database.create_index(
            IndexDefinition(
                "snap_idx",
                "SDOC",
                parse_pattern("/Security/Yield"),
                IndexValueType.NUMERIC,
            )
        )
        store = SnapshotStore()
        first, second = store.snapshot(database), store.snapshot(database)
        for snapshot in (first, second):
            assert snapshot.indexes["snap_idx"].definition is (
                snapshot.catalog.get("snap_idx")
            )
        assert first.indexes["snap_idx"] is not second.indexes["snap_idx"]
        assert (
            first.indexes["snap_idx"].entries
            is second.indexes["snap_idx"].entries
        )

    def test_snapshots_around_dml_are_isolated(self):
        database = _primed_database()
        store = SnapshotStore()
        earlier = store.snapshot(database)
        earlier_bytes = partitioned_dumps(earlier)
        database.insert_document("SDOC", SECURITY)
        later = store.snapshot(database)
        later_bytes = partitioned_dumps(later)
        assert {
            name
            for name in database.collections
            if earlier_bytes[name] != later_bytes[name]
        } == {"SDOC"}
        assert partitioned_dumps(earlier) == earlier_bytes
        # A full recommend moves only the shell of the snapshot it ran
        # on (catalog name counter): the sibling keeps all its bytes,
        # the snapshot itself every collection's.
        _recommend_on(later)
        assert partitioned_dumps(earlier) == earlier_bytes
        later_shell = partitioned_dumps(later)[""]
        _recommend_on(earlier)
        assert partitioned_dumps(later) == {**later_bytes, "": later_shell}
        assert partitioned_dumps(earlier) == {
            **earlier_bytes, "": partitioned_dumps(earlier)[""]
        }

    def test_writes_leave_one_generation_per_collection(self):
        """Regression: every DML used to leave its superseded generation
        in the store until a byte budget tripped (the store grew
        O(DML)).  A write's new generation replaces the old one."""
        database = _primed_database()
        store = SnapshotStore()
        store.snapshot(database)
        baseline = store.stats()
        assert baseline["generations"] == len(database.collections)
        for _ in range(12):
            doc_id = database.insert_document("SDOC", SECURITY)
            store.snapshot(database)
            database.delete_document("SDOC", doc_id)
            store.snapshot(database)
        after = store.stats()
        assert after["generations"] == len(database.collections)
        assert after["clones"] == baseline["clones"] + 24
        assert_bit_identical(
            store.snapshot(database), fresh_round_trip(database)
        )

    def test_resnapshot_of_a_superseded_snapshot_is_a_correct_miss(self):
        database = _primed_database()
        store = SnapshotStore()
        older = store.snapshot(database)
        older_baseline = fresh_round_trip(database)
        database.insert_document("SDOC", SECURITY)
        store.snapshot(database)  # drops the generation ``older`` holds
        misses = store.stats()["misses"]
        again = store.snapshot(older)
        assert store.stats()["misses"] == misses + 1
        assert_bit_identical(again, older_baseline)
        assert_bit_identical(
            store.snapshot(database), fresh_round_trip(database)
        )

    def test_lazy_repair_through_a_snapshot_discards_the_part(
        self, monkeypatch
    ):
        """A delete on paths at a cap leaves dirty summaries; a probe
        through a snapshot repairs them in place on the shared
        statistics, moving their stamp off the key's -- the store must
        clone the live collection again instead of handing the repaired
        part out."""
        monkeypatch.setattr(statistics, "MAX_STRING_FREQ", 4)
        database = _primed_database()
        database.delete_document("SDOC", 0)
        store = SnapshotStore()
        probed = store.snapshot(database)
        stats = probed._statistics["SDOC"]
        stamp = stats.mutation_stamp
        assert stats.rebuild_dirty_summaries() > 0
        assert stats.mutation_stamp > stamp
        clones = store.stats()["clones"]
        fresh = store.snapshot(database)
        assert store.stats()["parts_discarded"] == 1
        assert store.stats()["clones"] == clones + 1
        assert fresh._statistics["SDOC"] is not stats
        assert fresh._statistics["SDOC"]._dirty_paths
        assert_bit_identical(fresh, fresh_round_trip(database))


MUTATORS = {
    "insert": lambda db: db.insert_document("SDOC", SECURITY),
    "delete": lambda db: db.delete_document("SDOC", 0),
    "create_index": lambda db: db.create_index(
        IndexDefinition(
            "ro_idx",
            "SDOC",
            parse_pattern("/Security/Symbol"),
            IndexValueType.STRING,
        )
    ),
    "drop_index": lambda db: db.drop_index("snap_idx"),
    "invalidate_statistics": lambda db: db.invalidate_statistics("SDOC"),
}


class TestReadOnlySnapshots:
    @staticmethod
    def _database():
        database = _primed_database()
        database.create_index(
            IndexDefinition(
                "snap_idx",
                "SDOC",
                parse_pattern("/Security/Yield"),
                IndexValueType.NUMERIC,
            )
        )
        return database

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_mutators_raise_typed_error_and_spare_siblings(self, mutator):
        database = self._database()
        store = SnapshotStore()
        snapshot, sibling = store.snapshot(database), store.snapshot(database)
        sibling_bytes = partitioned_dumps(sibling)
        own_bytes = partitioned_dumps(snapshot)
        with pytest.raises(ReadOnlySnapshotError):
            MUTATORS[mutator](snapshot)
        assert partitioned_dumps(sibling) == sibling_bytes
        assert partitioned_dumps(snapshot) == own_bytes

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_pickled_copy_is_writable(self, mutator):
        database = self._database()
        store = SnapshotStore()
        snapshot = store.snapshot(database)
        snapshot_bytes = partitioned_dumps(snapshot)
        copy = pickle.loads(pickle.dumps(snapshot))
        MUTATORS[mutator](copy)
        MUTATORS[mutator](database)  # and so is the live database
        assert partitioned_dumps(snapshot) == snapshot_bytes

    def test_marker_stays_out_of_the_pickled_state(self):
        database = self._database()
        snapshot = SnapshotStore().snapshot(database)
        assert snapshot._shares_parts
        assert "_shares_parts" not in vars(snapshot)
        copy = pickle.loads(pickle.dumps(snapshot))
        assert not hasattr(copy, "_shares_parts")
        assert_bit_identical(copy, snapshot)


def test_thread_lanes_reading_one_shared_part_leave_it_unchanged():
    """Three lanes (more threads than this box has cores, switching
    every few bytecodes) hammer ``runstats`` / ``matching_paths`` on
    snapshots sharing one part.  The per-pattern memo they race on is
    the only thing written; every answer must equal a private copy's and
    the part's serialized form must not move."""
    database = _primed_database()
    store = SnapshotStore()
    lanes = [store.snapshot(database) for _ in range(3)]
    assert len({id(lane.collections["SDOC"]) for lane in lanes}) == 1
    part_bytes = canonical_dumps(capture_part(lanes[0], "SDOC"))
    reference = fresh_round_trip(database).runstats("SDOC")
    patterns = [
        parse_pattern(text)
        for path in reference.path_counts
        for text in ("/" + "/".join(path), "//" + path[-1], "/" + path[0] + "//*")
    ]
    expected = [reference.matching_paths(pattern) for pattern in patterns]
    failures = []

    def hammer(lane):
        try:
            for _ in range(300):
                stats = lane.runstats("SDOC")
                stats._matching_cache.clear()  # keep the memo race live
                for pattern, want in zip(patterns, expected):
                    if stats.matching_paths(pattern) != want:
                        failures.append(str(pattern))
        except Exception as exc:  # surfaced below, on the main thread
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=hammer, args=(lane,)) for lane in lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert canonical_dumps(capture_part(lanes[0], "SDOC")) == part_bytes


# ---------------------------------------------------------------------------
# Serve consumer: request snapshots + gate backoff (satellite 1)
# ---------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class TestServeConsumer:
    def test_server_snapshot_is_store_backed_and_bit_identical(self):
        async def scenario():
            async with AdvisorServer(build_database()) as server:
                snapshot, _token, _retries, _seq = await server._snapshot(
                    list(server.database.collections)
                )
                return server, snapshot

        server, snapshot = _run(scenario())
        assert_bit_identical(snapshot, fresh_round_trip(server.database))
        assert server.snapshots.stats()["compositions"] >= 1

    def test_repeat_advise_at_unchanged_epoch_serializes_nothing(
        self, fault_free
    ):
        """The serve-path headline: after the first advise request warms
        the store, repeats re-clone nothing.  The two responses are
        compared value for value, so no fault schedule may draw into
        either."""

        async def scenario():
            async with AdvisorServer(
                build_database(), mode="tournament"
            ) as server:
                first = await server.recommend(QUERY_TEXTS, BUDGET)
                warm = server.snapshots.stats()["clones"]
                second = await server.recommend(QUERY_TEXTS, BUDGET)
                return first, second, warm, server.snapshots.stats()

        first, second, warm, stats = _run(scenario())
        assert first.ok and second.ok
        assert first.value == second.value
        assert stats["clones"] == warm
        assert stats["compositions"] == 2  # one per request, from cache

    def test_served_recommend_composes_one_snapshot_from_held_parts(self):
        """A tournament recommend takes one snapshot, which its lanes
        share; at unchanged epochs it clones no collection, and after a
        write exactly the touched collection is cloned once."""

        async def scenario():
            async with AdvisorServer(build_database()) as server:
                stats = []
                for write in (None, None, SECURITY):
                    if write:
                        assert (
                            await server.dml(
                                f"insert into SDOC value '{write}'"
                            )
                        ).ok
                    assert (await server.recommend(QUERY_TEXTS, BUDGET)).ok
                    stats.append(server.snapshots.stats())
                return stats

        warm, steady, written = _run(scenario())
        assert steady["compositions"] == warm["compositions"] + 1
        assert steady["clones"] == warm["clones"]
        assert written["compositions"] == steady["compositions"] + 1
        assert written["clones"] == steady["clones"] + 1
        assert written["generations"] == 3

    @staticmethod
    def _contended_schedule(rounds: int = 3):
        """Reads racing writes: one DML per query in round 0, then
        write-free read rounds."""
        schedule = []
        for round_index in range(rounds):
            for index, text in enumerate(QUERY_TEXTS):
                schedule.append({"kind": "query", "text": text})
                if round_index == 0:
                    schedule.append(
                        {
                            "kind": "dml",
                            "text": "insert into SDOC value "
                            f"'<Security><Symbol>B{index}</Symbol>"
                            "</Security>'",
                        }
                    )
        return schedule

    @staticmethod
    async def _legacy_backoff(self, attempt, site):
        """The pre-backoff retry loop: one bare yield, no wait."""
        await self._yield(site)

    @pytest.mark.parametrize("seed", range(4))
    def test_backoff_beats_immediate_retry_under_seeded_scheduler(
        self, seed, monkeypatch
    ):
        """Satellite 1, the deterministic half: on the SAME seeded
        adversarial schedule, bounded backoff must waste strictly fewer
        read attempts (torn + refused) than the old immediate-retry
        loop -- the scheduler makes both runs pure functions of the
        seed, so this is an exact regression pin, not a timing test."""
        schedule = self._contended_schedule()

        async def scenario():
            scheduler = SeededScheduler(seed=seed)
            server = AdvisorServer(build_database(), scheduler=scheduler)
            async with server:
                responses = await scheduler.drive(
                    [server.dispatch(request) for request in schedule]
                )
            assert all(response.ok for response in responses)
            return server.gate.stats()

        with_backoff = _run(scenario())
        monkeypatch.setattr(
            AdvisorServer, "_read_backoff", self._legacy_backoff
        )
        legacy = _run(scenario())
        assert legacy["reads_backoff_waits"] == 0
        assert with_backoff["reads_backoff_waits"] > 0
        wasted = with_backoff["reads_torn"] + with_backoff["reads_refused"]
        legacy_wasted = legacy["reads_torn"] + legacy["reads_refused"]
        assert wasted < legacy_wasted, (with_backoff, legacy)
        # every read still validates, in both worlds
        reads = sum(1 for r in schedule if r["kind"] == "query")
        assert with_backoff["reads_validated"] == reads
        assert legacy["reads_validated"] == reads

    def test_backoff_makes_validated_reads_dominate_free_running(self):
        """Under free-running concurrent clients the old loop wasted
        more attempts than it validated (32 torn + 54 refused vs 40
        validated); with backoff validated reads must dominate torn +
        refused."""
        schedule = self._contended_schedule(rounds=4)

        async def scenario():
            server = AdvisorServer(build_database())
            async with server:
                responses = await server.run_schedule(schedule, clients=4)
            assert all(response.ok for response in responses)
            return server.gate.stats()

        stats = _run(scenario())
        wasted = stats["reads_torn"] + stats["reads_refused"]
        assert stats["reads_validated"] > wasted, stats
