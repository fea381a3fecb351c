"""The epoch-keyed snapshot engine: :class:`SnapshotStore`.

Every advise/whatif request on the serve path that the server cannot
answer from a held answer, and every per-cycle tuning pass, needs a
consistent copy of the database that live DML cannot touch.  Documents
never change after insert and index entries are tuples of ids, so such a
copy does not have to copy the data: the store keeps exactly **one
generation** per ``(database, collection)``, keyed by ``(database,
collection, epoch, statistics stamp)`` -- a read-only
:class:`CollectionPart` built as a *structural clone* of the live
collection (:func:`clone_part`: own lists and dicts over the same
document objects):

* DML on one collection re-clones only that collection, in time
  proportional to its list lengths, not its pickled size; the generation
  it supersedes is dropped on the spot, so the store holds
  O(collections) generations no matter how many writes ran;
* a no-DML steady state clones nothing: a snapshot is the shared parts
  plus a tiny fresh "shell" (one ~7 kB pickle round-trip);
* no collection is ever serialized: the shell is the only pickle a
  snapshot makes.

The cache key
-------------

A generation captures the collection's documents, its built indexes, and
its cached :class:`~repro.storage.statistics.DataStatistics` --
everything whose state is pinned by the collection's epoch.  Two
wrinkles make the key more than ``(collection, epoch)``:

* Statistics can appear (``runstats``), disappear
  (``invalidate_statistics``), and mutate (targeted dirty-summary
  rebuilds) *without* an epoch bump, so the key carries the statistics'
  :attr:`~repro.storage.statistics.DataStatistics.mutation_stamp`
  (``None`` when no statistics are cached).  Any statistics transition
  moves the stamp and therefore the key.
* One store serves many databases (cluster replicas, the serve layer's
  own snapshots), so the key leads with a per-database token.  Snapshot
  databases composed *by* the store inherit their source's token: a
  snapshot-of-a-snapshot at unchanged epochs is pure cache hits too.

Epochs and stamps only move forward, so a superseded key is never asked
for again by the database that moved past it.  Only an *older* composed
snapshot can still carry it; re-snapshotting one after its generation
was dropped is a miss that re-clones from that snapshot -- never wrong
state.  One generation per collection is the store's only bound; it
needs no other.

The sharing contract
--------------------

What is copied, what is shared, and who may write, stated once:

* The **shell** -- catalog, modification/epoch counters, rescan
  counters, the ``collections`` / ``indexes`` / ``_statistics`` dicts
  and one :class:`~repro.storage.index.PathIndex` wrapper per built
  index -- is private to each snapshot.  ``catalog.fresh_name``,
  virtual-index DDL in the catalog and ``runstats`` on a collection without statistics all
  stay inside the snapshot that did them.
* The **parts** -- a ``Collection`` with its own ``documents`` list, an
  own entry list per built index, and an own ``DataStatistics`` (every
  dict, sample and set copied) backed by that cloned collection -- are
  copied from the live database once per key, so nothing the live
  database does afterwards (appending a document, tombstoning one,
  merging or deleting index entries, retracting statistics) reaches
  them.  They are shared by every snapshot the store composes at that
  key, across requests, and are **read-only**.  A store-composed
  snapshot therefore refuses DML, index DDL and
  ``invalidate_statistics`` with
  :class:`~repro.robustness.errors.ReadOnlySnapshotError`; a
  ``pickle``/``deepcopy`` of it owns its parts and is writable again.
  :func:`compose_database` never writes to a part either: the
  catalog's definition object is linked on the per-snapshot index
  wrapper, not on the part's own index.
* The **documents** (``XmlDocument`` trees and their cached synopses)
  and the immutable ``IndexDefinition`` objects are shared with the
  *live* database.  Nobody writes to a document after insert; a delete
  only clears the live collection's slot, and the parts that still list
  the document keep it alive.
* Three writes do reach shared objects, all invisible to serialization
  or detected: the per-pattern ``_matching_cache`` / ``_matched_paths`` /
  ``_path_ids`` memos of ``DataStatistics`` and the per-document synopsis
  cache (idempotent, dropped by ``__getstate__``, safe to race), and a
  lazy ``_clean_summary`` repair fired by a probe *through* a snapshot
  (serialized by the statistics' own lock; it restreams the part's own
  documents and moves the part's ``mutation_stamp`` off its key's stamp,
  so the store discards the part and clones again before handing it to
  anyone else).

Bit-identity
------------

Capturing the shell fresh is what keeps store-backed snapshots
**bit-identical** to a fresh ``pickle.loads(pickle.dumps(database))``
round-trip even though parts of it (catalog name counters, rescan
counters) move without epoch bumps.  "Bit-identical" is pinned in two
serialized forms: the partitioned canonical form
(:func:`partitioned_dumps` -- raw equality, the partition the store
holds) and the whole-graph form under string-canonical
memoization (:func:`canonical_dumps` -- a plain whole-graph ``dumps``
additionally encodes which *equal* strings happen to share identity
across collections, an accident of build history that is invisible to
every consumer and that per-collection blobs deliberately do not
reproduce).  The pickle round-trip is no longer how a part is built; it
is the oracle the differential suite (``tests/test_snapshot_store.py``)
holds every clone-built snapshot against, in both forms.
"""

from __future__ import annotations

import io
import itertools
import pickle
import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.storage.database import Database
from repro.storage.index import PathIndex

#: Serialization protocol for every blob; pinned so blob bytes (and the
#: bit-identity contract) do not depend on the caller.
PROTOCOL = pickle.HIGHEST_PROTOCOL

#: ``(db token, collection, epoch, statistics stamp | None)``
GenerationKey = Tuple[int, str, int, Optional[int]]


@dataclass
class DatabaseShell:
    """Everything of a :class:`Database` outside the per-collection
    blobs: scalars, the catalog, and the dict orders needed to
    reassemble ``collections`` / ``indexes`` / ``_statistics`` exactly
    as a whole-database pickle round-trip would."""

    name: str
    catalog: object
    modification_count: int
    collection_epochs: Dict[str, int]
    stats_rescans: int
    stats_delta_applies: int
    #: ``collections`` dict order (creation order).
    collection_order: List[str] = field(default_factory=list)
    #: ``indexes`` dict order as ``(index name, collection)`` pairs.
    index_order: List[Tuple[str, str]] = field(default_factory=list)
    #: ``_statistics`` dict order (runstats order).
    stats_order: List[str] = field(default_factory=list)


@dataclass
class CollectionPart:
    """One collection's serialized unit: the collection, its cached
    statistics (or ``None``), and its built indexes by name.  Statistics
    and collection travel in one blob so their shared references (the
    statistics' backing ``_collection``) survive serialization exactly
    as they do in a whole-database pickle."""

    collection: object
    statistics: object
    indexes: Dict[str, object] = field(default_factory=dict)


def capture_shell(database: Database) -> DatabaseShell:
    """The shell of ``database`` right now (no blob contents)."""
    return DatabaseShell(
        name=database.name,
        catalog=database.catalog,
        modification_count=database.modification_count,
        collection_epochs=database.collection_epochs,
        stats_rescans=database.stats_rescans,
        stats_delta_applies=database.stats_delta_applies,
        collection_order=list(database.collections),
        index_order=[
            (name, index.definition.collection)
            for name, index in database.indexes.items()
        ],
        stats_order=list(database._statistics),
    )


def capture_part(database: Database, name: str) -> CollectionPart:
    """One collection's :class:`CollectionPart` (not yet serialized)."""
    return CollectionPart(
        collection=database.collections[name],
        statistics=database._statistics.get(name),
        indexes={
            index_name: index
            for index_name, index in database.indexes.items()
            if index.definition.collection == name
        },
    )


def clone_part(part: CollectionPart) -> CollectionPart:
    """A structural clone of a live part: own ``documents`` list, own
    index entry lists, own statistics backed by the cloned collection --
    over the same document objects and entry tuples, which nothing
    writes to.  Equal to ``pickle.loads(pickle.dumps(part))`` under
    :func:`canonical_dumps`, in time proportional to the list lengths."""
    collection = part.collection.clone()
    indexes = {}
    for name, index in part.indexes.items():
        twin = indexes[name] = PathIndex(index.definition)
        twin.entries = list(index.entries)
    statistics = part.statistics
    if statistics is not None:
        statistics = statistics.clone(collection)
    return CollectionPart(collection, statistics, indexes)


def compose_database(
    shell: DatabaseShell, parts: Dict[str, CollectionPart]
) -> Database:
    """Assemble a :class:`Database` from a shell and per-collection
    parts, reproducing exactly the object graph a whole-database pickle
    round-trip yields: same attribute order, same dict orders, and the
    same cross-references (each built index shares its definition object
    with the catalog, each statistics object its backing collection).
    Parts are only read: they may be shared with other snapshots (see
    the module docstring's sharing contract).
    """
    database = Database.__new__(Database)
    # Attribute insertion order mirrors Database.__init__ so the
    # composed __dict__ pickles byte-identically to a round-tripped one.
    database.name = shell.name
    database.collections = {
        name: parts[name].collection for name in shell.collection_order
    }
    database.catalog = shell.catalog
    indexes = {}
    for index_name, collection_name in shell.index_order:
        # A whole-database pickle memoizes the definition once for the
        # catalog and the built index.  That link goes on a wrapper of
        # this snapshot's own, over the part's entry list.
        index = PathIndex(shell.catalog.get(index_name))
        index.entries = parts[collection_name].indexes[index_name].entries
        indexes[index_name] = index
    database.indexes = indexes
    database._statistics = {
        name: parts[name].statistics
        for name in shell.stats_order
        if parts[name].statistics is not None
    }
    database.modification_count = shell.modification_count
    database.collection_epochs = shell.collection_epochs
    database.stats_rescans = shell.stats_rescans
    database.stats_delta_applies = shell.stats_delta_applies
    return database


def partitioned_dumps(database: Database) -> Dict[str, bytes]:
    """The store's canonical serialized form of a database: one
    standalone blob per collection (keyed by collection name; the shell
    under ``""``), each under string-canonical memoization
    (:func:`canonical_dumps`).  A store-composed snapshot and a fresh
    whole-database pickle round-trip are **bit-identical** in this form
    -- it mirrors the partition the store holds -- and the differential
    suites compare it directly."""
    blobs = {"": canonical_dumps(capture_shell(database))}
    for name in database.collections:
        blobs[name] = canonical_dumps(capture_part(database, name))
    return blobs


def canonical_dumps(obj: object) -> bytes:
    """A whole-graph pickle insensitive to the serialization accidents a
    plain ``pickle.dumps`` encodes:

    * **string identity** -- a whole-database dump memoizes strings by
      identity, so its bytes record which *equal* strings happen to be
      shared across collections, an accident of build history that
      per-collection blobs cannot (and should not) reproduce; equal
      strings are memoized by value here instead;
    * **tag-path identity** -- the same for tuples of strings: index
      entries and statistics keys take their rooted tag paths from the
      document synopses, so whether two *equal* paths are one object
      records which synopsis each came from (statistics collected
      through a snapshot read the live documents' cached synopses, a
      pickled copy builds its own); equal all-string tuples are memoized
      by value too;
    * **set iteration order** -- a reconstructed set's order depends on
      its insertion history, so it is not stable across pickle
      round-trip *generations* even though the set is unchanged; sets
      are serialized as sorted markers here instead.

    Two databases agree under :func:`canonical_dumps` iff their object
    graphs are identical up to exactly those accidents.  Test/bench
    currency only (pure-python pickler)."""
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


def _statistics_stamp(statistics) -> Optional[int]:
    """The stamp component of a generation key (``None``: no
    statistics)."""
    return None if statistics is None else statistics.mutation_stamp


class SnapshotStore:
    """Epoch-keyed cache of per-collection database generations (one
    cloned part each); the module docstring states what is shared and
    who may mutate it.

    Thread-safe: a store may be shared by callers on several threads,
    so one lock covers lookup, the occasional clone and the shell
    round-trip.  Composing from held parts is O(shell), so there is
    nothing worth overlapping.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: ``(db token, collection)`` -> ``(key, part)``: its one
        #: generation, a shared read-only part cloned at ``key``.
        self._generations: Dict[
            Tuple[int, str], Tuple[GenerationKey, CollectionPart]
        ] = {}
        self._token_ids: "weakref.WeakKeyDictionary[Database, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._token_counter = itertools.count(1)
        # Counters (surfaced as ``server.snapshots`` in ``--json``).
        self.hits = 0
        self.misses = 0
        #: Parts built by cloning the live collection (zero for
        #: snapshots at held keys, one per written collection after).
        self.clones = 0
        #: Held parts thrown away because a lazy summary repair through
        #: a snapshot moved their statistics stamp off the key's.
        self.parts_discarded = 0
        #: Full snapshots composed.
        self.compositions = 0
        self.shell_bytes = 0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def token(self, database: Database) -> int:
        """The store's identity for ``database``.  Databases composed by
        :meth:`snapshot` inherit their source's token, so a re-snapshot
        of an unmutated snapshot hits the same generations."""
        with self._lock:
            token = self._token_ids.get(database)
            if token is None:
                token = next(self._token_counter)
                self._token_ids[database] = token
            return token

    def collection_key(self, database: Database, name: str) -> GenerationKey:
        """The generation key for one collection right now."""
        return (
            self.token(database),
            name,
            database.collection_epochs.get(name, 0),
            _statistics_stamp(database._statistics.get(name)),
        )

    # ------------------------------------------------------------------
    # Generation cache
    # ------------------------------------------------------------------
    def _part(self, database: Database, name: str) -> CollectionPart:
        """The shared read-only part at the collection's current key:
        the held one on a hit, else a fresh clone of ``database``'s
        collection that supersedes (and drops) whatever was held for
        it.  Caller holds the lock."""
        key = self.collection_key(database, name)
        slot = key[:2]
        held = self._generations.get(slot)
        if held is not None and held[0] == key:
            self.hits += 1
            part = held[1]
            if _statistics_stamp(part.statistics) == key[3]:
                return part
            # A lazy summary repair fired through some snapshot: the
            # part is no longer the state its key names.
            self.parts_discarded += 1
        else:
            self.misses += 1
        part = clone_part(capture_part(database, name))
        self.clones += 1
        self._generations[slot] = (key, part)
        return part

    def shell_blob(self, database: Database) -> bytes:
        """The serialized shell, captured fresh (never cached: catalog
        name counters and rescan counters move without epoch bumps, and
        the shell is tiny)."""
        blob = pickle.dumps(capture_shell(database), PROTOCOL)
        self.shell_bytes += len(blob)
        return blob

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, database: Database) -> Database:
        """An epoch-consistent snapshot of ``database``: a private shell
        over the store's shared cloned parts -- bit-identical to
        ``pickle.loads(pickle.dumps(database))``, at the cost of one
        shell round-trip while no key moved.  Read-only: mutating it
        raises :class:`~repro.robustness.errors.ReadOnlySnapshotError`
        (a pickled copy is writable)."""
        with self._lock:
            token = self.token(database)
            shell = pickle.loads(self.shell_blob(database))
            parts = {
                name: self._part(database, name)
                for name in database.collections
            }
            self.compositions += 1
            composed = compose_database(shell, parts)
            composed._shares_parts = True
            self._token_ids[composed] = token
            return composed

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cache traffic, clones and compositions."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "generations": len(self._generations),
                "clones": self.clones,
                "parts_discarded": self.parts_discarded,
                "compositions": self.compositions,
                "shell_bytes": self.shell_bytes,
            }

    def clear(self) -> None:
        with self._lock:
            self._generations.clear()
