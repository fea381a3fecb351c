"""Document collections and the database object.

A :class:`Database` holds named :class:`Collection` objects (the analogue of
DB2 tables with one XML-typed column), the :class:`~repro.storage.catalog.Catalog`
of index definitions, built real indexes, and cached data statistics.

:class:`StorageTarget` is the narrow protocol every storage backend
implements -- today the single-process :class:`Database` and the
sharded/replicated :class:`~repro.cluster.Cluster`.  The optimizer
session, executor, and advisor are written against the protocol, so a
cluster can stand in anywhere a database could; components that need a
concrete database for statistics/planning resolve one through
:func:`resolve_database` (a cluster answers with its primary replica).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Protocol, runtime_checkable

from repro.robustness.faults import maybe_inject
from repro.storage.catalog import Catalog, IndexDefinition
from repro.storage.index import PathIndex
from repro.storage.statistics import DataStatistics, collect_statistics
from repro.storage.synopsis import get_synopsis
from repro.xmlmodel.nodes import XmlDocument, XmlNode
from repro.xmlmodel.parser import parse_document


@runtime_checkable
class StorageTarget(Protocol):
    """What every storage backend guarantees the upper layers.

    Deliberately narrow: DML (routed through shards on a cluster so
    per-replica delta statistics and epoch invalidation stay correct),
    index DDL (fanned out to every replica on a cluster), statistics,
    the modification/epoch counters the what-if cache invalidation
    rides, and :meth:`whatif_database` -- the concrete
    :class:`Database` a what-if session should plan against.
    """

    name: str
    modification_count: int
    collection_epochs: Dict[str, int]

    def create_collection(self, name: str): ...

    def insert_document(self, collection_name: str, text: str) -> int: ...

    def delete_document(self, collection_name: str, doc_id: int) -> None: ...

    def create_index(self, definition: IndexDefinition): ...

    def drop_index(self, name: str) -> None: ...

    def runstats(self, collection_name: str) -> DataStatistics: ...

    def touch(self, collection_name: Optional[str] = None) -> None: ...

    def storage_stats(self) -> Dict[str, int]: ...

    def whatif_database(self) -> "Database": ...


def resolve_database(target) -> "Database":
    """The concrete :class:`Database` behind a storage target.

    A plain database resolves to itself; a cluster resolves to its
    primary replica (shard 0, replica 0) -- with one shard and one
    replica that *is* the whole data, which is what makes the cluster
    differential harness exact.  Objects without the protocol method
    (test doubles) pass through unchanged.
    """
    resolver = getattr(target, "whatif_database", None)
    if resolver is None:
        return target
    return resolver()


class Collection:
    """A named collection of XML documents.

    Documents receive dense ids on insertion; ``documents[doc_id]`` may be
    ``None`` after a deletion (ids are never reused, like RIDs).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.documents: List[Optional[XmlDocument]] = []
        self._live_count = 0

    # ------------------------------------------------------------------
    def insert(self, document: XmlDocument) -> int:
        """Insert a parsed document, assign it an id, and return the id."""
        doc_id = len(self.documents)
        document.doc_id = doc_id
        self.documents.append(document)
        self._live_count += 1
        return doc_id

    def insert_xml(self, text: str) -> int:
        """Parse ``text`` and insert the resulting document."""
        return self.insert(parse_document(text))

    def insert_tree(self, root: XmlNode) -> int:
        """Wrap a built node tree in a document and insert it."""
        return self.insert(XmlDocument(root))

    def delete(self, doc_id: int) -> XmlDocument:
        """Delete the document with ``doc_id`` and return it."""
        document = self.get(doc_id)
        self.documents[doc_id] = None
        self._live_count -= 1
        return document

    def get(self, doc_id: int) -> XmlDocument:
        """Return the live document with ``doc_id``."""
        if not 0 <= doc_id < len(self.documents):
            raise KeyError(f"no document {doc_id} in collection {self.name!r}")
        document = self.documents[doc_id]
        if document is None:
            raise KeyError(
                f"document {doc_id} in collection {self.name!r} was deleted"
            )
        return document

    def __iter__(self) -> Iterator[XmlDocument]:
        """Iterate over live documents."""
        return (d for d in self.documents if d is not None)

    def __len__(self) -> int:
        return self._live_count

    def total_nodes(self) -> int:
        return sum(d.node_count() for d in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Collection {self.name!r} docs={len(self)}>"


class Database:
    """An XML database: collections + catalog + indexes + statistics."""

    def __init__(self, name: str = "xmldb") -> None:
        self.name = name
        self.collections: Dict[str, Collection] = {}
        self.catalog = Catalog()
        self.indexes: Dict[str, PathIndex] = {}
        self._statistics: Dict[str, DataStatistics] = {}
        #: Bumped by every data or index-DDL change; what-if sessions
        #: compare it against their cached generation and invalidate.
        self.modification_count = 0
        #: Per-collection change epochs: sessions that know which
        #: collections a cached result depends on invalidate only the
        #: entries whose epochs moved.
        self.collection_epochs: Dict[str, int] = {}
        #: Storage-engine counters (``storage_stats()``): full statistics
        #: rescans vs. DML absorbed as synopsis deltas.
        self.stats_rescans = 0
        self.stats_delta_applies = 0

    def touch(self, collection_name: Optional[str] = None) -> None:
        """Record a modification (data, statistics, or index visibility
        changed); cached optimizer results keyed on the old state must be
        invalidated by whoever holds them.  Scoped to one collection's
        epoch when ``collection_name`` is given; a bare ``touch()`` is a
        global change and bumps every epoch."""
        self.modification_count += 1
        if collection_name is not None:
            self.collection_epochs[collection_name] = (
                self.collection_epochs.get(collection_name, 0) + 1
            )
        else:
            for name in self.collections:
                self.collection_epochs[name] = (
                    self.collection_epochs.get(name, 0) + 1
                )

    # ------------------------------------------------------------------
    # Collections
    # ------------------------------------------------------------------
    def create_collection(self, name: str) -> Collection:
        """Create and register an empty collection."""
        if name in self.collections:
            raise ValueError(f"collection {name!r} already exists")
        collection = Collection(name)
        self.collections[name] = collection
        self.collection_epochs.setdefault(name, 0)
        return collection

    def collection(self, name: str) -> Collection:
        if name not in self.collections:
            raise KeyError(f"unknown collection {name!r}")
        return self.collections[name]

    def insert_document(self, collection_name: str, text: str) -> int:
        """Insert XML text into a collection, maintaining real indexes.

        The document's synopsis is built once (one shared walk) and feeds
        every index on the collection plus a +delta into live statistics;
        cached statistics are only invalidated when they predate the
        synopsis engine and cannot absorb deltas.
        """
        return self.insert_parsed(collection_name, parse_document(text))

    def insert_parsed(
        self, collection_name: str, document: XmlDocument
    ) -> int:
        """Insert an already-parsed document (identical maintenance to
        :meth:`insert_document`; a cluster parses once and feeds the same
        tree -- and its cached synopsis -- to every replica of the
        owning shard)."""
        collection = self.collection(collection_name)
        doc_id = collection.insert(document)
        synopsis = get_synopsis(document)
        for index in self._indexes_on(collection_name):
            index.insert_document(document)
        stats = self._statistics.get(collection_name)
        if stats is not None and stats.supports_deltas:
            stats.apply_insert(synopsis, doc_id)
            self.stats_delta_applies += 1
        else:
            self.invalidate_statistics(collection_name)
        self.touch(collection_name)
        return doc_id

    def delete_document(self, collection_name: str, doc_id: int) -> None:
        """Delete a document from a collection, maintaining real indexes."""
        collection = self.collection(collection_name)
        document = collection.delete(doc_id)
        synopsis = get_synopsis(document)
        for index in self._indexes_on(collection_name):
            index.remove_document(document)
        stats = self._statistics.get(collection_name)
        if stats is not None and stats.supports_deltas:
            stats.apply_delete(synopsis, doc_id)
            self.stats_delta_applies += 1
        else:
            self.invalidate_statistics(collection_name)
        self.touch(collection_name)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, definition: IndexDefinition) -> PathIndex:
        """Create a *real* index: register it and bulk-build its entries."""
        self.catalog.add(definition)
        index = PathIndex(definition)
        index.bulk_load(self.collection(definition.collection))
        self.indexes[definition.name] = index
        self.touch(definition.collection)
        return index

    def drop_index(self, name: str) -> None:
        definition = self.catalog.get(name)
        self.catalog.remove(name)
        self.indexes.pop(name, None)
        self.touch(definition.collection)

    def drop_all_indexes(self) -> None:
        for name in [d.name for d in self.catalog.all_definitions()]:
            self.drop_index(name)

    def _indexes_on(self, collection_name: str) -> Iterable[PathIndex]:
        return (
            idx
            for idx in self.indexes.values()
            if idx.definition.collection == collection_name
        )

    def index(self, name: str) -> PathIndex:
        if name not in self.indexes:
            raise KeyError(f"no built index named {name!r}")
        return self.indexes[name]

    # ------------------------------------------------------------------
    # Statistics (RUNSTATS)
    # ------------------------------------------------------------------
    def runstats(self, collection_name: str) -> DataStatistics:
        """Collect (or return cached) data statistics for a collection.

        This mirrors DB2's RUNSTATS command: one pass over the data
        producing per-path counts and value summaries.  Virtual index
        statistics are *derived* from these, never from index contents.
        """
        if collection_name not in self._statistics:
            maybe_inject("statistics.runstats")
            self.stats_rescans += 1
            self._statistics[collection_name] = collect_statistics(
                self.collection(collection_name)
            )
        return self._statistics[collection_name]

    def invalidate_statistics(self, collection_name: str) -> None:
        self._statistics.pop(collection_name, None)

    def storage_stats(self) -> Dict[str, int]:
        """Storage-engine counters: full statistics rescans, DML absorbed
        as synopsis deltas, and targeted per-path summary rebuilds."""
        return {
            "stats_rescans": self.stats_rescans,
            "stats_delta_applies": self.stats_delta_applies,
            "summary_rebuilds": sum(
                stats.summary_rebuilds for stats in self._statistics.values()
            ),
        }

    def whatif_database(self) -> "Database":
        """The database a what-if session plans against: itself (see
        :class:`StorageTarget`; a cluster answers with its primary
        replica)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Database {self.name!r} collections={list(self.collections)} "
            f"indexes={len(self.indexes)}>"
        )


class EpochGate:
    """Optimistic read / serialized write gate over a database's
    per-collection epochs.

    :class:`~repro.serve.server.AdvisorServer` serves atomic requests,
    so it only takes :meth:`epochs` tokens from its gate and never opens
    a read or write section (those counters read 0 there); the sections
    are for callers whose reads and writes can interleave mid-request.

    Readers are lock-free, seqlock style: :meth:`read_view` snapshots
    the epochs of the collections a request touches (refusing to start
    only while a writer is inside its critical section), the read then
    runs without holding anything, and :meth:`validate` confirms the
    epochs never moved.  A failed validation means the read may have
    observed state from two epochs (a *torn* read); the caller discards
    the result and retries against the new epochs.

    Writers never wait for readers.  :meth:`begin_write` /
    :meth:`end_write` bracket a writer's critical section; the gate only
    tracks which collections currently have an active writer, so new
    reads refuse to start against them (the epoch bump itself happens
    inside the write via :meth:`Database.touch`).  Serializing writers
    *per collection* is the caller's job.
    """

    def __init__(self, database: "Database") -> None:
        self.database = database
        self._writing: Dict[str, int] = {}
        #: collections -> the last epoch token handed out for them.
        self._tokens: Dict[tuple, tuple] = {}
        self.reads_validated = 0
        self.reads_torn = 0
        self.reads_refused = 0
        self.writes_gated = 0

    def epochs(self, collections: Iterable[str]) -> tuple:
        """Sorted ``(collection, epoch)`` snapshot; unknown collections
        read as epoch 0 (consistent with :meth:`Database.touch`).  While
        the epochs stand still every call returns the *same* tuple: the
        serve layer attaches the token to each response, and callers
        keep responses by the thousand."""
        eps = self.database.collection_epochs
        names = tuple(sorted(set(collections)))
        token = tuple((name, eps.get(name, 0)) for name in names)
        held = self._tokens.get(names)
        if held == token:
            return held
        self._tokens[names] = token
        return token

    def read_view(self, collections: Iterable[str]) -> Optional[tuple]:
        """Begin an optimistic read over ``collections``: the epoch token
        to validate against, or ``None`` while a writer is active on any
        of them (the reader yields and retries)."""
        names = list(collections)
        if any(self._writing.get(name) for name in names):
            self.reads_refused += 1
            return None
        return self.epochs(names)

    def validate(self, token: tuple) -> bool:
        """``True`` iff no write on the token's collections started or
        committed since :meth:`read_view` handed it out -- i.e. the read
        observed a single epoch per collection."""
        names = [name for name, _ in token]
        consistent = (
            not any(self._writing.get(name) for name in names)
            and self.epochs(names) == token
        )
        if consistent:
            self.reads_validated += 1
        else:
            self.reads_torn += 1
        return consistent

    def begin_write(self, collection_name: str) -> None:
        """Enter a writer critical section on one collection (re-entrant:
        a multi-step write may nest)."""
        self._writing[collection_name] = (
            self._writing.get(collection_name, 0) + 1
        )
        self.writes_gated += 1

    def end_write(self, collection_name: str) -> None:
        """Leave the writer critical section opened by
        :meth:`begin_write`."""
        depth = self._writing.get(collection_name, 0) - 1
        if depth > 0:
            self._writing[collection_name] = depth
        else:
            self._writing.pop(collection_name, None)

    def writing(self, collection_name: str) -> bool:
        return bool(self._writing.get(collection_name))

    def stats(self) -> Dict[str, int]:
        """Gate counters for telemetry / the serve differential tests."""
        return {
            "reads_validated": self.reads_validated,
            "reads_torn": self.reads_torn,
            "reads_refused": self.reads_refused,
            "writes_gated": self.writes_gated,
        }
