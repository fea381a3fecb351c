"""Data statistics (the RUNSTATS equivalent) and derived index statistics.

The paper (Section III) relies on the database's statistics-collection
command to gather *data* statistics, then derives the statistics of
*virtual* indexes (size, number of levels, cardinality) from them -- virtual
indexes are never populated.  This module implements both halves:

* :func:`collect_statistics` scans a collection once and produces a
  :class:`DataStatistics` object: per-rooted-tag-path node counts and
  per-path :class:`PathValueSummary` value summaries (count, distinct
  values, numeric min/max, bounded value samples for selectivity).
* :meth:`DataStatistics.derive_index_statistics` answers, for any linear
  pattern and key type, the :class:`IndexStatistics` a virtual index on
  that pattern would have.
* :meth:`DataStatistics.selectivity` estimates predicate selectivities the
  optimizer's cost model needs.

Since the incremental storage engine (docs/performance.md), statistics are
*merged* from per-document :class:`~repro.storage.synopsis.DocumentSynopsis`
objects and maintained under DML by exact +/- deltas
(:meth:`DataStatistics.apply_insert` / :meth:`DataStatistics.apply_delete`)
instead of being dropped and rescanned.  A write costs what its document
touches.  The equivalence contract, against a from-scratch rescan of the
live documents:

* Exact quantities (counts, doc counts, numeric counts, string bytes) are
  always identical, and the path dictionaries keep the rescan's key order
  (first seen over the live documents).  A delete decrements in place;
  only the deletion of a path's *first holder* -- which includes its only
  holder -- can move or drop a key, and only then is the order recomputed
  (a counts-only pass, :meth:`DataStatistics._canonicalize`).
* Bounded structures (value samples, distinct set, string frequencies,
  min/max) are a pure function of the path's value multiset for as long
  as none of them has reached its cap (``MAX_SAMPLE``,
  ``MAX_STRING_FREQ``): inserts bisect values in
  (:meth:`PathValueSummary.extend`), deletes bisect them out again
  (:meth:`PathValueSummary.retract`), and the summary equals the rescan
  summary field for field with no repair.  "Equal" is ``==`` per field:
  the insertion order of ``string_freq`` keys and of the ``_distinct``
  set follows the DML history, and a rescan's follows document order.
* A summary at or over a cap cannot be replayed (the systematic stride
  sample works on the unsorted build-time stream; a capped frequency
  table has forgotten multiplicities).  It marks itself ``dirty`` -- that
  path only, recorded in ``DataStatistics._dirty_paths`` -- and is
  rebuilt from the live synopses the next time a probe touches it
  (``summaries[path]``) or :meth:`DataStatistics.rebuild_dirty_summaries`
  runs.  A rebuild restreams that path's values in document order, which
  is exactly the rescan stream.

Which memos survive a delta:

* ``_matching_cache`` (pattern -> matching paths with counts) is dropped
  by every delta.
* ``_matched_paths`` and ``_path_ids`` (pattern -> paths, interned path
  ids) survive every delta that adds, drops and moves no path.
* ``access_table``, the optimizer's compiled what-if inputs, is valid
  for one ``mutation_stamp``: a delta and a lazy summary repair both
  move the stamp, and the next planner installs a fresh table.  Nothing
  computed while the stamp moved enters a table
  (:meth:`DataStatistics.quiescent_stamp`).

:func:`collect_statistics_rescan` keeps the original node-by-node scan as
the differential reference.
"""

from __future__ import annotations

import bisect
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.robustness.faults import maybe_inject
from repro.storage.index import (
    ENTRY_OVERHEAD_BYTES,
    NUMERIC_KEY_BYTES,
    SIZE_EXPANSION,
    IndexValueType,
    estimate_levels,
)
from repro.storage.synopsis import DocumentSynopsis, get_synopsis
from repro.xmlmodel.nodes import NodeKind, XmlDocument, XmlNode
from repro.xpath.ast import Literal
from repro.xpath.compiled import GLOBAL_TABLE
from repro.xpath.patterns import PathPattern

#: Cap on per-path value samples kept for selectivity estimation.
MAX_SAMPLE = 4096
#: Cap on distinct string frequencies tracked per path.
MAX_STRING_FREQ = 256


@dataclass
class PathValueSummary:
    """Value statistics for one rooted tag path."""

    count: int = 0
    numeric_count: int = 0
    numeric_min: Optional[float] = None
    numeric_max: Optional[float] = None
    total_string_bytes: int = 0
    numeric_sample: List[float] = field(default_factory=list)
    string_sample: List[str] = field(default_factory=list)
    string_freq: Counter = field(default_factory=Counter)
    _distinct: set = field(default_factory=set)
    _sample_stride_state: int = 0
    #: Bounded structures (samples, distinct set, string frequencies,
    #: min/max) no longer match a from-scratch rescan; exact aggregates
    #: are still maintained.  Cleared by a targeted rebuild.
    dirty: bool = False

    def observe(self, text: str) -> None:
        """Record one node value."""
        self.count += 1
        self.total_string_bytes += len(text)
        if len(self._distinct) < MAX_SAMPLE:
            self._distinct.add(text)
        number: Optional[float] = None
        try:
            number = float(text.strip())
        except ValueError:
            number = None
        if number is not None:
            self.numeric_count += 1
            if self.numeric_min is None or number < self.numeric_min:
                self.numeric_min = number
            if self.numeric_max is None or number > self.numeric_max:
                self.numeric_max = number
            self._sample(self.numeric_sample, number)
        else:
            self._sample(self.string_sample, text)
        if len(self.string_freq) < MAX_STRING_FREQ or text in self.string_freq:
            self.string_freq[text] += 1

    def _sample(self, sample: List[object], value: object) -> None:
        """Deterministic systematic sampling once the cap is reached."""
        if len(sample) < MAX_SAMPLE:
            sample.append(value)
            return
        self._sample_stride_state += 1
        slot = self._sample_stride_state % MAX_SAMPLE
        if self._sample_stride_state % 2 == 0:
            sample[slot] = value

    def finalize(self) -> None:
        """Sort samples so selectivity lookups can bisect."""
        self.numeric_sample.sort()
        self.string_sample.sort()

    # ------------------------------------------------------------------
    # Incremental maintenance (post-finalize)
    # ------------------------------------------------------------------
    def extend(self, values: Iterable[str]) -> None:
        """Stream inserted values into a finalized summary.

        Exact aggregates (count, numeric count, string bytes) are always
        maintained.  Bounded structures stay exactly rescan-identical as
        long as every sample append lands below ``MAX_SAMPLE``: appends
        into the sorted sample produce the same sorted multiset a rescan's
        append-then-sort would.  The moment a sample would need the
        systematic stride replacement (which operates on the *unsorted*
        build-time list and cannot be replayed post-sort), the summary
        marks itself ``dirty`` and leaves bounded state to a rebuild.
        """
        for text in values:
            self.count += 1
            self.total_string_bytes += len(text)
            number: Optional[float] = None
            try:
                number = float(text.strip())
            except ValueError:
                number = None
            if number is not None:
                self.numeric_count += 1
            if self.dirty:
                continue
            if len(self._distinct) < MAX_SAMPLE:
                self._distinct.add(text)
            if number is not None:
                if self.numeric_min is None or number < self.numeric_min:
                    self.numeric_min = number
                if self.numeric_max is None or number > self.numeric_max:
                    self.numeric_max = number
                sample: List[object] = self.numeric_sample
                value: object = number
            else:
                sample = self.string_sample
                value = text
            if len(sample) >= MAX_SAMPLE:
                self.dirty = True
                continue
            bisect.insort(sample, value)
            if len(self.string_freq) < MAX_STRING_FREQ or text in self.string_freq:
                self.string_freq[text] += 1

    def retract(
        self, values: List[str], numeric_count: int, string_bytes: int
    ) -> None:
        """Remove one deleted document's values -- the mirror image of
        :meth:`extend`.

        Exact aggregates are subtracted.  While no bounded structure has
        reached its cap each one is a pure function of the path's value
        multiset: the samples are its sorted numeric / string halves,
        ``string_freq`` holds every multiplicity, ``_distinct`` its keys,
        and min/max sit at the numeric sample's ends -- so the values are
        bisected out and what remains is what a rescan of the remaining
        documents builds.  At or over a cap (and for a value the samples
        cannot locate, ``nan``) the summary goes ``dirty`` instead.
        """
        self.count -= len(values)
        self.numeric_count -= numeric_count
        self.total_string_bytes -= string_bytes
        if self.dirty:
            return
        if (
            self._sample_stride_state
            or len(self.string_freq) >= MAX_STRING_FREQ
            or len(self._distinct) >= MAX_SAMPLE
        ):
            self.dirty = True
            return
        freq = self.string_freq
        for text in values:
            try:
                value: object = float(text.strip())
                sample: List[object] = self.numeric_sample
            except ValueError:
                value, sample = text, self.string_sample
            position = bisect.bisect_left(sample, value)
            left = freq.get(text, 0) - 1
            if (
                left < 0
                or position == len(sample)
                or sample[position] != value
            ):
                self.dirty = True
                return
            del sample[position]
            if left:
                freq[text] = left
            else:
                del freq[text]
                self._distinct.discard(text)
        numeric = self.numeric_sample
        self.numeric_min = numeric[0] if numeric else None
        self.numeric_max = numeric[-1] if numeric else None

    @property
    def distinct(self) -> int:
        return max(1, len(self._distinct))

    @property
    def avg_string_bytes(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total_string_bytes / self.count


@dataclass(frozen=True)
class IndexStatistics:
    """Statistics of a (possibly virtual) index, derived from data stats."""

    entry_count: int
    distinct_keys: int
    size_bytes: int
    levels: int
    avg_key_bytes: float

    @property
    def density(self) -> float:
        """Average entries per distinct key."""
        if self.distinct_keys == 0:
            return 0.0
        return self.entry_count / self.distinct_keys


class _SummaryMap(dict):
    """``summaries`` mapping that repairs dirty summaries on access.

    Keyed access (``stats.summaries[path]`` / ``.get(path)``) is the
    probe boundary of the rebuild-on-dirty contract: a summary whose
    bounded structures were invalidated by DML is rebuilt -- targeted,
    from the live synopses -- the moment any consumer reads it.  Plain
    iteration does not clean (maintenance code uses ``dict`` methods
    directly to stay re-entrant).
    """

    def __init__(self, stats: Optional["DataStatistics"] = None) -> None:
        super().__init__()
        self._stats = stats

    def __getitem__(self, key):
        summary = dict.__getitem__(self, key)
        if summary.dirty and self._stats is not None:
            self._stats._clean_summary(key, summary)
        return summary

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default


class DataStatistics:
    """Statistics for one collection, produced by :func:`collect_statistics`."""

    def __init__(self, collection_name: str) -> None:
        self.collection_name = collection_name
        self.doc_count = 0
        self.total_nodes = 0
        self.total_elements = 0
        self.path_counts: Dict[Tuple[str, ...], int] = {}
        #: distinct documents containing each path at least once
        self.path_doc_counts: Dict[Tuple[str, ...], int] = {}
        self.summaries: Dict[Tuple[str, ...], PathValueSummary] = _SummaryMap(self)
        #: pattern text -> its ``matching_paths`` answer at the current
        #: counts; dropped by every delta.
        self._matching_cache: Dict[str, List[Tuple[Tuple[str, ...], int]]] = {}
        #: pattern text -> the paths it matches, in ``path_counts`` order;
        #: outlives deltas that add, drop and move no path.
        self._matched_paths: Dict[str, List[Tuple[str, ...]]] = {}
        #: (interned id, path) pairs mirroring ``path_counts``; rebuilt
        #: lazily after a delta that added, dropped or moved a path.
        self._path_ids: List[Tuple[int, Tuple[str, ...]]] = []
        #: path -> id of the first live document holding it (the document
        #: that fixes the path's place in rescan key order).
        self._first_holders: Dict[Tuple[str, ...], int] = {}
        #: Paths whose summary is ``dirty`` (at or over a cap when a delta
        #: reached it), so repair is O(dirty paths).
        self._dirty_paths: set = set()
        #: Backing collection when built through the synopsis engine;
        #: required for delta maintenance and targeted rebuilds.
        self._collection = None
        #: Targeted per-path summary rebuilds performed (storage counter).
        self.summary_rebuilds = 0
        #: Moves on every serialization-visible mutation (delta applies
        #: and lazy summary repairs).  Collection epochs do NOT cover
        #: these -- lazy ``_clean_summary`` fires during read-only
        #: probes -- so the access table keys on the stamp, and the
        #: server's held advise answers and statistics digests on
        #: ``(epoch, mutation_stamp)`` rather than the epoch alone.
        self.mutation_stamp = 0
        #: The optimizer's what-if access table
        #: (:class:`repro.optimizer.optimizer.AccessTable`) for one
        #: ``mutation_stamp``; replaced by the planner once the stamp
        #: moves, never pickled.
        self.access_table = None
        self._lock = threading.Lock()

    def __getstate__(self):
        # ``_path_ids`` holds ids interned in *this* process's
        # GLOBAL_TABLE; in another process those ids would silently mismatch its table and corrupt
        # pattern matching.  The two pattern memos were computed through
        # those ids, so all three are dropped and rebuilt lazily on the
        # receiving side.  The access table is a planner cache, and the
        # lock is process-local.
        state = self.__dict__.copy()
        state["_path_ids"] = []
        state["_matching_cache"] = {}
        state["_matched_paths"] = {}
        state.pop("access_table", None)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.access_table = None
        self._lock = threading.Lock()

    def quiescent_stamp(self) -> Optional[int]:
        """``mutation_stamp``, or ``None`` while a delta or a summary
        repair holds the statistics' lock (its stamp moves only at the
        end).  A memo computed between two equal non-``None`` readings
        saw exactly that stamp's state."""
        if self._lock.locked():
            return None
        return self.mutation_stamp

    # ------------------------------------------------------------------
    # Incremental maintenance (synopsis deltas)
    # ------------------------------------------------------------------
    @property
    def supports_deltas(self) -> bool:
        """True when these statistics can absorb DML deltas (built by the
        synopsis engine, with the backing collection attached)."""
        return self._collection is not None

    def apply_insert(self, synopsis: DocumentSynopsis, doc_id: int) -> None:
        """Merge one inserted document's synopsis into live statistics.

        New paths append to ``path_counts`` in the document's first-seen
        order -- exactly where a rescan over the grown collection would
        put them -- so pattern aggregation order (and therefore float
        summation order) stays rescan-identical.
        """
        with self._lock:
            self.doc_count += 1
            self.total_nodes += synopsis.node_count
            self.total_elements += synopsis.element_count
            summaries = self.summaries
            appeared = False
            for slot, tag_path in enumerate(synopsis.tag_paths):
                count = synopsis.deltas[slot][0]
                self.path_counts[tag_path] = (
                    self.path_counts.get(tag_path, 0) + count
                )
                self.path_doc_counts[tag_path] = (
                    self.path_doc_counts.get(tag_path, 0) + 1
                )
                summary = dict.get(summaries, tag_path)
                if summary is None:
                    summary = PathValueSummary()
                    dict.__setitem__(summaries, tag_path, summary)
                    self._first_holders[tag_path] = doc_id
                    appeared = True
                summary.extend(synopsis.values[slot])
                if summary.dirty:
                    self._dirty_paths.add(tag_path)
            self._note_delta(appeared)

    def apply_delete(self, synopsis: DocumentSynopsis, doc_id: int) -> None:
        """Retract one deleted document's synopsis from live statistics
        (the document must already be gone from the backing collection).

        Each touched summary has the document's values retracted
        (:meth:`PathValueSummary.retract`) and the path's counts are
        decremented in place: the key order a rescan would produce does
        not change unless the document was the first holder of one of its
        paths -- that path now belongs further back, or nowhere -- and
        only then are the dictionaries re-canonicalized.
        """
        with self._lock:
            self.doc_count -= 1
            self.total_nodes -= synopsis.node_count
            self.total_elements -= synopsis.element_count
            summaries = self.summaries
            first_holders = self._first_holders
            reorder = False
            for slot, tag_path in enumerate(synopsis.tag_paths):
                count, numeric_count, string_bytes = synopsis.deltas[slot]
                summary = dict.__getitem__(summaries, tag_path)
                summary.retract(
                    synopsis.values[slot], numeric_count, string_bytes
                )
                if summary.dirty:
                    self._dirty_paths.add(tag_path)
                if first_holders[tag_path] == doc_id:
                    reorder = True
                else:
                    self.path_counts[tag_path] -= count
                    self.path_doc_counts[tag_path] -= 1
            if reorder:
                self._canonicalize()
            self._note_delta(reorder)

    def _note_delta(self, paths_changed: bool) -> None:
        """Bookkeeping shared by both deltas.  The count-carrying memo is
        always stale; the path-level memos depend only on the set and
        order of paths.  Caller holds the lock."""
        self.mutation_stamp += 1
        self._matching_cache.clear()
        if paths_changed:
            self._matched_paths.clear()
            self._path_ids = []

    def _canonicalize(self) -> None:
        """Rebuild the path dictionaries in rescan (first-seen over live
        documents) order from the per-document deltas, dropping paths
        whose count reached zero.  O(total paths across documents); no
        value streaming.  Caller holds the lock."""
        counts: Dict[Tuple[str, ...], int] = {}
        doc_counts: Dict[Tuple[str, ...], int] = {}
        first_holders: Dict[Tuple[str, ...], int] = {}
        for document in self._collection:
            synopsis = get_synopsis(document)
            for slot, tag_path in enumerate(synopsis.tag_paths):
                first_holders.setdefault(tag_path, document.doc_id)
                counts[tag_path] = (
                    counts.get(tag_path, 0) + synopsis.deltas[slot][0]
                )
                doc_counts[tag_path] = doc_counts.get(tag_path, 0) + 1
        summaries = _SummaryMap(self)
        for tag_path in counts:
            dict.__setitem__(
                summaries, tag_path, dict.__getitem__(self.summaries, tag_path)
            )
        self.path_counts = counts
        self.path_doc_counts = doc_counts
        self.summaries = summaries
        self._first_holders = first_holders
        self._dirty_paths.intersection_update(counts)

    def _clean_summary(self, tag_path: Tuple[str, ...], summary: PathValueSummary) -> None:
        """Targeted rebuild of one dirty summary: restream that path's
        values from the live synopses in document order -- exactly the
        stream a rescan would feed it -- and swap the state in place."""
        collection = self._collection
        if collection is None:
            return
        with self._lock:
            if not summary.dirty:
                return
            rebuilt = PathValueSummary()
            for document in collection:
                synopsis = get_synopsis(document)
                slot = synopsis.slot_of(tag_path)
                if slot is None:
                    continue
                for text in synopsis.values[slot]:
                    rebuilt.observe(text)
            rebuilt.finalize()
            summary.count = rebuilt.count
            summary.numeric_count = rebuilt.numeric_count
            summary.numeric_min = rebuilt.numeric_min
            summary.numeric_max = rebuilt.numeric_max
            summary.total_string_bytes = rebuilt.total_string_bytes
            summary.numeric_sample = rebuilt.numeric_sample
            summary.string_sample = rebuilt.string_sample
            summary.string_freq = rebuilt.string_freq
            summary._distinct = rebuilt._distinct
            summary._sample_stride_state = rebuilt._sample_stride_state
            self.summary_rebuilds += 1
            self.mutation_stamp += 1
            summary.dirty = False
            self._dirty_paths.discard(tag_path)

    def rebuild_dirty_summaries(self) -> int:
        """Eagerly rebuild every dirty per-path summary (the serve
        layer's write path calls this as part of each write so later
        reads never repair state -- reads stay side-effect free and the
        ``summary_rebuilds`` counter moves only on writes).
        O(dirty paths): a no-op while every touched path is below its
        caps.  Returns the number rebuilt."""
        dirty = list(self._dirty_paths)
        for tag_path in dirty:
            self._clean_summary(
                tag_path, dict.__getitem__(self.summaries, tag_path)
            )
        return len(dirty)

    # ------------------------------------------------------------------
    # Collection-side (used by collect_statistics)
    # ------------------------------------------------------------------
    def _observe_node(self, tag_path: Tuple[str, ...], text: str) -> None:
        self.path_counts[tag_path] = self.path_counts.get(tag_path, 0) + 1
        summary = self.summaries.get(tag_path)
        if summary is None:
            summary = PathValueSummary()
            self.summaries[tag_path] = summary
        summary.observe(text)

    def _finalize(self) -> None:
        for summary in self.summaries.values():
            summary.finalize()

    # ------------------------------------------------------------------
    # Pattern-level aggregation
    # ------------------------------------------------------------------
    def matching_paths(
        self, pattern: PathPattern
    ) -> List[Tuple[Tuple[str, ...], int]]:
        """All distinct rooted tag paths in the data matched by ``pattern``,
        with their node counts.  Memoized per pattern (the optimizer probes
        the same patterns over and over during a search)."""
        key = str(pattern)
        cached = self._matching_cache.get(key)
        if cached is None:
            paths = self._matched_paths.get(key)
            if paths is None:
                if len(self._path_ids) != len(self.path_counts):
                    self._path_ids = [
                        (GLOBAL_TABLE.intern(path), path)
                        for path in self.path_counts
                    ]
                matched = pattern.matcher.matching_ids()
                paths = self._matched_paths[key] = [
                    path for path_id, path in self._path_ids if path_id in matched
                ]
            counts = self.path_counts
            cached = self._matching_cache[key] = [
                (path, counts[path]) for path in paths
            ]
        return cached

    def document_frequency(
        self,
        pattern: PathPattern,
        op: Optional[str] = None,
        literal: Optional[Literal] = None,
    ) -> float:
        """Estimated number of *documents* containing a node that the
        pattern reaches and that satisfies the optional predicate.

        Per matching path, the satisfying-node count is capped by the
        number of documents that contain the path at all (a document with
        five matching nodes is still one document); the per-path results
        are summed and capped by the collection size.
        """
        total = 0.0
        for path, count in self.matching_paths(pattern):
            docs_with_path = self.path_doc_counts.get(path, self.doc_count)
            if op is None or literal is None:
                satisfying = float(count)
            else:
                summary = self.summaries[path]
                satisfying = count * _summary_selectivity(summary, op, literal)
            total += min(float(docs_with_path), satisfying)
        return min(float(max(1, self.doc_count)), total)

    def entry_count(self, pattern: PathPattern, value_type: IndexValueType) -> int:
        """Number of entries a (virtual) index on ``pattern`` would hold."""
        total = 0
        for path, count in self.matching_paths(pattern):
            summary = self.summaries[path]
            if value_type is IndexValueType.NUMERIC:
                # Scale the path count by the fraction of numeric values.
                if summary.count:
                    total += round(count * summary.numeric_count / summary.count)
            else:
                total += count
        return total

    def derive_index_statistics(
        self, pattern: PathPattern, value_type: IndexValueType
    ) -> IndexStatistics:
        """Virtual-index statistics for ``pattern`` (Section III: 'we derive
        the required index statistics ... from these data statistics')."""
        maybe_inject("statistics.derive")
        entries = 0
        distinct = 0
        key_bytes = 0.0
        for path, count in self.matching_paths(pattern):
            summary = self.summaries[path]
            if value_type is IndexValueType.NUMERIC:
                if summary.count == 0:
                    continue
                numeric = round(count * summary.numeric_count / summary.count)
                entries += numeric
                distinct += min(numeric, summary.distinct)
                key_bytes += numeric * NUMERIC_KEY_BYTES
            else:
                entries += count
                distinct += min(count, summary.distinct)
                key_bytes += count * summary.avg_string_bytes
        size = int((key_bytes + ENTRY_OVERHEAD_BYTES * entries) * SIZE_EXPANSION)
        avg_key = key_bytes / entries if entries else 0.0
        return IndexStatistics(
            entry_count=entries,
            distinct_keys=max(1, distinct) if entries else 0,
            size_bytes=size,
            levels=estimate_levels(entries),
            avg_key_bytes=avg_key,
        )

    # ------------------------------------------------------------------
    # Selectivity
    # ------------------------------------------------------------------
    def selectivity(
        self,
        pattern: PathPattern,
        op: str,
        literal: Literal,
        value_type: Optional[IndexValueType] = None,
    ) -> float:
        """Estimated fraction of the pattern's entries satisfying
        ``op literal``.  Uses per-path value samples (numeric) and string
        frequencies; existential averaging over the matching paths.

        ``value_type`` chooses the entry population being conditioned on:
        a NUMERIC index only *contains* numeric entries, so its selectivity
        must be relative to those, not to every node under the pattern.
        """
        total = 0.0
        satisfying = 0.0
        for path, count in self.matching_paths(pattern):
            summary = self.summaries[path]
            if value_type is IndexValueType.NUMERIC:
                if summary.count:
                    total += count * summary.numeric_count / summary.count
                else:
                    total += 0.0
            else:
                total += count
            satisfying += count * _summary_selectivity(summary, op, literal)
        if total == 0:
            return 0.0
        return min(1.0, max(0.0, satisfying / total))

    def cardinality(
        self, pattern: PathPattern, op: Optional[str], literal: Optional[Literal]
    ) -> float:
        """Estimated number of nodes matched by ``pattern`` that satisfy the
        (optional) predicate."""
        base = sum(count for _, count in self.matching_paths(pattern))
        if op is None or literal is None:
            return float(base)
        return base * self.selectivity(pattern, op, literal)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataStatistics {self.collection_name!r} docs={self.doc_count} "
            f"paths={len(self.path_counts)} nodes={self.total_nodes}>"
        )


def _summary_selectivity(
    summary: PathValueSummary, op: str, literal: Literal
) -> float:
    if summary.count == 0:
        return 0.0
    if literal.is_number:
        return _numeric_selectivity(summary, op, float(literal.value))
    return _string_selectivity(summary, op, str(literal.value))


def _numeric_selectivity(
    summary: PathValueSummary, op: str, value: float
) -> float:
    sample = summary.numeric_sample
    numeric_fraction = summary.numeric_count / summary.count
    if not sample or numeric_fraction == 0.0:
        return 0.0
    n = len(sample)
    lo = bisect.bisect_left(sample, value)
    hi = bisect.bisect_right(sample, value)
    if op == "=":
        frac = (hi - lo) / n if hi > lo else 1.0 / max(n, summary.distinct)
    elif op == "!=":
        frac = 1.0 - (hi - lo) / n
    elif op == "<":
        frac = lo / n
    elif op == "<=":
        frac = hi / n
    elif op == ">":
        frac = (n - hi) / n
    elif op == ">=":
        frac = (n - lo) / n
    else:
        raise ValueError(f"unsupported operator {op!r}")
    return frac * numeric_fraction


def _string_selectivity(
    summary: PathValueSummary, op: str, value: str
) -> float:
    if op == "starts-with":
        sample = summary.string_sample
        if not sample:
            return 0.0
        string_fraction = (summary.count - summary.numeric_count) / summary.count
        lo = bisect.bisect_left(sample, value)
        hi = bisect.bisect_left(sample, value + "\uffff")
        return (hi - lo) / len(sample) * string_fraction
    if op == "contains":
        # No order statistics help with substrings; count the (bounded)
        # sample directly.
        sample = summary.string_sample
        if not sample:
            return 0.0
        string_fraction = (summary.count - summary.numeric_count) / summary.count
        hits = sum(1 for text in sample if value in text)
        return hits / len(sample) * string_fraction
    if op in ("=", "!="):
        freq = summary.string_freq.get(value)
        if freq is not None:
            eq = freq / summary.count
        else:
            eq = 1.0 / summary.distinct
        return eq if op == "=" else 1.0 - eq
    # Ordered string comparison: bisect the string sample.
    sample = summary.string_sample
    if not sample:
        return 0.0
    n = len(sample)
    string_fraction = (summary.count - summary.numeric_count) / summary.count
    lo = bisect.bisect_left(sample, value)
    hi = bisect.bisect_right(sample, value)
    if op == "<":
        frac = lo / n
    elif op == "<=":
        frac = hi / n
    elif op == ">":
        frac = (n - hi) / n
    elif op == ">=":
        frac = (n - lo) / n
    else:
        raise ValueError(f"unsupported operator {op!r}")
    return frac * string_fraction


def collect_statistics(collection) -> DataStatistics:
    """Produce :class:`DataStatistics` by merging per-document synopses.

    ``collection`` is a :class:`repro.storage.database.Collection`; typed as
    ``object`` here to avoid an import cycle.

    Bit-identical to :func:`collect_statistics_rescan`: each path's value
    stream (preorder within a document, documents in collection order) is
    preserved by the synopsis, and path dictionary keys appear in the same
    global first-seen order.  The resulting statistics carry the backing
    collection and therefore absorb later DML as deltas.
    """
    stats = DataStatistics(collection.name)
    stats._collection = collection
    summaries = stats.summaries
    for document in collection:
        synopsis = get_synopsis(document)
        stats.doc_count += 1
        stats.total_nodes += synopsis.node_count
        stats.total_elements += synopsis.element_count
        for slot, tag_path in enumerate(synopsis.tag_paths):
            stats.path_counts[tag_path] = (
                stats.path_counts.get(tag_path, 0) + synopsis.deltas[slot][0]
            )
            stats.path_doc_counts[tag_path] = (
                stats.path_doc_counts.get(tag_path, 0) + 1
            )
            summary = dict.get(summaries, tag_path)
            if summary is None:
                summary = PathValueSummary()
                dict.__setitem__(summaries, tag_path, summary)
                stats._first_holders[tag_path] = document.doc_id
            for text in synopsis.values[slot]:
                summary.observe(text)
    stats._finalize()
    return stats


def collect_statistics_rescan(collection) -> DataStatistics:
    """The original node-by-node scan, kept as the differential reference
    for the synopsis engine (tests and the bench identity gate compare
    delta-maintained statistics against this)."""
    stats = DataStatistics(collection.name)
    for document in collection:
        stats.doc_count += 1
        stats.total_nodes += document.node_count()
        _scan_document(document, stats)
    stats._finalize()
    return stats


def _scan_document(document: XmlDocument, stats: DataStatistics) -> None:
    root = document.root
    stack: List[Tuple[XmlNode, Tuple[str, ...]]] = [(root, (root.name or "",))]
    seen_paths = set()
    while stack:
        node, tag_path = stack.pop()
        stats.total_elements += 1
        stats._observe_node(tag_path, node.string_value())
        seen_paths.add(tag_path)
        for attr in node.attributes:
            attr_path = tag_path + ("@" + (attr.name or ""),)
            stats._observe_node(attr_path, attr.value or "")
            seen_paths.add(attr_path)
        for child in reversed(list(node.child_elements())):
            stack.append((child, tag_path + (child.name or "",)))
    for tag_path in seen_paths:
        stats.path_doc_counts[tag_path] = (
            stats.path_doc_counts.get(tag_path, 0) + 1
        )
