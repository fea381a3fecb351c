"""Buffer pool simulation: page-level I/O accounting.

The cost model charges logical work (documents fetched, entries scanned);
a real database's wall-clock is dominated by whether those accesses hit
the buffer pool.  This module simulates that layer so experiments can
report *physical* reads and hit ratios:

* Documents map to pages (``NODES_PER_PAGE`` nodes per page); an index
  maps to pages of ``ENTRIES_PER_PAGE`` entries plus its B+-tree inner
  levels.
* :class:`BufferPool` is an LRU cache of page ids with hit/miss counters.
* :class:`PagedExecutor` wraps the ordinary :class:`Executor`, touching
  the pages each operation implies: a collection scan reads every page of
  every document, an index scan reads the tree descent plus the leaf
  pages of the touched entries, and a fetch reads the document's pages.

The simulation is deliberately independent of the optimizer -- it is a
measurement harness, not a cost input -- so it can validate the cost
model's *relative* claims (indexes shrink the working set) without
circularity.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.optimizer.executor import ExecutionResult, Executor
from repro.optimizer.session import WhatIfSession
from repro.optimizer.plans import (
    CollectionScan,
    Fetch,
    IndexAnding,
    IndexOring,
    IndexScan,
)
from repro.query.model import JoinQuery, Query, Statement

#: Element/text nodes assumed to fit on one 4 KiB data page.
NODES_PER_PAGE = 64
#: Index entries per leaf page.
ENTRIES_PER_PAGE = 128


@dataclass
class PoolStats:
    """Counters of one measurement window."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class BufferPool:
    """A fixed-capacity LRU page cache (page ids only; no contents)."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_pages
        self._pages: "OrderedDict[Tuple, None]" = OrderedDict()
        self.stats = PoolStats()

    def access(self, page_id: Tuple) -> bool:
        """Touch a page; returns True on a hit."""
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._pages[page_id] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    def resident_pages(self) -> int:
        return len(self._pages)

    def reset_stats(self) -> None:
        self.stats = PoolStats()

    def clear(self) -> None:
        self._pages.clear()
        self.reset_stats()


@dataclass
class PagedExecutionResult:
    """An :class:`ExecutionResult` plus its page-level footprint."""

    result: ExecutionResult
    page_accesses: int
    physical_reads: int

    @property
    def hit_ratio(self) -> float:
        if self.page_accesses == 0:
            return 0.0
        return 1.0 - self.physical_reads / self.page_accesses


class PagedExecutor:
    """Executes statements while charging page accesses to a pool."""

    def __init__(
        self,
        database,
        pool: BufferPool,
        session: Optional[WhatIfSession] = None,
    ) -> None:
        self.database = database
        self.pool = pool
        self.session = session or WhatIfSession(database)
        self._executor = Executor(database, session=self.session)

    # ------------------------------------------------------------------
    def execute(self, statement: Statement) -> PagedExecutionResult:
        before_hits = self.pool.stats.hits
        before_misses = self.pool.stats.misses
        plan = None
        if isinstance(statement, (Query, JoinQuery)):
            plan = self.session.plan(statement).plan
        result = self._executor.execute(statement)
        if isinstance(statement, JoinQuery):
            self._charge_join(plan, result)
        elif isinstance(statement, Query):
            self._charge_query(statement, plan, result)
        hits = self.pool.stats.hits - before_hits
        misses = self.pool.stats.misses - before_misses
        return PagedExecutionResult(
            result=result,
            page_accesses=hits + misses,
            physical_reads=misses,
        )

    def _charge_join(self, plan, result: ExecutionResult) -> None:
        """Charge a join: the outer side like an ordinary query, then the
        inner side -- every page for a hash join's build scan, or the
        probed index plus (approximately) the fetched documents for an
        index nested-loop join."""
        from repro.optimizer.plans import NestedLoopJoin

        if not isinstance(plan, NestedLoopJoin):  # pragma: no cover
            return
        variant = plan.join_query
        self._charge_query(variant.left, plan.outer, result)
        inner_collection = self.database.collection(variant.right.collection)
        if plan.inner_index is None:
            for document in inner_collection:
                self._touch_document(variant.right.collection, document)
            return
        self._touch_index(plan.inner_index)
        # The executor reports total docs examined (outer + probed inner);
        # charge the inner fetches it actually performed, approximated by
        # the first N inner documents (page identity, not exact docs).
        outer_ids = self._executor._candidate_doc_ids(
            plan.outer, variant.left.collection
        )
        if outer_ids is None:
            outer_docs = len(self.database.collection(variant.left.collection))
        else:
            outer_docs = len(outer_ids)
        probed = max(0, result.docs_examined - outer_docs)
        for position, document in enumerate(inner_collection):
            if position >= probed:
                break
            self._touch_document(variant.right.collection, document)

    # ------------------------------------------------------------------
    def _charge_query(self, query: Query, plan, result: ExecutionResult) -> None:
        source = plan.source if isinstance(plan, Fetch) else plan
        collection = self.database.collection(query.collection)
        if isinstance(source, CollectionScan) or source is None:
            for document in collection:
                self._touch_document(query.collection, document)
            return
        legs = (
            source.scans if isinstance(source, IndexAnding) else [source]
        )
        for leg in legs:
            if isinstance(leg, IndexScan):
                self._touch_index(leg)
            elif isinstance(leg, IndexOring):
                for scan in leg.scans:
                    self._touch_index(scan)
        # fetch phase: the documents the executor examined -- approximate
        # by re-deriving the surviving doc ids the same way it did
        doc_ids = self._executor._candidate_doc_ids(plan, query.collection)
        if doc_ids is None:
            for document in collection:
                self._touch_document(query.collection, document)
        else:
            for doc_id in sorted(doc_ids):
                try:
                    document = collection.get(doc_id)
                except KeyError:
                    continue
                self._touch_document(query.collection, document)

    def _touch_document(self, collection_name: str, document) -> None:
        pages = max(1, math.ceil(document.node_count() / NODES_PER_PAGE))
        for page in range(pages):
            self.pool.access(("doc", collection_name, document.doc_id, page))

    def _touch_index(self, scan: IndexScan) -> None:
        index = self.database.index(scan.definition.name)
        levels = index.levels()
        for level in range(levels):
            self.pool.access(("ixnode", scan.definition.name, level))
        entries = index.entries_for_request(scan.request)
        if not entries:
            return
        # leaf pages are contiguous in key order: entry position -> page
        first = index.entries.index(entries[0]) if entries else 0
        start_page = first // ENTRIES_PER_PAGE
        end_page = (first + len(entries) - 1) // ENTRIES_PER_PAGE
        for page in range(start_page, end_page + 1):
            self.pool.access(("ixleaf", scan.definition.name, page))
