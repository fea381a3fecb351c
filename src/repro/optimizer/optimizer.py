"""The cost-based optimizer with the advisor's two extra modes.

Normal mode chooses the cheapest plan for a statement using the *real*
indexes.  The two server-side extensions of the paper (Section III) are:

* ``OptimizerMode.ENUMERATE`` -- virtual universal indexes (``//*`` and
  ``//@*``, string and numeric) are put in place, the rewrite and
  index-matching phases run, and every query pattern that matched a
  universal index is returned as a basic candidate.  Optimization stops
  there ("we terminate the optimization process").
* ``OptimizerMode.EVALUATE`` -- a caller-supplied set of *virtual* index
  definitions is made visible (alongside real indexes); the optimizer
  estimates the statement's cost under that hypothetical configuration.
  Virtual index statistics come from data statistics, never from index
  contents.

``Optimizer.calls`` counts invocations so the advisor's efficient benefit
evaluation (Section VI-C) can be measured.

Planning a query or a delete has a configuration-independent half and a
cheap configuration-dependent combiner -- INUM's observation, which CoPhy
builds on.  The first half is a function of the statement's
:class:`~repro.optimizer.rewriter.RequestSignature`, the cost constants
and the collection's statistics at one ``mutation_stamp``: the merged
requests, the result cardinality, the collection-scan cost and, per
(request, index pattern), the cost model's index access estimate.  It is
compiled once into an :class:`AccessEntry` of the :class:`AccessTable`
attached to the statistics object, which every session planning
against those statistics shares.  An
evaluate picks each request's best access among the visible definitions
and runs the greedy index-ANDing combiner; the plan tree is built only
when somebody reads ``OptimizationResult.plan``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.optimizer.cost import CostConstants, CostModel
from repro.optimizer.plans import (
    CollectionScan,
    Fetch,
    IndexAnding,
    IndexOring,
    IndexScan,
    PlanNode,
)
from repro.optimizer.rewriter import (
    PathRequest,
    RequestSignature,
    extract_all_requests,
    merge_range_requests,
    request_signature,
)
from repro.query.model import (
    DeleteStatement,
    InsertStatement,
    JoinQuery,
    Query,
    Statement,
)
from repro.storage.catalog import IndexDefinition
from repro.storage.database import Database
from repro.storage.index import IndexValueType
from repro.storage.statistics import DataStatistics
from repro.xmlmodel.parser import parse_fragment
from repro.xpath.patterns import parse_pattern

#: Patterns of the virtual universal indexes created in ENUMERATE mode.
UNIVERSAL_PATTERNS = ("//*", "//@*")
#: Parsed once at import: ENUMERATE mode runs once per statement and the
#: patterns are immutable.
_UNIVERSAL_PARSED = tuple(parse_pattern(text) for text in UNIVERSAL_PATTERNS)


# ----------------------------------------------------------------------
# The access table
# ----------------------------------------------------------------------
class _AccessSlot:
    """One request of the access table and its lazily filled map from
    index pattern to ``(candidate_docs, scan_cost)`` -- or ``False`` when
    the pattern does not cover the request.  Only indexes of the
    request's own key type are looked up, so the pattern is the key."""

    __slots__ = ("request", "value_type", "_text", "costs")

    def __init__(self, request: PathRequest) -> None:
        self.request = request
        self.value_type = request.value_type
        self._text: Optional[str] = None
        self.costs: Dict[object, object] = {}

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = str(self.request)
        return self._text


class AccessEntry:
    """The configuration-independent half of planning one request
    signature: merged conjunctive requests, disjunction alternatives,
    the expected result documents and the collection-scan costs."""

    __slots__ = (
        "requests",
        "disjunctions",
        "result_docs",
        "doc_count",
        "scan_cost",
        "scan_plan_cost",
        "__weakref__",
    )

    def __init__(
        self,
        requests: Tuple[_AccessSlot, ...],
        disjunctions: Tuple[Tuple[_AccessSlot, ...], ...],
        model: CostModel,
    ) -> None:
        self.requests = requests
        self.disjunctions = disjunctions
        docs = float(model.doc_count)
        fraction = 1.0
        for slot in requests:
            fraction *= min(1.0, model.request_result_docs(slot.request) / docs)
        for alternatives in disjunctions:
            miss = 1.0
            for slot in alternatives:
                sel = min(1.0, model.request_result_docs(slot.request) / docs)
                miss *= 1.0 - sel
            fraction *= 1.0 - miss
        self.result_docs = docs * fraction
        self.doc_count = docs
        self.scan_cost = model.collection_scan_cost()
        # The scan already navigates everything; Fetch adds only output.
        self.scan_plan_cost = self.scan_cost + model.output_cost(self.result_docs)


class AccessTable:
    """Compiled planner inputs of one :class:`DataStatistics` object at
    one ``mutation_stamp`` (``statistics.access_table``).

    Replaced by the first planner that finds the stamp moved, and never
    pickled.  It references no statistics and no statement: entries are
    keyed by ``(request signature, cost constants)``, slots by
    ``(request, cost constants)``, and both hold requests, patterns and
    floats -- the table's own interned copies, so the entries of
    statements that differ only in their literals share one pattern
    object and no entry pins the objects of the statement it was
    compiled from.  Fills race benignly (two threads store equal
    values)."""

    __slots__ = ("stamp", "entries", "slots", "interned", "__weakref__")

    def __init__(self, stamp: int) -> None:
        self.stamp = stamp
        self.entries: Dict[Tuple, AccessEntry] = {}
        self.slots: Dict[Tuple, _AccessSlot] = {}
        self.interned: Dict[object, object] = {}

    def intern(self, request: PathRequest) -> PathRequest:
        """The table's copy of ``request``, over its copy of the pattern."""
        found = self.interned.get(request)
        if found is None:
            pattern = self.interned.setdefault(request.pattern, request.pattern)
            if pattern is not request.pattern:
                request = dataclasses.replace(request, pattern=pattern)
            found = self.interned[request] = request
        return found


class AccessHandle:
    """A caller's direct reference to one statement's access entry (a
    what-if session keeps one per statement id), so a repeated call
    skips the signature lookup.  ``held`` is a weak reference to the
    table and one to the entry, replaced as one value: valid while that
    table is still the statistics' current one (it holds the entry), and
    never keeping a superseded table or entry alive."""

    __slots__ = ("held",)

    def __init__(self) -> None:
        self.held: Optional[Tuple[weakref.ref, weakref.ref]] = None


def access_table(statistics: DataStatistics) -> Optional[AccessTable]:
    """The table valid at the statistics' current stamp -- installed on
    first use after the stamp moved -- or ``None`` while a delta or a
    summary repair is in progress (then nothing may be stored)."""
    stamp = statistics.quiescent_stamp()
    if stamp is None:
        return None
    table = statistics.access_table
    if table is None or table.stamp != stamp:
        table = statistics.access_table = AccessTable(stamp)
    return table


def _storable(table: Optional[AccessTable], statistics: DataStatistics) -> bool:
    """Whether a value just computed may enter ``table``: not if the
    statistics moved (a lazy summary repair, a concurrent delta) while
    it was computed, nor while they are moving."""
    return table is not None and statistics.quiescent_stamp() == table.stamp


class _Access:
    """The chosen index for one request: its definition and the access
    costs the table holds for its pattern."""

    __slots__ = ("definition", "slot", "candidate_docs", "scan_cost")

    def __init__(
        self,
        definition: IndexDefinition,
        slot: _AccessSlot,
        costs: Tuple[float, float],
    ) -> None:
        self.definition = definition
        self.slot = slot
        self.candidate_docs, self.scan_cost = costs

    @property
    def request(self) -> PathRequest:
        return self.slot.request


class _Leg:
    """One access leg of an index plan: a single scan, or an OR-group of
    scans serving a disjunctive predicate."""

    __slots__ = ("branches", "is_or", "scan_cost", "candidate_docs", "_key")

    def __init__(
        self,
        branches: List[_Access],
        is_or: bool,
        scan_cost: float,
        candidate_docs: float,
    ) -> None:
        self.branches = branches
        self.is_or = is_or
        self.scan_cost = scan_cost
        self.candidate_docs = candidate_docs
        self._key = None

    def key(self) -> Tuple:
        if self._key is None:
            self._key = tuple(
                (b.definition.name, b.slot.text) for b in self.branches
            )
        return self._key

    def to_plan_node(self) -> PlanNode:
        scans = []
        for branch in self.branches:
            node = IndexScan(branch.definition, branch.request)
            node.estimated_cost = branch.scan_cost
            node.estimated_docs = branch.candidate_docs
            scans.append(node)
        if not self.is_or:
            return scans[0]
        group = IndexOring(scans)
        group.estimated_cost = self.scan_cost
        group.estimated_docs = self.candidate_docs
        return group


def _scan_plan(
    collection: str,
    scan_cost: float,
    doc_count: float,
    total_cost: float,
    result_docs: float,
) -> PlanNode:
    scan = CollectionScan(collection)
    scan.estimated_cost = scan_cost
    scan.estimated_docs = doc_count
    plan = Fetch(scan, collection)
    plan.estimated_cost = total_cost
    plan.estimated_docs = result_docs
    return plan


def _index_plan(
    legs: List[_Leg], anded_docs: float, result_docs: float, total_cost: float
) -> PlanNode:
    nodes: List[PlanNode] = [leg.to_plan_node() for leg in legs]
    source: PlanNode
    if len(nodes) == 1:
        source = nodes[0]
    else:
        source = IndexAnding(nodes)
        source.estimated_cost = sum(n.estimated_cost for n in nodes)
        source.estimated_docs = anded_docs
    collection = legs[0].branches[0].definition.collection
    plan = Fetch(source, collection)
    plan.estimated_cost = total_cost
    plan.estimated_docs = result_docs
    return plan


class _DeferredPlan(functools.partial):
    """A plan tree not built yet: calling it builds the tree."""


class _PlanField:
    """``OptimizationResult.plan``: a :class:`PlanNode`, or a
    :class:`_DeferredPlan` the planner handed in, built on first read
    (what-if callers mostly read only ``estimated_cost``)."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the field's default
        plan = result.__dict__["_plan"]
        if isinstance(plan, _DeferredPlan):
            plan = result.__dict__["_plan"] = plan()
        return plan

    def __set__(self, result, plan) -> None:
        result.__dict__["_plan"] = plan


class OptimizerMode(enum.Enum):
    NORMAL = "normal"
    ENUMERATE = "enumerate indexes"
    EVALUATE = "evaluate indexes"


@dataclass
class EnumeratedCandidate:
    """One basic candidate produced by ENUMERATE mode: the query pattern
    that matched the universal index, with its required key type and the
    collection it indexes (joins expose candidates on two collections)."""

    request: PathRequest
    collection: str

    @property
    def pattern(self):
        return self.request.pattern

    @property
    def value_type(self) -> IndexValueType:
        return self.request.value_type

    def __str__(self) -> str:
        return f"{self.pattern} ({self.value_type.value})"


@dataclass
class OptimizationResult:
    """Outcome of one optimizer invocation."""

    statement: Statement
    mode: OptimizerMode
    estimated_cost: float
    plan: Optional[PlanNode] = _PlanField()
    used_indexes: Tuple[str, ...] = ()
    candidates: List[EnumeratedCandidate] = field(default_factory=list)
    #: True when the optimizer failed past retries and ``estimated_cost``
    #: came from the heuristic fallback estimator (docs/robustness.md).
    degraded: bool = False

    def explain(self) -> str:
        if self.plan is None:
            return f"-- no plan (mode={self.mode.value})"
        return self.plan.explain()


def index_matches_request(
    definition: IndexDefinition, request: PathRequest
) -> bool:
    """The optimizer's index-matching test: the index's key type must be
    the one the request needs, and the index pattern must *cover* the
    request pattern (language containment)."""
    if definition.value_type is not request.value_type:
        return False
    return definition.pattern.covers(request.pattern)


class Optimizer:
    """Cost-based optimizer over one :class:`Database`."""

    def __init__(
        self, database: Database, constants: Optional[CostConstants] = None
    ) -> None:
        self.database = database
        self.constants = constants or CostConstants()
        self.calls = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def optimize(
        self,
        statement: Statement,
        mode: OptimizerMode = OptimizerMode.NORMAL,
        virtual_definitions: Sequence[IndexDefinition] = (),
        handle: Optional[AccessHandle] = None,
    ) -> OptimizationResult:
        """Optimize ``statement`` under ``mode``.

        ``virtual_definitions`` is only consulted in EVALUATE mode.  A
        caller that plans the same query or delete repeatedly may pass
        the statement's :class:`AccessHandle`.
        """
        self.calls += 1
        if mode is OptimizerMode.ENUMERATE:
            return self._enumerate(statement)
        if isinstance(statement, JoinQuery):
            return self._optimize_join(statement, mode, virtual_definitions)
        if isinstance(statement, InsertStatement):
            return self._optimize_insert(statement, mode)
        definitions = self._visible_definitions(statement, mode, virtual_definitions)
        if isinstance(statement, Query):
            return self._optimize_query(statement, mode, definitions, handle)
        if isinstance(statement, DeleteStatement):
            return self._optimize_delete(statement, mode, definitions, handle)
        raise TypeError(f"unknown statement type {type(statement)!r}")

    # ------------------------------------------------------------------
    # Visible indexes per mode
    # ------------------------------------------------------------------
    def _visible_definitions(
        self,
        statement: Statement,
        mode: OptimizerMode,
        virtual_definitions: Sequence[IndexDefinition],
    ) -> List[IndexDefinition]:
        collection = statement.collection
        built = self.database.indexes
        real = [
            d
            for d in self.database.catalog.definitions_for(
                collection, include_virtual=False
            )
            if d.name in built
        ] if built else []
        if mode is OptimizerMode.EVALUATE:
            extras = [
                d
                for d in virtual_definitions
                if d.collection == collection
            ]
            return real + extras
        return real

    # ------------------------------------------------------------------
    # ENUMERATE mode
    # ------------------------------------------------------------------
    def _enumerate(self, statement: Statement) -> OptimizationResult:
        if isinstance(statement, JoinQuery):
            from repro.optimizer.rewriter import join_key_request

            candidates: List[EnumeratedCandidate] = []
            for side, join_path in (
                (statement.left, statement.left_join_path),
                (statement.right, statement.right_join_path),
            ):
                side_result = self._enumerate(side)
                candidates.extend(side_result.candidates)
                candidates.append(
                    EnumeratedCandidate(
                        join_key_request(side, join_path), side.collection
                    )
                )
            return OptimizationResult(
                statement=statement,
                mode=OptimizerMode.ENUMERATE,
                estimated_cost=0.0,
                candidates=candidates,
            )
        collection = statement.collection
        # The universal indexes come in every key type, so a request
        # matches one of them exactly when a universal pattern covers it.
        candidates = [
            EnumeratedCandidate(request, collection)
            for request in extract_all_requests(statement)
            if any(pattern.covers(request.pattern) for pattern in _UNIVERSAL_PARSED)
        ]
        # Optimization terminates after index matching in this mode.
        return OptimizationResult(
            statement=statement,
            mode=OptimizerMode.ENUMERATE,
            estimated_cost=0.0,
            candidates=candidates,
        )

    # ------------------------------------------------------------------
    # Access entries (the configuration-independent half)
    # ------------------------------------------------------------------
    def _access_entry(
        self,
        model: CostModel,
        statement: Statement,
        handle: Optional[AccessHandle] = None,
    ) -> Tuple[AccessEntry, Optional[AccessTable]]:
        """The statement's entry in the table of ``model``'s statistics
        (compiled on a miss), and that table -- ``None`` while the
        statistics are moving, when the entry is a private one."""
        statistics = model.stats
        table = access_table(statistics)
        if table is None:
            return self._compile(model, request_signature(statement), None), None
        held = handle.held if handle is not None else None
        if held is not None and held[0]() is table:
            entry = held[1]()
            if entry is not None:  # else a racing fill replaced it
                return entry, table
        signature = request_signature(statement)
        entry = table.entries.get((signature, self.constants))
        if entry is None:
            entry = self._compile(model, signature, table)
            if not _storable(table, statistics):
                return entry, table
            table.entries[(signature.map(table.intern), self.constants)] = entry
        if handle is not None:
            handle.held = (weakref.ref(table), weakref.ref(entry))
        return entry, table

    def _compile(
        self,
        model: CostModel,
        signature: RequestSignature,
        table: Optional[AccessTable],
    ) -> AccessEntry:
        return AccessEntry(
            tuple(
                self._slot(table, request)
                for request in merge_range_requests(list(signature.requests))
            ),
            tuple(
                tuple(
                    self._slot(table, alternative)
                    for alternative in disjunction.alternatives
                )
                for disjunction in signature.disjunctions
            ),
            model,
        )

    def _slot(
        self, table: Optional[AccessTable], request: PathRequest
    ) -> _AccessSlot:
        """The table's slot for ``request`` (shared by every entry whose
        statement makes the same request)."""
        if table is None:
            return _AccessSlot(request)
        slot = table.slots.get((request, self.constants))
        if slot is None:
            request = table.intern(request)
            slot = table.slots[(request, self.constants)] = _AccessSlot(request)
        return slot

    def _best_access(
        self,
        model: CostModel,
        slot: _AccessSlot,
        definitions: Sequence[IndexDefinition],
        table: Optional[AccessTable],
    ) -> Optional[_Access]:
        """The cheapest index for one request: fewest candidate documents,
        then lowest scan cost; the first definition wins a tie."""
        best: Optional[Tuple[IndexDefinition, Tuple[float, float]]] = None
        costs = slot.costs
        for definition in definitions:
            if definition.value_type is not slot.value_type:
                continue
            found = costs.get(definition.pattern)
            if found is None:
                if index_matches_request(definition, slot.request):
                    estimate = model.index_access(definition, slot.request)
                    found = (estimate.candidate_docs, estimate.scan_cost)
                else:
                    found = False
                if _storable(table, model.stats):
                    costs[definition.pattern] = found
            if found is False:
                continue
            if best is None or found < best[1]:
                best = (definition, found)
        if best is None:
            return None
        return _Access(best[0], slot, best[1])

    # ------------------------------------------------------------------
    # Query planning (the configuration-dependent combiner)
    # ------------------------------------------------------------------
    def _optimize_query(
        self,
        query: Query,
        mode: OptimizerMode,
        definitions: List[IndexDefinition],
        handle: Optional[AccessHandle] = None,
    ) -> OptimizationResult:
        model = self._cost_model(query.collection)
        entry, table = self._access_entry(model, query, handle)
        cost, plan, used = self._plan(query.collection, model, entry, definitions, table)
        return OptimizationResult(
            statement=query,
            mode=mode,
            estimated_cost=cost,
            plan=plan,
            used_indexes=used,
        )

    def _plan(
        self,
        collection: str,
        model: CostModel,
        entry: AccessEntry,
        definitions: List[IndexDefinition],
        table: Optional[AccessTable],
    ) -> Tuple[float, _DeferredPlan, Tuple[str, ...]]:
        """``(cost, deferred plan, used index names)`` of the cheaper of
        the collection scan and the best index plan over ``definitions``."""
        result_docs = entry.result_docs
        legs: List[_Leg] = []
        for slot in entry.requests:
            best = self._best_access(model, slot, definitions, table)
            if best is not None:
                legs.append(_Leg([best], False, best.scan_cost, best.candidate_docs))
        for alternatives in entry.disjunctions:
            branches = []
            for slot in alternatives:
                best = self._best_access(model, slot, definitions, table)
                if best is None:
                    break  # one uncovered branch defeats index ORing
                branches.append(best)
            else:
                scan_cost = sum(branch.scan_cost for branch in branches)
                candidate_docs = min(
                    float(model.doc_count),
                    sum(branch.candidate_docs for branch in branches),
                )
                legs.append(_Leg(branches, True, scan_cost, candidate_docs))
        if legs:
            # Greedy leg selection: most selective leg first; add further
            # legs only while the intersection keeps lowering total cost.
            legs.sort(key=lambda leg: (leg.candidate_docs, leg.scan_cost))
            chosen: List[_Leg] = [legs[0]]
            best_cost = self._index_plan_cost(model, chosen, result_docs)
            for leg in legs[1:]:
                if any(existing.key() == leg.key() for existing in chosen):
                    continue
                trial = chosen + [leg]
                trial_cost = self._index_plan_cost(model, trial, result_docs)
                if trial_cost < best_cost:
                    chosen = trial
                    best_cost = trial_cost
            if best_cost < entry.scan_plan_cost:
                anded = (
                    model.anded_docs([leg.candidate_docs for leg in chosen])
                    if len(chosen) > 1
                    else 0.0
                )
                return (
                    best_cost,
                    _DeferredPlan(_index_plan, chosen, anded, result_docs, best_cost),
                    tuple(
                        branch.definition.name
                        for leg in chosen
                        for branch in leg.branches
                    ),
                )
        return (
            entry.scan_plan_cost,
            _DeferredPlan(
                _scan_plan,
                collection,
                entry.scan_cost,
                entry.doc_count,
                entry.scan_plan_cost,
                result_docs,
            ),
            (),
        )

    def _index_plan_cost(
        self,
        model: CostModel,
        legs: List[_Leg],
        result_docs: float,
    ) -> float:
        scans = sum(leg.scan_cost for leg in legs)
        docs = model.anded_docs([leg.candidate_docs for leg in legs])
        return scans + model.fetch_cost(docs) + model.output_cost(result_docs)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _optimize_join(
        self,
        join: JoinQuery,
        mode: OptimizerMode,
        virtual_definitions: Sequence[IndexDefinition],
    ) -> OptimizationResult:
        """Plan a two-collection equi-join: try both orientations, and for
        each choose between an index nested-loop join (probe a join-key
        index on the inner side per outer row) and a hash join (one scan
        of each side)."""
        best: Optional[OptimizationResult] = None
        for variant in (join, join.swapped()):
            result = self._plan_join_variant(variant, mode, virtual_definitions)
            if best is None or result.estimated_cost < best.estimated_cost:
                best = result
        # report against the original statement
        return OptimizationResult(
            statement=join,
            mode=mode,
            estimated_cost=best.estimated_cost,
            plan=best.plan,
            used_indexes=best.used_indexes,
        )

    def _plan_join_variant(
        self,
        variant: JoinQuery,
        mode: OptimizerMode,
        virtual_definitions: Sequence[IndexDefinition],
    ) -> OptimizationResult:
        from repro.optimizer.plans import NestedLoopJoin, used_index_names
        from repro.optimizer.rewriter import join_key_request

        c = self.constants
        outer_result = self._optimize_query(
            variant.left,
            mode,
            self._visible_definitions(variant.left, mode, virtual_definitions),
        )
        outer_rows = max(
            1.0,
            outer_result.plan.estimated_docs if outer_result.plan else 1.0,
        )
        inner_model = self._cost_model(variant.right.collection)
        inner_defs = self._visible_definitions(
            variant.right, mode, virtual_definitions
        )
        inner_request = join_key_request(variant.right, variant.right_join_path)
        inner_stats = inner_model.stats.derive_index_statistics(
            inner_request.pattern, IndexValueType.STRING
        )
        matches_per_key = inner_stats.density if inner_stats.entry_count else 0.0

        # Option A: hash join -- scan the inner side once, build, probe.
        hash_cost = (
            inner_model.collection_scan_cost()
            + inner_model.doc_count * c.cpu_entry
            + outer_rows * c.cpu_entry
        )
        # Option B: index nested-loop -- per outer row, descend the join-key
        # index and fetch the matching inner documents.
        inner_entry, inner_table = self._access_entry(inner_model, variant.right)
        probe_definition = self._best_access(
            inner_model,
            self._slot(inner_table, inner_request),
            inner_defs,
            inner_table,
        )
        nlj_cost = float("inf")
        if probe_definition is not None:
            per_probe = (
                inner_stats.levels * c.io_page
                + matches_per_key * c.cpu_entry
                + min(matches_per_key, float(inner_model.doc_count))
                * (c.doc_fetch + inner_model.avg_nodes_per_doc * c.cpu_node * c.residual_factor)
            )
            nlj_cost = outer_rows * per_probe

        inner_selectivity = inner_entry.result_docs / max(1, inner_model.doc_count)
        result_rows = outer_rows * max(matches_per_key, 0.0) * inner_selectivity

        if nlj_cost < hash_cost:
            strategy = "index-nlj"
            inner_cost = nlj_cost
            inner_scan = IndexScan(probe_definition.definition, inner_request)
            inner_scan.estimated_cost = nlj_cost
            inner_scan.estimated_docs = outer_rows * matches_per_key
        else:
            strategy = "hash"
            inner_cost = hash_cost
            inner_scan = None

        plan = NestedLoopJoin(
            outer=outer_result.plan,
            inner_collection=variant.right.collection,
            strategy=strategy,
            join_query=variant,
            inner_index=inner_scan,
        )
        plan.estimated_cost = (
            outer_result.estimated_cost
            + inner_cost
            + inner_model.output_cost(result_rows)
        )
        plan.estimated_docs = result_rows
        return OptimizationResult(
            statement=variant,
            mode=mode,
            estimated_cost=plan.estimated_cost,
            plan=plan,
            used_indexes=used_index_names(plan),
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _optimize_insert(
        self, statement: InsertStatement, mode: OptimizerMode
    ) -> OptimizationResult:
        model = self._cost_model(statement.collection)
        nodes = _document_nodes(statement)
        cost = model.insert_cost(
            model.avg_nodes_per_doc if nodes is None else float(nodes)
        )
        return OptimizationResult(
            statement=statement, mode=mode, estimated_cost=cost
        )

    def _optimize_delete(
        self,
        statement: DeleteStatement,
        mode: OptimizerMode,
        definitions: List[IndexDefinition],
        handle: Optional[AccessHandle] = None,
    ) -> OptimizationResult:
        model = self._cost_model(statement.collection)
        entry, table = self._access_entry(model, statement, handle)
        cost, plan, used = self._plan(
            statement.collection, model, entry, definitions, table
        )
        return OptimizationResult(
            statement=statement,
            mode=mode,
            estimated_cost=cost + model.delete_docs_cost(entry.result_docs),
            plan=plan,
            used_indexes=used,
        )

    # ------------------------------------------------------------------
    def _cost_model(self, collection: str) -> CostModel:
        return CostModel(self.database.runstats(collection), self.constants)


def _document_nodes(statement: InsertStatement) -> Optional[int]:
    """Node count of an insert's document (``None`` without a document
    or when it does not parse), parsed once and kept on the statement
    next to the rewriter's extraction memo."""
    try:
        return statement._document_nodes
    except AttributeError:
        pass
    nodes = None
    if statement.document_text:
        try:
            nodes = _count_nodes(statement.document_text)
        except Exception:
            nodes = None
    object.__setattr__(statement, "_document_nodes", nodes)
    return nodes


def _count_nodes(document_text: str) -> int:
    from repro.xmlmodel.nodes import XmlDocument

    return XmlDocument(parse_fragment(document_text)).node_count()
