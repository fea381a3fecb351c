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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.optimizer.cost import CostConstants, CostModel, IndexAccessEstimate
from repro.optimizer.plans import (
    CollectionScan,
    Fetch,
    IndexAnding,
    IndexOring,
    IndexScan,
    PlanNode,
)
from repro.optimizer.rewriter import (
    DisjunctiveRequest,
    PathRequest,
    RangeRequest,
    extract_all_requests,
    extract_disjunctive_requests,
    extract_path_requests,
    merge_range_requests,
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
from repro.xmlmodel.parser import parse_fragment
from repro.xpath.patterns import parse_pattern

#: Patterns of the virtual universal indexes created in ENUMERATE mode.
UNIVERSAL_PATTERNS = ("//*", "//@*")
#: Parsed once at import: ENUMERATE mode runs once per statement and the
#: patterns are immutable.
_UNIVERSAL_PARSED = tuple(parse_pattern(text) for text in UNIVERSAL_PATTERNS)


@dataclass
class _Leg:
    """One access leg of an index plan: a single scan, or an OR-group of
    scans serving a disjunctive predicate."""

    branches: List["IndexAccessEstimate"]
    is_or: bool
    scan_cost: float
    candidate_docs: float

    def key(self) -> Tuple:
        return tuple(
            (b.definition.name, str(b.request)) for b in self.branches
        )

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
    plan: Optional[PlanNode] = None
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
    ) -> OptimizationResult:
        """Optimize ``statement`` under ``mode``.

        ``virtual_definitions`` is only consulted in EVALUATE mode.
        """
        self.calls += 1
        if mode is OptimizerMode.ENUMERATE:
            return self._enumerate(statement)
        if isinstance(statement, JoinQuery):
            return self._optimize_join(statement, mode, virtual_definitions)
        definitions = self._visible_definitions(statement, mode, virtual_definitions)
        if isinstance(statement, Query):
            return self._optimize_query(statement, mode, definitions)
        if isinstance(statement, InsertStatement):
            return self._optimize_insert(statement, mode)
        if isinstance(statement, DeleteStatement):
            return self._optimize_delete(statement, mode, definitions)
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
        real = [
            d
            for d in self.database.catalog.definitions_for(
                collection, include_virtual=False
            )
            if d.name in self.database.indexes
        ]
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
        universals = [
            IndexDefinition(
                name=f"__universal_{value_type.name.lower()}_{i}",
                collection=collection,
                pattern=pattern,
                value_type=value_type,
                virtual=True,
            )
            for i, pattern in enumerate(_UNIVERSAL_PARSED)
            for value_type in IndexValueType
        ]
        candidates = []
        for request in extract_all_requests(statement):
            if any(index_matches_request(u, request) for u in universals):
                candidates.append(EnumeratedCandidate(request, collection))
        # Optimization terminates after index matching in this mode.
        return OptimizationResult(
            statement=statement,
            mode=OptimizerMode.ENUMERATE,
            estimated_cost=0.0,
            candidates=candidates,
        )

    # ------------------------------------------------------------------
    # Query planning
    # ------------------------------------------------------------------
    def _optimize_query(
        self,
        query: Query,
        mode: OptimizerMode,
        definitions: List[IndexDefinition],
    ) -> OptimizationResult:
        model = self._cost_model(query.collection)
        requests = extract_path_requests(query)
        disjunctions = extract_disjunctive_requests(query)
        result_docs = self._conjunctive_result_docs(model, requests, disjunctions)

        scan_plan = self._collection_scan_plan(query.collection, model, result_docs)
        best_plan: PlanNode = scan_plan
        index_plan = self._best_index_plan(
            query.collection, model, requests, disjunctions, definitions, result_docs
        )
        if index_plan is not None and index_plan.estimated_cost < best_plan.estimated_cost:
            best_plan = index_plan
        from repro.optimizer.plans import used_index_names

        return OptimizationResult(
            statement=query,
            mode=mode,
            estimated_cost=best_plan.estimated_cost,
            plan=best_plan,
            used_indexes=used_index_names(best_plan),
        )

    def _collection_scan_plan(
        self, collection: str, model: CostModel, result_docs: float
    ) -> PlanNode:
        scan = CollectionScan(collection)
        scan.estimated_cost = model.collection_scan_cost()
        scan.estimated_docs = float(model.doc_count)
        plan = Fetch(scan, collection)
        # The scan already navigates everything; Fetch adds only output.
        plan.estimated_cost = scan.estimated_cost + model.output_cost(result_docs)
        plan.estimated_docs = result_docs
        return plan

    def _best_access(
        self,
        model: CostModel,
        request: PathRequest,
        definitions: List[IndexDefinition],
    ) -> Optional[IndexAccessEstimate]:
        best: Optional[IndexAccessEstimate] = None
        for definition in definitions:
            if not index_matches_request(definition, request):
                continue
            estimate = model.index_access(definition, request)
            if best is None or (
                estimate.candidate_docs,
                estimate.scan_cost,
            ) < (best.candidate_docs, best.scan_cost):
                best = estimate
        return best

    def _best_index_plan(
        self,
        collection: str,
        model: CostModel,
        requests: List[PathRequest],
        disjunctions: List[DisjunctiveRequest],
        definitions: List[IndexDefinition],
        result_docs: float,
    ) -> Optional[PlanNode]:
        legs: List[_Leg] = []
        # A lower and an upper bound on the same pattern become one range
        # scan instead of two ANDed probes of the same index.
        for request in merge_range_requests(requests):
            best = self._best_access(model, request, definitions)
            if best is not None:
                legs.append(
                    _Leg(
                        branches=[best],
                        is_or=False,
                        scan_cost=best.scan_cost,
                        candidate_docs=best.candidate_docs,
                    )
                )
        for disjunction in disjunctions:
            branches = [
                self._best_access(model, alternative, definitions)
                for alternative in disjunction.alternatives
            ]
            if any(branch is None for branch in branches):
                continue  # one uncovered branch defeats index ORing
            scan_cost = sum(branch.scan_cost for branch in branches)
            candidate_docs = min(
                float(model.doc_count),
                sum(branch.candidate_docs for branch in branches),
            )
            legs.append(
                _Leg(
                    branches=branches,
                    is_or=True,
                    scan_cost=scan_cost,
                    candidate_docs=candidate_docs,
                )
            )
        if not legs:
            return None

        # Greedy leg selection: most selective leg first; add further legs
        # only while the intersection keeps lowering total cost.
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
        return self._build_index_plan(model, chosen, result_docs, best_cost)

    def _index_plan_cost(
        self,
        model: CostModel,
        legs: List["_Leg"],
        result_docs: float,
    ) -> float:
        scans = sum(leg.scan_cost for leg in legs)
        docs = model.anded_docs([leg.candidate_docs for leg in legs])
        return scans + model.fetch_cost(docs) + model.output_cost(result_docs)

    def _build_index_plan(
        self,
        model: CostModel,
        legs: List["_Leg"],
        result_docs: float,
        total_cost: float,
    ) -> PlanNode:
        nodes: List[PlanNode] = [leg.to_plan_node() for leg in legs]
        source: PlanNode
        if len(nodes) == 1:
            source = nodes[0]
        else:
            source = IndexAnding(nodes)
            source.estimated_cost = sum(n.estimated_cost for n in nodes)
            source.estimated_docs = model.anded_docs(
                [n.estimated_docs for n in nodes]
            )
        collection = legs[0].branches[0].definition.collection
        plan = Fetch(source, collection)
        plan.estimated_cost = total_cost
        plan.estimated_docs = result_docs
        return plan

    def _conjunctive_result_docs(
        self,
        model: CostModel,
        requests: List[PathRequest],
        disjunctions: List[DisjunctiveRequest] = (),
    ) -> float:
        docs = float(model.doc_count)
        fraction = 1.0
        for request in merge_range_requests(requests):
            fraction *= min(1.0, model.request_result_docs(request) / docs)
        for disjunction in disjunctions:
            miss = 1.0
            for alternative in disjunction.alternatives:
                sel = min(1.0, model.request_result_docs(alternative) / docs)
                miss *= 1.0 - sel
            fraction *= 1.0 - miss
        return docs * fraction

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
        probe_definition = self._best_access(inner_model, inner_request, inner_defs)
        nlj_cost = float("inf")
        if probe_definition is not None:
            per_probe = (
                inner_stats.levels * c.io_page
                + matches_per_key * c.cpu_entry
                + min(matches_per_key, float(inner_model.doc_count))
                * (c.doc_fetch + inner_model.avg_nodes_per_doc * c.cpu_node * c.residual_factor)
            )
            nlj_cost = outer_rows * per_probe

        inner_selectivity = self._conjunctive_result_docs(
            inner_model,
            extract_path_requests(variant.right),
            extract_disjunctive_requests(variant.right),
        ) / max(1, inner_model.doc_count)
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
        if statement.document_text:
            try:
                nodes = float(_count_nodes(statement.document_text))
            except Exception:
                nodes = model.avg_nodes_per_doc
        else:
            nodes = model.avg_nodes_per_doc
        cost = model.insert_cost(nodes)
        return OptimizationResult(
            statement=statement, mode=mode, estimated_cost=cost
        )

    def _optimize_delete(
        self,
        statement: DeleteStatement,
        mode: OptimizerMode,
        definitions: List[IndexDefinition],
    ) -> OptimizationResult:
        model = self._cost_model(statement.collection)
        requests = extract_path_requests(statement)
        disjunctions = extract_disjunctive_requests(statement)
        victim_docs = self._conjunctive_result_docs(model, requests, disjunctions)
        scan_plan = self._collection_scan_plan(statement.collection, model, victim_docs)
        best_plan: PlanNode = scan_plan
        index_plan = self._best_index_plan(
            statement.collection, model, requests, disjunctions, definitions, victim_docs
        )
        if index_plan is not None and index_plan.estimated_cost < best_plan.estimated_cost:
            best_plan = index_plan
        from repro.optimizer.plans import used_index_names

        total = best_plan.estimated_cost + model.delete_docs_cost(victim_docs)
        return OptimizationResult(
            statement=statement,
            mode=mode,
            estimated_cost=total,
            plan=best_plan,
            used_indexes=used_index_names(best_plan),
        )

    # ------------------------------------------------------------------
    def _cost_model(self, collection: str) -> CostModel:
        return CostModel(self.database.runstats(collection), self.constants)


def _count_nodes(document_text: str) -> int:
    from repro.xmlmodel.nodes import XmlDocument

    return XmlDocument(parse_fragment(document_text)).node_count()
