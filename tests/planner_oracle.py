"""The per-call planner the access table replaced, kept as the oracle.

:class:`OracleOptimizer` plans every query, delete and join from the
statistics on every call -- requests merged, result documents derived,
every visible index probed through ``CostModel.index_access`` -- exactly
as :class:`repro.optimizer.optimizer.Optimizer` did before it read the
per-stamp access table.  ``tests/test_access_table.py`` holds the table
planner ``==`` to it on cost, used indexes and ``explain()`` text.
Inserts and ENUMERATE mode are inherited unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.optimizer.cost import CostModel, IndexAccessEstimate
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerMode,
    index_matches_request,
)
from repro.optimizer.plans import (
    CollectionScan,
    Fetch,
    IndexAnding,
    IndexOring,
    IndexScan,
    NestedLoopJoin,
    PlanNode,
    used_index_names,
)
from repro.optimizer.rewriter import (
    DisjunctiveRequest,
    PathRequest,
    extract_disjunctive_requests,
    extract_path_requests,
    join_key_request,
    merge_range_requests,
)
from repro.query.model import DeleteStatement, JoinQuery, Query
from repro.storage.catalog import IndexDefinition
from repro.storage.index import IndexValueType


@dataclass
class _Leg:
    branches: List[IndexAccessEstimate]
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


class OracleOptimizer(Optimizer):
    """The optimizer with the old per-call query, delete and join
    planning."""

    def _optimize_query(
        self,
        query: Query,
        mode: OptimizerMode,
        definitions: List[IndexDefinition],
        handle=None,
    ) -> OptimizationResult:
        model = self._cost_model(query.collection)
        requests = extract_path_requests(query)
        disjunctions = extract_disjunctive_requests(query)
        result_docs = self._conjunctive_result_docs(model, requests, disjunctions)
        best_plan = self._cheaper_plan(
            query.collection, model, requests, disjunctions, definitions,
            result_docs,
        )
        return OptimizationResult(
            statement=query,
            mode=mode,
            estimated_cost=best_plan.estimated_cost,
            plan=best_plan,
            used_indexes=used_index_names(best_plan),
        )

    def _optimize_delete(
        self,
        statement: DeleteStatement,
        mode: OptimizerMode,
        definitions: List[IndexDefinition],
        handle=None,
    ) -> OptimizationResult:
        model = self._cost_model(statement.collection)
        requests = extract_path_requests(statement)
        disjunctions = extract_disjunctive_requests(statement)
        victim_docs = self._conjunctive_result_docs(model, requests, disjunctions)
        best_plan = self._cheaper_plan(
            statement.collection, model, requests, disjunctions, definitions,
            victim_docs,
        )
        return OptimizationResult(
            statement=statement,
            mode=mode,
            estimated_cost=(
                best_plan.estimated_cost + model.delete_docs_cost(victim_docs)
            ),
            plan=best_plan,
            used_indexes=used_index_names(best_plan),
        )

    def _cheaper_plan(
        self, collection, model, requests, disjunctions, definitions,
        result_docs,
    ) -> PlanNode:
        best_plan = self._collection_scan_plan(collection, model, result_docs)
        index_plan = self._best_index_plan(
            model, requests, disjunctions, definitions, result_docs
        )
        if index_plan is not None and index_plan.estimated_cost < best_plan.estimated_cost:
            best_plan = index_plan
        return best_plan

    def _collection_scan_plan(
        self, collection: str, model: CostModel, result_docs: float
    ) -> PlanNode:
        scan = CollectionScan(collection)
        scan.estimated_cost = model.collection_scan_cost()
        scan.estimated_docs = float(model.doc_count)
        plan = Fetch(scan, collection)
        plan.estimated_cost = scan.estimated_cost + model.output_cost(result_docs)
        plan.estimated_docs = result_docs
        return plan

    def _oracle_best_access(
        self,
        model: CostModel,
        request: PathRequest,
        definitions: Sequence[IndexDefinition],
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
        model: CostModel,
        requests: List[PathRequest],
        disjunctions: List[DisjunctiveRequest],
        definitions: List[IndexDefinition],
        result_docs: float,
    ) -> Optional[PlanNode]:
        legs: List[_Leg] = []
        for request in merge_range_requests(requests):
            best = self._oracle_best_access(model, request, definitions)
            if best is not None:
                legs.append(_Leg([best], False, best.scan_cost, best.candidate_docs))
        for disjunction in disjunctions:
            branches = [
                self._oracle_best_access(model, alternative, definitions)
                for alternative in disjunction.alternatives
            ]
            if any(branch is None for branch in branches):
                continue
            scan_cost = sum(branch.scan_cost for branch in branches)
            candidate_docs = min(
                float(model.doc_count),
                sum(branch.candidate_docs for branch in branches),
            )
            legs.append(_Leg(branches, True, scan_cost, candidate_docs))
        if not legs:
            return None
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
        nodes: List[PlanNode] = [leg.to_plan_node() for leg in chosen]
        if len(nodes) == 1:
            source = nodes[0]
        else:
            source = IndexAnding(nodes)
            source.estimated_cost = sum(n.estimated_cost for n in nodes)
            source.estimated_docs = model.anded_docs(
                [n.estimated_docs for n in nodes]
            )
        plan = Fetch(source, chosen[0].branches[0].definition.collection)
        plan.estimated_cost = best_cost
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

    def _plan_join_variant(
        self,
        variant: JoinQuery,
        mode: OptimizerMode,
        virtual_definitions: Sequence[IndexDefinition],
    ) -> OptimizationResult:
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
        hash_cost = (
            inner_model.collection_scan_cost()
            + inner_model.doc_count * c.cpu_entry
            + outer_rows * c.cpu_entry
        )
        probe = self._oracle_best_access(inner_model, inner_request, inner_defs)
        nlj_cost = float("inf")
        if probe is not None:
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
            inner_scan = IndexScan(probe.definition, inner_request)
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
