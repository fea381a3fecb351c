"""Plan execution against the real database.

Used for the paper's *actual speedup* measurements (Figure 5): the advisor
recommends a configuration, the indexes are physically created, and the
workload is executed and timed both ways.  Virtual indexes are invisible
here -- execution only ever touches built indexes (Section III: "the
virtual indexes cannot be used for query execution").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Set, Tuple

from repro.optimizer.optimizer import OptimizationResult
from repro.optimizer.session import WhatIfSession
from repro.optimizer.plans import (
    CollectionScan,
    Fetch,
    IndexAnding,
    IndexOring,
    IndexScan,
    PlanNode,
)
from repro.optimizer.rewriter import RangeRequest
from repro.query.model import (
    DeleteStatement,
    InsertStatement,
    JoinQuery,
    Query,
    Statement,
    WhereClause,
)
from repro.storage.database import resolve_database
from repro.storage.synopsis import pattern_hits, pattern_nodes
from repro.xmlmodel.nodes import XmlDocument, XmlNode
from repro.xpath.ast import (
    AndPredicate,
    Axis,
    ComparisonPredicate,
    ExistsPredicate,
    Literal,
    LocationPath,
)
from repro.xpath.evaluator import compare_value, evaluate_path
from repro.xpath.patterns import PathPattern, PatternStep, pattern_from_path


@dataclass
class ExecutionResult:
    """Outcome of executing one statement.

    ``index_entries_scanned`` counts the index entries the plan's scans
    touched -- together with ``docs_examined`` it is the deterministic
    "work" metric the accuracy experiments correlate against estimates.
    """

    statement: Statement
    rows: int
    docs_examined: int
    used_indexes: Tuple[str, ...] = ()
    index_entries_scanned: int = 0
    output: List[str] = field(default_factory=list)


class Executor:
    """Executes statements using the plans the optimizer picks."""

    def __init__(
        self,
        database,
        session: Optional[WhatIfSession] = None,
        use_synopsis: bool = True,
    ) -> None:
        #: Execution reads one concrete database (a cluster handed in
        #: here resolves to its primary replica -- scatter-gather over
        #: every shard is :class:`repro.cluster.ClusterExecutor`'s job;
        #: use :func:`create_executor` to pick automatically).
        self.database = resolve_database(database)
        #: All planning goes through the session: NORMAL-mode plans are
        #: cached per statement and invalidated on database modification.
        self.session = session or WhatIfSession(database)
        #: Resolve linear paths and residual predicates through the
        #: per-document path synopsis (matcher bitmap, node-id lookup,
        #: typed slot values) instead of a tree walk.  Results are
        #: bit-identical either way (pinned by
        #: tests/test_executor_synopsis.py and the answer oracle);
        #: ``False`` is the oracle's truth engine.
        self.use_synopsis = use_synopsis
        self._entries_scanned = 0

    # ------------------------------------------------------------------
    def execute(self, statement: Statement, collect_output: bool = False) -> ExecutionResult:
        """Optimize and run one statement."""
        self._entries_scanned = 0
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement)
        result = self.session.plan(statement)
        if isinstance(statement, JoinQuery):
            return self._execute_join(statement, result, collect_output)
        if isinstance(statement, Query):
            return self._execute_query(statement, result, collect_output)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement, result)
        raise TypeError(f"unknown statement type {type(statement)!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _execute_query(
        self, query: Query, optimized: OptimizationResult, collect_output: bool
    ) -> ExecutionResult:
        doc_ids = self._candidate_doc_ids(optimized.plan, query.collection)
        collection = self.database.collection(query.collection)
        residual = self._residual(query)
        rows = 0
        docs_examined = 0
        output: List[str] = []
        if doc_ids is None:
            documents = list(collection)
        else:
            documents = []
            for doc_id in sorted(doc_ids):
                try:
                    documents.append(collection.get(doc_id))
                except KeyError:
                    continue
        for document in documents:
            docs_examined += 1
            for node in _binding_nodes(document, query, residual):
                rows += 1
                if collect_output:
                    output.append(_render_result(node, query))
                else:
                    # Materialize return paths for realistic work.
                    for path in query.return_paths:
                        for target in evaluate_path(node, path):
                            target.string_value()
        return ExecutionResult(
            statement=query,
            rows=rows,
            docs_examined=docs_examined,
            used_indexes=optimized.used_indexes,
            index_entries_scanned=self._entries_scanned,
            output=output,
        )

    def _residual(self, query: Query) -> Optional["_Residual"]:
        """``query``'s compiled per-document plan, or ``None`` (walk the
        tree) when the synopsis is off."""
        return _compile_query(query) if self.use_synopsis else None

    def _candidate_doc_ids(
        self, plan: Optional[PlanNode], collection: str
    ) -> Optional[Set[int]]:
        """Doc ids surviving the index legs, or ``None`` for a full scan."""
        if plan is None:
            return None
        source = plan.source if isinstance(plan, Fetch) else plan
        if isinstance(source, CollectionScan):
            return None
        if isinstance(source, (IndexScan, IndexOring)):
            return self._leg_doc_ids(source)
        if isinstance(source, IndexAnding):
            doc_ids: Optional[Set[int]] = None
            for leg in source.scans:
                ids = self._leg_doc_ids(leg)
                doc_ids = ids if doc_ids is None else (doc_ids & ids)
                if not doc_ids:
                    return set()
            return doc_ids if doc_ids is not None else set()
        return None

    def _leg_doc_ids(self, leg: PlanNode) -> Set[int]:
        if isinstance(leg, IndexScan):
            return self._scan_doc_ids(leg)
        if isinstance(leg, IndexOring):
            union: Set[int] = set()
            for scan in leg.scans:
                union |= self._scan_doc_ids(scan)
            return union
        raise TypeError(f"unexpected plan leg {type(leg)!r}")

    def _scan_doc_ids(self, scan: IndexScan) -> Set[int]:
        index = self.database.index(scan.definition.name)
        request = scan.request
        if isinstance(request, RangeRequest) and not self._one_node_per_doc(
            scan.definition.collection, request.pattern
        ):
            # The merged bounds are two existential conditions: with
            # several nodes on the pattern, a document qualifies when
            # each bound holds on *some* node, not necessarily the same.
            lower, upper = (
                index.request_on_pattern(bound, bound.pattern)
                for bound in request.bounds()
            )
            self._entries_scanned += len(lower) + len(upper)
            return {doc_id for doc_id, _ in lower} & {doc_id for doc_id, _ in upper}
        entries = index.request_on_pattern(request, request.pattern)
        self._entries_scanned += len(entries)
        return {doc_id for doc_id, _ in entries}

    def _one_node_per_doc(self, collection: str, pattern) -> bool:
        """Whether the statistics show no document holding two nodes the
        pattern matches (one matched path, as many nodes as documents) --
        then a range scan over single nodes is exact."""
        stats = self.database.runstats(collection)
        paths = stats.matching_paths(pattern)
        return len(paths) <= 1 and all(
            count == stats.path_doc_counts.get(path) for path, count in paths
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _execute_join(
        self,
        statement: JoinQuery,
        optimized: OptimizationResult,
        collect_output: bool,
    ) -> ExecutionResult:
        """Run the oriented join plan: materialize the outer side's rows
        and their key sets, resolve the inner side via index probes or a
        one-pass hash build, and pair rows on non-empty key intersection."""
        from repro.optimizer.plans import NestedLoopJoin

        plan = optimized.plan
        if not isinstance(plan, NestedLoopJoin):  # pragma: no cover - defensive
            raise TypeError("join statement produced a non-join plan")
        variant = plan.join_query
        outer_query, inner_query = variant.left, variant.right

        docs_examined = 0
        outer_rows = []  # (node, frozenset of key strings)
        outer_doc_ids = self._candidate_doc_ids(plan.outer, outer_query.collection)
        outer_collection = self.database.collection(outer_query.collection)
        if outer_doc_ids is None:
            outer_documents = list(outer_collection)
        else:
            outer_documents = []
            for doc_id in sorted(outer_doc_ids):
                try:
                    outer_documents.append(outer_collection.get(doc_id))
                except KeyError:
                    continue
        outer_residual = self._residual(outer_query)
        inner_residual = self._residual(inner_query)
        for document in outer_documents:
            docs_examined += 1
            for node in _binding_nodes(document, outer_query, outer_residual):
                keys = _join_keys(node, variant.left_join_path)
                if keys:
                    outer_rows.append((node, keys))

        inner_collection = self.database.collection(inner_query.collection)
        pairs = []  # (outer node, inner node)
        use_index = (
            plan.inner_index is not None
            and plan.inner_index.definition.name in self.database.indexes
        )
        if use_index:
            index = self.database.index(plan.inner_index.definition.name)
            request = plan.inner_index.request
            probed_docs: dict = {}
            for outer_node, keys in outer_rows:
                matches = []
                for key in keys:
                    hits = index.lookup_op_on_pattern(
                        "=", Literal(key), request.pattern
                    )
                    self._entries_scanned += len(hits)
                    for doc_id, __ in hits:
                        if doc_id not in probed_docs:
                            try:
                                document = inner_collection.get(doc_id)
                            except KeyError:
                                probed_docs[doc_id] = []
                                continue
                            docs_examined += 1
                            probed_docs[doc_id] = [
                                (n, _join_keys(n, variant.right_join_path))
                                for n in _binding_nodes(
                                    document, inner_query, inner_residual
                                )
                            ]
                        matches.extend(probed_docs[doc_id])
                seen = set()
                for inner_node, inner_keys in matches:
                    if id(inner_node) in seen:
                        continue
                    if keys & inner_keys:
                        seen.add(id(inner_node))
                        pairs.append((outer_node, inner_node))
        else:
            by_key: dict = {}
            for document in inner_collection:
                docs_examined += 1
                for node in _binding_nodes(document, inner_query, inner_residual):
                    node_keys = _join_keys(node, variant.right_join_path)
                    for key in node_keys:
                        by_key.setdefault(key, []).append((node, node_keys))
            for outer_node, keys in outer_rows:
                seen = set()
                for key in keys:
                    for inner_node, inner_keys in by_key.get(key, ()):  # noqa: B020
                        if id(inner_node) not in seen:
                            seen.add(id(inner_node))
                            pairs.append((outer_node, inner_node))

        output: List[str] = []
        if collect_output:
            # render in the ORIGINAL statement's side order, regardless of
            # which orientation the optimizer chose to drive
            swapped = variant.left is not statement.left
            for outer_node, inner_node in pairs:
                outer_bits = _render_result(outer_node, outer_query)
                inner_bits = _render_result(inner_node, inner_query)
                if swapped:
                    output.append(f"{inner_bits} | {outer_bits}")
                else:
                    output.append(f"{outer_bits} | {inner_bits}")
        return ExecutionResult(
            statement=statement,
            rows=len(pairs),
            docs_examined=docs_examined,
            used_indexes=optimized.used_indexes,
            index_entries_scanned=self._entries_scanned,
            output=output,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _execute_insert(self, statement: InsertStatement) -> ExecutionResult:
        if not statement.document_text:
            raise ValueError("insert statement has no document to insert")
        self._insert_document(statement.collection, statement.document_text)
        return ExecutionResult(statement=statement, rows=1, docs_examined=0)

    def _insert_document(self, collection_name: str, text: str) -> None:
        """DML seam: where an insert lands.  The cluster's shard
        executor overrides this to route through the cluster (shard by
        document key, apply to every replica of the owning shard)."""
        self.database.insert_document(collection_name, text)

    def _execute_delete(
        self, statement: DeleteStatement, optimized: OptimizationResult
    ) -> ExecutionResult:
        doc_ids = self._candidate_doc_ids(optimized.plan, statement.collection)
        collection = self.database.collection(statement.collection)
        if doc_ids is None:
            candidates = [d.doc_id for d in collection]
        else:
            candidates = sorted(doc_ids)
        selector = _selector_pattern(statement) if self.use_synopsis else None
        victims: List[int] = []
        docs_examined = 0
        for doc_id in candidates:
            try:
                document = collection.get(doc_id)
            except KeyError:
                continue
            docs_examined += 1
            if _delete_matches(document, statement, selector):
                victims.append(doc_id)
        self._delete_documents(statement.collection, victims)
        return ExecutionResult(
            statement=statement,
            rows=len(victims),
            docs_examined=docs_examined,
            used_indexes=optimized.used_indexes,
            index_entries_scanned=self._entries_scanned,
        )

    def _delete_documents(
        self, collection_name: str, doc_ids: List[int]
    ) -> None:
        """DML seam: apply a delete's victims (found by scanning
        ``self.database``).  The cluster's shard executor overrides this
        to translate local doc ids to document keys and delete from
        every replica of the owning shard."""
        for doc_id in doc_ids:
            self.database.delete_document(collection_name, doc_id)


def create_executor(target, **kwargs):
    """The right executor for a storage target: a scatter-gather
    :class:`~repro.cluster.ClusterExecutor` for a cluster (every shard
    visited, DML routed through shards), a plain :class:`Executor` for a
    database."""
    if hasattr(target, "replica_database"):
        from repro.cluster.executor import ClusterExecutor

        return ClusterExecutor(target, **kwargs)
    return Executor(target, **kwargs)


# ---------------------------------------------------------------------------
# Per-document statement evaluation
# ---------------------------------------------------------------------------

def _join_keys(node: XmlNode, join_path) -> frozenset:
    """The string values a binding node exposes under the join path."""
    return frozenset(
        target.string_value() for target in evaluate_path(node, join_path)
    )


# A statement is compiled once (per distinct statement, cached) into
# synopsis patterns; a document is then answered from its synopsis slots.
# A condition is ``(absolute pattern, op, literal)`` -- ``op`` is ``None``
# for an existence test -- whose pattern is the binding path's steps
# followed by the condition's relative steps.  With child steps only on
# the binding path every binding node sits at the same depth, so a node
# the concatenated pattern reaches lies in exactly one binding node's
# subtree: the one it is tested against.  A ``//`` in the binding path
# would let a nested same-name element split the pattern elsewhere, so
# such statements (and Or, Not and function predicates, and empty clause
# paths) keep the tree walk.

_Condition = Tuple[PathPattern, Optional[str], Optional[Literal]]


class _Residual(NamedTuple):
    """A query's per-document evaluation plan."""

    #: Pattern of the predicate-stripped binding path; ``None`` walks the
    #: tree for binding nodes (predicates off the last step).
    binding: Optional[PathPattern]
    #: Conditions every binding node must meet; ``None`` walks the tree
    #: for the where clauses.
    conditions: Optional[Tuple[_Condition, ...]]
    #: Whether the binding node is the root element (every synopsis hit
    #: lies in its subtree).
    root: bool


@lru_cache(maxsize=4096)
def _shared(pattern: PathPattern) -> PathPattern:
    """The first-seen pattern equal to ``pattern``, so equal patterns of
    different statements share one matcher bitmap."""
    return pattern


@lru_cache(maxsize=1024)
def _compile_query(query: Query) -> _Residual:
    """``query``'s per-document plan, compiled once per distinct query."""
    path = query.binding_path
    linear = not path.has_predicates()
    binding = _shared(pattern_from_path(path))
    root = len(path.steps) == 1
    if linear and not query.where:
        return _Residual(binding, (), root)
    conditions = _conditions(path, query.where)
    if conditions is not None:
        return _Residual(binding, conditions, root)
    return _Residual(binding if linear else None, None, False)


def _conditions(
    path: LocationPath, where
) -> Optional[Tuple[_Condition, ...]]:
    """The binding path's last-step predicates and the where clauses as
    synopsis conditions, or ``None`` when any of them needs the walk."""
    steps = path.steps
    if any(
        step.axis is not Axis.CHILD or step.is_attribute for step in steps
    ) or any(step.predicates for step in steps[:-1]):
        return None
    relative: List[Tuple[LocationPath, Optional[str], Optional[Literal]]] = []
    if not all(_conjuncts(p, relative) for p in steps[-1].predicates):
        return None
    relative.extend((c.path, c.op, c.literal) for c in where)
    prefix = [PatternStep(step.axis, step.name_test) for step in steps]
    conditions = []
    for condition_path, op, literal in relative:
        if (
            condition_path.absolute
            or not condition_path.steps
            or condition_path.has_predicates()
        ):
            return None
        pattern = PathPattern(
            prefix
            + [PatternStep(s.axis, s.name_test) for s in condition_path.steps]
        )
        conditions.append((_shared(pattern), op, literal))
    return tuple(conditions)


def _conjuncts(predicate, out: List) -> bool:
    """Append ``predicate``'s conjuncts to ``out`` as ``(relative path,
    op, literal)``; ``False`` when one is not a comparison or an
    existence test."""
    if isinstance(predicate, AndPredicate):
        return all(_conjuncts(p, out) for p in predicate.conjuncts)
    if isinstance(predicate, ComparisonPredicate):
        out.append((predicate.path, predicate.op, predicate.literal))
        return True
    if isinstance(predicate, ExistsPredicate):
        out.append((predicate.path, None, None))
        return True
    return False


def _selector_pattern(statement: DeleteStatement) -> Optional[PathPattern]:
    """A delete selector's pattern when it is linear (else the walk)."""
    path = statement.selector_path
    if path.has_predicates():
        return None
    return _shared(pattern_from_path(path))


def _binding_nodes(
    document: XmlDocument, query: Query, residual: Optional[_Residual] = None
) -> List[XmlNode]:
    """Binding-variable nodes of ``query`` in ``document`` that satisfy all
    where clauses -- from the synopsis as far as ``residual`` allows, by
    tree walk otherwise (``residual=None`` walks everything)."""
    if residual is None or residual.binding is None:
        nodes = evaluate_path(document, query.binding_path)
    else:
        nodes = pattern_nodes(document, residual.binding)
    if residual is not None and residual.conditions is not None:
        if not residual.conditions or not nodes:
            return nodes
        return _surviving(document, nodes, residual)
    if not query.where:
        return nodes
    return [
        node
        for node in nodes
        if all(_clause_holds(node, clause) for clause in query.where)
    ]


def _surviving(
    document: XmlDocument, nodes: List[XmlNode], residual: _Residual
) -> List[XmlNode]:
    """The binding nodes with a hit of every condition in their preorder
    subtree: ``node_id < hit <= id of the node's last descendant``."""
    hit_lists = []
    for pattern, op, literal in residual.conditions:
        hits = pattern_hits(document, pattern, op, literal)
        if not hits:
            return []
        hit_lists.append(hits)
    if residual.root:
        return nodes
    surviving = []
    for node in nodes:
        first, last = node.node_id, _last_descendant_id(node)
        for hits in hit_lists:
            position = bisect_right(hits, first)
            if position == len(hits) or hits[position] > last:
                break
        else:
            surviving.append(node)
    return surviving


def _last_descendant_id(node: XmlNode) -> int:
    """The id of the last node of ``node``'s preorder subtree (ids run
    element, attributes, children)."""
    while True:
        if node.children:
            node = node.children[-1]
        elif node.attributes:
            node = node.attributes[-1]
        else:
            return node.node_id


def _clause_holds(node: XmlNode, clause: WhereClause) -> bool:
    if clause.path.steps:
        targets = evaluate_path(node, clause.path)
    else:
        targets = [node]
    if not clause.is_comparison:
        return bool(targets)
    return any(
        compare_value(t.typed_value(), clause.op, clause.literal) for t in targets
    )


def _delete_matches(
    document: XmlDocument,
    statement: DeleteStatement,
    selector: Optional[PathPattern] = None,
) -> bool:
    """Whether ``document`` is a victim of ``statement`` -- from the
    synopsis when the selector is linear (``selector``), else by walk."""
    if selector is not None:
        return bool(
            pattern_hits(document, selector, statement.op, statement.literal)
        )
    targets = evaluate_path(document, statement.selector_path)
    if statement.op is None:
        return bool(targets)
    return any(
        compare_value(t.typed_value(), statement.op, statement.literal)
        for t in targets
    )


def _render_result(node: XmlNode, query: Query) -> str:
    pieces = []
    for aggregate in query.aggregates:
        pieces.append(_format_number(_evaluate_aggregate(node, aggregate)))
    for path in query.return_paths:
        for target in evaluate_path(node, path):
            pieces.append(target.string_value())
    if not pieces and not query.return_paths and not query.aggregates:
        return node.string_value()
    return " | ".join(pieces)


def _evaluate_aggregate(node: XmlNode, aggregate) -> float:
    """Compute one aggregate over the nodes the path reaches from the
    binding node.  Non-numeric values are skipped for sum/min/max/avg."""
    targets = (
        evaluate_path(node, aggregate.path) if aggregate.path.steps else [node]
    )
    if aggregate.function == "count":
        return float(len(targets))
    values = []
    for target in targets:
        typed = target.typed_value()
        if isinstance(typed, float):
            values.append(typed)
    if not values:
        return 0.0
    if aggregate.function == "sum":
        return sum(values)
    if aggregate.function == "min":
        return min(values)
    if aggregate.function == "max":
        return max(values)
    return sum(values) / len(values)  # avg


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"
