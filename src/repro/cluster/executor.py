"""Cluster-side statement execution: scatter, route, gather.

A query over a sharded collection must visit every shard once; on each
shard the :class:`~repro.cluster.router.Router` picks the replica whose
index configuration prices the statement cheapest.  The
:class:`ClusterExecutor` runs one :class:`ShardExecutor` per routed
replica -- the plain :class:`~repro.optimizer.executor.Executor` with
the two DML seams overridden so writes stay cluster-correct:

* inserts route through :meth:`Cluster.insert_document` (shard by
  document key, one parse, applied to every replica of the owning
  shard);
* delete victims are found by scanning the routed replica, then
  translated from shard-local doc ids to document keys and deleted from
  *every* replica of the shard, keeping per-replica delta statistics
  and epoch invalidation correct on all copies.

Joins execute per shard (co-partitioned semantics): each shard joins
its own slice of both collections.  With one shard this is exact; with
several it is the standard local-join approximation -- pairs spanning
shards are not produced.

Gathered results sum ``rows``/``docs_examined``/``index_entries_scanned``
across shards, union ``used_indexes`` in first-use order, and
concatenate output in shard order, so a 1x1 cluster's results are
bit-identical to a single database's (pinned by
``tests/test_cluster_differential.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.optimizer.executor import ExecutionResult, Executor
from repro.query.model import InsertStatement, Statement


class ShardExecutor(Executor):
    """An :class:`Executor` bound to one replica of one shard, writing
    through the cluster."""

    def __init__(
        self,
        cluster,
        shard: int,
        replica: int,
        use_synopsis: bool = True,
    ) -> None:
        super().__init__(
            cluster.replica_database(shard, replica),
            # Share the router's per-replica planning session, so
            # routing decisions and execution plans hit one cache.
            session=cluster.router.session_for(shard, replica),
            use_synopsis=use_synopsis,
        )
        self.cluster = cluster
        self.shard = shard
        self.replica = replica

    def _insert_document(self, collection_name: str, text: str) -> None:
        self.cluster.insert_document(collection_name, text)

    def _delete_documents(
        self, collection_name: str, doc_ids: List[int]
    ) -> None:
        for local_id in doc_ids:
            key = self.cluster.key_for(collection_name, self.shard, local_id)
            self.cluster.delete_document(collection_name, key)


class ClusterExecutor:
    """Executes statements against every shard of a cluster, routing
    each shard's work to its cost-cheapest replica."""

    def __init__(self, cluster, use_synopsis: bool = True) -> None:
        self.cluster = cluster
        self.router = cluster.router
        self.use_synopsis = use_synopsis
        self._executors: Dict[Tuple[int, int], ShardExecutor] = {}

    def executor_for(self, shard: int, replica: int) -> ShardExecutor:
        key = (shard, replica)
        executor = self._executors.get(key)
        if executor is None:
            executor = ShardExecutor(
                self.cluster, shard, replica, use_synopsis=self.use_synopsis
            )
            self._executors[key] = executor
        return executor

    def execute(
        self, statement: Statement, collect_output: bool = False
    ) -> ExecutionResult:
        """Route and run one statement; gathered cluster-wide result."""
        if isinstance(statement, InsertStatement):
            if not statement.document_text:
                raise ValueError("insert statement has no document to insert")
            self.cluster.insert_document(
                statement.collection, statement.document_text
            )
            return ExecutionResult(statement=statement, rows=1, docs_examined=0)
        partials = []
        for shard, replica in self.router.route_statement(statement):
            partials.append(
                self.executor_for(shard, replica).execute(
                    statement, collect_output=collect_output
                )
            )
        return self._gather(statement, partials)

    @staticmethod
    def _gather(
        statement: Statement, partials: List[ExecutionResult]
    ) -> ExecutionResult:
        used: List[str] = []
        for partial in partials:
            for name in partial.used_indexes:
                if name not in used:
                    used.append(name)
        output: List[str] = []
        for partial in partials:
            output.extend(partial.output)
        return ExecutionResult(
            statement=statement,
            rows=sum(p.rows for p in partials),
            docs_examined=sum(p.docs_examined for p in partials),
            used_indexes=tuple(used),
            index_entries_scanned=sum(p.index_entries_scanned for p in partials),
            output=output,
        )
