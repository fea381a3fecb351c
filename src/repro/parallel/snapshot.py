"""Read-only state shipped to parallel what-if workers.

The parallel engine sends each worker one :class:`SnapshotBundle` -- the
database as store-partitioned blobs (shell + one blob per collection,
out of the parent's snapshot cache), the optimizer's cost constants, the
registered workload statements, and a sanitized retry policy -- via the
pool initializer, *once per worker*.  DML in the parent then ships only
a :class:`SnapshotSync` delta (the blobs whose epoch/stamp key moved)
through a spill file every worker reads lazily, instead of discarding
the pool and re-pickling the world.  Tasks stay tiny: a statement
reference (an index into the snapshot's statement tuple, or an inline
statement for late arrivals), the projected virtual index definitions,
and a task id for the deterministic merge.  The in-process executors
ship nothing: their runtime reads the live database.

Everything here must pickle cleanly across a spawn boundary:

* :class:`~repro.xpath.patterns.PathPattern` pickles as its canonical
  text, so workers re-intern paths against their own process-local
  ``GLOBAL_TABLE`` instead of inheriting stale bitmap ids;
* :class:`~repro.storage.statistics.DataStatistics` drops its interned
  id caches (and its process-local lock) on pickle for the same reason;
* :class:`~repro.xmlmodel.nodes.XmlDocument` drops its cached
  :class:`~repro.storage.synopsis.DocumentSynopsis` on pickle -- the
  synopsis caches interned path ids and is cheap to rebuild, so workers
  derive their own coherent copies lazily from the shipped trees
  instead of inheriting ids minted in the parent process;
* :class:`~repro.robustness.policy.RetryPolicy` carries injectable
  ``sleep``/``clock`` callables (tests pass lambdas), so the snapshot
  stores a :func:`sanitize_retry_policy` copy with the default
  callables and the same numeric schedule.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.optimizer.cost import CostConstants
from repro.optimizer.optimizer import OptimizationResult
from repro.query.model import Statement
from repro.robustness.policy import RetryPolicy
from repro.storage.catalog import IndexDefinition
from repro.storage.database import Database

#: Task modes a worker understands (values of
#: :class:`~repro.optimizer.optimizer.OptimizerMode` restricted to the
#: two what-if modes the engine shards).
EVALUATE_MODE = "evaluate"
ENUMERATE_MODE = "enumerate"


def sanitize_retry_policy(policy: RetryPolicy) -> RetryPolicy:
    """A picklable copy of ``policy``: same numeric schedule, default
    ``sleep``/``clock`` (test-injected lambdas do not cross process
    boundaries)."""
    return RetryPolicy(
        max_attempts=policy.max_attempts,
        base_delay_seconds=policy.base_delay_seconds,
        backoff_multiplier=policy.backoff_multiplier,
        max_delay_seconds=policy.max_delay_seconds,
        call_timeout_seconds=policy.call_timeout_seconds,
    )


class StaleSnapshotError(RuntimeError):
    """A worker was handed a chunk requiring a sync generation it cannot
    reach (missing/unreadable sync file, or a file older than required).
    Escapes the worker, where the pool wraps it in
    :class:`~repro.parallel.executors.PoolBrokenError` -- the parent
    falls back to serial and rebuilds the pool, the engine's standing
    backstop."""


@dataclass
class SnapshotBundle:
    """The store-partitioned base payload shipped once per process
    worker: the database as a shell blob plus per-collection blobs
    (straight out of the parent's
    :class:`~repro.storage.snapshots.SnapshotStore`, so an unchanged
    collection costs zero serialization), plus the cost constants, the
    registered statements and a sanitized retry policy.  Workers compose
    their database from the blobs; afterwards the parent ships only
    :class:`SnapshotSync` deltas."""

    shell: bytes
    collections: Dict[str, bytes]
    constants: Optional[CostConstants]
    statements: Tuple[Statement, ...]
    retry_policy: Optional[RetryPolicy] = None

    def payload_bytes(self) -> int:
        return len(self.shell) + sum(
            len(blob) for blob in self.collections.values()
        )

    def compose(self) -> Database:
        from repro.storage.snapshots import compose_database, load_parts

        return compose_database(
            pickle.loads(self.shell), load_parts(self.collections)
        )


@dataclass
class SnapshotSync:
    """One delta generation, written to a spill file all workers read.

    Carries the current shell plus every collection blob whose cache key
    moved since the *base ship* (not since the previous sync): keys move
    monotonically, so the diff-vs-base is a superset of the diff against
    any state a worker may hold, and applying the newest sync from any
    generation -- including a worker that missed intermediate ones --
    converges on the parent's state.  ``statements_tail`` extends the
    base statement tuple so statements registered since the ship can
    travel by reference again."""

    version: int
    shell: bytes
    collections: Dict[str, bytes]
    removed: Tuple[str, ...] = ()
    base_statement_count: int = 0
    statements_tail: Tuple[Statement, ...] = ()

    def payload_bytes(self) -> int:
        return len(self.shell) + sum(
            len(blob) for blob in self.collections.values()
        )


@dataclass
class WorkerTask:
    """One (statement, projected definitions) costing request.

    ``statement_ref`` indexes the snapshot's statement tuple;
    ``statement`` is the inline fallback for statements registered after
    the snapshot was shipped (or never registered).
    """

    task_id: int
    mode: str  # EVALUATE_MODE | ENUMERATE_MODE
    statement_ref: int = -1
    statement: Optional[Statement] = None
    definitions: Tuple[IndexDefinition, ...] = ()


@dataclass
class WorkerChunk:
    """A contiguous slice of a batch, dispatched as one pool task.

    ``required_version``/``sync_path`` drive the delta protocol: a
    process worker whose runtime is older than ``required_version``
    loads the :class:`SnapshotSync` at ``sync_path`` (once -- later
    chunks at the same version are no-ops) before evaluating.  The
    in-process executors ignore both (they read the live database)."""

    chunk_id: int
    tasks: List[WorkerTask] = field(default_factory=list)
    required_version: int = 0
    sync_path: Optional[str] = None


@dataclass
class TaskOutcome:
    """A worker's answer for one task.

    ``result`` carries the full :class:`OptimizationResult` with its
    ``statement`` stripped (the parent owns the statement object and
    restores it at merge time).  ``fatal`` is set when both the
    optimizer and the heuristic fallback failed -- the parent raises
    :class:`~repro.robustness.errors.FatalAdvisorError`, exactly as the
    serial session would have.
    """

    task_id: int
    result: Optional[OptimizationResult] = None
    degraded: bool = False
    retries: int = 0
    reason: Optional[str] = None
    fatal: Optional[str] = None


@dataclass
class ChunkOutcome:
    """All of one chunk's outcomes plus the worker that produced them."""

    chunk_id: int
    worker: str
    outcomes: List[TaskOutcome] = field(default_factory=list)
