"""The parallel what-if evaluation engine.

:class:`ParallelWhatIfSession` is a drop-in
:class:`~repro.optimizer.session.WhatIfSession` whose batch entry
points (:meth:`evaluate_batch` / :meth:`enumerate_batch`) shard uncached
optimizer calls across a worker pool.  The contract -- enforced by
``tests/test_parallel_differential.py`` -- is that a recommendation is
**bit-identical** to the serial session's for every worker count and
executor, including the instrumentation counters.  That shapes the whole
design:

* Batches replicate the serial cache walk exactly: the first occurrence
  of an uncached projected key in a batch counts one miss and is
  scheduled; later occurrences count the hit the serial loop would have
  recorded (the earlier iteration had already cached the key by then).
  Only the scheduled misses fan out.
* Results are merged **in task order**, never completion order, so
  cache contents, degraded-sample logs, and counter totals do not
  depend on scheduling.
* Workers never probe speculatively: the engine computes precisely the
  calls the serial session would have made, just concurrently.

Robustness (PR 3 semantics) is preserved under concurrency: each worker
runs the session's retry policy around every optimizer call and
degrades to the heuristic fallback estimator on its own snapshot;
degraded/retry counts merge into the parent's counters.  A worker where
even the fallback fails reports a fatal outcome and the parent raises
:class:`~repro.robustness.errors.FatalAdvisorError` -- the advisor's
only failure mode.  A *pool* failure (killed worker, pickling error) is
not fatal: the batch is recomputed serially in-process.

This module is also the process-worker entry point
(:func:`_initialize_worker` / :func:`_evaluate_chunk_in_worker` must be
importable by spawn children), and the one place outside
``optimizer/session.py`` allowed to construct an
:class:`~repro.optimizer.optimizer.Optimizer`: each worker owns one,
over its own snapshot.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.optimizer.cost import CostConstants
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerMode,
)
from repro.optimizer.session import DEGRADED_LOG_LIMIT, WhatIfSession
from repro.parallel.executors import (
    DEFAULT_CHUNKS_PER_WORKER,
    PoolBrokenError,
    WorkerPool,
    available_workers,
    chunk_count,
    chunk_spans,
    resolve_executor,
    resolve_workers,
)
from repro.parallel.snapshot import (
    ENUMERATE_MODE,
    EVALUATE_MODE,
    ChunkOutcome,
    SnapshotBundle,
    SnapshotSync,
    StaleSnapshotError,
    TaskOutcome,
    WorkerChunk,
    WorkerTask,
    sanitize_retry_policy,
)
from repro.query.model import Statement
from repro.robustness.errors import (
    DegradedEstimate,
    FatalAdvisorError,
    RetryableOptimizerError,
)
from repro.robustness.faults import maybe_inject
from repro.robustness.policy import RetryPolicy
from repro.storage.catalog import IndexDefinition
from repro.storage.database import Database
from repro.storage.snapshots import (
    SnapshotStore,
    capture_part,
    compose_database,
    load_parts,
)

_MODE_BY_NAME = {
    EVALUATE_MODE: OptimizerMode.EVALUATE,
    ENUMERATE_MODE: OptimizerMode.ENUMERATE,
}
_SITE_BY_MODE = {
    EVALUATE_MODE: "optimizer.evaluate",
    ENUMERATE_MODE: "optimizer.enumerate",
}


def worker_label() -> str:
    """Identity of the executing worker, for per-worker stats."""
    return f"pid{os.getpid()}:{threading.current_thread().name}"


class WorkerRuntime:
    """The worker-side mini-session: one optimizer over one snapshot.

    Mirrors ``WhatIfSession._invoke``: fault-injection site, retry
    policy, degradation to the heuristic fallback -- but reports
    retry/degraded events back in the :class:`TaskOutcome` instead of
    mutating counters (the parent owns the counters)."""

    def __init__(
        self,
        database: Database,
        constants: Optional[CostConstants],
        statements: Tuple[Statement, ...],
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.database = database
        self.constants = constants
        self.optimizer = Optimizer(database, constants)
        self.statements = statements
        self.retry_policy = retry_policy or RetryPolicy()
        self._fallback = None
        #: Delta-protocol generation this runtime has applied (0 = the
        #: base ship).  In-process runtimes read the live database and
        #: never advance it.
        self.version = 0
        self._base_statements = statements

    def apply_sync(self, sync: SnapshotSync) -> None:
        """Patch the runtime to the parent's state: swap in the synced
        collections (unchanged ones carry over by reference -- their
        documents are not re-deserialized), recompose the database from
        the synced shell, and rebuild the optimizer and fallback over
        it.  Syncs diff against the base ship, so this converges from
        any generation the worker happens to hold."""
        if sync.version <= self.version:
            return
        shell = pickle.loads(sync.shell)
        parts = load_parts(sync.collections)
        for name in shell.collection_order:
            if name not in parts:
                parts[name] = capture_part(self.database, name)
        self.database = compose_database(shell, parts)
        self.optimizer = Optimizer(self.database, self.constants)
        self.statements = (
            self._base_statements[: sync.base_statement_count]
            + sync.statements_tail
        )
        self._fallback = None
        self.version = sync.version

    def _fallback_model(self):
        if self._fallback is None:
            # Imported lazily, as in WhatIfSession._fallback, to keep
            # the import graph acyclic.
            from repro.baselines.decoupled import HeuristicCostModel

            self._fallback = HeuristicCostModel(self.database)
        return self._fallback

    def _statement(self, task: WorkerTask) -> Statement:
        if task.statement is not None:
            return task.statement
        return self.statements[task.statement_ref]

    def evaluate_chunk(self, chunk: WorkerChunk) -> ChunkOutcome:
        outcomes = [self._evaluate_task(task) for task in chunk.tasks]
        return ChunkOutcome(chunk.chunk_id, worker_label(), outcomes)

    def _evaluate_task(self, task: WorkerTask) -> TaskOutcome:
        statement = self._statement(task)
        mode = _MODE_BY_NAME[task.mode]
        site = _SITE_BY_MODE[task.mode]
        retries = 0

        def note_retry(exc: Exception) -> None:
            nonlocal retries
            retries += 1

        def call() -> OptimizationResult:
            maybe_inject(site)
            return self.optimizer.optimize(statement, mode, task.definitions)

        try:
            try:
                result = self.retry_policy.run(call, on_retry=note_retry)
            except RetryableOptimizerError as exc:
                return self._degrade(task, statement, mode, exc, retries)
        except Exception as exc:  # fallback failure or optimizer bug
            return TaskOutcome(
                task.task_id,
                retries=retries,
                fatal=f"{type(exc).__name__}: {exc}",
            )
        return TaskOutcome(
            task.task_id,
            result=replace(result, statement=None),
            retries=retries,
        )

    def _degrade(
        self,
        task: WorkerTask,
        statement: Statement,
        mode: OptimizerMode,
        cause: Exception,
        retries: int,
    ) -> TaskOutcome:
        if mode is OptimizerMode.ENUMERATE:
            cost = 0.0
        else:
            cost = self._fallback_model().estimate_cost(
                statement, task.definitions
            )
        result = OptimizationResult(None, mode, cost, degraded=True)
        return TaskOutcome(
            task.task_id,
            result=result,
            degraded=True,
            retries=retries,
            reason=str(cause),
        )


# ---------------------------------------------------------------------------
# Process-worker entry points (must be module-level for spawn pickling)
# ---------------------------------------------------------------------------

_RUNTIME: Optional[WorkerRuntime] = None


def _initialize_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the base :class:`SnapshotBundle` once
    per worker and compose its database."""
    global _RUNTIME
    bundle = pickle.loads(payload)
    _RUNTIME = WorkerRuntime(
        bundle.compose(),
        bundle.constants,
        bundle.statements,
        bundle.retry_policy,
    )


def _load_sync(chunk: WorkerChunk) -> SnapshotSync:
    if not chunk.sync_path:
        raise StaleSnapshotError(
            f"chunk requires sync generation {chunk.required_version} "
            f"but names no sync file"
        )
    try:
        with open(chunk.sync_path, "rb") as handle:
            sync = pickle.load(handle)
    except Exception as exc:
        raise StaleSnapshotError(
            f"sync file {chunk.sync_path!r} unreadable: {exc}"
        ) from exc
    if sync.version < chunk.required_version:
        raise StaleSnapshotError(
            f"sync file at generation {sync.version} older than required "
            f"{chunk.required_version}"
        )
    return sync


def _evaluate_chunk_in_worker(chunk: WorkerChunk) -> ChunkOutcome:
    if _RUNTIME is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker runtime was not initialized")
    if chunk.required_version > _RUNTIME.version:
        _RUNTIME.apply_sync(_load_sync(chunk))
    return _RUNTIME.evaluate_chunk(chunk)


@dataclass
class _Job:
    """One scheduled optimizer call and the batch positions it serves."""

    statement: Statement
    mode: str
    definitions: Tuple[IndexDefinition, ...]
    key: Tuple
    positions: List[int]
    result: Optional[OptimizationResult] = None


class ParallelWhatIfSession(WhatIfSession):
    """A what-if session whose batch calls fan out to a worker pool.

    ``workers=None`` auto-detects (scheduler-visible CPUs); ``executor``
    is ``process`` (default; ``fork``/``spawn``/``forkserver`` pin the
    start method), ``thread``, or ``serial`` (inline, for exercising the
    chunk/merge machinery deterministically).  Everything else matches
    :class:`WhatIfSession`, including single-call behavior -- only
    batches parallelize.
    """

    #: A sync payload larger than this fraction of the base payload
    #: stops being a delta worth shipping: discard the pool and re-ship
    #: a fresh base (cheap -- its blobs are already in the store).
    REBASE_FRACTION = 0.5

    def __init__(
        self,
        database: Database,
        constants: Optional[CostConstants] = None,
        *,
        workers=None,
        executor: Optional[str] = None,
        chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER,
        min_batch: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(database, constants, **kwargs)
        self.workers = resolve_workers(workers, default=available_workers())
        self.executor_kind, self.start_method = resolve_executor(executor)
        self.chunks_per_worker = max(1, chunks_per_worker)
        #: Batches smaller than this run inline through ``_invoke``
        #: (identical to the serial session) -- pool dispatch overhead
        #: is not worth one or two calls.
        self.min_batch = max(1, min_batch)
        self._constants = constants
        self._pool: Optional[WorkerPool] = None
        self._pool_finalizer = None
        self._local_runtime: Optional[WorkerRuntime] = None
        self._snapshot_payload: Optional[bytes] = None
        #: Snapshot engine driving the base/delta ship protocol,
        #: created on first use (only process pools ship anything).
        self._snapshot_store: Optional[SnapshotStore] = None
        self._base_keys = None
        self._base_statement_count = 0
        self._base_payload_bytes = 0
        self._sync_version = 0
        self._sync_path: Optional[str] = None
        self._sync_dir: Optional[str] = None
        self._sync_dir_finalizer = None
        self._sync_dirty = False
        #: Statements shipped (or shippable) to workers by reference.
        self._registered: Dict[Statement, int] = {}
        self._registered_list: List[Statement] = []
        #: How many registered statements the current snapshot/runtime
        #: carries; later registrations travel inline until a rebuild.
        self._shipped_count = 0
        #: Per-worker task counts plus engine counters, surfaced under
        #: ``stats()["workers"]`` (excluded from differential
        #: comparisons -- scheduling-dependent).
        self._worker_tasks: Dict[str, int] = {}
        self._parallel_stats = {
            "batches": 0,
            "parallel_batches": 0,
            "chunks": 0,
            "parallel_tasks": 0,
            "pool_failures": 0,
        }
        #: Ship accounting for the delta protocol, surfaced under
        #: ``stats()["workers"]["shipping"]``.
        self._ship_stats = {
            "base_ships": 0,
            "base_bytes": 0,
            "delta_syncs": 0,
            "delta_bytes": 0,
            "rebases": 0,
        }

    # ------------------------------------------------------------------
    # Statement registration / snapshots
    # ------------------------------------------------------------------
    def register_statements(self, statements) -> None:
        """Record statements so tasks can reference them by index
        instead of pickling them into every chunk.  Registration after
        the snapshot shipped is fine -- those statements just travel
        inline until the next snapshot rebuild."""
        for statement in statements:
            if statement not in self._registered:
                self._registered[statement] = len(self._registered_list)
                self._registered_list.append(statement)

    def snapshot_store(self) -> SnapshotStore:
        """The session's snapshot engine (created on first use)."""
        if self._snapshot_store is None:
            self._snapshot_store = SnapshotStore()
        return self._snapshot_store

    def _payload(self) -> bytes:
        if self._snapshot_payload is None:
            try:
                self._snapshot_payload = self._build_base_payload()
            except PoolBrokenError:
                raise
            except Exception as exc:
                raise PoolBrokenError(
                    f"snapshot is not picklable: {exc}"
                ) from exc
        return self._snapshot_payload

    def _build_base_payload(self) -> bytes:
        """The partitioned base payload for a fresh pool, plus the base
        bookkeeping the delta protocol diffs against."""
        store = self.snapshot_store()
        shell, blobs = store.blobs(self.database)
        self._shipped_count = len(self._registered_list)
        bundle = SnapshotBundle(
            shell=shell,
            collections=blobs,
            constants=self._constants,
            statements=tuple(self._registered_list),
            retry_policy=sanitize_retry_policy(self.retry_policy),
        )
        payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        self._base_keys = store.current_keys(self.database)
        self._base_statement_count = self._shipped_count
        self._base_payload_bytes = bundle.payload_bytes()
        self._sync_version = 0
        self._drop_sync_file()
        self._sync_dirty = False
        self._ship_stats["base_ships"] += 1
        self._ship_stats["base_bytes"] += self._base_payload_bytes
        return payload

    # ------------------------------------------------------------------
    # Delta sync protocol
    # ------------------------------------------------------------------
    def _sync_directory(self) -> str:
        if self._sync_dir is None:
            self._sync_dir = tempfile.mkdtemp(prefix="repro-snapsync-")
            self._sync_dir_finalizer = weakref.finalize(
                self, shutil.rmtree, self._sync_dir, True
            )
        return self._sync_dir

    def _drop_sync_file(self) -> None:
        path, self._sync_path = self._sync_path, None
        if path is not None:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass

    def _prepare_sync(self) -> None:
        """Bring a live pool up to date before dispatch: write one sync
        generation covering everything that diverged from the base ship,
        or -- when the divergence stopped being a delta worth shipping --
        discard the pool so the next dispatch re-ships a fresh base."""
        if not self._sync_dirty and self._shipped_count == len(
            self._registered_list
        ):
            return
        store = self.snapshot_store()
        changed, removed = store.delta(self.database, self._base_keys or {})
        sync = SnapshotSync(
            version=self._sync_version + 1,
            shell=store.shell_blob(self.database),
            collections=changed,
            removed=removed,
            base_statement_count=self._base_statement_count,
            statements_tail=tuple(
                self._registered_list[self._base_statement_count:]
            ),
        )
        payload_bytes = sync.payload_bytes()
        if payload_bytes > self.REBASE_FRACTION * self._base_payload_bytes:
            self._ship_stats["rebases"] += 1
            self._discard_pool()
            self._snapshot_payload = None
            self._sync_dirty = False
            return
        directory = self._sync_directory()
        path = os.path.join(directory, f"sync-{sync.version}.pkl")
        temp_path = path + ".tmp"
        with open(temp_path, "wb") as handle:
            pickle.dump(sync, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_path, path)
        self._drop_sync_file()
        self._sync_path = path
        self._sync_version = sync.version
        self._shipped_count = len(self._registered_list)
        self._sync_dirty = False
        self._ship_stats["delta_syncs"] += 1
        self._ship_stats["delta_bytes"] += payload_bytes

    def _runtime(self) -> WorkerRuntime:
        """The in-process runtime (thread/serial executors and the
        serial fallback path).  Shares the live database -- workers only
        read, and the structures they touch are append-only or guarded."""
        if self._local_runtime is None:
            self._shipped_count = max(
                self._shipped_count, len(self._registered_list)
            )
            self._local_runtime = WorkerRuntime(
                self.database,
                self._constants,
                tuple(self._registered_list[: self._shipped_count]),
                self.retry_policy,
            )
        return self._local_runtime

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            if self.executor_kind == "process":
                pool = WorkerPool(
                    "process",
                    self.workers,
                    initializer=_initialize_worker,
                    initargs=(self._payload(),),
                    start_method=self.start_method,
                )
            else:
                pool = WorkerPool(self.executor_kind, self.workers)
            self._pool = pool
            self._pool_finalizer = weakref.finalize(self, pool.shutdown, False)
        return self._pool

    def _discard_pool(self, wait: bool = False) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def invalidate(self) -> None:
        super().invalidate()
        self._drop_stale_workers()

    def _invalidate_collections(self, collections) -> None:
        # The scoped drop keeps cache entries for untouched collections;
        # worker state follows suit under the delta protocol -- the next
        # dispatch syncs process workers with only the collections whose
        # epoch/stamp key moved.
        super()._invalidate_collections(collections)
        self._drop_stale_workers()

    def _drop_stale_workers(self) -> None:
        # Process workers hold a *copy* of the database; a modification
        # makes that copy stale.  A live pool stays up and the next
        # dispatch ships a sync covering exactly the diverged
        # collections; without one the next pool ships a fresh base.
        # The in-process runtime reads the live database (its statistics
        # absorb DML deltas in place), so it stays either way.
        if self.executor_kind == "process" and self._pool is not None:
            self._sync_dirty = True
        else:
            self._snapshot_payload = None

    def close(self) -> None:
        """Shut down the worker pool (idempotent; also runs at GC)."""
        # Waiting here lets the executor's management thread finish and
        # close its wakeup pipe before interpreter atexit pokes it;
        # wait=False on an orderly close races that and prints an
        # "Exception ignored ... Bad file descriptor" traceback.
        self._discard_pool(wait=True)
        self._snapshot_payload = None
        self._local_runtime = None
        self._drop_sync_file()
        if self._sync_dir_finalizer is not None:
            self._sync_dir_finalizer()
            self._sync_dir_finalizer = None
        self._sync_dir = None

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        tasks: Sequence[Tuple[Statement, Sequence[IndexDefinition]]],
        use_cache: bool = True,
    ) -> List[OptimizationResult]:
        tasks = list(tasks)
        if not tasks:
            return []
        self._sync()
        results: List[Optional[OptimizationResult]] = [None] * len(tasks)
        jobs: List[_Job] = []
        scheduled: Dict[Tuple, _Job] = {}
        for position, (statement, definitions) in enumerate(tasks):
            sid = self.statement_id(statement)
            projected, keys = self._project(sid, definitions)
            key = (sid, OptimizerMode.EVALUATE.value, keys)
            if use_cache:
                cached = self._result_cache.get(key)
                if cached is not None:
                    self.counters.cache_hits += 1
                    results[position] = cached
                    continue
                job = scheduled.get(key)
                if job is not None:
                    # The serial loop would have cached this key by the
                    # time it reached this task: count that hit.
                    self.counters.cache_hits += 1
                    job.positions.append(position)
                    continue
                self.counters.cache_misses += 1
            job = _Job(statement, EVALUATE_MODE, projected, key, [position])
            jobs.append(job)
            if use_cache:
                scheduled[key] = job
        self._execute_jobs(jobs)
        for job in jobs:
            for position in job.positions:
                results[position] = job.result
        return results

    def enumerate_batch(
        self, statements: Sequence[Statement]
    ) -> List[OptimizationResult]:
        statements = list(statements)
        if not statements:
            return []
        self._sync()
        results: List[Optional[OptimizationResult]] = [None] * len(statements)
        jobs: List[_Job] = []
        scheduled: Dict[Tuple, _Job] = {}
        for position, statement in enumerate(statements):
            key = (self.statement_id(statement), OptimizerMode.ENUMERATE.value)
            cached = self._result_cache.get(key)
            if cached is not None:
                self.counters.cache_hits += 1
                results[position] = cached
                continue
            job = scheduled.get(key)
            if job is not None:
                self.counters.cache_hits += 1
                job.positions.append(position)
                continue
            self.counters.cache_misses += 1
            job = _Job(statement, ENUMERATE_MODE, (), key, [position])
            jobs.append(job)
            scheduled[key] = job
        self._execute_jobs(jobs)
        for job in jobs:
            for position in job.positions:
                results[position] = job.result
        return results

    # ------------------------------------------------------------------
    # Execution and merge
    # ------------------------------------------------------------------
    def _execute_jobs(self, jobs: List[_Job]) -> None:
        if not jobs:
            return
        self._parallel_stats["batches"] += 1
        if self.workers <= 0 or len(jobs) < self.min_batch:
            self._execute_serially(jobs)
            return
        try:
            outcomes = self._dispatch(jobs)
        except PoolBrokenError:
            # Never fatal: recompute in-process with full serial
            # semantics (the serial path re-runs retry/degrade per job,
            # so the FatalAdvisorError-only contract holds).
            self._parallel_stats["pool_failures"] += 1
            self._discard_pool()
            self._execute_serially(jobs)
            return
        except BaseException:
            # KeyboardInterrupt / SystemExit: leave no orphan workers.
            self._discard_pool()
            raise
        self._merge(jobs, outcomes)

    def _execute_serially(self, jobs: List[_Job]) -> None:
        for job in jobs:
            job.result = self._invoke(
                job.statement,
                _MODE_BY_NAME[job.mode],
                job.definitions,
                _SITE_BY_MODE[job.mode],
            )
            self._result_cache[job.key] = job.result

    def _dispatch(self, jobs: List[_Job]) -> List[TaskOutcome]:
        # A live process pool may be behind the database: write this
        # round's sync generation (or decide to rebase) before building
        # chunks, so they carry the right required_version.
        if self.executor_kind == "process" and self._pool is not None:
            self._prepare_sync()
        # The pool (and with it the snapshot) must exist before chunks
        # are built: _shipped_count decides which statements may travel
        # by reference.
        pool = self._ensure_pool()
        if pool.kind == "process":
            entry = _evaluate_chunk_in_worker
        else:
            entry = self._runtime().evaluate_chunk
        chunks = self._build_chunks(jobs)
        self._parallel_stats["parallel_batches"] += 1
        self._parallel_stats["chunks"] += len(chunks)
        self._parallel_stats["parallel_tasks"] += len(jobs)
        chunk_outcomes = pool.run(entry, chunks)
        outcomes: List[Optional[TaskOutcome]] = [None] * len(jobs)
        for chunk_outcome in chunk_outcomes:
            self._worker_tasks[chunk_outcome.worker] = self._worker_tasks.get(
                chunk_outcome.worker, 0
            ) + len(chunk_outcome.outcomes)
            for outcome in chunk_outcome.outcomes:
                outcomes[outcome.task_id] = outcome
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise PoolBrokenError(
                f"worker pool returned no outcome for tasks {missing[:5]}"
            )
        return outcomes  # type: ignore[return-value]

    def _build_chunks(self, jobs: List[_Job]) -> List[WorkerChunk]:
        chunks = []
        spans = chunk_spans(
            len(jobs),
            chunk_count(len(jobs), self.workers, self.chunks_per_worker),
        )
        for chunk_id, (start, end) in enumerate(spans):
            chunk_tasks = []
            for task_id in range(start, end):
                job = jobs[task_id]
                ref = self._registered.get(job.statement, -1)
                if 0 <= ref < self._shipped_count:
                    chunk_tasks.append(
                        WorkerTask(
                            task_id,
                            job.mode,
                            statement_ref=ref,
                            definitions=job.definitions,
                        )
                    )
                else:
                    chunk_tasks.append(
                        WorkerTask(
                            task_id,
                            job.mode,
                            statement=job.statement,
                            definitions=job.definitions,
                        )
                    )
            chunks.append(
                WorkerChunk(
                    chunk_id,
                    chunk_tasks,
                    required_version=self._sync_version,
                    sync_path=self._sync_path,
                )
            )
        return chunks

    def _merge(self, jobs: List[_Job], outcomes: List[TaskOutcome]) -> None:
        """Fold worker outcomes into counters/cache **in task order**,
        reproducing exactly what the serial ``_invoke`` loop would have
        recorded for the same schedule of successes and degradations."""
        for job, outcome in zip(jobs, outcomes):
            site = _SITE_BY_MODE[job.mode]
            self.counters.retries += outcome.retries
            if outcome.fatal is not None:
                raise FatalAdvisorError(
                    f"optimizer failed past retries and the fallback "
                    f"estimator also failed in a parallel worker: "
                    f"{outcome.fatal}",
                    phase=site,
                )
            result = replace(outcome.result, statement=job.statement)
            if outcome.degraded:
                self.counters.degraded_estimates += 1
                if len(self.degraded) < DEGRADED_LOG_LIMIT:
                    self.degraded.append(
                        DegradedEstimate(
                            site=site,
                            statement=job.statement.describe()[:120],
                            estimated_cost=result.estimated_cost,
                            reason=outcome.reason or "",
                        )
                    )
            else:
                self.counters.optimizer_calls += 1
                # Keep the production optimizer's own call counter in
                # step: work done on this session's behalf counts, no
                # matter which process executed it.
                self.optimizer.calls += 1
            job.result = result
            self._result_cache[job.key] = result

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        snapshot = super().stats()
        workers_block = dict(self._parallel_stats)
        workers_block["requested"] = self.workers
        workers_block["executor"] = self.executor_kind
        if self.start_method:
            workers_block["start_method"] = self.start_method
        workers_block["per_worker_tasks"] = dict(
            sorted(self._worker_tasks.items())
        )
        workers_block["shipping"] = dict(self._ship_stats)
        snapshot["workers"] = workers_block
        if self._snapshot_store is not None:
            snapshot["snapshots"] = self._snapshot_store.stats()
        return snapshot
