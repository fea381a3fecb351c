"""The shared optimizer-coupling layer: :class:`WhatIfSession`.

The paper's tight coupling means every advisor component -- candidate
enumeration, benefit evaluation, what-if analysis, index review, the
experiments, and the CLI -- drives the *same* optimizer through its
Enumerate Indexes and Evaluate Indexes modes.  This module is the single
seam where that happens.  A session owns:

* the one production :class:`~repro.optimizer.optimizer.Optimizer`
  instance (everything else borrows it through the session);
* a memoized cost cache keyed on ``(statement_id, frozenset(index
  keys))``, where the index-key set is *projected* to the indexes that
  can actually match one of the statement's path requests (the paper's
  affected-set argument: an index that covers none of a statement's
  requests cannot change its plan).  Projection is what lets a what-if
  analysis after a ``recommend()`` run hit only warm entries, even
  though the search evaluated sub-configurations and the analysis
  evaluates the full configuration;
* canonical virtual-index naming (the same candidate always becomes the
  same ``vix<N>`` definition), so cached plans report stable index names
  across components;
* explicit :meth:`invalidate` plus automatic invalidation tied to
  :attr:`~repro.storage.database.Database.modification_count` -- any
  insert/delete/index DDL bumps the counter and the next session call
  drops every cached cost;
* an :class:`InstrumentationCounters` record (optimizer calls, cache
  hits/misses, configuration evaluations, invalidations, per-phase wall
  time) surfaced by ``Recommendation.to_dict()`` and ``advise --stats``.

Mode switching is exposed as context managers::

    with session.enumerating() as enum:
        result = enum.candidates(statement)
    with session.evaluating(configuration) as scope:
        cost = scope.cost(statement)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.optimizer.cost import CostConstants
from repro.optimizer.optimizer import (
    AccessHandle,
    OptimizationResult,
    Optimizer,
    OptimizerMode,
    index_matches_request,
)
from repro.optimizer.rewriter import PathRequest, extract_all_requests
from repro.query.model import JoinQuery, Statement
from repro.robustness.errors import (
    DegradedEstimate,
    FatalAdvisorError,
    RetryableOptimizerError,
)
from repro.robustness.faults import maybe_inject
from repro.robustness.policy import RetryPolicy
from repro.storage.catalog import IndexDefinition
from repro.storage.database import Database, resolve_database

#: Cap on the per-session log of degraded estimates (the *count* keeps
#: going in the counters; the samples stop accumulating here).
DEGRADED_LOG_LIMIT = 100

#: An index's identity for caching purposes: collection, pattern text, and
#: key-type value.  Names deliberately do not participate -- two virtual
#: definitions of the same candidate are the same index.
IndexKey = Tuple[str, str, str]


def index_key(definition: IndexDefinition) -> IndexKey:
    """The cache identity of an index definition."""
    return (
        definition.collection,
        str(definition.pattern),
        definition.value_type.value,
    )


@dataclass
class InstrumentationCounters:
    """Counters of everything a session did on the optimizer's behalf."""

    optimizer_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evaluations: int = 0
    invalidations: int = 0
    #: Failed optimizer attempts that were retried under the session's
    #: :class:`~repro.robustness.policy.RetryPolicy`.
    retries: int = 0
    #: Costs answered by the heuristic fallback estimator after retries
    #: ran out (see docs/robustness.md).
    degraded_estimates: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def to_dict(self) -> Dict:
        """JSON-serializable snapshot."""
        return {
            "optimizer_calls": self.optimizer_calls,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "evaluations": self.evaluations,
            "invalidations": self.invalidations,
            "retries": self.retries,
            "degraded_estimates": self.degraded_estimates,
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.phase_seconds.items()
            },
        }


class _EnumerationScope:
    """Bound Enumerate-Indexes mode: yields basic candidates."""

    def __init__(self, session: "WhatIfSession") -> None:
        self._session = session

    def candidates(self, statement: Statement) -> OptimizationResult:
        return self._session.enumerate(statement)


class _EvaluationScope:
    """Bound Evaluate-Indexes mode over one virtual configuration."""

    def __init__(
        self,
        session: "WhatIfSession",
        definitions: Tuple[IndexDefinition, ...],
        use_cache: bool,
    ) -> None:
        self._session = session
        self.definitions = definitions
        self._use_cache = use_cache

    def cost(self, statement: Statement) -> float:
        return self._session.cost(
            statement, self.definitions, use_cache=self._use_cache
        )

    def result(self, statement: Statement) -> OptimizationResult:
        return self._session.evaluate(
            statement, self.definitions, use_cache=self._use_cache
        )


class WhatIfSession:
    """Facade over the optimizer's what-if surface, with shared caching.

    All components of one advisory "conversation" (advisor, evaluator,
    what-if analysis, experiments, CLI) should share one session so they
    share its cost cache and its counters.
    """

    def __init__(
        self,
        database: Database,
        constants: Optional[CostConstants] = None,
        *,
        optimizer: Optional[Optimizer] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fallback_estimator=None,
    ) -> None:
        #: Sessions plan against a concrete database: a cluster handed in
        #: here resolves to its primary replica (see
        #: :func:`~repro.storage.database.resolve_database`).
        self.database = database = resolve_database(database)
        self.optimizer = optimizer or Optimizer(database, constants)
        self.counters = InstrumentationCounters()
        #: Retry/timeout policy around every optimizer round-trip.
        self.retry_policy = retry_policy or RetryPolicy()
        #: Heuristic (optimizer-free) cost estimator used when retries
        #: run out; built lazily from the decoupled baseline's cost
        #: model unless one is supplied.
        self._fallback_estimator = fallback_estimator
        #: Bounded sample log of degraded estimates (the counter keeps
        #: the true total).
        self.degraded: List[DegradedEstimate] = []
        self._generation = getattr(database, "modification_count", 0)
        #: Snapshot of the database's per-collection epochs: when the
        #: modification counter moves, the epochs that moved with it name
        #: the touched collections, and only cache entries of statements
        #: depending on those collections are dropped.
        self._collection_epochs: Dict[str, int] = dict(
            getattr(database, "collection_epochs", {})
        )
        # (statement_id, mode value, projected index-key frozenset) -> result
        self._result_cache: Dict[Tuple, OptimizationResult] = {}
        self._statement_ids: Dict[Statement, int] = {}
        self._statement_requests: Dict[int, List[PathRequest]] = {}
        self._statement_collections: Dict[int, FrozenSet[str]] = {}
        #: statement_id -> its direct reference into the optimizer's
        #: access table (see :class:`~repro.optimizer.optimizer.AccessHandle`).
        self._handles: Dict[int, AccessHandle] = {}
        # (statement_id, input key set) -> (projected definitions tuple,
        # their key set)
        self._projection_cache: Dict[
            Tuple, Tuple[Tuple[IndexDefinition, ...], FrozenSet[IndexKey]]
        ] = {}
        self._canonical_names: Dict[IndexKey, str] = {}
        self._canonical_definitions: Dict[IndexKey, IndexDefinition] = {}
        #: id(canonical definition) -> its index key, computed once (the
        #: definitions live as long as the session, so ids are stable).
        self._canonical_keys: Dict[int, IndexKey] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def adopt(cls, optimizer: Optimizer) -> "WhatIfSession":
        """Wrap an existing optimizer (tests construct optimizers
        directly; production code should construct sessions)."""
        return cls(optimizer.database, optimizer=optimizer)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The database modification count this session's cache matches."""
        return self._generation

    def statement_id(self, statement: Statement) -> int:
        """A stable small id per distinct statement (value equality, so a
        re-parsed identical statement shares its cache entries)."""
        sid = self._statement_ids.get(statement)
        if sid is None:
            sid = len(self._statement_ids)
            self._statement_ids[statement] = sid
            self._statement_requests[sid] = extract_all_requests(statement)
            if isinstance(statement, JoinQuery):
                collections = frozenset(
                    (statement.left.collection, statement.right.collection)
                )
            else:
                collections = frozenset((statement.collection,))
            self._statement_collections[sid] = collections
        return sid

    def definitions_for(
        self, candidates: Iterable
    ) -> Tuple[IndexDefinition, ...]:
        """Canonical virtual definitions for candidate indexes (or index
        definitions).  The same candidate always receives the same name,
        so cached plans report consistent ``used_indexes`` regardless of
        which component asked first."""
        definitions = []
        for candidate in candidates:
            if isinstance(candidate, IndexDefinition):
                key = index_key(candidate)
                template = candidate
            else:  # CandidateIndex (duck-typed to avoid a core import)
                template = candidate.definition("__session_tmp", virtual=True)
                key = index_key(template)
            definition = self._canonical_definitions.get(key)
            if definition is None:
                name = self._canonical_names.get(key)
                if name is None:
                    name = f"vix{len(self._canonical_names)}"
                    self._canonical_names[key] = name
                definition = IndexDefinition(
                    name=name,
                    collection=template.collection,
                    pattern=template.pattern,
                    value_type=template.value_type,
                    virtual=True,
                )
                self._canonical_definitions[key] = definition
                self._canonical_keys[id(definition)] = key
            definitions.append(definition)
        return tuple(definitions)

    def _handle(self, sid: int) -> AccessHandle:
        handle = self._handles.get(sid)
        if handle is None:
            handle = self._handles[sid] = AccessHandle()
        return handle

    def _index_key(self, definition: IndexDefinition) -> IndexKey:
        key = self._canonical_keys.get(id(definition))
        return index_key(definition) if key is None else key

    def canonical_name(self, candidate) -> str:
        """The session's canonical name for one candidate/definition."""
        (definition,) = self.definitions_for([candidate])
        return definition.name

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached optimization result.  Called explicitly, or
        automatically when the database's modification counter moves
        without per-collection epoch information to scope the drop."""
        self._result_cache.clear()
        self._projection_cache.clear()
        self.counters.invalidations += 1
        self._generation = getattr(self.database, "modification_count", 0)
        self._collection_epochs = dict(
            getattr(self.database, "collection_epochs", {})
        )

    def _invalidate_collections(self, collections: FrozenSet[str]) -> None:
        """Scoped invalidation: drop only cache entries of statements
        that depend on one of the touched ``collections`` (statement
        dependencies are recorded by :meth:`statement_id`).  Entries for
        untouched collections survive the DML.  Counts as one
        invalidation, exactly like a full drop."""
        affected = {
            sid
            for sid, deps in self._statement_collections.items()
            if deps & collections
        }
        if affected:
            for cache in (self._result_cache, self._projection_cache):
                for key in [k for k in cache if k[0] in affected]:
                    del cache[key]
        self.counters.invalidations += 1
        self._generation = getattr(self.database, "modification_count", 0)
        self._collection_epochs = dict(
            getattr(self.database, "collection_epochs", {})
        )

    def _sync(self) -> None:
        current = getattr(self.database, "modification_count", 0)
        if current == self._generation:
            return
        epochs = getattr(self.database, "collection_epochs", None)
        if not epochs:
            self.invalidate()
            return
        changed = {
            name
            for name, epoch in epochs.items()
            if self._collection_epochs.get(name, 0) != epoch
        }
        changed.update(
            name for name in self._collection_epochs if name not in epochs
        )
        if changed:
            self._invalidate_collections(frozenset(changed))
        else:  # counter moved but no epoch did: be conservative
            self.invalidate()

    # ------------------------------------------------------------------
    # Projection: the affected-set argument applied to cache keys
    # ------------------------------------------------------------------
    def _project(
        self, sid: int, definitions: Sequence[IndexDefinition]
    ) -> Tuple[Tuple[IndexDefinition, ...], FrozenSet[IndexKey]]:
        """Restrict ``definitions`` to those that can match one of the
        statement's path requests (and live on one of its collections).
        Indexes outside the projection cannot change the statement's plan
        -- exactly the property that makes affected sets sound -- so the
        projected key set is the statement's true cache identity.
        Returns the projected definitions and that key set."""
        if not definitions:
            return (), frozenset()
        input_key = (sid, frozenset(map(self._index_key, definitions)))
        projected = self._projection_cache.get(input_key)
        if projected is None:
            requests = self._statement_requests[sid]
            collections = self._statement_collections[sid]
            kept = []
            seen = set()
            for definition in definitions:
                key = self._index_key(definition)
                if key in seen:
                    continue
                if definition.collection not in collections:
                    continue
                if any(
                    index_matches_request(definition, request)
                    for request in requests
                ):
                    kept.append(definition)
                    seen.add(key)
            projected = (tuple(kept), frozenset(seen))
            self._projection_cache[input_key] = projected
        return projected

    # ------------------------------------------------------------------
    # Resilience: retries and graceful degradation
    # ------------------------------------------------------------------
    @property
    def is_degraded(self) -> bool:
        """True once any estimate this session served was a fallback."""
        return self.counters.degraded_estimates > 0

    def _fallback(self):
        if self._fallback_estimator is None:
            # Imported here: the baselines package imports the evaluator,
            # which imports this module.
            from repro.baselines.decoupled import HeuristicCostModel

            self._fallback_estimator = HeuristicCostModel(self.database)
        return self._fallback_estimator

    def _note_retry(self, exc: Exception) -> None:
        self.counters.retries += 1

    def _invoke(
        self,
        statement: Statement,
        mode: OptimizerMode,
        definitions: Sequence[IndexDefinition],
        site: str,
        handle: Optional[AccessHandle] = None,
    ) -> OptimizationResult:
        """One guarded optimizer round-trip: fault-injection point,
        retry policy, and -- when retries run out -- graceful
        degradation to the heuristic fallback estimator.

        ``counters.optimizer_calls`` counts *successful* optimizations
        only (a retried fault fails before the optimizer runs), so
        zero-fault runs report exactly the traffic they always did.
        """

        def call() -> OptimizationResult:
            maybe_inject(site)
            return self.optimizer.optimize(statement, mode, definitions, handle)

        try:
            result = self.retry_policy.run(call, on_retry=self._note_retry)
        except RetryableOptimizerError as exc:
            return self._degrade(statement, mode, definitions, site, exc)
        self.counters.optimizer_calls += 1
        return result

    def _degrade(
        self,
        statement: Statement,
        mode: OptimizerMode,
        definitions: Sequence[IndexDefinition],
        site: str,
        cause: Exception,
    ) -> OptimizationResult:
        """Answer from the fallback estimator and tag the result.  The
        advisor keeps searching on degraded estimates rather than dying;
        only a failure of the fallback itself is fatal."""
        try:
            if mode is OptimizerMode.ENUMERATE:
                # No heuristic can guess the optimizer's candidate
                # patterns; degrade to "no candidates from this
                # statement" and keep going.
                cost = 0.0
                result = OptimizationResult(
                    statement, mode, cost, degraded=True
                )
            else:
                cost = self._fallback().estimate_cost(statement, definitions)
                result = OptimizationResult(
                    statement, mode, cost, degraded=True
                )
        except Exception as inner:
            raise FatalAdvisorError(
                f"optimizer failed past retries and the fallback estimator "
                f"also failed: {inner} (original failure: {cause})",
                phase=site,
            ) from inner
        self.counters.degraded_estimates += 1
        if len(self.degraded) < DEGRADED_LOG_LIMIT:
            self.degraded.append(
                DegradedEstimate(
                    site=site,
                    statement=statement.describe()[:120],
                    estimated_cost=cost,
                    reason=str(cause),
                )
            )
        return result

    # ------------------------------------------------------------------
    # Optimizer entry points
    # ------------------------------------------------------------------
    def evaluate(
        self,
        statement: Statement,
        definitions: Sequence[IndexDefinition] = (),
        use_cache: bool = True,
    ) -> OptimizationResult:
        """Evaluate-Indexes mode: cost ``statement`` with ``definitions``
        installed as virtual indexes, memoized on the projected key."""
        self._sync()
        sid = self.statement_id(statement)
        projected, keys = self._project(sid, definitions)
        key = (sid, OptimizerMode.EVALUATE.value, keys)
        if use_cache:
            cached = self._result_cache.get(key)
            if cached is not None:
                self.counters.cache_hits += 1
                return cached
            self.counters.cache_misses += 1
        result = self._invoke(
            statement,
            OptimizerMode.EVALUATE,
            projected,
            "optimizer.evaluate",
            self._handle(sid),
        )
        self._result_cache[key] = result
        return result

    def cost(
        self,
        statement: Statement,
        definitions: Sequence[IndexDefinition] = (),
        use_cache: bool = True,
    ) -> float:
        """Memoized Evaluate-Indexes cost of one (statement, configuration)
        pair -- the workhorse of benefit evaluation."""
        return self.evaluate(statement, definitions, use_cache).estimated_cost

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        tasks: Sequence[Tuple[Statement, Sequence[IndexDefinition]]],
        use_cache: bool = True,
    ) -> List[OptimizationResult]:
        """Evaluate many (statement, definitions) pairs: exactly a loop
        over :meth:`evaluate`, with the same cache traffic and counters
        as the per-pair calls."""
        return [
            self.evaluate(statement, definitions, use_cache)
            for statement, definitions in tasks
        ]

    def cost_batch(
        self,
        tasks: Sequence[Tuple[Statement, Sequence[IndexDefinition]]],
        use_cache: bool = True,
    ) -> List[float]:
        """Costs of many (statement, definitions) pairs (see
        :meth:`evaluate_batch`)."""
        return [
            result.estimated_cost
            for result in self.evaluate_batch(tasks, use_cache)
        ]

    def enumerate_batch(
        self, statements: Sequence[Statement]
    ) -> List[OptimizationResult]:
        """Enumerate-Indexes mode over many statements (see
        :meth:`evaluate_batch` for the batching contract)."""
        return [self.enumerate(statement) for statement in statements]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register_statements(self, statements: Iterable[Statement]) -> None:
        """A no-op, kept because the benchmark harness's ``parallel.*``
        probes call it (see :mod:`repro.parallel`)."""

    def close(self) -> None:
        """A no-op: the session holds no resources.  Kept so callers can
        use the session as a context manager."""

    def __enter__(self) -> "WhatIfSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def plan(self, statement: Statement) -> OptimizationResult:
        """NORMAL-mode planning (real indexes only), memoized.  Index DDL
        bumps the database's modification counter, so cached plans never
        outlive the index set they were chosen against."""
        self._sync()
        sid = self.statement_id(statement)
        key = (sid, OptimizerMode.NORMAL.value)
        cached = self._result_cache.get(key)
        if cached is not None:
            self.counters.cache_hits += 1
            return cached
        self.counters.cache_misses += 1
        result = self._invoke(
            statement, OptimizerMode.NORMAL, (), "optimizer.plan",
            self._handle(sid),
        )
        self._result_cache[key] = result
        return result

    def enumerate(self, statement: Statement) -> OptimizationResult:
        """Enumerate-Indexes mode, memoized (enumeration depends only on
        the statement, never on statistics or built indexes)."""
        self._sync()
        key = (self.statement_id(statement), OptimizerMode.ENUMERATE.value)
        cached = self._result_cache.get(key)
        if cached is not None:
            self.counters.cache_hits += 1
            return cached
        self.counters.cache_misses += 1
        result = self._invoke(
            statement, OptimizerMode.ENUMERATE, (), "optimizer.enumerate"
        )
        self._result_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Mode context managers
    # ------------------------------------------------------------------
    @contextmanager
    def enumerating(self):
        """Enter Enumerate-Indexes mode; the scope yields candidates."""
        yield _EnumerationScope(self)

    @contextmanager
    def evaluating(self, candidates: Iterable = (), use_cache: bool = True):
        """Enter Evaluate-Indexes mode with ``candidates`` (candidate
        indexes or definitions) visible as virtual indexes."""
        definitions = self.definitions_for(candidates)
        yield _EvaluationScope(self, definitions, use_cache)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def note_evaluation(self) -> None:
        """Record one configuration-benefit evaluation (called by the
        evaluator so `advise --stats` can report evaluations next to
        optimizer calls)."""
        self.counters.evaluations += 1

    @contextmanager
    def phase(self, name: str):
        """Accumulate wall time of a named advisory phase."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.counters.phase_seconds[name] = (
                self.counters.phase_seconds.get(name, 0.0) + elapsed
            )

    def stats(self) -> Dict:
        """JSON-serializable instrumentation snapshot."""
        snapshot = self.counters.to_dict()
        snapshot["cached_results"] = len(self._result_cache)
        snapshot["generation"] = self._generation
        storage_stats = getattr(self.database, "storage_stats", None)
        if storage_stats is not None:
            snapshot["storage"] = storage_stats()
        if self.degraded:
            snapshot["degraded_samples"] = [
                record.to_dict() for record in self.degraded[:10]
            ]
        return snapshot
