"""The XML Index Advisor: the paper's top-level client-side application.

Pipeline (Figure 1): for every workload statement the optimizer enumerates
basic candidates (Enumerate Indexes mode); the candidates are generalized
(Section V); and a search algorithm picks the configuration with maximum
benefit within the disk budget, evaluating configurations through the
optimizer's Evaluate Indexes mode with sub-configuration caching.

Typical use::

    advisor = IndexAdvisor(database, workload)
    recommendation = advisor.advise(2_000_000)   # ilp, greedy fallback
    print(recommendation.report())
    advisor.create_indexes(recommendation)   # build them for real
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.benefit import ConfigurationEvaluator, reconcile_configuration
from repro.core.candidates import (
    CandidateIndex,
    CandidateSet,
    enumerate_basic_candidates,
)
from repro.core.compression import (
    COMPRESSION_MODES,
    CompressionStats,
    compress_workload,
)
from repro.core.config import IndexConfiguration
from repro.core.generalization import generalize_candidates
from repro.core.maintenance import MaintenanceConstants
from repro.core.search import ALGORITHMS, DEFAULT_BETA, SearchResult
from repro.optimizer.cost import CostConstants
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.robustness.budget import SearchBudget
from repro.robustness.checkpoint import SearchCheckpoint
from repro.robustness.errors import (
    AdvisorError,
    ConfigError,
    FatalAdvisorError,
)
from repro.robustness.faults import maybe_inject
from repro.storage.database import Database, resolve_database


#: The one fallback rung of :meth:`IndexAdvisor.advise`.
FALLBACK_ALGORITHM = "greedy_heuristics"

#: The deadline a later attempt gets once the ladder's has run out:
#: already spent, so the search truncates at its first budget check and
#: reports its best-so-far (a :class:`SearchBudget` deadline must be
#: positive).
_EXPIRED_SECONDS = 1e-9


def _bound(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


@dataclass
class Recommendation:
    """A recommended index configuration plus provenance."""

    search: SearchResult
    estimated_speedup: float
    workload_cost_before: float
    workload_cost_after: float
    #: One ``CREATE INDEX`` per configured index, named ``xmlidx_1`` ..
    #: ``xmlidx_k`` within this recommendation: advising mints no name
    #: in the catalog, so the same advice on the same data reads the same.
    ddl: List[str] = field(default_factory=list)
    #: Instrumentation snapshot of the shared what-if session at
    #: packaging time (optimizer calls, cache hits/misses, phase times).
    session_stats: Dict = field(default_factory=dict)
    #: True when any cost behind this recommendation came from the
    #: heuristic fallback estimator (optimizer failures past retries or
    #: missing statistics), or when :meth:`IndexAdvisor.advise`'s
    #: fallback search gave it -- see docs/robustness.md.
    degraded: bool = False
    #: Per-input diagnostics collected on the way here (skipped workload
    #: statements, degraded candidate sizes, ...).
    diagnostics: List[str] = field(default_factory=list)
    #: Cluster counters (topology, per-shard DML routing, router
    #: decisions, divergence score) when the advisor targeted a
    #: :class:`~repro.cluster.Cluster`; empty for a plain database.
    cluster_stats: Dict = field(default_factory=dict)
    #: Workload-compression provenance (mode, ratio, representative
    #: counts, and -- for the approximate template/cluster modes -- the
    #: reconciliation pass's full-workload re-score of the winning
    #: configuration); empty when the advisor tuned uncompressed.
    compression_stats: Dict = field(default_factory=dict)
    #: ``{"optimizer_calls_total": ...}`` of a served recommend (every
    #: optimizer call its attempts made -- what admission charges);
    #: empty when the recommendation came from a direct search.
    portfolio_stats: Dict = field(default_factory=dict)

    @property
    def configuration(self) -> IndexConfiguration:
        return self.search.configuration

    @property
    def truncated(self) -> bool:
        """True when an anytime budget expired and the configuration is
        the search's best-so-far, not its natural fixpoint."""
        return self.search.truncated

    def to_dict(self) -> Dict:
        """JSON-serializable form of the recommendation (for the CLI's
        ``--json`` flag and for tooling)."""
        return {
            "algorithm": self.search.algorithm,
            "budget_bytes": self.search.budget_bytes,
            "size_bytes": self.search.size_bytes,
            "benefit": self.search.benefit,
            "estimated_speedup": self.estimated_speedup,
            "workload_cost_before": self.workload_cost_before,
            "workload_cost_after": self.workload_cost_after,
            "optimizer_calls": self.search.optimizer_calls,
            "cache_hits": self.search.cache_hits,
            "cache_misses": self.search.cache_misses,
            "elapsed_seconds": self.search.elapsed_seconds,
            "truncated": self.search.truncated,
            "truncated_reason": self.search.truncated_reason,
            "resumed": self.search.resumed,
            "degraded": self.degraded,
            "diagnostics": list(self.diagnostics),
            "session": dict(self.session_stats),
            **(
                {"cluster": dict(self.cluster_stats)}
                if self.cluster_stats
                else {}
            ),
            **(
                {"compression": dict(self.compression_stats)}
                if self.compression_stats
                else {}
            ),
            **(
                {"ilp": dict(self.search.ilp)}
                if self.search.algorithm == "ilp"
                else {}
            ),
            **(
                {"portfolio": dict(self.portfolio_stats)}
                if self.portfolio_stats
                else {}
            ),
            "indexes": [
                {
                    "pattern": str(candidate.pattern),
                    "value_type": candidate.value_type.value,
                    "collection": candidate.collection,
                    "general": candidate.general,
                    "size_bytes": candidate.size_bytes,
                }
                for candidate in self.configuration
            ],
            "ddl": list(self.ddl),
        }

    def report(self) -> str:
        """Human-readable recommendation summary."""
        lines = [
            f"Algorithm          : {self.search.algorithm}",
            f"Disk budget        : {self.search.budget_bytes} bytes",
            f"Configuration size : {self.search.size_bytes} bytes",
            f"Indexes            : {len(self.configuration)} "
            f"(general: {self.search.general_count}, "
            f"specific: {self.search.specific_count})",
            f"Workload cost      : {self.workload_cost_before:.2f} -> "
            f"{self.workload_cost_after:.2f}",
            f"Estimated speedup  : {self.estimated_speedup:.2f}x",
            f"Optimizer calls    : {self.search.optimizer_calls}",
            f"Cost cache         : {self.search.cache_hits} hits / "
            f"{self.search.cache_misses} misses (search)",
            f"Search time        : {self.search.elapsed_seconds * 1000:.0f} ms",
        ]
        if self.search.truncated:
            lines.append(
                f"TRUNCATED          : {self.search.truncated_reason} "
                f"(best-so-far configuration)"
            )
        if self.search.resumed:
            lines.append("Resumed            : from on-disk checkpoint")
        if self.degraded:
            degraded_count = self.session_stats.get("degraded_estimates", 0)
            lines.append(
                f"DEGRADED           : {degraded_count} cost estimate(s) "
                f"from the heuristic fallback (optimizer unavailable)"
            )
        for diagnostic in self.diagnostics:
            lines.append(f"Diagnostic         : {diagnostic}")
        lines.append("Recommended indexes:")
        lines.extend(f"  {stmt}" for stmt in self.ddl)
        return "\n".join(lines)

    def stats_report(self) -> str:
        """Human-readable session instrumentation block (CLI --stats)."""
        stats = self.session_stats
        lines = [
            "What-if session stats:",
            f"  optimizer calls   : {stats.get('optimizer_calls', 0)}",
            f"  cache hits/misses : {stats.get('cache_hits', 0)} / "
            f"{stats.get('cache_misses', 0)} "
            f"(hit ratio {stats.get('cache_hit_ratio', 0.0):.2%})",
            f"  evaluations       : {stats.get('evaluations', 0)}",
            f"  invalidations     : {stats.get('invalidations', 0)}",
            f"  cached results    : {stats.get('cached_results', 0)}",
        ]
        for name, seconds in sorted(stats.get("phase_seconds", {}).items()):
            lines.append(f"  phase {name:<12}: {seconds * 1000:.1f} ms")
        storage = stats.get("storage")
        if storage:
            lines.append(
                f"  storage engine    : "
                f"{storage.get('stats_rescans', 0)} stats rescans, "
                f"{storage.get('stats_delta_applies', 0)} delta applies, "
                f"{storage.get('summary_rebuilds', 0)} summary rebuilds"
            )
        gap = self.search.ilp
        if self.search.algorithm == "ilp" and gap:
            lines.append(
                f"  ilp               : {gap['nodes']} nodes, "
                f"root bound {_bound(gap['root_bound'])}, final bound "
                f"{_bound(gap['final_bound'])}, objective "
                f"{_bound(gap['objective'])}, "
                + ("proven" if gap["proven"] else "not proven")
            )
        compression = self.compression_stats
        if compression:
            lines.append(
                f"  compression       : {compression.get('mode', 'off')} "
                f"({compression.get('original_statements', 0)} statements "
                f"-> {compression.get('representatives', 0)} "
                f"representatives, ratio "
                f"{compression.get('ratio', 0.0):.2%}"
                + (
                    ", approximate"
                    if compression.get("approximate")
                    else ""
                )
                + ")"
            )
            reconciled = compression.get("reconciled")
            if reconciled:
                lines.append(
                    f"  reconciled        : benefit "
                    f"{reconciled.get('benefit', 0.0):.2f} on "
                    f"{reconciled.get('affected_statements', 0)}/"
                    f"{reconciled.get('workload_statements', 0)} affected "
                    f"statements (full workload)"
                )
        cluster = self.cluster_stats
        if cluster:
            lines.append(
                f"  cluster           : {cluster.get('shards', 1)} shard(s) "
                f"x {cluster.get('replicas', 1)} replica(s), "
                f"divergence {cluster.get('divergence_score', 0.0):.4f}"
                + (
                    f" ({cluster['tuning_mode']})"
                    if cluster.get("tuning_mode")
                    else ""
                )
            )
            for shard, count in sorted(
                (cluster.get("documents_routed") or {}).items()
            ):
                lines.append(f"  shard {shard:<11}: {count} documents routed")
            router = cluster.get("router")
            if router:
                lines.append(
                    f"  router            : {router.get('policy', '?')} policy, "
                    f"{router.get('cost_routed', 0)} cost-routed / "
                    f"{router.get('fallback_routed', 0)} fallback, "
                    f"{router.get('routing_cache_hits', 0)} cache hits"
                )
                for label, count in sorted(
                    (router.get("statements_routed") or {}).items()
                ):
                    lines.append(
                        f"  replica {label:<9}: {count} statements routed"
                    )
        return "\n".join(lines)


class IndexAdvisor:
    """Recommends XML index configurations for a database + workload."""

    def __init__(
        self,
        database: Database,
        workload: Workload,
        cost_constants: Optional[CostConstants] = None,
        maintenance_constants: MaintenanceConstants = MaintenanceConstants(),
        generalize: bool = True,
        naive_evaluation: bool = False,
        session: Optional[WhatIfSession] = None,
        compress: str = "off",
    ) -> None:
        #: The storage target as handed in -- a plain :class:`Database`
        #: or a :class:`~repro.cluster.Cluster`.  Physical DDL
        #: (:meth:`create_indexes` and friends) goes through this, so a
        #: cluster fans the build out to every replica.
        self.storage = database
        #: The concrete database all planning and statistics run
        #: against (a cluster resolves to its primary replica).
        self.database = resolve_database(database)
        if compress not in COMPRESSION_MODES:
            raise ValueError(
                f"unknown compression mode {compress!r}; "
                f"choose from {COMPRESSION_MODES}"
            )
        #: The workload exactly as handed in.  Tuning runs on
        #: :attr:`workload` (the compressed form when ``compress`` is
        #: on); the reconciliation pass re-scores the winning
        #: configuration against this raw stream.
        self.raw_workload = workload
        self.compression: CompressionStats
        if compress == "off":
            self.workload = workload
            _, self.compression = compress_workload(workload, "off")
        else:
            self.workload, self.compression = compress_workload(
                workload, compress
            )
        #: The advisor's entire optimizer coupling runs through this one
        #: session; pass a shared session to share its cost cache across
        #: advisors (e.g. the generalization experiments).
        if session is None:
            session = WhatIfSession(database, cost_constants)
        self.session = session
        self.generalize = generalize
        self.maintenance_constants = maintenance_constants
        self.naive_evaluation = naive_evaluation
        self._candidates: Optional[CandidateSet] = None
        self._evaluator: Optional[ConfigurationEvaluator] = None
        self._created_index_names: List[str] = []
        #: Diagnostics surfaced on every Recommendation: skipped workload
        #: statements (lenient parsing) plus degraded candidate sizes.
        self.diagnostics: List[str] = list(
            getattr(workload, "diagnostics", ())
        )
        self._degraded_sizes = 0

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    @property
    def candidates(self) -> CandidateSet:
        """The expanded candidate set (enumerated + generalized),
        computed on first access."""
        if self._candidates is None:
            with self.session.phase("enumerate"):
                candidates = enumerate_basic_candidates(
                    self.session, self.workload
                )
            with self.session.phase("generalize"):
                if self.generalize:
                    generalize_candidates(candidates)
                candidates.compute_sizes(
                    self.database, on_degraded=self._note_degraded_size
                )
            self._candidates = candidates
        return self._candidates

    def _note_degraded_size(self, candidate, exc) -> None:
        self._degraded_sizes += 1
        self.diagnostics.append(
            f"candidate {candidate} sized by fallback "
            f"(statistics unavailable: {exc})"
        )

    @property
    def evaluator(self) -> ConfigurationEvaluator:
        if self._evaluator is None:
            self._candidates = self.candidates  # ensure enumeration happened
            self._evaluator = ConfigurationEvaluator(
                self.database,
                self.session,
                self.workload,
                self.maintenance_constants,
                naive=self.naive_evaluation,
            )
        return self._evaluator

    @property
    def optimizer(self) -> Optimizer:
        """The session's optimizer (single production instance)."""
        return self.session.optimizer

    @property
    def degraded(self) -> bool:
        """True once any estimate the session served, or any candidate
        size, came from a fallback (docs/robustness.md)."""
        return self.session.is_degraded or self._degraded_sizes > 0

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def recommend(
        self,
        budget_bytes: int,
        algorithm: str = "topdown_full",
        beta: float = DEFAULT_BETA,
        deadline_seconds: Optional[float] = None,
        optimizer_call_budget: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ) -> Recommendation:
        """Search for the best configuration within ``budget_bytes``.

        ``algorithm`` is one of ``greedy``, ``greedy_heuristics``,
        ``topdown_lite``, ``topdown_full``, ``dp``, ``ilp``.

        Anytime operation (docs/robustness.md): ``deadline_seconds`` and
        ``optimizer_call_budget`` bound the run -- the deadline clock
        starts here, before candidate enumeration -- and an expired
        budget returns the search's best-so-far configuration flagged
        ``truncated`` instead of raising.  ``checkpoint_path`` makes the
        search crash-safe: progress is persisted atomically after every
        accepted step and a rerun with the same path, algorithm, and
        disk budget resumes from it.
        """
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        searcher = ALGORITHMS[algorithm]
        search_budget = SearchBudget(
            deadline_seconds=deadline_seconds,
            optimizer_call_budget=optimizer_call_budget,
            session=self.session,
            checkpoint=(
                SearchCheckpoint(checkpoint_path) if checkpoint_path else None
            ),
        )
        budget_arg = (
            search_budget
            if search_budget.bounded or search_budget.checkpoint is not None
            else None
        )
        try:
            with self.session.phase(f"search:{algorithm}"):
                if algorithm == "greedy_heuristics":
                    result = searcher(
                        self.candidates,
                        self.evaluator,
                        budget_bytes,
                        beta,
                        budget=budget_arg,
                    )
                else:
                    result = searcher(
                        self.candidates,
                        self.evaluator,
                        budget_bytes,
                        budget=budget_arg,
                    )
        except FatalAdvisorError:
            raise
        except AdvisorError as exc:
            raise FatalAdvisorError(
                f"advisor failed during {algorithm} search: {exc}",
                phase=f"search:{algorithm}",
            ) from exc
        if budget_arg is not None and not result.truncated:
            search_budget.mark_completed(
                algorithm, budget_bytes, result.configuration, result.benefit
            )
        return self._package(
            result, extra_diagnostics=search_budget.diagnostics
        )

    def advise(
        self,
        budget_bytes: int,
        *,
        algorithm: str = "ilp",
        retries: int = 0,
        deadline_seconds: Optional[float] = None,
        optimizer_call_budget: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ) -> Recommendation:
        """The attempt ladder every caller runs (docs/robustness.md).

        ``algorithm`` runs ``1 + retries`` times, then one
        ``greedy_heuristics`` attempt when ``algorithm`` is something
        else, all on this advisor, so a later attempt reuses the
        candidates and costs an earlier one computed.  Every attempt
        draws the ``advise.attempt`` fault site and gets the same
        ``optimizer_call_budget``; the attempts share one
        ``deadline_seconds`` clock, so a later attempt gets only what is
        left of it.  Failed attempts are recorded in the answer's
        diagnostics, and the answer is ``degraded`` when an algorithm
        other than ``algorithm`` gave it.  When every attempt fails, one
        typed error is raised: :class:`ConfigError` if any attempt
        failed on configuration junk, :class:`FatalAdvisorError`
        otherwise.
        """
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        if budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be a positive number of bytes, got "
                f"{budget_bytes}"
            )
        attempts = [algorithm] * (1 + retries)
        if algorithm != FALLBACK_ALGORITHM:
            attempts.append(FALLBACK_ALGORITHM)
        clock = SearchBudget(deadline_seconds=deadline_seconds)
        failed = []
        for attempt in attempts:
            try:
                maybe_inject("advise.attempt")
                remaining = clock.remaining_seconds()
                if remaining is not None:
                    remaining = max(remaining, _EXPIRED_SECONDS)
                recommendation = self.recommend(
                    budget_bytes,
                    algorithm=attempt,
                    deadline_seconds=remaining,
                    optimizer_call_budget=optimizer_call_budget,
                    checkpoint_path=checkpoint_path,
                )
            except Exception as exc:
                failed.append((attempt, exc))
                continue
            recommendation.diagnostics += [
                f"{name} attempt failed ({type(exc).__name__}: {exc})"
                for name, exc in failed
            ]
            recommendation.degraded |= attempt != algorithm
            return recommendation
        message = "every advise attempt failed (" + "; ".join(
            f"{name}: {exc}" for name, exc in failed
        ) + ")"
        if any(isinstance(exc, ConfigError) for _, exc in failed):
            raise ConfigError(message)
        raise FatalAdvisorError(message, phase="advise")

    def _package(
        self,
        result: SearchResult,
        extra_diagnostics: Sequence[str] = (),
    ) -> Recommendation:
        evaluator = self.evaluator
        before = evaluator.total_base_cost()
        after = evaluator.workload_cost(result.configuration)
        speedup = evaluator.estimated_speedup(result.configuration)
        ddl = [
            candidate.definition(f"xmlidx_{number}", virtual=False).ddl()
            for number, candidate in enumerate(result.configuration, 1)
        ]
        cluster_stats = getattr(self.storage, "cluster_stats", None)
        compression_stats: Dict = {}
        if self.compression.mode != "off":
            compression_stats = self.compression.to_dict()
            if self.compression.approximate:
                # Reconciliation pass: tuning scored representatives, so
                # re-score the winner on the full raw stream (affected
                # statements only -- see reconcile_configuration).
                compression_stats["reconciled"] = reconcile_configuration(
                    self.session,
                    self.raw_workload,
                    result.configuration,
                    self.maintenance_constants,
                )
        return Recommendation(
            search=result,
            estimated_speedup=speedup,
            workload_cost_before=before,
            workload_cost_after=after,
            ddl=ddl,
            session_stats=self.session.stats(),
            degraded=self.degraded,
            diagnostics=list(self.diagnostics) + list(extra_diagnostics),
            cluster_stats=(
                cluster_stats() if callable(cluster_stats) else {}
            ),
            compression_stats=compression_stats,
        )

    # ------------------------------------------------------------------
    # Reference configurations
    # ------------------------------------------------------------------
    def all_index_configuration(self) -> IndexConfiguration:
        """The 'All Index' configuration of Section VII: an index on every
        indexable XPath expression in the workload (all basic candidates)."""
        return IndexConfiguration(self.candidates.basics())

    def evaluate_configuration(self, config: IndexConfiguration) -> float:
        """Estimated speedup of an arbitrary configuration (the paper's
        evaluation metric)."""
        return self.evaluator.estimated_speedup(config)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def create_indexes(
        self, recommendation: Recommendation, prefix: str = "reco"
    ) -> List[str]:
        """Physically create the recommended indexes.  Returns their
        names (also remembered for :meth:`drop_created_indexes`)."""
        names = []
        for candidate in recommendation.configuration:
            name = self.storage.catalog.fresh_name(prefix)
            self.storage.create_index(candidate.definition(name, virtual=False))
            names.append(name)
        self._created_index_names.extend(names)
        return names

    def create_configuration(
        self, config: IndexConfiguration, prefix: str = "conf"
    ) -> List[str]:
        """Physically create an arbitrary configuration's indexes."""
        names = []
        for candidate in config:
            name = self.storage.catalog.fresh_name(prefix)
            self.storage.create_index(candidate.definition(name, virtual=False))
            names.append(name)
        self._created_index_names.extend(names)
        return names

    def drop_created_indexes(self) -> None:
        """Drop every index this advisor created."""
        for name in self._created_index_names:
            try:
                self.storage.drop_index(name)
            except KeyError:
                pass
        self._created_index_names = []

    # ------------------------------------------------------------------
    # Online promotion
    # ------------------------------------------------------------------
    def start_online(
        self,
        budget_bytes: int,
        policy=None,  # OnlinePolicy; untyped to avoid an import cycle
        journal_path: Optional[str] = None,
        resume: bool = False,
        seed_window: bool = True,
        **policy_overrides,
    ):
        """Promote this one-shot advisor into a supervised
        :class:`~repro.online.daemon.OnlineAdvisor` over the same
        storage (docs/robustness.md, "Online daemon lifecycle").

        With no ``policy``, one is built from ``budget_bytes`` plus
        ``policy_overrides`` (any :class:`~repro.online.policy.
        OnlinePolicy` field), inheriting this advisor's compression mode
        when it is lossy-safe for streams.  ``seed_window`` pre-fills
        the daemon's sliding window with this advisor's raw workload so
        the first cycle tunes the traffic the batch run saw; ``resume``
        reconstructs the daemon from ``journal_path`` instead (the
        window then comes from the journal, not the workload).
        """
        from repro.online import OnlineAdvisor, OnlinePolicy

        if policy is None:
            policy_overrides.setdefault(
                "compress",
                self.compression.mode
                if self.compression.mode != "off"
                else "template",
            )
            policy = OnlinePolicy(budget_bytes=budget_bytes, **policy_overrides)
        elif policy_overrides:
            raise ValueError(
                "pass either a policy or policy_overrides, not both"
            )
        if resume:
            if journal_path is None:
                raise ValueError("resume=True requires a journal_path")
            return OnlineAdvisor.resume(self.storage, policy, journal_path)
        daemon = OnlineAdvisor(self.storage, policy, journal_path=journal_path)
        if seed_window:
            for entry in self.raw_workload:
                repeats = max(1, int(round(entry.frequency)))
                text = entry.statement.describe()
                for _ in range(repeats):
                    daemon.window.ingest(text)
            daemon._write_journal("idle")
        return daemon
