"""Configuration search algorithms (Section VI).

Five searchers over the 0/1-knapsack-with-interactions problem, all with
the same signature and a common :class:`SearchResult`:

* :func:`greedy_search` -- the classic density greedy on standalone
  benefits; ignores index interaction (the paper's strawman that wastes
  budget on redundant indexes).
* :func:`greedy_search_with_heuristics` -- Section VI-A: full-configuration
  benefit evaluation plus two heuristics: a coverage bitmap that blocks
  indexes replicating patterns already covered, and the IB/size
  (beta-bounded) test before admitting a *general* index.  Candidates are
  scored through :meth:`ConfigurationEvaluator.delta_benefit`, so each
  probe re-costs only the sub-configuration group the candidate touches
  and the running benefit telescopes the accepted deltas.
* :func:`top_down_lite` / :func:`top_down_full` -- Section VI-B: start
  from the generalization DAG's roots and repeatedly replace the general
  index with the smallest dB/dC by its children until the configuration
  fits the budget (lite sums standalone benefits for dB; full evaluates
  whole configurations, capturing interaction).
* :func:`dynamic_programming_search` -- exact 0/1 knapsack on standalone
  benefits (optimal modulo interactions; expensive).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.benefit import ConfigurationEvaluator
from repro.core.candidates import CandidateIndex, CandidateSet
from repro.core.config import IndexConfiguration
from repro.core.dag import CandidateDag
from repro.robustness.budget import SearchBudget
from repro.robustness.checkpoint import resolve_candidates

#: Allowed size expansion when a general index replaces the indexes it
#: generalizes (Section VI-A; "we have found beta = 10% to work well").
DEFAULT_BETA = 0.10


@dataclass
class SearchResult:
    """Outcome of one configuration search.

    ``optimizer_calls``/``cache_hits``/``cache_misses`` are deltas of the
    shared :class:`~repro.optimizer.session.WhatIfSession` counters over
    the search, so they reflect exactly the optimizer traffic this search
    caused (and the work the shared cost cache absorbed).
    """

    algorithm: str
    configuration: IndexConfiguration
    benefit: float
    size_bytes: int
    budget_bytes: int
    elapsed_seconds: float
    optimizer_calls: int
    evaluations: int
    cache_hits: int = 0
    cache_misses: int = 0
    #: True when an anytime budget (deadline / optimizer-call cap)
    #: expired and this is the best-so-far configuration, not the
    #: search's natural fixpoint.
    truncated: bool = False
    truncated_reason: Optional[str] = None
    #: True when the search was seeded from an on-disk checkpoint.
    resumed: bool = False
    #: What the ``ilp`` search's branch and bound proved (root and
    #: final bound, incumbent objective, nodes, proven); empty for every
    #: other algorithm.
    ilp: Dict = field(default_factory=dict)

    @property
    def general_count(self) -> int:
        return self.configuration.general_count()

    @property
    def specific_count(self) -> int:
        return self.configuration.specific_count()

    def summary(self) -> str:
        suffix = f" [truncated: {self.truncated_reason}]" if self.truncated else ""
        return (
            f"{self.algorithm}: {len(self.configuration)} indexes "
            f"(G: {self.general_count}, S: {self.specific_count}), "
            f"size {self.size_bytes}/{self.budget_bytes} B, "
            f"benefit {self.benefit:.2f}, "
            f"{self.optimizer_calls} optimizer calls, "
            f"{self.elapsed_seconds * 1000:.0f} ms{suffix}"
        )


class _Telemetry:
    """Counter snapshot at search start; finishes into a SearchResult.

    Counters are read from the evaluator's shared what-if session -- the
    single source of truth for optimizer traffic -- not from the raw
    optimizer object."""

    def __init__(self, evaluator: ConfigurationEvaluator) -> None:
        self.evaluator = evaluator
        self.started = time.perf_counter()
        counters = evaluator.session.counters
        self.calls_before = counters.optimizer_calls
        self.hits_before = counters.cache_hits
        self.misses_before = counters.cache_misses
        self.evals_before = evaluator.evaluations

    def finish(
        self,
        algorithm: str,
        config: IndexConfiguration,
        budget: int,
        benefit: Optional[float] = None,
        truncated: Optional[str] = None,
        resumed: bool = False,
    ) -> SearchResult:
        """Package the result.  Counter deltas are snapshotted *before*
        any final benefit evaluation, so the reported optimizer traffic
        is exactly what the search itself caused.  Searchers that tracked
        the final configuration's benefit pass it in; only searchers that
        never evaluated the full configuration (plain greedy, top down
        lite, dp) pay one uncounted evaluation here."""
        counters = self.evaluator.session.counters
        elapsed = time.perf_counter() - self.started
        optimizer_calls = counters.optimizer_calls - self.calls_before
        evaluations = self.evaluator.evaluations - self.evals_before
        cache_hits = counters.cache_hits - self.hits_before
        cache_misses = counters.cache_misses - self.misses_before
        if benefit is None:
            benefit = self.evaluator.benefit(config)
        return SearchResult(
            algorithm=algorithm,
            configuration=config,
            benefit=benefit,
            size_bytes=config.size_bytes(),
            budget_bytes=budget,
            elapsed_seconds=elapsed,
            optimizer_calls=optimizer_calls,
            evaluations=evaluations,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            truncated=truncated is not None,
            truncated_reason=truncated,
            resumed=resumed,
        )


def _positive_candidates(
    candidates: CandidateSet, evaluator: ConfigurationEvaluator
) -> List[CandidateIndex]:
    """Candidates with positive standalone benefit, densest first (ranked
    once per evaluator and shared across searches)."""
    return evaluator.ranked_positive_candidates(candidates)


def _spent(budget: Optional[SearchBudget]) -> Optional[str]:
    """The anytime budget's exhaustion reason, or ``None`` (always
    ``None`` without a budget).  Searchers call this at loop boundaries
    and break with their best-so-far configuration."""
    if budget is None:
        return None
    return budget.exhausted()


def _restore_scan(
    budget: Optional[SearchBudget],
    algorithm: str,
    budget_bytes: int,
    candidates,
):
    """Restore a ranked-scan searcher's checkpoint: ``(configuration,
    next cursor, tracked benefit)``, or ``None`` when there is nothing
    (valid) to resume."""
    if budget is None:
        return None
    state = budget.restore(algorithm, budget_bytes)
    if state is None:
        return None
    resolved = resolve_candidates(state.candidate_keys, candidates)
    if resolved is None:
        return None  # workload/data changed underneath the checkpoint
    cursor = 0 if state.cursor is None else state.cursor + 1
    return IndexConfiguration(resolved), cursor, state.benefit


# ---------------------------------------------------------------------------
# Greedy (no heuristics)
# ---------------------------------------------------------------------------

def greedy_search(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Density greedy on standalone benefits; ignores interaction, so it
    happily picks redundant indexes that the optimizer will never combine."""
    telemetry = _Telemetry(evaluator)
    config = IndexConfiguration()
    restored = _restore_scan(budget, "greedy", budget_bytes, candidates)
    start = 0
    if restored is not None:
        config, start, _ = restored
    remaining = budget_bytes - config.size_bytes()
    truncated = _spent(budget)
    if truncated is None:
        ranked = _positive_candidates(candidates, evaluator)
        for cursor in range(start, len(ranked)):
            truncated = _spent(budget)
            if truncated is not None:
                break
            candidate = ranked[cursor]
            if candidate.size_bytes <= remaining:
                config = config.with_candidate(candidate)
                remaining -= candidate.size_bytes
                if budget is not None:
                    budget.note_best(
                        "greedy", budget_bytes, config, cursor=cursor
                    )
    return telemetry.finish(
        "greedy", config, budget_bytes,
        truncated=truncated, resumed=restored is not None,
    )


# ---------------------------------------------------------------------------
# Greedy with heuristics (Section VI-A)
# ---------------------------------------------------------------------------

def greedy_search_with_heuristics(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    beta: float = DEFAULT_BETA,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Greedy search with the paper's redundancy/generality heuristics.

    The primary objective stays workload benefit; the added objective is
    maximizing the number of workload patterns actually served by chosen
    indexes.  A bitmap of covered basic patterns blocks replicated
    coverage, and a general index must beat the specific indexes it
    generalizes (IB test) without exceeding their total size by more than
    ``beta``.
    """
    telemetry = _Telemetry(evaluator)
    dag = CandidateDag(candidates)
    basics = candidates.basics()
    covered: Dict[Tuple, bool] = {b.key: False for b in basics}
    config = IndexConfiguration()
    current_benefit = 0.0
    start = 0
    restored = _restore_scan(
        budget, "greedy_heuristics", budget_bytes, candidates
    )
    if restored is not None:
        config, start, checkpointed_benefit = restored
        current_benefit = (
            checkpointed_benefit
            if checkpointed_benefit is not None
            else evaluator.benefit(config)
        )
        for chosen in config:
            for basic in basics:
                if chosen.covers(basic) or basic.key == chosen.key:
                    covered[basic.key] = True
    remaining = budget_bytes - config.size_bytes()
    truncated = _spent(budget)

    ranked = [] if truncated is not None else _positive_candidates(
        candidates, evaluator
    )
    for cursor in range(start, len(ranked)):
        truncated = _spent(budget)
        if truncated is not None:
            break
        candidate = ranked[cursor]
        if candidate.size_bytes > remaining:
            continue
        covered_basics = [b for b in basics if candidate.covers(b) or b.key == candidate.key]
        if covered_basics and all(covered[b.key] for b in covered_basics):
            continue  # pure replication of already-served patterns
        delta = evaluator.delta_benefit(config, candidate, current_benefit)
        if candidate.general:
            children = [c for c in dag.children(candidate)]
            if children:
                # IB test on deltas: benefit(X+general) < benefit(X+children)
                # iff the deltas compare the same way (benefit(X) cancels).
                delta_children = evaluator.delta_benefit(
                    config, children, current_benefit
                )
                children_size = sum(c.size_bytes for c in children)
                if delta < delta_children:
                    continue
                if candidate.size_bytes > (1.0 + beta) * children_size:
                    continue
        if delta <= 0:
            continue
        config = config.with_candidate(candidate)
        current_benefit += delta
        remaining = budget_bytes - config.size_bytes()
        for basic in covered_basics:
            covered[basic.key] = True
        if budget is not None:
            budget.note_best(
                "greedy_heuristics", budget_bytes, config,
                benefit=current_benefit, cursor=cursor,
            )
    return telemetry.finish(
        "greedy_heuristics", config, budget_bytes, benefit=current_benefit,
        truncated=truncated, resumed=restored is not None,
    )


# ---------------------------------------------------------------------------
# Top down search (Section VI-B)
# ---------------------------------------------------------------------------

def _top_down(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    full: bool,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    algorithm = "topdown_full" if full else "topdown_lite"
    telemetry = _Telemetry(evaluator)

    # Preprocessing: drop candidates with zero/negative benefit (high
    # maintenance cost, or never used in optimizer plans).
    surviving = CandidateSet()
    for candidate in candidates:
        if evaluator.standalone_benefit(candidate) > 0:
            survivor = surviving.get_or_add(
                candidate.pattern,
                candidate.value_type,
                candidate.collection,
                general=candidate.general,
            )
            survivor.affected = set(candidate.affected)
            survivor.size_bytes = candidate.size_bytes
            survivor.sources = set(candidate.sources)
    dag = CandidateDag(surviving)
    config = IndexConfiguration(dag.roots())
    resumed = False
    if budget is not None:
        state = budget.restore(algorithm, budget_bytes)
        if state is not None:
            resolved = resolve_candidates(state.candidate_keys, surviving)
            if resolved is not None:
                # The replacement loop is driven entirely by the current
                # configuration, so re-entering it from the checkpoint
                # is exact.
                config = IndexConfiguration(resolved)
                resumed = True
    truncated = _spent(budget)

    while truncated is None and config.size_bytes() > budget_bytes:
        truncated = _spent(budget)
        if truncated is not None:
            break
        replaceable = [
            c for c in config if dag.children(c)
        ]
        if not replaceable:
            break
        best: Optional[CandidateIndex] = None
        best_ratio = float("inf")
        best_delta_c = float("-inf")
        for general in replaceable:
            children = [c for c in dag.children(general) if c not in config]
            delta_c = general.size_bytes - sum(c.size_bytes for c in children)
            if delta_c <= 0:
                continue  # replacing would not shrink the configuration
            if full:
                base = config.without(general)
                if evaluator.naive:
                    # Delta evaluation is one of the techniques the naive
                    # ablation disables: evaluate both sides in full.
                    ib_general = evaluator.benefit(base.with_candidate(general))
                    ib_children = evaluator.benefit(base.with_candidates(children))
                    delta_b = ib_general - ib_children
                else:
                    # dB = benefit(base+general) - benefit(base+children);
                    # benefit(base) cancels, so score both sides as deltas
                    # and re-cost only the groups the swapped indexes touch.
                    delta_b = evaluator.delta_benefit(
                        base, general
                    ) - evaluator.delta_benefit(base, children)
            else:
                delta_b = evaluator.standalone_benefit(general) - sum(
                    evaluator.standalone_benefit(c) for c in children
                )
            ratio = delta_b / delta_c
            if ratio < best_ratio or (
                ratio == best_ratio and delta_c > best_delta_c
            ):
                best = general
                best_ratio = ratio
                best_delta_c = delta_c
        if best is None:
            break
        children = [c for c in dag.children(best) if c not in config]
        config = config.without(best).with_candidates(children)
        if budget is not None:
            budget.note_best(algorithm, budget_bytes, config)

    if config.size_bytes() > budget_bytes:
        # Out of general candidates to replace: plain greedy over what is
        # left (no heuristics needed -- Section VI-B).
        scored = sorted(
            config,
            key=lambda c: (
                evaluator.standalone_benefit(c) / c.size_bytes
                if c.size_bytes
                else 0.0
            ),
            reverse=True,
        )
        trimmed = IndexConfiguration()
        remaining = budget_bytes
        for candidate in scored:
            if candidate.size_bytes <= remaining:
                trimmed = trimmed.with_candidate(candidate)
                remaining -= candidate.size_bytes
        config = trimmed
    return telemetry.finish(
        algorithm, config, budget_bytes,
        truncated=truncated, resumed=resumed,
    )


def top_down_lite(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Top down search with interaction-free dB (sum of standalone
    benefits)."""
    return _top_down(candidates, evaluator, budget_bytes, full=False,
                     budget=budget)


def top_down_full(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Top down search evaluating every configuration's benefit through
    the optimizer (captures index interaction)."""
    return _top_down(candidates, evaluator, budget_bytes, full=True,
                     budget=budget)


# ---------------------------------------------------------------------------
# Dynamic programming knapsack
# ---------------------------------------------------------------------------

#: Size-resolution buckets of the DP table (sizes are scaled down to this
#: many units to keep the table tractable).
DP_UNITS = 2048


def dynamic_programming_search(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Exact 0/1 knapsack on standalone benefits (ignores interaction --
    "optimal modulo index interactions" as the paper puts it).  Sizes are
    quantized to :data:`DP_UNITS` buckets.  Under an anytime budget the
    partial table's best entry is still a valid (truncated) answer."""
    telemetry = _Telemetry(evaluator)
    truncated = _spent(budget)
    items = []
    if truncated is None:
        for c in candidates:
            truncated = _spent(budget)
            if truncated is not None:
                break
            items.append((evaluator.standalone_benefit(c), c))
    items = [(b, c) for b, c in items if b > 0 and c.size_bytes > 0]
    unit = max(1, budget_bytes // DP_UNITS)
    capacity = budget_bytes // unit
    # dp[w] = (best benefit, chosen candidate keys) at weight w
    best_benefit = [0.0] * (capacity + 1)
    chosen: List[Tuple] = [() for _ in range(capacity + 1)]
    for benefit, candidate in items:
        weight = -(-candidate.size_bytes // unit)  # ceil division
        if weight > capacity:
            continue
        for w in range(capacity, weight - 1, -1):
            trial = best_benefit[w - weight] + benefit
            if trial > best_benefit[w]:
                best_benefit[w] = trial
                chosen[w] = chosen[w - weight] + (candidate,)
    top = max(range(capacity + 1), key=lambda w: best_benefit[w])
    config = IndexConfiguration(chosen[top])
    return telemetry.finish("dp", config, budget_bytes, truncated=truncated)


# ---------------------------------------------------------------------------
# Exhaustive search (oracle)
# ---------------------------------------------------------------------------

#: Refuse exhaustive search beyond this many candidates (2^n configurations).
EXHAUSTIVE_LIMIT = 16


def exhaustive_search(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Try *every* configuration within the budget and return the best by
    true (interaction-aware) benefit.

    The related work [21] offers exhaustive search as the accurate-but-slow
    alternative to greedy; here it doubles as a testing oracle for the
    other algorithms.  Only feasible for small candidate sets
    (:data:`EXHAUSTIVE_LIMIT`); the sub-configuration cache keeps the
    optimizer-call count from exploding with the configuration count.
    """
    telemetry = _Telemetry(evaluator)
    pool = [c for c in candidates if 0 < c.size_bytes <= budget_bytes]
    if len(pool) > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive search over {len(pool)} candidates is infeasible "
            f"(limit {EXHAUSTIVE_LIMIT})"
        )
    best_config = IndexConfiguration()
    best_benefit = 0.0
    truncated = None
    for mask in range(1, 1 << len(pool)):
        truncated = _spent(budget)
        if truncated is not None:
            break
        chosen = [pool[i] for i in range(len(pool)) if mask & (1 << i)]
        if sum(c.size_bytes for c in chosen) > budget_bytes:
            continue
        config = IndexConfiguration(chosen)
        benefit = evaluator.benefit(config)
        if benefit > best_benefit or (
            benefit == best_benefit
            and config.size_bytes() < best_config.size_bytes()
        ):
            best_config = config
            best_benefit = benefit
    return telemetry.finish(
        "exhaustive", best_config, budget_bytes, benefit=best_benefit,
        truncated=truncated,
    )


def _ilp_search(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """CoPhy-style cost-atom ILP (LP relaxation + branch and bound with
    a greedy fallback).  Imported lazily: :mod:`repro.core.ilp` builds
    on this module's telemetry and greedy searcher."""
    from repro.core.ilp import ilp_search

    return ilp_search(candidates, evaluator, budget_bytes, budget=budget)


#: Registry used by the advisor front end.
ALGORITHMS: Dict[str, Callable] = {
    "greedy": greedy_search,
    "greedy_heuristics": greedy_search_with_heuristics,
    "topdown_lite": top_down_lite,
    "topdown_full": top_down_full,
    "dp": dynamic_programming_search,
    "exhaustive": exhaustive_search,
    "ilp": _ilp_search,
}
