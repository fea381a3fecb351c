"""Portfolio search: multiple strategies raced under one deadline.

CoPhy (PAPERS.md) motivates running several search formulations of the
same tuning problem and keeping the best answer; querytorque-style
serving front ends do the same with whole query plans.  The portfolio
here runs several of the advisor's anytime strategies
(:data:`~repro.core.search.PORTFOLIO_ALGORITHMS`) against one disk
budget and one deadline:

* ``retry`` -- strategies run *sequentially*; each later attempt gets
  only what is left of the deadline
  (:meth:`SearchBudget.remaining_seconds`), and the best result so far
  is kept.  Cheapest mode; first-strategy latency when the first
  strategy is good.
* ``tournament`` -- all strategies run *concurrently* on a PR 4
  :class:`~repro.parallel.executors.WorkerPool` thread pool, each with
  the full deadline; the best benefit wins (ties break to the smaller
  configuration, then to strategy order).
* ``evolutionary`` -- tournament generations: generation 0 is the base
  strategies, later generations are seeded-perturbed variants (jittered
  ``beta``, fractional disk budget, strategy choice drawn from a
  deterministic per-variant RNG), bounded by the deadline.

Every variant is scored by the same full-workload evaluator, so
benefits are directly comparable and the portfolio result is by
construction ``>=`` each surviving single strategy.  When the caller
passes a :class:`~repro.storage.snapshots.SnapshotStore` (the serving
front end does), each *concurrent* lane runs against its own store
snapshot instead of the shared live database: a private catalog and
counters (lanes stop contending on ``fresh_name``) over the store's
shared read-only collections, at the cost of one shell round-trip per
lane (storage/snapshots.py has the sharing contract).  Retry mode and
store-less calls keep the shared-database semantics.  A faulted variant
(fault site ``serve.portfolio``) degrades the portfolio to the
survivors' best -- never an unhandled exception; only when *every*
variant fails does the portfolio raise (a typed
:class:`~repro.robustness.errors.ConfigError` when configuration junk
took all lanes down, :class:`~repro.robustness.errors.FatalAdvisorError`
otherwise).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.search import DEFAULT_BETA, PORTFOLIO_ALGORITHMS
from repro.parallel.executors import WorkerPool
from repro.query.workload import Workload
from repro.robustness.budget import SearchBudget
from repro.robustness.errors import ConfigError, FatalAdvisorError
from repro.robustness.faults import maybe_inject

PORTFOLIO_MODES = ("retry", "tournament", "evolutionary")
DEFAULT_STRATEGIES: Tuple[str, ...] = PORTFOLIO_ALGORITHMS


@dataclass(frozen=True)
class VariantSpec:
    """One portfolio lane: a strategy plus its (possibly perturbed)
    search knobs."""

    label: str
    algorithm: str
    beta: float = DEFAULT_BETA
    budget_fraction: float = 1.0
    generation: int = 0


@dataclass
class VariantOutcome:
    """What one lane produced: a recommendation or a typed error."""

    spec: VariantSpec
    recommendation: Optional[object] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    elapsed_seconds: float = 0.0

    def to_dict(self, winner: bool = False) -> dict:
        data = {
            "label": self.spec.label,
            "algorithm": self.spec.algorithm,
            "beta": self.spec.beta,
            "budget_fraction": self.spec.budget_fraction,
            "generation": self.spec.generation,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.recommendation is not None:
            search = self.recommendation.search
            data.update(
                benefit=search.benefit,
                size_bytes=search.size_bytes,
                optimizer_calls=search.optimizer_calls,
                truncated=search.truncated,
                degraded=self.recommendation.degraded,
                winner=winner,
            )
        else:
            data.update(error=self.error, error_type=self.error_type)
        return data


def base_specs(strategies: Sequence[str]) -> List[VariantSpec]:
    return [VariantSpec(label=name, algorithm=name) for name in strategies]


def perturbed_specs(
    strategies: Sequence[str],
    seed: int,
    generation: int,
    population: int,
) -> List[VariantSpec]:
    """Seeded-perturbed variants for one evolutionary generation.  Each
    variant's RNG is keyed on ``(seed, generation, index)`` alone, so
    the population is deterministic regardless of which lanes ran or in
    what order."""
    specs = []
    for index in range(population):
        rng = random.Random(f"{seed}:{generation}:{index}")
        algorithm = rng.choice(list(strategies))
        specs.append(
            VariantSpec(
                label=f"g{generation}.{index}:{algorithm}",
                algorithm=algorithm,
                beta=round(rng.uniform(0.05, 0.25), 3),
                budget_fraction=round(rng.uniform(0.85, 1.0), 3),
                generation=generation,
            )
        )
    return specs


def _run_variant(
    database,
    entries,
    spec: VariantSpec,
    budget_bytes: int,
    deadline_seconds: Optional[float],
    optimizer_call_budget: Optional[int],
) -> VariantOutcome:
    """Run one lane to a :class:`VariantOutcome`.  Never raises: lanes
    run inside ``WorkerPool.run`` where an escaped exception would break
    the whole batch, and a faulted strategy must degrade the portfolio,
    not kill it."""
    from repro.core.advisor import IndexAdvisor
    from repro.optimizer.session import WhatIfSession

    started = time.perf_counter()
    try:
        maybe_inject("serve.portfolio")
        advisor = IndexAdvisor(
            database,
            Workload(list(entries)),
            session=WhatIfSession(database),
        )
        recommendation = advisor.recommend(
            max(1, int(budget_bytes * spec.budget_fraction)),
            algorithm=spec.algorithm,
            beta=spec.beta,
            deadline_seconds=deadline_seconds,
            optimizer_call_budget=optimizer_call_budget,
        )
        return VariantOutcome(
            spec,
            recommendation=recommendation,
            elapsed_seconds=time.perf_counter() - started,
        )
    except Exception as exc:
        return VariantOutcome(
            spec,
            error=str(exc),
            error_type=type(exc).__name__,
            elapsed_seconds=time.perf_counter() - started,
        )


def _better(candidate: VariantOutcome, incumbent: Optional[VariantOutcome]):
    """Deterministic winner order: max benefit, ties to fewer bytes,
    then to earlier (strategy-order) lane -- so the incumbent survives
    exact ties."""
    if candidate.recommendation is None:
        return False
    if incumbent is None or incumbent.recommendation is None:
        return True
    new = candidate.recommendation.search
    old = incumbent.recommendation.search
    return (new.benefit, -new.size_bytes) > (old.benefit, -old.size_bytes)


def run_portfolio(
    database,
    workload: Workload,
    budget_bytes: int,
    *,
    mode: str = "tournament",
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    deadline_seconds: Optional[float] = None,
    optimizer_call_budget: Optional[int] = None,
    seed: int = 0,
    generations: int = 2,
    population: Optional[int] = None,
    workers: Optional[int] = None,
    snapshots=None,
):
    """Race ``strategies`` against one deadline; return the best
    :class:`~repro.core.advisor.Recommendation` with per-strategy
    telemetry attached (``portfolio_stats`` / ``to_dict()["portfolio"]``).
    """
    if mode not in PORTFOLIO_MODES:
        raise ValueError(
            f"unknown portfolio mode {mode!r}; choose from {PORTFOLIO_MODES}"
        )
    strategies = tuple(strategies)
    if not strategies:
        raise ValueError("portfolio needs at least one strategy")
    from repro.core.search import ALGORITHMS

    for name in strategies:
        if name not in ALGORITHMS:
            raise ValueError(
                f"unknown strategy {name!r}; choose from {sorted(ALGORITHMS)}"
            )

    # Deterministic shared-state discipline for concurrent lanes:
    # statistics are primed up front (exactly one rescan per collection,
    # counted here, not racily inside lanes) and the catalog name
    # counter is snapshotted so the winner's DDL can be re-derived as if
    # it had been the only search run.
    for name in sorted(database.collections):
        database.runstats(name)
    name_counter_before = database.catalog._name_counter

    clock_budget = SearchBudget(deadline_seconds=deadline_seconds)
    entries = list(workload.entries)

    def lane(spec: VariantSpec) -> VariantOutcome:
        remaining = clock_budget.remaining_seconds()
        lane_database = database
        if snapshots is not None and mode != "retry":
            # Concurrent lanes each get their own snapshot shell:
            # identical bytes (the differential suite pins this), O(shell)
            # to take, and no cross-lane catalog contention.
            lane_database = snapshots.snapshot(database)
        return _run_variant(
            lane_database,
            entries,
            spec,
            budget_bytes,
            remaining if mode == "retry" else deadline_seconds,
            optimizer_call_budget,
        )

    outcomes: List[VariantOutcome] = []
    best: Optional[VariantOutcome] = None

    def absorb(batch: Sequence[VariantOutcome]):
        nonlocal best
        for outcome in batch:
            outcomes.append(outcome)
            if _better(outcome, best):
                best = outcome

    if mode == "retry":
        for spec in base_specs(strategies):
            remaining = clock_budget.remaining_seconds()
            if outcomes and remaining is not None and remaining <= 0:
                break
            absorb([lane(spec)])
            if best is not None and not best.recommendation.search.truncated:
                # First untruncated success wins the retry ladder; later
                # strategies only run when earlier ones failed or were
                # cut short by the deadline.
                break
    else:
        pool = WorkerPool("thread", max(1, workers or len(strategies)))
        try:
            absorb(pool.run(lane, base_specs(strategies)))
            if mode == "evolutionary":
                pop = population or len(strategies)
                for generation in range(1, max(1, generations)):
                    remaining = clock_budget.remaining_seconds()
                    if remaining is not None and remaining <= 0:
                        break
                    absorb(
                        pool.run(
                            lane,
                            perturbed_specs(
                                strategies, seed, generation, pop
                            ),
                        )
                    )
        finally:
            pool.shutdown()

    if best is None or best.recommendation is None:
        errors = "; ".join(
            f"{o.spec.label}: {o.error}" for o in outcomes if o.error
        )
        config_error = next(
            (
                o
                for o in outcomes
                if o.error_type == "ConfigError"
            ),
            None,
        )
        if config_error is not None:
            raise ConfigError(
                f"every portfolio strategy failed ({errors})"
            )
        raise FatalAdvisorError(
            f"every portfolio strategy failed ({errors})", phase="portfolio"
        )

    winner = best.recommendation
    # Re-derive the winner's DDL as if its search had run alone: restore
    # the catalog counter (concurrent lanes bumped it in race order) and
    # mint names deterministically.
    database.catalog._name_counter = name_counter_before
    winner.ddl = [
        candidate.definition(
            database.catalog.fresh_name("xmlidx"), virtual=False
        ).ddl()
        for candidate in winner.configuration
    ]
    failed = sum(1 for o in outcomes if o.recommendation is None)
    winner.portfolio_stats = {
        "mode": mode,
        "seed": seed,
        "winner": best.spec.label,
        "deadline_seconds": deadline_seconds,
        "strategies_failed": failed,
        "optimizer_calls_total": sum(
            o.recommendation.search.optimizer_calls
            for o in outcomes
            if o.recommendation is not None
        ),
        "strategies": [
            outcome.to_dict(winner=outcome is best) for outcome in outcomes
        ],
    }
    if failed:
        winner.diagnostics = list(winner.diagnostics) + [
            f"portfolio: {o.spec.label} failed ({o.error_type}: {o.error})"
            for o in outcomes
            if o.recommendation is None
        ]
    return winner
