"""Portfolio search: several strategies, one what-if pass, one deadline.

CoPhy (PAPERS.md) motivates running several search formulations of the
same tuning problem and keeping the best answer; querytorque-style
serving front ends do the same with whole query plans.  The portfolio
here runs several of the advisor's anytime strategies
(:data:`~repro.core.search.PORTFOLIO_ALGORITHMS`) against one disk
budget and one deadline, on **one** :class:`~repro.core.advisor.
IndexAdvisor`:

* **One what-if pass.**  The advisor, its what-if session and its
  evaluator are built once per portfolio.  Candidates, base costs and
  the ranked standalone benefits are computed once, before any lane
  runs, and every lane's search reuses them and every cost an earlier
  lane paid for -- the paper's sub-configuration cache, shared across
  formulations the way CoPhy shares its what-if costs.  The caches hold
  values, not search state, so each lane answers what a fresh advisor
  would.
* **Lanes run in spec order on the calling thread.**  Modes:

  * ``retry`` -- each attempt gets what is left of the deadline
    (:meth:`SearchBudget.remaining_seconds`); the first untruncated
    success wins.  Cheapest mode.
  * ``tournament`` -- every strategy runs; the best benefit wins (ties
    break to the smaller configuration, then to strategy order).
  * ``evolutionary`` -- tournament generations: generation 0 is the
    base strategies, later generations are seeded-perturbed variants
    (jittered ``beta``, fractional disk budget, strategy choice drawn
    from a deterministic per-variant RNG), bounded by the deadline.

* **Fair-share deadline.**  The deadline counts from the portfolio's
  start, shared phase included.  In the tournament and evolutionary
  modes lane *i* gets ``remaining / lanes_left``; time a lane leaves
  unused rolls forward to the next, so the portfolio still returns
  within its deadline.

Every variant is scored by the same full-workload evaluator, so
benefits are directly comparable and the portfolio result is by
construction ``>=`` each surviving single strategy.  A faulted variant
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
from repro.query.workload import Workload
from repro.robustness.budget import SearchBudget
from repro.robustness.errors import AdvisorError, ConfigError, FatalAdvisorError
from repro.robustness.faults import maybe_inject

PORTFOLIO_MODES = ("retry", "tournament", "evolutionary")
DEFAULT_STRATEGIES: Tuple[str, ...] = PORTFOLIO_ALGORITHMS

#: The deadline a lane gets once the portfolio's has run out: already
#: spent, so the lane truncates at its first budget check and reports
#: its best-so-far (a :class:`SearchBudget` deadline must be positive).
_EXPIRED_SECONDS = 1e-9


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
    advisor,
    spec: VariantSpec,
    budget_bytes: int,
    deadline_seconds: Optional[float],
    optimizer_call_budget: Optional[int],
    shared_degraded: bool,
) -> VariantOutcome:
    """Run one lane on the portfolio's advisor.  Never raises: a
    faulted strategy must degrade the portfolio, not kill it."""
    evaluator = advisor.evaluator
    reads = evaluator.fallback_reads
    started = time.perf_counter()
    try:
        maybe_inject("serve.portfolio")
        recommendation = advisor.recommend(
            max(1, int(budget_bytes * spec.budget_fraction)),
            algorithm=spec.algorithm,
            beta=spec.beta,
            deadline_seconds=deadline_seconds,
            optimizer_call_budget=optimizer_call_budget,
        )
    except Exception as exc:
        return VariantOutcome(
            spec,
            error=str(exc),
            error_type=type(exc).__name__,
            elapsed_seconds=time.perf_counter() - started,
        )
    # The session's own flag is sticky across lanes; this lane read a
    # fallback estimate when the shared phase did or when the evaluator
    # (a session result or a cached benefit derived from one) served it
    # one since.
    recommendation.degraded = (
        shared_degraded or evaluator.fallback_reads != reads
    )
    return VariantOutcome(
        spec,
        recommendation=recommendation,
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


def _all_failed(outcomes: Sequence[VariantOutcome]) -> AdvisorError:
    """The typed error of a portfolio none of whose lanes succeeded."""
    errors = "; ".join(
        f"{o.spec.label}: {o.error}" for o in outcomes if o.error
    )
    message = f"every portfolio strategy failed ({errors})"
    if any(o.error_type == "ConfigError" for o in outcomes):
        return ConfigError(message)
    return FatalAdvisorError(message, phase="portfolio")


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
    snapshots=None,
):
    """Run ``strategies`` against one budget and deadline; return the
    best :class:`~repro.core.advisor.Recommendation` with per-strategy
    telemetry attached (``portfolio_stats`` / ``to_dict()["portfolio"]``).

    ``optimizer_call_budget`` bounds each lane's calls *including* the
    shared phase's, as if the lane had run alone.  ``snapshots`` is
    accepted and unused: lanes share the advisor, not per-lane
    snapshots.
    """
    from repro.core.advisor import IndexAdvisor
    from repro.core.search import ALGORITHMS
    from repro.optimizer.session import WhatIfSession

    if mode not in PORTFOLIO_MODES:
        raise ValueError(
            f"unknown portfolio mode {mode!r}; choose from {PORTFOLIO_MODES}"
        )
    strategies = tuple(strategies)
    if not strategies:
        raise ValueError("portfolio needs at least one strategy")
    for name in strategies:
        if name not in ALGORITHMS:
            raise ValueError(
                f"unknown strategy {name!r}; choose from {sorted(ALGORITHMS)}"
            )
    if budget_bytes <= 0:
        raise ValueError(
            f"budget_bytes must be a positive number of bytes, got "
            f"{budget_bytes}"
        )
    clock = SearchBudget(deadline_seconds=deadline_seconds)

    # Statistics are primed up front (exactly one rescan per collection,
    # counted here) and the catalog name counter is snapshotted so the
    # winner's DDL can be re-derived as if its search had run alone.
    for name in sorted(database.collections):
        database.runstats(name)
    name_counter_before = database.catalog._name_counter

    advisor = IndexAdvisor(
        database,
        Workload(list(workload.entries)),
        session=WhatIfSession(database),
    )
    session = advisor.session
    try:
        # The shared phase: candidates, base costs, ranked standalone
        # benefits -- everything every lane's search starts from.
        advisor.evaluator.ranked_positive_candidates(advisor.candidates)
    except Exception as exc:
        raise _all_failed(
            [
                VariantOutcome(
                    spec, error=str(exc), error_type=type(exc).__name__
                )
                for spec in base_specs(strategies)
            ]
        ) from exc
    shared_degraded = advisor.degraded
    lane_calls = (
        None
        if optimizer_call_budget is None
        else max(0, optimizer_call_budget - session.counters.optimizer_calls)
    )

    outcomes: List[VariantOutcome] = []
    best: Optional[VariantOutcome] = None

    def run(spec: VariantSpec, lanes_left: int) -> None:
        nonlocal best
        remaining = clock.remaining_seconds()
        if remaining is not None:
            remaining = max(remaining / lanes_left, _EXPIRED_SECONDS)
        outcome = _run_variant(
            advisor, spec, budget_bytes, remaining, lane_calls,
            shared_degraded,
        )
        outcomes.append(outcome)
        if _better(outcome, best):
            best = outcome

    def expired() -> bool:
        remaining = clock.remaining_seconds()
        return remaining is not None and remaining <= 0

    if mode == "retry":
        for spec in base_specs(strategies):
            if outcomes and expired():
                break
            run(spec, 1)
            if best is not None and not best.recommendation.search.truncated:
                # First untruncated success wins the retry ladder; later
                # strategies only run when earlier ones failed or were
                # cut short by the deadline.
                break
    else:
        planned = [base_specs(strategies)]
        if mode == "evolutionary":
            pop = population or len(strategies)
            planned += [
                perturbed_specs(strategies, seed, generation, pop)
                for generation in range(1, max(1, generations))
            ]
        lanes_left = sum(len(specs) for specs in planned)
        for generation, specs in enumerate(planned):
            if generation and expired():
                break
            for spec in specs:
                run(spec, lanes_left)
                lanes_left -= 1

    if best is None:
        raise _all_failed(outcomes)

    winner = best.recommendation
    # Re-derive the winner's DDL as if its search had run alone: restore
    # the catalog counter (earlier lanes minted names too) and mint
    # names deterministically.
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
        "optimizer_calls_total": session.counters.optimizer_calls,
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
