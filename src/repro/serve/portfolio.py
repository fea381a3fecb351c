"""The served recommend: one ILP search on the request's snapshot.

The paper's advisor runs one search on the optimizer's own what-if
costs; CoPhy (PAPERS.md) casts that search as one binary program.
:func:`run_portfolio` builds one :class:`~repro.core.advisor.
IndexAdvisor` and :class:`~repro.optimizer.session.WhatIfSession` on
the snapshot it is handed and runs ``ilp`` on it.  The ILP already
races its own greedy-with-heuristics incumbent and falls back to it
when its deadline or call budget runs out, so the answer is
deadline-safe and never worse than that greedy.

Fault handling is an attempt ladder, as in the online daemon's
``_tune``: each attempt draws the ``serve.portfolio`` fault site; when
the ``ilp`` attempt raises, exactly one ``greedy_heuristics`` attempt
runs on the same warm advisor with what is left of the deadline and the
same call budget, and the failed attempt is recorded in the
recommendation's diagnostics.  Only when both fail does the recommend
raise -- a typed :class:`~repro.robustness.errors.ConfigError` when
either attempt failed on configuration junk,
:class:`~repro.robustness.errors.FatalAdvisorError` otherwise.
"""

from __future__ import annotations

from typing import Optional

from repro.query.workload import Workload
from repro.robustness.budget import SearchBudget
from repro.robustness.errors import ConfigError, FatalAdvisorError
from repro.robustness.faults import maybe_inject

#: The deadline the fallback attempt gets once the recommend's has run
#: out: already spent, so the search truncates at its first budget
#: check and reports its best-so-far (a :class:`SearchBudget` deadline
#: must be positive).
_EXPIRED_SECONDS = 1e-9


def run_portfolio(
    database,
    workload: Workload,
    budget_bytes: int,
    *,
    deadline_seconds: Optional[float] = None,
    optimizer_call_budget: Optional[int] = None,
    snapshots=None,
):
    """Recommend an index configuration for ``workload`` within
    ``budget_bytes`` with one ILP search (see the module docstring);
    ``portfolio_stats["optimizer_calls_total"]`` holds the optimizer
    calls the whole recommend made.

    ``optimizer_call_budget`` bounds each attempt's calls, candidate
    enumeration included.  ``snapshots`` is accepted and unused: the
    caller hands in the snapshot to search on.
    """
    from repro.core.advisor import IndexAdvisor
    from repro.optimizer.session import WhatIfSession

    if budget_bytes <= 0:
        raise ValueError(
            f"budget_bytes must be a positive number of bytes, got "
            f"{budget_bytes}"
        )
    clock = SearchBudget(deadline_seconds=deadline_seconds)
    advisor = IndexAdvisor(
        database,
        Workload(list(workload.entries)),
        session=WhatIfSession(database),
    )
    failed = []
    for algorithm in ("ilp", "greedy_heuristics"):
        remaining = clock.remaining_seconds()
        if remaining is not None:
            remaining = max(remaining, _EXPIRED_SECONDS)
        try:
            maybe_inject("serve.portfolio")
            recommendation = advisor.recommend(
                budget_bytes,
                algorithm=algorithm,
                deadline_seconds=remaining,
                optimizer_call_budget=optimizer_call_budget,
            )
        except Exception as exc:
            failed.append((algorithm, exc))
            continue
        recommendation.diagnostics += [
            f"served recommend: {name} attempt failed "
            f"({type(exc).__name__}: {exc})"
            for name, exc in failed
        ]
        recommendation.portfolio_stats = {
            "optimizer_calls_total": advisor.session.counters.optimizer_calls
        }
        return recommendation
    message = "every served recommend attempt failed (" + "; ".join(
        f"{name}: {exc}" for name, exc in failed
    ) + ")"
    if any(isinstance(exc, ConfigError) for _, exc in failed):
        raise ConfigError(message)
    raise FatalAdvisorError(message, phase="portfolio")
