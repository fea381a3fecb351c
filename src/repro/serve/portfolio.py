"""The served recommend: one advise ladder on the request's snapshot.

:func:`run_portfolio` builds one :class:`~repro.core.advisor.
IndexAdvisor` and :class:`~repro.optimizer.session.WhatIfSession` on
the snapshot it is handed and runs :meth:`~repro.core.advisor.
IndexAdvisor.advise` on it: ``ilp``, then at most one
``greedy_heuristics`` attempt on the same warm advisor with what is
left of the deadline and the same call budget.  The ILP already races
its own greedy-with-heuristics incumbent and falls back to it when its
deadline or call budget runs out, so the answer is deadline-safe and
never worse than that greedy.
"""

from __future__ import annotations

from typing import Optional

from repro.query.workload import Workload


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
    ``budget_bytes`` (see the module docstring);
    ``portfolio_stats["optimizer_calls_total"]`` holds the optimizer
    calls the whole recommend made.

    ``optimizer_call_budget`` bounds each attempt's calls, candidate
    enumeration included.  ``snapshots`` is accepted and unused: the
    caller hands in the snapshot to search on.
    """
    from repro.core.advisor import IndexAdvisor
    from repro.optimizer.session import WhatIfSession

    advisor = IndexAdvisor(
        database,
        Workload(list(workload.entries)),
        session=WhatIfSession(database),
    )
    recommendation = advisor.advise(
        budget_bytes,
        deadline_seconds=deadline_seconds,
        optimizer_call_budget=optimizer_call_budget,
    )
    recommendation.portfolio_stats = {
        "optimizer_calls_total": advisor.session.counters.optimizer_calls
    }
    return recommendation
