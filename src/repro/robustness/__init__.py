"""Resilient advisor runtime: fault injection, retry/degradation policy,
and deadline-bounded anytime search.

The tight optimizer coupling that gives the advisor its accuracy also
concentrates its failure surface: every phase of ``recommend()`` is a
chain of optimizer round-trips.  This package keeps the advisor alive
across that surface:

* :mod:`repro.robustness.errors` -- the typed error taxonomy
  (retryable / degradable / fatal) plus :class:`DegradedEstimate`.
* :mod:`repro.robustness.faults` -- deterministic, seeded fault
  injection at every fragile boundary (optimizer calls, statistics,
  persistence, workload parsing).
* :mod:`repro.robustness.policy` -- retry/timeout/backoff around the
  session's optimizer calls.
* :mod:`repro.robustness.budget` -- the anytime-search contract:
  deadlines, optimizer-call budgets, best-so-far truncation.
* :mod:`repro.robustness.checkpoint` -- crash-safe checkpoint/resume of
  search runs.
* :mod:`repro.robustness.watchdog` -- heartbeat/watchdog counters that
  make the online daemon's supervision observable.

See ``docs/robustness.md`` for the full contract.
"""

from repro.robustness.budget import (
    SearchBudget,
    call_budget_from_env,
    deadline_from_env,
    resolve_call_budget,
    resolve_deadline,
)
from repro.robustness.checkpoint import (
    CheckpointState,
    SearchCheckpoint,
    resolve_candidates,
)
from repro.robustness.errors import (
    AdvisorError,
    BudgetExhausted,
    ConfigError,
    CycleError,
    DegradedEstimate,
    FatalAdvisorError,
    JournalError,
    LifecycleError,
    OptimizerTimeout,
    PersistError,
    ReadOnlySnapshotError,
    RetryableOptimizerError,
    StatisticsUnavailable,
    WorkloadParseError,
)
from repro.robustness.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    InjectedIOError,
    injected,
    install,
    maybe_inject,
    uninstall,
)
from repro.robustness.policy import NO_RETRY, RetryPolicy
from repro.robustness.watchdog import Heartbeat, Watchdog

__all__ = [
    "AdvisorError",
    "BudgetExhausted",
    "CheckpointState",
    "ConfigError",
    "CycleError",
    "DegradedEstimate",
    "FatalAdvisorError",
    "FaultInjector",
    "FaultRule",
    "Heartbeat",
    "InjectedFault",
    "InjectedIOError",
    "JournalError",
    "LifecycleError",
    "NO_RETRY",
    "OptimizerTimeout",
    "PersistError",
    "ReadOnlySnapshotError",
    "RetryPolicy",
    "RetryableOptimizerError",
    "SearchBudget",
    "SearchCheckpoint",
    "StatisticsUnavailable",
    "Watchdog",
    "WorkloadParseError",
    "call_budget_from_env",
    "deadline_from_env",
    "injected",
    "install",
    "maybe_inject",
    "resolve_call_budget",
    "resolve_candidates",
    "resolve_deadline",
    "uninstall",
]
