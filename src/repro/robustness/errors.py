"""Typed error taxonomy of the resilient advisor runtime.

The paper's tight coupling makes every advisor phase depend on repeated
optimizer round-trips, so a single failed or slow evaluation could sink an
entire ``recommend()`` run.  The taxonomy below partitions everything that
can go wrong into *retryable*, *degradable*, and *fatal*, so each layer of
the stack knows exactly which failures it may absorb:

* :class:`RetryableOptimizerError` -- a transient optimizer (or
  statistics) failure; the session's :class:`~repro.robustness.policy.
  RetryPolicy` retries it with backoff before falling back.
* :class:`DegradedEstimate` -- not an exception but the *record* of a
  fallback: when retries are exhausted the session answers from the
  decoupled baseline's heuristic cost model and tags the estimate.
* :class:`FatalAdvisorError` -- the only exception ``recommend()`` is
  allowed to raise for runtime failures: anything that can neither be
  retried nor degraded is wrapped into it with context.

Plus the edge-of-system errors: :class:`PersistError` for corrupt or
half-written on-disk databases, :class:`WorkloadParseError` for malformed
workload statements, :class:`ConfigError` for junk configuration input
(CLI flags and ``REPRO_*`` environment variables), and
:class:`BudgetExhausted`, the internal control signal of
deadline-bounded anytime search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


class AdvisorError(Exception):
    """Base class of every typed advisor-runtime error."""


class RetryableOptimizerError(AdvisorError):
    """A transient failure of an optimizer round-trip (evaluation,
    enumeration, or planning).  The session retries these under its
    :class:`~repro.robustness.policy.RetryPolicy` before degrading."""


class OptimizerTimeout(RetryableOptimizerError):
    """An optimizer call exceeded the policy's per-call timeout.  Treated
    exactly like any other retryable failure."""


class StatisticsUnavailable(RetryableOptimizerError):
    """A statistics lookup (RUNSTATS or derived virtual-index statistics)
    failed or is unavailable.  Retryable: the optimizer's cost model
    reads statistics mid-optimization, so a statistics fault inside an
    optimizer round-trip is retried (and ultimately degraded) like any
    other transient failure.  Direct consumers -- candidate sizing,
    maintenance charges, the fallback estimator -- catch it themselves
    and degrade to statistics-free defaults."""


class ConfigError(AdvisorError, ValueError):
    """An invalid configuration value: a malformed CLI flag or a junk
    environment variable (``REPRO_SHARDS``, ``REPRO_DEADLINE``, ...).

    Subclasses :class:`ValueError` so call sites that predate the typed
    taxonomy keep working, while new code can catch the typed error and
    report the offending option by name."""

    def __init__(self, message: str, *, option: Optional[str] = None) -> None:
        if option is not None:
            message = f"{option}: {message}"
        super().__init__(message)
        self.option = option


class AdmissionRejected(AdvisorError):
    """A serving-layer request was refused admission: the tenant's
    budget pool is exhausted (optimizer-call quota spent).  Typed so
    front ends map it to a ``rejected`` response instead of a stack
    trace; carries the tenant and the machine-readable reason."""

    def __init__(
        self,
        message: str,
        *,
        tenant: str = "default",
        reason: str = "rejected",
    ) -> None:
        super().__init__(f"tenant {tenant!r}: {message}")
        self.tenant = tenant
        self.reason = reason


class FatalAdvisorError(AdvisorError):
    """An unrecoverable advisor failure.  ``recommend()`` raises nothing
    else for runtime faults: retryable errors are retried, degradable
    ones are absorbed, and whatever remains is wrapped into this type
    with the phase it escaped from."""

    def __init__(self, message: str, *, phase: Optional[str] = None) -> None:
        super().__init__(message)
        self.phase = phase


class PersistError(AdvisorError):
    """A corrupt, truncated, or unwritable on-disk database.  Always
    carries the offending path so the operator knows what to fix."""

    def __init__(self, message: str, *, path: Optional[str] = None) -> None:
        if path is not None:
            message = f"{message} (path: {path})"
        super().__init__(message)
        self.path = path


class LifecycleError(AdvisorError):
    """Base class of online-daemon lifecycle failures (the supervised
    ``repro serve`` loop, docs/robustness.md).  Never raised by the
    one-shot batch ``recommend()`` path."""


class CycleError(LifecycleError):
    """One tuning cycle failed past its retry and algorithm-fallback
    attempts.  The daemon's supervisor absorbs it -- the cycle is
    skipped, the watchdog records the failure, the materialized
    configuration is left untouched, and ingestion continues."""

    def __init__(self, message: str, *, cycle: Optional[int] = None) -> None:
        if cycle is not None:
            message = f"cycle {cycle}: {message}"
        super().__init__(message)
        self.cycle = cycle


class JournalError(PersistError):
    """A corrupt, truncated, or unwritable daemon journal.  Carries the
    journal path; ``repro serve --resume`` degrades to a fresh daemon
    (with a diagnostic) instead of refusing to start."""


class WorkloadParseError(AdvisorError):
    """A malformed workload statement (strict ingestion only; lenient
    ingestion records a diagnostic and skips the statement instead)."""


class BudgetExhausted(AdvisorError):
    """Internal control signal of anytime search: the deadline passed or
    the optimizer-call budget ran out.  Searchers catch it at loop
    boundaries and return their best-so-far configuration flagged
    ``truncated``; it never escapes ``recommend()``."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class DegradedEstimate:
    """The record of one degraded (fallback) cost estimate.

    Produced when an optimizer evaluation failed past retries, or when
    statistics were unavailable; the session keeps a bounded list of
    these and surfaces the count through its counters and
    ``Recommendation.to_dict()``.
    """

    site: str
    statement: str
    estimated_cost: float
    reason: str

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "statement": self.statement,
            "estimated_cost": round(self.estimated_cost, 6),
            "reason": self.reason,
        }
