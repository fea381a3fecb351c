"""Deadline-bounded anytime search: the :class:`SearchBudget`.

CoPhy's argument (Dash et al., PAPERS.md) is that an index advisor must
stay interactive on large workloads: a time budget with a best-so-far
answer beats an all-or-nothing search.  A :class:`SearchBudget` carries
that contract through the searchers:

* a wall-clock **deadline** (``deadline_seconds``, measured from budget
  creation -- i.e. from ``recommend()`` entry);
* an **optimizer-call budget** (``optimizer_call_budget``, measured as a
  delta of the shared session's call counter);
* an optional **checkpoint** (:class:`~repro.robustness.checkpoint.
  SearchCheckpoint`) to which searchers publish best-so-far states,
  making a run crash-safe and resumable.

Searchers call :meth:`check` at loop boundaries; it raises
:class:`~repro.robustness.errors.BudgetExhausted` exactly once per
budget, and the searcher returns its current best configuration flagged
``truncated`` with the reason.  A budget with neither limit nor
checkpoint never raises and never touches the clock.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Mapping, Optional, Tuple

from repro.robustness.checkpoint import CheckpointState, SearchCheckpoint
from repro.robustness.errors import BudgetExhausted, ConfigError


class SearchBudget:
    """Wall-clock + optimizer-call limits plus checkpointing for one
    search run."""

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        optimizer_call_budget: Optional[int] = None,
        session=None,  # WhatIfSession; untyped to avoid a circular import
        checkpoint: Optional[SearchCheckpoint] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if optimizer_call_budget is not None and optimizer_call_budget < 0:
            raise ValueError("optimizer_call_budget must be non-negative")
        if optimizer_call_budget is not None and session is None:
            raise ValueError("optimizer_call_budget requires a session")
        self.deadline_seconds = deadline_seconds
        self.optimizer_call_budget = optimizer_call_budget
        self.session = session
        self.checkpoint = checkpoint
        self.clock = clock
        self._started = clock() if deadline_seconds is not None else 0.0
        self._calls_at_start = (
            session.counters.optimizer_calls if session is not None else 0
        )
        #: Set when the budget first expires; also the searcher's
        #: ``truncated_reason``.
        self.exhausted_reason: Optional[str] = None
        #: Non-fatal notes accumulated while the budget is in use (e.g. a
        #: corrupt checkpoint that was ignored); surfaced through
        #: ``Recommendation.diagnostics``.
        self.diagnostics: List[str] = []

    # ------------------------------------------------------------------
    # Limits
    # ------------------------------------------------------------------
    @property
    def bounded(self) -> bool:
        return (
            self.deadline_seconds is not None
            or self.optimizer_call_budget is not None
        )

    def calls_used(self) -> int:
        if self.session is None:
            return 0
        return self.session.counters.optimizer_calls - self._calls_at_start

    def exhausted(self) -> Optional[str]:
        """The reason the budget is spent, or ``None``."""
        if self.exhausted_reason is not None:
            return self.exhausted_reason
        if (
            self.deadline_seconds is not None
            and self.clock() - self._started >= self.deadline_seconds
        ):
            self.exhausted_reason = (
                f"deadline of {self.deadline_seconds}s expired"
            )
        elif (
            self.optimizer_call_budget is not None
            and self.calls_used() >= self.optimizer_call_budget
        ):
            self.exhausted_reason = (
                f"optimizer-call budget of {self.optimizer_call_budget} spent"
            )
        return self.exhausted_reason

    def check(self) -> None:
        """Raise :class:`BudgetExhausted` when a limit is spent.
        Searchers call this at loop boundaries and catch it to return
        best-so-far."""
        reason = self.exhausted()
        if reason is not None:
            raise BudgetExhausted(reason)

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock left on the deadline (``None`` when unbounded,
        floored at 0).  :meth:`~repro.core.advisor.IndexAdvisor.advise`
        uses this to hand each later attempt only what is left of the
        ladder's deadline."""
        if self.deadline_seconds is None:
            return None
        return max(
            0.0, self.deadline_seconds - (self.clock() - self._started)
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def note_best(
        self,
        algorithm: str,
        budget_bytes: int,
        configuration,
        benefit: Optional[float] = None,
        cursor: Optional[int] = None,
    ) -> None:
        """Publish a best-so-far configuration to the checkpoint (no-op
        without one)."""
        if self.checkpoint is None:
            return
        self.checkpoint.write(
            CheckpointState(
                algorithm=algorithm,
                budget_bytes=budget_bytes,
                candidate_keys=[
                    (str(c.pattern), c.value_type.value) for c in configuration
                ],
                benefit=benefit,
                cursor=cursor,
            )
        )

    def restore(
        self, algorithm: str, budget_bytes: int
    ) -> Optional[CheckpointState]:
        """The stored state for *this* search (same algorithm and disk
        budget), or ``None``.  A completed checkpoint is not resumed."""
        if self.checkpoint is None:
            return None
        state, diagnostic = self.checkpoint.load_for_resume()
        if diagnostic is not None:
            self.diagnostics.append(diagnostic)
        if state is None or state.completed:
            return None
        if state.algorithm != algorithm or state.budget_bytes != budget_bytes:
            return None
        return state

    def mark_completed(
        self, algorithm: str, budget_bytes: int, configuration,
        benefit: Optional[float] = None,
    ) -> None:
        """Record that the search finished (a later run with the same
        checkpoint path starts fresh instead of resuming)."""
        if self.checkpoint is None:
            return
        self.checkpoint.write(
            CheckpointState(
                algorithm=algorithm,
                budget_bytes=budget_bytes,
                candidate_keys=[
                    (str(c.pattern), c.value_type.value) for c in configuration
                ],
                benefit=benefit,
                completed=True,
            )
        )


# ----------------------------------------------------------------------
# Budget-limit resolution (CLI flags and REPRO_* environment fallbacks)
# ----------------------------------------------------------------------
def resolve_deadline(value, option: str = "deadline") -> Optional[float]:
    """Normalize a deadline spec to seconds (``None`` means unbounded).

    Accepts positive numbers, numeric strings, and
    ``none``/``off``/empty (unbounded).  Zero, negative, and junk input
    raise :class:`~repro.robustness.errors.ConfigError` naming the
    offending option, matching the ``REPRO_SHARDS`` treatment.
    """
    if value is None:
        return None
    if isinstance(value, bool):  # bool is an int; reject it explicitly
        raise ConfigError(f"invalid deadline {value!r}", option=option)
    if isinstance(value, (int, float)):
        seconds = float(value)
    else:
        text = str(value).strip().lower()
        if text in ("", "none", "off"):
            return None
        try:
            seconds = float(text)
        except ValueError:
            raise ConfigError(
                f"invalid deadline {value!r}: expected a positive number "
                f"of seconds or 'none'",
                option=option,
            ) from None
    if not seconds > 0:
        raise ConfigError(
            f"deadline must be positive, got {seconds!r}", option=option
        )
    return seconds


def resolve_call_budget(value, option: str = "call-budget") -> Optional[int]:
    """Normalize an optimizer-call budget to a positive int (``None``
    means unbounded).

    Accepts positive ints, digit strings, and ``none``/``off``/empty
    (unbounded).  Zero, negative, and junk input raise
    :class:`~repro.robustness.errors.ConfigError` -- a zero budget can
    never evaluate a single configuration, so it is operator error, not
    a degenerate bound.  (The programmatic :class:`SearchBudget` API
    still accepts 0 for truncation tests.)
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ConfigError(f"invalid call budget {value!r}", option=option)
    if isinstance(value, int):
        calls = value
    else:
        text = str(value).strip().lower()
        if text in ("", "none", "off"):
            return None
        try:
            calls = int(text)
        except ValueError:
            raise ConfigError(
                f"invalid call budget {value!r}: expected a positive "
                f"integer or 'none'",
                option=option,
            ) from None
    if calls <= 0:
        raise ConfigError(
            f"call budget must be positive, got {calls}", option=option
        )
    return calls


def deadline_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[float]:
    """Deadline from ``REPRO_DEADLINE`` (absent/empty means unbounded)."""
    environ = os.environ if environ is None else environ
    return resolve_deadline(
        environ.get("REPRO_DEADLINE"), option="REPRO_DEADLINE"
    )


def call_budget_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[int]:
    """Optimizer-call budget from ``REPRO_CALL_BUDGET`` (absent/empty
    means unbounded)."""
    environ = os.environ if environ is None else environ
    return resolve_call_budget(
        environ.get("REPRO_CALL_BUDGET"), option="REPRO_CALL_BUDGET"
    )
