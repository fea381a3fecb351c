"""Tuning policy of the online advisor daemon: every knob in one place.

The daemon's behavior decomposes into four concerns, each with its own
knobs (docs/robustness.md has the full state machine):

* **ingestion** -- ``window_capacity`` statements of sliding window,
  a tuning cycle considered every ``cycle_interval`` statements;
* **drift** -- re-tune only when the window's coverage-signature
  distribution moved at least ``drift_threshold`` total-variation
  distance from the window that produced the current configuration;
* **tuning** -- the advise ladder (:meth:`~repro.core.advisor.
  IndexAdvisor.advise`) under one per-cycle anytime budget
  (``cycle_deadline_seconds`` / ``cycle_call_budget``), compressed by
  ``compress``: ``algorithm`` runs ``1 + retries`` times, then
  ``greedy_heuristics`` with what is left of the cycle's deadline;
  ``watchdog_limit`` consecutive failed cycles trip the watchdog and
  later cycles run ``greedy_heuristics`` alone;
* **hysteresis & safety** -- a winner must beat the current
  configuration by ``min_relative_improvement`` on the live window to
  be applied; after an apply the daemon holds ``cooldown_cycles``;
  an index key that changed membership more than
  ``max_flaps_per_index`` times is frozen in place; every apply is
  verified on the live window and rolled back when the re-cost
  regresses past ``rollback_tolerance``.

:meth:`OnlinePolicy.validate` rejects junk with the typed
:class:`~repro.robustness.errors.ConfigError`, option by option, so the
CLI and programmatic callers share one validation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.compression import COMPRESSION_MODES
from repro.robustness.budget import resolve_call_budget, resolve_deadline
from repro.robustness.errors import ConfigError


@dataclass
class OnlinePolicy:
    """All knobs of one online-daemon instance."""

    budget_bytes: int
    algorithm: str = "ilp"
    window_capacity: int = 200
    cycle_interval: int = 25
    drift_threshold: float = 0.25
    min_relative_improvement: float = 0.02
    cooldown_cycles: int = 1
    max_flaps_per_index: int = 2
    cycle_deadline_seconds: Optional[float] = None
    cycle_call_budget: Optional[int] = None
    compress: str = "template"
    retries: int = 1
    watchdog_limit: int = 3
    verify_applies: bool = True
    rollback_tolerance: float = 1e-9

    def validate(self) -> "OnlinePolicy":
        """Raise :class:`ConfigError` on the first bad knob; returns
        ``self`` so construction can chain through validation."""
        from repro.core.search import ALGORITHMS  # avoid import cycle

        if self.budget_bytes <= 0:
            raise ConfigError(
                f"disk budget must be positive, got {self.budget_bytes}",
                option="budget-bytes",
            )
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}",
                option="algorithm",
            )
        if self.window_capacity <= 0:
            raise ConfigError(
                f"window capacity must be positive, got {self.window_capacity}",
                option="window",
            )
        if self.cycle_interval <= 0:
            raise ConfigError(
                f"cycle interval must be positive, got {self.cycle_interval}",
                option="cycle-interval",
            )
        if not 0.0 <= self.drift_threshold <= 1.0:
            raise ConfigError(
                f"drift threshold must be in [0, 1], "
                f"got {self.drift_threshold}",
                option="drift-threshold",
            )
        if self.min_relative_improvement < 0:
            raise ConfigError(
                f"minimum improvement must be >= 0, "
                f"got {self.min_relative_improvement}",
                option="min-improvement",
            )
        if self.cooldown_cycles < 0:
            raise ConfigError(
                f"cooldown must be >= 0 cycles, got {self.cooldown_cycles}",
                option="cooldown",
            )
        if self.max_flaps_per_index < 0:
            raise ConfigError(
                f"flap limit must be >= 0, got {self.max_flaps_per_index}",
                option="max-flaps",
            )
        # Reuse the CLI resolvers so zero/negative budgets are rejected
        # identically everywhere.
        self.cycle_deadline_seconds = resolve_deadline(
            self.cycle_deadline_seconds, option="cycle-deadline"
        )
        self.cycle_call_budget = resolve_call_budget(
            self.cycle_call_budget, option="cycle-call-budget"
        )
        if self.compress not in COMPRESSION_MODES:
            raise ConfigError(
                f"unknown compression mode {self.compress!r}; "
                f"choose from {COMPRESSION_MODES}",
                option="compress",
            )
        if self.retries < 0:
            raise ConfigError(
                f"retries must be >= 0, got {self.retries}", option="retries"
            )
        if self.watchdog_limit <= 0:
            raise ConfigError(
                f"watchdog limit must be positive, got {self.watchdog_limit}",
                option="watchdog-limit",
            )
        if self.rollback_tolerance < 0:
            raise ConfigError(
                f"rollback tolerance must be >= 0, "
                f"got {self.rollback_tolerance}",
                option="rollback-tolerance",
            )
        return self

    def to_dict(self) -> Dict:
        return {
            "budget_bytes": self.budget_bytes,
            "algorithm": self.algorithm,
            "window_capacity": self.window_capacity,
            "cycle_interval": self.cycle_interval,
            "drift_threshold": self.drift_threshold,
            "min_relative_improvement": self.min_relative_improvement,
            "cooldown_cycles": self.cooldown_cycles,
            "max_flaps_per_index": self.max_flaps_per_index,
            "cycle_deadline_seconds": self.cycle_deadline_seconds,
            "cycle_call_budget": self.cycle_call_budget,
            "compress": self.compress,
            "retries": self.retries,
            "watchdog_limit": self.watchdog_limit,
            "verify_applies": self.verify_applies,
            "rollback_tolerance": self.rollback_tolerance,
        }
