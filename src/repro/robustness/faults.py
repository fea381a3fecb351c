"""Deterministic, seeded fault injection for the advisor runtime.

Every fragile boundary of the system calls :func:`maybe_inject` with a
dotted *site* name before doing real work:

===========================  ====================================================
site                         guarded operation
===========================  ====================================================
``optimizer.evaluate``       Evaluate-Indexes costing through the session
``optimizer.enumerate``      Enumerate-Indexes candidate generation
``optimizer.plan``           NORMAL-mode planning
``statistics.runstats``      RUNSTATS statistics collection
``statistics.derive``        derived virtual-index statistics
``persist.load``             reading database files from disk
``persist.save``             writing database files to disk
``workload.parse``           parsing one workload statement
``online.cycle``             entering one online-daemon tuning cycle
``online.apply``             materializing one online CREATE/DROP action
``serve.request``            admitting one serving-front-end request
``advise.attempt``           one attempt of an advise ladder's search
===========================  ====================================================

With no injector installed, :func:`maybe_inject` is a dictionary miss --
effectively free.  An injector is a set of :class:`FaultRule` objects,
each with a per-site seeded RNG, so the fault schedule for a given
``(seed, site)`` pair is *deterministic regardless of what other sites
do* -- the property the chaos tests rely on to replay failures.

Injectors can be installed three ways:

* explicitly, via :func:`install` / :func:`uninstall` or the
  :func:`injected` context manager (tests);
* from the environment (the CI chaos-smoke job):
  ``REPRO_FAULT_SEED=1337 REPRO_FAULT_RATE=0.01`` optionally with
  ``REPRO_FAULT_SITES=optimizer.evaluate,persist.save`` and
  ``REPRO_FAULT_STALL=0.001``;
* programmatically with exact schedules (``FaultRule(at={3, 7})`` fails
  exactly the 4th and 8th call at a site).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.robustness.errors import (
    AdvisorError,
    RetryableOptimizerError,
    StatisticsUnavailable,
    WorkloadParseError,
)


class InjectedFault(RetryableOptimizerError):
    """The default exception an injector raises (retryable, so the
    session's policy gets to exercise its backoff path)."""

    def __init__(self, site: str, call_index: int) -> None:
        super().__init__(f"injected fault at {site!r} (call #{call_index})")
        self.site = site
        self.call_index = call_index


class InjectedIOError(OSError):
    """Injected persistence failure.  Subclasses :class:`OSError` so the
    persistence layer's ordinary I/O error handling catches it and wraps
    it into a :class:`~repro.robustness.errors.PersistError`."""

    def __init__(self, site: str, call_index: int) -> None:
        super().__init__(f"injected I/O fault at {site!r} (call #{call_index})")
        self.site = site
        self.call_index = call_index


def _default_exception(site: str, call_index: int) -> Exception:
    """Map a site to its natural failure type."""
    if site.startswith("statistics"):
        return StatisticsUnavailable(
            f"injected statistics fault at {site!r} (call #{call_index})"
        )
    if site.startswith("persist"):
        return InjectedIOError(site, call_index)
    if site.startswith("workload"):
        return WorkloadParseError(
            f"injected parse fault at {site!r} (call #{call_index})"
        )
    return InjectedFault(site, call_index)


@dataclass
class FaultRule:
    """One site's fault schedule.

    ``site`` is a prefix match (``"optimizer"`` covers every optimizer
    site).  Faults fire either randomly at ``rate`` (seeded per site) or
    exactly at the 0-based call indices in ``at``.  ``stall_seconds``
    sleeps before (possibly) failing, modelling a slow dependency;
    ``kind="stall"`` stalls without failing.  ``limit`` caps the total
    number of failures the rule may inject.
    """

    site: str
    rate: float = 1.0
    at: Optional[FrozenSet[int]] = None
    kind: str = "error"  # "error" | "stall"
    stall_seconds: float = 0.0
    limit: Optional[int] = None
    exception: Optional[Callable[[str, int], Exception]] = None

    def __post_init__(self) -> None:
        if self.at is not None:
            self.at = frozenset(self.at)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.kind not in ("error", "stall"):
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def matches(self, site: str) -> bool:
        return site == self.site or site.startswith(self.site + ".")


class FaultInjector:
    """A deterministic fault schedule over named sites.

    One seeded RNG per (rule, site) pair: the decision sequence for each
    site depends only on the injector's seed and that site's own call
    count, never on the interleaving of other sites.
    """

    def __init__(self, rules: Iterable[FaultRule], seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self.calls: Dict[str, int] = {}
        self.injected: Dict[str, int] = {}
        self._injected_by_rule: Dict[int, int] = {}
        self._rngs: Dict[Tuple[int, str], random.Random] = {}
        self._sleep = time.sleep

    def _rng(self, rule_index: int, site: str) -> random.Random:
        key = (rule_index, site)
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(f"{self.seed}:{rule_index}:{site}")
            self._rngs[key] = rng
        return rng

    def check(self, site: str) -> None:
        """Fail or stall if the schedule says so; count the call either
        way.  Raises the rule's exception (default: retryable
        :class:`InjectedFault`, or the site's natural failure type)."""
        call_index = self.calls.get(site, 0)
        self.calls[site] = call_index + 1
        for rule_index, rule in enumerate(self.rules):
            if not rule.matches(site):
                continue
            if rule.limit is not None and (
                self._injected_by_rule.get(rule_index, 0) >= rule.limit
            ):
                continue
            if rule.at is not None:
                fire = call_index in rule.at
            elif rule.rate >= 1.0:
                fire = True
            else:
                fire = self._rng(rule_index, site).random() < rule.rate
            if not fire:
                continue
            self._injected_by_rule[rule_index] = (
                self._injected_by_rule.get(rule_index, 0) + 1
            )
            self.injected[site] = self.injected.get(site, 0) + 1
            if rule.stall_seconds > 0.0:
                self._sleep(rule.stall_seconds)
            if rule.kind == "stall":
                continue  # stall only; no failure
            factory = rule.exception or _default_exception
            raise factory(site, call_index)

    def total_injected(self) -> int:
        return sum(self.injected.values())


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultInjector] = None
#: Sentinel distinguishing "env not parsed yet" from "env has no injector".
_ENV_UNPARSED = object()
_FROM_ENV: object = _ENV_UNPARSED


def install(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as the process-wide fault source (replacing
    any previous one, including an environment-derived one)."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector (environment-derived injection, if
    configured, becomes visible again)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def injected(injector: FaultInjector):
    """Scope an injector to a ``with`` block (tests' preferred form)."""
    global _ACTIVE
    previous = _ACTIVE
    install(injector)
    try:
        yield injector
    finally:
        _ACTIVE = previous


def from_env(environ=os.environ) -> Optional[FaultInjector]:
    """Build an injector from ``REPRO_FAULT_*`` environment variables
    (the CI chaos-smoke job's entry point), or ``None`` when unset."""
    seed_text = environ.get("REPRO_FAULT_SEED")
    if not seed_text:
        return None
    seed = int(seed_text)
    rate = float(environ.get("REPRO_FAULT_RATE", "0.01"))
    stall = float(environ.get("REPRO_FAULT_STALL", "0"))
    sites_text = environ.get("REPRO_FAULT_SITES", "optimizer")
    rules = [
        FaultRule(site=site.strip(), rate=rate, stall_seconds=stall)
        for site in sites_text.split(",")
        if site.strip()
    ]
    return FaultInjector(rules, seed=seed)


def active() -> Optional[FaultInjector]:
    """The currently effective injector: an installed one, else the
    (cached) environment-derived one, else ``None``."""
    if _ACTIVE is not None:
        return _ACTIVE
    global _FROM_ENV
    if _FROM_ENV is _ENV_UNPARSED:
        _FROM_ENV = from_env()
    return _FROM_ENV  # type: ignore[return-value]


def maybe_inject(site: str) -> None:
    """The one call every guarded boundary makes.  No-op (one global
    read) when no injector is active."""
    injector = active()
    if injector is not None:
        injector.check(site)
