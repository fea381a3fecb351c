"""The supervised online advisor daemon (ROADMAP item 1, AIM-style).

One :class:`OnlineAdvisor` turns the paper's one-shot batch
``recommend()`` into a continuous index lifecycle:

1. **ingest** -- statements stream into a sliding
   :class:`~repro.online.window.StatementWindow`; every
   ``cycle_interval`` statements a tuning cycle is *considered*;
2. **drift gate** -- the cycle runs only when the window's
   coverage-signature distribution drifted past the policy threshold
   from the window that produced the current configuration (or when no
   configuration exists yet);
3. **tune** -- one fresh :class:`~repro.core.advisor.IndexAdvisor` per
   cycle runs its :meth:`~repro.core.advisor.IndexAdvisor.advise` ladder
   on the window under one per-cycle anytime budget with a crash-safe
   search checkpoint.  The daemon's own materialized indexes are
   *hidden* during tuning (the ``core.review`` idiom) so the search
   scores against a no-index baseline and the winner is comparable to
   the current configuration.  A failed attempt is retried, then
   ``greedy_heuristics`` runs on the same advisor with what is left of
   the cycle's deadline, and at worst the cycle is skipped -- the
   daemon never dies of a cycle (:class:`~repro.robustness.errors.
   CycleError` is absorbed, the :class:`~repro.robustness.watchdog.
   Watchdog` counts it);
4. **hysteresis** -- the winner is diffed against the materialized
   configuration by candidate key; CREATE/DROP actions are gated by a
   minimum relative improvement on the live window, a cooldown after
   every apply, and per-index flap counters that freeze any index whose
   membership keeps oscillating;
5. **apply + verify + rollback** -- actions are journaled *before*
   touching the catalog (crash mid-apply rolls forward on resume), the
   live window is re-costed through a fresh what-if session after the
   apply, and a regression rolls every action back (AIM's
   verification-before-commit);
6. **journal** -- every state transition is persisted atomically so
   ``repro serve --resume`` reconstructs the window, configuration, and
   hysteresis state and continues mid-cycle.

Nothing in here sleeps or threads: the daemon is driven by whoever owns
the stream (CLI replay, a test, or a real ingest loop), which keeps
every lifecycle path deterministic and fault-injectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.advisor import FALLBACK_ALGORITHM, IndexAdvisor
from repro.core.candidates import CandidateIndex
from repro.core.config import IndexConfiguration
from repro.core.whatif import analyze
from repro.online.journal import DaemonJournal
from repro.online.policy import OnlinePolicy
from repro.online.window import StatementWindow
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.robustness.errors import AdvisorError, CycleError, JournalError
from repro.robustness.faults import maybe_inject
from repro.robustness.watchdog import Heartbeat, Watchdog
from repro.storage.database import resolve_database
from repro.storage.index import IndexValueType
from repro.xpath.patterns import parse_pattern

#: Prefix of every index the daemon materializes.
ONLINE_INDEX_PREFIX = "online"


def _candidate_key(candidate: CandidateIndex) -> str:
    return f"{candidate.pattern}|{candidate.value_type.value}"


def _candidate_to_dict(candidate: CandidateIndex) -> Dict:
    return {
        "pattern": str(candidate.pattern),
        "value_type": candidate.value_type.value,
        "collection": candidate.collection,
    }


def _candidate_from_dict(data: Dict) -> CandidateIndex:
    return CandidateIndex(
        pattern=parse_pattern(data["pattern"]),
        value_type=IndexValueType(data["value_type"]),
        collection=data["collection"],
    )


@dataclass
class MaterializedIndex:
    """One physically built online index."""

    name: str
    candidate: CandidateIndex

    @property
    def key(self) -> str:
        return _candidate_key(self.candidate)

    def to_dict(self) -> Dict:
        return {"name": self.name, **_candidate_to_dict(self.candidate)}


@dataclass
class CycleReport:
    """What one considered tuning cycle did (the daemon's audit trail)."""

    cycle: int
    action: str  # see _ACTIONS in docs/robustness.md
    drift: Optional[float] = None
    algorithm: Optional[str] = None
    improvement: Optional[float] = None
    creates: List[str] = field(default_factory=list)
    drops: List[str] = field(default_factory=list)
    search_optimizer_calls: int = 0
    cycle_optimizer_calls: int = 0
    truncated: bool = False
    degraded: bool = False
    error: Optional[str] = None
    diagnostics: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "cycle": self.cycle,
            "action": self.action,
            "drift": self.drift,
            "algorithm": self.algorithm,
            "improvement": self.improvement,
            "creates": list(self.creates),
            "drops": list(self.drops),
            "search_optimizer_calls": self.search_optimizer_calls,
            "cycle_optimizer_calls": self.cycle_optimizer_calls,
            "truncated": self.truncated,
            "degraded": self.degraded,
            "error": self.error,
            "diagnostics": list(self.diagnostics),
        }


def _live_window_cost(database, workload: Workload) -> float:
    """Frequency-weighted cost of the window against the database's
    *actual* physical state, through a fresh what-if session (no shared
    cache, so degraded tuning estimates cannot leak into verification)."""
    session = WhatIfSession(database)
    total = 0.0
    for entry in workload:
        total += entry.frequency * session.cost(entry.statement)
    return total


class OnlineAdvisor:
    """The supervised, crash-safe online tuning daemon."""

    def __init__(
        self,
        storage,
        policy: OnlinePolicy,
        journal_path: Optional[str] = None,
        verifier: Optional[Callable[..., float]] = None,
    ) -> None:
        self.storage = storage
        self.database = resolve_database(storage)
        self.policy = policy.validate()
        self.journal = DaemonJournal(journal_path) if journal_path else None
        self.window = StatementWindow(
            policy.window_capacity,
            collections=lambda: set(self.database.collections),
        )
        self.heartbeat = Heartbeat()
        self.watchdog = Watchdog(policy.watchdog_limit)
        self._verifier = verifier or _live_window_cost
        #: Candidate-key -> materialized index (the daemon's view of the
        #: configuration it owns; compared by key, never by name).
        self.materialized: Dict[str, MaterializedIndex] = {}
        #: Signature distribution of the window that produced (or last
        #: re-confirmed) the materialized configuration.
        self.baseline: Optional[Dict[str, float]] = None
        self.cycle = 0
        self.statements_seen = 0
        self.cooldown_remaining = 0
        self.flap_counts: Dict[str, int] = {}
        self.frozen: List[str] = []
        self.reports: List[CycleReport] = []
        self.diagnostics: List[str] = []
        #: Window cost of the current configuration, scored during the
        #: latest tuning pass (same virtual footing as the winner).
        self._current_config_cost: Optional[float] = None
        self.counters: Dict[str, int] = {
            "cycles_considered": 0,
            "cycles_tuned": 0,
            "applies": 0,
            "rollbacks": 0,
            "rollforwards": 0,
            "creates": 0,
            "drops": 0,
            "skipped_no_drift": 0,
            "skipped_cooldown": 0,
            "skipped_hysteresis": 0,
            "no_change": 0,
            "failed_cycles": 0,
            "degraded_cycles": 0,
            "journal_write_failures": 0,
        }
        self._write_journal("idle")

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, text: str) -> Optional[CycleReport]:
        """Feed one statement; runs a tuning cycle every
        ``cycle_interval`` statements.  Returns the cycle's report when
        one ran."""
        self.heartbeat.beat()
        self.window.ingest(text)
        self.statements_seen += 1
        if self.statements_seen % self.policy.cycle_interval == 0:
            return self.run_cycle()
        return None

    def serve(self, texts: Sequence[str]) -> List[CycleReport]:
        """Replay a finite stream to completion; returns every cycle
        report (the CLI's and benchmark's driver)."""
        reports = [
            report for text in texts if (report := self.ingest(text))
        ]
        self._write_journal("idle")
        return reports

    # ------------------------------------------------------------------
    # The supervised cycle
    # ------------------------------------------------------------------
    def run_cycle(self, force: bool = False) -> CycleReport:
        """Consider one tuning cycle.  Never raises for cycle-level
        failures: a cycle that fails past retries and fallback is
        absorbed into a ``failed`` report and the daemon keeps serving."""
        self.cycle += 1
        self.counters["cycles_considered"] += 1
        tuned = False
        try:
            report, tuned = self._cycle(force)
        except Exception as exc:  # supervised: no cycle failure is fatal
            # CycleError from the tuning ladder, an injected fault that
            # escaped between phases, or an unexpected bug in a tuning
            # pass: the cycle is skipped, the materialized configuration
            # is untouched, and ingestion continues.
            tuned = True
            report = CycleReport(
                cycle=self.cycle, action="failed", error=str(exc)
            )
            self.counters["failed_cycles"] += 1
        if tuned:
            if report.action == "failed":
                if self.watchdog.record_failure():
                    self.diagnostics.append(
                        f"watchdog tripped after "
                        f"{self.watchdog.limit} consecutive failed cycles; "
                        f"falling back to {FALLBACK_ALGORITHM}"
                    )
            else:
                self.watchdog.record_success()
        if report.degraded:
            self.counters["degraded_cycles"] += 1
        self.reports.append(report)
        self._write_journal("idle")
        return report

    def _cycle(self, force: bool) -> Tuple[CycleReport, bool]:
        """One cycle's decision ladder; returns (report, tuned?) where
        ``tuned`` means the watchdog should score this cycle."""
        drift = self.window.drift_from(self.baseline)
        if len(self.window) == 0:
            return CycleReport(cycle=self.cycle, action="skip-empty"), False
        needs_tuning = (
            force or self.baseline is None
            or (drift is not None and drift >= self.policy.drift_threshold)
        )
        if not needs_tuning:
            self.counters["skipped_no_drift"] += 1
            return (
                CycleReport(
                    cycle=self.cycle, action="skip-no-drift", drift=drift
                ),
                False,
            )
        if self.cooldown_remaining > 0:
            self.cooldown_remaining -= 1
            self.counters["skipped_cooldown"] += 1
            return (
                CycleReport(
                    cycle=self.cycle, action="skip-cooldown", drift=drift
                ),
                False,
            )

        maybe_inject("online.cycle")
        self._write_journal("tuning")
        self.counters["cycles_tuned"] += 1
        workload = self.window.workload()
        recommendation = self._tune(workload)
        algorithm = recommendation.search.algorithm
        report = CycleReport(
            cycle=self.cycle,
            action="tuned-no-change",
            drift=drift,
            algorithm=algorithm,
            search_optimizer_calls=recommendation.search.optimizer_calls,
            cycle_optimizer_calls=recommendation.session_stats.get(
                "optimizer_calls", 0
            ),
            truncated=recommendation.truncated,
            degraded=(
                recommendation.degraded
                or algorithm != self.policy.algorithm
            ),
            diagnostics=list(recommendation.diagnostics),
        )

        winner = {
            _candidate_key(c): c for c in recommendation.configuration
        }
        creates = [
            winner[key]
            for key in sorted(winner)
            if key not in self.materialized and key not in self.frozen
        ]
        drops = [
            self.materialized[key]
            for key in sorted(self.materialized)
            if key not in winner and key not in self.frozen
        ]
        if not creates and not drops:
            # The window re-confirmed the current configuration: anchor
            # the baseline here so stable traffic stops re-tuning.
            self.baseline = self.window.signature_distribution()
            self.counters["no_change"] += 1
            return report, True

        improvement = self._relative_improvement(
            recommendation, workload, creates, drops
        )
        report.improvement = improvement
        if self.materialized and improvement < self.policy.min_relative_improvement:
            # Hysteresis: the winner is not enough better than what is
            # already built to justify churning indexes.
            report.action = "skip-hysteresis"
            self.baseline = self.window.signature_distribution()
            self.counters["skipped_hysteresis"] += 1
            return report, True

        applied_action = self._apply(report, workload, creates, drops)
        report.action = applied_action
        return report, True

    # ------------------------------------------------------------------
    # Tuning (the advise ladder)
    # ------------------------------------------------------------------
    def _tune(self, workload: Workload):
        """Run the advise ladder over the window with the daemon's
        indexes hidden: the policy's algorithm ``1 + retries`` times and
        then ``greedy_heuristics``, or ``greedy_heuristics`` alone once
        the watchdog tripped.  Returns the recommendation or raises
        :class:`CycleError` once every attempt has failed."""
        policy = self.policy
        ladder = (
            {"algorithm": FALLBACK_ALGORITHM}
            if self.watchdog.tripped
            else {"algorithm": policy.algorithm, "retries": policy.retries}
        )
        hidden = {
            entry.name: self.database.indexes.pop(entry.name)
            for entry in self.materialized.values()
            if entry.name in self.database.indexes
        }
        self.database.touch()
        try:
            advisor = IndexAdvisor(
                self.database, workload, compress=policy.compress
            )
            try:
                recommendation = advisor.advise(
                    policy.budget_bytes,
                    **ladder,
                    deadline_seconds=policy.cycle_deadline_seconds,
                    optimizer_call_budget=policy.cycle_call_budget,
                    checkpoint_path=(
                        self.journal.checkpoint_path if self.journal else None
                    ),
                )
            except AdvisorError as exc:
                raise CycleError(
                    f"tuning failed: {exc}", cycle=self.cycle
                ) from exc
            self._current_config_cost = self._score_configuration(workload)
            return recommendation
        finally:
            self.database.indexes.update(hidden)
            self.database.touch()

    def _score_configuration(self, workload: Workload) -> float:
        """What-if cost of the *current* configuration on the window.
        Called while the daemon's indexes are hidden, so the current
        configuration is scored as virtual -- the same footing as the
        winner's estimate."""
        current = IndexConfiguration(
            entry.candidate for entry in self.materialized.values()
        )
        report = analyze(
            self.database, workload, current, session=None
        )
        return sum(
            impact.frequency * impact.cost_after for impact in report.impacts
        )

    def _relative_improvement(
        self, recommendation, workload, creates, drops
    ) -> float:
        """Relative window-cost improvement of the winner over the
        current configuration (both scored virtually, indexes hidden at
        score time -- see :meth:`_tune`)."""
        cost_current = getattr(self, "_current_config_cost", None)
        if cost_current is None or cost_current <= 0:
            return 0.0
        cost_winner = recommendation.workload_cost_after
        return (cost_current - cost_winner) / cost_current

    # ------------------------------------------------------------------
    # Apply / verify / rollback
    # ------------------------------------------------------------------
    def _apply(
        self,
        report: CycleReport,
        workload: Workload,
        creates: List[CandidateIndex],
        drops: List[MaterializedIndex],
    ) -> str:
        """Materialize the diff, verify on the live window, roll back on
        regression.  The pending actions are journaled first so a crash
        mid-apply rolls forward on resume."""
        pending = {
            "creates": [_candidate_to_dict(c) for c in creates],
            "drops": [entry.name for entry in drops],
        }
        self._write_journal("applying", pending=pending, critical=True)
        live_before = self._verifier(self.database, workload)

        performed_creates: List[MaterializedIndex] = []
        performed_drops: List[MaterializedIndex] = []
        try:
            for entry in drops:
                maybe_inject("online.apply")
                self.storage.drop_index(entry.name)
                del self.materialized[entry.key]
                performed_drops.append(entry)
            for candidate in creates:
                maybe_inject("online.apply")
                name = self.database.catalog.fresh_name(ONLINE_INDEX_PREFIX)
                self.storage.create_index(
                    candidate.definition(name, virtual=False)
                )
                built = MaterializedIndex(name, candidate)
                self.materialized[built.key] = built
                performed_creates.append(built)
        except (AdvisorError, OSError) as exc:
            self._undo(performed_creates, performed_drops)
            self._write_journal("idle")
            raise CycleError(
                f"apply failed mid-flight, actions undone: {exc}",
                cycle=self.cycle,
            ) from exc

        touched = [e.key for e in performed_creates] + [
            e.key for e in performed_drops
        ]
        regressed = False
        if self.policy.verify_applies:
            live_after = self._verifier(self.database, workload)
            regressed = live_after > live_before * (
                1.0 + self.policy.rollback_tolerance
            )
        if regressed:
            self._undo(performed_creates, performed_drops)
            self.counters["rollbacks"] += 1
            report.diagnostics.append(
                f"rolled back: live window cost regressed "
                f"{live_before:.2f} -> {live_after:.2f}"
            )
            # A rollback churns each touched index twice (out and back).
            self._note_flaps(touched, times=2)
        else:
            self.counters["applies"] += 1
            self.counters["creates"] += len(performed_creates)
            self.counters["drops"] += len(performed_drops)
            report.creates = [e.key for e in performed_creates]
            report.drops = [e.key for e in performed_drops]
            self._note_flaps(touched, times=1)
        # Either way the verdict is anchored to this window, and the
        # daemon holds off before churning again.
        self.baseline = self.window.signature_distribution()
        self.cooldown_remaining = self.policy.cooldown_cycles
        self._write_journal("idle")
        return "rolled-back" if regressed else "applied"

    def _undo(
        self,
        performed_creates: List[MaterializedIndex],
        performed_drops: List[MaterializedIndex],
    ) -> None:
        """Reverse a (possibly partial) apply: drop what was created,
        rebuild what was dropped."""
        for built in performed_creates:
            try:
                self.storage.drop_index(built.name)
            except KeyError:
                pass
            self.materialized.pop(built.key, None)
        for entry in performed_drops:
            name = self.database.catalog.fresh_name(ONLINE_INDEX_PREFIX)
            self.storage.create_index(
                entry.candidate.definition(name, virtual=False)
            )
            self.materialized[entry.key] = MaterializedIndex(
                name, entry.candidate
            )

    def _note_flaps(self, keys: List[str], times: int) -> None:
        for key in keys:
            count = self.flap_counts.get(key, 0) + times
            self.flap_counts[key] = count
            if count > self.policy.max_flaps_per_index and key not in self.frozen:
                self.frozen.append(key)
                self.diagnostics.append(
                    f"index {key} frozen after {count} membership changes "
                    f"(flap limit {self.policy.max_flaps_per_index})"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def configuration_keys(self) -> List[str]:
        """The materialized configuration as sorted candidate keys --
        the *name-independent* identity used by the convergence gates."""
        return sorted(self.materialized)

    def status(self) -> Dict:
        return {
            "cycle": self.cycle,
            "statements_seen": self.statements_seen,
            "window": len(self.window),
            "distinct": self.window.distinct,
            "materialized": [
                self.materialized[key].to_dict()
                for key in sorted(self.materialized)
            ],
            "configuration_keys": self.configuration_keys(),
            "cooldown_remaining": self.cooldown_remaining,
            "flap_counts": dict(self.flap_counts),
            "frozen": list(self.frozen),
            "counters": dict(self.counters),
            "watchdog": self.watchdog.to_dict(),
            "heartbeat": self.heartbeat.to_dict(),
            "diagnostics": list(self.diagnostics)
            + list(self.window.diagnostics),
            "cycles": [report.to_dict() for report in self.reports],
        }

    # ------------------------------------------------------------------
    # Journal / resume
    # ------------------------------------------------------------------
    def _write_journal(
        self,
        phase: str,
        pending: Optional[Dict] = None,
        critical: bool = False,
    ) -> None:
        """Persist the daemon's state.  Routine snapshots degrade on a
        failed write (diagnostic + counter -- the daemon keeps serving
        with a stale journal); the pre-apply ``applying`` snapshot is
        ``critical``: without it a crash mid-apply could not roll
        forward, so the apply is aborted with :class:`CycleError`
        before any index is touched."""
        if self.journal is None:
            return
        state = {
            "phase": phase,
            "cycle": self.cycle,
            "statements_seen": self.statements_seen,
            "window": self.window.texts(),
            "baseline": self.baseline,
            "materialized": [
                self.materialized[key].to_dict()
                for key in sorted(self.materialized)
            ],
            "cooldown_remaining": self.cooldown_remaining,
            "flap_counts": dict(self.flap_counts),
            "frozen": list(self.frozen),
            "counters": dict(self.counters),
        }
        if pending is not None:
            state["pending"] = pending
        try:
            self.journal.write(state)
        except JournalError as exc:
            if critical:
                raise CycleError(
                    f"cannot journal pending apply actions: {exc}",
                    cycle=self.cycle,
                ) from exc
            self.counters["journal_write_failures"] += 1
            if len(self.diagnostics) < 50:
                self.diagnostics.append(f"journal write degraded: {exc}")

    @classmethod
    def resume(
        cls,
        storage,
        policy: OnlinePolicy,
        journal_path: str,
        verifier: Optional[Callable[..., float]] = None,
    ) -> "OnlineAdvisor":
        """Reconstruct a daemon from its journal.  A missing journal
        starts fresh; a corrupt one degrades to fresh with a diagnostic
        (:class:`~repro.robustness.errors.JournalError` is never
        surfaced); a journal captured mid-apply rolls the pending
        actions forward."""
        journal = DaemonJournal(journal_path)
        state, diagnostic = journal.load_for_resume()
        daemon = cls(
            storage,
            policy,
            journal_path=journal_path,
            verifier=verifier,
        )
        if diagnostic is not None:
            daemon.diagnostics.append(diagnostic)
            daemon._write_journal("idle")
            return daemon
        if state is None:
            return daemon
        daemon.cycle = state.get("cycle", 0)
        daemon.statements_seen = state.get("statements_seen", 0)
        daemon.window.replace(state.get("window", ()))
        daemon.baseline = state.get("baseline")
        daemon.cooldown_remaining = state.get("cooldown_remaining", 0)
        daemon.flap_counts = dict(state.get("flap_counts", {}))
        daemon.frozen = list(state.get("frozen", ()))
        daemon.counters.update(state.get("counters", {}))
        for entry in state.get("materialized", ()):
            candidate = _candidate_from_dict(entry)
            name = entry["name"]
            if name not in daemon.database.indexes:
                # Crash between journal write and index build (or the
                # store does not persist built indexes): rebuild.
                daemon.storage.create_index(
                    candidate.definition(name, virtual=False)
                )
            daemon.materialized[_candidate_key(candidate)] = (
                MaterializedIndex(name, candidate)
            )
        if state.get("phase") == "applying" and state.get("pending"):
            daemon._roll_forward(state["pending"])
        daemon._write_journal("idle")
        return daemon

    def _roll_forward(self, pending: Dict) -> None:
        """Finish a journaled apply the previous process crashed out of.
        Idempotent: drops of absent indexes and creates of present keys
        are skipped."""
        applied = 0
        for name in pending.get("drops", ()):
            entry = next(
                (e for e in self.materialized.values() if e.name == name),
                None,
            )
            if entry is None:
                continue
            self.storage.drop_index(entry.name)
            del self.materialized[entry.key]
            applied += 1
        for data in pending.get("creates", ()):
            candidate = _candidate_from_dict(data)
            key = _candidate_key(candidate)
            if key in self.materialized:
                continue
            name = self.database.catalog.fresh_name(ONLINE_INDEX_PREFIX)
            self.storage.create_index(candidate.definition(name, virtual=False))
            self.materialized[key] = MaterializedIndex(name, candidate)
            applied += 1
        self.counters["rollforwards"] += 1
        self.baseline = self.window.signature_distribution()
        self.cooldown_remaining = self.policy.cooldown_cycles
        self.diagnostics.append(
            f"resumed mid-apply: rolled {applied} pending action(s) forward"
        )
