"""Lifecycle tests of the supervised online advisor daemon: initial
apply, drift gating, hysteresis, cooldown, rollback, flap freezing,
fault-injected cycles, watchdog fallback, and crash-safe journal
resume (the PR 8 tentpole acceptance criteria)."""

import json

import pytest

import repro.core.advisor as advisor_module
from repro.core.advisor import IndexAdvisor
from repro.online import OnlineAdvisor, OnlinePolicy
from repro.online.daemon import ONLINE_INDEX_PREFIX
from repro.online.journal import DaemonJournal
from repro.robustness.faults import FaultInjector, FaultRule, injected
from repro.workloads import tpox
from repro.workloads.tpox import symbol_for

BUDGET = 150_000


def small_db():
    """A fresh, mutable database per test (the daemon builds indexes)."""
    return tpox.build_database(
        num_securities=30, num_orders=30, num_customers=15, seed=3
    )


def make_policy(**overrides):
    overrides.setdefault("algorithm", "greedy_heuristics")
    overrides.setdefault("window_capacity", 60)
    overrides.setdefault("cycle_interval", 20)
    overrides.setdefault("cooldown_cycles", 0)
    overrides.setdefault("min_relative_improvement", 0.0)
    overrides.setdefault("retries", 0)
    return OnlinePolicy(budget_bytes=BUDGET, **overrides)


def phase_a(n):
    """Security-only traffic (one coverage-signature mix)."""
    texts = []
    for i in range(n):
        texts.append(
            [
                f"for $s in SECURITY('SDOC')/Security "
                f'where $s/Symbol = "{symbol_for(i % 10)}" return $s',
                "for $s in SECURITY('SDOC')/Security "
                "where $s/Yield > 4.5 return $s/Name",
                "for $s in SECURITY('SDOC')/Security "
                'where $s/SecInfo/*/Sector = "Energy" return $s/Symbol',
            ][i % 3]
        )
    return texts


def phase_b(n):
    """Order/customer traffic (a disjoint signature mix)."""
    texts = []
    for i in range(n):
        texts.append(
            [
                f"for $o in ORDER('ODOC')/FIXML/Order "
                f'where $o/@Acct = "ACCT{i % 8:05d}" return $o/Instrmt',
                f"for $o in ORDER('ODOC')/FIXML/Order "
                f'where $o/Instrmt/@Sym = "{symbol_for(i % 10)}" return $o/Px',
                "for $c in CUSTACC('CDOC')/Customer "
                'where $c/Nationality = "US" return $c/Name',
            ][i % 3]
        )
    return texts


class TestLifecycle:
    def test_first_cycle_applies_an_initial_configuration(self):
        daemon = OnlineAdvisor(small_db(), make_policy())
        reports = daemon.serve(phase_a(20))
        assert [r.action for r in reports] == ["applied"]
        assert reports[0].creates
        assert not reports[0].drops
        assert daemon.materialized
        assert daemon.configuration_keys() == sorted(daemon.materialized)
        assert daemon.counters["applies"] == 1
        for entry in daemon.materialized.values():
            assert entry.name.startswith(ONLINE_INDEX_PREFIX)
            assert entry.name in daemon.database.indexes
        json.dumps(daemon.status())  # always serializable

    def test_stable_stream_skips_without_flapping(self):
        daemon = OnlineAdvisor(small_db(), make_policy())
        reports = daemon.serve(phase_a(120))
        assert reports[0].action == "applied"
        assert {r.action for r in reports[1:]} == {"skip-no-drift"}
        assert daemon.counters["applies"] == 1
        # Every index changed membership exactly once (its creation).
        assert set(daemon.flap_counts.values()) == {1}
        assert daemon.frozen == []

    def test_drift_triggers_a_retune(self):
        daemon = OnlineAdvisor(small_db(), make_policy())
        daemon.serve(phase_a(60))
        keys_before = daemon.configuration_keys()
        reports = daemon.serve(phase_b(120))
        applied = [r for r in reports if r.action == "applied"]
        assert applied, "phase change never triggered a re-tune"
        assert applied[0].drift >= daemon.policy.drift_threshold
        assert daemon.configuration_keys() != keys_before
        assert any("/FIXML/Order" in key for key in daemon.materialized)

    def test_hysteresis_blocks_marginal_churn(self):
        daemon = OnlineAdvisor(
            small_db(), make_policy(min_relative_improvement=1e9)
        )
        daemon.serve(phase_a(20))  # initial apply is never gated
        keys_before = daemon.configuration_keys()
        reports = daemon.serve(phase_b(40))
        tuned = [r for r in reports if r.action not in ("skip-no-drift",)]
        assert tuned
        assert {r.action for r in tuned} <= {
            "skip-hysteresis", "tuned-no-change"
        }
        assert "skip-hysteresis" in {r.action for r in tuned}
        assert daemon.configuration_keys() == keys_before
        assert daemon.counters["skipped_hysteresis"] >= 1

    def test_cooldown_holds_after_an_apply(self):
        daemon = OnlineAdvisor(small_db(), make_policy(cooldown_cycles=2))
        daemon.serve(phase_a(20))
        assert daemon.cooldown_remaining == 2
        first = daemon.run_cycle(force=True)
        second = daemon.run_cycle(force=True)
        assert [first.action, second.action] == (
            ["skip-cooldown", "skip-cooldown"]
        )
        third = daemon.run_cycle(force=True)
        assert third.action != "skip-cooldown"
        assert daemon.counters["skipped_cooldown"] == 2


class TestVerifyRollback:
    @staticmethod
    def regressing_verifier():
        """Live window cost that jumps after the first probe -- every
        apply looks like a regression."""
        calls = []

        def verifier(database, workload):
            calls.append(1)
            return 100.0 if len(calls) == 1 else 1000.0

        return verifier

    def test_regressing_apply_is_rolled_back(self):
        daemon = OnlineAdvisor(
            small_db(), make_policy(), verifier=self.regressing_verifier()
        )
        reports = daemon.serve(phase_a(20))
        assert [r.action for r in reports] == ["rolled-back"]
        assert daemon.materialized == {}
        assert daemon.database.indexes == {}
        assert daemon.counters["rollbacks"] == 1
        assert daemon.counters["applies"] == 0
        assert any("rolled back" in d for d in reports[0].diagnostics)

    def test_oscillating_index_is_frozen(self):
        daemon = OnlineAdvisor(
            small_db(),
            make_policy(max_flaps_per_index=1),
            verifier=self.regressing_verifier(),
        )
        daemon.serve(phase_a(20))
        # The rollback churned every touched key twice (out and back),
        # blowing the flap limit of 1: all of them freeze.
        assert daemon.frozen
        assert any("frozen" in d for d in daemon.diagnostics)
        report = daemon.run_cycle(force=True)
        # Frozen keys are pinned out of the diff: nothing to apply.
        assert report.action == "tuned-no-change"
        assert daemon.materialized == {}

    def test_verification_can_be_disabled(self):
        daemon = OnlineAdvisor(
            small_db(),
            make_policy(verify_applies=False),
            verifier=self.regressing_verifier(),
        )
        reports = daemon.serve(phase_a(20))
        assert [r.action for r in reports] == ["applied"]
        assert daemon.counters["rollbacks"] == 0


class TestSupervision:
    def test_fault_injected_cycles_never_kill_the_daemon(self):
        daemon = OnlineAdvisor(small_db(), make_policy())
        stream = phase_a(60)
        with injected(FaultInjector([FaultRule(site="online.cycle")])):
            reports = daemon.serve(stream)
        assert daemon.statements_seen == len(stream)
        assert [r.action for r in reports] == ["failed"] * 3
        assert all(r.error for r in reports)
        assert daemon.materialized == {}
        assert daemon.counters["failed_cycles"] == 3

    def test_watchdog_trips_to_the_fallback_algorithm(self):
        daemon = OnlineAdvisor(
            small_db(),
            make_policy(
                algorithm="greedy",
                watchdog_limit=2,
                cycle_interval=10_000,  # cycles only run when forced
            ),
        )
        for text in phase_a(30):
            daemon.ingest(text)
        rules = [FaultRule(site="online.cycle", at={0, 1})]
        with injected(FaultInjector(rules)):
            first = daemon.run_cycle(force=True)
            second = daemon.run_cycle(force=True)
            assert [first.action, second.action] == ["failed", "failed"]
            assert daemon.watchdog.tripped
            assert any(
                "watchdog tripped" in d and "greedy_heuristics" in d
                for d in daemon.diagnostics
            )
            third = daemon.run_cycle(force=True)
        assert third.action == "applied"
        assert third.algorithm == "greedy_heuristics"
        assert third.degraded  # ran on the fallback, not the primary

    @pytest.mark.parametrize("deadline", [60.0, 0.01])
    def test_the_fallback_gets_what_is_left_of_the_cycle(
        self, deadline, monkeypatch
    ):
        """The cycle deadline bounds the whole ladder: a primary attempt
        that stalls and fails under an injected fault hands
        ``greedy_heuristics`` only what is left of the cycle's clock,
        and the same call budget."""
        attempts = []
        original = IndexAdvisor.recommend

        def recording(self, budget_bytes, algorithm, **knobs):
            attempts.append((algorithm, knobs))
            return original(self, budget_bytes, algorithm=algorithm, **knobs)

        monkeypatch.setattr(IndexAdvisor, "recommend", recording)
        daemon = OnlineAdvisor(
            small_db(),
            make_policy(
                algorithm="ilp",
                cycle_deadline_seconds=deadline,
                cycle_call_budget=400,
                cycle_interval=10_000,  # cycles only run when forced
            ),
        )
        for text in phase_a(30):
            daemon.ingest(text)
        stall = 0.02
        rules = [
            FaultRule(site="advise.attempt", at={0}, stall_seconds=stall)
        ]
        with injected(FaultInjector(rules)):
            report = daemon.run_cycle(force=True)
        assert [algorithm for algorithm, _ in attempts] == [
            "greedy_heuristics"
        ]
        ((_, knobs),) = attempts
        assert knobs["optimizer_call_budget"] == 400
        if deadline > 1.0:
            assert knobs["deadline_seconds"] <= deadline - stall
        else:
            # spent while the ilp attempt stalled: floored, not zero
            assert knobs["deadline_seconds"] == advisor_module._EXPIRED_SECONDS
            assert report.truncated
        assert report.algorithm == "greedy_heuristics"
        assert report.degraded
        assert any(
            "ilp attempt failed (InjectedFault" in line
            for line in report.diagnostics
        )

    def test_cycle_call_budget_bounds_every_cycle(self):
        daemon = OnlineAdvisor(
            small_db(), make_policy(cycle_call_budget=150)
        )
        reports = daemon.serve(phase_a(60) + phase_b(60))
        tuned = [r for r in reports if r.cycle_optimizer_calls]
        assert tuned
        assert all(r.cycle_optimizer_calls <= 150 for r in tuned)


class TestJournalResume:
    def test_journal_round_trips_the_daemon(self, tmp_path):
        path = str(tmp_path / "daemon.journal")
        daemon = OnlineAdvisor(small_db(), make_policy(), journal_path=path)
        daemon.serve(phase_a(60))
        assert daemon.materialized

        resumed = OnlineAdvisor.resume(small_db(), make_policy(), path)
        assert resumed.configuration_keys() == daemon.configuration_keys()
        assert resumed.cycle == daemon.cycle
        assert resumed.statements_seen == daemon.statements_seen
        assert resumed.window.texts() == daemon.window.texts()
        # The fresh database had no physical indexes: resume rebuilt them.
        for entry in resumed.materialized.values():
            assert entry.name in resumed.database.indexes
        # Same traffic, no drift: the resumed daemon stays put.
        reports = resumed.serve(phase_a(20))
        assert [r.action for r in reports] == ["skip-no-drift"]

    def test_resume_rolls_a_pending_apply_forward(self, tmp_path):
        path = str(tmp_path / "daemon.journal")
        window = phase_a(12)
        DaemonJournal(path).write(
            {
                "phase": "applying",
                "cycle": 3,
                "statements_seen": 12,
                "window": window,
                "baseline": None,
                "materialized": [],
                "cooldown_remaining": 0,
                "flap_counts": {},
                "frozen": [],
                "counters": {},
                "pending": {
                    "creates": [
                        {
                            "pattern": "/Security/Symbol",
                            "value_type": "string",
                            "collection": "SDOC",
                        }
                    ],
                    "drops": [],
                },
            }
        )
        daemon = OnlineAdvisor.resume(small_db(), make_policy(), path)
        assert daemon.configuration_keys() == ["/Security/Symbol|string"]
        assert daemon.counters["rollforwards"] == 1
        assert any("rolled 1 pending" in d for d in daemon.diagnostics)
        # The journal was rewritten idle: resuming again is a no-op.
        again = OnlineAdvisor.resume(small_db(), make_policy(), path)
        assert again.counters["rollforwards"] == 1

    def test_corrupt_journal_degrades_to_fresh(self, tmp_path):
        path = str(tmp_path / "daemon.journal")
        with open(path, "w") as handle:
            handle.write('{"phase": "idle", "cyc')  # truncated mid-write
        daemon = OnlineAdvisor.resume(small_db(), make_policy(), path)
        assert daemon.cycle == 0
        assert daemon.materialized == {}
        assert any("journal ignored" in d for d in daemon.diagnostics)
        # The fresh daemon re-established a loadable journal.
        assert DaemonJournal(path).load() is not None

    def test_fault_injected_run_converges_to_the_clean_run(self):
        """The bench's convergence gate in miniature: a run whose early
        cycles fail (one mid-tune, one mid-apply) must end on the same
        configuration as a clean run of the same stream."""
        stream = phase_a(80) + phase_b(80)

        def finish(daemon):
            daemon.serve(stream)
            daemon.run_cycle(force=True)  # settle on the final window
            return daemon

        clean = finish(OnlineAdvisor(small_db(), make_policy()))
        rules = [
            FaultRule(site="online.cycle", at={0}),
            FaultRule(site="online.apply", at={0}),
        ]
        with injected(FaultInjector(rules)):
            faulted = finish(OnlineAdvisor(small_db(), make_policy()))
        assert faulted.counters["failed_cycles"] >= 1
        assert faulted.configuration_keys() == clean.configuration_keys()


class TestStartOnline:
    def test_start_online_seeds_the_window(self):
        database = small_db()
        workload = tpox.tpox_workload(num_securities=30, seed=3).subset(6)
        advisor = IndexAdvisor(database, workload)
        daemon = advisor.start_online(BUDGET, cycle_interval=20)
        assert len(daemon.window) > 0
        report = daemon.run_cycle(force=True)
        assert report.action == "applied"
        assert daemon.materialized

    def test_policy_and_overrides_are_exclusive(self):
        database = small_db()
        workload = tpox.tpox_workload(num_securities=30, seed=3).subset(3)
        advisor = IndexAdvisor(database, workload)
        with pytest.raises(ValueError):
            advisor.start_online(
                BUDGET, policy=make_policy(), cycle_interval=5
            )

    def test_resume_requires_a_journal_path(self):
        database = small_db()
        workload = tpox.tpox_workload(num_securities=30, seed=3).subset(3)
        advisor = IndexAdvisor(database, workload)
        with pytest.raises(ValueError):
            advisor.start_online(BUDGET, resume=True)
