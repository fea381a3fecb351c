"""The portfolio's one what-if pass: every lane searches on one shared
advisor, and that must change nothing but timing and call counters.

* **differential** -- each lane's (configuration, ``repr(benefit)``,
  size, DDL) equals what a fresh advisor on a fresh snapshot returns for
  the same strategy, budget and knobs, over TPoX, XMark and mixed
  workloads in every mode at two budgets;
* **deadline** -- lanes share what is left of the portfolio's deadline
  fairly, leftovers roll forward, and a portfolio whose deadline ran
  out still reports every lane, truncated ones flagged;
* **chaos** -- ``optimizer.evaluate`` faults never escape a tournament,
  and a lane is flagged ``degraded`` exactly when it read a fallback
  estimate (the shared session makes one lane's fallback readable by
  the next).
"""

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.portfolio as portfolio_module
from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.robustness.faults import FaultInjector, FaultRule, injected
from repro.serve import run_portfolio
from repro.storage.snapshots import SnapshotStore
from repro.workloads import tpox, xmark
from repro.xmlmodel.serializer import serialize

def tpox_case():
    database = tpox.build_database(
        num_securities=30, num_orders=30, num_customers=15, seed=7
    )
    return database, tpox.tpox_workload(
        num_securities=30, seed=7, include_updates=True, update_frequency=0.5
    )


def xmark_case():
    database = xmark.build_database(
        num_items=20, num_persons=20, num_auctions=20, seed=3
    )
    return database, xmark.xmark_workload(seed=3)


def mixed_case():
    database, workload = tpox_case()
    for name, collection in xmark_case()[0].collections.items():
        database.create_collection(name)
        for document in collection:
            database.insert_document(name, serialize(document.root))
    return database, Workload(
        list(workload.entries) + list(xmark.xmark_workload(seed=3).entries)
    )


CASES = {"tpox": tpox_case, "xmark": xmark_case, "mixed": mixed_case}


def capture_lanes(monkeypatch):
    """Record every lane's ``recommend`` call and result."""
    lanes = []
    original = IndexAdvisor.recommend

    def recording(self, budget_bytes, **knobs):
        recommendation = original(self, budget_bytes, **knobs)
        lanes.append((budget_bytes, knobs, recommendation))
        return recommendation

    monkeypatch.setattr(IndexAdvisor, "recommend", recording)
    return lanes, original


def summary(recommendation):
    return (
        [candidate.key for candidate in recommendation.configuration],
        repr(recommendation.search.benefit),
        recommendation.search.size_bytes,
        [re.sub(r"xmlidx_\d+", "NAME", ddl) for ddl in recommendation.ddl],
    )


@pytest.mark.parametrize("budget_fraction", [0.2, 1.0])
@pytest.mark.parametrize("mode", ["retry", "tournament", "evolutionary"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_lane_equals_a_fresh_advisor(
    case, mode, budget_fraction, monkeypatch, fault_free
):
    # Fault-free: a process-wide random schedule would draw different
    # faults for a lane and its fresh twin, so a fallback estimate in
    # one of them is no divergence of the shared advisor.
    database, workload = CASES[case]()
    total = sum(
        c.size_bytes
        for c in IndexAdvisor(
            database, workload, session=WhatIfSession(database)
        ).all_index_configuration()
    )
    budget = max(1, int(total * budget_fraction))
    lanes, original = capture_lanes(monkeypatch)
    winner = run_portfolio(
        SnapshotStore().snapshot(database), workload, budget,
        mode=mode, seed=5,
    )
    assert len(lanes) == len(winner.portfolio_stats["strategies"])
    for lane_budget, knobs, shared in lanes:
        fresh_database = CASES[case]()[0]
        snapshot = SnapshotStore().snapshot(fresh_database)
        fresh = original(
            IndexAdvisor(
                snapshot,
                Workload(list(workload.entries)),
                session=WhatIfSession(snapshot),
            ),
            lane_budget,
            **knobs,
        )
        assert summary(shared) == summary(fresh), knobs["algorithm"]
        if shared is winner:
            assert winner.ddl == fresh.ddl


def test_lanes_get_a_fair_share_and_leftovers_roll_forward(monkeypatch):
    given_deadlines = []

    def instant_lane(advisor, spec, budget_bytes, deadline, calls, degraded):
        given_deadlines.append(deadline)
        return portfolio_module.VariantOutcome(spec, error="skipped")

    monkeypatch.setattr(portfolio_module, "_run_variant", instant_lane)
    database, workload = tpox_case()
    with pytest.raises(Exception, match="every portfolio strategy failed"):
        run_portfolio(
            database, workload, 50_000, mode="evolutionary",
            deadline_seconds=60.0, generations=2,
        )
    # 3 base + 3 perturbed lanes; each returned at once, so lane i got
    # what was left over the lanes still to run
    assert len(given_deadlines) == 6
    for index, deadline in enumerate(given_deadlines):
        assert deadline == pytest.approx(60.0 / (6 - index), rel=0.02)


def test_expired_tournament_reports_every_lane_truncated():
    database, workload = tpox_case()
    deadline = 1e-6  # spent before the shared phase finishes
    started = time.perf_counter()
    winner = run_portfolio(
        database, workload, 50_000, mode="tournament",
        deadline_seconds=deadline,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < deadline + 2.0
    strategies = winner.portfolio_stats["strategies"]
    assert [s["algorithm"] for s in strategies] == [
        "greedy", "greedy_heuristics", "ilp"
    ]
    # every lane that was not faulted (serve.portfolio chaos) truncated
    assert all(s["truncated"] for s in strategies if "error" not in s)
    assert winner.truncated
    assert winner.search.size_bytes <= 50_000


def test_portfolio_rejects_a_non_positive_budget():
    database, workload = tpox_case()
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget_bytes"):
            run_portfolio(database, workload, budget)


# ---------------------------------------------------------------------------
# Chaos: which lanes read a fallback estimate
# ---------------------------------------------------------------------------

def watch_lanes(monkeypatch):
    """Per lane: (algorithm, fallback estimates the session had made
    before the lane, after it)."""
    seen = []
    original = IndexAdvisor.recommend

    def watching(self, budget_bytes, **knobs):
        before = self.session.counters.degraded_estimates
        try:
            return original(self, budget_bytes, **knobs)
        finally:
            seen.append(
                (
                    knobs["algorithm"],
                    before,
                    self.session.counters.degraded_estimates,
                )
            )

    monkeypatch.setattr(IndexAdvisor, "recommend", watching)
    return seen


def lane_flags(winner):
    return [s["degraded"] for s in winner.portfolio_stats["strategies"]]


def test_a_fault_free_tournament_degrades_no_lane(fault_free):
    database, workload = tpox_case()
    winner = run_portfolio(database, workload, 50_000)
    assert lane_flags(winner) == [False, False, False]


def test_a_shared_phase_fallback_degrades_every_lane():
    """Every attempt of the first evaluation -- a base cost, computed in
    the shared phase -- fails: every lane starts from that estimate."""
    database, workload = tpox_case()
    rules = [FaultRule(site="optimizer.evaluate", at={0, 1, 2})]
    with injected(FaultInjector(rules, seed=1)):
        winner = run_portfolio(database, workload, 50_000)
    assert winner.session_stats["degraded_estimates"] == 1
    assert lane_flags(winner) == [True, True, True]


def test_a_fallback_in_the_last_lane_degrades_only_that_lane(
    monkeypatch, fault_free
):
    # The lanes before ilp must run fault-free whatever the environment's
    # schedule, or they may read a fallback of their own.
    injector = FaultInjector([FaultRule(site="optimizer.evaluate")], seed=1)
    original = IndexAdvisor.recommend

    def faulting_ilp(self, budget_bytes, **knobs):
        if knobs["algorithm"] != "ilp":
            return original(self, budget_bytes, **knobs)
        with injected(injector):
            return original(self, budget_bytes, **knobs)

    monkeypatch.setattr(IndexAdvisor, "recommend", faulting_ilp)
    database, workload = tpox_case()
    winner = run_portfolio(database, workload, 50_000)
    assert injector.calls["optimizer.evaluate"] > 0  # ilp costed afresh
    assert lane_flags(winner) == [False, False, True]


@settings(max_examples=8, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_evaluate_faults_never_escape_a_tournament(rate, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = watch_lanes(monkeypatch)
        database, workload = tpox_case()
        rules = [FaultRule(site="optimizer.evaluate", rate=rate)]
        with injected(FaultInjector(rules, seed=seed)):
            winner = run_portfolio(database, workload, 50_000)
    shared = seen[0][1]
    for (algorithm, before, after), degraded in zip(seen, lane_flags(winner)):
        if shared or after > before:
            assert degraded, algorithm  # made or started from a fallback
        if after == 0:
            assert not degraded, algorithm  # no fallback existed yet
    assert winner.degraded == lane_flags(winner)[
        [s["winner"] for s in winner.portfolio_stats["strategies"]].index(True)
    ]
