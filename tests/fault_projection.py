"""Comparing two advisor runs when a process-wide fault schedule is set.

``REPRO_FAULT_*`` installs one injector for the whole test process
(docs/robustness.md), so the two runs a differential pin compares draw
different faults.  A retried fault leaves the advice unchanged and moves
only the session's fault counters; a fault that exhausted its retries
makes the advisor search on a fallback estimate (``degraded``), which
can change the advice itself.  :func:`assert_same_advice` therefore
compares ``Recommendation.to_dict()`` projections without the fault
counters, and only on what no fault can change when either side ran
degraded.  Without a fault schedule it is plain ``==`` on everything
else.
"""

#: Session counters that follow the fault draws, not the advice.
FAULT_COUNTERS = ("retries", "degraded_estimates", "degraded_samples")

#: What a recommendation reports whatever estimates the search read.
FAULT_PROOF_KEYS = ("algorithm", "budget_bytes")


def without_fault_counters(data: dict) -> dict:
    """``data`` (a ``Recommendation.to_dict()``) minus the session's
    fault counters."""
    session = {
        key: value
        for key, value in data.get("session", {}).items()
        if key not in FAULT_COUNTERS
    }
    return {**data, "session": session}


def assert_same_advice(mine: dict, theirs: dict, message: str = "") -> None:
    """Bit-for-bit equality of two recommendation projections, fault
    counters aside -- or, when a fault degraded either side, equality of
    :data:`FAULT_PROOF_KEYS` and both within budget."""
    if mine["degraded"] or theirs["degraded"]:
        for data in (mine, theirs):
            assert data["size_bytes"] <= data["budget_bytes"], message
        mine = {key: mine[key] for key in FAULT_PROOF_KEYS}
        theirs = {key: theirs[key] for key in FAULT_PROOF_KEYS}
    else:
        mine, theirs = without_fault_counters(mine), without_fault_counters(theirs)
    assert mine == theirs, message
