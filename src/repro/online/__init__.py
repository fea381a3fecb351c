"""The online advisor daemon: continuous, supervised index tuning.

The paper's advisor is a one-shot batch ``recommend()``; this package
(ROADMAP item 1) runs the same tightly-coupled machinery as a
long-running service:

* :mod:`repro.online.window` -- sliding-window, template-weighted
  workload statistics with coverage-signature drift detection;
* :mod:`repro.online.policy` -- every daemon knob (drift threshold,
  hysteresis, per-cycle budgets, the advise ladder's algorithm and
  retries) with typed validation;
* :mod:`repro.online.journal` -- the atomic state journal behind
  ``repro serve --resume``;
* :mod:`repro.online.daemon` -- the supervised state machine:
  drift-gated bounded tuning cycles, hysteresis-gated CREATE/DROP
  application, AIM-style verify-then-rollback, crash-safe resume.

Entry points: ``repro serve`` (CLI), ``IndexAdvisor.start_online()``,
or :class:`OnlineAdvisor` directly.  See ``docs/robustness.md``.
"""

from repro.online.daemon import (
    CycleReport,
    MaterializedIndex,
    ONLINE_INDEX_PREFIX,
    OnlineAdvisor,
)
from repro.online.journal import DaemonJournal
from repro.online.policy import OnlinePolicy
from repro.online.window import StatementWindow, drift_distance, signature_key

__all__ = [
    "CycleReport",
    "DaemonJournal",
    "MaterializedIndex",
    "ONLINE_INDEX_PREFIX",
    "OnlineAdvisor",
    "OnlinePolicy",
    "StatementWindow",
    "drift_distance",
    "signature_key",
]
