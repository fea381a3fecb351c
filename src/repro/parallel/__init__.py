"""Compatibility shim: there is no parallel what-if engine any more.

The process-pool session lost every wall-clock measurement (two process
workers ran a batch at 0.53x serial: a what-if call costs microseconds,
shipping it costs more), so it was deleted; docs/performance.md,
"Parallel what-if evaluation", records why.  :func:`create_session`
stays because the benchmark harness's ``parallel.*`` probes still call
it with ``workers=2, executor="process"``.  It ignores both and returns
a plain serial :class:`~repro.optimizer.session.WhatIfSession`, so those
probes time the serial session twice and ``parallel.batch_speedup_w2``
reads about 1.0.
"""

from __future__ import annotations

from typing import Optional

from repro.optimizer.cost import CostConstants
from repro.optimizer.session import WhatIfSession
from repro.storage.database import Database

__all__ = ["create_session"]


def create_session(
    database: Database,
    constants: Optional[CostConstants] = None,
    *,
    workers=None,
    executor: Optional[str] = None,
    **kwargs,
) -> WhatIfSession:
    """A serial :class:`WhatIfSession`; ``workers`` and ``executor`` are
    accepted and ignored."""
    return WhatIfSession(database, constants, **kwargs)
