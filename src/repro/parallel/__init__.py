"""Parallel what-if evaluation (see docs/performance.md, "Workers").

Public surface:

* :func:`create_session` -- the advisor's session factory: returns a
  plain serial :class:`~repro.optimizer.session.WhatIfSession` for 0
  workers, a :class:`ParallelWhatIfSession` otherwise; consults
  ``REPRO_WORKERS``/``REPRO_EXECUTOR`` when nothing is passed.
* :class:`ParallelWhatIfSession` -- the worker-pool session, pinned
  bit-identical to the serial one by
  ``tests/test_parallel_differential.py``.
* :func:`resolve_workers` / :func:`available_workers` -- worker-count
  parsing ("auto", "serial", counts) and CPU detection.
"""

from __future__ import annotations

from typing import Optional

from repro.optimizer.cost import CostConstants
from repro.optimizer.session import WhatIfSession
from repro.parallel.executors import (
    EXECUTOR_CHOICES,
    PoolBrokenError,
    available_workers,
    resolve_executor,
    resolve_workers,
    workers_from_env,
)
from repro.parallel.session import ParallelWhatIfSession, WorkerRuntime
from repro.storage.database import Database

__all__ = [
    "EXECUTOR_CHOICES",
    "ParallelWhatIfSession",
    "PoolBrokenError",
    "WorkerRuntime",
    "available_workers",
    "create_session",
    "resolve_executor",
    "resolve_workers",
    "workers_from_env",
]


def create_session(
    database: Database,
    constants: Optional[CostConstants] = None,
    *,
    workers=None,
    executor: Optional[str] = None,
    **kwargs,
) -> WhatIfSession:
    """Build the right session for a worker-count spec.

    ``workers=None`` falls back to ``REPRO_WORKERS`` (absent/0 means
    serial); ``"auto"`` uses the CPU count.  0 workers returns a plain
    :class:`WhatIfSession` -- the parallel session's serial mode is
    reserved for tests that want the chunk/merge machinery inline.
    """
    count = (
        workers_from_env() if workers is None else resolve_workers(workers)
    )
    if count <= 0:
        return WhatIfSession(database, constants, **kwargs)
    return ParallelWhatIfSession(
        database,
        constants,
        workers=count,
        executor=executor,
        **kwargs,
    )
