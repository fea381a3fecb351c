"""Concurrent serving front end over the advisor engine.

The paper's advisor is a one-shot library call; this package turns it
into a service (ROADMAP north-star, AIM-style supervised multi-tenancy):

* :class:`~repro.serve.server.AdvisorServer` -- an asyncio front end
  with ``query`` / ``dml`` / ``whatif`` / ``recommend`` endpoints.
  Every request is atomic: its body never suspends, so concurrent
  clients interleave whole requests, and each response carries the
  epochs and write watermark it was served at.
* :class:`~repro.serve.tenants.AdmissionController` -- per-tenant
  ``SearchBudget`` admission control with typed rejection
  (:class:`~repro.robustness.errors.AdmissionRejected`) when the budget
  pool is exhausted.
* :func:`~repro.serve.portfolio.run_portfolio` -- the served
  recommend: one ILP search on the live database, with one
  ``greedy_heuristics`` attempt behind it when the ILP attempt fails.

See docs/serving.md for the endpoint contracts and the concurrency model.
"""

from repro.serve.portfolio import run_portfolio
from repro.serve.requests import Response
from repro.serve.server import AdvisorServer
from repro.serve.tenants import AdmissionController, TenantPolicy

__all__ = [
    "AdvisorServer",
    "AdmissionController",
    "TenantPolicy",
    "Response",
    "run_portfolio",
]
