"""Multi-tenant admission control for the serving front end.

AIM (PAPERS.md) runs index management as a supervised multi-tenant
service; the analogue here is a per-tenant budget pool.  Each tenant has
a :class:`TenantPolicy` -- an optimizer-call quota shared by all of its
advise-class requests, and a per-request deadline ceiling.  The
:class:`AdmissionController` admits or rejects requests against those
policies (typed :class:`~repro.robustness.errors.AdmissionRejected`,
mapped to a ``rejected`` response -- never a traceback) and mints the
:class:`~repro.robustness.budget.SearchBudget` each admitted
advise-class request runs under, clamped to what is left of the
tenant's pool.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional

from repro.robustness.budget import SearchBudget
from repro.robustness.errors import AdmissionRejected

#: Request kinds that consume optimizer-call quota.
ADVISE_KINDS = ("whatif", "recommend")


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's slice of the server.

    ``search_call_quota`` is the tenant's total optimizer-call pool
    across all of its advise-class requests (``None`` = unmetered);
    ``deadline_seconds`` caps each advise request's wall-clock deadline
    (requests asking for more are clamped down, requests asking for less
    keep their own).
    """

    name: str = "default"
    search_call_quota: Optional[int] = None
    deadline_seconds: Optional[float] = None


class AdmissionController:
    """Admits requests against per-tenant policies and meters quotas."""

    def __init__(
        self,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        default: TenantPolicy = TenantPolicy(),
    ) -> None:
        self._policies: Dict[str, TenantPolicy] = dict(policies or {})
        self._default = default
        self._calls_charged: Dict[str, int] = {}
        self.admitted: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}

    def policy(self, tenant: str) -> TenantPolicy:
        policy = self._policies.get(tenant)
        if policy is None:
            policy = TenantPolicy(
                name=tenant,
                search_call_quota=self._default.search_call_quota,
                deadline_seconds=self._default.deadline_seconds,
            )
            self._policies[tenant] = policy
        return policy

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @contextmanager
    def admit(self, tenant: str, kind: str):
        """Admit one request or raise :class:`AdmissionRejected`.

        Quota checks happen up front so an exhausted pool rejects
        *before* any engine work starts; the ``with`` body is the
        request's engine work.
        """
        policy = self.policy(tenant)
        if (
            kind in ADVISE_KINDS
            and policy.search_call_quota is not None
            and self.quota_remaining(tenant) <= 0
        ):
            self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
            raise AdmissionRejected(
                f"optimizer-call quota of {policy.search_call_quota} "
                f"exhausted",
                tenant=tenant,
                reason="quota-exhausted",
            )
        self.admitted[tenant] = self.admitted.get(tenant, 0) + 1
        yield policy

    # ------------------------------------------------------------------
    # Quota metering
    # ------------------------------------------------------------------
    def quota_remaining(self, tenant: str) -> Optional[int]:
        """Optimizer calls left in the tenant's pool (``None`` when the
        tenant is unmetered)."""
        policy = self.policy(tenant)
        if policy.search_call_quota is None:
            return None
        return max(
            0,
            policy.search_call_quota - self._calls_charged.get(tenant, 0),
        )

    def charge_calls(self, tenant: str, calls: int) -> None:
        """Debit a finished advise request's optimizer calls."""
        if calls > 0:
            self._calls_charged[tenant] = (
                self._calls_charged.get(tenant, 0) + calls
            )

    def limits_for(
        self, tenant: str, deadline_seconds: Optional[float] = None
    ):
        """The ``(deadline_seconds, optimizer_call_budget)`` an admitted
        advise-class request runs under: the requested deadline clamped
        to the tenant's ceiling, and a call budget of whatever quota
        remains (``None`` = unmetered)."""
        policy = self.policy(tenant)
        deadline = deadline_seconds
        if policy.deadline_seconds is not None:
            deadline = (
                policy.deadline_seconds
                if deadline is None
                else min(deadline, policy.deadline_seconds)
            )
        return deadline, self.quota_remaining(tenant)

    def budget_for(
        self,
        tenant: str,
        session,
        deadline_seconds: Optional[float] = None,
    ) -> SearchBudget:
        """:meth:`limits_for` packaged as a live
        :class:`SearchBudget` metering ``session``."""
        deadline, calls = self.limits_for(tenant, deadline_seconds)
        return SearchBudget(
            deadline_seconds=deadline,
            optimizer_call_budget=calls,
            session=session,
        )

    def stats(self) -> Dict:
        """Per-tenant admission counters for telemetry and tests."""
        tenants = sorted(
            set(self.admitted) | set(self.rejected) | set(self._policies)
        )
        return {
            tenant: {
                "admitted": self.admitted.get(tenant, 0),
                "rejected": self.rejected.get(tenant, 0),
                "calls_charged": self._calls_charged.get(tenant, 0),
                "quota_remaining": self.quota_remaining(tenant),
            }
            for tenant in tenants
        }
