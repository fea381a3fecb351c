"""Shared fixtures: small seeded databases and workloads."""

from __future__ import annotations

import os
import signal

import pytest
from hypothesis import settings

from repro import Database, IndexAdvisor, Workload
from repro.workloads import synthetic, tpox, xmark
from repro.xmlmodel.serializer import serialize


#: A deeper hypothesis run for CI's dedicated differential steps
#: (``--hypothesis-profile=ci-deep``); tests that pin their own
#: ``max_examples`` keep it.
settings.register_profile("ci-deep", max_examples=2000, deadline=None)


@pytest.fixture(autouse=True)
def _per_test_timeout():
    """SIGALRM-based per-test timeout, enabled by REPRO_TEST_TIMEOUT=<s>.

    The CI chaos-smoke job prefers pytest-timeout when it is installed;
    this fallback keeps a stalling injected fault from hanging the suite
    in environments without the plugin.  No-op unless the variable is
    set (and on platforms without SIGALRM)."""
    seconds = int(os.environ.get("REPRO_TEST_TIMEOUT", "0"))
    if seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={seconds}s"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def fault_free():
    """Pin an empty fault schedule over the test, whatever
    ``REPRO_FAULT_*`` says.  For tests that compare two runs request by
    request: a process-wide random schedule draws different faults in
    each, which is no bug (fault behaviour has its own chaos tests)."""
    from repro.robustness.faults import FaultInjector, injected

    with injected(FaultInjector([])):
        yield


@pytest.fixture(scope="session")
def tpox_db() -> Database:
    """A small TPoX-like database shared across tests (read-only!)."""
    return tpox.build_database(
        num_securities=120, num_orders=120, num_customers=60, seed=42
    )


@pytest.fixture(scope="session")
def tpox_wl() -> Workload:
    return tpox.tpox_workload(num_securities=120, seed=42)


@pytest.fixture()
def tpox_advisor(tpox_db, tpox_wl) -> IndexAdvisor:
    return IndexAdvisor(tpox_db, tpox_wl)


@pytest.fixture(scope="session")
def xmark_db() -> Database:
    return xmark.build_database(
        num_items=80, num_persons=80, num_auctions=80, seed=7
    )


@pytest.fixture(scope="session")
def mixed_db() -> Database:
    """TPoX and XMark collections in one database (read-only!) -- the
    setting where one index configuration has to compromise."""
    database = tpox.build_database(
        num_securities=60, num_orders=60, num_customers=30, seed=42
    )
    others = xmark.build_database(
        num_items=50, num_persons=50, num_auctions=50, seed=7
    )
    for name, collection in others.collections.items():
        database.create_collection(name)
        for document in collection:
            database.insert_document(name, serialize(document.root))
    return database


@pytest.fixture()
def security_db() -> Database:
    """A tiny single-collection database safe to mutate in tests."""
    db = Database("test")
    db.create_collection("SDOC")
    for i in range(30):
        sector = "Energy" if i % 3 == 0 else "Tech"
        db.insert_document(
            "SDOC",
            f"""<Security id="s{i}">
                  <Symbol>SYM{i:03d}</Symbol>
                  <Name>Company {i}</Name>
                  <Yield>{(i % 10) + 0.5}</Yield>
                  <SecInfo><Industrial><Sector>{sector}</Sector></Industrial></SecInfo>
                </Security>""",
        )
    return db
