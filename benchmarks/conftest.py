"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section VII) at laptop scale.  The database is a seeded TPoX-like
instance; budgets are expressed as fractions of the All-Index
configuration size (the paper's MB-denominated x-axes scale the same
way).
"""

from __future__ import annotations

import os

import pytest

from repro import IndexAdvisor, Workload
from repro.workloads import synthetic, tpox

from bench_common import NUM_CUSTOMERS, NUM_ORDERS, NUM_SECURITIES, SEED


@pytest.fixture(scope="session", autouse=True)
def _serial_workers():
    """Benchmark figures are recorded serially by contract: an inherited
    ``REPRO_WORKERS`` would silently change wall times (and on small
    boxes, worsen them) without changing any recommendation.
    Parallelism is measured by the ``parallel.*`` probes of ``bench/``."""
    previous = os.environ.get("REPRO_WORKERS")
    os.environ["REPRO_WORKERS"] = "0"
    yield
    if previous is None:
        os.environ.pop("REPRO_WORKERS", None)
    else:
        os.environ["REPRO_WORKERS"] = previous


@pytest.fixture(scope="session")
def bench_db():
    return tpox.build_database(
        num_securities=NUM_SECURITIES,
        num_orders=NUM_ORDERS,
        num_customers=NUM_CUSTOMERS,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def bench_workload():
    """The 11-query TPoX workload (Figures 2/3, Table IV)."""
    return tpox.tpox_workload(num_securities=NUM_SECURITIES, seed=SEED)


@pytest.fixture(scope="session")
def mixed_workload(bench_db, bench_workload):
    """11 TPoX + 9 synthetic queries (Figures 4/5)."""
    workload = Workload(list(bench_workload.entries))
    for query in synthetic.random_path_queries(bench_db, "SDOC", 9, seed=5):
        workload.add(query)
    return workload


@pytest.fixture(scope="session")
def all_index_size(bench_db, bench_workload):
    advisor = IndexAdvisor(bench_db, bench_workload)
    return advisor.all_index_configuration().size_bytes()
