"""repro: reproduction of "XML Index Recommendation with Tight Optimizer
Coupling" (Elghandour et al., ICDE 2008).

The package contains both the paper's contribution (the XML Index Advisor,
:mod:`repro.core`) and the full substrate it needs, built from scratch:

* :mod:`repro.xmlmodel` -- XML node model, parser, serializer.
* :mod:`repro.xpath`    -- XPath subset: parser, evaluator, linear index
  patterns with containment (the optimizer's index-matching machinery).
* :mod:`repro.storage`  -- document collections, partial path indexes,
  RUNSTATS-style statistics, catalog with virtual indexes.
* :mod:`repro.query`    -- mini-XQuery (FLWOR) front end and workloads.
* :mod:`repro.optimizer`-- cost-based optimizer with the paper's Enumerate
  Indexes and Evaluate Indexes modes, plus a real executor.
* :mod:`repro.workloads`-- TPoX-like, XMark-like, and synthetic benchmark
  generators.
* :mod:`repro.cluster`  -- sharded/replicated storage with divergent
  per-replica tuning and cost-based statement routing.

Quickstart::

    from repro import Database, Workload, IndexAdvisor
    from repro.workloads import tpox

    db = tpox.build_database(num_securities=500, seed=7)
    workload = Workload.from_statements(tpox.tpox_queries())
    advisor = IndexAdvisor(db, workload)
    print(advisor.recommend(budget_bytes=500_000).report())
"""

from repro.cluster import Cluster, ClusterExecutor, Router, tune_cluster
from repro.core.advisor import IndexAdvisor, Recommendation
from repro.core.config import IndexConfiguration
from repro.optimizer.executor import Executor, create_executor
from repro.optimizer.optimizer import Optimizer, OptimizerMode
from repro.optimizer.session import InstrumentationCounters, WhatIfSession
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.storage.catalog import IndexDefinition
from repro.storage.database import Database, StorageTarget, resolve_database
from repro.storage.index import IndexValueType
from repro.storage.persist import load_database, save_database

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterExecutor",
    "Database",
    "Executor",
    "IndexAdvisor",
    "IndexConfiguration",
    "IndexDefinition",
    "IndexValueType",
    "InstrumentationCounters",
    "Optimizer",
    "OptimizerMode",
    "Recommendation",
    "Router",
    "StorageTarget",
    "WhatIfSession",
    "Workload",
    "__version__",
    "create_executor",
    "load_database",
    "parse_statement",
    "resolve_database",
    "save_database",
    "tune_cluster",
]
