"""Differential harness pinning a 1x1 cluster to a single database.

The contract (ISSUE PR 6): a ``Cluster(shards=1, replicas=1)`` standing
in for a ``Database`` must be **bit-identical** -- same recommended
configuration, same costs, same instrumentation counters -- with only
timing, the scheduling-dependent stats blocks, and the cluster's own
counters block excluded.  Every run builds its own database from the
same seed so catalog name counters match too.  A 2-shard/2-replica
smoke leg checks the scaled topology stays *correct* (results, DML,
routing) even where bit-identity no longer applies.
"""

import json

import pytest

from repro.cluster import Cluster, ClusterExecutor, tune_cluster
from repro.core.advisor import IndexAdvisor
from repro.optimizer.executor import Executor, create_executor
from repro.query.model import JoinQuery
from repro.query.workload import Workload
from repro.workloads import synthetic, tpox, xmark

BUDGET = 250_000

#: Fields that legitimately differ between runs: wall-clock timing, the
#: per-worker scheduling block, the storage-engine counters (resharding
#: re-inserts every document, so delta/rescan counts differ from the
#: original build -- as do the blob sizes in the snapshot-store block a
#: process pool adds), and the cluster's own counters block (absent on a
#: plain database by definition).
TIMING_KEYS = ("elapsed_seconds",)
SESSION_TIMING_KEYS = ("phase_seconds", "workers", "storage", "snapshots")
TARGET_KEYS = ("cluster",)


def normalized(recommendation) -> dict:
    """``to_dict()`` minus timing, scheduling, and target-shape fields."""
    data = recommendation.to_dict()
    for key in TIMING_KEYS + TARGET_KEYS:
        data.pop(key, None)
    session = dict(data.get("session", {}))
    for key in SESSION_TIMING_KEYS:
        session.pop(key, None)
    data["session"] = session
    return data


def build_tpox():
    db = tpox.build_database(
        num_securities=40, num_orders=40, num_customers=20, seed=7
    )
    return db, tpox.tpox_workload(num_securities=40, seed=7)


def build_synthetic():
    db = tpox.build_database(
        num_securities=40, num_orders=40, num_customers=20, seed=7
    )
    workload = Workload([])
    for query in synthetic.random_path_queries(db, "SDOC", 8, seed=5):
        workload.add(query)
    return db, workload


def build_xmark():
    db = xmark.build_database(
        num_items=30, num_persons=30, num_auctions=30, seed=7
    )
    return db, xmark.xmark_workload(seed=7)


BENCHMARKS = {
    "tpox": build_tpox,
    "synthetic": build_synthetic,
    "xmark": build_xmark,
}


def run_recommendation(build, cluster: bool, algorithm="topdown_full"):
    database, workload = build()
    target = Cluster.from_database(database) if cluster else database
    advisor = IndexAdvisor(target, workload)
    try:
        return normalized(advisor.recommend(BUDGET, algorithm=algorithm))
    finally:
        advisor.session.close()


# ---------------------------------------------------------------------------
# 1x1 cluster == single database: recommendations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
def test_one_by_one_cluster_is_bit_identical(bench_name):
    build = BENCHMARKS[bench_name]
    baseline = run_recommendation(build, cluster=False)
    assert run_recommendation(build, cluster=True) == baseline, (
        f"{bench_name}: 1x1 cluster diverged from single database"
    )


@pytest.mark.parametrize(
    "algorithm", ["greedy", "greedy_heuristics", "dp", "topdown_lite"]
)
def test_algorithms_are_bit_identical_on_cluster(algorithm):
    build = BENCHMARKS["tpox"]
    baseline = run_recommendation(build, cluster=False, algorithm=algorithm)
    assert run_recommendation(build, cluster=True, algorithm=algorithm) == baseline


def test_counters_match_database_exactly():
    """Spell out the counter identity (the subtle part of the contract)
    rather than relying only on the dict comparison."""
    build = BENCHMARKS["tpox"]
    single = run_recommendation(build, cluster=False)
    clustered = run_recommendation(build, cluster=True)
    for key in (
        "optimizer_calls",
        "cache_hits",
        "cache_misses",
        "benefit",
        "workload_cost_before",
        "workload_cost_after",
    ):
        assert clustered[key] == single[key], key
    assert clustered["session"] == single["session"]


def test_cluster_block_present_and_serializable():
    """The cluster recommendation carries the counters block the plain
    database one omits -- and the whole payload stays JSON-clean."""
    database, workload = build_tpox()
    advisor = IndexAdvisor(Cluster.from_database(database), workload)
    try:
        payload = json.loads(json.dumps(advisor.recommend(BUDGET).to_dict()))
    finally:
        advisor.session.close()
    assert payload["cluster"]["shards"] == 1
    assert payload["cluster"]["replicas"] == 1
    assert payload["cluster"]["documents_routed"]["s0"] > 0


def test_plain_database_omits_cluster_block():
    database, workload = build_tpox()
    advisor = IndexAdvisor(database, workload)
    try:
        payload = advisor.recommend(BUDGET).to_dict()
    finally:
        advisor.session.close()
    assert "cluster" not in payload


# ---------------------------------------------------------------------------
# 1x1 cluster == single database: execution
# ---------------------------------------------------------------------------

def _execution_signature(executor, workload):
    rows = []
    for entry in workload:
        result = executor.execute(entry.statement, collect_output=True)
        rows.append(
            (
                result.rows,
                result.docs_examined,
                result.index_entries_scanned,
                tuple(result.used_indexes),
                tuple(result.output),
            )
        )
    return rows


def test_one_by_one_execution_is_bit_identical():
    database, workload = build_tpox()
    single = _execution_signature(Executor(database), workload)

    database2, workload2 = build_tpox()
    cluster = Cluster.from_database(database2)
    clustered = _execution_signature(create_executor(cluster), workload2)
    assert clustered == single


def test_one_by_one_execution_with_indexes_is_bit_identical():
    database, workload = build_tpox()
    advisor = IndexAdvisor(database, workload)
    advisor.create_indexes(advisor.recommend(BUDGET))
    advisor.session.close()
    single = _execution_signature(Executor(database), workload)

    database2, workload2 = build_tpox()
    cluster = Cluster.from_database(database2)
    advisor2 = IndexAdvisor(cluster, workload2)
    advisor2.create_indexes(advisor2.recommend(BUDGET))
    advisor2.session.close()
    clustered = _execution_signature(create_executor(cluster), workload2)
    assert clustered == single


def test_one_by_one_dml_is_bit_identical():
    """Inserts and deletes through the cluster executor leave the data
    (and follow-up recommendations) exactly where the single-database
    executor leaves them."""
    insert = (
        "insert into SDOC value '<Security><Symbol>ZZ9999</Symbol>"
        "<Yield>9.9</Yield></Security>'"
    )
    delete = "delete from SDOC where /Security/Symbol = 'ZZ9999'"

    def run(cluster: bool):
        database, workload = build_tpox()
        target = Cluster.from_database(database) if cluster else database
        executor = create_executor(target)
        dml = Workload.from_statements([insert, insert, delete])
        signature = _execution_signature(executor, dml)
        advisor = IndexAdvisor(target, workload)
        try:
            return signature, normalized(advisor.recommend(BUDGET))
        finally:
            advisor.session.close()

    assert run(cluster=True) == run(cluster=False)


# ---------------------------------------------------------------------------
# 2x2 smoke: the scaled topology stays correct
# ---------------------------------------------------------------------------

def test_two_by_two_smoke():
    database, workload = build_tpox()
    expected_docs = {
        name: len(collection)
        for name, collection in database.collections.items()
    }
    single_results = {}
    executor = Executor(database)
    for entry in workload:
        if isinstance(entry.statement, JoinQuery):
            continue  # joins execute per shard (co-partitioned semantics)
        result = executor.execute(entry.statement, collect_output=True)
        single_results[entry.statement.describe()] = (
            result.rows,
            sorted(result.output),
        )

    database2, _ = build_tpox()
    cluster = Cluster.from_database(database2, shards=2, replicas=2)
    for name, count in expected_docs.items():
        assert cluster.total_documents(name) == count
    result = tune_cluster(cluster, workload, BUDGET, divergent=True)
    assert result.mode == "divergent"
    assert 0.0 <= result.divergence_score <= 1.0

    cluster_executor = ClusterExecutor(cluster)
    for entry in workload:
        if isinstance(entry.statement, JoinQuery):
            continue
        gathered = cluster_executor.execute(
            entry.statement, collect_output=True
        )
        rows, output = single_results[entry.statement.describe()]
        assert gathered.rows == rows, entry.statement.describe()
        assert sorted(gathered.output) == output

    counters = cluster.router.counters()
    assert counters["policy"] == "cost"
    assert counters["cost_routed"] > 0
    routed = counters["statements_routed"]
    assert set(routed) <= {"s0r0", "s0r1", "s1r0", "s1r1"}
    assert sum(routed.values()) > 0
    stats = cluster.cluster_stats()
    assert stats["shards"] == 2 and stats["replicas"] == 2
    assert sum(stats["documents_routed"].values()) == sum(
        expected_docs.values()
    )


def test_two_by_two_dml_keeps_replicas_in_sync():
    database, _ = build_tpox()
    cluster = Cluster.from_database(database, shards=2, replicas=2)
    executor = ClusterExecutor(cluster)
    before = cluster.total_documents("SDOC")
    insert = (
        "insert into SDOC value '<Security><Symbol>ZZ9999</Symbol>"
        "<Yield>9.9</Yield></Security>'"
    )
    for statement in Workload.from_statements([insert, insert, insert]):
        executor.execute(statement.statement)
    assert cluster.total_documents("SDOC") == before + 3
    deleted = executor.execute(
        Workload.from_statements(
            ["delete from SDOC where /Security/Symbol = 'ZZ9999'"]
        ).entries[0].statement
    )
    assert deleted.rows == 3
    assert cluster.total_documents("SDOC") == before
    # Every replica of each shard holds exactly the shard's documents.
    for shard in range(cluster.num_shards):
        counts = {
            len(cluster.replica_database(shard, r).collection("SDOC"))
            for r in range(cluster.num_replicas)
        }
        assert len(counts) == 1, f"replicas of shard {shard} diverged"
