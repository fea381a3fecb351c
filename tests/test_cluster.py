"""Unit tests for the cluster layer: sharding, replication, config
parsing, workload partitioning, routing, and divergent tuning."""

import pytest

from repro import IndexAdvisor
from repro.cluster import (
    Cluster,
    ClusterExecutor,
    Router,
    divergence,
    partition_workload,
    replicas_from_env,
    resolve_replicas,
    resolve_shards,
    shard_of_key,
    shards_from_env,
    statement_signature,
    tune_cluster,
)
from repro.query.workload import Workload
from repro.robustness.errors import AdvisorError, ConfigError
from repro.storage.database import Database, StorageTarget, resolve_database
from repro.workloads import tpox, xmark

DOC = "<Security><Symbol>A{i}</Symbol><Yield>{i}.5</Yield></Security>"


def small_cluster(shards=2, replicas=2, docs=8):
    cluster = Cluster(shards=shards, replicas=replicas)
    cluster.create_collection("SDOC")
    for i in range(docs):
        cluster.insert_document("SDOC", DOC.format(i=i))
    return cluster


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------

class TestSharding:
    def test_shard_of_key_is_pure_and_stable(self):
        assert [shard_of_key(k, 3) for k in range(7)] == [0, 1, 2, 0, 1, 2, 0]
        assert all(shard_of_key(k, 1) == 0 for k in range(10))

    def test_documents_land_on_key_mod_shards(self):
        cluster = small_cluster(shards=3, replicas=1, docs=9)
        for shard in range(3):
            assert (
                len(cluster.replica_database(shard, 0).collection("SDOC")) == 3
            )
        assert cluster.documents_routed == [3, 3, 3]
        assert cluster.total_documents("SDOC") == 9

    def test_replicas_of_a_shard_hold_identical_documents(self):
        from repro.xmlmodel.serializer import serialize

        cluster = small_cluster(shards=2, replicas=3)
        for shard in range(2):
            texts = {
                tuple(
                    serialize(d.root)
                    for d in cluster.replica_database(shard, r).collection(
                        "SDOC"
                    )
                )
                for r in range(3)
            }
            assert len(texts) == 1

    def test_insert_returns_dense_keys(self):
        cluster = small_cluster(docs=0)
        keys = [
            cluster.insert_document("SDOC", DOC.format(i=i)) for i in range(5)
        ]
        assert keys == [0, 1, 2, 3, 4]

    def test_delete_by_key_removes_from_all_replicas(self):
        cluster = small_cluster(shards=2, replicas=2, docs=6)
        cluster.delete_document("SDOC", 4)  # key 4 lives on shard 0
        assert cluster.total_documents("SDOC") == 5
        for r in range(2):
            assert len(cluster.replica_database(0, r).collection("SDOC")) == 2
        with pytest.raises(KeyError):
            cluster.delete_document("SDOC", 4)

    def test_key_for_round_trips(self):
        cluster = small_cluster(shards=2, replicas=1, docs=6)
        for key in range(6):
            shard = shard_of_key(key, 2)
            local = key // 2
            assert cluster.key_for("SDOC", shard, local) == key
        with pytest.raises(KeyError):
            cluster.key_for("SDOC", 0, 99)

    def test_from_database_preserves_documents_and_indexes(self):
        db = tpox.build_database(
            num_securities=10, num_orders=10, num_customers=5, seed=3
        )
        from repro.storage.catalog import IndexDefinition
        from repro.storage.index import IndexValueType
        from repro.xpath.patterns import parse_pattern

        db.create_index(
            IndexDefinition(
                name="ix1",
                collection="SDOC",
                pattern=parse_pattern("/Security/Symbol"),
                value_type=IndexValueType.STRING,
                virtual=False,
            )
        )
        cluster = Cluster.from_database(db, shards=2, replicas=2)
        for name, collection in db.collections.items():
            assert cluster.total_documents(name) == len(collection)
        for __, __, replica in cluster.all_databases():
            assert "ix1" in replica.indexes


# ---------------------------------------------------------------------------
# StorageTarget protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_database_and_cluster_satisfy_protocol(self):
        assert isinstance(Database(), StorageTarget)
        assert isinstance(Cluster(), StorageTarget)

    def test_resolve_database(self):
        db = Database()
        assert resolve_database(db) is db
        cluster = Cluster(shards=2, replicas=2)
        assert resolve_database(cluster) is cluster.primary
        sentinel = object()
        assert resolve_database(sentinel) is sentinel

    def test_touch_fans_out_and_counters_read_primary(self):
        cluster = small_cluster()
        before = cluster.modification_count
        cluster.touch("SDOC")
        assert cluster.modification_count == before + 1
        for __, __, database in cluster.all_databases():
            assert database.collection_epochs["SDOC"] > 0

    def test_storage_stats_sum_over_replicas(self):
        cluster = small_cluster(shards=2, replicas=2)
        for __, __, database in cluster.all_databases():
            database.runstats("SDOC")
        assert cluster.storage_stats()["stats_rescans"] == 4


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

class TestConfig:
    @pytest.mark.parametrize("resolve", [resolve_shards, resolve_replicas])
    def test_accepts_ints_strings_and_defaults(self, resolve):
        assert resolve(None) == 1
        assert resolve("") == 1
        assert resolve(4) == 4
        assert resolve(" 8 ") == 8

    @pytest.mark.parametrize("junk", ["lots", "3.5", 0, -1, True, 99999])
    def test_junk_raises_config_error(self, junk):
        with pytest.raises(ConfigError):
            resolve_shards(junk)

    def test_config_error_is_value_error_and_advisor_error(self):
        with pytest.raises(ValueError):
            resolve_shards("junk")
        with pytest.raises(AdvisorError):
            resolve_replicas("junk")

    def test_env_parsing_names_the_variable(self):
        assert shards_from_env({}) == 1
        assert shards_from_env({"REPRO_SHARDS": "3"}) == 3
        assert replicas_from_env({"REPRO_REPLICAS": "2"}) == 2
        with pytest.raises(ConfigError) as info:
            shards_from_env({"REPRO_SHARDS": "many"})
        assert "REPRO_SHARDS" in str(info.value)
        with pytest.raises(ConfigError) as info:
            replicas_from_env({"REPRO_REPLICAS": "-2"})
        assert "REPRO_REPLICAS" in str(info.value)


# ---------------------------------------------------------------------------
# Workload partitioning
# ---------------------------------------------------------------------------

def _tpox_workload():
    return tpox.tpox_workload(num_securities=40, seed=7)


def tpox_cluster(shards=1, replicas=2):
    db = tpox.build_database(
        num_securities=40, num_orders=40, num_customers=20, seed=7
    )
    return Cluster.from_database(db, shards=shards, replicas=replicas)


class TestPartitioning:
    def test_partition_is_deterministic(self):
        workload = _tpox_workload()
        a = partition_workload(workload, 3)
        b = partition_workload(workload, 3)
        assert [
            [e.statement.describe() for e in part] for part in a
        ] == [[e.statement.describe() for e in part] for part in b]

    def test_partition_covers_everything_once(self):
        workload = _tpox_workload()
        parts = partition_workload(workload, 3)
        total = sum(len(part) for part in parts)
        assert total == len(workload)

    def test_same_signature_stays_together(self):
        workload = _tpox_workload()
        parts = partition_workload(workload, 2)
        seen = {}
        for index, part in enumerate(parts):
            for entry in part:
                signature = statement_signature(entry.statement)
                assert seen.setdefault(signature, index) == index

    def test_single_part_is_identity(self):
        workload = _tpox_workload()
        (only,) = partition_workload(workload, 1)
        assert [e.statement.describe() for e in only] == [
            e.statement.describe() for e in workload
        ]

    def test_more_parts_than_signatures_leaves_empties(self):
        workload = Workload.from_statements(
            ["for $s in X('SDOC')/Security return $s/Symbol"]
        )
        parts = partition_workload(workload, 4)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == 1

    def test_divergence_bounds(self):
        assert divergence([]) == 0.0
        assert divergence([frozenset({"a"}), frozenset({"a"})]) == 0.0
        assert divergence([frozenset({"a"}), frozenset({"b"})]) == 1.0


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

class TestRouter:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Router(small_cluster(), policy="random")

    def test_round_robin_cycles_per_shard(self):
        cluster = small_cluster(shards=1, replicas=3)
        router = Router(cluster, policy="round_robin")
        workload = _tpox_workload()
        picks = [
            router.route(entry.statement, 0) for entry in workload.entries[:6]
        ]
        assert picks == [0, 1, 2, 0, 1, 2]
        assert router.fallback_routed == 6

    def test_cost_routing_prefers_the_indexed_replica(self):
        cluster = tpox_cluster(shards=1, replicas=2)
        workload = _tpox_workload()
        tune_cluster(cluster, workload, 250_000, divergent=True)
        router = cluster.router
        router.reset_counters()
        plans = router.route_workload(workload)
        assert len(plans) == len(workload)
        counters = router.counters()
        assert counters["cost_routed"] == len(workload)
        assert counters["fallback_routed"] == 0
        # Divergent configs: with distinct index sets both replicas get
        # traffic, each statement at its cheaper home.
        assert len(counters["statements_routed"]) == 2

    def test_routing_cache_hits_accumulate_on_reroute(self):
        cluster = tpox_cluster(shards=1, replicas=2)
        workload = _tpox_workload()
        router = cluster.router
        router.route_workload(workload)
        first = router.counters()["routing_cache_hits"]
        router.route_workload(workload)
        assert router.counters()["routing_cache_hits"] > first

    def test_single_replica_short_circuits_but_counts(self):
        cluster = small_cluster(shards=2, replicas=1)
        router = cluster.router
        entry = _tpox_workload().entries[0]
        plan = router.route_statement(entry.statement)
        assert plan == [(0, 0), (1, 0)]
        assert router.counters()["cost_routed"] == 2

    def test_uniform_ties_spread_by_load(self):
        cluster = tpox_cluster(shards=1, replicas=3)
        router = cluster.router
        workload = _tpox_workload()
        for entry in workload.entries[:6]:
            router.route(entry.statement, 0, frequency=1.0)
        routed = router.counters()["statements_routed"]
        # No indexes anywhere: every replica prices every statement the
        # same, so the load tie-breaker must spread the traffic.
        assert len(routed) == 3


# ---------------------------------------------------------------------------
# Divergent tuning
# ---------------------------------------------------------------------------

class TestTuning:
    def test_uniform_mode_has_zero_divergence(self):
        cluster = tpox_cluster(shards=1, replicas=2)
        result = tune_cluster(
            cluster, _tpox_workload(), 250_000, divergent=False
        )
        assert result.mode == "uniform"
        assert result.divergence_score == 0.0
        assert cluster.tuning_mode == "uniform"
        s0 = {
            str(d.pattern)
            for d in cluster.replica_database(0, 0).catalog.all_definitions()
        }
        s1 = {
            str(d.pattern)
            for d in cluster.replica_database(0, 1).catalog.all_definitions()
        }
        assert s0 == s1

    @pytest.mark.parametrize("knob", [{"workers": 2}, {"executor": "thread"}])
    def test_takes_no_worker_knobs(self, knob):
        with pytest.raises(TypeError):
            tune_cluster(
                tpox_cluster(shards=1, replicas=2),
                _tpox_workload(),
                250_000,
                **knob,
            )

    def test_divergent_mode_diverges(self):
        cluster = tpox_cluster(shards=1, replicas=2)
        result = tune_cluster(
            cluster, _tpox_workload(), 250_000, divergent=True
        )
        assert result.mode == "divergent"
        assert result.divergence_score > 0.0
        assert cluster.divergence_score == result.divergence_score

    def test_result_reports_and_serializes(self):
        import json

        cluster = tpox_cluster(shards=1, replicas=2)
        result = tune_cluster(
            cluster, _tpox_workload(), 250_000, divergent=True
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["mode"] == "divergent"
        assert len(payload["tunings"]) == 2
        assert "divergence" in result.report().lower()
        for tuning in result.tunings:
            assert (
                tuning.recommendation.cluster_stats["divergence_score"]
                == round(result.divergence_score, 4)
            )

    def test_create_false_builds_nothing(self):
        cluster = tpox_cluster(shards=1, replicas=2)
        tune_cluster(
            cluster, _tpox_workload(), 250_000, divergent=True, create=False
        )
        for __, __, database in cluster.all_databases():
            assert not database.indexes

    def test_divergent_routes_cheaper_than_uniform_on_mixed_workload(
        self, mixed_db
    ):
        """Same topology, same per-replica budget (too tight for one
        configuration to cover both benchmarks): executed through the
        cluster executor, the workload's queries examine strictly fewer
        documents over divergently tuned replicas than over uniformly
        tuned ones (85 vs 491, frequency-weighted).  The optimizer's
        estimate of the routed cost agrees, and explains why: each
        replica column holds the indexes its slice of the traffic
        needs."""
        workload = Workload(
            list(tpox.tpox_workload(num_securities=60, seed=42).entries)
            + list(xmark.xmark_workload(seed=7).entries)
        )
        basics = IndexAdvisor(mixed_db, workload).candidates.basics()
        budget = int(0.3 * sum(c.size_bytes for c in basics))

        def tuned(divergent):
            cluster = Cluster.from_database(mixed_db, shards=1, replicas=3)
            tune_cluster(cluster, workload, budget, divergent=divergent)
            return cluster

        def docs_examined(cluster):
            executor = ClusterExecutor(cluster)
            return sum(
                executor.execute(entry.statement).docs_examined
                * entry.frequency
                for entry in workload
            )

        def routed_cost(cluster):
            router = cluster.router
            return sum(
                router.replica_cost(
                    entry.statement,
                    0,
                    router.route(entry.statement, 0, entry.frequency),
                )
                * entry.frequency
                for entry in workload
            )

        divergent, uniform = tuned(divergent=True), tuned(divergent=False)
        assert docs_examined(divergent) < docs_examined(uniform)
        assert routed_cost(divergent) <= routed_cost(uniform)
