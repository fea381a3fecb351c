"""End-to-end tests for the IndexAdvisor front end."""

import pytest

from repro import Database, Executor, IndexAdvisor, Workload
from repro.core.config import IndexConfiguration
from repro.core.search import ALGORITHMS
from repro.query import parse_statement
from repro.workloads import tpox
from tests.test_snapshot_store import canonical_dumps


class TestRecommendation:
    def test_recommendation_structure(self, tpox_advisor):
        rec = tpox_advisor.recommend(budget_bytes=30_000, algorithm="greedy_heuristics")
        assert rec.search.size_bytes <= 30_000
        assert rec.estimated_speedup >= 1.0
        assert rec.workload_cost_after <= rec.workload_cost_before
        assert len(rec.ddl) == len(rec.configuration)
        for stmt in rec.ddl:
            assert stmt.startswith("CREATE INDEX")
        report = rec.report()
        assert "Estimated speedup" in report
        assert "greedy_heuristics" in report

    def test_advising_twice_on_one_database_gives_the_same_ddl(
        self, fault_free
    ):
        db = tpox.build_database(
            num_securities=30, num_orders=30, num_customers=15, seed=3
        )
        workload = tpox.tpox_workload(num_securities=30, seed=3)
        names = len(db.catalog)
        first, second = (
            IndexAdvisor(db, workload).advise(20_000) for _ in range(2)
        )
        assert first.ddl and first.ddl == second.ddl
        assert first.ddl[0].startswith("CREATE INDEX xmlidx_1 ")
        assert len(db.catalog) == names

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_ddl_numbers_the_configuration_and_keeps_the_database(
        self, algorithm
    ):
        """Every search names its indexes ``xmlidx_1..k`` in
        configuration order, and advising writes nothing the database
        keeps: with its statistics collected, the database pickles
        (canonically) to what it did before -- catalog name counter
        included."""
        db = tpox.build_database(
            num_securities=30, num_orders=30, num_customers=15, seed=3
        )
        for name in db.collections:
            db.runstats(name)
        workload = tpox.tpox_workload(num_securities=30, seed=3).subset(6)
        before = canonical_dumps(db)
        rec = IndexAdvisor(db, workload).recommend(20_000, algorithm=algorithm)
        assert canonical_dumps(db) == before
        assert rec.ddl and len(rec.ddl) == len(rec.configuration)
        assert [stmt.split()[2] for stmt in rec.ddl] == [
            f"xmlidx_{number}" for number in range(1, len(rec.ddl) + 1)
        ]

    def test_ddl_ignores_the_catalog_name_history(self, fault_free):
        """Names the catalog minted, and an index created and dropped
        since, leave the advice's ddl as it was."""
        db = tpox.build_database(
            num_securities=30, num_orders=30, num_customers=15, seed=3
        )
        workload = tpox.tpox_workload(num_securities=30, seed=3)
        first = IndexAdvisor(db, workload).advise(20_000)
        for _ in range(3):
            db.catalog.fresh_name("xmlidx")
        name = db.catalog.fresh_name("xmlidx")
        db.create_index(
            next(iter(first.configuration)).definition(name, virtual=False)
        )
        db.drop_index(name)
        assert IndexAdvisor(db, workload).advise(20_000).ddl == first.ddl

    def test_unknown_algorithm_rejected(self, tpox_advisor):
        with pytest.raises(ValueError):
            tpox_advisor.recommend(budget_bytes=1000, algorithm="quantum")

    def test_all_algorithms_run(self, tpox_advisor):
        for algorithm in ("greedy", "greedy_heuristics", "topdown_lite",
                          "topdown_full", "dp"):
            rec = tpox_advisor.recommend(budget_bytes=25_000, algorithm=algorithm)
            assert rec.search.algorithm == algorithm

    def test_all_index_configuration(self, tpox_advisor):
        config = tpox_advisor.all_index_configuration()
        assert len(config) == len(tpox_advisor.candidates.basics())
        assert config.general_count() == 0

    def test_generalize_flag_off(self, tpox_db, tpox_wl):
        advisor = IndexAdvisor(tpox_db, tpox_wl, generalize=False)
        assert advisor.candidates.generals() == []

    def test_big_budget_approaches_all_index(self, tpox_advisor):
        all_cfg = tpox_advisor.all_index_configuration()
        all_speedup = tpox_advisor.evaluate_configuration(all_cfg)
        rec = tpox_advisor.recommend(
            budget_bytes=all_cfg.size_bytes(), algorithm="greedy_heuristics"
        )
        assert rec.estimated_speedup == pytest.approx(all_speedup, rel=0.15)


class TestMaterialization:
    def make_advisor(self):
        db = tpox.build_database(
            num_securities=60, num_orders=60, num_customers=30, seed=3
        )
        workload = tpox.tpox_workload(num_securities=60, seed=3)
        return IndexAdvisor(db, workload), db, workload

    def test_create_and_drop_indexes(self):
        advisor, db, _ = self.make_advisor()
        rec = advisor.recommend(budget_bytes=50_000, algorithm="greedy_heuristics")
        names = advisor.create_indexes(rec)
        assert len(names) == len(rec.configuration)
        for name in names:
            assert db.index(name).entry_count() >= 0
            assert not db.catalog.get(name).virtual
        advisor.drop_created_indexes()
        for name in names:
            assert name not in db.catalog

    def test_recommended_indexes_actually_used(self):
        """Tight coupling promise: recommended indexes appear in real
        execution plans."""
        advisor, db, workload = self.make_advisor()
        rec = advisor.recommend(budget_bytes=100_000, algorithm="greedy_heuristics")
        advisor.create_indexes(rec)
        executor = Executor(db)
        used = set()
        for entry in workload.queries():
            used.update(executor.execute(entry.statement).used_indexes)
        assert used  # at least some queries ran on recommended indexes

    def test_actual_speedup_positive(self):
        """Executing with the recommended configuration must examine far
        fewer documents than without."""
        advisor, db, workload = self.make_advisor()
        executor = Executor(db)
        docs_before = sum(
            executor.execute(e.statement).docs_examined
            for e in workload.queries()
        )
        rec = advisor.recommend(budget_bytes=100_000, algorithm="greedy_heuristics")
        advisor.create_indexes(rec)
        executor_after = Executor(db)
        docs_after = sum(
            executor_after.execute(e.statement).docs_examined
            for e in workload.queries()
        )
        assert docs_after < docs_before / 2

    def test_results_unchanged_by_recommendation(self):
        advisor, db, workload = self.make_advisor()
        executor = Executor(db)
        before = [
            sorted(executor.execute(e.statement, collect_output=True).output)
            for e in workload.queries()
        ]
        rec = advisor.recommend(budget_bytes=100_000, algorithm="topdown_full")
        advisor.create_indexes(rec)
        executor_after = Executor(db)
        after = [
            sorted(executor_after.execute(e.statement, collect_output=True).output)
            for e in workload.queries()
        ]
        assert before == after


class TestUpdateAwareness:
    def test_update_heavy_workload_shrinks_recommendation(self):
        db = tpox.build_database(
            num_securities=60, num_orders=60, num_customers=30, seed=3
        )
        queries = tpox.tpox_workload(num_securities=60, seed=3)
        read_only_rec = IndexAdvisor(db, queries).recommend(
            budget_bytes=200_000, algorithm="greedy_heuristics"
        )
        churny = tpox.tpox_workload(
            num_securities=60, seed=3, include_updates=True,
            update_frequency=500.0,
        )
        churny_rec = IndexAdvisor(db, churny).recommend(
            budget_bytes=200_000, algorithm="greedy_heuristics"
        )
        assert len(churny_rec.configuration) <= len(read_only_rec.configuration)
