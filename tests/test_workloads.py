"""Tests for the benchmark workload generators."""

import pytest

from repro import Database, Executor, IndexAdvisor, Workload
from repro.query import Query, parse_statement
from repro.workloads import synthetic, tpox, xmark


class TestTpoxGenerator:
    def test_deterministic(self):
        a = tpox.build_database(num_securities=20, num_orders=10, num_customers=5, seed=1)
        b = tpox.build_database(num_securities=20, num_orders=10, num_customers=5, seed=1)
        from repro.xmlmodel import serialize

        for col in ("SDOC", "ODOC", "CDOC"):
            docs_a = [serialize(d.root) for d in a.collection(col)]
            docs_b = [serialize(d.root) for d in b.collection(col)]
            assert docs_a == docs_b

    def test_different_seeds_differ(self):
        from repro.xmlmodel import serialize

        a = tpox.build_database(num_securities=20, num_orders=1, num_customers=1, seed=1)
        b = tpox.build_database(num_securities=20, num_orders=1, num_customers=1, seed=2)
        assert [serialize(d.root) for d in a.collection("SDOC")] != [
            serialize(d.root) for d in b.collection("SDOC")
        ]

    def test_collections_present(self, tpox_db):
        assert len(tpox_db.collection("SDOC")) == 120
        assert len(tpox_db.collection("ODOC")) == 120
        assert len(tpox_db.collection("CDOC")) == 60

    def test_wildcard_structure_varies(self, tpox_db):
        """SecInfo children vary by type, making /Security/SecInfo/*/Sector
        (paper candidate C2) genuinely need the wildcard."""
        stats = tpox_db.runstats("SDOC")
        info_children = {
            path[2]
            for path in stats.path_counts
            if len(path) == 4 and path[:2] == ("Security", "SecInfo")
        }
        assert len(info_children) >= 2

    def test_eleven_queries_parse(self):
        queries = tpox.tpox_queries(num_securities=120, seed=42)
        assert len(queries) == 11
        for text in queries:
            assert isinstance(parse_statement(text), Query)

    def test_workload_with_updates(self):
        wl = tpox.tpox_workload(num_securities=50, seed=1, include_updates=True)
        assert len(wl.updates()) == 4
        assert all(e.frequency == 1.0 for e in wl)

    def test_update_statements_executable(self):
        db = tpox.build_database(num_securities=30, num_orders=5, num_customers=5, seed=9)
        executor = Executor(db)
        for text in tpox.tpox_updates(num_securities=30, seed=9):
            executor.execute(parse_statement(text))

    def test_symbol_for_unique(self):
        symbols = {tpox.symbol_for(i) for i in range(500)}
        assert len(symbols) == 500


class TestXmarkGenerator:
    def test_collections(self, xmark_db):
        assert len(xmark_db.collection("IDOC")) == 80
        assert len(xmark_db.collection("PDOC")) == 80
        assert len(xmark_db.collection("ADOC")) == 80

    def test_queries_parse_and_run(self, xmark_db):
        executor = Executor(xmark_db)
        for text in xmark.xmark_queries(seed=7):
            result = executor.execute(parse_statement(text))
            assert result.docs_examined > 0

    def test_advisor_on_xmark(self, xmark_db):
        advisor = IndexAdvisor(xmark_db, xmark.xmark_workload(seed=7))
        rec = advisor.recommend(budget_bytes=100_000, algorithm="greedy_heuristics")
        assert rec.estimated_speedup > 1.0
        assert len(rec.configuration) >= 3


class TestSyntheticGenerator:
    def test_count_and_determinism(self, tpox_db):
        a = synthetic.random_path_queries(tpox_db, "SDOC", 10, seed=5)
        b = synthetic.random_path_queries(tpox_db, "SDOC", 10, seed=5)
        assert len(a) == 10
        assert [q.text for q in a] == [q.text for q in b]

    def test_queries_are_over_data_paths(self, tpox_db):
        from repro.optimizer.rewriter import extract_path_requests

        stats = tpox_db.runstats("SDOC")
        for query in synthetic.random_path_queries(tpox_db, "SDOC", 15, seed=3):
            for request in extract_path_requests(query):
                assert any(
                    request.pattern.matches(path) for path in stats.path_counts
                ), f"{request.pattern} matches nothing in the data"

    def test_queries_executable(self, tpox_db):
        executor = Executor(tpox_db)
        for query in synthetic.random_path_queries(tpox_db, "SDOC", 10, seed=4):
            result = executor.execute(query)
            assert result.docs_examined > 0

    def test_enumerable_candidates(self, tpox_db):
        """Synthetic queries must expose indexable patterns (Table III
        depends on this)."""
        from repro.core.candidates import enumerate_basic_candidates
        from repro.optimizer.session import WhatIfSession

        wl = synthetic.synthetic_workload(tpox_db, "SDOC", 10, seed=6)
        candidates = enumerate_basic_candidates(WhatIfSession(tpox_db), wl)
        assert len(candidates) >= 5

    def test_empty_collection_rejected(self):
        db = Database()
        db.create_collection("EMPTY")
        with pytest.raises(ValueError):
            synthetic.random_path_queries(db, "EMPTY", 5, seed=0)


class TestTpoxExtendedQueries:
    def test_parse_and_execute(self, tpox_db):
        from repro import Executor

        executor = Executor(tpox_db)
        for text in tpox.tpox_queries(num_securities=120, seed=42):
            pass  # baseline set covered elsewhere
        for text in tpox.tpox_extended_queries(num_securities=120, seed=42):
            statement = parse_statement(text)
            result = executor.execute(statement, collect_output=True)
            assert result.docs_examined > 0

    def test_aggregates_present(self):
        texts = tpox.tpox_extended_queries(num_securities=50, seed=1)
        parsed = [parse_statement(t) for t in texts]
        assert all(q.aggregates for q in parsed)
        functions = {q.aggregates[0].function for q in parsed}
        assert functions == {"max", "sum", "count", "avg"}

    def test_advisable(self, tpox_db):
        from repro import IndexAdvisor

        wl = Workload.from_statements(
            tpox.tpox_extended_queries(num_securities=120, seed=42)
        )
        advisor = IndexAdvisor(tpox_db, wl)
        assert len(advisor.candidates.basics()) >= 4
        rec = advisor.recommend(budget_bytes=100_000)
        assert rec.estimated_speedup > 1.0


class TestTpoxJoinQueries:
    def test_parse_as_joins(self):
        from repro.query.model import JoinQuery

        for text in tpox.tpox_join_queries(num_securities=50, seed=1):
            assert isinstance(parse_statement(text), JoinQuery)

    def test_execute_and_find_rows(self, tpox_db):
        executor = Executor(tpox_db)
        total_rows = 0
        for text in tpox.tpox_join_queries(num_securities=120, seed=42):
            result = executor.execute(parse_statement(text))
            total_rows += result.rows
            assert result.docs_examined > 0
        assert total_rows > 0

    def test_advisable(self, tpox_db):
        wl = Workload.from_statements(
            tpox.tpox_join_queries(num_securities=120, seed=42)
        )
        advisor = IndexAdvisor(tpox_db, wl)
        collections = {c.collection for c in advisor.candidates.basics()}
        assert {"SDOC", "ODOC", "CDOC"} <= collections
        rec = advisor.recommend(budget_bytes=10**6)
        assert rec.estimated_speedup > 1.0
