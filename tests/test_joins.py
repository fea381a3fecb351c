"""Tests for two-collection equi-joins: parsing, planning, execution,
and advisor integration."""

import pytest

from repro import (
    Database,
    Executor,
    IndexAdvisor,
    IndexDefinition,
    IndexValueType,
    Optimizer,
    OptimizerMode,
    Workload,
)
from repro.optimizer.plans import NestedLoopJoin
from repro.query import QuerySyntaxError, parse_statement
from repro.query.model import JoinQuery
from repro.xpath import evaluate_path, parse_pattern, parse_xpath

JOIN_TEXT = """
for $o in ORDER('ODOC')/FIXML/Order, $s in SECURITY('SDOC')/Security
where $o/Instrmt/@Sym = $s/Symbol and $s/Yield > 7.5
return <r>{$o/@ID}{$s/Symbol}</r>
"""


@pytest.fixture(scope="module")
def join_db():
    from repro.workloads import tpox

    return tpox.build_database(
        num_securities=100, num_orders=120, num_customers=20, seed=42
    )


def brute_force_pairs(db, outer_binding, outer_key, inner_binding, inner_key,
                      inner_filter=None):
    """Reference nested-loop join for result verification."""
    pairs = []
    for od in db.collection("ODOC"):
        for onode in evaluate_path(od, parse_xpath(outer_binding)):
            okeys = {
                n.string_value()
                for n in evaluate_path(onode, parse_xpath(outer_key))
            }
            if not okeys:
                continue
            for sd in db.collection("SDOC"):
                for snode in evaluate_path(sd, parse_xpath(inner_binding)):
                    if inner_filter and not inner_filter(snode):
                        continue
                    skeys = {
                        n.string_value()
                        for n in evaluate_path(snode, parse_xpath(inner_key))
                    }
                    if okeys & skeys:
                        pairs.append((onode, snode))
    return pairs


class TestJoinParsing:
    def test_builds_join_query(self):
        join = parse_statement(JOIN_TEXT)
        assert isinstance(join, JoinQuery)
        assert join.left.collection == "ODOC"
        assert join.right.collection == "SDOC"
        assert str(join.left_join_path) == "Instrmt/@Sym"
        assert str(join.right_join_path) == "Symbol"

    def test_side_filters_routed(self):
        join = parse_statement(JOIN_TEXT)
        assert join.left.where == ()
        assert [str(w) for w in join.right.where] == ["${var}/Yield > 7.5"]

    def test_return_paths_routed(self):
        join = parse_statement(JOIN_TEXT)
        assert [str(p) for p in join.left.return_paths] == ["@ID"]
        assert [str(p) for p in join.right.return_paths] == ["Symbol"]

    def test_secondary_vars_attach_to_their_side(self):
        join = parse_statement(
            """for $o in X('ODOC')/FIXML/Order, $s in Y('SDOC')/Security
               for $i in $o/Instrmt
               where $i/@Sym = $s/Symbol return $o"""
        )
        assert str(join.left_join_path) == "Instrmt/@Sym"
        # the secondary binding added an existence clause on the left side
        assert any(str(w.path) == "Instrmt" for w in join.left.where)

    def test_missing_join_condition_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_statement(
                "for $a in X('A')/r, $b in Y('B')/r where $a/v > 1 return $a"
            )

    def test_two_join_conditions_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_statement(
                """for $a in X('A')/r, $b in Y('B')/r
                   where $a/v = $b/v and $a/w = $b/w return $a"""
            )

    def test_three_collections_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_statement(
                "for $a in X('A')/r, $b in Y('B')/r, $c in Z('C')/r "
                "where $a/v = $b/v return $a"
            )

    def test_aggregates_rejected_in_joins(self):
        with pytest.raises(QuerySyntaxError):
            parse_statement(
                """for $a in X('A')/r, $b in Y('B')/r
                   where $a/v = $b/v return count($a/x)"""
            )

    def test_swapped(self):
        join = parse_statement(JOIN_TEXT)
        flipped = join.swapped()
        assert flipped.left is join.right
        assert flipped.right_join_path is join.left_join_path


class TestJoinPlanning:
    def test_plan_is_nested_loop(self, join_db):
        result = Optimizer(join_db).optimize(parse_statement(JOIN_TEXT))
        assert isinstance(result.plan, NestedLoopJoin)
        assert result.plan.strategy in ("hash", "index-nlj")
        assert "NLJOIN" in result.explain()

    def test_virtual_join_key_index_considered(self, join_db):
        optimizer = Optimizer(join_db)
        join = parse_statement(JOIN_TEXT)
        base = optimizer.optimize(join, OptimizerMode.EVALUATE, ())
        with_key = optimizer.optimize(
            join,
            OptimizerMode.EVALUATE,
            [
                IndexDefinition(
                    "vsym", "ODOC",
                    parse_pattern("/FIXML/Order/Instrmt/@Sym"),
                    IndexValueType.STRING, True,
                ),
                IndexDefinition(
                    "vy", "SDOC", parse_pattern("/Security/Yield"),
                    IndexValueType.NUMERIC, True,
                ),
            ],
        )
        assert with_key.estimated_cost <= base.estimated_cost

    def test_enumerate_covers_both_sides(self, join_db):
        result = Optimizer(join_db).optimize(
            parse_statement(JOIN_TEXT), OptimizerMode.ENUMERATE
        )
        found = {(str(c.pattern), c.collection) for c in result.candidates}
        assert ("/FIXML/Order/Instrmt/@Sym", "ODOC") in found
        assert ("/Security/Symbol", "SDOC") in found
        assert ("/Security/Yield", "SDOC") in found


class TestJoinExecution:
    def test_hash_join_matches_brute_force(self, join_db):
        result = Executor(join_db).execute(
            parse_statement(JOIN_TEXT), collect_output=True
        )
        expected = brute_force_pairs(
            join_db, "/FIXML/Order", "Instrmt/@Sym", "/Security", "Symbol",
            inner_filter=lambda s: any(
                float(n.string_value()) > 7.5
                for n in evaluate_path(s, parse_xpath("Yield"))
            ),
        )
        assert result.rows == len(expected)

    def test_output_side_order_stable(self, join_db):
        """Output columns follow the statement, not the plan orientation."""
        result = Executor(join_db).execute(
            parse_statement(JOIN_TEXT), collect_output=True
        )
        for row in result.output:
            order_id, symbol = [part.strip() for part in row.split("|")]
            assert order_id.startswith("100")  # order IDs are 100xxx
            assert not symbol.startswith("100")

    def test_results_invariant_under_indexes(self, join_db):
        join = parse_statement(JOIN_TEXT)
        baseline = Executor(join_db).execute(join, collect_output=True)
        created = []
        for name, col, pattern, vt in (
            ("jx1", "ODOC", "/FIXML/Order/Instrmt/@Sym", IndexValueType.STRING),
            ("jx2", "SDOC", "/Security/Symbol", IndexValueType.STRING),
            ("jx3", "SDOC", "/Security/Yield", IndexValueType.NUMERIC),
        ):
            join_db.create_index(
                IndexDefinition(name, col, parse_pattern(pattern), vt)
            )
            created.append(name)
        try:
            indexed = Executor(join_db).execute(join, collect_output=True)
            assert sorted(indexed.output) == sorted(baseline.output)
        finally:
            for name in created:
                join_db.drop_index(name)

    def test_index_nlj_chosen_with_selective_outer(self):
        """A selective outer side + a big inner side makes the index
        nested-loop orientation win, probing far fewer documents."""
        db = Database()
        db.create_collection("SMALL")
        db.create_collection("BIG")
        db.insert_document("SMALL", "<k><v>key7</v></k>")
        for i in range(400):
            db.insert_document(
                "BIG", f"<r><key>key{i % 40}</key><pad>{'x' * 50}</pad></r>"
            )
        db.create_index(
            IndexDefinition(
                "bigkey", "BIG", parse_pattern("/r/key"), IndexValueType.STRING
            )
        )
        join = parse_statement(
            "for $a in X('SMALL')/k, $b in Y('BIG')/r "
            "where $a/v = $b/key return $b"
        )
        result = Optimizer(db).optimize(join)
        assert result.plan.strategy == "index-nlj"
        executed = Executor(db).execute(join, collect_output=True)
        assert executed.rows == 10  # 400 / 40 occurrences of key7
        assert executed.docs_examined < 30  # 1 outer + 10 probed inner docs

    def test_empty_outer_side(self, join_db):
        join = parse_statement(
            """for $o in ORDER('ODOC')/FIXML/Order, $s in SECURITY('SDOC')/Security
               where $o/Instrmt/@Sym = $s/Symbol and $o/@Acct = "NOPE"
               return $o"""
        )
        assert Executor(join_db).execute(join).rows == 0


class TestJoinAdvisor:
    def test_candidates_on_both_collections(self, join_db):
        workload = Workload.from_statements([JOIN_TEXT])
        advisor = IndexAdvisor(join_db, workload)
        collections = {c.collection for c in advisor.candidates.basics()}
        assert collections == {"ODOC", "SDOC"}

    def test_recommendation_helps_join(self, join_db):
        workload = Workload.from_statements([JOIN_TEXT])
        advisor = IndexAdvisor(join_db, workload)
        recommendation = advisor.recommend(budget_bytes=10**6)
        assert recommendation.estimated_speedup > 1.0


class TestJoinIntegration:
    def test_cli_executes_join(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "db")
        main(["generate", path, "--benchmark", "tpox", "--scale", "40"])
        capsys.readouterr()
        assert main([
            "query", path,
            "for $o in X('ODOC')/FIXML/Order, $s in Y('SDOC')/Security "
            "where $o/Instrmt/@Sym = $s/Symbol and $s/Yield > 8 return $s/Symbol",
        ]) == 0
        out = capsys.readouterr().out
        assert "rows" in out

    def test_whatif_on_join_workload(self, join_db):
        from repro.core.whatif import analyze

        workload = Workload.from_statements([JOIN_TEXT])
        advisor = IndexAdvisor(join_db, workload)
        recommendation = advisor.recommend(budget_bytes=10**6)
        report = analyze(join_db, workload, recommendation.configuration)
        assert report.total_benefit > 0

    def test_paged_executor_charges_joins(self, join_db):
        """Joins are page-charged: a hash join touches every inner page,
        so the join's footprint covers both collections."""
        from repro.storage.bufferpool import BufferPool, PagedExecutor

        executor = PagedExecutor(join_db, BufferPool(100_000))
        outcome = executor.execute(parse_statement(JOIN_TEXT))
        assert outcome.result.rows > 0
        min_docs = min(
            len(join_db.collection("ODOC")), len(join_db.collection("SDOC"))
        )
        assert outcome.page_accesses >= min_docs  # at least a page per doc
        warm = executor.execute(parse_statement(JOIN_TEXT))
        assert warm.hit_ratio > 0.9  # working set resident on the rerun

    def test_compression_handles_joins(self):
        from repro.core.compression import compress

        wl = Workload.from_statements([JOIN_TEXT, JOIN_TEXT])
        assert len(compress(wl)) == 1

    def test_benefit_fast_equals_naive_with_joins(self, join_db):
        from repro.core.benefit import ConfigurationEvaluator
        from repro.core.config import IndexConfiguration
        from repro.optimizer.session import WhatIfSession

        workload = Workload.from_statements([JOIN_TEXT])
        advisor = IndexAdvisor(join_db, workload)
        candidates = list(advisor.candidates)
        fast = ConfigurationEvaluator(join_db, WhatIfSession(join_db), workload)
        naive = ConfigurationEvaluator(
            join_db, WhatIfSession(join_db), workload, naive=True
        )
        for size in (1, 2, len(candidates)):
            config = IndexConfiguration(candidates[:size])
            assert fast.benefit(config) == pytest.approx(naive.benefit(config))
