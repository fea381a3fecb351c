"""Tests for the optimizer: index matching, the three modes, plan choice."""

import pytest

from repro.optimizer import (
    CollectionScan,
    Fetch,
    IndexAnding,
    IndexScan,
    Optimizer,
    OptimizerMode,
    index_matches_request,
)
from repro.optimizer.rewriter import PathRequest
from repro.query import parse_statement
from repro.storage import Database, IndexDefinition, IndexValueType
from repro.xpath import parse_pattern
from repro.xpath.ast import Literal


def definition(pattern, value_type=IndexValueType.STRING, name="i", virtual=True):
    return IndexDefinition(name, "SDOC", parse_pattern(pattern), value_type, virtual)


class TestIndexMatching:
    def test_exact_match(self):
        req = PathRequest(parse_pattern("/a/b"), "=", Literal("x"))
        assert index_matches_request(definition("/a/b"), req)

    def test_covering_match(self):
        req = PathRequest(parse_pattern("/a/b"), "=", Literal("x"))
        assert index_matches_request(definition("/a/*"), req)
        assert index_matches_request(definition("//*"), req)

    def test_non_covering_no_match(self):
        req = PathRequest(parse_pattern("/a//b"), "=", Literal("x"))
        assert not index_matches_request(definition("/a/b"), req)

    def test_type_mismatch_no_match(self):
        req = PathRequest(parse_pattern("/a/b"), ">", Literal(4.0))
        assert not index_matches_request(
            definition("/a/b", IndexValueType.STRING), req
        )
        assert index_matches_request(
            definition("/a/b", IndexValueType.NUMERIC), req
        )

    def test_existence_needs_string_index(self):
        req = PathRequest(parse_pattern("/a/b"))
        assert index_matches_request(definition("/a/b", IndexValueType.STRING), req)
        assert not index_matches_request(
            definition("/a/b", IndexValueType.NUMERIC), req
        )


class TestEnumerateMode:
    def test_paper_candidates(self, security_db):
        optimizer = Optimizer(security_db)
        q2 = parse_statement(
            """for $sec in SECURITY('SDOC')/Security[Yield>4.5]
               where $sec/SecInfo/*/Sector = "Energy"
               return $sec"""
        )
        result = optimizer.optimize(q2, OptimizerMode.ENUMERATE)
        found = {str(c.pattern): c.value_type for c in result.candidates}
        assert found == {
            "/Security/Yield": IndexValueType.NUMERIC,
            "/Security/SecInfo/*/Sector": IndexValueType.STRING,
        }

    def test_enumerate_produces_no_plan(self, security_db):
        optimizer = Optimizer(security_db)
        result = optimizer.optimize(
            parse_statement("COLLECTION('SDOC')/Security[Yield>1]"),
            OptimizerMode.ENUMERATE,
        )
        assert result.plan is None
        assert "no plan" in result.explain()

    def test_attribute_candidates_enumerated(self, security_db):
        optimizer = Optimizer(security_db)
        result = optimizer.optimize(
            parse_statement(
                """for $s in X('SDOC')/Security where $s/@id = "s1" return $s"""
            ),
            OptimizerMode.ENUMERATE,
        )
        assert [str(c.pattern) for c in result.candidates] == ["/Security/@id"]

    def test_counts_as_optimizer_call(self, security_db):
        optimizer = Optimizer(security_db)
        before = optimizer.calls
        optimizer.optimize(
            parse_statement("COLLECTION('SDOC')/Security[Yield>1]"),
            OptimizerMode.ENUMERATE,
        )
        assert optimizer.calls == before + 1

    def test_universal_patterns_are_not_reparsed(self, security_db, monkeypatch):
        import repro.optimizer.optimizer as module

        statement = parse_statement(
            """for $s in X('SDOC')/Security[Yield>1] where $s/@id = "s1" return $s"""
        )

        def reparsed(text):
            raise AssertionError(f"ENUMERATE re-parsed {text!r}")

        monkeypatch.setattr(module, "parse_pattern", reparsed)
        result = Optimizer(security_db).optimize(statement, OptimizerMode.ENUMERATE)
        assert {str(c.pattern) for c in result.candidates} == {
            "/Security/Yield",
            "/Security/@id",
        }


class TestNormalMode:
    def query(self):
        return parse_statement(
            """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s"""
        )

    def test_no_indexes_collection_scan(self, security_db):
        optimizer = Optimizer(security_db)
        result = optimizer.optimize(self.query())
        assert isinstance(result.plan, Fetch)
        assert isinstance(result.plan.source, CollectionScan)
        assert result.used_indexes == ()

    def test_virtual_indexes_invisible_in_normal_mode(self, security_db):
        optimizer = Optimizer(security_db)
        virtual = definition("/Security/Symbol", name="v1", virtual=True)
        result = optimizer.optimize(
            self.query(), OptimizerMode.NORMAL, [virtual]
        )
        assert result.used_indexes == ()

    def test_real_index_used(self):
        db = Database()
        db.create_collection("SDOC")
        for i in range(50):
            db.insert_document(
                "SDOC", f"<Security><Symbol>SYM{i:03d}</Symbol></Security>"
            )
        db.create_index(
            IndexDefinition(
                "isym", "SDOC", parse_pattern("/Security/Symbol"),
                IndexValueType.STRING, virtual=False,
            )
        )
        optimizer = Optimizer(db)
        result = optimizer.optimize(
            parse_statement(
                """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s"""
            )
        )
        assert result.used_indexes == ("isym",)


class TestEvaluateMode:
    def test_virtual_config_lowers_cost(self, security_db):
        optimizer = Optimizer(security_db)
        query = parse_statement(
            """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s"""
        )
        base = optimizer.optimize(query, OptimizerMode.EVALUATE, ())
        with_index = optimizer.optimize(
            query,
            OptimizerMode.EVALUATE,
            [definition("/Security/Symbol", name="v1")],
        )
        assert with_index.estimated_cost < base.estimated_cost
        assert with_index.used_indexes == ("v1",)

    def test_index_never_used_if_not_cheaper(self, security_db):
        optimizer = Optimizer(security_db)
        # unselective predicate: Yield >= 0 matches everything
        query = parse_statement(
            "for $s in X('SDOC')/Security where $s/Yield >= 0 return $s"
        )
        result = optimizer.optimize(
            query,
            OptimizerMode.EVALUATE,
            [definition("/Security/Yield", IndexValueType.NUMERIC, "vy")],
        )
        assert isinstance(result.plan.source, CollectionScan)

    def test_index_anding_on_two_predicates(self, security_db):
        optimizer = Optimizer(security_db)
        query = parse_statement(
            """for $s in X('SDOC')/Security[Yield>8.5]
               where $s/SecInfo/*/Sector = "Energy" return $s"""
        )
        result = optimizer.optimize(
            query,
            OptimizerMode.EVALUATE,
            [
                definition("/Security/Yield", IndexValueType.NUMERIC, "vy"),
                definition("/Security/SecInfo/*/Sector", IndexValueType.STRING, "vs"),
            ],
        )
        assert isinstance(result.plan.source, IndexAnding)
        assert set(result.used_indexes) == {"vy", "vs"}

    def test_redundant_indexes_only_one_used(self, security_db):
        """Two indexes answering the same predicate: the plan uses one --
        the redundancy the paper's heuristics exploit."""
        optimizer = Optimizer(security_db)
        query = parse_statement(
            """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s"""
        )
        result = optimizer.optimize(
            query,
            OptimizerMode.EVALUATE,
            [
                definition("/Security/Symbol", name="specific"),
                definition("/Security/*", name="general"),
            ],
        )
        assert result.used_indexes == ("specific",)

    def test_general_index_costlier_than_specific(self, security_db):
        optimizer = Optimizer(security_db)
        query = parse_statement(
            """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s"""
        )
        specific = optimizer.optimize(
            query, OptimizerMode.EVALUATE, [definition("/Security/Symbol", name="s")]
        )
        general = optimizer.optimize(
            query, OptimizerMode.EVALUATE, [definition("/Security//*", name="g")]
        )
        assert specific.estimated_cost <= general.estimated_cost

    def test_wrong_collection_defs_ignored(self, security_db):
        optimizer = Optimizer(security_db)
        query = parse_statement(
            """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s"""
        )
        other = IndexDefinition(
            "o", "OTHER", parse_pattern("/Security/Symbol"),
            IndexValueType.STRING, True,
        )
        result = optimizer.optimize(query, OptimizerMode.EVALUATE, [other])
        assert result.used_indexes == ()


class TestUpdateStatements:
    def test_insert_cost_independent_of_indexes(self, security_db):
        """DB2 behaviour: optimizer cost of an insert excludes index
        maintenance (the advisor charges mc separately)."""
        optimizer = Optimizer(security_db)
        insert = parse_statement(
            "insert into SDOC value '<Security><Symbol>X</Symbol></Security>'"
        )
        base = optimizer.optimize(insert, OptimizerMode.EVALUATE, ())
        with_index = optimizer.optimize(
            insert, OptimizerMode.EVALUATE, [definition("//*", name="u")]
        )
        assert base.estimated_cost == with_index.estimated_cost

    def test_delete_benefits_from_index(self, security_db):
        optimizer = Optimizer(security_db)
        delete = parse_statement(
            'delete from SDOC where /Security/Symbol = "SYM003"'
        )
        base = optimizer.optimize(delete, OptimizerMode.EVALUATE, ())
        with_index = optimizer.optimize(
            delete, OptimizerMode.EVALUATE, [definition("/Security/Symbol", name="v")]
        )
        assert with_index.estimated_cost < base.estimated_cost


class TestPlanExplain:
    def test_explain_renders_tree(self, security_db):
        optimizer = Optimizer(security_db)
        result = optimizer.optimize(
            parse_statement(
                """for $s in X('SDOC')/Security where $s/Symbol = "A" return $s"""
            ),
            OptimizerMode.EVALUATE,
            [definition("/Security/Symbol", name="v1")],
        )
        text = result.explain()
        assert "FETCH" in text
        assert "INDEX SCAN v1" in text
        assert "cost=" in text
