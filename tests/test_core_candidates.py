"""Tests for candidate enumeration and the candidate set."""

import pytest

from repro.core.candidates import (
    CandidateIndex,
    CandidateSet,
    enumerate_basic_candidates,
)
from repro.optimizer.session import WhatIfSession
from repro.query import Workload
from repro.storage.index import IndexValueType
from repro.xpath import parse_pattern


class TestCandidateSet:
    def test_get_or_add_dedupes(self):
        candidates = CandidateSet()
        a = candidates.get_or_add(parse_pattern("/a/b"), IndexValueType.STRING, "C")
        b = candidates.get_or_add(parse_pattern("/a/b"), IndexValueType.STRING, "C")
        assert a is b
        assert len(candidates) == 1

    def test_same_pattern_different_type_distinct(self):
        candidates = CandidateSet()
        candidates.get_or_add(parse_pattern("/a/b"), IndexValueType.STRING, "C")
        candidates.get_or_add(parse_pattern("/a/b"), IndexValueType.NUMERIC, "C")
        assert len(candidates) == 2

    def test_basics_vs_generals(self):
        candidates = CandidateSet()
        candidates.get_or_add(parse_pattern("/a/b"), IndexValueType.STRING, "C")
        candidates.get_or_add(
            parse_pattern("/a/*"), IndexValueType.STRING, "C", general=True
        )
        assert len(candidates.basics()) == 1
        assert len(candidates.generals()) == 1

    def test_covers_requires_same_type(self):
        general = CandidateIndex(
            parse_pattern("/a/*"), IndexValueType.STRING, "C"
        )
        numeric = CandidateIndex(
            parse_pattern("/a/b"), IndexValueType.NUMERIC, "C"
        )
        assert not general.covers(numeric)

    def test_definition_materialization(self):
        candidate = CandidateIndex(
            parse_pattern("/a/b"), IndexValueType.NUMERIC, "C"
        )
        definition = candidate.definition("x", virtual=True)
        assert definition.virtual
        assert definition.collection == "C"
        assert str(definition.pattern) == "/a/b"

    def test_compute_sizes(self, security_db):
        candidates = CandidateSet()
        candidate = candidates.get_or_add(
            parse_pattern("/Security/Symbol"), IndexValueType.STRING, "SDOC"
        )
        candidates.compute_sizes(security_db)
        expected = security_db.runstats("SDOC").derive_index_statistics(
            candidate.pattern, candidate.value_type
        )
        assert candidate.size_bytes == expected.size_bytes > 0


class TestEnumeration:
    def test_tpox_basic_candidates(self, tpox_db, tpox_wl):
        candidates = enumerate_basic_candidates(WhatIfSession(tpox_db), tpox_wl)
        patterns = {str(c.pattern) for c in candidates}
        # the paper's running-example candidates are present
        assert "/Security/Symbol" in patterns
        assert "/Security/Yield" in patterns
        assert "/Security/SecInfo/*/Sector" in patterns
        assert all(not c.general for c in candidates)

    def test_affected_sets_point_to_statements(self, tpox_db, tpox_wl):
        candidates = enumerate_basic_candidates(WhatIfSession(tpox_db), tpox_wl)
        symbol = candidates.get(("/Security/Symbol", IndexValueType.STRING))
        # queries Q1, Q2, Q3 all filter on Symbol
        assert symbol.affected == {0, 1, 2}

    def test_one_optimizer_call_per_statement(self, tpox_db, tpox_wl):
        session = WhatIfSession(tpox_db)
        before = session.optimizer.calls
        enumerate_basic_candidates(session, tpox_wl)
        assert session.optimizer.calls - before == len(tpox_wl)

    def test_shared_candidates_merge_affected(self, security_db):
        workload = Workload.from_statements(
            [
                """for $s in X('SDOC')/Security where $s/Yield > 1 return $s""",
                """for $s in X('SDOC')/Security where $s/Yield < 9 return $s""",
            ]
        )
        candidates = enumerate_basic_candidates(WhatIfSession(security_db), workload)
        (candidate,) = list(candidates)
        assert candidate.affected == {0, 1}

    def test_insert_statements_produce_nothing(self, security_db):
        workload = Workload.from_statements(
            ["insert into SDOC value '<Security/>'"]
        )
        candidates = enumerate_basic_candidates(WhatIfSession(security_db), workload)
        assert len(candidates) == 0

    def test_delete_statements_produce_candidates(self, security_db):
        workload = Workload.from_statements(
            ['delete from SDOC where /Security/Symbol = "X"']
        )
        candidates = enumerate_basic_candidates(WhatIfSession(security_db), workload)
        assert {str(c.pattern) for c in candidates} == {"/Security/Symbol"}
