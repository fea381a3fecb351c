"""Tests for the index maintenance cost mc(x, s)."""

import pytest

from repro.core.candidates import CandidateIndex
from repro.core.maintenance import MaintenanceConstants, maintenance_cost
from repro.query import parse_statement
from repro.storage.index import IndexValueType
from repro.xpath import parse_pattern


def candidate(pattern, value_type=IndexValueType.STRING, collection="SDOC"):
    return CandidateIndex(parse_pattern(pattern), value_type, collection)


class TestMaintenanceCost:
    def test_queries_are_free(self, security_db):
        stats = security_db.runstats("SDOC")
        query = parse_statement("COLLECTION('SDOC')/Security/Symbol")
        assert maintenance_cost(candidate("/Security/Symbol"), query, stats) == 0.0

    def test_insert_charges_expected_entries(self, security_db):
        stats = security_db.runstats("SDOC")
        insert = parse_statement("insert into SDOC value '<Security/>'")
        cost = maintenance_cost(candidate("/Security/Symbol"), insert, stats)
        # one Symbol per document, one level: entry_update * 1 * 1
        assert cost == pytest.approx(MaintenanceConstants().entry_update)

    def test_bigger_index_costs_more(self, security_db):
        stats = security_db.runstats("SDOC")
        insert = parse_statement("insert into SDOC value '<Security/>'")
        narrow = maintenance_cost(candidate("/Security/Symbol"), insert, stats)
        wide = maintenance_cost(candidate("/Security//*"), insert, stats)
        assert wide > narrow

    def test_numeric_index_charges_numeric_entries_only(self, security_db):
        stats = security_db.runstats("SDOC")
        insert = parse_statement("insert into SDOC value '<Security/>'")
        string_cost = maintenance_cost(
            candidate("/Security//*", IndexValueType.STRING), insert, stats
        )
        numeric_cost = maintenance_cost(
            candidate("/Security//*", IndexValueType.NUMERIC), insert, stats
        )
        assert numeric_cost < string_cost

    def test_delete_scales_with_victims(self, security_db):
        stats = security_db.runstats("SDOC")
        one = parse_statement('delete from SDOC where /Security/Symbol = "SYM003"')
        many = parse_statement("delete from SDOC where /Security/Yield >= 0")
        idx = candidate("/Security/Symbol")
        assert maintenance_cost(idx, many, stats) > maintenance_cost(idx, one, stats)

    def test_other_collection_free(self, security_db):
        stats = security_db.runstats("SDOC")
        insert = parse_statement("insert into OTHER value '<x/>'")
        assert maintenance_cost(candidate("/Security/Symbol"), insert, stats) == 0.0

    def test_custom_constants(self, security_db):
        stats = security_db.runstats("SDOC")
        insert = parse_statement("insert into SDOC value '<Security/>'")
        cheap = maintenance_cost(
            candidate("/Security/Symbol"), insert, stats,
            MaintenanceConstants(entry_update=0.001),
        )
        expensive = maintenance_cost(
            candidate("/Security/Symbol"), insert, stats,
            MaintenanceConstants(entry_update=1.0),
        )
        assert expensive > cheap


class TestMaintenanceInBenefit:
    def test_update_heavy_workload_reduces_benefit(self, security_db):
        """Benefit(X; W) must fall as update frequency rises."""
        from repro.core.benefit import ConfigurationEvaluator
        from repro.core.config import IndexConfiguration
        from repro.optimizer.session import WhatIfSession
        from repro.query import Workload

        idx = candidate("/Security/Symbol")
        idx.size_bytes = 1000
        query = """for $s in X('SDOC')/Security where $s/Symbol = "SYM003" return $s"""
        benefits = []
        for freq in (0.0, 10.0, 100.0):
            wl = Workload.from_statements([query])
            if freq:
                wl.add("insert into SDOC value '<Security><Symbol>N</Symbol></Security>'", freq)
            evaluator = ConfigurationEvaluator(
                security_db, WhatIfSession(security_db), wl
            )
            benefits.append(evaluator.benefit(IndexConfiguration([idx])))
        assert benefits[0] > benefits[1] > benefits[2]

    def test_benefit_can_go_negative_under_churn(self, security_db):
        from repro.core.benefit import ConfigurationEvaluator
        from repro.core.config import IndexConfiguration
        from repro.optimizer.session import WhatIfSession
        from repro.query import Workload

        idx = candidate("/Security//*")  # big index, no query uses it
        idx.size_bytes = 100000
        wl = Workload.from_statements(["COLLECTION('SDOC')/Security"])
        wl.add("insert into SDOC value '<Security><Symbol>N</Symbol></Security>'", 1000.0)
        evaluator = ConfigurationEvaluator(security_db, WhatIfSession(security_db), wl)
        assert evaluator.benefit(IndexConfiguration([idx])) < 0
