"""Tests for what-if analysis and workload compression."""

import pytest

from repro.core.compression import compress, compression_ratio
from repro.core.config import IndexConfiguration
from repro.core.whatif import analyze
from repro.query import Workload, parse_statement


class TestWhatIf:
    def test_configuration_from_specs(self):
        """The one ``PATTERN[:TYPE]`` spec parser the CLI and the
        server's whatif endpoint share."""
        from repro.core.whatif import configuration_from_specs
        from repro.storage.index import IndexValueType

        configuration = configuration_from_specs(
            ["/Security/Yield:numeric", "/Security/PE:DOUBLE",
             "/Security/Symbol", "/Security/Name:string",
             "/Security/Price:numerical"],
            "SDOC",
        )
        assert [
            (str(c.pattern), c.value_type, c.collection)
            for c in configuration
        ] == [
            ("/Security/Yield", IndexValueType.NUMERIC, "SDOC"),
            ("/Security/PE", IndexValueType.NUMERIC, "SDOC"),
            ("/Security/Symbol", IndexValueType.STRING, "SDOC"),
            ("/Security/Name", IndexValueType.STRING, "SDOC"),
            ("/Security/Price", IndexValueType.NUMERIC, "SDOC"),
        ]

    def test_report_structure(self, tpox_advisor, tpox_db, tpox_wl):
        rec = tpox_advisor.recommend(budget_bytes=40_000, algorithm="greedy_heuristics")
        report = analyze(tpox_db, tpox_wl, rec.configuration)
        assert len(report.impacts) == len(tpox_wl)
        assert report.total_benefit > 0
        for impact in report.impacts:
            assert impact.cost_after <= impact.cost_before + 1e-9
            assert impact.speedup >= 1.0

    def test_consistent_with_evaluator(self, tpox_advisor, tpox_db, tpox_wl):
        rec = tpox_advisor.recommend(budget_bytes=40_000, algorithm="greedy_heuristics")
        report = analyze(tpox_db, tpox_wl, rec.configuration)
        expected = tpox_advisor.evaluator.raw_benefit(rec.configuration)
        assert report.total_benefit == pytest.approx(expected)

    def test_unused_indexes_detected(self, tpox_db, tpox_wl, tpox_advisor):
        from repro.core.candidates import CandidateIndex
        from repro.storage.index import IndexValueType
        from repro.xpath import parse_pattern

        useless = CandidateIndex(
            parse_pattern("/Nothing/Here"), IndexValueType.STRING, "SDOC"
        )
        useless.size_bytes = 10
        report = analyze(tpox_db, tpox_wl, IndexConfiguration([useless]))
        assert report.unused_indexes() == ["whatif_0"]
        assert report.total_benefit == 0.0

    def test_summary_renders(self, tpox_db, tpox_wl, tpox_advisor):
        rec = tpox_advisor.recommend(budget_bytes=40_000, algorithm="greedy_heuristics")
        text = analyze(tpox_db, tpox_wl, rec.configuration).summary()
        assert "total benefit" in text
        assert "speedup" in text

    def test_empty_configuration(self, tpox_db, tpox_wl):
        report = analyze(tpox_db, tpox_wl, IndexConfiguration())
        assert report.total_benefit == 0.0
        assert report.unused_indexes() == []


class TestCompression:
    def q(self, symbol):
        return (
            f"""for $s in X('SDOC')/Security where $s/Symbol = "{symbol}" return $s"""
        )

    def test_exact_duplicates_merged(self):
        wl = Workload.from_statements([self.q("A"), self.q("A"), self.q("B")])
        compressed = compress(wl)
        assert len(compressed) == 2
        assert compressed.entries[0].frequency == 2.0

    def test_frequencies_summed(self):
        wl = Workload.from_statements(
            [self.q("A"), self.q("A")], frequencies=[3.0, 4.0]
        )
        compressed = compress(wl)
        assert compressed.entries[0].frequency == 7.0

    def test_template_merging(self):
        wl = Workload.from_statements([self.q("A"), self.q("B"), self.q("C")])
        exact = compress(wl)
        assert len(exact) == 3  # different literals, exact keeps all
        template = compress(wl, by_template=True)
        assert len(template) == 1
        assert template.entries[0].frequency == 3.0

    def test_template_distinguishes_operators(self):
        wl = Workload.from_statements(
            [
                "for $s in X('SDOC')/Security where $s/Yield > 1 return $s",
                "for $s in X('SDOC')/Security where $s/Yield = 1 return $s",
            ]
        )
        assert len(compress(wl, by_template=True)) == 2

    def test_template_distinguishes_collections(self):
        wl = Workload.from_statements(
            [
                "for $s in X('SDOC')/Security where $s/Yield > 1 return $s",
                "for $s in X('OTHER')/Security where $s/Yield > 1 return $s",
            ]
        )
        assert len(compress(wl, by_template=True)) == 2

    def test_updates_participate(self):
        wl = Workload.from_statements(
            ["insert into SDOC value '<a/>'", "insert into SDOC value '<a/>'"]
        )
        assert len(compress(wl)) == 1

    def test_order_preserved(self):
        wl = Workload.from_statements([self.q("A"), self.q("B"), self.q("A")])
        compressed = compress(wl)
        assert [e.statement.describe() for e in compressed.entries] == [
            wl.entries[0].statement.describe(),
            wl.entries[1].statement.describe(),
        ]

    def test_compression_ratio(self):
        wl = Workload.from_statements([self.q("A")] * 4)
        compressed = compress(wl)
        assert compression_ratio(wl, compressed) == pytest.approx(0.75)
        assert compression_ratio(Workload(), Workload()) == 0.0

    def test_compressed_workload_same_recommendation(self, tpox_db):
        """Advisor output is invariant under exact compression."""
        from repro import IndexAdvisor

        raw = Workload.from_statements(
            [self.q("SYM001")] * 5
            + ["for $s in X('SDOC')/Security where $s/Yield > 5 return $s"] * 3
        )
        compressed = compress(raw)
        rec_raw = IndexAdvisor(tpox_db, raw).recommend(
            budget_bytes=50_000, algorithm="greedy_heuristics"
        )
        rec_compressed = IndexAdvisor(tpox_db, compressed).recommend(
            budget_bytes=50_000, algorithm="greedy_heuristics"
        )
        assert rec_raw.configuration.keys == rec_compressed.configuration.keys
        assert rec_raw.search.benefit == pytest.approx(rec_compressed.search.benefit)
