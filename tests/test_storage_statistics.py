"""Tests for data statistics and derived virtual-index statistics.

The key invariant (Section III) is that virtual-index statistics derived
from data statistics agree with the statistics of the really-built index.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Database, IndexDefinition, IndexValueType
from repro.storage.statistics import (
    PathValueSummary,
    _string_selectivity,
    _summary_selectivity,
)
from repro.xpath import parse_pattern
from repro.xpath.ast import Literal


def make_db(docs):
    db = Database("t")
    db.create_collection("C")
    for text in docs:
        db.insert_document("C", text)
    return db


SAMPLE_DOCS = [
    f"<S><Y>{y}</Y><N>{'alpha' if y < 5 else 'beta'}</N><Sub><L>x{y}</L></Sub></S>"
    for y in range(10)
]


class TestCollection:
    def test_doc_and_node_counts(self):
        db = make_db(SAMPLE_DOCS)
        stats = db.runstats("C")
        assert stats.doc_count == 10
        assert stats.total_nodes == sum(
            d.node_count() for d in db.collection("C")
        )

    def test_path_counts(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        assert stats.path_counts[("S",)] == 10
        assert stats.path_counts[("S", "Y")] == 10
        assert stats.path_counts[("S", "Sub", "L")] == 10

    def test_attribute_paths_recorded(self):
        stats = make_db(['<S id="a"/>', '<S id="b"/>']).runstats("C")
        assert stats.path_counts[("S", "@id")] == 2

    def test_statistics_cached_and_delta_maintained(self):
        db = make_db(SAMPLE_DOCS)
        first = db.runstats("C")
        assert db.runstats("C") is first
        rescans_before = db.stats_rescans
        db.insert_document("C", "<S><Y>99</Y></S>")
        # DML is absorbed as a synopsis delta into the *live* statistics
        # object -- no invalidation, no rescan on the next probe.
        second = db.runstats("C")
        assert second is first
        assert second.doc_count == 11
        assert second.path_counts[("S", "Y")] == 11
        assert db.stats_rescans == rescans_before
        assert db.stats_delta_applies >= 1


class TestDerivedIndexStatistics:
    @pytest.mark.parametrize(
        "pattern,value_type",
        [
            ("/S/Y", IndexValueType.NUMERIC),
            ("/S/Y", IndexValueType.STRING),
            ("/S/N", IndexValueType.STRING),
            ("/S/*", IndexValueType.STRING),
            ("/S//*", IndexValueType.STRING),
            ("//L", IndexValueType.STRING),
        ],
    )
    def test_derived_matches_real_index(self, pattern, value_type):
        db = make_db(SAMPLE_DOCS)
        derived = db.runstats("C").derive_index_statistics(
            parse_pattern(pattern), value_type
        )
        real = db.create_index(
            IndexDefinition("real", "C", parse_pattern(pattern), value_type)
        )
        assert derived.entry_count == real.entry_count()
        assert derived.size_bytes == real.size_bytes()
        assert derived.levels == real.levels()

    def test_numeric_excludes_non_numeric(self):
        db = make_db(["<S><V>1</V></S>", "<S><V>abc</V></S>"])
        stats = db.runstats("C")
        derived = stats.derive_index_statistics(
            parse_pattern("/S/V"), IndexValueType.NUMERIC
        )
        assert derived.entry_count == 1

    def test_empty_pattern_zero(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        derived = stats.derive_index_statistics(
            parse_pattern("/Nope"), IndexValueType.STRING
        )
        assert derived.entry_count == 0
        assert derived.size_bytes == 0


class TestSelectivity:
    def test_numeric_range(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        sel = stats.selectivity(parse_pattern("/S/Y"), ">", Literal(4.5))
        assert sel == pytest.approx(0.5)

    def test_numeric_equality(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        sel = stats.selectivity(parse_pattern("/S/Y"), "=", Literal(3.0))
        assert sel == pytest.approx(0.1)

    def test_string_equality(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        sel = stats.selectivity(parse_pattern("/S/N"), "=", Literal("alpha"))
        assert sel == pytest.approx(0.5)

    def test_string_missing_value_falls_back_to_distinct(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        sel = stats.selectivity(parse_pattern("/S/N"), "=", Literal("nope"))
        assert 0 < sel <= 0.5

    def test_numeric_type_population(self):
        """Selectivity of a NUMERIC index over a mixed pattern must be
        relative to numeric entries only (the regression behind the
        all-index anomaly)."""
        docs = ["<S><Y>1</Y><N>abc</N></S>"] * 10
        stats = make_db(docs).runstats("C")
        sel = stats.selectivity(
            parse_pattern("/S/*"), "<=", Literal(5.0), IndexValueType.NUMERIC
        )
        assert sel == pytest.approx(1.0)  # all numeric entries satisfy

    def test_selectivity_empty_pattern(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        assert stats.selectivity(parse_pattern("/Nope"), "=", Literal(1.0)) == 0.0

    def test_cardinality_with_and_without_predicate(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        assert stats.cardinality(parse_pattern("/S/Y"), None, None) == 10
        assert stats.cardinality(
            parse_pattern("/S/Y"), ">", Literal(4.5)
        ) == pytest.approx(5.0)


class TestStringSelectivity:
    """Ordered / prefix / substring string predicates (the branches below
    the equality fast path in ``_string_selectivity``)."""

    WORDS = ["apple", "banana", "cherry", "date"]

    def _summary(self, values):
        summary = PathValueSummary()
        for value in values:
            summary.observe(value)
        summary.finalize()
        return summary

    @pytest.mark.parametrize(
        "op,expected",
        [
            ("<", 0.25),   # strictly below "banana": apple
            ("<=", 0.5),   # apple, banana
            (">", 0.5),    # cherry, date
            (">=", 0.75),  # banana, cherry, date
        ],
    )
    def test_ordered_ops_pure_strings(self, op, expected):
        summary = self._summary(self.WORDS)
        sel = _string_selectivity(summary, op, "banana")
        assert sel == pytest.approx(expected)

    def test_ordered_ops_scaled_by_string_fraction(self):
        """Mixed data: the sample fraction conditions on string values, so
        the result scales by the non-numeric share of the population."""
        summary = self._summary(self.WORDS + ["1", "2", "3", "4"])
        # 4 of 8 values are strings; half the strings are <= "banana".
        assert _string_selectivity(summary, "<=", "banana") == pytest.approx(
            0.5 * 0.5
        )
        assert _string_selectivity(summary, ">", "banana") == pytest.approx(
            0.5 * 0.5
        )

    def test_starts_with_counts_prefix_range(self):
        summary = self._summary(["ab", "abc", "abd", "b", "c", "cd"])
        assert _string_selectivity(summary, "starts-with", "ab") == (
            pytest.approx(0.5)
        )
        assert _string_selectivity(summary, "starts-with", "zz") == 0.0

    def test_starts_with_mixed_numeric(self):
        summary = self._summary(["ab", "abc", "9", "10"])
        # Both strings carry the prefix; strings are half the population.
        assert _string_selectivity(summary, "starts-with", "ab") == (
            pytest.approx(0.5)
        )

    def test_contains_counts_sample_hits(self):
        summary = self._summary(["xay", "aa", "bbb", "ccc"])
        assert _string_selectivity(summary, "contains", "a") == (
            pytest.approx(0.5)
        )
        assert _string_selectivity(summary, "contains", "zz") == 0.0

    def test_contains_mixed_numeric(self):
        summary = self._summary(["xay", "bbb", "5", "6"])
        assert _string_selectivity(summary, "contains", "a") == (
            pytest.approx(0.5 * 0.5)
        )

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "starts-with", "contains"])
    def test_numeric_only_population_has_empty_string_sample(self, op):
        summary = self._summary(["1", "2", "3"])
        assert _string_selectivity(summary, op, "a") == 0.0

    def test_empty_summary_short_circuits(self):
        summary = PathValueSummary()
        assert _summary_selectivity(summary, "<", Literal("a")) == 0.0
        assert _summary_selectivity(summary, "=", Literal(1.0)) == 0.0

    def test_unsupported_operator_raises(self):
        summary = self._summary(self.WORDS)
        with pytest.raises(ValueError):
            _string_selectivity(summary, "~", "a")


class TestPathValueSummary:
    def test_observe_numeric(self):
        summary = PathValueSummary()
        for v in ["1", "2", "3"]:
            summary.observe(v)
        summary.finalize()
        assert summary.numeric_count == 3
        assert summary.numeric_min == 1.0
        assert summary.numeric_max == 3.0
        assert summary.distinct == 3

    def test_observe_mixed(self):
        summary = PathValueSummary()
        summary.observe("abc")
        summary.observe("4.5")
        summary.finalize()
        assert summary.numeric_count == 1
        assert summary.string_sample == ["abc"]
        assert summary.numeric_sample == [4.5]

    def test_avg_string_bytes(self):
        summary = PathValueSummary()
        summary.observe("ab")
        summary.observe("abcd")
        assert summary.avg_string_bytes == 3.0


@given(
    values=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
    threshold=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_selectivity_matches_exact_fraction(values, threshold):
    """With fewer values than the sample cap, selectivity is exact."""
    docs = [f"<S><V>{v}</V></S>" for v in values]
    stats = make_db(docs).runstats("C")
    sel = stats.selectivity(parse_pattern("/S/V"), "<", Literal(float(threshold)))
    exact = sum(1 for v in values if v < threshold) / len(values)
    assert sel == pytest.approx(exact)


class TestDocumentFrequency:
    def test_counts_documents_not_nodes(self):
        # each doc has THREE V nodes; document frequency must still be 5
        docs = ["<S><V>1</V><V>2</V><V>3</V></S>"] * 5
        stats = make_db(docs).runstats("C")
        assert stats.path_doc_counts[("S", "V")] == 5
        assert stats.path_counts[("S", "V")] == 15
        assert stats.document_frequency(parse_pattern("/S/V")) == 5.0

    def test_predicate_caps_at_satisfying(self):
        docs = [f"<S><V>{i}</V></S>" for i in range(10)]
        stats = make_db(docs).runstats("C")
        df = stats.document_frequency(parse_pattern("/S/V"), "<", Literal(3.0))
        assert df == pytest.approx(3.0)

    def test_capped_at_collection_size(self):
        docs = ["<S><V>1</V><V>1</V></S>"] * 4
        stats = make_db(docs).runstats("C")
        df = stats.document_frequency(parse_pattern("/S/V"), "=", Literal(1.0))
        assert df == 4.0  # 8 satisfying nodes, 4 documents

    def test_partial_presence(self):
        docs = ["<S><V>1</V></S>", "<S><W>1</W></S>", "<S><V>2</V></S>"]
        stats = make_db(docs).runstats("C")
        assert stats.path_doc_counts[("S", "V")] == 2
        assert stats.document_frequency(parse_pattern("/S/V")) == 2.0

    def test_recursive_paths_capped_per_path(self):
        from repro.workloads import recursive as rec

        db = rec.build_database(num_parts=30, max_depth=3, seed=5)
        stats = db.runstats("PARTS")
        df = stats.document_frequency(parse_pattern("//Material"))
        assert df <= 30  # never exceeds the collection size

    def test_matching_paths_memoized(self):
        stats = make_db(SAMPLE_DOCS).runstats("C")
        first = stats.matching_paths(parse_pattern("/S/*"))
        second = stats.matching_paths(parse_pattern("/S/*"))
        assert first is second  # cached object

    def test_pickle_drops_interning_caches(self):
        """``_path_ids`` are ids of this process's ``GLOBAL_TABLE``, and
        the pattern memos were computed through them: a pickle carries
        none of the three, and the rebuilt caches answer the same."""
        stats = make_db(SAMPLE_DOCS).runstats("C")
        pattern = parse_pattern("/S//L")
        assert stats.matching_paths(pattern)  # warm the caches
        clone = pickle.loads(pickle.dumps(stats))
        assert clone._path_ids == []
        assert clone._matching_cache == {}
        assert clone._matched_paths == {}
        assert sorted(clone.matching_paths(pattern)) == sorted(
            stats.matching_paths(pattern)
        )
