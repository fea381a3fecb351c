"""Tests for workload compression (PR 7): exact / template / cluster
modes, stream-order determinism, and the reconciliation property -- a
recommendation tuned on a compressed workload scores within a pinned
epsilon of the uncompressed recommendation on the full stream.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.advisor import IndexAdvisor
from repro.core.compression import (
    COMPRESSION_MODES,
    DEFAULT_CLUSTER_SIMILARITY,
    CompressionStats,
    compress_workload,
    coverage_signature,
)
from repro.query.workload import Workload
from repro.workloads import tpox
from repro.workloads.stream import synthetic_stream

#: Pinned reconciliation tolerance (relative): the compressed-workload
#: recommendation's full-stream benefit vs the uncompressed one.  On
#: the suite workloads the two are float-identical; 2% is the contract.
RECONCILE_EPSILON = 0.02


def _literal_varied_workload(seeds=(0, 1)):
    """TPoX query stream where each seed redraws every literal -- many
    distinct texts, few templates."""
    texts = []
    for seed in seeds:
        texts.extend(tpox.tpox_queries(120, seed=seed))
    return Workload.from_statements(texts)


class TestModes:
    def test_mode_registry(self):
        assert COMPRESSION_MODES == ("off", "exact", "template", "cluster")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown compression mode"):
            compress_workload(Workload(), "zip")
        with pytest.raises(ValueError, match="unknown compression mode"):
            IndexAdvisor(None, Workload(), compress="zip")

    def test_off_is_identity(self):
        workload = _literal_varied_workload()
        compressed, stats = compress_workload(workload, "off")
        assert compressed is workload
        assert stats.mode == "off"
        assert stats.representatives == len(workload)
        assert stats.ratio == 0.0
        assert not stats.approximate

    def test_exact_merges_duplicates_in_order(self):
        texts = list(tpox.tpox_queries(120, seed=0))
        workload = Workload.from_statements(texts + texts[:3])
        compressed, stats = compress_workload(workload, "exact")
        assert len(compressed) == len(texts)
        # First-occurrence order is preserved, duplicates sum.
        assert [
            e.statement.describe() for e in compressed
        ] == [e.statement.describe() for e in workload.entries[: len(texts)]]
        assert compressed.entries[0].frequency == 2.0
        assert stats.merged_groups == 3
        assert not stats.approximate
        assert stats.original_weight == len(texts) + 3

    def test_template_collapses_literal_variants(self):
        workload = _literal_varied_workload(seeds=(0, 1, 2))
        compressed, stats = compress_workload(workload, "template")
        # 11 queries per seed, but two template pairs share a request
        # shape -- 9 distinct templates.
        assert len(compressed) == 9
        assert stats.approximate
        assert stats.representatives == 9
        assert stats.ratio == pytest.approx(1 - 9 / 33)
        assert sum(e.frequency for e in compressed) == 33

    def test_cluster_at_least_as_strong_as_template(self):
        workload = _literal_varied_workload(seeds=(0, 1, 2))
        template, _ = compress_workload(workload, "template")
        cluster, stats = compress_workload(workload, "cluster")
        assert len(cluster) <= len(template)
        assert stats.approximate

    def test_cluster_pools_overlapping_signatures(self):
        statements = [
            'for $s in SECURITY(\'SDOC\')/Security where $s/Symbol = "A" return $s',
            'for $s in SECURITY(\'SDOC\')/Security where $s/Symbol = "B" '
            "and $s/Yield > 3 return $s",
        ]
        workload = Workload.from_statements(statements)
        signatures = [
            coverage_signature(e.statement) for e in workload
        ]
        # Jaccard 0.5: {Symbol} vs {Symbol, Yield} -- at the threshold.
        assert len(signatures[0] & signatures[1]) == 1
        compressed, stats = compress_workload(workload, "cluster")
        assert len(compressed) == 1
        # The richer-signature statement is the representative.
        assert "Yield" in compressed.entries[0].statement.describe()
        assert compressed.entries[0].frequency == 2.0
        assert stats.merged_groups == 1

    def test_cluster_never_pools_across_collections_or_kinds(self):
        statements = [
            'for $s in SECURITY(\'SDOC\')/Security where $s/Symbol = "A" return $s',
            'for $o in ORDER(\'ODOC\')/FIXML where $o/Symbol = "A" return $o',
            'delete from SDOC where /Security/Symbol = "A"',
        ]
        compressed, _ = compress_workload(
            Workload.from_statements(statements), "cluster"
        )
        assert len(compressed) == 3

    def test_stats_round_trip(self):
        _, stats = compress_workload(_literal_varied_workload(), "cluster")
        assert isinstance(stats, CompressionStats)
        as_dict = stats.to_dict()
        assert as_dict["mode"] == "cluster"
        assert set(as_dict) == {
            "mode",
            "original_statements",
            "original_weight",
            "representatives",
            "merged_groups",
            "ratio",
            "approximate",
        }


class TestStreamOrderDeterminism:
    """Template/cluster output is independent of arrival order -- the
    representative is picked by stable key sort, not first occurrence."""

    @pytest.mark.parametrize("mode", ["template", "cluster"])
    def test_reordered_stream_same_output(self, mode):
        texts = []
        for seed in (0, 1, 2, 3):
            texts.extend(tpox.tpox_queries(120, seed=seed))
        forward = Workload.from_statements(texts)
        backward = Workload.from_statements(list(reversed(texts)))
        a, stats_a = compress_workload(forward, mode)
        b, stats_b = compress_workload(backward, mode)
        assert [
            (e.statement.describe(), e.frequency) for e in a
        ] == [(e.statement.describe(), e.frequency) for e in b]
        assert stats_a == stats_b

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_shuffled_stream_same_output(self, seed):
        import random

        texts = []
        for s in (0, 1, 2):
            texts.extend(tpox.tpox_queries(120, seed=s))
        random.Random(seed).shuffle(texts)
        compressed, _ = compress_workload(
            Workload.from_statements(texts), "cluster"
        )
        baseline, _ = compress_workload(
            Workload.from_statements(sorted(texts)), "cluster"
        )
        assert [
            (e.statement.describe(), e.frequency) for e in compressed
        ] == [(e.statement.describe(), e.frequency) for e in baseline]


class TestReconciliationProperty:
    """Recommending on the compressed workload, then reconciling on the
    full stream, lands within RECONCILE_EPSILON of the uncompressed
    recommendation's benefit."""

    def _check(self, database, workload, mode):
        uncompressed = IndexAdvisor(database, workload, compress="off")
        try:
            total = sum(
                c.size_bytes for c in uncompressed.candidates.basics()
            )
            budget = int(total * 0.5)
            reference = uncompressed.recommend(
                budget, algorithm="greedy_heuristics"
            )
        finally:
            uncompressed.session.close()
        advisor = IndexAdvisor(database, workload, compress=mode)
        try:
            recommendation = advisor.recommend(
                budget, algorithm="greedy_heuristics"
            )
        finally:
            advisor.session.close()
        stats = recommendation.compression_stats
        assert stats["mode"] == mode
        reconciled = stats["reconciled"]
        assert reconciled["workload_statements"] == len(workload)
        tolerance = RECONCILE_EPSILON * max(1.0, reference.search.benefit)
        assert (
            abs(reconciled["benefit"] - reference.search.benefit)
            <= tolerance
        ), (
            f"reconciled {reconciled['benefit']} vs uncompressed "
            f"{reference.search.benefit} (mode {mode})"
        )

    @pytest.mark.parametrize("mode", ["template", "cluster"])
    def test_suite_workloads(self, tpox_db, tpox_wl, mode):
        self._check(tpox_db, tpox_wl, mode)

    @given(
        seeds=st.lists(
            st.integers(0, 15), min_size=2, max_size=3, unique=True
        ),
        mode=st.sampled_from(["template", "cluster"]),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_literal_varied_streams(self, tpox_db, seeds, mode):
        self._check(tpox_db, _literal_varied_workload(seeds), mode)


class TestAdvisorSurface:
    def test_recommendation_carries_compression_stats(
        self, tpox_db, tpox_wl
    ):
        advisor = IndexAdvisor(tpox_db, tpox_wl, compress="cluster")
        try:
            recommendation = advisor.recommend(
                50_000, algorithm="greedy_heuristics"
            )
        finally:
            advisor.session.close()
        as_dict = recommendation.to_dict()
        assert as_dict["compression"]["mode"] == "cluster"
        assert "reconciled" in as_dict["compression"]
        report = recommendation.stats_report()
        assert "compression" in report
        assert "reconciled" in report

    def test_off_mode_has_no_compression_block(self, tpox_db, tpox_wl):
        advisor = IndexAdvisor(tpox_db, tpox_wl)
        try:
            recommendation = advisor.recommend(
                50_000, algorithm="greedy_heuristics"
            )
        finally:
            advisor.session.close()
        assert "compression" not in recommendation.to_dict()

    def test_cluster_similarity_one_keeps_templates_apart(self):
        workload = _literal_varied_workload(seeds=(0, 1))
        loose, _ = compress_workload(workload, "cluster")
        strict, _ = compress_workload(
            workload, "cluster", cluster_similarity=1.000001
        )
        assert len(strict) >= len(loose)


class TestStreamScaling:
    def test_cluster_ilp_spends_5x_fewer_calls_than_raw_greedy(
        self, mixed_db
    ):
        """On a repetitive stream the compressed pipeline (clustering,
        ILP atoms, search, full-stream reconciliation) must cost at
        least 5x fewer optimizer calls than greedy on the raw stream at
        the same byte budget -- tight enough that few indexes fit -- and
        its configuration must be worth as much on the full stream."""
        stream = synthetic_stream(1500, seed=0, num_securities=60)

        sizing = IndexAdvisor(mixed_db, stream, compress="cluster")
        try:
            basics = sizing.candidates.basics()
        finally:
            sizing.session.close()
        budget = int(0.1 * sum(c.size_bytes for c in basics))

        def tune(compress, algorithm):
            advisor = IndexAdvisor(mixed_db, stream, compress=compress)
            try:
                recommendation = advisor.recommend(budget, algorithm=algorithm)
                return recommendation, advisor.session.counters.optimizer_calls
            finally:
                advisor.session.close()

        compressed, compressed_calls = tune("cluster", "ilp")
        raw, raw_calls = tune("off", "greedy")
        assert raw_calls >= 5 * compressed_calls
        reconciled = compressed.compression_stats["reconciled"]["benefit"]
        # 1e-6 absorbs summation order over 1,500 statement costs.
        assert reconciled >= raw.search.benefit - 1e-6
