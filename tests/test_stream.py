"""Tests for the synthetic statement-stream generator (PR 7).

The stream benchmarks lean on three properties of
``synthetic_stream``: determinism in the seed, a bounded distinct-text
vocabulary (finite literal pools), and a parseable update mix.  Pin
them here so the benchmarks' streams can't silently drift.
"""

import pytest

from repro.query.model import StatementKind
from repro.workloads.stream import stream_profile, synthetic_stream


class TestSyntheticStream:
    def test_deterministic_in_seed(self):
        first = synthetic_stream(num_statements=400, seed=11)
        second = synthetic_stream(num_statements=400, seed=11)
        assert [e.statement.describe() for e in first] == [
            e.statement.describe() for e in second
        ]

    def test_different_seeds_differ(self):
        a = synthetic_stream(num_statements=400, seed=1)
        b = synthetic_stream(num_statements=400, seed=2)
        assert [e.statement.describe() for e in a] != [
            e.statement.describe() for e in b
        ]

    def test_arrivals_not_deduplicated(self):
        stream = synthetic_stream(num_statements=500, seed=3)
        arrivals, distinct = stream_profile(stream)
        assert arrivals == 500
        assert 0 < distinct < arrivals
        assert all(entry.frequency == 1 for entry in stream)

    def test_vocabulary_saturates(self):
        """Finite literal pools: doubling the stream barely grows the
        distinct-text vocabulary once the pools are exhausted."""
        _, short_distinct = stream_profile(
            synthetic_stream(num_statements=2000, seed=0)
        )
        _, long_distinct = stream_profile(
            synthetic_stream(num_statements=4000, seed=0)
        )
        assert long_distinct < 2 * short_distinct

    def test_update_mix_parses(self):
        stream = synthetic_stream(
            num_statements=600, seed=5, update_fraction=0.1
        )
        kinds = {entry.statement.kind for entry in stream}
        assert StatementKind.QUERY in kinds
        assert StatementKind.INSERT in kinds
        assert StatementKind.DELETE in kinds
        updates = [
            e for e in stream if e.statement.kind is not StatementKind.QUERY
        ]
        assert 0 < len(updates) < 0.2 * 600

    def test_zero_update_fraction_is_all_queries(self):
        stream = synthetic_stream(
            num_statements=300, seed=7, update_fraction=0.0
        )
        assert all(
            e.statement.kind is StatementKind.QUERY for e in stream
        )


class TestDriftingStream:
    """The phase-shifted replay stream behind ``repro serve`` and the
    drift-replay benchmark."""

    def test_boundaries_split_the_stream_evenly(self):
        from repro.workloads.stream import drifting_stream

        texts, boundaries = drifting_stream(num_statements=90, phases=3)
        assert len(texts) == 90
        assert boundaries == [0, 30, 60]

    def test_deterministic_in_seed(self):
        from repro.workloads.stream import drifting_stream

        assert drifting_stream(num_statements=60, seed=4) == (
            drifting_stream(num_statements=60, seed=4)
        )
        assert drifting_stream(num_statements=60, seed=4) != (
            drifting_stream(num_statements=60, seed=5)
        )

    def test_phases_draw_from_disjoint_template_slices(self):
        from repro.online.window import StatementWindow, drift_distance
        from repro.workloads.stream import drifting_stream

        texts, boundaries = drifting_stream(
            num_statements=120, seed=1, phases=3
        )
        distributions = []
        for start, end in zip(boundaries, boundaries[1:] + [len(texts)]):
            window = StatementWindow(200)
            for text in texts[start:end]:
                window.ingest(text)
            distributions.append(window.signature_distribution())
        # Disjoint template slices => disjoint signature mixes.
        for a, b in zip(distributions, distributions[1:]):
            assert drift_distance(a, b) == pytest.approx(1.0)

    def test_every_text_is_parseable(self):
        from repro.query.parser import parse_statement
        from repro.workloads.stream import drifting_stream

        texts, __ = drifting_stream(num_statements=60, seed=2)
        for text in texts:
            parse_statement(text)

    def test_phase_count_is_validated(self):
        from repro.workloads.stream import drifting_stream

        with pytest.raises(ValueError):
            drifting_stream(num_statements=10, phases=0)
        with pytest.raises(ValueError):
            drifting_stream(num_statements=10, phases=99)
