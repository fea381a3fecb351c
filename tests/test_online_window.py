"""Tests for the daemon's sliding statement window, the drift metric,
and the online policy's typed validation."""

import pytest

from repro.online.policy import OnlinePolicy
from repro.online.window import StatementWindow, drift_distance
from repro.robustness.errors import ConfigError

SYMBOL = "for $s in X('SDOC')/Security where $s/Symbol = \"A{}\" return $s"
YIELD = "for $s in X('SDOC')/Security where $s/Yield > {} return $s/Name"
SECTOR = (
    "for $s in X('SDOC')/Security "
    'where $s/SecInfo/*/Sector = "{}" return $s/Symbol'
)


class TestStatementWindow:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            StatementWindow(0)

    def test_eviction_keeps_the_newest_texts(self):
        window = StatementWindow(3)
        for i in range(5):
            assert window.ingest(SYMBOL.format(i))
        assert len(window) == 3
        assert window.ingested == 5
        assert window.texts() == [SYMBOL.format(i) for i in (2, 3, 4)]

    def test_duplicate_texts_merge_into_frequency(self):
        window = StatementWindow(10)
        for _ in range(4):
            window.ingest(SYMBOL.format(1))
        window.ingest(YIELD.format(5))
        assert len(window) == 5
        assert window.distinct == 2
        workload = window.workload()
        frequencies = {
            entry.statement.describe(): entry.frequency for entry in workload
        }
        assert frequencies[SYMBOL.format(1)] == 4.0
        assert frequencies[YIELD.format(5)] == 1.0

    def test_workload_order_is_stable_under_arrival_order(self):
        texts = [SYMBOL.format(2), YIELD.format(5), SYMBOL.format(1)]
        forward, backward = StatementWindow(10), StatementWindow(10)
        for text in texts:
            forward.ingest(text)
        for text in reversed(texts):
            backward.ingest(text)
        describe = lambda w: [
            entry.statement.describe() for entry in w.workload()
        ]
        assert describe(forward) == describe(backward)

    def test_unparseable_text_is_rejected_with_diagnostic(self):
        window = StatementWindow(5)
        assert not window.ingest("this is not xquery")
        assert len(window) == 0
        assert window.rejected == 1
        assert "unparseable" in window.diagnostics[0]

    def test_unknown_collection_is_rejected_with_diagnostic(self):
        window = StatementWindow(5, collections=lambda: {"SDOC"})
        assert window.ingest(SYMBOL.format(1))
        assert not window.ingest(
            "for $o in X('ODOC')/FIXML/Order return $o"
        )
        assert window.rejected == 1
        assert "ODOC" in window.diagnostics[0]

    def test_signature_distribution_is_normalized(self):
        window = StatementWindow(10)
        for _ in range(3):
            window.ingest(SYMBOL.format(1))
        window.ingest(YIELD.format(5))
        distribution = window.signature_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert max(distribution.values()) == pytest.approx(0.75)

    def test_drift_distance_extremes(self):
        window = StatementWindow(10)
        window.ingest(SYMBOL.format(1))
        same = window.signature_distribution()
        assert drift_distance(same, same) == 0.0
        other = StatementWindow(10)
        other.ingest(SECTOR.format("Energy"))
        disjoint = other.signature_distribution()
        if set(same) & set(disjoint):
            pytest.skip("signatures unexpectedly overlap")
        assert drift_distance(same, disjoint) == pytest.approx(1.0)

    def test_drift_from_none_baseline_is_none(self):
        window = StatementWindow(10)
        window.ingest(SYMBOL.format(1))
        assert window.drift_from(None) is None

    def test_texts_replace_round_trip(self):
        window = StatementWindow(5)
        for i in range(3):
            window.ingest(SYMBOL.format(i))
        clone = StatementWindow(5)
        clone.replace(window.texts())
        assert clone.texts() == window.texts()
        assert clone.signature_distribution() == (
            window.signature_distribution()
        )

    def test_memoization_is_pruned_on_full_eviction(self):
        window = StatementWindow(2)
        window.ingest(SYMBOL.format(1))
        window.ingest(SYMBOL.format(2))
        window.ingest(SYMBOL.format(3))
        assert SYMBOL.format(1) not in window._parsed
        assert SYMBOL.format(1) not in window._signatures


class TestOnlinePolicyValidation:
    def good(self, **overrides):
        return OnlinePolicy(budget_bytes=100_000, **overrides)

    def test_valid_policy_round_trips(self):
        policy = self.good().validate()
        assert policy.to_dict()["budget_bytes"] == 100_000

    @pytest.mark.parametrize(
        "overrides, option",
        [
            ({"budget_bytes": 0}, "budget-bytes"),
            ({"algorithm": "nope"}, "algorithm"),
            ({"window_capacity": 0}, "window"),
            ({"cycle_interval": 0}, "cycle-interval"),
            ({"drift_threshold": 1.5}, "drift-threshold"),
            ({"min_relative_improvement": -0.1}, "min-improvement"),
            ({"cooldown_cycles": -1}, "cooldown"),
            ({"max_flaps_per_index": -1}, "max-flaps"),
            ({"cycle_deadline_seconds": -2.0}, "cycle-deadline"),
            ({"cycle_call_budget": 0}, "cycle-call-budget"),
            ({"compress": "zip"}, "compress"),
            ({"retries": -1}, "retries"),
            ({"watchdog_limit": 0}, "watchdog-limit"),
            ({"rollback_tolerance": -1e-9}, "rollback-tolerance"),
        ],
    )
    def test_bad_knob_raises_config_error(self, overrides, option):
        overrides.pop("budget_bytes", None)
        policy = (
            OnlinePolicy(budget_bytes=0)
            if option == "budget-bytes"
            else self.good(**overrides)
        )
        with pytest.raises(ConfigError) as excinfo:
            policy.validate()
        assert excinfo.value.option == option
        assert isinstance(excinfo.value, ValueError)  # CLI-friendly

    def test_string_budgets_resolve_like_the_cli(self):
        policy = self.good(
            cycle_deadline_seconds="none", cycle_call_budget="250"
        ).validate()
        assert policy.cycle_deadline_seconds is None
        assert policy.cycle_call_budget == 250
