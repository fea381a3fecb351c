"""Unit tests of the serving front end: the epoch gate, tenant
admission, typed responses, the portfolio modes, and typed configuration
errors (a ``config`` response / CLI exit 2, never a bare traceback)."""

import asyncio
import json

import pytest

from repro.query.workload import Workload
from repro.robustness.errors import AdmissionRejected, ConfigError
from repro.serve import (
    AdvisorServer,
    AdmissionController,
    TenantPolicy,
    run_portfolio,
)
from repro.serve.portfolio import perturbed_specs
from repro.serve.requests import Response
from repro.serve.server import normalized_recommendation, serial_order
from repro.storage.database import EpochGate
from repro.workloads import tpox

TIMEOUT = 120


def small_database():
    return tpox.build_database(
        num_securities=12, num_orders=12, num_customers=6, seed=7
    )


SMALL_WORKLOAD = tpox.tpox_workload(num_securities=12, seed=7).subset(6)
QUERY_TEXTS = [e.statement.describe() for e in SMALL_WORKLOAD.entries]
BUDGET = 50_000


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


# ---------------------------------------------------------------------------
# EpochGate
# ---------------------------------------------------------------------------

class TestEpochGate:
    def test_read_validates_when_nothing_moved(self):
        db = small_database()
        gate = EpochGate(db)
        token = gate.read_view(["SDOC"])
        assert token is not None
        assert gate.validate(token)
        assert gate.stats()["reads_validated"] == 1

    def test_concurrent_write_tears_the_read(self):
        db = small_database()
        gate = EpochGate(db)
        token = gate.read_view(["SDOC"])
        db.insert_document("SDOC", "<Security><Symbol>T</Symbol></Security>")
        assert not gate.validate(token)
        assert gate.stats()["reads_torn"] == 1

    def test_active_writer_refuses_new_reads(self):
        db = small_database()
        gate = EpochGate(db)
        gate.begin_write("SDOC")
        assert gate.read_view(["SDOC"]) is None
        assert gate.read_view(["ODOC"]) is not None  # other collections fine
        gate.end_write("SDOC")
        assert gate.read_view(["SDOC"]) is not None
        assert gate.stats()["reads_refused"] == 1

    def test_validate_fails_while_writer_active(self):
        db = small_database()
        gate = EpochGate(db)
        token = gate.read_view(["SDOC"])
        gate.begin_write("SDOC")
        assert not gate.validate(token)
        gate.end_write("SDOC")

    def test_nested_writers_unwind(self):
        gate = EpochGate(small_database())
        gate.begin_write("SDOC")
        gate.begin_write("SDOC")
        gate.end_write("SDOC")
        assert gate.writing("SDOC")
        gate.end_write("SDOC")
        assert not gate.writing("SDOC")

    def test_unknown_collection_reads_epoch_zero(self):
        gate = EpochGate(small_database())
        assert gate.epochs(["NOPE"]) == (("NOPE", 0),)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_in_flight_limit_rejects_typed(self):
        control = AdmissionController(
            default=TenantPolicy(max_in_flight=1)
        )
        with control.admit("alpha", "query"):
            with pytest.raises(AdmissionRejected) as excinfo:
                with control.admit("alpha", "query"):
                    pass  # pragma: no cover - admission must refuse
        assert excinfo.value.tenant == "alpha"
        assert excinfo.value.reason == "in-flight-limit"
        # the slot was released: a new request is admitted again
        with control.admit("alpha", "query"):
            pass
        assert control.stats()["alpha"]["rejected"] == 1

    def test_quota_pool_exhaustion_rejects_advise_requests(self):
        control = AdmissionController(
            default=TenantPolicy(search_call_quota=10)
        )
        control.charge_calls("alpha", 10)
        with pytest.raises(AdmissionRejected) as excinfo:
            with control.admit("alpha", "recommend"):
                pass  # pragma: no cover
        assert excinfo.value.reason == "quota-exhausted"
        # queries are not metered by the search quota
        with control.admit("alpha", "query"):
            pass

    def test_limits_clamp_deadline_and_expose_quota(self):
        control = AdmissionController(
            default=TenantPolicy(search_call_quota=100, deadline_seconds=2.0)
        )
        control.charge_calls("alpha", 30)
        deadline, calls = control.limits_for("alpha", 5.0)
        assert deadline == 2.0
        assert calls == 70
        deadline, _ = control.limits_for("alpha", 0.5)
        assert deadline == 0.5

    def test_tenants_are_isolated(self):
        control = AdmissionController(
            default=TenantPolicy(search_call_quota=10)
        )
        control.charge_calls("alpha", 10)
        with control.admit("beta", "recommend"):
            pass
        assert control.quota_remaining("alpha") == 0
        assert control.quota_remaining("beta") == 10


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------

class TestEndpoints:
    def test_query_roundtrip_and_read_purity(self):
        db = small_database()

        async def scenario():
            async with AdvisorServer(db) as server:
                before = db.storage_stats()
                responses = [
                    await server.query(text) for text in QUERY_TEXTS
                ]
                return before, db.storage_stats(), responses

        before, after, responses = run(scenario())
        assert all(r.ok for r in responses)
        assert before == after  # reads never move storage counters
        first = responses[0]
        assert first.epoch is not None and first.seq == 0
        assert "statistics" in first.value
        json.dumps(first.to_dict())

    def test_dml_bumps_epoch_and_journals(self):
        db = small_database()

        async def scenario():
            async with AdvisorServer(db) as server:
                insert = await server.dml(
                    "insert into SDOC value "
                    "'<Security><Symbol>NEW</Symbol></Security>'"
                )
                delete = await server.dml(
                    'delete from SDOC where /Security/Symbol = "NEW"'
                )
                return insert, delete, list(server.journal)

        insert, delete, journal = run(scenario())
        assert insert.ok and delete.ok
        assert insert.seq == 0 and delete.seq == 1
        assert delete.epoch[0][1] == insert.epoch[0][1] + 1
        assert [entry["seq"] for entry in journal] == [0, 1]
        assert delete.value["rows"] == 1

    def test_statistics_digest_and_token_shared_until_an_epoch_moves(self):
        """Per-request waste regression: responses at unchanged epochs
        carry the *same* digest and epoch-token objects; a write moves
        both, to the values a fresh computation gives."""
        text = next(t for t in QUERY_TEXTS if "SDOC" in t)

        async def scenario():
            async with AdvisorServer(small_database()) as server:
                first = await server.query(text)
                second = await server.query(text)
                write = await server.dml(
                    "insert into SDOC value "
                    "'<Security><Symbol>NEW</Symbol></Security>'"
                )
                third = await server.query(text)
                return first, second, write, third

        first, second, write, third = run(scenario())
        assert second.value["statistics"] is first.value["statistics"]
        assert second.epoch is first.epoch
        assert third.epoch != first.epoch
        assert third.value["statistics"] is write.value["statistics"]
        assert (
            third.value["statistics"]["SDOC"]["doc_count"]
            == first.value["statistics"]["SDOC"]["doc_count"] + 1
        )
        assert first.comparable() == second.comparable()

    def test_response_layout_keeps_its_projections(self):
        response = Response(
            "query",
            True,
            value={"rows": 1},
            epoch=(("SDOC", 3),),
            seq=2,
            retries=1,
            elapsed_seconds=0.5,
        )
        assert not hasattr(response, "__dict__")
        assert response.to_dict() == {
            "kind": "query",
            "ok": True,
            "tenant": "default",
            "value": {"rows": 1},
            "error": None,
            "code": None,
            "epoch": [["SDOC", 3]],
            "seq": 2,
            "retries": 1,
            "elapsed_seconds": 0.5,
        }
        assert list(response.to_dict()) == list(Response.__slots__)
        assert list(response.comparable()) == [
            name
            for name in Response.__slots__
            if name not in ("retries", "elapsed_seconds")
        ]
        failed = Response("dml", False, error="boom", code="internal")
        assert failed.to_dict()["epoch"] is None
        assert failed == Response("dml", False, error="boom", code="internal")
        assert failed != response

    def test_wrong_statement_kind_is_bad_request(self):
        db = small_database()

        async def scenario():
            async with AdvisorServer(db) as server:
                return (
                    await server.query(
                        "insert into SDOC value '<Security/>'"
                    ),
                    await server.dml(QUERY_TEXTS[0]),
                    await server.query("not a statement at all ("),
                    await server.query(
                        "for $x in X('NOPE')/a where $x/b = \"1\" return $x"
                    ),
                )

        misrouted_dml, misrouted_query, junk, unknown = run(scenario())
        for response in (misrouted_dml, misrouted_query, junk, unknown):
            assert not response.ok
            assert response.code == "bad-request"

    def test_internal_backstop_never_raises(self, monkeypatch):
        db = small_database()
        server = AdvisorServer(db)
        monkeypatch.setattr(
            server, "_do_query", lambda text: 1 / 0  # not even async
        )

        async def scenario():
            await server.start()
            return await server.query(QUERY_TEXTS[0])

        response = run(scenario())
        assert not response.ok and response.code == "internal"

    def test_whatif_costs_on_snapshot(self):
        db = small_database()

        async def scenario():
            async with AdvisorServer(db) as server:
                return await server.whatif(
                    QUERY_TEXTS, ["/Security/Symbol"], "SDOC"
                )

        response = run(scenario())
        assert response.ok
        assert response.value["total_benefit"] >= 0.0
        assert len(response.value["impacts"]) == len(QUERY_TEXTS)

    def test_recommend_carries_portfolio_telemetry(self):
        db = small_database()

        async def scenario():
            async with AdvisorServer(db, mode="tournament") as server:
                return await server.recommend(QUERY_TEXTS, BUDGET)

        response = run(scenario())
        assert response.ok
        portfolio = response.value["portfolio"]
        assert portfolio["mode"] == "tournament"
        assert {s["algorithm"] for s in portfolio["strategies"]} == {
            "greedy", "greedy_heuristics", "ilp"
        }
        assert any(s.get("winner") for s in portfolio["strategies"])
        # wall-clock fields are stripped from the comparable value
        assert "elapsed_seconds" not in response.value
        json.dumps(response.to_dict())

    def test_non_positive_budget_is_a_bad_request(self):
        """Regression: a zero or negative budget used to be clamped to
        one byte and answered ``ok`` with ``budget_bytes: 1``."""

        async def scenario():
            async with AdvisorServer(small_database()) as server:
                return [
                    await server.recommend(QUERY_TEXTS, budget)
                    for budget in (0, -5)
                ]

        for response in run(scenario()):
            assert not response.ok
            assert response.code == "bad-request"
            assert "budget_bytes" in response.error

    def test_served_values_and_journal_are_slotted_mappings(self):
        """What a server keeps per request -- query and write values,
        their statistics digests, journal entries -- is slotted, reads
        like the dicts it replaced and turns into them for JSON."""
        text = next(t for t in QUERY_TEXTS if "SDOC" in t)

        async def scenario():
            async with AdvisorServer(small_database()) as server:
                return (
                    await server.query(text),
                    await server.dml(
                        "insert into SDOC value "
                        "'<Security><Symbol>NEW</Symbol></Security>'"
                    ),
                    server.journal,
                )

        query, write, journal = run(scenario())
        digest_keys = ["doc_count", "total_nodes", "paths", "path_nodes"]
        for mapping, keys in (
            (query.value, ["rows", "docs_examined", "used_indexes",
                           "index_entries_scanned", "output", "statistics"]),
            (write.value, ["rows", "docs_examined", "statistics"]),
            (write.value["statistics"]["SDOC"], digest_keys),
            (journal[0], ["seq", "text", "collection", "epoch", "rows"]),
        ):
            assert not hasattr(mapping, "__dict__")
            assert list(mapping) == keys
            with pytest.raises(AttributeError):
                mapping.rows = 0
        for response in (query, write):
            as_dict = response.to_dict()["value"]
            assert type(as_dict) is dict
            assert type(as_dict["statistics"]["SDOC"]) is dict
            assert list(as_dict["statistics"]["SDOC"]) == digest_keys
            assert as_dict == {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in response.value.items()
            }
        assert isinstance(query.value["output"], tuple)
        assert query.to_dict()["value"]["output"] == list(query.value["output"])
        assert write.value["rows"] == 1 and journal[0]["rows"] == 1
        json.dumps([query.to_dict(), write.to_dict()])

    def test_quota_exhaustion_rejects_next_advise_request(self):
        db = small_database()

        async def scenario():
            server = AdvisorServer(
                db, default_policy=TenantPolicy(search_call_quota=1)
            )
            async with server:
                first = await server.whatif(
                    QUERY_TEXTS, ["/Security/Symbol"], "SDOC"
                )
                second = await server.whatif(
                    QUERY_TEXTS, ["/Security/Symbol"], "SDOC"
                )
                third = await server.recommend(QUERY_TEXTS, BUDGET)
                return first, second, third, server.admission.stats()

        first, second, third, tenants = run(scenario())
        assert first.ok  # admitted while quota remained...
        for response in (second, third):  # ...its charge exhausted the pool
            assert not response.ok
            assert response.code == "rejected"
            assert "quota" in response.error
        assert tenants["default"]["quota_remaining"] == 0

    def test_serial_order_places_reads_at_watermarks(self):
        db = small_database()
        schedule = [
            {"kind": "query", "text": QUERY_TEXTS[0]},
            {
                "kind": "dml",
                "text": "insert into SDOC value "
                "'<Security><Symbol>W1</Symbol></Security>'",
            },
            {"kind": "query", "text": QUERY_TEXTS[1]},
        ]

        async def scenario():
            async with AdvisorServer(db) as server:
                return await server.run_schedule(schedule, clients=1)

        responses = run(scenario())
        assert [r.ok for r in responses] == [True, True, True]
        assert serial_order(responses) == [0, 1, 2]
        assert responses[0].seq == 0  # read before the write committed
        assert responses[2].seq == 1  # read after it


# ---------------------------------------------------------------------------
# Portfolio modes
# ---------------------------------------------------------------------------

class TestPortfolio:
    def test_tournament_beats_every_standalone_strategy(self):
        from repro.core.advisor import IndexAdvisor
        from repro.optimizer.session import WhatIfSession

        winner = run_portfolio(
            small_database(),
            Workload(SMALL_WORKLOAD.entries),
            BUDGET,
            mode="tournament",
        )
        for algorithm in ("greedy", "greedy_heuristics", "ilp"):
            db = small_database()
            standalone = IndexAdvisor(
                db,
                Workload(SMALL_WORKLOAD.entries),
                session=WhatIfSession(db),
            ).recommend(BUDGET, algorithm=algorithm)
            assert (
                winner.search.benefit
                >= standalone.search.benefit - 1e-9
            )
        assert winner.search.size_bytes <= BUDGET
        assert winner.portfolio_stats["winner"]

    def test_retry_mode_stops_at_first_clean_success(self):
        winner = run_portfolio(
            small_database(),
            Workload(SMALL_WORKLOAD.entries),
            BUDGET,
            mode="retry",
        )
        # the first untruncated success ended the ladder: fault-free that
        # is greedy alone; only lanes a serve.portfolio fault took down
        # ran before it
        strategies = winner.portfolio_stats["strategies"]
        assert [s["label"] for s in strategies] == [
            "greedy", "greedy_heuristics", "ilp"
        ][: len(strategies)]
        assert all("error" in s for s in strategies[:-1])
        assert not strategies[-1]["truncated"]

    def test_evolutionary_population_is_seed_deterministic(self):
        first = perturbed_specs(("greedy", "ilp"), seed=3, generation=1,
                                population=4)
        again = perturbed_specs(("greedy", "ilp"), seed=3, generation=1,
                                population=4)
        other = perturbed_specs(("greedy", "ilp"), seed=4, generation=1,
                                population=4)
        assert first == again
        assert first != other
        for spec in first:
            assert 0.05 <= spec.beta <= 0.25
            assert 0.85 <= spec.budget_fraction <= 1.0

    def test_evolutionary_result_at_least_base_strategies(self):
        winner = run_portfolio(
            small_database(),
            Workload(SMALL_WORKLOAD.entries),
            BUDGET,
            mode="evolutionary",
            seed=11,
            generations=2,
        )
        strategies = winner.portfolio_stats["strategies"]
        base = [s for s in strategies if s["generation"] == 0]
        assert len(base) == 3
        assert all(
            winner.search.benefit >= s["benefit"] - 1e-9
            for s in strategies
            if "benefit" in s
        )
        assert winner.search.size_bytes <= BUDGET

    def test_rejects_unknown_mode_and_strategy(self):
        workload = Workload(SMALL_WORKLOAD.entries)
        with pytest.raises(ValueError, match="portfolio mode"):
            run_portfolio(small_database(), workload, BUDGET, mode="best")
        with pytest.raises(ValueError, match="strategy"):
            run_portfolio(
                small_database(), workload, BUDGET,
                strategies=("greedy", "quantum"),
            )

    def test_ddl_matches_a_standalone_run(self):
        """Concurrent lanes must not leak racy catalog names into the
        winner's DDL: it is re-derived as if its search ran alone."""
        from repro.core.advisor import IndexAdvisor
        from repro.optimizer.session import WhatIfSession

        winner = run_portfolio(
            small_database(),
            Workload(SMALL_WORKLOAD.entries),
            BUDGET,
            mode="tournament",
        )
        algorithm = winner.search.algorithm
        db = small_database()
        standalone = IndexAdvisor(
            db,
            Workload(SMALL_WORKLOAD.entries),
            session=WhatIfSession(db),
        ).recommend(BUDGET, algorithm=algorithm)
        assert winner.ddl == standalone.ddl


# ---------------------------------------------------------------------------
# The ConfigError bugfix (satellite): junk env inside a request task
# ---------------------------------------------------------------------------

class TestConfigErrorPropagation:
    def test_portfolio_raises_config_error_when_all_lanes_hit_it(
        self, monkeypatch
    ):
        import repro.serve.portfolio as portfolio_module

        def doomed_lane(advisor, spec, *args, **kwargs):
            return portfolio_module.VariantOutcome(
                spec,
                error="invalid REPRO_DEADLINE value 'lots'",
                error_type="ConfigError",
            )

        monkeypatch.setattr(portfolio_module, "_run_variant", doomed_lane)
        with pytest.raises(ConfigError):
            run_portfolio(
                small_database(),
                Workload(SMALL_WORKLOAD.entries),
                BUDGET,
                mode="retry",
            )


class TestInlineExecution:
    """Every served request runs inline on the event loop: the server
    has no lanes and starts no thread of its own."""

    def test_lanes_argument_is_gone(self):
        with pytest.raises(TypeError):
            AdvisorServer(small_database(), lanes=2)

    def test_cli_lanes_flag_is_unrecognized(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["server", str(tmp_path / "db"), "--workload",
                  str(tmp_path / "wl.xq"), "--lanes", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --lanes" in capsys.readouterr().err

    def test_every_endpoint_runs_on_the_event_loop_thread(self):
        import threading

        db = small_database()

        async def scenario():
            before = set(threading.enumerate())
            async with AdvisorServer(db) as server:
                responses = [
                    await server.query(QUERY_TEXTS[0]),
                    await server.dml(
                        "insert into SDOC value "
                        "'<Security><Symbol>NEW</Symbol></Security>'"
                    ),
                    await server.whatif(
                        QUERY_TEXTS, ["/Security/Symbol"], "SDOC"
                    ),
                    await server.recommend(QUERY_TEXTS, BUDGET),
                ]
                during = set(threading.enumerate())
            return before, during, responses

        before, during, responses = run(scenario())
        assert all(r.ok for r in responses), [r.to_dict() for r in responses]
        assert during == before


def test_normalized_recommendation_strips_wall_clock():
    winner = run_portfolio(
        small_database(),
        Workload(SMALL_WORKLOAD.entries),
        BUDGET,
        mode="tournament",
    )
    data = normalized_recommendation(winner)
    assert "elapsed_seconds" not in data
    assert "phase_seconds" not in data["session"]
    assert all(
        "elapsed_seconds" not in s for s in data["portfolio"]["strategies"]
    )
    json.dumps(data)
