"""Unit tests of the serving front end: the epoch gate, tenant
admission, typed responses, the served recommend, and typed
configuration errors (a ``config`` response / CLI exit 2, never a bare
traceback)."""

import asyncio
import contextlib
import json

import pytest

from repro.query.workload import Workload
from repro.robustness.errors import AdmissionRejected, ConfigError
from repro.robustness.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    injected,
)
from repro.serve import (
    AdvisorServer,
    AdmissionController,
    TenantPolicy,
    run_portfolio,
)
from repro.serve.requests import Response
from repro.serve.server import normalized_recommendation, serial_order
from repro.storage import IndexDefinition, IndexValueType
from repro.storage.database import EpochGate
from repro.workloads import tpox
from repro.xpath import parse_pattern
from tests.test_snapshot_store import canonical_dumps

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

#: One request batch per kind for the purity test; the advise kinds are
#: misses (a fresh server holds no answer).
PURITY_REQUESTS = {
    "query": lambda server: [server.query(text) for text in QUERY_TEXTS],
    "whatif": lambda server: [
        server.whatif(
            QUERY_TEXTS, ["/Security/Symbol", "/Security/Yield:numeric"],
            "SDOC",
        )
    ],
    "whatif-degraded": lambda server: [
        server.whatif(
            QUERY_TEXTS, ["/Security/Symbol", "/Security/Yield:numeric"],
            "SDOC",
        )
    ],
    "recommend": lambda server: [server.recommend(QUERY_TEXTS, BUDGET)],
    "recommend-fallback": lambda server: [
        server.recommend(QUERY_TEXTS, BUDGET)
    ],
    "recommend-truncated": lambda server: [
        server.recommend(QUERY_TEXTS, BUDGET, deadline_seconds=1e-6)
    ],
}

#: The fault schedule a purity kind runs under: the recommend's ILP
#: attempt faults once, or every what-if optimizer call faults.  The
#: other kinds run under whatever schedule the environment sets.
PURITY_FAULTS = {
    "whatif-degraded": [FaultRule("optimizer.evaluate")],
    "recommend-fallback": [
        FaultRule(
            "advise.attempt", at={0},
            exception=lambda site, index: InjectedFault(site, 0),
        )
    ],
}


def purity_faults(kind):
    rules = PURITY_FAULTS.get(kind)
    if rules is None:
        return contextlib.nullcontext()
    return injected(FaultInjector(rules))


def database_state(db):
    """Everything a request must leave as it found it."""
    return (
        db.storage_stats(),
        dict(db.collection_epochs),
        db.modification_count,
        db.catalog.all_definitions(),
        dict(db.indexes),
    )


class TestEndpoints:
    @pytest.mark.parametrize("kind", sorted(PURITY_REQUESTS))
    def test_query_roundtrip_and_read_purity(self, kind):
        """Reads and advise misses run on the live database and change
        none of its counters, epochs, catalog or built indexes -- also
        when the recommend's ILP attempt faults and the fallback
        answers, when every what-if call faults, and when the deadline
        truncates the search."""
        db = small_database()
        db.create_index(
            IndexDefinition(
                "built", "SDOC", parse_pattern("/Security/Symbol"),
                IndexValueType.STRING,
            )
        )

        async def scenario():
            async with AdvisorServer(db) as server:
                before = database_state(db)
                with purity_faults(kind):
                    responses = [
                        await request for request in PURITY_REQUESTS[kind](server)
                    ]
                return before, database_state(db), responses

        before, after, responses = run(scenario())
        assert all(r.ok for r in responses)
        assert before == after
        first = responses[0]
        assert first.epoch is not None and first.seq == 0
        if kind == "recommend-fallback":
            assert first.value["algorithm"] == "greedy_heuristics"
            assert first.value["degraded"]
        elif kind == "recommend-truncated":
            assert first.value["truncated"]
        elif kind != "recommend":
            assert "statistics" in first.value
        json.dumps(first.to_dict())

    @pytest.mark.parametrize("kind", sorted(PURITY_REQUESTS))
    def test_a_request_leaves_the_whole_database_graph_unchanged(self, kind):
        """The whole object graph, not just its counters: after a read or
        an advise miss the database pickles (canonically) to what it did
        before, and the server's snapshot store composed nothing."""
        db = small_database()

        async def scenario():
            async with AdvisorServer(db) as server:
                before = canonical_dumps(db)
                with purity_faults(kind):
                    responses = [
                        await request for request in PURITY_REQUESTS[kind](server)
                    ]
                return server, before, canonical_dumps(db), responses

        server, before, after, responses = run(scenario())
        assert all(r.ok for r in responses)
        assert before == after
        assert server.snapshots.stats() == {"compositions": 0}

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
            "elapsed_seconds": 0.5,
        }
        assert list(response.to_dict()) == list(Response.__slots__)
        assert list(response.comparable()) == [
            name
            for name in Response.__slots__
            if name != "elapsed_seconds"
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

    def test_recommend_is_an_ilp_search_with_its_call_total(
        self, fault_free
    ):
        db = small_database()

        async def scenario():
            async with AdvisorServer(db) as server:
                return await server.recommend(QUERY_TEXTS, BUDGET)

        response = run(scenario())
        assert response.ok
        assert response.value["algorithm"] == "ilp"
        assert response.value["portfolio"] == {
            "optimizer_calls_total": response.value["session"][
                "optimizer_calls"
            ]
        }
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
                return await server.run_schedule(schedule)

        responses = run(scenario())
        assert [r.ok for r in responses] == [True, True, True]
        assert serial_order(responses) == [0, 1, 2]
        assert responses[0].seq == 0  # read before the write committed
        assert responses[2].seq == 1  # read after it


# ---------------------------------------------------------------------------
# Statement table: parse each text and plan each statement once per server
# ---------------------------------------------------------------------------

SDOC_QUERY = QUERY_TEXTS[0]  # where $sec/Symbol = "..." return $sec
NEW_SECURITY = (
    "insert into SDOC value '<Security><Symbol>NEW</Symbol></Security>'"
)


def mixed_small_database():
    """TPoX and XMark collections in one mutable database."""
    from repro.workloads import xmark
    from repro.xmlmodel.serializer import serialize

    database = small_database()
    others = xmark.build_database(
        num_items=10, num_persons=10, num_auctions=10, seed=7
    )
    for name, collection in others.collections.items():
        database.create_collection(name)
        for document in collection:
            database.insert_document(name, serialize(document.root))
    return database


def xmark_query_text():
    from repro.workloads import xmark

    return next(
        entry.statement.describe()
        for entry in xmark.xmark_workload(seed=7).entries
        if getattr(entry.statement, "collection", None) == "IDOC"
    )


def symbol_index(database):
    from repro.storage import IndexDefinition, IndexValueType
    from repro.xpath import parse_pattern

    database.create_index(
        IndexDefinition(
            "ix_symbol", "SDOC", parse_pattern("/Security/Symbol"),
            IndexValueType.STRING,
        )
    )


class _Spies:
    """Counts the server's ``parse_statement`` calls and records the
    statement of every optimizer call."""

    def __init__(self, monkeypatch) -> None:
        import repro.serve.server as server_module
        from repro.optimizer.optimizer import Optimizer

        self.parses = 0
        self.planned = []
        parse, optimize = server_module.parse_statement, Optimizer.optimize

        def counting_parse(text):
            self.parses += 1
            return parse(text)

        def recording_optimize(optimizer, statement, *args, **kwargs):
            self.planned.append(statement.describe())
            return optimize(optimizer, statement, *args, **kwargs)

        monkeypatch.setattr(server_module, "parse_statement", counting_parse)
        monkeypatch.setattr(Optimizer, "optimize", recording_optimize)

    def reset(self) -> None:
        self.parses = 0
        self.planned.clear()


class TestStatementTable:
    """A server parses each text once and keeps each served query's
    plan until a write moves an epoch the query reads; the table is
    bounded by ``STATEMENT_TABLE_LIMIT``."""

    def test_repeated_query_parses_and_plans_nothing(
        self, monkeypatch, fault_free
    ):
        spies = _Spies(monkeypatch)

        async def scenario():
            async with AdvisorServer(small_database()) as server:
                first = [await server.query(text) for text in QUERY_TEXTS]
                cold = (spies.parses, len(spies.planned))
                spies.reset()
                again = [await server.query(text) for text in QUERY_TEXTS]
                warm = (spies.parses, len(spies.planned))
                spies.reset()
                advise = await server.whatif(
                    QUERY_TEXTS, ["/Security/Symbol"], "SDOC"
                )
                return first, again, cold, warm, spies.parses, advise

        first, again, cold, warm, advise_parses, advise = run(scenario())
        assert cold == (len(QUERY_TEXTS), len(QUERY_TEXTS))
        assert warm == (0, 0)
        assert advise.ok and advise_parses == 0  # served texts are parsed
        for before, after in zip(first, again):
            assert after.ok and after.comparable() == before.comparable()

    def test_write_replans_only_the_collection_it_touched(
        self, monkeypatch, fault_free
    ):
        spies = _Spies(monkeypatch)
        xmark_text = xmark_query_text()

        async def scenario():
            async with AdvisorServer(mixed_small_database()) as server:
                await server.query(SDOC_QUERY)
                await server.query(xmark_text)
                write = await server.dml(NEW_SECURITY)
                spies.reset()
                responses = [
                    await server.query(SDOC_QUERY),
                    await server.query(xmark_text),
                ]
                return write, responses

        write, responses = run(scenario())
        assert write.ok and all(r.ok for r in responses)
        assert spies.planned == [SDOC_QUERY]

    def test_index_created_on_the_live_database_replans(self, fault_free):
        db = small_database()

        async def scenario():
            async with AdvisorServer(db) as server:
                before = await server.query(SDOC_QUERY)
                symbol_index(db)
                after = await server.query(SDOC_QUERY)
                return before, after

        before, after = run(scenario())
        assert before.value["used_indexes"] == ()
        assert after.value["used_indexes"] == ("ix_symbol",)
        assert after.value["rows"] == before.value["rows"]
        assert after.value["output"] == before.value["output"]

    def test_table_stays_bounded_and_answers_stay_correct(self):
        from repro.optimizer import Executor
        from repro.query.parser import parse_statement
        from repro.serve.server import STATEMENT_TABLE_LIMIT

        db = small_database()
        texts = [
            "for $s in X('SDOC')/Security where $s/Yield > "
            f"{number / 100} return $s/Symbol"
            for number in range(STATEMENT_TABLE_LIMIT + 50)
        ]

        async def scenario():
            async with AdvisorServer(db) as server:
                responses = []
                peak = 0
                for text in texts:
                    responses.append(await server.query(text))
                    table = server.stats()["statement_table"]
                    peak = max(peak, table["statements"], table["planned"])
                return responses, peak, server.stats()

        responses, peak, stats = run(scenario())
        assert peak <= STATEMENT_TABLE_LIMIT
        assert stats["statement_table"]["statements"] == 50
        assert stats["statement_table"]["values"] == 50
        assert stats["counters"]["statement_table_resets"] == 1
        for text, response in zip(texts, responses):
            expected = Executor(db).execute(
                parse_statement(text), collect_output=True
            )
            assert response.ok
            assert response.value["rows"] == expected.rows
            assert response.value["output"] == tuple(expected.output)

    def test_equal_answers_share_one_value(self, fault_free):
        async def scenario():
            async with AdvisorServer(small_database()) as server:
                first = await server.query(SDOC_QUERY)
                second = await server.query(SDOC_QUERY)
                await server.dml(NEW_SECURITY)
                third = await server.query(SDOC_QUERY)
                fourth = await server.query(SDOC_QUERY)
            fresh_db = small_database()
            fresh_db.insert_document(
                "SDOC", "<Security><Symbol>NEW</Symbol></Security>"
            )
            async with AdvisorServer(fresh_db) as fresh:
                reference = await fresh.query(SDOC_QUERY)
            return first, second, third, fourth, reference

        first, second, third, fourth, reference = run(scenario())
        assert second.value is first.value
        assert third.value is not first.value  # the statistics moved
        assert third.value["output"] == first.value["output"]
        assert third.value == reference.value
        assert fourth.value is third.value

    def test_equal_advise_answers_share_one_value(self, fault_free):
        async def scenario():
            async with AdvisorServer(small_database()) as server:
                whatifs = [
                    await server.whatif(
                        QUERY_TEXTS, ["/Security/Symbol"], "SDOC"
                    )
                    for _ in range(2)
                ]
                recommends = [
                    await server.recommend(QUERY_TEXTS, BUDGET)
                    for _ in range(2)
                ]
                await server.dml(NEW_SECURITY)
                after = await server.whatif(
                    QUERY_TEXTS, ["/Security/Symbol"], "SDOC"
                )
                return whatifs, recommends, after

        whatifs, recommends, after = run(scenario())
        assert all(r.ok for r in whatifs + recommends + [after])
        assert whatifs[1].value is whatifs[0].value
        assert recommends[1].value is recommends[0].value
        assert after.value is not whatifs[0].value  # the statistics moved
        assert after.value["statistics"] != whatifs[0].value["statistics"]

    def test_held_values_stay_bounded(self, monkeypatch):
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module, "STATEMENT_TABLE_LIMIT", 4)

        async def scenario():
            async with AdvisorServer(small_database()) as server:
                responses = [
                    await server.whatif(
                        QUERY_TEXTS[:2], [f"/Security/Symbol{number}"],
                        "SDOC",
                    )
                    for number in range(10)
                ]
                return responses, server.stats()["statement_table"]

        responses, table = run(scenario())
        assert all(r.ok for r in responses)
        assert table["statements"] == 2
        assert 0 < table["values"] <= 4

    def test_degraded_plan_is_not_kept(self, fault_free):
        from repro.robustness.faults import FaultInjector, FaultRule, injected
        from repro.robustness.policy import RetryPolicy

        db = small_database()
        symbol_index(db)
        past_retries = FaultRule(
            "optimizer.plan", limit=RetryPolicy().max_attempts
        )

        async def scenario():
            async with AdvisorServer(db) as server:
                with injected(FaultInjector([past_retries])) as injector:
                    degraded = await server.query(SDOC_QUERY)
                planned = await server.query(SDOC_QUERY)
                return degraded, planned, injector.total_injected()

        degraded, planned, faults = run(scenario())
        assert faults == RetryPolicy().max_attempts
        assert degraded.ok and planned.ok
        assert degraded.value["used_indexes"] == ()  # a full scan...
        assert degraded.value["docs_examined"] == len(db.collection("SDOC"))
        assert degraded.value["rows"] == planned.value["rows"]  # ...as right
        assert degraded.value["output"] == planned.value["output"]
        assert planned.value["used_indexes"] == ("ix_symbol",)

    def test_read_retry_limit_argument_is_gone(self):
        with pytest.raises(TypeError):
            AdvisorServer(small_database(), read_retry_limit=8)


# ---------------------------------------------------------------------------
# The ConfigError bugfix (satellite): junk env inside a request task
# ---------------------------------------------------------------------------

class TestConfigErrorPropagation:
    def test_portfolio_raises_config_error_when_both_attempts_hit_it(
        self, monkeypatch, fault_free
    ):
        from repro.core.advisor import IndexAdvisor

        attempts = []

        def doomed(self, budget_bytes, algorithm, **knobs):
            attempts.append(algorithm)
            raise ConfigError("invalid REPRO_DEADLINE value 'lots'")

        monkeypatch.setattr(IndexAdvisor, "recommend", doomed)
        with pytest.raises(ConfigError, match="lots"):
            run_portfolio(
                small_database(),
                Workload(SMALL_WORKLOAD.entries),
                BUDGET,
            )
        assert attempts == ["ilp", "greedy_heuristics"]


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
    recommendation = run_portfolio(
        small_database(),
        Workload(SMALL_WORKLOAD.entries),
        BUDGET,
    )
    data = normalized_recommendation(recommendation)
    assert "elapsed_seconds" not in data
    assert "phase_seconds" not in data["session"]
    assert set(data["portfolio"]) == {"optimizer_calls_total"}
    json.dumps(data)


class TestPortfolioKnobsAreGone:
    """The served recommend is one ILP search: the portfolio's modes,
    strategy lists and seeds are no longer options anywhere."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["recommend", "--budget", "1000", "--mode", "retry"],
            ["recommend", "--budget", "1000", "--strategies", "greedy"],
            ["recommend", "--budget", "1000", "--portfolio-seed", "3"],
            ["server", "--mode", "tournament"],
            ["server", "--seed", "3"],
        ],
    )
    def test_cli_flags_are_unrecognized(self, argv, tmp_path, capsys):
        from repro.cli import main

        command, flags = argv[0], argv[1:]
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(tmp_path / "db"), "--workload",
                  str(tmp_path / "wl.xq"), *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_library_keywords_raise_type_error(self):
        workload = Workload(SMALL_WORKLOAD.entries)
        with pytest.raises(TypeError):
            AdvisorServer(small_database(), mode="tournament")
        with pytest.raises(TypeError):
            run_portfolio(small_database(), workload, BUDGET, mode="retry")
        server = AdvisorServer(small_database())
        with pytest.raises(TypeError):
            server.recommend(QUERY_TEXTS, BUDGET, mode="retry")

    def test_serve_no_longer_exports_the_modes(self):
        import repro.serve

        assert not hasattr(repro.serve, "PORTFOLIO_MODES")
        assert "PORTFOLIO_MODES" not in repro.serve.__all__

    def test_stale_request_keys_are_ignored(self, fault_free):
        request = {
            "kind": "recommend",
            "statements": QUERY_TEXTS,
            "budget_bytes": BUDGET,
        }
        stale = {**request, "mode": "evolutionary",
                 "strategies": ["greedy"], "seed": 9}

        async def serve(payload):
            async with AdvisorServer(small_database()) as server:
                return await server.dispatch(payload)

        plain, keyed = run(serve(request)), run(serve(stale))
        assert plain.ok and keyed.ok
        assert keyed.comparable() == plain.comparable()
        assert keyed.value["portfolio"]["optimizer_calls_total"] > 0
