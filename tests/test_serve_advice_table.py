"""The server's advice table: a repeated advise request at an unchanged
collection state is answered from the table.

An advise answer is a function of the request and of the state it is
computed at: each touched collection's ``(epoch, statistics stamp)``.
The server holds the last *complete* answer per request key at that
state and serves it again without an advisor, an optimizer call or a
search:

* **parity** -- a hit equals a fresh ``IndexAdvisor.recommend(algorithm=
  "ilp")`` / a fresh ``analyze`` on a copy of the database, DDL
  included;
* **invalidation** -- a write or an index build on a touched collection
  recomputes (and equals a fresh advisor on the new state); one on an
  untouched collection keeps the hit;
* **completeness** -- a truncated, degraded or fallback answer is never
  held, so a deadline, a quota or a fault is never replayed;
* **metering and bounds** -- a hit charges its tenant nothing, and the
  table resets with the statement table at ``STATEMENT_TABLE_LIMIT``.
"""

import asyncio
import pickle

import pytest

import repro.core.whatif as whatif_module
import repro.serve.server as server_module
from repro.core.advisor import IndexAdvisor
from repro.core.whatif import analyze, configuration_from_specs
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.robustness.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    injected,
)
from repro.serve import AdvisorServer, TenantPolicy
from repro.serve.server import normalized_recommendation
from repro.storage import IndexDefinition, IndexValueType
from repro.xpath import parse_pattern
from tests.test_serve_server import (
    BUDGET,
    NEW_SECURITY,
    QUERY_TEXTS,
    mixed_small_database,
    small_database,
)

PATTERNS = ["/Security/Symbol", "/Security/Yield:numeric"]
NEW_ITEM = "insert into IDOC value '<item><name>new</name></item>'"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


def copy_of(database):
    return pickle.loads(pickle.dumps(database))


def fresh_recommendation(database, texts=QUERY_TEXTS, budget=BUDGET):
    """A fresh ILP advisor on a copy of ``database``, in the served
    value's shape: ``(value, optimizer calls it made)``."""
    copy = copy_of(database)
    advisor = IndexAdvisor(
        copy,
        Workload.from_statements(texts),
        session=WhatIfSession(copy),
    )
    recommendation = advisor.recommend(budget, algorithm="ilp")
    return (
        normalized_recommendation(recommendation),
        advisor.session.counters.optimizer_calls,
    )


def assert_fresh_recommend(value, database):
    expected, calls = fresh_recommendation(database)
    served = dict(value)
    assert served.pop("portfolio") == {"optimizer_calls_total": calls}
    assert served == expected


def assert_fresh_whatif(value, database):
    copy = copy_of(database)
    report = analyze(
        copy,
        Workload.from_statements(QUERY_TEXTS),
        configuration_from_specs(PATTERNS, "SDOC"),
        session=WhatIfSession(copy),
    )
    assert value["total_benefit"] == report.total_benefit
    assert value["unused_indexes"] == report.unused_indexes()
    assert value["impacts"] == [
        {
            "statement": impact.statement_text,
            "frequency": impact.frequency,
            "cost_before": impact.cost_before,
            "cost_after": impact.cost_after,
            "used_indexes": list(impact.used_indexes),
        }
        for impact in report.impacts
    ]


def hits(server):
    return server.counters.get("advice_hits", 0)


@pytest.fixture
def searches(monkeypatch):
    """Counts the server's ``run_portfolio`` and ``analyze`` calls: the
    work an advise miss does and a hit does not."""
    calls = {"recommend": 0, "whatif": 0}

    def counted(kind, function):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        server_module, "run_portfolio",
        counted("recommend", server_module.run_portfolio),
    )
    monkeypatch.setattr(
        whatif_module, "analyze", counted("whatif", whatif_module.analyze)
    )
    return calls


async def advise_both(server):
    return (
        await server.recommend(QUERY_TEXTS, BUDGET),
        await server.whatif(QUERY_TEXTS, PATTERNS, "SDOC"),
    )


def test_a_repeat_is_a_hit_equal_to_a_fresh_advisor(searches, fault_free):
    database = small_database()

    async def scenario():
        async with AdvisorServer(database) as server:
            first = await advise_both(server)
            cold = (hits(server), dict(searches))
            second = await advise_both(server)
            return first, second, cold, server

    first, second, cold, server = run(scenario())
    assert all(response.ok for response in first + second)
    assert cold == (0, {"recommend": 1, "whatif": 1})
    assert hits(server) == 2
    assert searches == {"recommend": 1, "whatif": 1}  # the hits took none
    for before, after in zip(first, second):
        assert after.value is before.value
        assert after.epoch == before.epoch and after.seq == before.seq
    assert second[0].value["ddl"]
    assert_fresh_recommend(second[0].value, database)
    assert_fresh_whatif(second[1].value, database)
    table = server.stats()["statement_table"]
    assert table["advice"] == 2 and table["values"] == 2


def test_a_write_to_a_touched_collection_recomputes(searches, fault_free):
    database = small_database()

    async def scenario():
        async with AdvisorServer(database) as server:
            before = await advise_both(server)
            write = await server.dml(NEW_SECURITY)
            after = await advise_both(server)
            return before, write, after, server

    before, write, after, server = run(scenario())
    assert write.ok and all(r.ok for r in before + after)
    assert hits(server) == 0
    assert searches == {"recommend": 2, "whatif": 2}
    assert after[0].epoch != before[0].epoch
    assert after[1].value["statistics"] != before[1].value["statistics"]
    assert_fresh_recommend(after[0].value, database)
    assert_fresh_whatif(after[1].value, database)


def test_a_write_to_an_untouched_collection_keeps_the_hit(fault_free):
    """The held answer computed before the write equals a fresh advisor
    after it: the served value leaves out the session's database-wide
    counters (``generation``, ``storage``) that the write moved."""
    database = mixed_small_database()

    async def scenario():
        async with AdvisorServer(database) as server:
            before = await advise_both(server)
            write = await server.dml(NEW_ITEM)
            after = await advise_both(server)
            return before, write, after, server

    before, write, after, server = run(scenario())
    assert write.ok and all(r.ok for r in before + after)
    assert hits(server) == 2
    for old, new in zip(before, after):
        assert new.value is old.value
        assert new.seq == old.seq + 1  # served after the write committed
    served = dict(after[0].value)
    served.pop("portfolio")
    fresh, _ = fresh_recommendation(database)
    assert served == fresh
    assert_fresh_whatif(after[1].value, database)


def test_only_an_index_on_a_touched_collection_recomputes(fault_free):
    """A recommendation names its DDL's indexes itself, so the catalog
    is no part of the held state: an index built on a collection the
    request reads recomputes the answer, and one built on a collection
    it does not read keeps the hit."""
    database = mixed_small_database()

    async def scenario():
        async with AdvisorServer(database) as server:
            first = await server.recommend(QUERY_TEXTS, BUDGET)
            database.create_index(
                IndexDefinition(
                    "untouched", "IDOC", parse_pattern("/item/name"),
                    IndexValueType.STRING,
                )
            )
            kept = await server.recommend(QUERY_TEXTS, BUDGET)
            database.create_index(
                IndexDefinition(
                    "touched", "SDOC", parse_pattern("/Security/Symbol"),
                    IndexValueType.STRING,
                )
            )
            recomputed = await server.recommend(QUERY_TEXTS, BUDGET)
            return first, kept, recomputed, server

    first, kept, recomputed, server = run(scenario())
    assert all(r.ok for r in (first, kept, recomputed))
    assert kept.value is first.value
    assert hits(server) == 1
    assert recomputed.value != first.value
    assert recomputed.value["ddl"][0].split()[2] == "xmlidx_1"
    assert_fresh_recommend(recomputed.value, database)


def test_an_expired_recommend_is_not_held(fault_free):
    database = small_database()

    async def scenario():
        async with AdvisorServer(database) as server:
            expired = await server.recommend(
                QUERY_TEXTS, BUDGET, deadline_seconds=1e-9
            )
            held = server.stats()["statement_table"]["advice"]
            complete = await server.recommend(QUERY_TEXTS, BUDGET)
            again = await server.recommend(
                QUERY_TEXTS, BUDGET, deadline_seconds=1e-9
            )
            return expired, held, complete, again, server

    expired, held, complete, again, server = run(scenario())
    assert expired.ok and expired.value["truncated"]
    assert held == 0
    assert complete.ok and not complete.value["truncated"]
    assert complete.value["algorithm"] == "ilp"
    assert_fresh_recommend(complete.value, database)
    # the complete answer is the answer at this state, deadline or not
    assert again.value is complete.value and hits(server) == 1


def test_degraded_and_fallback_answers_are_not_held():
    database = small_database()
    every_attempt = FaultRule("optimizer.evaluate", at={0, 1, 2})
    ilp_attempt = FaultRule(
        "advise.attempt", at={0},
        exception=lambda site, index: InjectedFault(site, 0),
    )

    async def scenario():
        async with AdvisorServer(database) as server:
            degraded = []
            for endpoint in (server.recommend, server.whatif):
                with injected(FaultInjector([every_attempt], seed=1)):
                    degraded.append(
                        await endpoint(QUERY_TEXTS, BUDGET)
                        if endpoint == server.recommend
                        else await endpoint(QUERY_TEXTS, PATTERNS, "SDOC")
                    )
            with injected(FaultInjector([ilp_attempt], seed=1)):
                fallback = await server.recommend(QUERY_TEXTS, BUDGET)
            held = server.stats()["statement_table"]["advice"]
            with injected(FaultInjector([])):
                clean = await advise_both(server)
            return degraded, fallback, held, clean, server

    degraded, fallback, held, clean, server = run(scenario())
    assert all(r.ok for r in degraded + list(clean) + [fallback])
    assert degraded[0].value["degraded"]
    assert fallback.value["algorithm"] == "greedy_heuristics"
    assert held == 0
    assert hits(server) == 0
    assert not clean[0].value["degraded"]
    with injected(FaultInjector([])):
        assert_fresh_recommend(clean[0].value, database)
        assert_fresh_whatif(clean[1].value, database)


def test_a_hit_charges_its_tenant_nothing(fault_free):
    policy = TenantPolicy(search_call_quota=1_000_000)

    async def scenario():
        async with AdvisorServer(small_database(), tenants={"t": policy}) as server:
            charged = []
            for _ in range(2):
                await server.recommend(QUERY_TEXTS, BUDGET, tenant="t")
                await server.whatif(QUERY_TEXTS, PATTERNS, "SDOC", tenant="t")
                charged.append(server.admission.stats()["t"]["calls_charged"])
            return charged, server

    (cold, warm), server = run(scenario())
    assert cold > 0
    assert warm == cold
    assert hits(server) == 2


def test_the_table_resets_with_the_statement_table(
    monkeypatch, searches, fault_free
):
    monkeypatch.setattr(server_module, "STATEMENT_TABLE_LIMIT", 4)
    texts = QUERY_TEXTS[:2]
    others = [
        "for $s in X('SDOC')/Security where $s/Yield > "
        f"{number} return $s/Symbol"
        for number in range(3)
    ]

    async def scenario():
        async with AdvisorServer(small_database()) as server:
            first = await server.recommend(texts, BUDGET)
            held = server.stats()["statement_table"]["advice"]
            for text in others:
                assert (await server.query(text)).ok
            after_reset = server.stats()
            again = await server.recommend(texts, BUDGET)
            return first, held, after_reset, again, server

    first, held, after_reset, again, server = run(scenario())
    assert first.ok and again.ok
    assert held == 1
    assert after_reset["counters"]["statement_table_resets"] == 1
    assert after_reset["statement_table"]["advice"] == 0
    assert hits(server) == 0
    assert again.value == first.value
    assert searches["recommend"] == 2
