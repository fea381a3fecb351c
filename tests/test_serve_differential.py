"""Differential tests (PR 9 satellite): every concurrent schedule the
server commits must be **bit-identical** to its own serial replay.

The server stamps each response with a commit watermark
(``Response.seq``): writes get their global commit sequence, reads the
number of writes committed before them.  ``serial_order()``
turns a concurrent run into a serial script -- writes in commit order,
each read at its watermark -- and replaying that script one client at a
time on an identically-built database must reproduce every response's
``comparable()`` projection exactly, plus the commit journal, storage
counters and collection epochs.  Any torn read that leaked into a
response, any write ordering the journal misstates, any read-path side
effect on shared statistics would all break the equality.

The recommend half: a ``recommend`` through the server must be at least
as good as the greedy strategies run standalone on the same database.
"""

import asyncio
import random

import pytest

from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.serve import AdvisorServer
from repro.serve.server import serial_order
from repro.workloads import tpox
from tests.fault_projection import FAULT_COUNTERS

TIMEOUT = 180
BUDGET = 50_000


def small_database():
    return tpox.build_database(
        num_securities=12, num_orders=12, num_customers=6, seed=7
    )


SMALL_WORKLOAD = tpox.tpox_workload(num_securities=12, seed=7).subset(6)
QUERY_TEXTS = [e.statement.describe() for e in SMALL_WORKLOAD.entries]


def security(symbol: str) -> str:
    return (
        f"<Security><Symbol>{symbol}</Symbol>"
        f"<SecurityInformation><Sector>Energy</Sector>"
        f"</SecurityInformation></Security>"
    )


def mixed_schedule(writes: int = 3, with_advise: bool = False):
    """Interleave every workload query with inserts and one delete (and
    optionally advise-class requests), so reads race writers."""
    schedule = []
    for index, text in enumerate(QUERY_TEXTS):
        schedule.append({"kind": "query", "text": text})
        if index < writes:
            schedule.append(
                {
                    "kind": "dml",
                    "text": "insert into SDOC value "
                    f"'{security(f'NEW{index}')}'",
                }
            )
    if with_advise:
        schedule.append(
            {
                "kind": "whatif",
                "statements": QUERY_TEXTS,
                "patterns": ["/Security/Symbol"],
                "collection": "SDOC",
            }
        )
        schedule.append(
            {
                "kind": "recommend",
                "statements": QUERY_TEXTS,
                "budget_bytes": BUDGET,
            }
        )
    schedule.append(
        {
            "kind": "dml",
            "text": 'delete from SDOC where /Security/Symbol = "NEW0"',
        }
    )
    return schedule


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


async def concurrent_run(schedule, *, seed=None):
    """Run ``schedule`` as one client task per request.  Requests are
    atomic, so the tasks' arrival order is the only freedom a schedule
    has: a seeded shuffle when ``seed`` is given, the schedule's order
    otherwise."""
    arrival = list(range(len(schedule)))
    if seed is not None:
        random.Random(seed).shuffle(arrival)
    return await gathered_run(schedule, arrival)


async def gathered_run(schedule, arrival):
    """One client task per request of ``schedule``, created in
    ``arrival`` order and run under ``asyncio.gather``; the responses
    parallel ``schedule``."""
    server = AdvisorServer(small_database())
    async with server:
        served = await asyncio.gather(
            *(server.dispatch(schedule[index]) for index in arrival)
        )
    responses = [None] * len(schedule)
    for index, response in zip(arrival, served):
        responses[index] = response
    return server, responses


async def serial_run(requests):
    database = small_database()
    server = AdvisorServer(database)
    async with server:
        responses = await server.run_schedule(requests)
    return server, responses


def fault_touched(response) -> bool:
    """True when a fault changed what a recommend advises: it read a
    fallback estimate or its ILP attempt was faulted and the greedy
    attempt answered (both flagged ``degraded``)."""
    if response.kind != "recommend" or not response.ok:
        return False
    return response.value["degraded"]


def comparable(response):
    """``Response.comparable()`` minus the session's fault counters (a
    concurrent run and its replay draw different faults from the
    process-wide schedule)."""
    data = response.comparable()
    if response.kind == "recommend" and response.ok:
        for name in FAULT_COUNTERS:
            data["value"]["session"].pop(name, None)
    return data


def assert_same_response(response, twin, message):
    """Bit-for-bit equality -- except that a recommend a fault touched on
    either side is compared on its envelope (kind, ok, code, epoch, seq)
    only: the two sides drew different faults, so neither advice is
    wrong."""
    mine, theirs = comparable(response), comparable(twin)
    if fault_touched(response) or fault_touched(twin):
        mine.pop("value")
        theirs.pop("value")
    assert mine == theirs, message


def assert_serially_equivalent(schedule, server, responses):
    """The differential contract: replay serially, compare bit-for-bit.
    No response may fail, under a fault schedule too."""
    assert all(response.ok for response in responses), [
        (response.kind, response.code, response.error)
        for response in responses
        if not response.ok
    ]
    order = serial_order(responses)
    assert sorted(order) == list(range(len(schedule)))
    replay_server, replayed = run(
        serial_run([schedule[index] for index in order])
    )
    for position, index in enumerate(order):
        assert_same_response(
            responses[index],
            replayed[position],
            f"response {index} diverged from its serial replay",
        )
    assert server.journal == replay_server.journal
    assert (
        server.database.storage_stats()
        == replay_server.database.storage_stats()
    )
    assert dict(server.database.collection_epochs) == dict(
        replay_server.database.collection_epochs
    )
    return replay_server, replayed


class TestSerialEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_adversarial_schedules_replay_bit_identical(self, seed):
        schedule = mixed_schedule()
        server, responses = run(concurrent_run(schedule, seed=seed))
        assert_serially_equivalent(schedule, server, responses)
        # every write committed once, whatever order the tasks arrived in
        assert len(server.journal) == 4

    def test_free_running_clients_replay_bit_identical(self):
        schedule = mixed_schedule(writes=4)
        server, responses = run(concurrent_run(schedule))
        assert_serially_equivalent(schedule, server, responses)

    def test_advise_requests_replay_bit_identical(self):
        schedule = mixed_schedule(writes=2, with_advise=True)
        server, responses = run(concurrent_run(schedule, seed=13))
        assert_serially_equivalent(schedule, server, responses)

    def test_watermarks_pin_what_each_read_saw(self):
        """A read's statistics fingerprint must equal the fingerprint of
        a fresh database with exactly ``seq`` writes applied -- the
        watermark is not just an ordering hint, it *names the state*."""
        schedule = mixed_schedule()
        server, responses = run(concurrent_run(schedule, seed=3))
        journal = server.journal
        for response in responses:
            if response.kind != "query":
                continue
            prefix = [
                {"kind": "dml", "text": entry["text"]}
                for entry in journal[: response.seq]
            ]
            replay_server, _ = run(serial_run(prefix))
            fingerprint = replay_server._stats_fingerprint(
                response.value["statistics"].keys()
            )
            assert response.value["statistics"] == fingerprint


class TestRecommendDominance:
    def test_served_recommend_at_least_every_greedy_strategy(self):
        async def scenario():
            async with AdvisorServer(small_database()) as server:
                return await server.recommend(QUERY_TEXTS, BUDGET)

        response = run(scenario())
        assert response.ok
        served_benefit = response.value["benefit"]
        for algorithm in ("greedy", "greedy_heuristics"):
            database = small_database()
            standalone = IndexAdvisor(
                database,
                Workload(SMALL_WORKLOAD.entries),
                session=WhatIfSession(database),
            ).recommend(BUDGET, algorithm=algorithm)
            if standalone.degraded or fault_touched(response):
                # a fault schedule drew a fallback or an attempt fault on
                # one side only: the two searches answered different
                # inputs
                continue
            assert (
                served_benefit >= standalone.search.benefit - 1e-9
            ), f"served recommend lost to standalone {algorithm}"

    def test_recommend_is_schedule_invariant(self):
        """The same recommend request returns the identical normalized
        value whether it ran alone or raced a full mixed schedule (its
        snapshot came from the same watermark)."""
        request = {
            "kind": "recommend",
            "statements": QUERY_TEXTS,
            "budget_bytes": BUDGET,
        }

        async def alone():
            async with AdvisorServer(small_database()) as server:
                return await server.dispatch(request)

        solo = run(alone())
        assert solo.ok
        schedule = mixed_schedule(writes=0, with_advise=False)
        schedule.pop()  # drop the delete: keep the database unchanged
        schedule.append(request)
        server, responses = run(concurrent_run(schedule, seed=5))
        raced = responses[-1]
        assert raced.ok and raced.seq == 0
        if not (fault_touched(raced) or fault_touched(solo)):
            assert comparable(raced)["value"] == comparable(solo)["value"]
