"""Differential tests (PR 9 satellite): every concurrent schedule the
server commits must be **bit-identical** to its own serial replay.

The server stamps each response with a commit watermark
(``Response.seq``): writes get their global commit sequence, reads the
number of writes committed when they validated.  ``serial_order()``
turns a concurrent run into a serial script -- writes in commit order,
each read at its watermark -- and replaying that script one client at a
time on an identically-built database must reproduce every response's
``comparable()`` projection exactly, plus the commit journal, storage
counters and collection epochs.  Any torn read that leaked into a
response, any write ordering the journal misstates, any read-path side
effect on shared statistics would all break the equality.

The portfolio half of the satellite: a tournament ``recommend`` through
the server must be at least as good as every single strategy run
standalone on the same snapshot.
"""

import asyncio

import pytest

from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.serve import AdvisorServer, SeededScheduler
from repro.serve.server import serial_order
from repro.workloads import tpox

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


async def concurrent_run(schedule, *, seed=None, clients=4, lanes=0):
    """Run ``schedule`` concurrently: adversarially interleaved under a
    :class:`SeededScheduler` when ``seed`` is given, free-running on the
    event loop (optionally with thread lanes) otherwise."""
    database = small_database()
    scheduler = SeededScheduler(seed=seed) if seed is not None else None
    server = AdvisorServer(database, scheduler=scheduler, lanes=lanes)
    async with server:
        if scheduler is not None:
            responses = await scheduler.drive(
                [server.dispatch(request) for request in schedule]
            )
        else:
            responses = await server.run_schedule(schedule, clients=clients)
    return server, responses


async def serial_run(requests):
    database = small_database()
    server = AdvisorServer(database)
    async with server:
        responses = await server.run_schedule(requests, clients=1)
    return server, responses


#: Session counters of the faults a schedule injected: they follow the
#: process-wide fault draws (``REPRO_FAULT_*``), which a concurrent run
#: and its replay make differently, not the serialization order.
FAULT_COUNTERS = ("retries", "degraded_estimates", "degraded_samples")


def fault_touched(response) -> bool:
    """True when a fault changed what a recommend advises: a lane read a
    fallback estimate (flagged ``degraded``) or was itself faulted."""
    if response.kind != "recommend" or not response.ok:
        return False
    value = response.value
    return value["degraded"] or any(
        lane.get("degraded") or "error" in lane
        for lane in value["portfolio"]["strategies"]
    )


def comparable(response):
    """``Response.comparable()`` minus the session's fault counters."""
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
        # the schedule exercised real contention, not a serial accident
        assert server.gate.stats()["writes_gated"] == 4

    def test_free_running_clients_replay_bit_identical(self):
        schedule = mixed_schedule(writes=4)
        server, responses = run(concurrent_run(schedule, clients=4))
        assert_serially_equivalent(schedule, server, responses)

    def test_thread_lane_mode_replays_bit_identical(self):
        schedule = mixed_schedule(writes=4)
        server, responses = run(
            concurrent_run(schedule, clients=4, lanes=2)
        )
        assert_serially_equivalent(schedule, server, responses)

    def test_thread_lanes_share_snapshot_parts_under_concurrent_dml(self):
        """A few hundred requests through two thread lanes with the
        default tournament: advise requests read the store's shared
        parts while DML supersedes them.  No response may fail, the run
        must replay serially, and each advise request composes exactly
        one snapshot (its portfolio lanes share it)."""
        schedule = []
        for index in range(240):
            schedule.append(
                {"kind": "query", "text": QUERY_TEXTS[index % len(QUERY_TEXTS)]}
            )
            if index % 4 == 0:
                schedule.append(
                    {
                        "kind": "dml",
                        "text": "insert into SDOC value "
                        f"'{security(f'LANE{index}')}'",
                    }
                )
            if index % 40 == 20:
                schedule.append(
                    {
                        "kind": "whatif",
                        "statements": QUERY_TEXTS,
                        "patterns": ["/Security/Symbol"],
                        "collection": "SDOC",
                    }
                )
            if index % 80 == 40:
                schedule.append(
                    {
                        "kind": "recommend",
                        "statements": QUERY_TEXTS,
                        "budget_bytes": BUDGET,
                    }
                )
        server, responses = run(
            concurrent_run(schedule, clients=4, lanes=2)
        )
        assert server.mode == "tournament"
        assert_serially_equivalent(schedule, server, responses)
        snapshots = server.snapshots.stats()
        assert snapshots["generations"] == len(server.database.collections)
        advise_requests = sum(
            1 for request in schedule if request["kind"] in ("whatif", "recommend")
        )
        # one composition per advise request, plus one per torn retry a
        # real thread overlap may force on its snapshot read
        retries = server.counters.get("read_retries", 0)
        assert (
            advise_requests
            <= snapshots["compositions"]
            <= advise_requests + retries
        )
        assert snapshots["serializations"] == 0

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


class TestPortfolioDominance:
    def test_tournament_at_least_every_single_strategy(self):
        async def scenario():
            async with AdvisorServer(
                small_database(), mode="tournament"
            ) as server:
                return await server.recommend(QUERY_TEXTS, BUDGET)

        response = run(scenario())
        assert response.ok
        tournament_benefit = response.value["benefit"]
        lanes = {
            s["algorithm"]: s
            for s in response.value["portfolio"]["strategies"]
        }
        for algorithm in ("greedy", "greedy_heuristics", "ilp"):
            database = small_database()
            standalone = IndexAdvisor(
                database,
                Workload(SMALL_WORKLOAD.entries),
                session=WhatIfSession(database),
            ).recommend(BUDGET, algorithm=algorithm)
            lane = lanes[algorithm]
            if standalone.degraded or lane.get("degraded") or "error" in lane:
                # a fault schedule drew a fallback or a lane fault on one
                # side only: the two searches answered different inputs
                continue
            assert (
                tournament_benefit >= standalone.search.benefit - 1e-9
            ), f"tournament lost to standalone {algorithm}"
            # each lane reproduced its standalone twin exactly: the
            # server's snapshot discipline kept lanes unperturbed
            assert lanes[algorithm]["benefit"] == pytest.approx(
                standalone.search.benefit
            )

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
