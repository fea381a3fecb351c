"""Property tests: under *any* arrival order of concurrent queries and
DML, the server never serves a torn epoch.

"Never a torn epoch" is checked with the strongest oracle available:
the serial-replay differential.  If a read had returned state from a
half-committed write -- rows from one epoch, statistics from another --
its response could not equal the response of a serial replay at its
watermark, because serial replays only ever see fully-committed states.
Served requests are atomic (tests/test_serve_atomic.py), so the order in
which concurrent client tasks arrive is the only freedom a schedule has.
Hypothesis draws the schedule and that order and runs one task per
request under ``asyncio.gather``, so any counterexample shrinks to a
minimal (schedule, arrival order) pair and replays exactly.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import AdvisorServer
from repro.serve.server import serial_order
from repro.workloads import tpox
from tests.test_serve_differential import gathered_run

TIMEOUT = 120


def small_database():
    return tpox.build_database(
        num_securities=12, num_orders=12, num_customers=6, seed=7
    )


SMALL_WORKLOAD = tpox.tpox_workload(num_securities=12, seed=7).subset(6)
QUERY_TEXTS = [e.statement.describe() for e in SMALL_WORKLOAD.entries]
SYMBOLS = ("PA0", "PA1", "PA2")

#: The op pool schedules draw from.  Deletes of absent symbols are
#: legal (0 rows) so any op sequence is a valid schedule.
OPS = (
    [{"kind": "query", "text": text} for text in QUERY_TEXTS[:4]]
    + [
        {
            "kind": "dml",
            "text": "insert into SDOC value "
            f"'<Security><Symbol>{symbol}</Symbol></Security>'",
        }
        for symbol in SYMBOLS
    ]
    + [
        {
            "kind": "dml",
            "text": f'delete from SDOC where /Security/Symbol = "{symbol}"',
        }
        for symbol in SYMBOLS[:2]
    ]
)

SCHEDULES = st.lists(
    st.sampled_from(range(len(OPS))), min_size=2, max_size=8
)
#: A schedule (indexes into OPS) and the order its tasks arrive in.
ARRIVALS = SCHEDULES.flatmap(
    lambda ops: st.tuples(st.just(ops), st.permutations(range(len(ops))))
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


async def serial_replay(requests):
    database = small_database()
    server = AdvisorServer(database)
    async with server:
        responses = await server.run_schedule(requests)
    return server, responses


@settings(max_examples=25, deadline=None)
@given(drawn=ARRIVALS)
def test_no_torn_epoch_under_any_interleaving(drawn):
    ops, arrival = drawn
    schedule = [OPS[index] for index in ops]
    server, responses = run(gathered_run(schedule, arrival))

    # 1. Liveness and typed handling: every request completed ok.
    assert all(response.ok for response in responses), [
        (r.kind, r.code, r.error) for r in responses if not r.ok
    ]

    # 2. Every response carries its epoch token and watermark.
    assert all(r.epoch is not None and r.seq is not None for r in responses)

    # 3. The differential oracle: the concurrent run is bit-identical to
    #    its serial replay, so no response leaked a half-committed state.
    order = serial_order(responses)
    assert sorted(order) == list(range(len(schedule)))
    replay_server, replayed = run(
        serial_replay([schedule[index] for index in order])
    )
    for position, index in enumerate(order):
        assert (
            responses[index].comparable() == replayed[position].comparable()
        )
    assert server.journal == replay_server.journal
    assert (
        server.database.storage_stats()
        == replay_server.database.storage_stats()
    )


@settings(max_examples=10, deadline=None)
@given(drawn=ARRIVALS)
def test_schedules_are_replayable_by_seed(drawn):
    """Shrinkability rests on determinism: the same (schedule, arrival
    order) pair reproduces the same responses, so hypothesis can
    minimize any counterexample it finds."""
    ops, arrival = drawn
    schedule = [OPS[index] for index in ops]
    first_server, first = run(gathered_run(schedule, arrival))
    again_server, again = run(gathered_run(schedule, arrival))
    assert [r.comparable() for r in first] == [
        r.comparable() for r in again
    ]
    assert first_server.journal == again_server.journal
    assert (
        first_server.database.storage_stats()
        == again_server.database.storage_stats()
    )


#: A pure write burst: four inserts, each followed by a read.
WRITE_BURST = [{"kind": "query", "text": QUERY_TEXTS[0]}] + [
    request
    for index in range(4)
    for request in (
        {
            "kind": "dml",
            "text": "insert into SDOC value "
            f"'<Security><Symbol>B{index}</Symbol></Security>'",
        },
        {"kind": "query", "text": QUERY_TEXTS[1]},
    )
]


@settings(max_examples=10, deadline=None)
@given(arrival=st.permutations(range(len(WRITE_BURST))))
def test_writer_never_starves_and_reads_retry_through(arrival):
    """The write burst against concurrent readers, in any arrival
    order: all writes commit (each exactly once, in journal order
    0..n-1) and every reader completes -- none errors out or returns
    partial state."""
    server, responses = run(gathered_run(WRITE_BURST, arrival))
    assert all(response.ok for response in responses)
    writes = [r for r in responses if r.kind == "dml"]
    assert sorted(r.seq for r in writes) == list(range(4))
    assert [entry["seq"] for entry in server.journal] == list(range(4))
