"""Every served request is atomic: its body never suspends.

The server's concurrency model rests on one structural fact: an
endpoint body runs to completion without yielding to the event loop, so
no request can see another half done, and a concurrent schedule equals
its serial replay by construction (tests/test_serve_differential.py).
These tests drive ``server.dispatch(request)`` by hand: the coroutine
must finish on its first ``send(None)``, raising ``StopIteration`` with
the :class:`Response` -- for every request kind, on a held advise answer
as on a miss, and on the failing paths.
"""

import pytest

from repro.serve import AdvisorServer, Response, TenantPolicy
from tests.test_serve_server import (
    BUDGET,
    NEW_SECURITY,
    QUERY_TEXTS,
    small_database,
)

WHATIF = {
    "kind": "whatif",
    "statements": QUERY_TEXTS,
    "patterns": ["/Security/Symbol"],
    "collection": "SDOC",
}
RECOMMEND = {
    "kind": "recommend",
    "statements": QUERY_TEXTS,
    "budget_bytes": BUDGET,
}


def served_in_one_step(server, request) -> Response:
    """``server.dispatch(request)``'s response, or a failure if the
    coroutine suspended before it finished."""
    coroutine = server.dispatch(request)
    try:
        coroutine.send(None)
    except StopIteration as stop:
        assert isinstance(stop.value, Response)
        return stop.value
    coroutine.close()
    pytest.fail(f"a {request.get('kind')!r} request suspended mid-body")


def started(**options) -> AdvisorServer:
    server = AdvisorServer(small_database(), **options)
    coroutine = server.start()
    with pytest.raises(StopIteration):
        coroutine.send(None)
    return server


@pytest.mark.parametrize(
    "request_",
    [
        {"kind": "query", "text": QUERY_TEXTS[0]},
        {"kind": "dml", "text": NEW_SECURITY},
        WHATIF,
        RECOMMEND,
    ],
    ids=["query", "dml", "whatif-miss", "recommend-miss"],
)
def test_a_request_finishes_on_its_first_step(request_):
    response = served_in_one_step(started(), request_)
    assert response.ok, response.error
    assert response.epoch is not None and response.seq is not None


@pytest.mark.parametrize(
    "request_", [WHATIF, RECOMMEND], ids=["whatif", "recommend"]
)
def test_a_held_advise_answer_finishes_on_its_first_step(
    request_, fault_free
):
    server = started()
    miss = served_in_one_step(server, request_)
    hit = served_in_one_step(server, request_)
    assert miss.ok and hit.ok
    assert server.counters["advice_hits"] == 1
    assert hit.value is miss.value


@pytest.mark.parametrize(
    "request_, code",
    [
        ({"kind": "query", "text": "this is not a statement"}, "bad-request"),
        ({"kind": "dml", "text": QUERY_TEXTS[0]}, "bad-request"),
        ({"kind": "no-such-kind"}, "bad-request"),
        (RECOMMEND, "rejected"),
    ],
    ids=["unparseable", "wrong-endpoint", "unknown-kind", "quota-rejected"],
)
def test_a_failing_request_finishes_on_its_first_step(request_, code):
    server = started(default_policy=TenantPolicy(search_call_quota=0))
    response = served_in_one_step(server, request_)
    assert not response.ok
    assert response.code == code
    assert response.seq is None
