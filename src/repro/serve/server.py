"""The asyncio serving front end: :class:`AdvisorServer`.

Concurrency model (docs/serving.md): **every request is atomic.**  Engine
steps run inline on the event loop and a request body never suspends,
so requests interleave only between one another and no request can see
another half done.  Each response carries the epochs of the collections
it touched and a watermark ``seq``: a write's global commit sequence
number, or for a read the number of writes committed before it.  The
commit journal (``seq``, statement text, collection, post-commit epoch,
rows) plus those watermarks replay any concurrent schedule serially,
bit for bit (tests/test_serve_differential.py) -- by construction, since
concurrent clients can only change the order of whole requests.

* **Reads** (``query``) never change the database or its statistics --
  statistics are primed at :meth:`AdvisorServer.start` and dirty
  summaries are rebuilt on the write path, so a read never perturbs the
  storage counters the differential tests pin.  What a read may fill is
  the server's own bounded statement table: each distinct text is parsed
  once, and one executor's what-if session keeps each served query's
  plan until a write moves an epoch the query reads
  (``STATEMENT_TABLE_LIMIT``).
* **Writes** (``dml``) apply, rebuild dirty summaries and journal.
* **Advise requests** (``whatif``, ``recommend``) are answered from the
  server's table when it holds a complete answer to the same request at
  the touched collections' current state (epochs, statistics stamps and
  the catalog's stamp): no snapshot, advisor, optimizer call or search.
  Otherwise they run on a read-only *snapshot* from the
  :class:`~repro.storage.snapshots.SnapshotStore` -- a private shell over
  the store's shared cloned collections, so a request at unchanged
  epochs copies nothing and one after a write re-clones the written
  collection's lists.  The snapshot keeps the advisor off the live
  database: a recommendation mints its DDL's index names through the
  catalog, which on the live database would move the catalog stamp and
  invalidate the very answer just held, and the what-if work would
  touch the live counters the differential tests pin.
  storage/snapshots.py states the sharing contract.

Every endpoint returns a typed :class:`~repro.serve.requests.Response`
and never raises -- see requests.py for the error-code taxonomy.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.optimizer.executor import Executor
from repro.query.model import (
    DeleteStatement,
    InsertStatement,
    JoinQuery,
    Statement,
)
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.robustness.errors import (
    AdmissionRejected,
    AdvisorError,
    ConfigError,
)
from repro.robustness.faults import maybe_inject
from repro.serve.portfolio import run_portfolio
from repro.serve.requests import (
    DmlValue,
    JournalEntry,
    QueryValue,
    Response,
    StatisticsDigest,
)
from repro.serve.tenants import AdmissionController, TenantPolicy
from repro.storage.database import EpochGate, resolve_database
from repro.storage.snapshots import SnapshotStore

#: Distinct statement texts one server keeps parsed -- and, for served
#: queries, planned -- at once, and the most served values it holds
#: (advise answers among them).  A new text arriving at a full table
#: replaces the table, the held values and the executor together, so
#: nothing the server holds per statement grows past this bound.
STATEMENT_TABLE_LIMIT = 1024


def normalized_recommendation(recommendation) -> Dict:
    """``Recommendation.to_dict()`` minus wall-clock fields (latency
    lives in ``Response.elapsed_seconds``) and minus the session's
    database-wide ``generation`` and ``storage`` counters, which a write
    to a collection the request never reads would move -- the
    schedule-invariant projection the differential tests compare and
    the advice table holds."""
    data = recommendation.to_dict()
    data.pop("elapsed_seconds", None)
    session = data.get("session", {})
    for key in ("phase_seconds", "generation", "storage"):
        session.pop(key, None)
    return data


def serial_order(responses: Sequence[Response]) -> List[int]:
    """The serializability order a concurrent schedule committed in:
    writes sorted by commit sequence, each read placed at its watermark
    (after the ``seq``-th write committed, before write ``seq`` itself),
    ties broken by arrival order.  Replaying the schedule's requests
    serially in this order must reproduce every response bit-for-bit --
    the differential contract (tests/test_serve_differential.py)."""
    keyed = []
    for index, response in enumerate(responses):
        if response.seq is None:
            continue
        is_write = response.kind == "dml"
        keyed.append((response.seq, 1 if is_write else 0, index))
    return [index for _, _, index in sorted(keyed)]


class AdvisorServer:
    """Concurrent serving front end over one database; see the module
    docstring for the concurrency model."""

    def __init__(
        self,
        database,
        *,
        tenants: Optional[Dict[str, TenantPolicy]] = None,
        default_policy: TenantPolicy = TenantPolicy(),
        deadline_seconds: Optional[float] = None,
    ) -> None:
        self.database = resolve_database(database)
        #: Hands out each response's epoch token.  Requests are atomic,
        #: so the server opens no read or write section on it and its
        #: read/write counters stay 0.
        self.gate = EpochGate(self.database)
        #: Epoch-keyed snapshot engine: advise-class reads run on
        #: read-only snapshots over its shared cloned collections.
        self.snapshots = SnapshotStore()
        self.admission = AdmissionController(tenants, default_policy)
        self.deadline_seconds = deadline_seconds
        self._reset_statements()
        self._seq = 0
        #: Commit journal of every write: ``seq``, statement text,
        #: collection, post-commit epoch, rows -- the replay script of
        #: the differential tests.
        self.journal: List[JournalEntry] = []
        self.counters: Dict[str, int] = {}
        #: collections -> (their (epoch, statistics stamp) pairs, digest):
        #: the last statistics fingerprint handed out for them.
        self._fingerprints: Dict[Tuple[str, ...], Tuple[Tuple, Dict]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Prime statistics so reads never fill caches or repair
        summaries (read purity)."""
        for name in sorted(self.database.collections):
            stats = self.database.runstats(name)
            stats.rebuild_dirty_summaries()

    async def stop(self) -> None:
        """Nothing to release; the symmetric half of :meth:`start`."""

    async def __aenter__(self) -> "AdvisorServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Statement table
    # ------------------------------------------------------------------
    def _reset_statements(self) -> None:
        """Start an empty statement table, with the held values and the
        executor (whose what-if session plans the served queries) that
        belong to it."""
        #: text -> its parsed, immutable statement.
        self._statements: Dict[str, Statement] = {}
        #: request key -> (state, value): the value served for it last
        #: and, for a complete advise answer, the state it answers
        #: (``None`` otherwise; see _shared and _advise_read).
        self._values: Dict[object, Tuple[object, object]] = {}
        self._executor = Executor(self.database)

    def _parse(self, text: str) -> Statement:
        """``parse_statement(text)``, once per text while the table
        holds it.  A text that fails to parse is not remembered."""
        statement = self._statements.get(text)
        if statement is None:
            statement = parse_statement(text)
            if len(self._statements) >= STATEMENT_TABLE_LIMIT:
                self._reset_statements()
                self._bump("statement_table_resets")
            self._statements[text] = statement
        return statement

    def _shared(self, key, value, state=None):
        """``value``, or the equal value served last under ``key``, now
        held under ``key`` at ``state``.  Callers keep responses by the
        thousand, so an answer that did not change is handed out as the
        object they already hold, the way the statistics digest is
        shared.  A ``state`` makes the value the answer at that state
        (_advise_read serves it again without redoing the work).  At
        most ``STATEMENT_TABLE_LIMIT`` values are held."""
        held = self._values.get(key)
        if held is None:
            if len(self._values) >= STATEMENT_TABLE_LIMIT:
                self._values = {}
        elif held[1] == value:
            if held[0] == state:
                return held[1]
            value = held[1]
        self._values[key] = (state, value)
        return value

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def _advise_read(self, key, collections):
        """The lookup of an advise request: ``(value, state, snapshot)``.
        ``value`` is the answer held for ``key`` at ``state`` -- the
        collections' (epoch, statistics stamp) pairs and the catalog's
        stamp, all an advise answer depends on (a recommendation's DDL
        mints its index names from the catalog) -- and ``snapshot`` is
        ``None``; on a miss ``value`` is ``None`` and ``snapshot`` is a
        read-only database snapshot from the snapshot store to compute
        the answer on (see storage/snapshots.py for what it shares)."""
        state = (
            self._epoch_stamps(collections, self.database),
            self.database.catalog.stamp,
        )
        held_state, value = self._values.get(key, (None, None))
        if held_state == state:
            return value, state, None
        return None, state, self.snapshots.snapshot(self.database)

    def _bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def _check_collections(self, names) -> List[str]:
        for name in names:
            if name not in self.database.collections:
                raise KeyError(f"unknown collection {name!r}")
        return sorted(set(names))

    @staticmethod
    def _statement_collections(statement) -> List[str]:
        if isinstance(statement, JoinQuery):
            return [statement.left.collection, statement.right.collection]
        return [statement.collection]

    @staticmethod
    def _epoch_stamps(names, database) -> Tuple:
        """Each named collection's ``(epoch, statistics stamp)``."""
        return tuple(
            (
                database.collection_epochs.get(name, 0),
                database.runstats(name).mutation_stamp,
            )
            for name in names
        )

    def _stats_fingerprint(self, collections, database=None) -> Dict:
        """Deterministic per-collection statistics digest; returned with
        every read so a response is a *configuration/statistics pair*
        whose single-epoch consistency the property tests check.

        The digest is a function of each collection's ``(epoch,
        statistics stamp)``, so it is computed once per such state and
        the same dict rides every response until one moves -- callers
        must not modify it."""
        database = database if database is not None else self.database
        names = tuple(sorted(set(collections)))
        state = self._epoch_stamps(names, database)
        held = self._fingerprints.get(names)
        if held is None or held[0] != state:
            statistics = [database.runstats(name) for name in names]
            held = self._fingerprints[names] = (
                state,
                {
                    name: StatisticsDigest(
                        stats.doc_count,
                        stats.total_nodes,
                        len(stats.path_counts),
                        sum(stats.path_counts.values()),
                    )
                    for name, stats in zip(names, statistics)
                },
            )
        return held[1]

    # ------------------------------------------------------------------
    # Request wrapper: typed responses, never raises
    # ------------------------------------------------------------------
    async def _handle(self, kind: str, tenant: str, fn: Callable) -> Response:
        """Run the request body ``fn`` to completion -- it never
        suspends, so no other request can see it half done -- and wrap
        its ``(value, epoch, seq)`` in a :class:`Response`."""
        started = time.perf_counter()
        self._bump(f"{kind}_requests")
        try:
            maybe_inject("serve.request")
            with self.admission.admit(tenant, kind):
                value, epoch, seq = fn()
            response = Response(
                kind, True, tenant=tenant, value=value, epoch=epoch, seq=seq
            )
        except AdmissionRejected as exc:
            response = self._error(kind, tenant, exc, "rejected")
        except ConfigError as exc:
            response = self._error(kind, tenant, exc, "config")
        except (ValueError, KeyError) as exc:
            response = self._error(kind, tenant, exc, "bad-request")
        except AdvisorError as exc:
            response = self._error(kind, tenant, exc, "advisor-error")
        except Exception as exc:  # the "never a 500" backstop
            response = self._error(kind, tenant, exc, "internal")
        response.elapsed_seconds = time.perf_counter() - started
        return response

    def _error(self, kind, tenant, exc, code) -> Response:
        self._bump(f"errors_{code}")
        return Response(
            kind,
            False,
            tenant=tenant,
            error=f"{type(exc).__name__}: {exc}",
            code=code,
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def query(self, text: str, tenant: str = "default") -> Response:
        """Execute one read statement."""
        return await self._handle(
            "query", tenant, lambda: self._do_query(text)
        )

    async def dml(self, text: str, tenant: str = "default") -> Response:
        """Apply one insert/delete and journal it."""
        return await self._handle("dml", tenant, lambda: self._do_dml(text))

    async def whatif(
        self,
        statements: Sequence[str],
        patterns: Sequence[str],
        collection: str,
        tenant: str = "default",
    ) -> Response:
        """Cost a hypothetical configuration on an epoch snapshot."""
        return await self._handle(
            "whatif",
            tenant,
            lambda: self._do_whatif(statements, patterns, collection, tenant),
        )

    async def recommend(
        self,
        statements: Sequence[str],
        budget_bytes: int,
        tenant: str = "default",
        deadline_seconds: Optional[float] = None,
    ) -> Response:
        """Search an index configuration on an epoch snapshot with the
        advise ladder (serve/portfolio.py)."""
        return await self._handle(
            "recommend",
            tenant,
            lambda: self._do_recommend(
                statements, budget_bytes, tenant, deadline_seconds
            ),
        )

    # ------------------------------------------------------------------
    # Endpoint bodies
    # ------------------------------------------------------------------
    def _do_query(self, text: str):
        statement = self._parse(text)
        if isinstance(statement, (InsertStatement, DeleteStatement)):
            raise ValueError(
                "DML statement on the query endpoint; use dml()"
            )
        collections = self._check_collections(
            self._statement_collections(statement)
        )
        result = self._executor.execute(statement, collect_output=True)
        value = QueryValue(
            result.rows,
            result.docs_examined,
            result.used_indexes,
            result.index_entries_scanned,
            tuple(result.output),
            self._stats_fingerprint(collections),
        )
        return (
            self._shared(text, value),
            self.gate.epochs(collections),
            self._seq,
        )

    def _do_dml(self, text: str):
        statement = parse_statement(text)
        if not isinstance(statement, (InsertStatement, DeleteStatement)):
            raise ValueError(
                "read statement on the dml endpoint; use query()"
            )
        collection = statement.collection
        self._check_collections([collection])
        result = Executor(self.database).execute(statement)
        # Rebuild any summaries the delta left dirty (paths at a cap;
        # below it a write retracts exactly and this is a no-op) as part
        # of the write, so reads never repair state.
        stats = self.database._statistics.get(collection)
        if stats is not None:
            stats.rebuild_dirty_summaries()
        seq = self._seq
        self._seq += 1
        epoch = self.gate.epochs([collection])
        self.journal.append(
            JournalEntry(
                seq, statement.describe(), collection, epoch[0][1], result.rows
            )
        )
        value = DmlValue(
            result.rows,
            result.docs_examined,
            self._stats_fingerprint([collection]),
        )
        return value, epoch, seq

    def _do_whatif(self, statements, patterns, collection, tenant):
        from repro.core.whatif import analyze, configuration_from_specs
        from repro.optimizer.session import WhatIfSession

        workload = Workload.from_statements(
            [self._parse(text) for text in statements]
        )
        touched = self._check_collections(
            [collection]
            + [
                name
                for entry in workload
                for name in self._statement_collections(entry.statement)
            ]
        )
        configuration = configuration_from_specs(patterns, collection)
        key = ("whatif", collection, tuple(statements), tuple(patterns))
        epoch = self.gate.epochs(touched)
        held, state, snapshot = self._advise_read(key, touched)
        if snapshot is None:
            self._bump("advice_hits")
            return held, epoch, self._seq
        session = WhatIfSession(snapshot)
        report = analyze(snapshot, workload, configuration, session=session)
        value = {
            "total_benefit": report.total_benefit,
            "unused_indexes": report.unused_indexes(),
            "impacts": [
                {
                    "statement": impact.statement_text,
                    "frequency": impact.frequency,
                    "cost_before": impact.cost_before,
                    "cost_after": impact.cost_after,
                    "used_indexes": list(impact.used_indexes),
                }
                for impact in report.impacts
            ],
        }
        self.admission.charge_calls(
            tenant, session.counters.optimizer_calls
        )
        value["statistics"] = self._stats_fingerprint(
            touched, database=snapshot
        )
        if session.is_degraded:
            state = None
        return self._shared(key, value, state), epoch, self._seq

    def _do_recommend(
        self, statements, budget_bytes, tenant, deadline_seconds
    ):
        workload = Workload.from_statements(
            [self._parse(text) for text in statements]
        )
        touched = sorted(
            {
                name
                for entry in workload
                for name in self._statement_collections(entry.statement)
            }
        )
        self._check_collections(touched)
        deadline, call_quota = self.admission.limits_for(
            tenant,
            self.deadline_seconds
            if deadline_seconds is None
            else deadline_seconds,
        )
        key = ("recommend", tuple(statements), budget_bytes)
        epoch = self.gate.epochs(touched)
        held, state, snapshot = self._advise_read(key, touched)
        if snapshot is None:
            self._bump("advice_hits")
            return held, epoch, self._seq
        recommendation = run_portfolio(
            snapshot,
            workload,
            budget_bytes,
            deadline_seconds=deadline,
            optimizer_call_budget=call_quota,
        )
        self.admission.charge_calls(
            tenant,
            recommendation.portfolio_stats["optimizer_calls_total"],
        )
        # Only a complete answer is held: a deadline, a call quota or a
        # fault that shaped this one must not be served to a later
        # request (a fallback answer is ``degraded``).
        value = normalized_recommendation(recommendation)
        if value["truncated"] or value["degraded"] or value["diagnostics"]:
            state = None
        return self._shared(key, value, state), epoch, self._seq

    # ------------------------------------------------------------------
    # Schedule driving (CLI, bench, differential tests)
    # ------------------------------------------------------------------
    async def dispatch(self, request: Dict) -> Response:
        """Route one request dict (``{"kind": ..., ...}``) to its
        endpoint."""
        kind = request.get("kind")
        tenant = request.get("tenant", "default")
        if kind == "query":
            return await self.query(request["text"], tenant=tenant)
        if kind == "dml":
            return await self.dml(request["text"], tenant=tenant)
        if kind == "whatif":
            return await self.whatif(
                request["statements"],
                request["patterns"],
                request["collection"],
                tenant=tenant,
            )
        if kind == "recommend":
            return await self.recommend(
                request["statements"],
                request["budget_bytes"],
                tenant=tenant,
                deadline_seconds=request.get("deadline_seconds"),
            )
        return self._error(
            str(kind), tenant, ValueError(f"unknown request kind {kind!r}"),
            "bad-request",
        )

    async def run_schedule(self, schedule: Sequence[Dict]) -> List[Response]:
        """Serve ``schedule``'s requests in order; the responses parallel
        it.  Requests are atomic, so concurrent clients would serve the
        same requests in the same order."""
        return [await self.dispatch(request) for request in schedule]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gate": self.gate.stats(),
            "tenants": self.admission.stats(),
            "writes": self._seq,
            "storage": self.database.storage_stats(),
            "snapshots": self.snapshots.stats(),
            "statement_table": {
                "statements": len(self._statements),
                "planned": self._executor.session.statement_count,
                "values": len(self._values),
                "advice": sum(
                    state is not None for state, _ in self._values.values()
                ),
                "limit": STATEMENT_TABLE_LIMIT,
            },
            "epochs": dict(sorted(self.database.collection_epochs.items())),
        }
