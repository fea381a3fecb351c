"""The asyncio serving front end: :class:`AdvisorServer`.

Concurrency model (docs/serving.md):

* **Reads** (``query``, ``whatif``, ``recommend``) are lock-free and
  optimistic: take an :class:`~repro.storage.database.EpochGate` token
  over the collections touched, do the work, validate that no write
  moved the epochs, retry on a torn read.  Reads are side-effect free
  -- statistics are primed at :meth:`AdvisorServer.start` and dirty
  summaries are rebuilt on the write path, so a read never mutates
  shared state (and never perturbs the storage counters the
  differential tests pin).
* **Writes** (``dml``) are serialized per collection by an
  ``asyncio.Lock`` and bracketed by the gate's writer critical section;
  each commit gets a global sequence number and a journal entry, which
  together let any concurrent schedule be replayed serially
  (tests/test_serve_differential.py).
* **Advise-class reads** (``whatif``, ``recommend``) run against an
  epoch-consistent *snapshot* taken atomically under the gate by the
  :class:`~repro.storage.snapshots.SnapshotStore` -- a private shell
  over the store's shared, read-only cloned collections, so a request
  at unchanged epochs copies nothing, one after a write re-clones the
  written collection's lists (never pickles it) and a multi-second
  portfolio search never races live DML (reproducible at its epoch
  token).  storage/snapshots.py states the sharing contract.

Engine steps run inline on the event loop, atomic between cooperative
yield points; a :class:`~repro.serve.scheduler.SeededScheduler` hooked
into those points gives the deterministic adversarial interleavings the
property tests shrink.

Every endpoint returns a typed :class:`~repro.serve.requests.Response`
and never raises -- see requests.py for the error-code taxonomy.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.optimizer.executor import Executor
from repro.query.model import (
    DeleteStatement,
    InsertStatement,
    JoinQuery,
)
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.robustness.errors import (
    AdmissionRejected,
    AdvisorError,
    ConfigError,
    FatalAdvisorError,
)
from repro.robustness.faults import maybe_inject
from repro.serve.portfolio import DEFAULT_STRATEGIES, run_portfolio
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


def normalized_recommendation(recommendation) -> Dict:
    """``Recommendation.to_dict()`` minus wall-clock fields -- the
    schedule-invariant projection the differential tests compare
    (latency lives in ``Response.elapsed_seconds``)."""
    data = recommendation.to_dict()
    data.pop("elapsed_seconds", None)
    data.get("session", {}).pop("phase_seconds", None)
    portfolio = data.get("portfolio")
    if portfolio:
        for strategy in portfolio.get("strategies", []):
            strategy.pop("elapsed_seconds", None)
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
        mode: str = "tournament",
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
        deadline_seconds: Optional[float] = None,
        scheduler: Optional[Callable] = None,
        seed: int = 0,
        read_retry_limit: int = 64,
    ) -> None:
        self.database = resolve_database(database)
        self.gate = EpochGate(self.database)
        #: Epoch-keyed snapshot engine: advise-class reads run on
        #: read-only snapshots over its shared cloned collections.
        self.snapshots = SnapshotStore()
        self.admission = AdmissionController(tenants, default_policy)
        self.mode = mode
        self.strategies = tuple(strategies)
        self.deadline_seconds = deadline_seconds
        self.scheduler = scheduler
        self.seed = seed
        self.read_retry_limit = read_retry_limit
        self._writer_locks: Dict[str, asyncio.Lock] = {}
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
    # Execution plumbing
    # ------------------------------------------------------------------
    async def _yield(self, site: str) -> None:
        """A cooperative yield point; the seeded scheduler hooks in
        here to explore adversarial interleavings deterministically."""
        if self.scheduler is not None:
            await self.scheduler(site)
        else:
            await asyncio.sleep(0)

    async def _read_backoff(self, attempt: int, site: str) -> None:
        """Bounded adaptive backoff between optimistic-read retries.

        A refused or torn read used to spin straight back into the gate
        (one bare yield per attempt), so under write pressure readers
        burned their retry budget re-colliding with the same writer --
        a contended replay recorded 32 torn + 54 refused against only
        40 validated reads.  Now each retry waits exponentially longer
        (capped): under the seeded scheduler the wait is a deterministic
        ladder of extra yield points (still a pure function of the
        seed), otherwise a short real sleep.  Every wait is counted on
        the gate (``reads_backoff_waits``)."""
        self.gate.note_backoff()
        steps = 1 << min(max(attempt, 1) - 1, 3)  # 1, 2, 4, 8, 8, ...
        if self.scheduler is not None:
            for _ in range(steps):
                await self.scheduler(site)
        else:
            await asyncio.sleep(min(0.0002 * steps, 0.005))

    async def _gated_read(self, collections, steps: Sequence[Callable]):
        """Optimistic multi-step read: returns ``(step_results, token,
        retries, watermark)`` where the token validated across all
        steps and the watermark is the global write sequence at
        validation time (the serial-replay position)."""
        collections = sorted(set(collections))
        retries = 0
        refused = 0
        while True:
            token = self.gate.read_view(collections)
            if token is None:
                refused += 1
                if refused > self.read_retry_limit * 16:
                    raise FatalAdvisorError(
                        f"read starved behind writers on {collections}",
                        phase="serve.read",
                    )
                await self._read_backoff(refused, "serve.read.refused")
                continue
            results = []
            torn = False
            try:
                for index, step in enumerate(steps):
                    if index:
                        await self._yield("serve.read.step")
                    results.append(step())
            except Exception:
                if self.gate.validate(token):
                    raise  # the failure is real, not a torn-read artifact
                torn = True
            if not torn and self.gate.validate(token):
                return results, token, retries, self._seq
            retries += 1
            self._bump("read_retries")
            if retries > self.read_retry_limit:
                raise FatalAdvisorError(
                    f"read kept tearing after {retries} retries on "
                    f"{collections}",
                    phase="serve.read",
                )
            await self._read_backoff(retries, "serve.read.retry")

    async def _snapshot(self, collections):
        """An epoch-consistent, read-only database snapshot for
        advise-class reads, taken atomically under the gate from the
        snapshot store (see storage/snapshots.py for what it shares)."""
        (snapshot,), token, retries, watermark = await self._gated_read(
            collections, [lambda: self.snapshots.snapshot(self.database)]
        )
        return snapshot, token, retries, watermark

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
        statistics = [database.runstats(name) for name in names]
        state = tuple(
            (database.collection_epochs.get(name, 0), stats.mutation_stamp)
            for name, stats in zip(names, statistics)
        )
        held = self._fingerprints.get(names)
        if held is None or held[0] != state:
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
        started = time.perf_counter()
        self._bump(f"{kind}_requests")
        try:
            maybe_inject("serve.request")
            with self.admission.admit(tenant, kind):
                value, epoch, retries, seq = await fn()
            response = Response(
                kind,
                True,
                tenant=tenant,
                value=value,
                epoch=epoch,
                seq=seq,
                retries=retries,
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
        """Execute one read statement lock-free under the epoch gate."""
        return await self._handle(
            "query", tenant, lambda: self._do_query(text)
        )

    async def dml(self, text: str, tenant: str = "default") -> Response:
        """Apply one insert/delete, serialized per collection."""
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
        mode: Optional[str] = None,
        strategies: Optional[Sequence[str]] = None,
        deadline_seconds: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> Response:
        """Portfolio-search an index configuration on an epoch
        snapshot; per-strategy telemetry rides the response value."""
        return await self._handle(
            "recommend",
            tenant,
            lambda: self._do_recommend(
                statements, budget_bytes, tenant, mode, strategies,
                deadline_seconds, seed,
            ),
        )

    # ------------------------------------------------------------------
    # Endpoint bodies
    # ------------------------------------------------------------------
    async def _do_query(self, text: str):
        statement = parse_statement(text)
        if isinstance(statement, (InsertStatement, DeleteStatement)):
            raise ValueError(
                "DML statement on the query endpoint; use dml()"
            )
        collections = self._check_collections(
            self._statement_collections(statement)
        )

        def run():
            return Executor(self.database).execute(
                statement, collect_output=True
            )

        (result, fingerprint), token, retries, watermark = (
            await self._gated_read(
                collections,
                [run, lambda: self._stats_fingerprint(collections)],
            )
        )
        value = QueryValue(
            result.rows,
            result.docs_examined,
            result.used_indexes,
            result.index_entries_scanned,
            tuple(result.output),
            fingerprint,
        )
        return value, token, retries, watermark

    async def _do_dml(self, text: str):
        statement = parse_statement(text)
        if not isinstance(statement, (InsertStatement, DeleteStatement)):
            raise ValueError(
                "read statement on the dml endpoint; use query()"
            )
        collection = statement.collection
        self._check_collections([collection])
        lock = self._writer_locks.setdefault(collection, asyncio.Lock())
        async with lock:
            self.gate.begin_write(collection)
            try:
                await self._yield("serve.write.begin")
                result = self._apply_dml(statement, collection)
                await self._yield("serve.write.commit")
            finally:
                self.gate.end_write(collection)
            seq = self._seq
            self._seq += 1
            token = self.gate.epochs([collection])
            self.journal.append(
                JournalEntry(
                    seq,
                    statement.describe(),
                    collection,
                    token[0][1],
                    result.rows,
                )
            )
        value = DmlValue(
            result.rows,
            result.docs_examined,
            self._stats_fingerprint([collection]),
        )
        return value, token, 0, seq

    def _apply_dml(self, statement, collection: str):
        result = Executor(self.database).execute(statement)
        # Rebuild any summaries the delta left dirty (paths at a cap;
        # below it a write retracts exactly and this is a no-op) *inside*
        # the writer critical section, so later lock-free reads never
        # repair state.
        stats = self.database._statistics.get(collection)
        if stats is not None:
            stats.rebuild_dirty_summaries()
        return result

    async def _do_whatif(self, statements, patterns, collection, tenant):
        from repro.core.candidates import CandidateIndex
        from repro.core.config import IndexConfiguration
        from repro.core.whatif import analyze
        from repro.optimizer.session import WhatIfSession
        from repro.storage.index import IndexValueType
        from repro.xpath.patterns import parse_pattern

        workload = Workload.from_statements(list(statements))
        touched = self._check_collections(
            [collection]
            + [
                name
                for entry in workload
                for name in self._statement_collections(entry.statement)
            ]
        )
        candidates = []
        for spec in patterns:
            if ":" in spec:
                pattern_text, type_text = spec.rsplit(":", 1)
            else:
                pattern_text, type_text = spec, "string"
            value_type = (
                IndexValueType.NUMERIC
                if type_text.lower() in ("numeric", "numerical", "double")
                else IndexValueType.STRING
            )
            candidates.append(
                CandidateIndex(
                    parse_pattern(pattern_text), value_type, collection
                )
            )
        snapshot, token, retries, watermark = await self._snapshot(touched)
        session = WhatIfSession(snapshot)
        report = analyze(
            snapshot, workload, IndexConfiguration(candidates), session=session
        )
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
        return value, token, retries, watermark

    async def _do_recommend(
        self, statements, budget_bytes, tenant, mode, strategies,
        deadline_seconds, seed,
    ):
        workload = Workload.from_statements(list(statements))
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
        snapshot, token, retries, watermark = await self._snapshot(touched)
        recommendation = run_portfolio(
            snapshot,
            workload,
            budget_bytes,
            mode=mode or self.mode,
            strategies=tuple(strategies or self.strategies),
            deadline_seconds=deadline,
            optimizer_call_budget=call_quota,
            seed=self.seed if seed is None else seed,
        )
        self.admission.charge_calls(
            tenant,
            recommendation.portfolio_stats.get("optimizer_calls_total", 0),
        )
        return (
            normalized_recommendation(recommendation),
            token,
            retries,
            watermark,
        )

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
                mode=request.get("mode"),
                strategies=request.get("strategies"),
                deadline_seconds=request.get("deadline_seconds"),
                seed=request.get("seed"),
            )
        return self._error(
            str(kind), tenant, ValueError(f"unknown request kind {kind!r}"),
            "bad-request",
        )

    async def run_schedule(
        self, schedule: Sequence[Dict], clients: int = 1
    ) -> List[Response]:
        """Drive ``schedule`` through ``clients`` concurrent client
        tasks (each pulls the next request off a shared queue); the
        returned responses parallel the schedule's order."""
        queue: asyncio.Queue = asyncio.Queue()
        for index, request in enumerate(schedule):
            queue.put_nowait((index, request))
        responses: List[Optional[Response]] = [None] * len(schedule)

        async def client() -> None:
            while True:
                try:
                    index, request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                responses[index] = await self.dispatch(request)

        await asyncio.gather(*(client() for _ in range(max(1, clients))))
        return responses

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
            "epochs": dict(sorted(self.database.collection_epochs.items())),
        }
