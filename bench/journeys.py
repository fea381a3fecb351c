"""The five workloads, each one user journey driven closed loop.

A journey's life is ``setup()`` (repeatable; the median of its times is
``setup_s``) -> ``run(seconds, tracer)`` -> ``check.run`` ->
``metrics()``.  A run repeats one *block* -- a fixed list of ops, the
same every repetition -- until ``seconds`` have passed.  Interference on
a shared box only ever slows a block down, so throughput and CPU per op
come from the fastest repetition, and latency percentiles pool the ops
of the faster half of the repetitions (enough samples for a tail, none
from the disturbed half).  A block is long enough (1-3 s) to hold its
share of the garbage collections and cache evictions its ops provoke,
which a per-op minimum would hide.
All journeys measure from outside: they time calls into the layers'
public functions and read the counters those already expose.
"""

from __future__ import annotations

import asyncio
import random
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.advisor import IndexAdvisor
from repro.online import OnlineAdvisor, OnlinePolicy
from repro.query.workload import Workload
from repro.serve import AdvisorServer

import check
import inputs
import spec
from spans import NoTracer


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the CLI summary's rule)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def basic_candidate_bytes(advisor: IndexAdvisor) -> int:
    return sum(c.size_bytes for c in advisor.candidates.basics())


def materialize_serve_indexes(database, pool: List[str]):
    """Build the serve workloads' configuration for real; returns it
    with the total basic-candidate size the advise budgets derive from."""
    advisor = IndexAdvisor(
        database, Workload.from_statements(pool), compress="template"
    )
    try:
        total = basic_candidate_bytes(advisor)
        recommendation = advisor.recommend(
            int(total * spec.SERVE_INDEX_BUDGET_FRACTION),
            algorithm=spec.SERVE_INDEX_ALGORITHM,
        )
        advisor.create_indexes(recommendation)
    finally:
        advisor.session.close()
    return recommendation.configuration, total


def online_budget(database, texts: List[str]) -> int:
    """The daemon's byte budget: a share of the basic-candidate size
    over an evenly strided ~1000-statement sample of the stream."""
    stride = max(1, len(texts) // 1000)
    advisor = IndexAdvisor(
        database, Workload.from_statements(texts[::stride]),
        compress="template",
    )
    try:
        return int(basic_candidate_bytes(advisor) * spec.ONLINE_BUDGET_FRACTION)
    finally:
        advisor.session.close()


def online_daemon(database, budget: int, journal_path: str) -> OnlineAdvisor:
    policy = OnlinePolicy(budget_bytes=budget, **spec.ONLINE_POLICY)
    return OnlineAdvisor(database, policy, journal_path=journal_path)


class Journey:
    """Shared accounting; subclasses fill in the journey itself."""

    name = ""

    def __init__(self, seed: int, scale: spec.Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.primary = next(
            w.primary for w in spec.WORKLOADS if w.name == self.name
        )
        self.inputs_sha256 = ""
        #: Ops and workload statements in one block (set by ``setup``).
        self.block_ops = 0
        self.block_statements = 0
        self._reset()

    def _reset(self) -> None:
        #: Per repetition of the block: (traced, wall seconds, cpu
        #: seconds, kind -> client-side latencies (s) of successful ops).
        self.repetitions: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.benefit_fractions: List[float] = []

    # -- hooks ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> None:
        raise NotImplementedError

    def layer_counters(self) -> Dict[str, float]:
        """Ratios and counts this journey's own run gives the per-layer
        list (names it does not set read 0)."""
        return {}

    def close(self) -> None:
        pass

    # -- accounting ----------------------------------------------------
    def begin(self) -> None:
        """Start a repetition of the block."""
        self._latencies: Dict[str, List[float]] = {}
        self._mark = (time.perf_counter(), time.process_time())

    def ok(self, kind: str, seconds: float, counted: bool = True) -> None:
        self.attempted += counted
        self._latencies.setdefault(kind, []).append(seconds)

    def fail(self, message: str, counted: bool = True) -> None:
        """A failed op contributes no latency sample.  ``counted=False``
        marks an op already attempted whose output a check rejected."""
        if counted:
            self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def end(self, traced: bool) -> float:
        """Close the repetition; returns its wall seconds."""
        wall = time.perf_counter() - self._mark[0]
        cpu = time.process_time() - self._mark[1]
        self.repetitions.append((traced, wall, cpu, self._latencies))
        return wall

    def ranked(self, traced: bool = False) -> List[tuple]:
        """The (un)traced repetitions, fastest first."""
        return sorted(
            (r for r in self.repetitions if r[0] == traced),
            key=lambda repetition: repetition[1],
        )

    def trace_overhead(self) -> float:
        """1 - traced/untraced rate, fastest repetition of each kind
        (traced and untraced repetitions alternate)."""
        plain, traced = self.ranked(False), self.ranked(True)
        if not plain or not traced:
            return 0.0
        return 1.0 - plain[0][1] / traced[0][1]

    def metrics(self, setup_seconds: Sequence[float]) -> Dict[str, dict]:
        """End-to-end and per-kind metrics as ``name -> {value, unit,
        n}``; ``n`` is the number of ops (latencies) or of untraced
        repetitions to choose from (rates) behind the value."""
        ranked = self.ranked()
        _, wall, cpu, _ = ranked[0]
        repetitions = len(ranked)
        latencies: Dict[str, List[float]] = {}
        for _, _, _, by_kind in ranked[: (repetitions + 1) // 2]:
            for kind, seconds in by_kind.items():
                latencies.setdefault(kind, []).extend(seconds)
        primary = latencies.get(self.primary, [])
        out = {
            "ops_per_s": (self.block_ops / wall, repetitions),
            "statements_per_s": (self.block_statements / wall, repetitions),
            "op_p50_ms": (percentile(primary, 0.50) * 1e3, len(primary)),
            "op_p95_ms": (percentile(primary, 0.95) * 1e3, len(primary)),
            "cpu_ms_per_op": (cpu / self.block_ops * 1e3, repetitions),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                1,
            ),
            "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
            "failed_ops_ratio": (
                self.failed / max(1, self.attempted), self.attempted,
            ),
        }
        for metric in spec.per_kind_for(self.name):
            kind, fraction = spec.KIND_LATENCY.get(metric.name, (None, None))
            if latencies.get(kind):
                out[metric.name] = (
                    percentile(latencies[kind], fraction) * 1e3,
                    len(latencies[kind]),
                )
        if self.benefit_fractions:
            out["benefit_fraction"] = (
                statistics.fmean(self.benefit_fractions),
                len(self.benefit_fractions),
            )
        units = {m.name: m.unit for m in spec.END_TO_END + spec.PER_KIND}
        return {
            name: {"value": value, "unit": units[name], "n": n}
            for name, (value, n) in out.items()
        }


# ----------------------------------------------------------------------
# advise_sweep / advise_stream: the direct recommend journey
# ----------------------------------------------------------------------
class AdviseJourney(Journey):
    """Op = statement texts -> ``Workload.from_statements`` -> fresh
    ``IndexAdvisor`` (cold what-if cache) -> ``recommend`` ->
    ``session.close()``.  The block is the whole op list."""

    #: op = (database key, texts key, algorithm, compress, budget bytes)
    ops: List[tuple]
    probe_sample = 0

    def _reset(self) -> None:
        super()._reset()
        self.parse_seconds = 0.0
        self.op_seconds = 0.0
        self.recommends = 0
        self.optimizer_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: op index -> (configuration keys, tuned-workload benefit,
        #: full-workload benefit, size) of its first execution.
        self.results: Dict[int, tuple] = {}

    def _set_block(self) -> None:
        self.block_ops = len(self.ops)
        self.block_statements = sum(len(self.texts[op[1]]) for op in self.ops)

    def recommend(
        self, op: tuple, tracer=NoTracer(), op_id: Optional[int] = None
    ):
        """One op; returns ``(recommendation, start, parsed, end)`` where
        ``parsed`` is when ``Workload.from_statements`` returned.  A
        real ``tracer`` gets a span around every layer call."""
        database_key, texts_key, algorithm, compress, budget = op
        texts = self.texts[texts_key]
        database = self.databases[database_key]
        started = time.perf_counter()
        with tracer.span("probe:advise", op_id):
            with tracer.span("query.from_statements"):
                workload = Workload.from_statements(texts)
            parsed = time.perf_counter()
            with tracer.span("core.compress"):
                advisor = IndexAdvisor(database, workload, compress=compress)
            try:
                with tracer.span("core.candidates"):
                    advisor.candidates
                with tracer.span("core.search"):
                    recommendation = advisor.recommend(
                        budget, algorithm=algorithm
                    )
            finally:
                counters = advisor.session.counters
                with tracer.span("optimizer.session_close"):
                    advisor.session.close()
        ended = time.perf_counter()
        self.optimizer_calls += counters.optimizer_calls
        self.cache_hits += counters.cache_hits
        self.cache_misses += counters.cache_misses
        return recommendation, started, parsed, ended

    @staticmethod
    def summarize(recommendation) -> tuple:
        reconciled = recommendation.compression_stats.get("reconciled")
        return (
            sorted(str(c) for c in recommendation.configuration),
            recommendation.search.benefit,
            reconciled["benefit"] if reconciled else
            recommendation.search.benefit,
            recommendation.search.size_bytes,
        )

    def run(self, seconds: float, tracer=None) -> None:
        run_started = time.perf_counter()
        while True:
            traced = tracer is not None and len(self.repetitions) % 2 == 1
            self.begin()
            for op_id, op in enumerate(self.ops):
                self._timed_op(op_id, op, tracer if traced else None)
            self.end(traced)
            if time.perf_counter() - run_started >= seconds:
                break

    def _timed_op(self, op_id: int, op: tuple, tracer) -> None:
        try:
            recommendation, started, parsed, ended = self.recommend(op)
        except Exception as exc:  # the op failed, the run goes on
            self.fail(f"op {op_id} {op[2]}: {exc!r}")
            return
        summary = self.summarize(recommendation)
        if recommendation.truncated or summary[3] > op[4]:
            self.fail(
                f"op {op_id} {op[2]}: truncated={recommendation.truncated} "
                f"size={summary[3]} budget={op[4]}"
            )
            return
        self.ok("recommend", ended - started)
        self.parse_seconds += parsed - started
        self.op_seconds += ended - started
        self.recommends += 1
        self.results.setdefault(op_id, summary)
        if tracer is not None:
            tracer.record("op:recommend", op_id, started, ended)

    def probe(self, tracer) -> None:
        """Re-run a seeded sample of this journey's own ops with a span
        around every layer call; each must reproduce its untraced
        result."""
        rng = random.Random(self.seed)
        chosen = rng.sample(
            sorted(self.results), min(self.probe_sample, len(self.results))
        )
        for op_id in chosen:
            recommendation = self.recommend(self.ops[op_id], tracer, op_id)[0]
            if self.summarize(recommendation) != self.results[op_id]:
                self.fail(
                    f"traced op {op_id} diverged from its untraced run",
                    counted=False,
                )

    def layer_counters(self) -> Dict[str, float]:
        lookups = self.cache_hits + self.cache_misses
        return {
            "query.parse_share": (
                self.parse_seconds / self.op_seconds if self.op_seconds else 0.0
            ),
            "optimizer.calls_per_recommend": (
                self.optimizer_calls / max(1, self.recommends)
            ),
            "optimizer.cache_hit_ratio": (
                self.cache_hits / lookups if lookups else 0.0
            ),
        }


class AdviseSweep(AdviseJourney):
    name = "advise_sweep"
    probe_sample = 20

    def setup(self) -> None:
        self._reset()
        scale = self.scale
        self.texts = inputs.sweep_statements(self.seed, scale)
        self.databases = {
            "tpox": inputs.tpox_database(scale.tpox),
            "xmark": inputs.xmark_database(scale.xmark),
            "mixed": inputs.mixed_database(scale.mixed_tpox, scale.mixed_xmark),
        }
        self.all_benefit: Dict[str, float] = {}
        self.ops = []
        warm = []
        for key, database in self.databases.items():
            advisor = IndexAdvisor(
                database, Workload.from_statements(self.texts[key])
            )
            try:
                total = basic_candidate_bytes(advisor)
                self.all_benefit[key] = advisor.evaluator.benefit(
                    advisor.all_index_configuration()
                )
            finally:
                advisor.session.close()
            for algorithm in spec.ALGORITHMS:
                for fraction in spec.BUDGET_FRACTIONS:
                    op = (key, key, algorithm, "off", int(total * fraction))
                    self.ops.append(op)
                    if fraction == 0.5:
                        warm.append(op)
        random.Random(self.seed).shuffle(self.ops)
        self._set_block()
        self.inputs_sha256 = inputs.sha256_of([self.texts, self.ops])
        for op in warm:  # one op per (database, algorithm): imports, caches
            self.recommend(op)
        self._reset()


class AdviseStream(AdviseJourney):
    name = "advise_stream"
    probe_sample = 3

    def setup(self) -> None:
        self._reset()
        scale = self.scale
        streams = inputs.advise_streams(self.seed, scale)
        self.texts = {index: texts for index, texts in enumerate(streams)}
        database = inputs.mixed_database(scale.mixed_tpox, scale.mixed_xmark)
        self.databases = {"mixed": database}
        advisor = IndexAdvisor(
            database, Workload.from_statements(streams[0]), compress="cluster"
        )
        try:
            budget = int(
                basic_candidate_bytes(advisor) * spec.STREAM_BUDGET_FRACTION
            )
        finally:
            advisor.session.close()
        self.ops = [
            ("mixed", index, algorithm, compress, budget)
            for index in self.texts
            for algorithm, compress in spec.STREAM_PIPELINES
        ]
        self._set_block()
        self.inputs_sha256 = inputs.sha256_of([streams, self.ops])
        # Warm every pipeline's code path on a short prefix.
        self.texts["warm"] = streams[0][: max(50, scale.stream_statements // 10)]
        for algorithm, compress in spec.STREAM_PIPELINES:
            self.recommend(("mixed", "warm", algorithm, compress, budget))
        self._reset()


# ----------------------------------------------------------------------
# serve_read_heavy / serve_write_heavy: requests through AdvisorServer
# ----------------------------------------------------------------------
class ServeJourney(Journey):
    """``AdvisorServer(database)`` with constructor defaults; the block
    is the request schedule, pulled by two client tasks that meet at a
    barrier before it repeats."""

    write_heavy = False

    def __init__(self, seed: int, scale: spec.Scale) -> None:
        super().__init__(seed, scale)
        self.loop = asyncio.new_event_loop()
        self.server: Optional[AdvisorServer] = None

    def close(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    def setup(self) -> None:
        self._reset()
        scale = self.scale
        self.pool = inputs.query_pool(self.seed, scale)
        self.database = inputs.mixed_database(
            scale.mixed_tpox, scale.mixed_xmark
        )
        _, total = materialize_serve_indexes(self.database, self.pool)
        self.advise_budget = int(total * spec.SERVE_ADVISE_BUDGET_FRACTION)
        self.schedule = inputs.serve_schedule(
            self.seed, scale, self.pool, self.advise_budget, self.write_heavy
        )
        self.block_ops = len(self.schedule)
        self.block_statements = sum(
            len(request["statements"]) if "statements" in request else 1
            for request in self.schedule
        )
        self.inputs_sha256 = inputs.sha256_of(self.schedule)
        self.server = AdvisorServer(self.database)
        #: request number (repetition x block size + position) -> Response
        self.responses: Dict[int, object] = {}
        self.loop.run_until_complete(self._warm_up())
        self.baseline = {
            "documents": len(self.database.collection("SDOC")),
            "journal": len(self.server.journal),
            "gate": self.server.gate.stats(),
            "snapshots": self.server.snapshots.stats(),
            "counters": dict(self.server.counters),
        }

    def request(self, number: int) -> Dict:
        return self.schedule[number % len(self.schedule)]

    async def _warm_up(self) -> None:
        """Start the server, fill the snapshot store and touch every
        request kind once (DML as an insert/delete pair, net zero)."""
        await self.server.start()
        rng = random.Random(self.seed)
        insert, symbol = inputs.insert_text(10_000_000, rng)
        requests = [{"kind": "query", "text": text} for text in self.pool[:10]]
        requests += [
            inputs.advise_request(
                kind, rng, self.pool, self.scale, self.advise_budget
            )
            for kind in ("whatif", "recommend")
        ]
        if self.write_heavy:
            requests += [
                {"kind": "dml", "text": insert},
                {"kind": "dml", "text": inputs.delete_text(symbol)},
            ]
        for request in requests:
            response = await self.server.dispatch(request)
            if not response.ok:
                raise RuntimeError(f"warm-up request failed: {response.error}")

    def run(self, seconds: float, tracer=None) -> None:
        self.loop.run_until_complete(self._drive(seconds, tracer))

    async def _drive(self, seconds: float, tracer) -> None:
        schedule, size = self.schedule, len(self.schedule)
        run_started = time.perf_counter()
        while True:
            repetition = len(self.repetitions)
            traced = tracer is not None and repetition % 2 == 1
            cursor = 0

            async def client() -> None:
                nonlocal cursor
                while cursor < size:
                    position = cursor
                    cursor += 1
                    request = schedule[position]
                    started = time.perf_counter()
                    response = await self.server.dispatch(request)
                    ended = time.perf_counter()
                    self.responses[repetition * size + position] = response
                    if response.ok:
                        self.ok(request["kind"], ended - started)
                    else:
                        self.fail(
                            f"request {position} {request['kind']}: "
                            f"{response.code} {response.error}"
                        )
                    if traced:
                        tracer.record(
                            f"op:{request['kind']}", position, started, ended
                        )

            self.begin()
            await asyncio.gather(*(client() for _ in range(spec.SERVE_CLIENTS)))
            self.end(traced)
            if time.perf_counter() - run_started >= seconds:
                break

    def layer_counters(self) -> Dict[str, float]:
        stats = self.server.stats()

        def moved(section: str, key: str) -> int:
            return stats[section].get(key, 0) - self.baseline[section].get(key, 0)

        served: Dict[str, int] = {}
        portfolio_calls = []
        for number, response in self.responses.items():
            if not response.ok:
                continue
            kind = self.request(number)["kind"]
            served[kind] = served.get(kind, 0) + 1
            if kind == "recommend":
                portfolio_calls.append(
                    response.value["portfolio"]["optimizer_calls_total"]
                )
        validated = moved("gate", "reads_validated")
        lookups = moved("snapshots", "hits") + moved("snapshots", "misses")
        dml, queries = served.get("dml", 0), served.get("query", 0)
        return {
            "optimizer.calls_per_recommend": (
                statistics.fmean(portfolio_calls) if portfolio_calls else 0.0
            ),
            "storage.gate_retry_ratio": (
                (moved("gate", "reads_torn") + moved("gate", "reads_refused"))
                / validated if validated else 0.0
            ),
            "storage.snapshot_hit_ratio": (
                moved("snapshots", "hits") / lookups if lookups else 0.0
            ),
            "storage.snapshot_bytes_per_dml": (
                moved("snapshots", "bytes_serialized") / dml if dml else 0.0
            ),
            "serve.read_retries_per_query": (
                moved("counters", "read_retries") / queries if queries else 0.0
            ),
        }


class ServeReadHeavy(ServeJourney):
    name = "serve_read_heavy"


class ServeWriteHeavy(ServeJourney):
    name = "serve_write_heavy"
    write_heavy = True


# ----------------------------------------------------------------------
# online_drift: the online-daemon journey
# ----------------------------------------------------------------------
class OnlineDrift(Journey):
    """The block is one replay of the drifting stream through a fresh
    daemon on a fresh database, one ``ingest`` at a time."""

    name = "online_drift"

    def __init__(self, seed: int, scale: spec.Scale) -> None:
        super().__init__(seed, scale)
        spec.OUT_DIR.mkdir(exist_ok=True)
        self.journal_dir = tempfile.mkdtemp(
            prefix="journal-", dir=spec.OUT_DIR
        )

    def close(self) -> None:
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    def _reset(self) -> None:
        super()._reset()
        self.timed_seconds = 0.0
        self.cycles_considered = 0
        self.cycles_tuned = 0
        self.cycle_calls = 0
        #: Cycle actions of the first replay, for the traced probe.
        self.first_actions: List[str] = []

    def setup(self) -> None:
        self._reset()
        #: Never tuned: sizes the budget and scores benefit_fraction.
        self.pristine = self._database()
        self.texts = inputs.drift_stream(self.seed, self.scale)
        self.budget = online_budget(self.pristine, self.texts)
        self.block_ops = self.block_statements = len(self.texts)
        self.inputs_sha256 = inputs.sha256_of([self.texts, self.budget])
        warm = self.texts[: 20 * spec.ONLINE_POLICY["cycle_interval"]]
        self._replay(warm, "warm")
        self._reset()

    def _database(self):
        return inputs.mixed_database(
            self.scale.small_tpox, self.scale.small_xmark
        )

    def _replay(self, texts: List[str], label, tracer=None) -> None:
        daemon = online_daemon(
            self._database(),
            self.budget,
            str(Path(self.journal_dir) / f"replay-{label}.journal"),
        )
        self.begin()
        for position, text in enumerate(texts):
            started = time.perf_counter()
            report = daemon.ingest(text)
            ended = time.perf_counter()
            self.ok("ingest", ended - started)
            if report is not None and report.cycle_optimizer_calls:
                self.ok("cycle", ended - started, counted=False)
                self.cycle_calls += report.cycle_optimizer_calls
                self.cycles_tuned += 1
            if tracer is not None:
                tracer.record("op:ingest", position, started, ended)
        self.timed_seconds += self.end(tracer is not None)
        self.cycles_considered += daemon.counters["cycles_considered"]
        if not self.first_actions:
            self.first_actions = [report.action for report in daemon.reports]
        check.replay(self, daemon, label)

    def run(self, seconds: float, tracer=None) -> None:
        # ``seconds`` bounds the timed sections; each replay's database
        # is built, and its outcome checked, between them.
        while self.timed_seconds < seconds:
            repetition = len(self.repetitions)
            traced = tracer if repetition % 2 == 1 else None
            self._replay(self.texts, repetition, traced)

    def layer_counters(self) -> Dict[str, float]:
        return {
            "optimizer.calls_per_recommend": (
                self.cycle_calls / self.cycles_tuned if self.cycles_tuned else 0.0
            ),
            "online.tuned_cycle_ratio": (
                self.cycles_tuned / self.cycles_considered
                if self.cycles_considered else 0.0
            ),
        }


JOURNEYS = {
    journey.name: journey
    for journey in (
        AdviseSweep, AdviseStream, ServeReadHeavy, ServeWriteHeavy, OnlineDrift
    )
}
