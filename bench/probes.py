"""Layer probes: the per-layer metrics of a traced run.

Times come from micro-benchmarks over one seeded fixture (the mixed
database, with and without the serve configuration, the stream texts
and a small daemon database), the same in every workload's traced run;
they time calls into each layer's public functions from outside.  Where
the harness replays a journey step by step (a served request, a daemon
replay) every layer call sits in a span, so a layer's self time is its
span minus its children.  Ratios and counts come from the workload's own
run (:meth:`journeys.Journey.layer_counters`).
"""

from __future__ import annotations

import asyncio
import random
import re
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.advisor import IndexAdvisor
from repro.core.benefit import reconcile_configuration
from repro.core.candidates import CandidateIndex
from repro.core.compression import compress_workload
from repro.core.config import IndexConfiguration
from repro.core.whatif import analyze
from repro.online.journal import DaemonJournal
from repro.online.window import StatementWindow
from repro.optimizer.executor import Executor
from repro.optimizer.rewriter import extract_all_requests
from repro.optimizer.session import WhatIfSession
from repro.parallel import create_session
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.serve import AdvisorServer
from repro.serve.portfolio import run_portfolio
from repro.storage.database import EpochGate
from repro.storage.index import IndexValueType
from repro.storage.snapshots import SnapshotStore
from repro.storage.statistics import collect_statistics
from repro.workloads import tpox
from repro.xmlmodel.parser import parse_document
from repro.xpath.patterns import parse_pattern

import inputs
import journeys
import spec

SECURITIES = "SDOC"


#: A probe's result: (seconds, or the value itself for a ratio; the
#: number of timed calls behind it).
Sample = Tuple[float, int]


def per_call(fn: Callable, items: Iterable, reps: int = 1) -> Sample:
    """Seconds per call of ``fn`` over ``items``: each rep loops over the
    same items, and the fastest rep is kept (interference only slows a
    loop down, and a loop is long enough to hold its share of garbage
    collections)."""
    items = list(items)
    fastest = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        for item in items:
            fn(item)
        fastest = min(fastest, time.perf_counter() - started)
    return fastest / max(1, len(items)), reps * len(items)


def fastest_of(samples: Sequence[Sample]) -> Sample:
    """Reps that each needed fresh inputs: keep the fastest."""
    return min(value for value, _ in samples), sum(n for _, n in samples)


def each_call(fn: Callable, items: Iterable) -> List[float]:
    """Seconds of every single call of ``fn`` over ``items``."""
    seconds = []
    for item in items:
        started = time.perf_counter()
        fn(item)
        seconds.append(time.perf_counter() - started)
    return seconds


def median_of(seconds: Sequence[float]) -> Sample:
    """Single calls -- distinct items, or one call that allocates enough
    to provoke its own collections: the median is the typical one."""
    return (statistics.median(seconds) if seconds else 0.0), len(seconds)


class Fixture:
    """Seeded inputs every probe shares."""

    def __init__(self, seed: int, scale: spec.Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.reps = scale.probe_reps
        self.rng = random.Random(seed)
        self.pool = inputs.query_pool(seed, scale)
        self.plain = inputs.mixed_database(scale.mixed_tpox, scale.mixed_xmark)
        self.indexed = inputs.mixed_database(scale.mixed_tpox, scale.mixed_xmark)
        self.configuration, total = journeys.materialize_serve_indexes(
            self.indexed, self.pool
        )
        self.advise_budget = int(total * spec.SERVE_ADVISE_BUDGET_FRACTION)
        for database in (self.plain, self.indexed):
            for name in database.collections:
                database.runstats(name)
        self.mixed_texts = inputs.sweep_statements(seed, scale)["mixed"]
        self.mixed = Workload.from_statements(self.mixed_texts)
        self.stream_texts = inputs.stream_texts(
            scale.probe_stream, seed, scale.mixed_tpox[0],
            spec.STREAM_UPDATE_FRACTION,
        )
        self.stream = Workload.from_statements(self.stream_texts)
        self.documents = [
            tpox.security_document(30_000_000 + i, self.rng)
            for i in range(8 * self.reps)
        ]

    def advisor(self) -> IndexAdvisor:
        """A cold advisor over the 19 mixed statements, no real indexes."""
        return IndexAdvisor(self.plain, Workload(self.mixed.entries))


# ----------------------------------------------------------------------
# xmlmodel, xpath, query
# ----------------------------------------------------------------------
def _renamed(pattern_text: str, suffix: str) -> str:
    return re.sub(
        r"[A-Za-z_][\w.\-]*", lambda m: m.group(0) + suffix, pattern_text
    )


def parsing_probes(fx: Fixture) -> Dict[str, Sample]:
    advisor = fx.advisor()
    try:
        candidates = list(advisor.candidates)
    finally:
        advisor.session.close()
    pattern_texts = sorted({str(c.pattern) for c in candidates})
    # Containment is memoised on the pattern texts, so every rep renames
    # the tags: same shapes, pairs the cache has never seen.
    covers = []
    for rep in range(fx.reps):
        stamp = f"_{fx.seed}r{rep}t{time.perf_counter_ns()}"
        fresh = [parse_pattern(_renamed(t, stamp)) for t in pattern_texts]
        pairs = [(p, q) for p in fresh for q in fresh if p is not q]
        covers.append(per_call(lambda pair: pair[0].covers(pair[1]), pairs))
    sweep = [
        (c.pattern, path)
        for c in candidates
        for path in fx.plain.runstats(c.collection).path_counts
    ]
    return {
        "xmlmodel.parse_doc_us": per_call(parse_document, fx.documents, fx.reps),
        "xpath.parse_pattern_us": per_call(parse_pattern, pattern_texts, fx.reps),
        "xpath.covers_us": fastest_of(covers),
        "xpath.match_sweep_us": per_call(
            lambda pair: pair[0].matches(pair[1]), sweep, fx.reps
        ),
        "query.parse_statement_us": per_call(
            parse_statement, fx.stream_texts, fx.reps
        ),
        "optimizer.extract_requests_us": per_call(
            extract_all_requests,
            [entry.statement for entry in fx.stream],
            fx.reps,
        ),
    }


# ----------------------------------------------------------------------
# optimizer: what-if calls and execution
# ----------------------------------------------------------------------
def whatif_tasks(fx: Fixture, session: WhatIfSession) -> List[tuple]:
    """Every mixed statement against every basic candidate alone."""
    advisor = fx.advisor()
    try:
        basics = advisor.candidates.basics()
    finally:
        advisor.session.close()
    return [
        (entry.statement, session.definitions_for([candidate]))
        for entry in fx.mixed
        for candidate in basics
    ]


def optimizer_probes(fx: Fixture, journey) -> Dict[str, Sample]:
    session = WhatIfSession(fx.plain)
    tasks = whatif_tasks(fx, session)
    whatif = per_call(
        lambda task: session.evaluate(task[0], task[1], use_cache=False),
        tasks, fx.reps,
    )
    enumerate_ = []
    for _ in range(fx.reps):
        cold = WhatIfSession(fx.plain)
        enumerate_.append(
            per_call(cold.enumerate, [entry.statement for entry in fx.mixed])
        )
    queries = [
        parse_statement(text) for text in fx.rng.sample(fx.pool, 20 * fx.reps)
    ]
    scans, indexed, examined, rows = [], [], 0, 0
    for statement in queries:
        # A fresh Executor per statement, as the server makes one per
        # request: the plan is never cached.
        started = time.perf_counter()
        scan = Executor(fx.plain).execute(statement, collect_output=True)
        middle = time.perf_counter()
        fast = Executor(fx.indexed).execute(statement, collect_output=True)
        indexed.append(time.perf_counter() - middle)
        scans.append(middle - started)
        examined += fast.docs_examined
        rows += max(1, fast.rows)
        if scan.rows != fast.rows or sorted(scan.output) != sorted(fast.output):
            journey.fail(
                f"indexed plan returned {fast.rows} rows, scan {scan.rows}: "
                f"{statement.describe()}",
                counted=False,
            )
    return {
        "optimizer.whatif_call_us": whatif,
        "optimizer.enumerate_call_us": fastest_of(enumerate_),
        "optimizer.execute_scan_ms": median_of(scans),
        "optimizer.execute_indexed_ms": median_of(indexed),
        "optimizer.docs_examined_per_row": (examined / rows, len(queries)),
    }


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
def storage_probes(fx: Fixture) -> Dict[str, Sample]:
    def insert_then_delete(database) -> tuple:
        ids = []
        inserts = each_call(
            lambda text: ids.append(database.insert_document(SECURITIES, text)),
            fx.documents,
        )
        deletes = each_call(
            lambda doc_id: database.delete_document(SECURITIES, doc_id), ids
        )
        return inserts, deletes

    inserts, deletes = insert_then_delete(fx.indexed)
    plain_inserts, _ = insert_then_delete(fx.plain)

    create = []
    for position, candidate in enumerate(fx.configuration):
        name = f"probe_{position}"
        started = time.perf_counter()
        fx.plain.create_index(candidate.definition(name, virtual=False))
        create.append(time.perf_counter() - started)
        fx.plain.drop_index(name)

    collections = list(fx.plain.collections.values())
    runstats = [
        sum(each_call(collect_statistics, collections)) for _ in range(fx.reps)
    ]

    store = SnapshotStore()
    store.snapshot(fx.indexed)
    compose = each_call(store.snapshot, [fx.indexed] * fx.reps)
    serialize = []
    for text in fx.documents[: fx.reps]:
        doc_id = fx.indexed.insert_document(SECURITIES, text)
        serialize += each_call(store.snapshot, [fx.indexed])
        fx.indexed.delete_document(SECURITIES, doc_id)

    gate = EpochGate(fx.indexed)
    touched = [SECURITIES]
    gate_read = per_call(
        lambda _: gate.validate(gate.read_view(touched)), range(2000), fx.reps
    )
    return {
        "storage.insert_doc_ms": median_of(inserts),
        "storage.delete_doc_ms": median_of(deletes),
        "storage.insert_doc_noindex_ms": median_of(plain_inserts),
        "storage.create_index_ms": median_of(create),
        "storage.runstats_ms": median_of(runstats),
        "storage.snapshot_compose_ms": median_of(compose),
        "storage.snapshot_serialize_ms": median_of(serialize),
        "storage.gate_read_us": gate_read,
    }


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def core_probes(fx: Fixture) -> Dict[str, Sample]:
    out: Dict[str, Sample] = {}
    candidates_seconds, benefit_probes = [], []
    budget = 0
    for _ in range(fx.reps):
        advisor = fx.advisor()
        try:
            started = time.perf_counter()
            candidates = advisor.candidates
            candidates_seconds.append(time.perf_counter() - started)
            budget = journeys.basic_candidate_bytes(advisor) // 2
            evaluator, empty = advisor.evaluator, IndexConfiguration()
            benefit_probes.append(
                per_call(lambda c: evaluator.delta_benefit(empty, c), candidates)
            )
        finally:
            advisor.session.close()
    out["core.candidates_ms"] = median_of(candidates_seconds)
    out["core.benefit_eval_us"] = fastest_of(benefit_probes)
    for algorithm in spec.ALGORITHMS:
        seconds = []
        for _ in range(min(fx.reps, 2)):
            advisor = fx.advisor()
            try:
                advisor.evaluator  # candidates + evaluator built, untimed
                started = time.perf_counter()
                advisor.recommend(budget, algorithm=algorithm)
                seconds.append(time.perf_counter() - started)
            finally:
                advisor.session.close()
        out[f"core.search_ms.{algorithm}"] = median_of(seconds)
    per_thousand = 1000.0 / max(1, len(fx.stream))
    for mode in ("cluster", "template", "exact"):
        out[f"core.compress_ms.{mode}"] = median_of(
            [
                seconds * per_thousand
                for seconds in each_call(
                    lambda _: compress_workload(fx.stream, mode),
                    range(fx.reps),
                )
            ]
        )
    out["core.reconcile_ms"] = median_of(
        each_call(
            lambda _: reconcile_configuration(
                WhatIfSession(fx.plain), fx.stream, fx.configuration
            ),
            range(fx.reps),
        )
    )
    return out


# ----------------------------------------------------------------------
# parallel
# ----------------------------------------------------------------------
def parallel_probes(fx: Fixture) -> Dict[str, Sample]:
    """The same ``evaluate_batch`` task list, serial against two process
    workers -- the measured input ROADMAP item 2 asks for."""
    serial = WhatIfSession(fx.plain)
    tasks = whatif_tasks(fx, serial)
    serial_batches = each_call(
        lambda _: serial.evaluate_batch(tasks, use_cache=False),
        range(fx.reps),
    )
    session = create_session(fx.plain, workers=2, executor="process")
    try:
        session.register_statements(entry.statement for entry in fx.mixed)
        tasks = whatif_tasks(fx, session)
        pool_start = each_call(
            lambda _: session.evaluate_batch(tasks[:4], use_cache=False), [0]
        )
        process_batches = each_call(
            lambda _: session.evaluate_batch(tasks, use_cache=False),
            range(fx.reps),
        )
    finally:
        session.close()
    return {
        "parallel.pool_start_ms": median_of(pool_start),
        "parallel.batch_ms.serial": median_of(serial_batches),
        "parallel.batch_ms.process2": median_of(process_batches),
        "parallel.batch_speedup_w2": (
            statistics.median(serial_batches)
            / statistics.median(process_batches),
            fx.reps,
        ),
    }


# ----------------------------------------------------------------------
# serve: each request served by a quiet server, then step by step
# ----------------------------------------------------------------------
def _probe_requests(fx: Fixture) -> List[tuple]:
    """(served request, direct request) pairs.  Reads are served and
    replayed as the same request; a write is replayed as its twin on a
    different document, so both sides do the same work."""
    rng, scale = fx.rng, fx.scale
    reads = [
        {"kind": "query", "text": text}
        for text in rng.sample(fx.pool, 20 * fx.reps)
    ]
    for kind, count in (("whatif", 3), ("recommend", 2)):
        reads += [
            inputs.advise_request(kind, rng, fx.pool, scale, fx.advise_budget)
            for _ in range(count)
        ]
    pairs = [(request, request) for request in reads]
    for position in range(4 * fx.reps):
        inserts, deletes = [], []
        for twin in (0, 1):
            text, symbol = inputs.insert_text(
                20_000_000 + 2 * position + twin, rng
            )
            inserts.append({"kind": "dml", "text": text})
            deletes.append({"kind": "dml", "text": inputs.delete_text(symbol)})
        pairs += [tuple(inserts), tuple(deletes)]
    return pairs


def _collections_of(statement) -> List[str]:
    if hasattr(statement, "left"):
        return [statement.left.collection, statement.right.collection]
    return [statement.collection]


def _direct(server: AdvisorServer, request: Dict, tracer, op: int):
    """The journey's steps made by the harness, one span per layer
    call; returns the rows (query, dml) the served response must match."""
    database, gate, store = server.database, server.gate, server.snapshots
    kind = request["kind"]
    with tracer.span(f"probe:{kind}", op):
        if kind == "query":
            with tracer.span("query.parse_statement"):
                statement = parse_statement(request["text"])
            touched = _collections_of(statement)
            with tracer.span("storage.gate.read_view"):
                token = gate.read_view(touched)
            with tracer.span("optimizer.execute"):
                result = Executor(database).execute(
                    statement, collect_output=True
                )
            with tracer.span("storage.gate.validate"):
                gate.validate(token)
            return result.rows
        if kind == "dml":
            with tracer.span("query.parse_statement"):
                statement = parse_statement(request["text"])
            gate.begin_write(statement.collection)
            try:
                with tracer.span("optimizer.execute"):
                    result = Executor(database).execute(statement)
                with tracer.span("storage.rebuild_dirty_summaries"):
                    database.runstats(
                        statement.collection
                    ).rebuild_dirty_summaries()
            finally:
                gate.end_write(statement.collection)
            return result.rows
        with tracer.span("query.from_statements"):
            workload = Workload.from_statements(request["statements"])
        with tracer.span("storage.snapshot"):
            snapshot = store.snapshot(database)
        if kind == "whatif":
            candidates = []
            for text in request["patterns"]:
                pattern, _, kind_text = text.partition(":")
                candidates.append(
                    CandidateIndex(
                        parse_pattern(pattern),
                        IndexValueType.NUMERIC
                        if kind_text == "numeric"
                        else IndexValueType.STRING,
                        request["collection"],
                    )
                )
            with tracer.span("core.analyze"):
                analyze(
                    snapshot, workload, IndexConfiguration(candidates),
                    session=WhatIfSession(snapshot),
                )
        else:
            with tracer.span("serve.run_portfolio"):
                run_portfolio(
                    snapshot, workload, request["budget_bytes"],
                    snapshots=store,
                )
    return None


def serve_probes(fx: Fixture, journey, tracer) -> Dict[str, Sample]:
    """``serve.dispatch_overhead_ms.<kind>`` = median served latency on
    a quiet server minus the median of the same requests' layer calls
    made directly (which side goes first alternates, so neither always
    finds the caches warm)."""
    own = isinstance(journey, journeys.ServeJourney)
    if own:
        server, loop = journey.server, journey.loop
    else:
        server, loop = AdvisorServer(fx.indexed), asyncio.new_event_loop()
        loop.run_until_complete(server.start())
        server.snapshots.snapshot(server.database)  # fill the blob cache
    served: Dict[str, List[float]] = {}
    direct: Dict[str, List[float]] = {}

    def serve_one(request):
        response = loop.run_until_complete(server.dispatch(request))
        if response.ok:
            served.setdefault(request["kind"], []).append(
                response.elapsed_seconds
            )
            return response.value.get("rows")
        journey.fail(f"probe {request['kind']} failed: {response.error}")
        return None

    def direct_one(request, op):
        started = time.perf_counter()
        rows = _direct(server, request, tracer, op)
        direct.setdefault(request["kind"], []).append(
            time.perf_counter() - started
        )
        return rows

    try:
        for op, (request, twin) in enumerate(_probe_requests(fx)):
            if op % 2:
                expected, rows = serve_one(request), direct_one(twin, op)
            else:
                rows, expected = direct_one(twin, op), serve_one(request)
            if rows is not None and expected is not None and rows != expected:
                journey.fail(
                    f"direct {request['kind']} returned {rows} rows, served "
                    f"{expected}",
                    counted=False,
                )
    finally:
        if not own:
            loop.run_until_complete(server.stop())
            loop.close()

    def admit(_):
        with server.admission.admit("default", "query"):
            pass

    out = {
        f"serve.dispatch_overhead_ms.{kind}": (
            statistics.median(served[kind]) - statistics.median(direct[kind]),
            len(served[kind]),
        )
        for kind in served
        if kind in direct
    }
    out["serve.admission_us"] = per_call(admit, range(2000), fx.reps)
    out["serve.portfolio_ms"] = median_of(
        tracer.self_seconds().get("serve.run_portfolio", [])
    )
    return out


# ----------------------------------------------------------------------
# online
# ----------------------------------------------------------------------
def online_probes(fx: Fixture, journey, tracer) -> Dict[str, Sample]:
    """One daemon replay driven ingest by ingest, every call timed and
    classified by the cycle report it returned."""
    texts = inputs.drift_stream(fx.seed, fx.scale)
    database = inputs.mixed_database(fx.scale.small_tpox, fx.scale.small_xmark)
    budget = journeys.online_budget(database, texts)
    texts = texts[: max(300, len(texts) // 2)]
    window = StatementWindow(
        spec.ONLINE_POLICY["window_capacity"],
        collections=lambda: set(database.collections),
    )
    out = {"online.ingest_us": per_call(window.ingest, texts)}
    spec.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=spec.OUT_DIR) as scratch:
        daemon = journeys.online_daemon(
            database, budget, str(Path(scratch) / "probe.journal")
        )
        skipped, tuned, applied = [], [], []
        for position, text in enumerate(texts):
            started = time.perf_counter()
            report = daemon.ingest(text)
            ended = time.perf_counter()
            if report is None:
                continue
            tracer.record(f"online.cycle:{report.action}", position, started, ended)
            if report.action == "applied":
                applied.append(ended - started)
            elif report.cycle_optimizer_calls:
                tuned.append(ended - started)
            else:
                skipped.append(ended - started)
        actions = [report.action for report in daemon.reports]
        expected = getattr(journey, "first_actions", [])[: len(actions)]
        if expected and actions != expected:
            journey.fail(
                "probe replay's cycle actions diverged from replay 0",
                counted=False,
            )
        out["online.drift_distance_us"] = per_call(
            lambda _: daemon.window.drift_from(daemon.baseline), range(200)
        )
        journal = DaemonJournal(str(Path(scratch) / "write.journal"))
        state = daemon.journal.load()
        out["online.journal_write_ms"] = median_of(
            each_call(lambda _: journal.write(state), range(4 * fx.reps))
        )
    # A tuned cycle that changes nothing is search only; an applied one
    # adds create/drop/verify on top.
    search_only = tuned or applied
    out["online.cycle_skip_ms"] = median_of(skipped)
    out["online.cycle_tune_ms"] = median_of(search_only)
    out["online.apply_ms"] = (
        max(0.0, statistics.median(applied) - statistics.median(search_only))
        if applied else 0.0,
        len(applied),
    )
    return out


# ----------------------------------------------------------------------
SCALE_OF_UNIT = {"us": 1e6, "ms": 1e3}


def measure(journey, tracer, metrics: Dict[str, dict]) -> Dict[str, dict]:
    """Every ``PER_LAYER`` metric as ``name -> {value, unit, n}``;
    ``metrics`` are the journey's own end-to-end numbers, three of which
    ride along in the per-layer list."""
    if isinstance(journey, journeys.AdviseJourney):
        journey.probe(tracer)
    fx = Fixture(journey.seed, journey.scale)
    samples: Dict[str, Sample] = {}
    samples.update(parsing_probes(fx))
    samples.update(optimizer_probes(fx, journey))
    samples.update(storage_probes(fx))
    samples.update(core_probes(fx))
    samples.update(parallel_probes(fx))
    samples.update(serve_probes(fx, journey, tracer))
    samples.update(online_probes(fx, journey, tracer))
    counters = journey.layer_counters()
    counters["bench.trace_overhead"] = journey.trace_overhead()
    layers = {}
    for metric in spec.PER_LAYER:
        if metric.name in samples:
            value, n = samples[metric.name]
            value *= SCALE_OF_UNIT.get(metric.unit, 1.0)
        elif metric.name in metrics:
            value, n = metrics[metric.name]["value"], metrics[metric.name]["n"]
        else:
            # A ratio or count of a layer this journey never enters.
            value, n = counters.get(metric.name, 0.0), 1
        layers[metric.name] = {"value": value, "unit": metric.unit, "n": n}
    return layers
