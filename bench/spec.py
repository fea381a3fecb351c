"""Frozen benchmark definition: scales, workloads and metric names.

Everything a later change must not move lives here -- op counts, the
default and held-out seeds, metric names with units and bounds.
``BENCHMARK.json`` at the repository root mirrors :data:`END_TO_END` and
:data:`PER_LAYER` (the smoke test pins the two against each other).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Where runs leave traces, daemon journals and scratch files.
OUT_DIR = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 11
#: Never used while a change is being written; a claimed gain must also
#: hold here (choosing-metrics guide, section 6).
HELD_OUT_SEED = 1229

#: Closed-loop client tasks of the serve workloads.  Never more than the
#: cores of the reference box (2); the harness refuses to start below it.
SERVE_CLIENTS = 2
#: Set-up is repeated this often per run and ``setup_s`` is the median.
SETUP_REPEATS = 3
DEFAULT_SECONDS = 12

#: Database generator seeds are frozen (the values every earlier BENCH
#: file used): ``--seed`` moves statement literals, stream arrivals,
#: request schedules and op order, not the amount of data.
TPOX_DATA_SEED = 42
XMARK_DATA_SEED = 7

ALGORITHMS = (
    "greedy",
    "greedy_heuristics",
    "topdown_lite",
    "topdown_full",
    "dp",
    "ilp",
)
BUDGET_FRACTIONS = (0.1, 0.25, 0.5, 1.0)
#: (algorithm, compression) pipelines of ``advise_stream``.
STREAM_PIPELINES = (
    ("ilp", "cluster"),
    ("greedy_heuristics", "template"),
    ("greedy_heuristics", "off"),
)
STREAM_BUDGET_FRACTION = 0.25
#: Configuration materialised under the serve workloads.
SERVE_INDEX_ALGORITHM = "greedy_heuristics"
SERVE_INDEX_BUDGET_FRACTION = 0.5
SERVE_ADVISE_BUDGET_FRACTION = 0.25
WHATIF_PATTERNS = ("/Security/Symbol", "/Security/Yield:numeric")
#: A delete targets a symbol whose insert sits at least this many
#: requests earlier, so with two clients the insert has committed.
DELETE_LAG = 8
LIVE_EXTRA_DOCS = 40  # inserts of a block not yet deleted, at most
CHECK_QUERY_SAMPLE = 50  # 1-in-N served queries re-run as a scan

#: The BENCH_PR8 daemon policy (``budget_bytes`` is filled in per run).
ONLINE_POLICY = dict(
    algorithm="greedy_heuristics",
    window_capacity=150,
    cycle_interval=25,
    drift_threshold=0.3,
    min_relative_improvement=0.02,
    cooldown_cycles=1,
    cycle_call_budget=400,
    compress="template",
    retries=1,
)
ONLINE_BUDGET_FRACTION = 0.3
ONLINE_UPDATE_FRACTION = 0.02
STREAM_UPDATE_FRACTION = 0.02


@dataclass(frozen=True)
class Scale:
    """Input sizes of one scale.  ``full`` is what ``BENCHMARK.json``
    runs; ``smoke`` exists for the pytest smoke run only."""

    tpox: Tuple[int, int, int]  # securities, orders, customers
    xmark: Tuple[int, int, int]  # items, persons, auctions
    mixed_tpox: Tuple[int, int, int]
    mixed_xmark: Tuple[int, int, int]
    small_tpox: Tuple[int, int, int]  # online_drift's database
    small_xmark: Tuple[int, int, int]
    stream_statements: int
    streams: int
    query_pool: int
    read_block: Tuple[int, int, int]  # query, whatif, recommend per block
    write_block: Tuple[int, int, int, int]  # dml, query, whatif, recommend
    whatif_statements: int
    recommend_statements: int
    drift_statements: int
    drift_phases: int
    probe_stream: int  # statements in the probe fixture's stream sample
    probe_reps: int


SCALES: Dict[str, Scale] = {
    "full": Scale(
        tpox=(250, 250, 120),
        xmark=(200, 200, 200),
        mixed_tpox=(120, 120, 60),
        mixed_xmark=(100, 100, 100),
        small_tpox=(60, 60, 30),
        small_xmark=(50, 50, 50),
        stream_statements=1500,
        streams=2,
        query_pool=1500,
        read_block=(247, 2, 1),
        write_block=(94, 96, 7, 3),
        whatif_statements=10,
        recommend_statements=30,
        drift_statements=6000,
        drift_phases=6,
        probe_stream=1000,
        probe_reps=3,
    ),
    "smoke": Scale(
        tpox=(40, 40, 20),
        xmark=(30, 30, 30),
        mixed_tpox=(30, 30, 15),
        mixed_xmark=(20, 20, 20),
        small_tpox=(30, 30, 15),
        small_xmark=(20, 20, 20),
        stream_statements=150,
        streams=2,
        query_pool=120,
        read_block=(57, 2, 1),
        write_block=(28, 28, 3, 1),
        whatif_statements=4,
        recommend_statements=8,
        drift_statements=300,
        drift_phases=3,
        probe_stream=120,
        probe_reps=1,
    ),
}


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: Request/op kind whose latency is ``op_p50_ms``/``op_p95_ms``.
    primary: str
    why: str


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "advise_sweep",
        "recommend",
        "direct recommend, 3 databases x 6 algorithms x 4 budgets on 8-19 "
        "statements: optimizer what-if calls and core search dominate, "
        "parsing and serving do nothing",
    ),
    WorkloadSpec(
        "advise_stream",
        "recommend",
        "recommend on 1500-statement Zipfian streams through 3 compression "
        "pipelines: statement parsing, compression and reconciliation "
        "dominate, a what-if micro-win is diluted",
    ),
    WorkloadSpec(
        "serve_read_heavy",
        "query",
        "AdvisorServer, 2 closed-loop clients, 98.8% query + 1.2% advise, "
        "no DML: executor, per-request parse and dispatch dominate; gate "
        "never refuses and every snapshot blob is a cache hit",
    ),
    WorkloadSpec(
        "serve_write_heavy",
        "dml",
        "same server, 47.5% DML + 47.5% query + 5% advise: index and "
        "statistics maintenance, snapshot re-serialisation after writes "
        "and reader/writer gate collisions dominate",
    ),
    WorkloadSpec(
        "online_drift",
        "ingest",
        "OnlineAdvisor replays of a 6000-statement 6-phase drifting stream: "
        "window ingest, drift scoring, hysteresis and index apply/verify "
        "dominate; core search runs only in the few tuned cycles",
    ),
)
WORKLOAD_NAMES = tuple(spec.name for spec in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline by which the metric may worsen before
    #: ``--compare`` calls a regression; ``None`` = informational.
    bound: Optional[float] = None
    #: Workloads that emit it (empty = all).
    workloads: Tuple[str, ...] = ()


SERVE = ("serve_read_heavy", "serve_write_heavy")
ADVISE = ("advise_sweep", "advise_stream")

#: Emitted by every workload with ``--trace 0``; exactly the
#: ``end_to_end`` list of ``BENCHMARK.json``.
#: The reference box is a shared 2-core VM whose speed drifts by up to
#: 1.5x over minutes: ten runs on ten seeds spread (IQR / median)
#: 0.04-0.20 on every throughput (RESULTS.md), so each timing gets the
#: largest bound a contract metric may have.
TIMING_BOUND = 0.25

END_TO_END: Tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", TIMING_BOUND),
    Metric("statements_per_s", "1/s", "higher", TIMING_BOUND),
    Metric("cpu_ms_per_op", "ms", "lower", TIMING_BOUND),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", TIMING_BOUND),
)

#: Per-kind latency metrics: name -> (op kind, percentile fraction).
KIND_LATENCY: Dict[str, Tuple[str, float]] = {}


def _latency(kind: str, percent: int, workloads) -> Metric:
    name = f"{kind}_p{percent}_ms"
    KIND_LATENCY[name] = (kind, percent / 100.0)
    return Metric(name, "ms", "lower", TIMING_BOUND, workloads)


#: Per-kind latencies and quality guards: printed, written to ``--out``
#: and judged by ``--compare``, but only on the workloads that have the
#: kind, so they cannot sit in ``BENCHMARK.json``'s uniform list.
PER_KIND: Tuple[Metric, ...] = (
    # Latency of the primary op.  On the reference box its spread over
    # ten seeds reached 0.29 (median) and 0.23 (tail) of the median --
    # at or past the largest bound a contract metric may have -- so both
    # ride in the unbounded per-layer list and are judged here only.
    Metric("op_p50_ms", "ms", "lower", TIMING_BOUND),
    Metric("op_p95_ms", "ms", "lower", TIMING_BOUND),
    _latency("recommend", 50, ADVISE + SERVE),
    _latency("recommend", 95, ("advise_sweep",)),
    _latency("query", 50, SERVE),
    _latency("query", 99, ("serve_read_heavy",)),
    _latency("query", 95, ("serve_write_heavy",)),
    _latency("dml", 50, ("serve_write_heavy",)),
    _latency("dml", 95, ("serve_write_heavy",)),
    _latency("whatif", 50, SERVE),
    _latency("cycle", 50, ("online_drift",)),
    Metric(
        "benefit_fraction", "ratio", "higher", 0.0,
        ADVISE + ("online_drift",),
    ),
    Metric("failed_ops_ratio", "ratio", "lower", 0.0),
)

_SEARCH = tuple(
    Metric(f"core.search_ms.{algorithm}", "ms", "lower")
    for algorithm in ALGORITHMS
)
_COMPRESS = tuple(
    Metric(f"core.compress_ms.{mode}", "ms", "lower")
    for mode in ("cluster", "template", "exact")
)
_DISPATCH = tuple(
    Metric(f"serve.dispatch_overhead_ms.{kind}", "ms", "lower")
    for kind in ("query", "dml", "whatif", "recommend")
)

#: Emitted by every workload with ``--trace 1``; exactly the
#: ``per_layer`` list of ``BENCHMARK.json``.  Times come from the layer
#: probes over the seeded fixture (the same in every workload's traced
#: run); ratios and counts come from the workload's own traced pass and
#: read 0 where its journey never enters the layer.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("xmlmodel.parse_doc_us", "us", "lower"),
    Metric("xpath.parse_pattern_us", "us", "lower"),
    Metric("xpath.covers_us", "us", "lower"),
    Metric("xpath.match_sweep_us", "us", "lower"),
    Metric("query.parse_statement_us", "us", "lower"),
    Metric("query.parse_share", "ratio", "lower"),
    Metric("optimizer.extract_requests_us", "us", "lower"),
    Metric("optimizer.whatif_call_us", "us", "lower"),
    Metric("optimizer.enumerate_call_us", "us", "lower"),
    Metric("optimizer.calls_per_recommend", "count", "lower"),
    Metric("optimizer.cache_hit_ratio", "ratio", "higher"),
    Metric("optimizer.execute_scan_ms", "ms", "lower"),
    Metric("optimizer.execute_indexed_ms", "ms", "lower"),
    Metric("optimizer.docs_examined_per_row", "ratio", "lower"),
    Metric("storage.insert_doc_ms", "ms", "lower"),
    Metric("storage.delete_doc_ms", "ms", "lower"),
    Metric("storage.insert_doc_noindex_ms", "ms", "lower"),
    Metric("storage.create_index_ms", "ms", "lower"),
    Metric("storage.runstats_ms", "ms", "lower"),
    Metric("storage.snapshot_compose_ms", "ms", "lower"),
    Metric("storage.snapshot_serialize_ms", "ms", "lower"),
    Metric("storage.snapshot_hit_ratio", "ratio", "higher"),
    Metric("storage.snapshot_bytes_per_dml", "B", "lower"),
    Metric("storage.gate_read_us", "us", "lower"),
    Metric("storage.gate_retry_ratio", "ratio", "lower"),
    Metric("core.candidates_ms", "ms", "lower"),
    Metric("core.benefit_eval_us", "us", "lower"),
    *_SEARCH,
    *_COMPRESS,
    Metric("core.reconcile_ms", "ms", "lower"),
    Metric("parallel.pool_start_ms", "ms", "lower"),
    Metric("parallel.batch_ms.serial", "ms", "lower"),
    Metric("parallel.batch_ms.process2", "ms", "lower"),
    Metric("parallel.batch_speedup_w2", "ratio", "higher"),
    Metric("serve.portfolio_ms", "ms", "lower"),
    *_DISPATCH,
    Metric("serve.admission_us", "us", "lower"),
    Metric("serve.read_retries_per_query", "ratio", "lower"),
    Metric("online.ingest_us", "us", "lower"),
    Metric("online.drift_distance_us", "us", "lower"),
    Metric("online.cycle_skip_ms", "ms", "lower"),
    Metric("online.cycle_tune_ms", "ms", "lower"),
    Metric("online.apply_ms", "ms", "lower"),
    Metric("online.journal_write_ms", "ms", "lower"),
    Metric("online.tuned_cycle_ratio", "ratio", "lower"),
    Metric("bench.trace_overhead", "ratio", "lower"),
    # Not layers: end-to-end numbers without a contract bound (latency
    # percentiles too noisy for one, a quality guard that is 0 where
    # nothing is recommended, a ratio that must read 0).
    Metric("op_p50_ms", "ms", "lower"),
    Metric("op_p95_ms", "ms", "lower"),
    Metric("benefit_fraction", "ratio", "higher"),
    Metric("failed_ops_ratio", "ratio", "lower"),
)


def per_kind_for(workload: str) -> Tuple[Metric, ...]:
    return tuple(
        metric
        for metric in PER_KIND
        if not metric.workloads or workload in metric.workloads
    )


def judged_for(workload: str) -> Tuple[Metric, ...]:
    """Every bounded metric ``--compare`` judges on ``workload``."""
    return END_TO_END + per_kind_for(workload)
