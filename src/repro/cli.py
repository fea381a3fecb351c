"""Command-line interface.

Gives the reproduction the shape of a usable tool::

    python -m repro generate DBDIR --benchmark tpox --scale 200
    python -m repro stats DBDIR SDOC
    python -m repro query DBDIR "for \\$s in X('SDOC')/Security where ..."
    python -m repro explain DBDIR "..." [--with-recommendation ...]
    python -m repro recommend DBDIR --workload workload.xq --budget 100000
    python -m repro serve DBDIR --workload stream.xq --budget 100000
    python -m repro reproduce DBDIR fig2 table3 ...

Workload files contain statements separated by lines consisting of a
single ``;``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.advisor import IndexAdvisor
from repro.optimizer.executor import Executor
from repro.optimizer.session import WhatIfSession
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.robustness.errors import AdvisorError, ConfigError
from repro.storage.database import Database
from repro.storage.persist import load_database, save_database


def read_workload_file(path: str, strict: bool = False) -> Workload:
    """Parse a workload file: statements separated by ``;`` lines.

    A statement line may end with ``@ <frequency>`` on its separator line
    (``; @ 10`` gives the preceding statement frequency 10).  Malformed
    statements are skipped with a diagnostic unless ``strict``; see
    :meth:`Workload.from_text`.
    """
    workload = Workload.from_file(path, strict=strict)
    for diagnostic in workload.diagnostics:
        print(f"warning: {diagnostic}", file=sys.stderr)
    return workload


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads import tpox, xmark

    if args.benchmark == "tpox":
        db = tpox.build_database(
            num_securities=args.scale,
            num_orders=args.scale,
            num_customers=max(1, args.scale // 2),
            seed=args.seed,
        )
    else:
        db = xmark.build_database(
            num_items=args.scale,
            num_persons=args.scale,
            num_auctions=args.scale,
            seed=args.seed,
        )
    save_database(db, args.dbdir)
    total = sum(len(c) for c in db.collections.values())
    print(f"generated {args.benchmark} database at {args.dbdir}: "
          f"{total} documents in {len(db.collections)} collections")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    db = load_database(args.dbdir)
    if args.collection not in db.collections:
        db.create_collection(args.collection)
    count = 0
    for path in args.files:
        with open(path) as handle:
            db.insert_document(args.collection, handle.read())
        count += 1
    save_database(db, args.dbdir)
    print(f"loaded {count} documents into {args.collection}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    db = load_database(args.dbdir)
    stats = db.runstats(args.collection)
    print(f"collection {args.collection}: {stats.doc_count} documents, "
          f"{stats.total_nodes} nodes, {len(stats.path_counts)} distinct paths")
    storage = db.storage_stats()
    print(f"storage engine: {storage['stats_rescans']} stats rescans, "
          f"{storage['stats_delta_applies']} delta applies, "
          f"{storage['summary_rebuilds']} summary rebuilds")
    if args.tree:
        from repro.storage.schema import (
            build_dataguide,
            format_dataguide,
            recursive_tags,
        )

        guide = build_dataguide(stats)
        print(format_dataguide(guide))
        recursion = recursive_tags(guide)
        if recursion:
            print(f"recursive tags: {', '.join(recursion)}")
        return 0
    print(f"{'count':>8}  path")
    for path, count in sorted(
        stats.path_counts.items(), key=lambda kv: -kv[1]
    )[: args.limit]:
        print(f"{count:>8}  /" + "/".join(path))
    return 0


def cmd_path_stats(args: argparse.Namespace) -> int:
    from repro.storage.index import IndexValueType
    from repro.xpath.ast import Literal
    from repro.xpath.patterns import parse_pattern

    db = load_database(args.dbdir)
    stats = db.runstats(args.collection)
    pattern = parse_pattern(args.pattern)
    matches = stats.matching_paths(pattern)
    print(f"pattern {pattern} matches {len(matches)} distinct rooted paths, "
          f"{sum(c for _, c in matches)} nodes")
    for path, count in sorted(matches, key=lambda kv: -kv[1])[:10]:
        print(f"  {count:>7}  /" + "/".join(path))
    for value_type in IndexValueType:
        derived = stats.derive_index_statistics(pattern, value_type)
        print(
            f"virtual {value_type.value:>9} index: {derived.entry_count} entries, "
            f"{derived.distinct_keys} distinct keys, {derived.size_bytes} bytes, "
            f"{derived.levels} levels"
        )
    if args.probe is not None:
        try:
            literal = Literal(float(args.probe))
        except ValueError:
            literal = Literal(args.probe)
        for op in ("=", "<", ">"):
            sel = stats.selectivity(pattern, op, literal)
            print(f"selectivity({op} {literal}) = {sel:.4f}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    db = load_database(args.dbdir)
    statement = parse_statement(args.statement)
    result = Executor(db).execute(statement, collect_output=True)
    for line in result.output[: args.limit]:
        print(line)
    suffix = "" if len(result.output) <= args.limit else " (truncated)"
    print(
        f"-- {result.rows} rows, {result.docs_examined} documents examined, "
        f"indexes: {list(result.used_indexes) or 'none'}{suffix}"
    )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    db = load_database(args.dbdir)
    statement = parse_statement(args.statement)
    session = WhatIfSession(db)
    result = session.plan(statement)
    print(f"estimated cost: {result.estimated_cost:.2f}")
    print(result.explain())
    if args.enumerate:
        enumerated = session.enumerate(statement)
        print("\ncandidate index patterns (Enumerate Indexes mode):")
        for candidate in enumerated.candidates:
            print(f"  {candidate}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    import json

    if args.budget <= 0:
        print(
            f"error: --budget must be a positive number of bytes, got "
            f"{args.budget}; try e.g. --budget 200000",
            file=sys.stderr,
        )
        return 2
    from repro.cluster import (
        replicas_from_env,
        resolve_replicas,
        resolve_shards,
        shards_from_env,
    )
    from repro.robustness.budget import (
        call_budget_from_env,
        deadline_from_env,
        resolve_call_budget,
        resolve_deadline,
    )

    try:
        shards = resolve_shards(
            args.shards, default=shards_from_env(), option="--shards"
        )
        replicas = resolve_replicas(
            args.replicas, default=replicas_from_env(), option="--replicas"
        )
        # Typed validation (ConfigError names the option): zero/negative
        # deadlines and call budgets are operator error, exactly like
        # REPRO_SHARDS junk.  Absent flags fall back to
        # REPRO_DEADLINE / REPRO_CALL_BUDGET.
        deadline = (
            resolve_deadline(args.deadline, option="--deadline")
            if args.deadline is not None
            else deadline_from_env()
        )
        call_budget = (
            resolve_call_budget(args.call_budget, option="--call-budget")
            if args.call_budget is not None
            else call_budget_from_env()
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.deadline = deadline
    args.call_budget = call_budget
    db = load_database(args.dbdir)
    workload = read_workload_file(args.workload, strict=args.strict)
    if len(workload) == 0:
        print(
            f"error: workload file {args.workload!r} contains no parseable "
            f"statements; statements are separated by lines holding a "
            f"single ';'",
            file=sys.stderr,
        )
        return 2
    if args.mode is not None:
        if shards > 1 or replicas > 1 or args.divergent:
            print(
                "error: --mode portfolio search runs on a plain database; "
                "drop --shards/--replicas/--divergent",
                file=sys.stderr,
            )
            return 2
        return _recommend_portfolio(args, db, workload)
    if shards > 1 or replicas > 1 or args.divergent:
        return _recommend_cluster(args, db, workload, shards, replicas)
    advisor = IndexAdvisor(db, workload, compress=args.compress)
    recommendation = advisor.recommend(
        budget_bytes=args.budget,
        algorithm=args.algorithm,
        deadline_seconds=args.deadline,
        optimizer_call_budget=args.call_budget,
        checkpoint_path=args.checkpoint,
    )
    if args.json:
        print(json.dumps(recommendation.to_dict(), indent=2))
    else:
        print(recommendation.report())
        if args.stats:
            print()
            print(recommendation.stats_report())
    if args.create:
        names = advisor.create_indexes(recommendation)
        save_database(db, args.dbdir)
        if not args.json:
            print(f"\ncreated {len(names)} indexes and saved the database")
    return 0


def _recommend_portfolio(
    args: argparse.Namespace, db: Database, workload: Workload
) -> int:
    """The ``recommend --mode`` path: race several strategies under one
    deadline (docs/serving.md) and report the winner with per-strategy
    telemetry."""
    import json

    from repro.serve.portfolio import DEFAULT_STRATEGIES, run_portfolio

    strategies = (
        tuple(s for s in args.strategies.split(",") if s)
        if args.strategies
        else DEFAULT_STRATEGIES
    )
    recommendation = run_portfolio(
        db,
        workload,
        args.budget,
        mode=args.mode,
        strategies=strategies,
        deadline_seconds=args.deadline,
        optimizer_call_budget=args.call_budget,
        seed=args.portfolio_seed,
    )
    if args.json:
        print(json.dumps(recommendation.to_dict(), indent=2))
    else:
        print(recommendation.report())
        if args.stats:
            print()
            print(recommendation.stats_report())
    if args.create:
        names = []
        for candidate in recommendation.configuration:
            definition = candidate.definition(
                db.catalog.fresh_name("xmlidx"), virtual=False
            )
            db.create_index(definition)
            names.append(definition.name)
        save_database(db, args.dbdir)
        if not args.json:
            print(f"\ncreated {len(names)} indexes and saved the database")
    return 0


def _recommend_cluster(
    args: argparse.Namespace,
    db: Database,
    workload: Workload,
    shards: int,
    replicas: int,
) -> int:
    """The ``recommend`` cluster path: reshard the loaded database,
    tune every replica (divergent or uniform), and route the workload
    through the cost-based router to surface its counters.  Cluster
    topologies live in memory -- nothing is saved back to ``dbdir``."""
    import json

    from repro.cluster import Cluster, tune_cluster

    cluster = Cluster.from_database(db, shards=shards, replicas=replicas)
    result = tune_cluster(
        cluster,
        workload,
        budget_bytes=args.budget,
        divergent=args.divergent,
        algorithm=args.algorithm,
        deadline_seconds=args.deadline,
        optimizer_call_budget=args.call_budget,
    )
    # Exercise the router so ``--stats`` shows real routing decisions.
    cluster.router.route_workload(workload)
    stats = cluster.cluster_stats()
    result.cluster_stats = stats
    for tuning in result.tunings:
        tuning.recommendation.cluster_stats = dict(stats)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.report())
    primary = result.tunings[0].recommendation
    print()
    print(primary.report())
    if args.stats:
        print()
        print(primary.stats_report())
    if args.create:
        print(
            "\nindexes were built on the in-memory cluster; cluster "
            "topologies are not persisted to the database directory"
        )
    return 0


def read_stream_file(path: str) -> list:
    """Read a statement *stream* for ``serve``: statements separated by
    ``;`` lines, replayed in file order.  A ``; @ N`` separator repeats
    the preceding statement N times (arrival frequency).  No parsing
    happens here -- the daemon's lenient window ingestion skips
    unparseable texts with a diagnostic."""
    texts = []
    chunk: list = []
    with open(path) as handle:
        lines = list(handle)
    lines.append(";")  # terminate a trailing unseparated statement
    for line in lines:
        stripped = line.strip()
        if stripped.startswith(";"):
            text = " ".join(" ".join(chunk).split())
            chunk = []
            if not text:
                continue
            repeats = 1
            suffix = stripped[1:].strip()
            if suffix.startswith("@"):
                try:
                    repeats = max(1, int(suffix[1:].strip()))
                except ValueError:
                    repeats = 1
            texts.extend([text] * repeats)
        else:
            chunk.append(line.rstrip("\n"))
    return texts


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.online import OnlineAdvisor, OnlinePolicy
    from repro.robustness.budget import call_budget_from_env
    from repro.robustness.errors import ConfigError

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if bool(args.workload) == bool(args.synthetic):
        print(
            "error: serve needs exactly one stream source: --workload "
            "FILE or --synthetic N",
            file=sys.stderr,
        )
        return 2
    try:
        policy = OnlinePolicy(
            budget_bytes=args.budget,
            algorithm=args.algorithm,
            fallback_algorithm=args.fallback_algorithm,
            window_capacity=args.window,
            cycle_interval=args.cycle_interval,
            drift_threshold=args.drift_threshold,
            min_relative_improvement=args.min_improvement,
            cooldown_cycles=args.cooldown,
            max_flaps_per_index=args.max_flaps,
            cycle_deadline_seconds=args.cycle_deadline,
            cycle_call_budget=(
                args.cycle_call_budget
                if args.cycle_call_budget is not None
                else call_budget_from_env()
            ),
            compress=args.compress,
            retries=args.retries,
            watchdog_limit=args.watchdog_limit,
        ).validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        texts = read_stream_file(args.workload)
    else:
        from repro.workloads.stream import drifting_stream

        texts, _ = drifting_stream(
            num_statements=args.synthetic,
            seed=args.seed,
            phases=args.phases,
        )
    db = load_database(args.dbdir)
    if args.resume:
        daemon = OnlineAdvisor.resume(db, policy, args.journal)
    else:
        daemon = OnlineAdvisor(db, policy, journal_path=args.journal)
    reports = daemon.serve(texts)
    status = daemon.status()
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        for report in reports:
            line = (
                f"cycle {report.cycle:>3}  {report.action:<16} "
                f"drift={report.drift if report.drift is not None else '-'}"
            )
            if report.creates or report.drops:
                line += (
                    f"  +{len(report.creates)} create(s) "
                    f"-{len(report.drops)} drop(s)"
                )
            if report.error:
                line += f"  error: {report.error}"
            print(line)
        counters = status["counters"]
        print(
            f"-- served {status['statements_seen']} statements, "
            f"{counters['cycles_tuned']} tuning cycles, "
            f"{counters['applies']} applies, "
            f"{counters['rollbacks']} rollbacks, "
            f"{counters['failed_cycles']} failed cycles"
        )
        print(
            f"-- materialized configuration: "
            f"{', '.join(status['configuration_keys']) or '(empty)'}"
        )
        for diagnostic in status["diagnostics"]:
            print(f"warning: {diagnostic}", file=sys.stderr)
    if args.save:
        save_database(db, args.dbdir)
        if not args.json:
            print("-- database (with materialized indexes) saved")
    return 0


def _latency_percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (no numpy in the base image)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def cmd_server(args: argparse.Namespace) -> int:
    """Drive a workload file through the concurrent serving front end
    (docs/serving.md): queries and DML run as concurrent requests,
    every ``--recommend-every``-th request is a portfolio recommend."""
    import asyncio
    import json

    from repro.query.model import DeleteStatement, InsertStatement
    from repro.serve import AdvisorServer, TenantPolicy

    db = load_database(args.dbdir)
    workload = read_workload_file(args.workload)
    if len(workload) == 0:
        print(
            f"error: workload file {args.workload!r} contains no parseable "
            f"statements",
            file=sys.stderr,
        )
        return 2
    tenants = [t for t in (args.tenants or "default").split(",") if t]
    query_texts = [
        entry.statement.describe()
        for entry in workload
        if not isinstance(
            entry.statement, (InsertStatement, DeleteStatement)
        )
    ]
    schedule = []
    for position, entry in enumerate(workload):
        tenant = tenants[position % len(tenants)]
        is_dml = isinstance(
            entry.statement, (InsertStatement, DeleteStatement)
        )
        schedule.append(
            {
                "kind": "dml" if is_dml else "query",
                "text": entry.statement.describe(),
                "tenant": tenant,
            }
        )
        if (
            args.recommend_every
            and query_texts
            and (position + 1) % args.recommend_every == 0
        ):
            schedule.append(
                {
                    "kind": "recommend",
                    "statements": query_texts,
                    "budget_bytes": args.budget,
                    "tenant": tenant,
                }
            )
    server = AdvisorServer(
        db,
        default_policy=TenantPolicy(
            search_call_quota=args.quota,
            deadline_seconds=args.deadline,
        ),
        mode=args.mode,
        deadline_seconds=args.deadline,
        seed=args.seed,
    )

    async def run():
        await server.start()
        try:
            return await server.run_schedule(schedule, clients=args.clients)
        finally:
            await server.stop()

    responses = asyncio.run(run())
    by_kind = {}
    for response in responses:
        by_kind.setdefault(response.kind, []).append(response)
    summary = {
        "requests": len(responses),
        "clients": args.clients,
        "kinds": {
            kind: {
                "count": len(group),
                "ok": sum(1 for r in group if r.ok),
                "errors": sorted(
                    {r.code for r in group if not r.ok} - {None}
                ),
                "p50_seconds": _latency_percentile(
                    [r.elapsed_seconds for r in group], 0.50
                ),
                "p99_seconds": _latency_percentile(
                    [r.elapsed_seconds for r in group], 0.99
                ),
            }
            for kind, group in sorted(by_kind.items())
        },
        "server": server.stats(),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"served {summary['requests']} requests "
            f"({args.clients} clients)"
        )
        for kind, block in summary["kinds"].items():
            print(
                f"  {kind:<10}: {block['ok']}/{block['count']} ok, "
                f"p50 {block['p50_seconds'] * 1000:.1f} ms, "
                f"p99 {block['p99_seconds'] * 1000:.1f} ms"
                + (
                    f", errors: {','.join(block['errors'])}"
                    if block["errors"]
                    else ""
                )
            )
        gate = summary["server"]["gate"]
        print(
            f"  gate      : {gate['reads_validated']} validated, "
            f"{gate['reads_torn']} torn, {gate['reads_refused']} refused, "
            f"{gate['writes_gated']} writes"
        )
    config_failures = [
        r for r in responses if not r.ok and r.code == "config"
    ]
    if config_failures:
        print(
            f"error: {config_failures[0].error}",
            file=sys.stderr,
        )
        return 2
    if any(not r.ok and r.code == "internal" for r in responses):
        return 1
    return 0


def cmd_review(args: argparse.Namespace) -> int:
    from repro.core.review import drop_recommended, review_existing_indexes

    db = load_database(args.dbdir)
    workload = read_workload_file(args.workload)
    reviews = review_existing_indexes(db, workload)
    if not reviews:
        print("no physical indexes to review")
        return 0
    for review in reviews:
        print(review)
    if args.drop:
        dropped = drop_recommended(db, reviews)
        if dropped:
            save_database(db, args.dbdir)
        print(f"dropped {len(dropped)} indexes: {', '.join(dropped) or '-'}")
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    from repro.core.candidates import CandidateIndex
    from repro.core.config import IndexConfiguration
    from repro.core.whatif import analyze
    from repro.storage.index import IndexValueType
    from repro.xpath.patterns import parse_pattern

    db = load_database(args.dbdir)
    workload = read_workload_file(args.workload)
    candidates = []
    for spec in args.patterns:
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
            CandidateIndex(parse_pattern(pattern_text), value_type, args.collection)
        )
    session = WhatIfSession(db)
    report = analyze(db, workload, IndexConfiguration(candidates), session=session)
    print(report.summary())
    if args.stats:
        stats = session.stats()
        print(
            f"-- session: {stats['optimizer_calls']} optimizer calls, "
            f"{stats['cache_hits']} cache hits, "
            f"{stats['cache_misses']} misses"
        )
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import ablations, fig2, fig3, fig4, table3, table4
    from repro.workloads import synthetic, tpox

    db = load_database(args.dbdir)
    if "SDOC" not in db.collections:
        print("reproduce requires a TPoX-style database (generate --benchmark tpox)",
              file=sys.stderr)
        return 2
    securities = len(db.collection("SDOC"))
    workload = tpox.tpox_workload(num_securities=securities, seed=args.seed)
    mixed = Workload(list(workload.entries))
    for query in synthetic.random_path_queries(db, "SDOC", 9, seed=5):
        mixed.add(query)

    runners = {
        "fig2": lambda: fig2.format_rows(*fig2.run(db, workload)),
        "fig3": lambda: fig3.format_rows(fig3.run(db, workload)),
        "table3": lambda: table3.format_rows(table3.run(db)),
        "table4": lambda: table4.format_rows(table4.run(db, mixed)),
        "fig4": lambda: fig4.format_rows(*fig4.run(db, mixed)),
        "ablation-calls": lambda: ablations.format_optimizer_calls(
            ablations.run_optimizer_calls(db, workload)
        ),
        "ablation-beta": lambda: ablations.format_beta_sweep(
            ablations.run_beta_sweep(db, mixed)
        ),
    }
    selected = args.experiments or sorted(runners)
    unknown = [name for name in selected if name not in runners]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from {sorted(runners)}",
              file=sys.stderr)
        return 2
    for name in selected:
        print(runners[name]())
        print()
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XML Index Advisor reproduction (ICDE 2008) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a benchmark database")
    p.add_argument("dbdir")
    p.add_argument("--benchmark", choices=("tpox", "xmark"), default="tpox")
    p.add_argument("--scale", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("load", help="load XML files into a collection")
    p.add_argument("dbdir")
    p.add_argument("collection")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("stats", help="show collection statistics")
    p.add_argument("dbdir")
    p.add_argument("collection")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument(
        "--tree", action="store_true",
        help="render a DataGuide-style structural summary",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "path-stats",
        help="virtual-index statistics for one pattern",
    )
    p.add_argument("dbdir")
    p.add_argument("collection")
    p.add_argument("pattern", help="linear XPath pattern, e.g. /Security/Yield")
    p.add_argument("--probe", help="a literal to estimate selectivities for")
    p.set_defaults(func=cmd_path_stats)

    p = sub.add_parser("query", help="execute a statement")
    p.add_argument("dbdir")
    p.add_argument("statement")
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="show the optimizer's plan")
    p.add_argument("dbdir")
    p.add_argument("statement")
    p.add_argument(
        "--enumerate", action="store_true",
        help="also list candidate patterns (Enumerate Indexes mode)",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("recommend", help="recommend an index configuration")
    p.add_argument("dbdir")
    p.add_argument("--workload", required=True, help="workload file (';' separated)")
    p.add_argument("--budget", type=int, required=True, help="disk budget in bytes")
    p.add_argument(
        "--algorithm",
        default="topdown_full",
        choices=(
            "greedy",
            "greedy_heuristics",
            "topdown_lite",
            "topdown_full",
            "dp",
            "exhaustive",
            "ilp",
        ),
    )
    p.add_argument(
        "--compress",
        default="off",
        choices=("off", "exact", "template", "cluster"),
        help="compress the workload before tuning: exact (duplicate "
             "texts merge, loss free), template (literal-only variants "
             "merge), or cluster (coverage-signature clustering; the "
             "winner is re-scored on the full workload)",
    )
    p.add_argument(
        "--create", action="store_true",
        help="physically create the recommended indexes and save",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the recommendation as JSON",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="also print what-if session instrumentation counters",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="anytime deadline: return the best-so-far configuration "
             "(flagged truncated) when it expires",
    )
    p.add_argument(
        "--call-budget", type=int, default=None, metavar="N",
        help="stop after N optimizer calls and return best-so-far",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="crash-safe checkpoint file; an interrupted run with the "
             "same file, algorithm, and budget resumes from it",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on the first malformed workload statement instead of "
             "skipping it with a warning",
    )
    p.add_argument(
        "--shards", default=None, metavar="S",
        help="shard the database across S shards (in-memory cluster); "
             "defaults to $REPRO_SHARDS, else 1",
    )
    p.add_argument(
        "--replicas", default=None, metavar="R",
        help="keep R replicas per shard; defaults to $REPRO_REPLICAS, "
             "else 1",
    )
    p.add_argument(
        "--divergent", action="store_true",
        help="tune each replica on its own similarity-partitioned "
             "workload slice instead of one uniform configuration",
    )
    p.add_argument(
        "--mode", default=None,
        choices=("retry", "tournament", "evolutionary"),
        help="portfolio search: run several strategies on one what-if "
             "pass under one deadline (retry: first untruncated success; "
             "tournament: best benefit wins; evolutionary: tournament "
             "generations with seeded-perturbed variants)",
    )
    p.add_argument(
        "--strategies", default=None, metavar="A,B,...",
        help="comma-separated portfolio strategies "
             "(default greedy,greedy_heuristics,ilp)",
    )
    p.add_argument(
        "--portfolio-seed", type=int, default=0, metavar="N",
        help="seed of the evolutionary mode's perturbed variants",
    )
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser(
        "serve",
        help="run the supervised online advisor daemon over a stream",
        description=(
            "Replay a statement stream through the online tuning daemon: "
            "sliding-window statistics, drift-gated bounded tuning "
            "cycles, hysteresis-gated CREATE/DROP application with "
            "verify-then-rollback, and a crash-safe journal "
            "(--journal + --resume continues mid-cycle)."
        ),
    )
    p.add_argument("dbdir")
    p.add_argument(
        "--workload", default=None,
        help="stream file (';' separated, '; @ N' repeats), replayed in "
             "file order",
    )
    p.add_argument(
        "--synthetic", type=int, default=None, metavar="N",
        help="replay an N-statement seeded drifting stream instead of a "
             "file (TPoX+XMark phased template mix)",
    )
    p.add_argument("--budget", type=int, required=True,
                   help="per-cycle disk budget in bytes")
    p.add_argument("--journal", default=None, metavar="FILE",
                   help="crash-safe daemon journal (state + cycle checkpoint)")
    p.add_argument("--resume", action="store_true",
                   help="reconstruct the daemon from --journal and continue")
    p.add_argument("--algorithm", default="greedy",
                   choices=("greedy", "greedy_heuristics", "topdown_lite",
                            "topdown_full", "dp", "ilp"))
    p.add_argument("--fallback-algorithm", default="greedy_heuristics",
                   choices=("greedy", "greedy_heuristics", "topdown_lite",
                            "topdown_full", "dp", "ilp"),
                   help="algorithm used after retries fail or the "
                        "watchdog trips")
    p.add_argument("--window", type=int, default=200,
                   help="sliding-window capacity in statements")
    p.add_argument("--cycle-interval", type=int, default=25,
                   help="consider a tuning cycle every N ingested statements")
    p.add_argument("--drift-threshold", type=float, default=0.25,
                   help="total-variation signature drift that triggers "
                        "re-tuning")
    p.add_argument("--min-improvement", type=float, default=0.02,
                   help="hysteresis: minimum relative window-cost "
                        "improvement before touching indexes")
    p.add_argument("--cooldown", type=int, default=1,
                   help="cycles to hold after an apply")
    p.add_argument("--max-flaps", type=int, default=2,
                   help="freeze an index key after this many membership "
                        "changes")
    p.add_argument("--cycle-deadline", default=None, metavar="SECONDS",
                   help="anytime deadline per tuning cycle")
    p.add_argument("--cycle-call-budget", default=None, metavar="CALLS",
                   help="optimizer-call budget per tuning cycle; defaults "
                        "to $REPRO_CALL_BUDGET")
    p.add_argument("--compress", default="template",
                   choices=("off", "exact", "template", "cluster"),
                   help="window compression before each tuning pass")
    p.add_argument("--retries", type=int, default=1,
                   help="retries per failed tuning cycle before fallback")
    p.add_argument("--watchdog-limit", type=int, default=3,
                   help="consecutive failed cycles before the watchdog "
                        "pins the fallback algorithm")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --synthetic streams")
    p.add_argument("--phases", type=int, default=3,
                   help="drift phases in --synthetic streams")
    p.add_argument("--json", action="store_true",
                   help="emit the daemon's final status as JSON")
    p.add_argument("--save", action="store_true",
                   help="save the database (materialized indexes) back "
                        "to DBDIR")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "server",
        help="serve a workload concurrently (query/dml/recommend)",
        description=(
            "Drive a workload file through the concurrent serving front "
            "end: lock-free epoch-gated reads, per-collection serialized "
            "writers, and portfolio recommends raced under a deadline "
            "(docs/serving.md)."
        ),
    )
    p.add_argument("dbdir")
    p.add_argument(
        "--workload", required=True,
        help="workload file (';' separated); queries and DML become "
             "concurrent requests",
    )
    p.add_argument(
        "--budget", type=int, default=200_000,
        help="disk budget (bytes) of the interleaved recommends",
    )
    p.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client tasks driving the schedule",
    )
    p.add_argument(
        "--recommend-every", type=int, default=0, metavar="K",
        help="inject a portfolio recommend after every K requests "
             "(0 = never)",
    )
    p.add_argument(
        "--mode", default="tournament",
        choices=("retry", "tournament", "evolutionary"),
        help="portfolio mode of the interleaved recommends",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-recommend deadline (also the default tenant ceiling)",
    )
    p.add_argument(
        "--quota", type=int, default=None, metavar="N",
        help="per-tenant optimizer-call quota; exhausted tenants get "
             "typed 'rejected' responses",
    )
    p.add_argument(
        "--tenants", default=None, metavar="T1,T2,...",
        help="round-robin requests across these tenant names "
             "(default: one 'default' tenant)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true",
        help="emit the serving summary as JSON",
    )
    p.set_defaults(func=cmd_server)

    p = sub.add_parser(
        "review", help="keep/drop review of existing physical indexes"
    )
    p.add_argument("dbdir")
    p.add_argument("--workload", required=True)
    p.add_argument(
        "--drop", action="store_true",
        help="actually drop the indexes flagged DROP and save",
    )
    p.set_defaults(func=cmd_review)

    p = sub.add_parser(
        "whatif", help="evaluate hypothetical indexes (nothing is built)"
    )
    p.add_argument("dbdir")
    p.add_argument("collection")
    p.add_argument("--workload", required=True)
    p.add_argument(
        "--patterns", nargs="+", required=True,
        help="index patterns, e.g. /Security/Yield:numeric /Security/Symbol",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="also print what-if session instrumentation counters",
    )
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("reproduce", help="regenerate paper tables/figures")
    p.add_argument("dbdir")
    p.add_argument("experiments", nargs="*")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # Junk configuration -- a bad flag or a junk REPRO_* environment
        # variable resolved anywhere downstream (including inside async
        # request tasks) -- is operator error: exit 2, like
        # argparse itself.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AdvisorError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
