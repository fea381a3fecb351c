"""The repository's benchmark: one command, five workloads.

    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 bench/run.py --all [--seed S] [--trace 1] [--repeat N] --out FILE
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --breakdown bench/out/trace-NAME.jsonl

``--workload`` runs one workload in this process and prints every metric
by name with its unit, then one JSON line (the ``BENCHMARK.json``
contract).  ``--all`` runs each workload in its own child process with
every ``REPRO_*`` variable scrubbed and merges the children's results
into one file.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import spec  # noqa: E402


def scrub_environment() -> list:
    """Remove every ``REPRO_*`` switch; returns the names removed."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def clients_of(workload: str) -> int:
    return spec.SERVE_CLIENTS if workload in spec.SERVE else 1


def run_workload(args) -> dict:
    """Set up, run, check and measure one workload in this process."""
    scrubbed = scrub_environment()
    if nproc() < clients_of(args.workload):
        raise SystemExit(
            f"{args.workload} drives {clients_of(args.workload)} client "
            f"tasks but only {nproc()} core(s) are available"
        )
    import check  # these import repro: after the scrub
    from journeys import JOURNEYS

    scale = spec.SCALES[args.scale]
    journey = JOURNEYS[args.workload](args.seed, scale)
    tracer = None
    layers = {}
    try:
        setup_seconds = []
        # A traced run reports no setup_s, so it sets up once.
        for _ in range(1 if args.trace else spec.SETUP_REPEATS):
            gc.collect()
            started = time.perf_counter()
            journey.setup()
            setup_seconds.append(time.perf_counter() - started)
        gc.collect()
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        journey.run(args.seconds, tracer)
        check.run(journey)
        metrics = journey.metrics(setup_seconds)
        if args.trace:
            import probes

            layers = probes.measure(journey, tracer, metrics)
            spec.OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(spec.OUT_DIR / f"trace-{args.workload}.jsonl")
            # Probe checks may have failed ops after ``metrics`` was cut.
            metrics = journey.metrics(setup_seconds)
    finally:
        journey.close()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "correct": journey.failed == 0,
        "attempted": journey.attempted,
        "failed": journey.failed,
        "failures": journey.failures,
        "repetitions": [
            {"traced": traced, "wall_s": wall, "cpu_s": cpu}
            for traced, wall, cpu, _ in journey.repetitions
        ],
        "metrics": metrics,
        "layers": layers,
        "inputs_sha256": journey.inputs_sha256,
        "frozen_counts": {
            "block_ops": journey.block_ops,
            "block_statements": journey.block_statements,
        },
        "scrubbed_environment": scrubbed,
    }


def contract_line(result: dict) -> str:
    """The last stdout line: exactly ``correct``, ``attempted``,
    ``failed`` and the ``BENCHMARK.json`` metrics of this trace mode."""
    if result["trace"]:
        names, source = spec.PER_LAYER, result["layers"]
    else:
        names, source = spec.END_TO_END, result["metrics"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric.name: {
                    "value": source[metric.name]["value"],
                    "unit": metric.unit,
                }
                for metric in names
            },
        }
    )


def git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_all(args) -> dict:
    """Each workload in its own child process (which scrubs its own
    environment), ``--repeat`` sets."""
    spec.OUT_DIR.mkdir(exist_ok=True)
    sets = []
    for _ in range(args.repeat):
        workloads = {}
        for name in spec.WORKLOAD_NAMES:
            with tempfile.TemporaryDirectory(dir=spec.OUT_DIR) as scratch:
                out = Path(scratch) / "result.json"
                command = [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--scale", args.scale,
                    "--out", str(out),
                ]
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if done.returncode not in (0, 1) or not out.exists():
                    raise SystemExit(f"{name} child exited {done.returncode}")
                workloads[name] = json.loads(out.read_text())
            print(report.table(workloads[name]), flush=True)
        sets.append(workloads)
    return {
        "meta": {
            "seed": args.seed,
            "held_out_seed": spec.HELD_OUT_SEED,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "nproc": nproc(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "inputs_sha256": {
                name: result["inputs_sha256"]
                for name, result in sets[0].items()
            },
            "frozen_counts": {
                name: result["frozen_counts"]
                for name, result in sets[0].items()
            },
            "scrubbed_environment": next(iter(sets[0].values()))[
                "scrubbed_environment"
            ],
        },
        "claim": None,
        "sets": sets,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    mode.add_argument("--breakdown", metavar="TRACE.jsonl")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(spec.SCALES), default="full")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if args.breakdown:
        print(report.breakdown(args.breakdown))
        return 0

    if args.compare:
        first, second = (
            json.loads(Path(path).read_text()) for path in args.compare
        )
        text, worse = report.compare(first, second)
        print(text)
        return 1 if worse else 0

    if args.all:
        result = run_all(args)
        if args.repeat > 1:
            print(report.spread_table(result["sets"]))
        correct = all(
            run["correct"] for runs in result["sets"] for run in runs.values()
        )
    else:
        result = run_workload(args)
        print(report.table(result))
        correct = result["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    if not args.all:
        print(contract_line(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
