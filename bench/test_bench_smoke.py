"""Smoke run of the benchmark harness.  Not collected by tier-1
(``testpaths = ["tests"]``); run as

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import spec

BENCH = Path(__file__).resolve().parent
RUN = [sys.executable, str(BENCH / "run.py")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced ``--all`` pass at smoke scale: (result, path, seconds)."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    started = time.perf_counter()
    subprocess.run(
        RUN + ["--all", "--scale", "smoke", "--seconds", "0.3",
               "--trace", "1", "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    seconds = time.perf_counter() - started
    return json.loads(out.read_text()), out, seconds


def test_smoke_runs_all_five_workloads_in_time(smoke):
    result, _, seconds = smoke
    assert seconds < 20
    assert result["claim"] is None
    runs = result["sets"][0]
    assert tuple(runs) == spec.WORKLOAD_NAMES
    for run in runs.values():
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
    meta = result["meta"]
    assert set(meta["inputs_sha256"]) == set(spec.WORKLOAD_NAMES)
    assert meta["nproc"] >= spec.SERVE_CLIENTS


def test_every_metric_of_benchmark_json_is_emitted(smoke):
    result, _, _ = smoke
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for run in result["sets"][0].values():
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for metric in contract[section]:
                entry = run[key][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert entry["n"] >= 1
                assert isinstance(entry["value"], (int, float))
        for metric in spec.per_kind_for(run["workload"]):
            assert metric.name in run["metrics"], metric.name


def test_benchmark_json_mirrors_spec():
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["bench"]
    assert contract["run_seconds"] == spec.DEFAULT_SECONDS
    assert [
        (w["name"], w["why"]) for w in contract["workloads"]
    ] == [(w.name, w.why) for w in spec.WORKLOADS]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in spec.PER_LAYER]


def _inputs_digest(seed: int) -> str:
    scale = spec.SCALES["smoke"]
    pool = inputs.query_pool(seed, scale)
    return inputs.sha256_of(
        [
            inputs.sweep_statements(seed, scale),
            inputs.advise_streams(seed, scale),
            inputs.drift_stream(seed, scale),
            pool,
            inputs.serve_schedule(seed, scale, pool, 1000, False),
            inputs.serve_schedule(seed, scale, pool, 1000, True),
        ]
    )


def test_generators_are_functions_of_the_seed():
    assert _inputs_digest(3) == _inputs_digest(3)
    assert _inputs_digest(3) != _inputs_digest(4)


def test_write_block_is_self_contained():
    """Every delete removes exactly one insert made earlier in the block
    and the block ends with nothing left over, so it can repeat."""
    scale = spec.SCALES["smoke"]
    block = inputs.serve_schedule(
        5, scale, inputs.query_pool(5, scale), 1000, True
    )
    live = {}
    for position, request in enumerate(block):
        if request["kind"] != "dml":
            continue
        text = request["text"]
        if text.startswith("insert"):
            symbol = text.split("<Symbol>")[1].split("<")[0]
            assert symbol not in live
            live[symbol] = position
        else:
            assert live.pop(text.split('"')[1]) < position
        assert len(live) <= spec.LIVE_EXTRA_DOCS
    assert not live


def test_compare_of_a_file_with_itself_is_all_same(smoke):
    _, path, _ = smoke
    done = subprocess.run(
        RUN + ["--compare", str(path), str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    rows = done.stdout.strip().splitlines()[1:-1]
    assert len(rows) > 5 * len(spec.END_TO_END)
    assert all(row.endswith("same") for row in rows), done.stdout
