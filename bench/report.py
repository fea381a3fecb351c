"""Printing and comparing results: the metric table, ``--repeat``
spreads and the ``--compare`` verdicts."""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

import spec

EXACT = 1e-9


def table(result: dict) -> str:
    """Every metric of one workload run by name, with unit and sample
    count."""
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} scale={result['scale']} "
        f"trace={result['trace']}: attempted={result['attempted']} "
        f"failed={result['failed']}"
    ]
    for section in ("metrics", "layers"):
        for name, entry in result[section].items():
            lines.append(
                f"{name:<38} {entry['value']:>16.6f} {entry['unit']:<6} "
                f"n={entry['n']}"
            )
    lines.extend(f"FAILED: {message}" for message in result["failures"])
    return "\n".join(lines)


def _values(sets: Sequence[dict], workload: str, metric: str) -> List[float]:
    return [
        run[workload]["metrics"][metric]["value"]
        for run in sets
        if metric in run.get(workload, {}).get("metrics", {})
    ]


def _spread(values: Sequence[float]) -> float:
    """Max - min as a share of the median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def spread_table(sets: Sequence[dict]) -> str:
    """Median, quartiles and max-min per (metric, workload) over the
    sets of a ``--repeat`` run -- the tool the bounds were fixed with."""
    lines = [
        f"{'workload':<18} {'metric':<20} {'median':>14} {'q1':>14} "
        f"{'q3':>14} {'(max-min)/med':>14} {'bound':>6}"
    ]
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.judged_for(workload):
            values = _values(sets, workload, metric.name)
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            lines.append(
                f"{workload:<18} {metric.name:<20} "
                f"{statistics.median(values):>14.4f} {q1:>14.4f} {q3:>14.4f} "
                f"{_spread(values):>14.3f} {metric.bound:>6.2f}"
            )
    return "\n".join(lines)


def _verdict(metric: spec.Metric, base: List[float], new: List[float]) -> str:
    a, b = statistics.median(base), statistics.median(new)
    if metric.bound == 0.0:
        return "same" if abs(a - b) <= EXACT else (
            "better" if (b > a) == (metric.better == "higher") else "worse"
        )
    # Positive change = b is worse than a, as a share of a.
    change = (b - a) / abs(a) if a else 0.0
    if metric.better == "higher":
        change = -change
    if change < -metric.bound:
        return "better"
    noisy = max(_spread(base), _spread(new)) > metric.bound
    if noisy:
        every_better = (
            min(new) > max(base)
            if metric.better == "higher"
            else max(new) < min(base)
        )
        return "better" if every_better else "unresolved"
    return "worse" if change > metric.bound else "same"


def compare(first: dict, second: dict) -> Tuple[str, int]:
    """One row per (metric, workload): both medians, ratio with its
    base, the bound and a verdict.  Returns the text and the number of
    ``worse`` rows."""
    lines = [
        f"{'workload':<18} {'metric':<20} {'A':>14} {'B':>14} "
        f"{'B/A':>8} {'bound':>6}  verdict"
    ]
    worse = 0
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.judged_for(workload):
            base = _values(first["sets"], workload, metric.name)
            new = _values(second["sets"], workload, metric.name)
            if not base or not new:
                continue
            a, b = statistics.median(base), statistics.median(new)
            verdict = _verdict(metric, base, new)
            worse += verdict == "worse"
            ratio = f"{b / a:.3f}" if a else "-"
            lines.append(
                f"{workload:<18} {metric.name:<20} {a:>14.4f} {b:>14.4f} "
                f"{ratio:>8} {metric.bound:>6.2f}  {verdict}"
            )
    lines.append(f"base of every ratio: A; {worse} worse")
    return "\n".join(lines), worse


def breakdown(path) -> str:
    """Where an op's milliseconds go, from a ``trace-<workload>.jsonl``
    file: per root span name its mean duration, and beneath it the mean
    self time (span minus children) per root of every span name."""
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    covered = [0.0] * len(spans)
    root_of = list(range(len(spans)))
    for span in spans:  # parents precede their children
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
            root_of[span["id"]] = root_of[span["parent"]]
    totals: Dict[str, List[float]] = {}
    parts: Dict[str, Dict[str, List[float]]] = {}
    for span in spans:
        root = spans[root_of[span["id"]]]
        own = span["end"] - span["start"] - covered[span["id"]]
        if span["parent"] is None:
            totals.setdefault(span["name"], []).append(
                span["end"] - span["start"]
            )
            name = "(self)"
        else:
            name = span["name"]
        parts.setdefault(root["name"], {}).setdefault(name, []).append(own)
    lines = []
    for root, durations in sorted(totals.items()):
        total = statistics.fmean(durations)
        lines.append(
            f"{root:<34} {total * 1e3:>12.4f} ms  n={len(durations)} "
            f"(median {statistics.median(durations) * 1e3:.4f})"
        )
        if len(parts[root]) == 1:
            continue  # an op-level span without children
        for name, values in sorted(parts[root].items()):
            # Per root span: children that ran several times are summed.
            share = sum(values) / len(durations)
            lines.append(
                f"  {name:<32} {share * 1e3:>12.4f} ms  "
                f"{share / total if total else 0.0:>6.1%}"
            )
    return "\n".join(lines)
