"""Divergent per-replica index tuning (CoPhy/AIM-style scale-out).

A uniform configuration must compromise across the whole workload; a
cluster does not have to.  :func:`partition_workload` splits the
workload into one slice per replica *column* by similarity of the
statements' distinct request patterns (the same signature the PR 2
coverage machinery and ``core/compression.py`` template keys are built
on), and :func:`tune_cluster` runs one
:class:`~repro.core.advisor.IndexAdvisor` per replica, so each replica
column gets the configuration its slice of the traffic deserves.  The cost-based
:class:`~repro.cluster.router.Router` then sends every statement to the
column that tuned for it.

``divergent=False`` is the uniform baseline: one advisor per shard over
the full workload, the same configuration applied to every replica.
On a mixed TPoX/XMark workload at the same per-replica budget, the
statements routed over divergent replicas examine fewer documents when
executed than over uniform ones (pinned in ``tests/test_cluster.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.advisor import IndexAdvisor, Recommendation
from repro.optimizer.rewriter import extract_all_requests
from repro.query.model import Statement
from repro.query.workload import Workload, WorkloadEntry

Signature = FrozenSet[Tuple[str, str]]


def statement_signature(statement: Statement) -> Signature:
    """A statement's indexable shape: its distinct (pattern, value type)
    requests plus collection.  Statements with similar signatures are
    served by similar indexes, so signature similarity is the right
    clustering metric for divergent design."""
    parts = {
        (str(request.pattern), str(request.value_type))
        for request in extract_all_requests(statement)
    }
    parts.add(("collection", getattr(statement, "collection", "")))
    return frozenset(parts)


def _jaccard(a: Signature, b: Signature) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def partition_workload(workload: Workload, parts: int) -> List[Workload]:
    """Split a workload into ``parts`` similarity-clustered slices.

    Deterministic: template groups (entries sharing a signature) are
    seeded farthest-first -- the heaviest group first, then the group
    least similar to any seed -- and the remaining groups join the most
    similar seed, with the lighter slice winning ties.  Every entry
    lands in exactly one slice; slices may be empty when the workload
    has fewer distinct signatures than parts.
    """
    if parts <= 1:
        return [Workload(list(workload.entries))]

    # Group entries by signature, preserving first-seen order.
    order: List[Signature] = []
    groups: Dict[Signature, List[WorkloadEntry]] = {}
    for entry in workload:
        signature = statement_signature(entry.statement)
        if signature not in groups:
            groups[signature] = []
            order.append(signature)
        groups[signature].append(entry)

    def weight(signature: Signature) -> float:
        return sum(entry.frequency for entry in groups[signature])

    # Farthest-first seeds: heaviest group, then least-similar-to-seeds.
    remaining = list(order)
    seeds: List[Signature] = []
    if remaining:
        first = max(remaining, key=lambda s: (weight(s), -order.index(s)))
        seeds.append(first)
        remaining.remove(first)
    while len(seeds) < parts and remaining:
        def dissimilarity(signature: Signature) -> float:
            return max(_jaccard(signature, seed) for seed in seeds)

        candidate = min(
            remaining,
            key=lambda s: (dissimilarity(s), -weight(s), order.index(s)),
        )
        seeds.append(candidate)
        remaining.remove(candidate)

    assignments: Dict[Signature, int] = {
        seed: index for index, seed in enumerate(seeds)
    }
    loads: List[float] = [0.0] * parts
    for index, seed in enumerate(seeds):
        loads[index] += weight(seed)
    # Heaviest unassigned groups first, each to its most similar seed
    # (ties to the lighter slice, then the lower index).
    for signature in sorted(
        remaining, key=lambda s: (-weight(s), order.index(s))
    ):
        best = min(
            range(len(seeds)),
            key=lambda i: (
                -_jaccard(signature, seeds[i]),
                loads[i],
                i,
            ),
        )
        assignments[signature] = best
        loads[best] += weight(signature)

    slices: List[List[WorkloadEntry]] = [[] for __ in range(parts)]
    for entry in workload:  # original order within each slice
        signature = statement_signature(entry.statement)
        slices[assignments[signature]].append(entry)
    return [Workload(entries) for entries in slices]


def divergence(configurations: Sequence[FrozenSet[str]]) -> float:
    """Mean pairwise Jaccard *distance* between replica index sets:
    0.0 when every replica carries the same indexes (uniform), toward
    1.0 as configurations diverge."""
    pairs = 0
    total = 0.0
    for i in range(len(configurations)):
        for j in range(i + 1, len(configurations)):
            total += 1.0 - _jaccard(configurations[i], configurations[j])
            pairs += 1
    if pairs == 0:
        return 0.0
    return total / pairs


@dataclass
class ReplicaTuning:
    """One replica column's tuning outcome on one shard."""

    shard: int
    replica: int
    workload_size: int
    recommendation: Recommendation
    created: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "shard": self.shard,
            "replica": self.replica,
            "workload_size": self.workload_size,
            "created": list(self.created),
            "recommendation": self.recommendation.to_dict(),
        }


@dataclass
class ClusterTuningResult:
    """The outcome of one cluster tuning pass."""

    mode: str  # "divergent" | "uniform"
    budget_bytes: int
    tunings: List[ReplicaTuning]
    divergence_score: float
    cluster_stats: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "budget_bytes": self.budget_bytes,
            "divergence_score": round(self.divergence_score, 4),
            "cluster": dict(self.cluster_stats),
            "tunings": [tuning.to_dict() for tuning in self.tunings],
        }

    def report(self) -> str:
        lines = [
            f"Cluster tuning      : {self.mode}",
            f"Disk budget/replica : {self.budget_bytes} bytes",
            f"Divergence score    : {self.divergence_score:.4f}",
        ]
        for tuning in self.tunings:
            reco = tuning.recommendation
            lines.append(
                f"  replica s{tuning.shard}r{tuning.replica}: "
                f"{len(reco.configuration)} indexes, "
                f"benefit {reco.search.benefit:.2f}, "
                f"{tuning.workload_size} statements in slice"
            )
        return "\n".join(lines)


def tune_cluster(
    cluster,
    workload: Workload,
    budget_bytes: int,
    divergent: bool = True,
    algorithm: str = "topdown_full",
    create: bool = True,
    deadline_seconds: Optional[float] = None,
    optimizer_call_budget: Optional[int] = None,
) -> ClusterTuningResult:
    """Tune every replica of ``cluster`` for ``workload``.

    Divergent mode partitions the workload into one slice per replica
    column and tunes each column's replicas on their slice; uniform mode
    tunes each shard once on the full workload and applies the same
    configuration to every replica.  ``create=True`` (the default)
    physically builds the recommended indexes; the router then prices
    statements against the real configurations.
    """
    mode = "divergent" if divergent else "uniform"
    if divergent:
        slices = partition_workload(workload, cluster.num_replicas)
    else:
        slices = [workload] * cluster.num_replicas

    tunings: List[ReplicaTuning] = []
    for shard in range(cluster.num_shards):
        uniform_recommendation: Optional[Recommendation] = None
        for replica in range(cluster.num_replicas):
            database = cluster.replica_database(shard, replica)
            slice_workload = slices[replica]
            if divergent or uniform_recommendation is None:
                advisor = IndexAdvisor(database, slice_workload)
                recommendation = advisor.recommend(
                    budget_bytes,
                    algorithm=algorithm,
                    deadline_seconds=deadline_seconds,
                    optimizer_call_budget=optimizer_call_budget,
                )
                created = (
                    advisor.create_indexes(recommendation) if create else []
                )
                if not divergent:
                    uniform_recommendation = recommendation
            else:
                # Uniform: re-apply the shard's recommendation to this
                # replica without re-running the search.
                recommendation = uniform_recommendation
                created = []
                if create:
                    for candidate in recommendation.configuration:
                        name = database.catalog.fresh_name("reco")
                        database.create_index(
                            candidate.definition(name, virtual=False)
                        )
                        created.append(name)
            tunings.append(
                ReplicaTuning(
                    shard=shard,
                    replica=replica,
                    workload_size=len(slice_workload),
                    recommendation=recommendation,
                    created=created,
                )
            )

    # Divergence over replica columns (shard 0's view; columns are
    # identical across shards by construction).
    column_patterns: List[FrozenSet[str]] = []
    for replica in range(cluster.num_replicas):
        tuning = next(
            t for t in tunings if t.shard == 0 and t.replica == replica
        )
        column_patterns.append(
            frozenset(
                f"{c.collection}:{c.pattern}:{c.value_type.value}"
                for c in tuning.recommendation.configuration
            )
        )
    score = divergence(column_patterns)
    cluster.divergence_score = score
    cluster.tuning_mode = mode

    stats = cluster.cluster_stats()
    result = ClusterTuningResult(
        mode=mode,
        budget_bytes=budget_bytes,
        tunings=tunings,
        divergence_score=score,
        cluster_stats=stats,
    )
    # Surface the cluster block on every per-replica recommendation so
    # ``to_dict()``/``stats_report()`` show it next to the session stats.
    for tuning in tunings:
        tuning.recommendation.cluster_stats = dict(stats)
    return result
