"""Configuration benefit evaluation with minimal optimizer calls
(Sections III and VI-C).

The benefit of a configuration X for workload W is::

    Benefit(X; W) = sum_s [ freq_s * (s_old - s_new(X)) ]  -  MC(X; W)

where ``s_new(X)`` comes from the optimizer's *Evaluate Indexes* mode with
X installed as virtual indexes, and MC charges index maintenance for
update statements (:mod:`repro.core.maintenance`).

All raw costing goes through a shared
:class:`~repro.optimizer.session.WhatIfSession`, which memoizes every
(statement, projected configuration) pair and counts optimizer calls and
cache traffic.  On top of the session's cache the evaluator implements
the paper's two call-reduction techniques:

* **Affected sets** -- an index can only change the cost of statements
  that produced basic candidate patterns it covers, so only the union of
  the configuration's affected sets is re-optimized; every other statement
  keeps its base cost.
* **Sub-configurations** -- the configuration is split into groups of
  indexes with overlapping affected sets (merged transitively, by
  union-find over statement positions); each group is evaluated
  independently and cached, so a search step that adds one index only
  re-evaluates the group that index interacts with.
* **Delta evaluation** -- :meth:`ConfigurationEvaluator.delta_benefit`
  scores a search step as ``benefit(X + c) - benefit(X)`` directly,
  re-costing only the group(s) ``c`` touches; the searchers telescope
  deltas onto a running benefit instead of re-deriving whole-configuration
  benefits at every probe.

``naive=True`` disables both *and* bypasses the session's cost cache
(every evaluation re-optimizes the whole workload against the whole
configuration) -- the ablation benchmark uses it to measure the savings.

The evaluator's derived caches are tied to the database's modification
counter: an insert/delete/index-DDL between calls invalidates base costs
and sub-configuration benefits automatically.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.candidates import CandidateIndex, CandidateKey
from repro.core.config import IndexConfiguration
from repro.core.maintenance import MaintenanceConstants, maintenance_cost
from repro.optimizer.rewriter import PathRequest, extract_all_requests
from repro.optimizer.session import WhatIfSession
from repro.query.model import JoinQuery, Query
from repro.query.workload import Workload
from repro.robustness.errors import StatisticsUnavailable
from repro.xpath.patterns import PathPattern


class ConfigurationEvaluator:
    """Benefit/cost oracle for index configurations over one workload,
    costed through the shared :class:`WhatIfSession`."""

    def __init__(
        self,
        database,
        session: WhatIfSession,
        workload: Workload,
        maintenance_constants: MaintenanceConstants = MaintenanceConstants(),
        naive: bool = False,
    ) -> None:
        self.database = database
        self.session = session
        self.workload = workload
        self.maintenance_constants = maintenance_constants
        self.naive = naive
        self._subconfig_cache: Dict[FrozenSet[CandidateKey], float] = {}
        self._standalone_cache: Dict[CandidateKey, float] = {}
        self._maintenance_cache: Dict[CandidateKey, float] = {}
        self._affected_cache: Dict[CandidateKey, FrozenSet[int]] = {}
        #: Ranked positive candidates per candidate set (searchers share
        #: the scan/sort across repeated searches on one evaluator).
        self._ranked_cache: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._statement_requests: List[List[PathRequest]] = [
            extract_all_requests(entry.statement)
            if hasattr(entry.statement, "collection")
            else []
            for entry in workload
        ]
        #: Candidate -> request coverage is decided against the workload's
        #: *distinct* request patterns, precomputed once per evaluator:
        #: (pattern, value type) -> statement positions requesting it.
        #: The same pattern text recurs across statements, so this turns
        #: O(statements * requests) containment probes per candidate into
        #: O(distinct requests).
        request_index: Dict[Tuple[str, object], Tuple] = {}
        for position, requests in enumerate(self._statement_requests):
            for request in requests:
                key = (str(request.pattern), request.value_type)
                entry = request_index.get(key)
                if entry is None:
                    request_index[key] = (request.pattern, request.value_type, {position})
                else:
                    entry[2].add(position)
        self._request_index: List[Tuple[PathPattern, object, FrozenSet[int]]] = [
            (pattern, value_type, frozenset(positions))
            for pattern, value_type, positions in request_index.values()
        ]
        self.evaluations = 0  # configuration evaluations requested
        self._generation = self.session.generation
        self._base_costs: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Coupling / staleness
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Invalidate derived caches when the database changed.  The
        session notices data/index modifications via the database's
        modification counter; everything this evaluator derived from old
        costs (base costs, sub-configuration benefits, maintenance, and
        standalone benefits) must go with them."""
        current = getattr(self.database, "modification_count", 0)
        if current == self._generation:
            return
        self._generation = current
        self._base_costs = None
        self._subconfig_cache.clear()
        self._standalone_cache.clear()
        self._maintenance_cache.clear()
        self._ranked_cache.clear()
        # affected sets depend only on statement patterns, which do not
        # change with data -- but keep the contract simple and safe.
        self._affected_cache.clear()

    @property
    def base_costs(self) -> List[float]:
        """Base (no new indexes) cost of every statement, computed lazily
        through the session (warm after the first evaluator on a shared
        session)."""
        self._refresh()
        if self._base_costs is None:
            with self.session.phase("base-costs"):
                self._base_costs = self.costs(
                    [(entry.statement, ()) for entry in self.workload]
                )
            self._generation = getattr(self.database, "modification_count", 0)
        return self._base_costs

    def costs(self, tasks, use_cache: bool = True) -> List[float]:
        """Costs of (statement, definitions) pairs through the session's
        batch entry point."""
        results = self.session.evaluate_batch(tasks, use_cache)
        return [result.estimated_cost for result in results]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def total_base_cost(self) -> float:
        """Frequency-weighted workload cost with no (new) indexes."""
        return sum(
            entry.frequency * cost
            for entry, cost in zip(self.workload, self.base_costs)
        )

    def benefit(self, config: IndexConfiguration) -> float:
        """Benefit(X; W): query savings minus maintenance."""
        self.evaluations += 1
        self.session.note_evaluation()
        return self.raw_benefit(config) - self.maintenance(config)

    def improved_benefit(
        self,
        config: IndexConfiguration,
        extra: Iterable[CandidateIndex],
    ) -> float:
        """IB(X) of Section VI-A: the benefit of the current configuration
        with ``extra`` added to it."""
        return self.benefit(config.with_candidates(extra))

    def standalone_benefit(self, candidate: CandidateIndex) -> float:
        """Benefit of {candidate} alone (interaction-free view, used by
        plain greedy, top down lite, and dynamic programming)."""
        self._refresh()
        key = candidate.key
        if key not in self._standalone_cache:
            self._standalone_cache[key] = self.benefit(
                IndexConfiguration([candidate])
            )
        return self._standalone_cache[key]

    def ranked_positive_candidates(self, candidates) -> List[CandidateIndex]:
        """Candidates with positive standalone benefit, densest
        (benefit/size) first -- the scan order every searcher starts
        from.

        Computed lazily on first use and shared across searches on this
        evaluator (keyed weakly per candidate set), so algorithm sweeps
        like the Figure 3 experiments score and sort the pool once.  The
        cache is dropped when the database changes or when the candidate
        set has grown since it was ranked.
        """
        self._refresh()
        cached = self._ranked_cache.get(candidates)
        if cached is not None and cached[0] == len(candidates):
            return cached[1]
        positive = [
            (self.standalone_benefit(c), c)
            for c in candidates
            if c.size_bytes > 0
        ]
        positive = [(benefit, c) for benefit, c in positive if benefit > 0]
        positive.sort(key=lambda pair: pair[0] / pair[1].size_bytes, reverse=True)
        ranked = [c for _, c in positive]
        self._ranked_cache[candidates] = (len(candidates), ranked)
        return ranked

    def workload_cost(self, config: IndexConfiguration) -> float:
        """Estimated frequency-weighted workload cost under ``config``
        (including index maintenance charges)."""
        return self.total_base_cost() - self.raw_benefit(config) + self.maintenance(config)

    def estimated_speedup(self, config: IndexConfiguration) -> float:
        """The paper's evaluation metric: workload cost with no XML
        indexes divided by workload cost with the configuration."""
        base = self.total_base_cost()
        if base <= 0:
            return 1.0  # empty workload: nothing to speed up
        cost = self.workload_cost(config)
        if cost <= 0:
            return float("inf")
        return base / cost

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def maintenance(self, config: IndexConfiguration) -> float:
        """MC(X; W): frequency-weighted maintenance charge of the
        configuration for the workload's update statements."""
        return sum(self.candidate_maintenance(c) for c in config)

    def candidate_maintenance(self, candidate: CandidateIndex) -> float:
        """Frequency-weighted maintenance charge of one candidate for the
        workload's update statements (public: index review uses it)."""
        self._refresh()
        key = candidate.key
        if key not in self._maintenance_cache:
            if candidate.collection not in self.database.collections:
                self._maintenance_cache[key] = 0.0
                return 0.0
            total = 0.0
            try:
                statistics = self.database.runstats(candidate.collection)
            except StatisticsUnavailable:
                # Degrade to a statistics-free zero maintenance charge
                # rather than sinking the whole search (docs/robustness.md).
                self._maintenance_cache[key] = 0.0
                return 0.0
            for entry in self.workload:
                if isinstance(entry.statement, (Query, JoinQuery)):
                    continue
                total += entry.frequency * maintenance_cost(
                    candidate,
                    entry.statement,
                    statistics,
                    self.maintenance_constants,
                )
            self._maintenance_cache[key] = total
        return self._maintenance_cache[key]

    # ------------------------------------------------------------------
    # Raw (query-side) benefit with sub-configuration caching
    # ------------------------------------------------------------------
    def raw_benefit(self, config: IndexConfiguration) -> float:
        self._refresh()
        if len(config) == 0:
            return 0.0
        if self.naive:
            return self._evaluate_group(
                list(config), range(len(self.base_costs))
            )
        total = 0.0
        for group in self._sub_configurations(config):
            total += self._group_benefit(group)
        return total

    def _group_benefit(self, group: Sequence[CandidateIndex]) -> float:
        """Cached raw benefit of one sub-configuration group."""
        key = frozenset(c.key for c in group)
        cached = self._subconfig_cache.get(key)
        if cached is None:
            affected = sorted(
                set().union(*(self.affected_set(c) for c in group))
            )
            cached = self._evaluate_group(group, affected)
            self._subconfig_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Delta evaluation (the search hot path)
    # ------------------------------------------------------------------
    def delta_benefit(
        self,
        config: IndexConfiguration,
        extra: Union[CandidateIndex, Iterable[CandidateIndex]],
        current_benefit: Optional[float] = None,
    ) -> float:
        """``benefit(config + extra) - benefit(config)`` evaluated by
        re-costing only the sub-configuration group(s) the added indexes
        touch.

        Every untouched group contributes identically to both sides of
        the difference, so only the groups whose affected sets overlap the
        additions are merged and re-evaluated -- a search step that adds
        one candidate to an n-index configuration pays for one group, not
        n.  Exactly equal (up to the same caches) to computing the two
        benefits and subtracting; searchers track a running benefit and
        telescope deltas onto it.

        ``current_benefit`` is that tracked ``benefit(config)``; it is
        only consulted in naive mode, where group caching is disabled and
        the delta is a full re-evaluation minus the tracked base (one
        optimizer sweep per probe, like the naive advisor it models).
        """
        extras: List[CandidateIndex] = (
            [extra] if isinstance(extra, CandidateIndex) else list(extra)
        )
        extras = [c for c in extras if c not in config]
        self.evaluations += 1
        self.session.note_evaluation()
        if not extras:
            return 0.0
        self._refresh()
        if self.naive:
            new_total = self.raw_benefit(
                config.with_candidates(extras)
            ) - self.maintenance(config.with_candidates(extras))
            if current_benefit is None:
                current_benefit = self.raw_benefit(config) - self.maintenance(config)
            return new_total - current_benefit
        merged_members = list(extras)
        merged_affected = set()
        for candidate in extras:
            merged_affected |= self.affected_set(candidate)
        extras_affect_nothing = not merged_affected
        old_benefit = 0.0
        for group in self._sub_configurations(config):
            group_affected = set().union(
                *(self.affected_set(c) for c in group)
            )
            touches = (
                bool(merged_affected & group_affected)
                or (extras_affect_nothing and not group_affected)
            )
            if touches:
                old_benefit += self._group_benefit(group)
                merged_members.extend(group)
        return (
            self._group_benefit(merged_members)
            - old_benefit
            - sum(self.candidate_maintenance(c) for c in extras)
        )

    def affected_set(self, candidate: CandidateIndex) -> FrozenSet[int]:
        """The candidate's affected set *for this evaluator's workload*:
        positions of statements with an indexable path request the
        candidate covers.  Recomputed here (rather than trusting the
        enumeration-time sets) so a configuration trained on one workload
        can be evaluated against another (Figures 4/5)."""
        key = candidate.key
        if key not in self._affected_cache:
            affected: set = set()
            for pattern, value_type, positions in self._request_index:
                if (
                    candidate.value_type is value_type
                    and not positions <= affected
                    and candidate.pattern.covers(pattern)
                ):
                    affected |= positions
            self._affected_cache[key] = frozenset(affected)
        return self._affected_cache[key]

    def _sub_configurations(
        self, config: IndexConfiguration
    ) -> List[List[CandidateIndex]]:
        """Partition the configuration into groups of indexes whose
        affected sets overlap (merged transitively).

        Union-find keyed on statement positions: two candidates land in
        one group iff they (transitively) share an affected statement,
        and candidates affecting nothing pool into one leftover group --
        the same partition the old O(n^2) pairwise merge produced, in
        O(n * |affected|)."""
        candidates = list(config)
        parent = list(range(len(candidates)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        owner_by_position: Dict[Optional[int], int] = {}
        for i, candidate in enumerate(candidates):
            affected = self.affected_set(candidate)
            # None is the pooling key for empty affected sets.
            for position in affected if affected else (None,):
                owner = owner_by_position.get(position)
                if owner is None:
                    owner_by_position[position] = i
                else:
                    union(owner, i)
        groups: Dict[int, List[CandidateIndex]] = {}
        for i, candidate in enumerate(candidates):
            groups.setdefault(find(i), []).append(candidate)
        return list(groups.values())

    def _evaluate_group(
        self, group: Sequence[CandidateIndex], statement_positions
    ) -> float:
        """Optimize the affected statements with the group installed as
        virtual indexes; return the frequency-weighted savings.  Costing
        is delegated to the session as one batch (bypassing the cache in
        naive mode so the ablation keeps measuring real optimizer
        traffic).  The savings sum runs in position order."""
        base_costs = self.base_costs
        positions = list(statement_positions)
        definitions = self.session.definitions_for(group)
        new_costs = self.costs(
            [
                (self.workload.entries[position].statement, definitions)
                for position in positions
            ],
            use_cache=not self.naive,
        )
        return sum(
            (
                self.workload.entries[position].frequency
                * (base_costs[position] - new_cost)
                for position, new_cost in zip(positions, new_costs)
            ),
            0.0,
        )


def reconcile_configuration(
    session: WhatIfSession,
    workload: Workload,
    config: IndexConfiguration,
    maintenance_constants: MaintenanceConstants = MaintenanceConstants(),
) -> Dict[str, float]:
    """Re-score ``config``'s true benefit on the *full* (uncompressed)
    workload, costing only the statements the configuration affects.

    This is the compression reconciliation pass: tuning ran on
    frequency-weighted representatives, so the winning configuration's
    benefit is an approximation; this function recomputes it exactly --
    the same quantity a full-workload
    :class:`ConfigurationEvaluator.benefit` would return -- with at most
    ``2 x |affected statements|`` optimizer calls (base + with the
    configuration) instead of ``O(|workload|)``: unaffected statements
    keep their base cost and contribute zero savings by definition, so
    they are never optimized at all.  Affected sets, costs and
    maintenance come from a :class:`ConfigurationEvaluator` over the
    raw workload.
    """
    evaluator = ConfigurationEvaluator(
        session.database, session, workload, maintenance_constants
    )
    positions = sorted(
        set().union(*(evaluator.affected_set(c) for c in config))
    )
    statements = [workload.entries[p].statement for p in positions]
    definitions = session.definitions_for(list(config))
    with session.phase("reconcile"):
        base_costs = evaluator.costs([(s, ()) for s in statements])
        new_costs = evaluator.costs([(s, definitions) for s in statements])
    savings = sum(
        (
            workload.entries[p].frequency * (base - new)
            for p, base, new in zip(positions, base_costs, new_costs)
        ),
        0.0,
    )
    maintenance = evaluator.maintenance(config)
    return {
        "benefit": savings - maintenance,
        "savings": savings,
        "maintenance": maintenance,
        "affected_statements": len(positions),
        "workload_statements": len(workload),
    }
