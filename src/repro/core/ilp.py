"""CoPhy-style ILP search over per-statement cost atoms.

The searchers in :mod:`repro.core.search` probe configurations one
greedy step at a time; CoPhy (Dash et al., PAPERS.md) instead phrases
index selection as a binary program over **cost atoms** -- the cost of
one statement under one small candidate subset, exactly the
(statement, projected configuration) pairs the shared
:class:`~repro.optimizer.session.WhatIfSession` already caches.  With
the atoms in hand, search never calls the optimizer again: it reasons
over the matrix.

The program, for statements ``s``, atoms ``k`` (with saving ``w_k`` and
member candidates ``j in k``) and candidates ``j`` (size ``size_j``,
frequency-weighted maintenance charge ``m_j``)::

    maximize   sum_k w_k x_k  -  sum_j m_j y_j
    subject to sum_{k in atoms(s)} x_k <= 1          for every s
               x_k <= y_j                            for every k, j in k
               sum_j size_j y_j <= budget_bytes
               x, y binary

Atoms are built in two passes of session costing (singletons
for every affected statement x candidate pair -- warm after candidate
ranking -- then pairs of the per-statement top singletons, kept only
when the optimizer actually combines them for a strict improvement).
The relaxation is solved with a primal simplex that pivots over the
tableau's non-zeros only (pure python, no dependencies), integrality
restored by best-first branch and bound on the ``y`` variables, both
under the PR 3 :class:`SearchBudget` -- an
expiring deadline or call budget abandons the program and falls back to
:func:`~repro.core.search.greedy_search_with_heuristics`, preserving
anytime semantics.  The chosen configuration's *true* benefit is then
evaluated through the optimizer and compared against a (cache-warm)
greedy run: ``ilp`` returns whichever is better, so its benefit is
``>=`` greedy's on every workload by construction (differentially
pinned by ``tests/test_ilp.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.benefit import ConfigurationEvaluator
from repro.core.candidates import CandidateIndex, CandidateSet
from repro.core.config import IndexConfiguration
from repro.core.search import (
    SearchResult,
    _spent,
    _Telemetry,
    greedy_search_with_heuristics,
)
from repro.robustness.budget import SearchBudget
from repro.robustness.checkpoint import resolve_candidates

#: Candidate pool cap: the ILP runs over the densest ranked positives.
MAX_POOL = 64
#: Per statement, the top singleton atoms eligible to form pair atoms.
PAIR_SEED_CANDIDATES = 5
#: Branch-and-bound node cap (the LP bound is tight enough that real
#: runs close the gap in a handful of nodes; this is the runaway stop).
MAX_NODES = 48
#: Simplex pivots before giving up on a node's relaxation.
SIMPLEX_ITERATION_LIMIT = 4000
EPS = 1e-9


@dataclass(frozen=True)
class Atom:
    """One cost atom: statement position, member candidate indices
    (into the ILP's candidate pool), and the frequency-weighted saving
    over the statement's base cost."""

    statement: int
    members: Tuple[int, ...]
    saving: float


class _BudgetSpent(Exception):
    """Internal: the anytime budget expired mid-program."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


# ---------------------------------------------------------------------------
# Atom matrix construction (batched through the session)
# ---------------------------------------------------------------------------

def build_atom_matrix(
    pool: Sequence[CandidateIndex],
    evaluator: ConfigurationEvaluator,
    budget: Optional[SearchBudget] = None,
    pair_seeds: int = PAIR_SEED_CANDIDATES,
) -> List[Atom]:
    """Cost atoms for ``pool`` over the evaluator's workload.

    Two passes of session costing: every (affected statement,
    singleton) cost -- deduped by the projected-key cache, so costs the
    candidate ranking already probed are free -- then the pair costs
    for each statement's top ``pair_seeds`` singletons.  Pair
    atoms survive only when the optimizer combines the two indexes for
    a saving strictly better than either alone (otherwise the pair
    column is dominated and only bloats the program).
    """
    session = evaluator.session
    workload = evaluator.workload
    base_costs = evaluator.base_costs
    affected = [evaluator.affected_set(candidate) for candidate in pool]
    definitions = [
        session.definitions_for([candidate]) for candidate in pool
    ]
    relevant: Dict[int, List[int]] = {}
    for j, positions in enumerate(affected):
        for position in positions:
            relevant.setdefault(position, []).append(j)

    reason = _spent(budget)
    if reason is not None:
        raise _BudgetSpent(reason)

    tasks = []
    spans: List[Tuple[int, int]] = []  # parallel to tasks: (position, j)
    for position in sorted(relevant):
        statement = workload.entries[position].statement
        for j in relevant[position]:
            spans.append((position, j))
            tasks.append((statement, definitions[j]))
    with session.phase("ilp-atoms"):
        costs = evaluator.costs(tasks)

    singles: Dict[Tuple[int, int], float] = {}
    for (position, j), cost in zip(spans, costs):
        frequency = workload.entries[position].frequency
        singles[(position, j)] = frequency * (base_costs[position] - cost)

    reason = _spent(budget)
    if reason is not None:
        raise _BudgetSpent(reason)

    pair_tasks = []
    pair_spans: List[Tuple[int, int, int]] = []
    pair_definitions: Dict[Tuple[int, int], Tuple] = {}
    for position in sorted(relevant):
        statement = workload.entries[position].statement
        seeds = sorted(
            (j for j in relevant[position] if singles[(position, j)] > EPS),
            key=lambda j: (-singles[(position, j)], j),
        )[:pair_seeds]
        for a in range(len(seeds)):
            for b in range(a + 1, len(seeds)):
                first, second = sorted((seeds[a], seeds[b]))
                pair_key = (first, second)
                if pair_key not in pair_definitions:
                    pair_definitions[pair_key] = session.definitions_for(
                        [pool[first], pool[second]]
                    )
                pair_spans.append((position, first, second))
                pair_tasks.append(
                    (statement, pair_definitions[pair_key])
                )
    with session.phase("ilp-atoms"):
        pair_costs = evaluator.costs(pair_tasks)

    atoms: List[Atom] = [
        Atom(position, (j,), saving)
        for (position, j), saving in sorted(singles.items())
        if saving > EPS
    ]
    for (position, first, second), cost in zip(pair_spans, pair_costs):
        frequency = workload.entries[position].frequency
        saving = frequency * (base_costs[position] - cost)
        best_single = max(
            singles[(position, first)], singles[(position, second)]
        )
        if saving > best_single + EPS:
            atoms.append(Atom(position, (first, second), saving))
    return atoms


# ---------------------------------------------------------------------------
# Sparse-pivot primal simplex (pure python)
# ---------------------------------------------------------------------------

def solve_lp(
    objective: Sequence[float],
    rows: Sequence[Sequence[Tuple[int, float]]],
    bounds: Sequence[float],
) -> Optional[Tuple[float, List[float]]]:
    """Maximize ``objective . v`` subject to ``A v <= bounds, v >= 0``.

    ``rows`` holds each constraint as sparse ``(column, coefficient)``
    pairs; every bound must be non-negative, so the slack basis is
    feasible and a single-phase primal simplex suffices.  Dantzig
    pricing (first most-negative reduced cost) with a switch to Bland's
    rule (which cannot cycle) once the pivot count passes twice the
    tableau size; returns ``None`` if the iteration limit is still
    exceeded.

    The atom program's tableaus are almost empty (about two non-zeros
    per constraint row), so a pivot updates only the pivot row's
    non-zero columns, and only in rows whose entering-column entry is
    non-zero.  Every skipped update is ``x - f * 0.0``, which is ``x``
    for finite ``f``: the result equals the full-width tableau
    method's float for float (``tests/test_ilp.py`` keeps that method as
    the oracle).
    """
    n = len(objective)
    m = len(rows)
    width = n + m
    # One list per constraint over structural + slack columns; the
    # right-hand sides, the cost row and its corner (the objective
    # value) live apart so pricing is one ``min`` over the cost row.
    body: List[List[float]] = []
    for i, row in enumerate(rows):
        line = [0.0] * width
        for column, coefficient in row:
            line[column] = coefficient
        line[n + i] = 1.0
        body.append(line)
    rhs = list(bounds)
    cost = [-coefficient for coefficient in objective]
    cost.extend([0.0] * m)
    value = 0.0
    basis = list(range(n, width))
    columns = range(width)

    bland_after = 2 * (m + n)
    for iteration in range(SIMPLEX_ITERATION_LIMIT):
        entering = -1
        if iteration < bland_after:
            most_negative = min(cost) if cost else 0.0
            if most_negative < -1e-9:
                entering = cost.index(most_negative)
        else:
            for column, reduced in enumerate(cost):
                if reduced < -1e-9:
                    entering = column
                    break
        if entering < 0:
            values = [0.0] * n
            for i, variable in enumerate(basis):
                if variable < n:
                    values[variable] = rhs[i]
            return value, values
        # Rows with a non-zero in the entering column, in row order (the
        # ratio test's tie-break depends on that order).
        touched = [
            (i, line, line[entering])
            for i, line in enumerate(body)
            if line[entering]
        ]
        leaving = -1
        best_ratio = float("inf")
        for i, _, coefficient in touched:
            if coefficient > 1e-9:
                ratio = rhs[i] / coefficient
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return None  # unbounded: malformed program
        pivot_row = body[leaving]
        inverse = 1.0 / pivot_row[entering]
        pivot_entries = [
            (column, pivot_row[column] * inverse)
            for column in compress(columns, pivot_row)
        ]
        for column, scaled in pivot_entries:
            pivot_row[column] = scaled
        pivot_rhs = rhs[leaving] = rhs[leaving] * inverse
        for i, line, factor in touched:
            if i != leaving:
                for column, scaled in pivot_entries:
                    line[column] -= factor * scaled
                rhs[i] -= factor * pivot_rhs
        factor = cost[entering]
        for column, scaled in pivot_entries:
            cost[column] -= factor * scaled
        value -= factor * pivot_rhs
        basis[leaving] = entering
    return None


# ---------------------------------------------------------------------------
# Branch and bound over the y (candidate) variables
# ---------------------------------------------------------------------------

#: A node's relaxation: (LP bound, fractional y value per free candidate).
_Relaxation = Tuple[float, Dict[int, float]]


def _mask(candidates: Iterable[int]) -> int:
    """Bit mask of a set of candidate (pool) indices."""
    mask = 0
    for j in candidates:
        mask |= 1 << j
    return mask


class _Program:
    """The cost-atom program for one pool, compiled once per search.

    Everything a node's relaxation needs that does not depend on the
    node -- per-atom savings, members and member bit masks, the atoms
    of each statement row in row order -- is laid out here;
    :meth:`relax` derives a node's LP from it by masking out the atoms
    and candidates the node fixes.
    """

    def __init__(
        self,
        pool: Sequence[CandidateIndex],
        atoms: Sequence[Atom],
        maintenance: Sequence[float],
        budget_bytes: int,
    ) -> None:
        self.pool = list(pool)
        self.atoms = list(atoms)
        self.maintenance = list(maintenance)
        self.sizes = [candidate.size_bytes for candidate in pool]
        self.budget_bytes = budget_bytes
        self.by_statement: Dict[int, List[int]] = {}
        for index, atom in enumerate(self.atoms):
            self.by_statement.setdefault(atom.statement, []).append(index)
        self._savings = [atom.saving for atom in self.atoms]
        self._members = [atom.members for atom in self.atoms]
        self._member_masks = [_mask(atom.members) for atom in self.atoms]
        self._statement_rows = [
            self.by_statement[statement]
            for statement in sorted(self.by_statement)
        ]

    def objective(self, chosen: Set[int]) -> float:
        """Model objective of an integral candidate set."""
        total = 0.0
        for indices in self.by_statement.values():
            best = 0.0
            for index in indices:
                atom = self.atoms[index]
                if atom.saving > best and all(
                    j in chosen for j in atom.members
                ):
                    best = atom.saving
            total += best
        return total - sum(self.maintenance[j] for j in chosen)

    def size_of(self, chosen: Set[int]) -> int:
        return sum(self.sizes[j] for j in chosen)

    # -- one node's LP relaxation ------------------------------------
    def relax(
        self, fixed_zero: FrozenSet[int], fixed_one: FrozenSet[int]
    ) -> Optional[_Relaxation]:
        """LP bound of the node where ``fixed_one`` candidates are
        forced in and ``fixed_zero`` out.  Returns ``(bound, fractional
        y values for the free candidates)``, or ``None`` when the node
        is infeasible (forced sizes already bust the budget) or the
        simplex gave up.  Callers prune a ``None`` node; after a
        give-up that can discard the subtree holding the program's
        optimum, which costs quality, not correctness: the incumbent
        stays feasible and :func:`ilp_search` never returns less than
        the greedy configuration's true benefit.

        Columns are the usable atoms in atom order, then the free
        candidates in index order; rows are the statement rows in
        statement order, each usable atom's link rows, the budget row
        and the unit bounds -- the order the pivot sequence depends on.
        """
        remaining = self.budget_bytes - sum(
            self.sizes[j] for j in fixed_one
        )
        if remaining < 0:
            return None
        constant = -sum(self.maintenance[j] for j in fixed_one)
        zero_mask = _mask(fixed_zero)
        usable = [
            index
            for index, mask in enumerate(self._member_masks)
            if not mask & zero_mask
        ]
        if not usable:
            return constant, {}
        free_mask = 0
        for index in usable:
            free_mask |= self._member_masks[index]
        free_mask &= ~_mask(fixed_one)
        y_order = [
            j for j in range(len(self.pool)) if free_mask >> j & 1
        ]
        atom_column = {index: column for column, index in enumerate(usable)}
        y_column = {j: len(usable) + slot for slot, j in enumerate(y_order)}

        objective = [self._savings[index] for index in usable]
        objective.extend(-self.maintenance[j] for j in y_order)
        rows: List[List[Tuple[int, float]]] = []
        for indices in self._statement_rows:
            row = [
                (atom_column[index], 1.0)
                for index in indices
                if index in atom_column
            ]
            if row:
                rows.append(row)
        bounds = [1.0] * len(rows)
        for column, index in enumerate(usable):
            for j in self._members[index]:
                if j in y_column:
                    rows.append([(column, 1.0), (y_column[j], -1.0)])
        bounds.extend([0.0] * (len(rows) - len(bounds)))
        if y_order:
            rows.append(
                [(y_column[j], float(self.sizes[j])) for j in y_order]
            )
            bounds.append(float(remaining))
            for j in y_order:
                rows.append([(y_column[j], 1.0)])
            bounds.extend([1.0] * len(y_order))
        solved = solve_lp(objective, rows, bounds)
        if solved is None:
            return None
        value, values = solved
        fractional = {
            j: values[y_column[j]] for j in y_order
        }
        return value + constant, fractional

    # -- rounding ----------------------------------------------------
    def round_to_incumbent(
        self,
        fixed_one: FrozenSet[int],
        fractional: Dict[int, float],
    ) -> Set[int]:
        """Greedy rounding of a node's LP solution into a feasible
        integral set: forced candidates first, then free candidates by
        descending fractional value while the budget holds."""
        chosen = set(fixed_one)
        remaining = self.budget_bytes - self.size_of(chosen)
        for j in sorted(
            fractional, key=lambda j: (-fractional[j], j)
        ):
            if fractional[j] <= EPS:
                continue
            if self.sizes[j] <= remaining:
                chosen.add(j)
                remaining -= self.sizes[j]
        return chosen


def _branch_and_bound(
    program: _Program,
    budget: Optional[SearchBudget],
    seed: Optional[Set[int]] = None,
) -> Tuple[Set[int], float]:
    """Best-first branch and bound; returns the best integral candidate
    set and its model objective.  Raises :class:`_BudgetSpent` when the
    anytime budget expires mid-tree (the caller falls back)."""
    best_set: Set[int] = set(seed or ())
    if program.size_of(best_set) > program.budget_bytes:
        best_set = set()
    best_value = program.objective(best_set)
    counter = 0
    # A heap entry ends with the node's relaxation when it is already
    # known -- only the root's, solved here so it is solved once --
    # or ``None``: children are solved when (and if) they are popped.
    root = program.relax(frozenset(), frozenset())
    if root is None:
        return best_set, best_value
    heap: List[
        Tuple[
            float, int, FrozenSet[int], FrozenSet[int], Optional[_Relaxation]
        ]
    ] = [(-root[0], counter, frozenset(), frozenset(), root)]
    explored = 0
    while heap and explored < MAX_NODES:
        reason = _spent(budget)
        if reason is not None:
            raise _BudgetSpent(reason)
        negative_bound, _, fixed_zero, fixed_one, solved = heapq.heappop(heap)
        if -negative_bound <= best_value + EPS:
            continue  # the bound can no longer beat the incumbent
        explored += 1
        if solved is None:
            solved = program.relax(fixed_zero, fixed_one)
        if solved is None:
            continue
        bound, fractional = solved
        if bound <= best_value + EPS:
            continue
        incumbent = program.round_to_incumbent(fixed_one, fractional)
        value = program.objective(incumbent)
        if value > best_value + EPS:
            best_value = value
            best_set = incumbent
        branch_on = -1
        most_fractional = 1e-6
        for j, value_j in sorted(fractional.items()):
            distance = min(value_j, 1.0 - value_j)
            if distance > most_fractional:
                most_fractional = distance
                branch_on = j
        if branch_on < 0:
            # Integral relaxation: the rounding above captured it.
            continue
        for child_zero, child_one in (
            (fixed_zero | {branch_on}, fixed_one),
            (fixed_zero, fixed_one | {branch_on}),
        ):
            counter += 1
            heapq.heappush(
                heap,
                (
                    -bound,
                    counter,
                    frozenset(child_zero),
                    frozenset(child_one),
                    None,
                ),
            )
    return best_set, best_value


# ---------------------------------------------------------------------------
# The searcher
# ---------------------------------------------------------------------------

def ilp_search(
    candidates: CandidateSet,
    evaluator: ConfigurationEvaluator,
    budget_bytes: int,
    *,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """The ``ilp`` strategy: atom matrix -> LP relaxation -> branch and
    bound -> true-benefit comparison against greedy.

    Anytime: a :class:`SearchBudget` expiring anywhere in the program
    abandons it and runs :func:`greedy_search_with_heuristics` on the
    warm caches instead (the result is flagged truncated with the
    budget's reason).  Never worse than greedy: the final configuration
    is whichever of the ILP solution and the greedy solution has the
    higher true (optimizer-evaluated) benefit.
    """
    telemetry = _Telemetry(evaluator)

    seed: Optional[Set[int]] = None
    resumed = False
    pool: List[CandidateIndex] = []
    try:
        reason = _spent(budget)
        if reason is not None:
            raise _BudgetSpent(reason)
        pool = [
            c
            for c in evaluator.ranked_positive_candidates(candidates)
            if c.size_bytes <= budget_bytes
        ][:MAX_POOL]
        atoms = build_atom_matrix(pool, evaluator, budget)
        maintenance = [
            evaluator.candidate_maintenance(candidate) for candidate in pool
        ]
        program = _Program(pool, atoms, maintenance, budget_bytes)
        if budget is not None:
            state = budget.restore("ilp", budget_bytes)
            if state is not None:
                resolved = resolve_candidates(state.candidate_keys, pool)
                if resolved is not None:
                    index_of = {c.key: j for j, c in enumerate(pool)}
                    seed = {index_of[c.key] for c in resolved}
                    resumed = True
        with evaluator.session.phase("ilp-solve"):
            chosen, _ = _branch_and_bound(program, budget, seed)
        ilp_config = IndexConfiguration(
            sorted(
                (pool[j] for j in chosen),
                key=lambda c: (str(c.pattern), c.value_type.value),
            )
        )
        ilp_benefit = evaluator.benefit(ilp_config)
        if budget is not None:
            budget.note_best("ilp", budget_bytes, ilp_config, benefit=ilp_benefit)
    except _BudgetSpent as spent:
        # Anytime fallback: greedy on warm caches, flagged truncated.
        fallback = greedy_search_with_heuristics(
            candidates, evaluator, budget_bytes, budget=budget
        )
        return telemetry.finish(
            "ilp",
            fallback.configuration,
            budget_bytes,
            benefit=fallback.benefit,
            truncated=spent.reason,
            resumed=resumed,
        )

    greedy = greedy_search_with_heuristics(
        candidates, evaluator, budget_bytes, budget=budget
    )
    if greedy.benefit > ilp_benefit:
        config, benefit = greedy.configuration, greedy.benefit
    else:
        config, benefit = ilp_config, ilp_benefit
    if budget is not None:
        budget.note_best("ilp", budget_bytes, config, benefit=benefit)
    return telemetry.finish(
        "ilp",
        config,
        budget_bytes,
        benefit=benefit,
        truncated=greedy.truncated_reason,
        resumed=resumed or greedy.resumed,
    )
