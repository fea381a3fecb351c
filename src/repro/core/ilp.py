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
    subject to sum_{k in atoms(s)} x_k <= 1             for every s
               sum_{k in atoms(s), j in k} x_k <= y_j   for every s, j
               sum_j size_j y_j <= budget_bytes
               x, y binary

A statement picks at most one atom, so one link row per (statement,
candidate) states the same integer program as one row ``x_k <= y_j``
per (atom, member) would, with fewer rows and a relaxation at least as
tight.

Atoms are built in two passes of session costing (singletons
for every affected statement x candidate pair -- warm after candidate
ranking -- then pairs of the per-statement top singletons, kept only
when the optimizer actually combines them for a strict improvement).
The relaxation is solved by a simplex that pivots over the tableau's
non-zeros only (pure python, no dependencies), integrality restored by
best-first branch and bound on the ``y`` variables: the root is solved
cold, and every child re-optimises a copy of its parent's final
tableau with a dual simplex.  Both run under the
:class:`SearchBudget` -- an
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
from dataclasses import asdict, dataclass
from itertools import compress
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
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
# List-row simplex tableau (pure python)
# ---------------------------------------------------------------------------

class _Tableau:
    """A simplex tableau for ``maximize objective . v`` subject to
    ``A v <= bounds, v >= 0``, kept between solves.

    One dense list per constraint over the structural, slack and cut
    columns; the right-hand sides, the reduced-cost row and the
    objective value live apart, so pricing is one ``min`` over the cost
    row.  Built on the slack basis; :meth:`primal` solves it from there,
    and a branch-and-bound child re-optimises a copy of its parent's
    final tableau with :meth:`dual` after :meth:`shift` or :meth:`cut`
    applied its one branching bound.

    Every pivot goes through :meth:`_pivot`.  The atom program's
    tableaus are almost empty, so a pivot updates only the pivot row's
    non-zero columns, and only in rows whose entering-column entry is
    non-zero.  Every skipped update is ``x - f * 0.0``, which is ``x``
    for finite ``f``: a primal solve from the slack basis equals the
    full-width tableau method's float for float (``tests/test_ilp.py``
    keeps that method as the oracle).
    """

    __slots__ = ("body", "rhs", "cost", "value", "basis", "structural")

    def __init__(
        self,
        objective: Sequence[float],
        rows: Sequence[Sequence[Tuple[int, float]]],
        bounds: Sequence[float],
    ) -> None:
        n = len(objective)
        m = len(rows)
        width = n + m
        self.body: List[List[float]] = []
        for i, row in enumerate(rows):
            line = [0.0] * width
            for column, coefficient in row:
                line[column] = coefficient
            line[n + i] = 1.0
            self.body.append(line)
        self.rhs = list(bounds)
        self.cost = [-coefficient for coefficient in objective]
        self.cost.extend([0.0] * m)
        self.value = 0.0
        self.basis = list(range(n, width))
        self.structural = n

    def copy(self) -> "_Tableau":
        twin = _Tableau.__new__(_Tableau)
        twin.body = [line[:] for line in self.body]
        twin.rhs = self.rhs[:]
        twin.cost = self.cost[:]
        twin.value = self.value
        twin.basis = self.basis[:]
        twin.structural = self.structural
        return twin

    def values(self) -> List[float]:
        """The structural variables' values at the current basis."""
        values = [0.0] * self.structural
        for i, variable in enumerate(self.basis):
            if variable < self.structural:
                values[variable] = self.rhs[i]
        return values

    def _pivot(
        self,
        leaving: int,
        entering: int,
        touched: List[Tuple[int, List[float], float]],
    ) -> None:
        pivot_row = self.body[leaving]
        inverse = 1.0 / pivot_row[entering]
        pivot_entries = [
            (column, pivot_row[column] * inverse)
            for column in compress(range(len(pivot_row)), pivot_row)
        ]
        for column, scaled in pivot_entries:
            pivot_row[column] = scaled
        rhs = self.rhs
        pivot_rhs = rhs[leaving] = rhs[leaving] * inverse
        for i, line, factor in touched:
            if i != leaving:
                for column, scaled in pivot_entries:
                    line[column] -= factor * scaled
                rhs[i] -= factor * pivot_rhs
        cost = self.cost
        factor = cost[entering]
        for column, scaled in pivot_entries:
            cost[column] -= factor * scaled
        self.value -= factor * pivot_rhs
        self.basis[leaving] = entering

    def primal(self, limit: int) -> Optional[int]:
        """Primal simplex from a feasible basis (non-negative
        right-hand sides) to optimality; returns the iterations used, or
        ``None`` when the program is unbounded or ``limit`` iterations
        did not reach the optimum.

        Dantzig pricing (first most-negative reduced cost) with a switch
        to Bland's rule (which cannot cycle) once the pivot count passes
        twice the tableau width."""
        cost = self.cost
        rhs = self.rhs
        basis = self.basis
        bland_after = 2 * len(cost)
        for iteration in range(limit):
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
                return iteration
            # Rows with a non-zero in the entering column, in row order
            # (the ratio test's tie-break depends on that order).
            touched = [
                (i, line, line[entering])
                for i, line in enumerate(self.body)
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
            self._pivot(leaving, entering, touched)
        return None

    def dual(self, limit: int) -> Optional[int]:
        """Dual simplex from a dual-feasible basis (non-negative reduced
        costs) to primal feasibility; returns the pivots used, or
        ``None`` when the program is infeasible or ``limit`` pivots did
        not reach feasibility.

        The most negative right-hand side leaves (after twice the
        tableau width, the negative row with the lowest basic variable,
        Bland-style); the entering column minimises reduced cost over
        minus the leaving row's negative entry, lowest column on a
        tie.

        Entries below 1e-12 in magnitude in the leaving row or the
        entering column are rounding residue: they are zeroed instead
        of updating other rows, and the entering column is left an
        exact unit column, so re-solves keep the tableau as sparse as
        the cold solve left it (:meth:`settle`).  Warm nodes are pinned
        to the cold solve of the same node within 1e-9
        (``tests/test_ilp.py``), not float for float."""
        body = self.body
        rhs = self.rhs
        cost = self.cost
        basis = self.basis
        bland_after = 2 * len(cost)
        for iteration in range(limit):
            most_negative = min(rhs) if rhs else 0.0
            if most_negative >= -1e-9:
                return iteration
            if iteration < bland_after:
                leaving = rhs.index(most_negative)
            else:
                leaving = min(
                    (basis[i], i) for i, value in enumerate(rhs) if value < -1e-9
                )[1]
            row = body[leaving]
            entering = -1
            best_ratio = float("inf")
            for column in compress(range(len(row)), row):
                coefficient = row[column]
                if coefficient < -1e-9:
                    ratio = cost[column] / -coefficient
                    if ratio < best_ratio - 1e-12:
                        best_ratio = ratio
                        entering = column
                elif -1e-12 < coefficient < 1e-12:
                    row[column] = 0.0
            if entering < 0:
                return None  # no column can restore the row: infeasible
            touched = []
            for i, line in enumerate(body):
                coefficient = line[entering]
                if coefficient:
                    if -1e-12 < coefficient < 1e-12:
                        line[entering] = 0.0
                    else:
                        touched.append((i, line, coefficient))
            self._pivot(leaving, entering, touched)
            for i, line, _ in touched:
                line[entering] = 0.0
            row[entering] = 1.0
            cost[entering] = 0.0
        return None

    def settle(self) -> None:
        """Make every basic column an exact unit column, clearing the
        rounding residue pivots leave there (which would otherwise make
        every later pivot touch those rows)."""
        cost = self.cost
        body = self.body
        for i, variable in enumerate(self.basis):
            for line in body:
                if line[variable]:
                    line[variable] = 0.0
            body[i][variable] = 1.0
            cost[variable] = 0.0

    def shift(self, slack: int, delta: float) -> None:
        """Add ``delta`` to the original right-hand side of the row
        whose slack column is ``slack``: the current right-hand sides
        and objective move along that column."""
        rhs = self.rhs
        for i, line in enumerate(self.body):
            coefficient = line[slack]
            if coefficient:
                rhs[i] += delta * coefficient
        self.value += delta * self.cost[slack]

    def cut(self, column: int) -> None:
        """Append the row ``-v[column] <= -1`` with its own slack,
        expressed in the current basis (so the slack is basic, possibly
        at a negative value for :meth:`dual` to repair)."""
        for line in self.body:
            line.append(0.0)
        self.cost.append(0.0)
        slack = len(self.cost) - 1
        if column in self.basis:
            i = self.basis.index(column)
            line = self.body[i][:]
            line[column] = 0.0
            value = self.rhs[i] - 1.0
        else:
            line = [0.0] * len(self.cost)
            line[column] = -1.0
            value = -1.0
        line[slack] = 1.0
        self.body.append(line)
        self.rhs.append(value)
        self.basis.append(slack)


def solve_lp(
    objective: Sequence[float],
    rows: Sequence[Sequence[Tuple[int, float]]],
    bounds: Sequence[float],
) -> Optional[Tuple[float, List[float]]]:
    """Maximize ``objective . v`` subject to ``A v <= bounds, v >= 0``.

    ``rows`` holds each constraint as sparse ``(column, coefficient)``
    pairs; every bound must be non-negative, so the slack basis is
    feasible and a single-phase primal simplex suffices.  Returns the
    optimum and the structural values, or ``None`` if the program is
    unbounded or the simplex exceeds ``SIMPLEX_ITERATION_LIMIT``
    iterations.
    """
    tableau = _Tableau(objective, rows, bounds)
    if tableau.primal(SIMPLEX_ITERATION_LIMIT) is None:
        return None
    return tableau.value, tableau.values()


# ---------------------------------------------------------------------------
# Branch and bound over the y (candidate) variables
# ---------------------------------------------------------------------------

def _mask(candidates: Iterable[int]) -> int:
    """Bit mask of a set of candidate (pool) indices."""
    mask = 0
    for j in candidates:
        mask |= 1 << j
    return mask


class _Layout(NamedTuple):
    """Where a cold-built tableau keeps each free candidate: its ``y``
    column, the slack column of its ``y <= 1`` row, and the objective
    constant of the candidates the cold node had forced in.  Shared by
    every node warm-started from that tableau."""

    y_column: Dict[int, int]
    unit_slack: Dict[int, int]
    constant: float


class _Node(NamedTuple):
    """A solved node: its LP bound, the fractional ``y`` of its free
    candidates, and the final tableau its children warm-start from
    (``None`` when no atom was usable, so nothing was solved)."""

    bound: float
    fractional: Dict[int, float]
    tableau: Optional[_Tableau] = None
    layout: Optional[_Layout] = None

    @classmethod
    def of(
        cls, tableau: _Tableau, layout: _Layout, y_order: List[int]
    ) -> "_Node":
        """The node an optimal ``tableau`` laid out by ``layout``
        solves, reporting the candidates of ``y_order``."""
        values = tableau.values()
        return cls(
            tableau.value + layout.constant,
            {j: values[layout.y_column[j]] for j in y_order},
            tableau,
            layout,
        )


@dataclass
class GapReport:
    """What branch and bound proved: the root LP bound, the final bound
    (the largest bound still open, or the incumbent's value once none
    is), the incumbent's model objective, the nodes explored, and
    whether the tree closed -- every open node was explored or pruned
    within ``MAX_NODES``, and no node was dropped by the simplex giving
    up."""

    root_bound: Optional[float] = None
    final_bound: Optional[float] = None
    objective: Optional[float] = None
    nodes: int = 0
    proven: bool = False


class _Program:
    """The cost-atom program for one pool, compiled once per search.

    Everything a node's relaxation needs that does not depend on the
    node -- per-atom savings, member bit masks, the atoms of each
    statement row and of each (statement, candidate) link row in row
    order -- is laid out here.  :meth:`relax` derives a node's LP from
    it by masking out the atoms and candidates the node fixes and solves
    it cold; :meth:`child` re-optimises the parent's tableau instead.
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
        self._member_masks = [_mask(atom.members) for atom in self.atoms]
        # (saving, member mask) per atom, per statement in the order
        # ``objective`` sums them.
        self._scored = [
            [(self._savings[index], self._member_masks[index]) for index in indices]
            for indices in self.by_statement.values()
        ]
        self._statement_rows = [
            self.by_statement[statement]
            for statement in sorted(self.by_statement)
        ]
        links: Dict[Tuple[int, int], List[int]] = {}
        for index, atom in enumerate(self.atoms):
            for j in atom.members:
                links.setdefault((atom.statement, j), []).append(index)
        #: One link row per (statement, candidate), in that order: the
        #: candidate and the statement's atoms holding it.
        self._links = [(j, links[(s, j)]) for s, j in sorted(links)]

    def objective(self, chosen: Set[int]) -> float:
        """Model objective of an integral candidate set."""
        outside = ~_mask(chosen)
        total = 0.0
        for scored in self._scored:
            best = 0.0
            for saving, members in scored:
                if saving > best and not members & outside:
                    best = saving
            total += best
        return total - sum(self.maintenance[j] for j in chosen)

    def size_of(self, chosen: Iterable[int]) -> int:
        return sum(self.sizes[j] for j in chosen)

    def _free(
        self, fixed_zero: FrozenSet[int], fixed_one: FrozenSet[int]
    ) -> Tuple[List[int], List[int]]:
        """The node's usable atoms (no member forced out), in atom
        order, and its free candidates (members of a usable atom not
        forced in), in index order."""
        zero_mask = _mask(fixed_zero)
        usable = [
            index
            for index, mask in enumerate(self._member_masks)
            if not mask & zero_mask
        ]
        free_mask = 0
        for index in usable:
            free_mask |= self._member_masks[index]
        free_mask &= ~_mask(fixed_one)
        return usable, [
            j for j in range(len(self.pool)) if free_mask >> j & 1
        ]

    # -- one node's LP relaxation ------------------------------------
    def relax(
        self, fixed_zero: FrozenSet[int], fixed_one: FrozenSet[int]
    ) -> Optional[_Node]:
        """Solve the LP relaxation of the node where ``fixed_one``
        candidates are forced in and ``fixed_zero`` out, cold: from the
        slack basis.  ``None`` when the node is infeasible (forced sizes
        already bust the budget) or the simplex gave up.  Callers prune
        a ``None`` node; after a give-up that can discard the subtree
        holding the program's optimum, which costs quality, not
        correctness: the incumbent stays feasible and
        :func:`ilp_search` never returns less than the greedy
        configuration's true benefit.

        Columns are the usable atoms in atom order, then the free
        candidates in index order; rows are the statement rows in
        statement order, the (statement, candidate) link rows, the
        budget row and the unit bounds -- the order the pivot sequence
        depends on.
        """
        remaining = self.budget_bytes - self.size_of(fixed_one)
        if remaining < 0:
            return None
        constant = -sum(self.maintenance[j] for j in fixed_one)
        usable, y_order = self._free(fixed_zero, fixed_one)
        if not usable:
            return _Node(constant, {})
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
        for j, indices in self._links:
            if j in y_column:
                row = [
                    (atom_column[index], 1.0)
                    for index in indices
                    if index in atom_column
                ]
                if row:
                    row.append((y_column[j], -1.0))
                    rows.append(row)
        bounds.extend([0.0] * (len(rows) - len(bounds)))
        unit_slack: Dict[int, int] = {}
        if y_order:
            rows.append(
                [(y_column[j], float(self.sizes[j])) for j in y_order]
            )
            bounds.append(float(remaining))
            for j in y_order:
                unit_slack[j] = len(objective) + len(rows)
                rows.append([(y_column[j], 1.0)])
            bounds.extend([1.0] * len(y_order))
        tableau = _Tableau(objective, rows, bounds)
        if tableau.primal(SIMPLEX_ITERATION_LIMIT) is None:
            return None
        tableau.settle()
        return _Node.of(
            tableau, _Layout(y_column, unit_slack, constant), y_order
        )

    def child(
        self,
        parent: _Node,
        branch_on: int,
        forced_in: bool,
        fixed_zero: FrozenSet[int],
        fixed_one: FrozenSet[int],
    ) -> Optional[_Node]:
        """Solve the child of ``parent`` that forces ``branch_on`` in
        or out (its fixings are ``fixed_zero``/``fixed_one``, and its
        forced sizes must fit the budget).

        A copy of the parent's final tableau takes the one new bound --
        ``y <= 0`` moves the right-hand side of ``y``'s ``<= 1`` row,
        ``y >= 1`` appends a cut row -- and is re-optimised by the dual
        simplex and a primal clean-up.  If that exceeds
        ``SIMPLEX_ITERATION_LIMIT`` pivots the child is solved cold by
        :meth:`relax`; ``None`` means that gave up too."""
        layout = parent.layout
        tableau = parent.tableau.copy()
        if forced_in:
            tableau.cut(layout.y_column[branch_on])
        else:
            tableau.shift(layout.unit_slack[branch_on], -1.0)
        pivots = tableau.dual(SIMPLEX_ITERATION_LIMIT)
        if (
            pivots is None
            or tableau.primal(SIMPLEX_ITERATION_LIMIT - pivots) is None
        ):
            return self.relax(fixed_zero, fixed_one)
        return _Node.of(tableau, layout, self._free(fixed_zero, fixed_one)[1])

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
    report: Optional[GapReport] = None,
) -> Tuple[Set[int], float]:
    """Best-first branch and bound; returns the best integral candidate
    set and its model objective, and fills ``report`` (also when it
    raises).  The root is solved cold, every child warm from its
    parent's tableau.  Raises :class:`_BudgetSpent` when the anytime
    budget expires mid-tree (the caller falls back)."""
    if report is None:
        report = GapReport()
    best_set: Set[int] = set(seed or ())
    if program.size_of(best_set) > program.budget_bytes:
        best_set = set()
    best_value = report.objective = program.objective(best_set)
    root = program.relax(frozenset(), frozenset())
    if root is None:
        return best_set, best_value
    report.root_bound = root.bound
    counter = 0
    # A heap entry is a node still to explore: its parent's bound, a
    # tie-break, its fixings, and either its parent plus the branch that
    # makes it (solved when, and if, it is popped) or -- for the root
    # only, solved above so it is solved once -- itself and ``None``.
    heap: List[
        Tuple[
            float,
            int,
            FrozenSet[int],
            FrozenSet[int],
            _Node,
            Optional[Tuple[int, bool]],
        ]
    ] = [(-root.bound, counter, frozenset(), frozenset(), root, None)]
    explored = 0
    gave_up = False
    try:
        while heap and explored < MAX_NODES:
            reason = _spent(budget)
            if reason is not None:
                raise _BudgetSpent(reason)
            negative_bound, _, fixed_zero, fixed_one, carried, branch = (
                heapq.heappop(heap)
            )
            if -negative_bound <= best_value + EPS:
                continue  # the bound can no longer beat the incumbent
            explored += 1
            if branch is None:
                node: Optional[_Node] = carried
            elif program.size_of(fixed_one) > program.budget_bytes:
                continue  # forced sizes bust the budget: infeasible
            else:
                node = program.child(carried, *branch, fixed_zero, fixed_one)
                if node is None:
                    gave_up = True
                    continue
            bound, fractional = node.bound, node.fractional
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
            for child_zero, child_one, forced_in in (
                (fixed_zero | {branch_on}, fixed_one, False),
                (fixed_zero, fixed_one | {branch_on}, True),
            ):
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        -bound,
                        counter,
                        frozenset(child_zero),
                        frozenset(child_one),
                        node,
                        (branch_on, forced_in),
                    ),
                )
    finally:
        # Entries the loop would skip unexplored cannot hold a better
        # set; whatever else is open bounds what the tree left unproven.
        open_bounds = [
            -entry[0] for entry in heap if -entry[0] > best_value + EPS
        ]
        report.final_bound = max(open_bounds, default=best_value)
        report.objective = best_value
        report.nodes = explored
        report.proven = not open_bounds and not gave_up
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
    higher true (optimizer-evaluated) benefit.  The result's ``ilp``
    field carries the branch and bound's :class:`GapReport`, as far as
    the program got.
    """
    telemetry = _Telemetry(evaluator)
    report = GapReport()

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
            chosen, _ = _branch_and_bound(program, budget, seed, report)
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
        result = telemetry.finish(
            "ilp",
            fallback.configuration,
            budget_bytes,
            benefit=fallback.benefit,
            truncated=spent.reason,
            resumed=resumed,
        )
        result.ilp = asdict(report)
        return result

    greedy = greedy_search_with_heuristics(
        candidates, evaluator, budget_bytes, budget=budget
    )
    if greedy.benefit > ilp_benefit:
        config, benefit = greedy.configuration, greedy.benefit
    else:
        config, benefit = ilp_config, ilp_benefit
    if budget is not None:
        budget.note_best("ilp", budget_bytes, config, benefit=benefit)
    result = telemetry.finish(
        "ilp",
        config,
        budget_bytes,
        benefit=benefit,
        truncated=greedy.truncated_reason,
        resumed=resumed or greedy.resumed,
    )
    result.ilp = asdict(report)
    return result
