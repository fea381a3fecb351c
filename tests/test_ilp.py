"""Tests for the ILP cost-atom search (PR 7).

The load-bearing contract is the differential: ``ilp`` benefit is >=
``greedy_heuristics`` benefit on every suite workload and on seeded
random workloads -- by construction (the searcher returns the better of
the two true benefits), so these tests pin that the construction
actually holds end to end.

The LP engine has its own differentials.  A cold solve pivots over the
tableau's non-zeros only and must return, float for float, what the
full-width tableau loop it replaced returns; a warm-started child must
match the cold solve of the same node within 1e-9.  The full-width loop,
the per-atom link rows it was once fed, and the ``Atom`` walk the model
objective once was live on here as oracles (``_dense_solve_lp``,
``_reference_lp``, ``_reference_objective``).
"""

from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ilp

from repro.core.benefit import ConfigurationEvaluator
from repro.core.candidates import enumerate_basic_candidates
from repro.core.generalization import generalize_candidates
from repro.core.ilp import (
    SIMPLEX_ITERATION_LIMIT,
    Atom,
    GapReport,
    _branch_and_bound,
    _Program,
    _Tableau,
    build_atom_matrix,
    ilp_search,
    solve_lp,
)
from repro.core.advisor import IndexAdvisor
from repro.core.search import ALGORITHMS, greedy_search_with_heuristics
from repro.optimizer.session import WhatIfSession
from repro.robustness.budget import SearchBudget
from repro.workloads import synthetic, tpox, xmark


def _inputs(database, workload):
    """(candidates, evaluator, total basic size) over one shared
    what-if session -- the same wiring the advisor uses."""
    session = WhatIfSession(database)
    candidates = enumerate_basic_candidates(session, workload)
    generalize_candidates(candidates)
    candidates.compute_sizes(database)
    evaluator = ConfigurationEvaluator(database, session, workload)
    all_size = sum(c.size_bytes for c in candidates.basics())
    return candidates, evaluator, all_size


@pytest.fixture()
def tpox_inputs(tpox_db, tpox_wl):
    return _inputs(tpox_db, tpox_wl)


# ---------------------------------------------------------------------------
# Oracles: the code the sparse engine replaced, kept as it was
# ---------------------------------------------------------------------------

def _dense_solve_lp(objective, rows, bounds):
    """The dense tableau simplex ``solve_lp`` was until PR 15, moved
    here verbatim: every pivot rescales the full pivot row and rewrites
    every touched row across its full width."""
    n = len(objective)
    m = len(rows)
    width = n + m + 1
    tableau = [[0.0] * width for _ in range(m + 1)]
    for i, row in enumerate(rows):
        line = tableau[i]
        for column, coefficient in row:
            line[column] = coefficient
        line[n + i] = 1.0
        line[width - 1] = bounds[i]
    cost_row = tableau[m]
    for column, coefficient in enumerate(objective):
        cost_row[column] = -coefficient
    basis = [n + i for i in range(m)]

    bland_after = 2 * (m + n)
    for iteration in range(SIMPLEX_ITERATION_LIMIT):
        entering = -1
        if iteration < bland_after:
            most_negative = -1e-9
            for column in range(width - 1):
                if cost_row[column] < most_negative:
                    most_negative = cost_row[column]
                    entering = column
        else:
            for column in range(width - 1):
                if cost_row[column] < -1e-9:
                    entering = column
                    break
        if entering < 0:
            values = [0.0] * n
            for i, variable in enumerate(basis):
                if variable < n:
                    values[variable] = tableau[i][width - 1]
            return tableau[m][width - 1], values
        leaving = -1
        best_ratio = float("inf")
        for i in range(m):
            coefficient = tableau[i][entering]
            if coefficient > 1e-9:
                ratio = tableau[i][width - 1] / coefficient
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return None  # unbounded: malformed program
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        inverse = 1.0 / pivot
        for column in range(width):
            pivot_row[column] *= inverse
        for i in range(m + 1):
            if i == leaving:
                continue
            factor = tableau[i][entering]
            if factor == 0.0:
                continue
            line = tableau[i]
            for column in range(width):
                line[column] -= factor * pivot_row[column]
        basis[leaving] = entering
    return None


def _reference_lp(program, fixed_zero, fixed_one):
    """``(objective, rows, bounds)`` of a node with one link row per
    (atom, member), the program ``_Program`` solved before its link rows
    were aggregated per (statement, candidate).  Its bound can only be
    looser."""
    remaining = program.budget_bytes - sum(
        program.sizes[j] for j in fixed_one
    )
    usable = []
    free_candidates = set()
    for atom in program.atoms:
        if any(j in fixed_zero for j in atom.members):
            continue
        free_members = tuple(j for j in atom.members if j not in fixed_one)
        usable.append((atom, free_members))
        free_candidates.update(free_members)
    y_order = sorted(free_candidates)
    y_column = {j: len(usable) + slot for slot, j in enumerate(y_order)}
    objective = [atom.saving for atom, _ in usable] + [
        -program.maintenance[j] for j in y_order
    ]
    rows = []
    bounds = []
    per_statement = {}
    for column, (atom, _) in enumerate(usable):
        per_statement.setdefault(atom.statement, []).append(column)
    for statement in sorted(per_statement):
        rows.append([(column, 1.0) for column in per_statement[statement]])
        bounds.append(1.0)
    for column, (_, free_members) in enumerate(usable):
        for j in free_members:
            rows.append([(column, 1.0), (y_column[j], -1.0)])
            bounds.append(0.0)
    if y_order:
        rows.append([(y_column[j], float(program.sizes[j])) for j in y_order])
        bounds.append(float(remaining))
        for j in y_order:
            rows.append([(y_column[j], 1.0)])
            bounds.append(1.0)
    return objective, rows, bounds


def _aggregated_lp(program, fixed_zero, fixed_one):
    """``(objective, rows, bounds, y columns)`` of a node with one link
    row per (statement, candidate), from one walk over the ``Atom``
    objects.  The row and column order is the contract -- the pivot
    sequence depends on it: usable atoms then free candidates; statement
    rows, link rows by (statement, candidate), the budget row, the unit
    bounds."""
    remaining = program.budget_bytes - sum(
        program.sizes[j] for j in fixed_one
    )
    usable = [
        atom
        for atom in program.atoms
        if not any(j in fixed_zero for j in atom.members)
    ]
    y_order = sorted(
        {j for atom in usable for j in atom.members} - set(fixed_one)
    )
    y_column = {j: len(usable) + slot for slot, j in enumerate(y_order)}
    objective = [atom.saving for atom in usable] + [
        -program.maintenance[j] for j in y_order
    ]
    per_statement = {}
    links = {}
    for column, atom in enumerate(usable):
        per_statement.setdefault(atom.statement, []).append(column)
        for j in atom.members:
            if j in y_column:
                links.setdefault((atom.statement, j), []).append(column)
    rows = [
        [(column, 1.0) for column in per_statement[statement]]
        for statement in sorted(per_statement)
    ]
    bounds = [1.0] * len(rows)
    for statement, j in sorted(links):
        rows.append(
            [(column, 1.0) for column in links[(statement, j)]]
            + [(y_column[j], -1.0)]
        )
        bounds.append(0.0)
    if y_order:
        rows.append([(y_column[j], float(program.sizes[j])) for j in y_order])
        bounds.append(float(remaining))
        for j in y_order:
            rows.append([(y_column[j], 1.0)])
            bounds.append(1.0)
    return objective, rows, bounds, y_column


def _reference_objective(program, chosen):
    """``_Program.objective`` as it was before it read bit masks: one
    walk over the ``Atom`` objects per call."""
    total = 0.0
    for indices in program.by_statement.values():
        best = 0.0
        for index in indices:
            atom = program.atoms[index]
            if atom.saving > best and all(j in chosen for j in atom.members):
                best = atom.saving
        total += best
    return total - sum(program.maintenance[j] for j in chosen)


def _program(sizes, atoms, maintenance, budget_bytes):
    """A ``_Program`` over stand-in candidates (only sizes matter)."""
    pool = [SimpleNamespace(size_bytes=size) for size in sizes]
    return _Program(pool, atoms, maintenance, budget_bytes)


@contextmanager
def _solves():
    """Record every node ``_Program`` solves while the block runs: cold
    (``relax``: the root, or a warm child's fallback) and warm
    (``child``), each as ``(program, fixed_zero, fixed_one, solved)``.
    Check them after the block: the oracles solve nodes too."""
    log = SimpleNamespace(cold=[], warm=[])
    relax, child = _Program.relax, _Program.child

    def cold(program, fixed_zero, fixed_one):
        solved = relax(program, fixed_zero, fixed_one)
        log.cold.append((program, fixed_zero, fixed_one, solved))
        return solved

    def warm(program, parent, branch_on, forced_in, fixed_zero, fixed_one):
        solved = child(
            program, parent, branch_on, forced_in, fixed_zero, fixed_one
        )
        log.warm.append((program, fixed_zero, fixed_one, solved))
        return solved

    with mock.patch.object(_Program, "relax", cold), mock.patch.object(
        _Program, "child", warm
    ):
        yield log


def _assert_warm_is_cold(warm):
    """Every warm node's bound within 1e-9 (relative) of ``relax`` on the
    same node, with the same fractional keys."""
    for program, fixed_zero, fixed_one, solved in warm:
        cold = program.relax(fixed_zero, fixed_one)
        if cold is None:
            assert solved is None
            continue
        assert solved is not None
        assert abs(solved.bound - cold.bound) <= 1e-9 * max(
            1.0, abs(cold.bound)
        )
        assert solved.fractional.keys() == cold.fractional.keys()


#: Few distinct values, so equal reduced costs and equal ratios -- the
#: degenerate ties the pricing and leaving rules must break alike --
#: are the common case rather than the rare one.
_SAVINGS = st.sampled_from([0.5, 1.0, 1.0, 2.5, 7.25, 40.0 / 3.0])
_CHARGES = st.sampled_from([0.0, 0.0, 0.125, 1.0, 3.5])


@st.composite
def _atom_programs(draw):
    """A random cost-atom program plus one node's fixings."""
    candidates = draw(st.integers(1, 7))
    sizes = draw(
        st.lists(st.integers(1, 60), min_size=candidates, max_size=candidates)
    )
    maintenance = draw(
        st.lists(_CHARGES, min_size=candidates, max_size=candidates)
    )
    members = st.lists(
        st.integers(0, candidates - 1), min_size=1, max_size=2, unique=True
    ).map(lambda chosen: tuple(sorted(chosen)))
    atoms = draw(
        st.lists(
            st.builds(Atom, st.integers(0, 4), members, _SAVINGS),
            min_size=1,
            max_size=14,
        )
    )
    budget_bytes = draw(st.integers(0, sum(sizes)))
    fixed = draw(
        st.lists(
            st.tuples(st.integers(0, candidates - 1), st.booleans()),
            max_size=3,
            unique_by=lambda pair: pair[0],
        )
    )
    fixed_zero = frozenset(j for j, forced_in in fixed if not forced_in)
    fixed_one = frozenset(j for j, forced_in in fixed if forced_in)
    program = _program(sizes, atoms, maintenance, budget_bytes)
    return program, fixed_zero, fixed_one


_COEFFICIENTS = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 1.0, 1.0, 2.0, 7.0 / 3.0])


@st.composite
def _small_lps(draw):
    """Unstructured LPs: mixed-sign coefficients, zero and positive
    right-hand sides, possibly unbounded."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 8))
    objective = draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n))
    entry = st.tuples(st.integers(0, max(n - 1, 0)), _COEFFICIENTS)
    rows = draw(
        st.lists(
            st.lists(entry, max_size=4) if n else st.just([]),
            min_size=m,
            max_size=m,
        )
    )
    bounds = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 1.0, 2.5, 10.0]), min_size=m, max_size=m
        )
    )
    return objective, rows, bounds


class TestSolveLp:
    def test_simple_knapsack_relaxation(self):
        # maximize 3x + 2y  s.t.  x + y <= 1.5, x <= 1, y <= 1
        solved = solve_lp(
            [3.0, 2.0],
            [[(0, 1.0), (1, 1.0)], [(0, 1.0)], [(1, 1.0)]],
            [1.5, 1.0, 1.0],
        )
        assert solved is not None
        value, values = solved
        assert value == pytest.approx(4.0)
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(0.5)

    def test_slack_optimum_at_origin(self):
        solved = solve_lp([-1.0, -2.0], [[(0, 1.0), (1, 1.0)]], [5.0])
        assert solved is not None
        value, values = solved
        assert value == pytest.approx(0.0)
        assert values == [0.0, 0.0]

    def test_unbounded_returns_none(self):
        assert solve_lp([1.0], [], []) is None

    def test_binding_budget_row(self):
        # maximize x + y  s.t.  2x + 2y <= 2  ->  x + y = 1
        solved = solve_lp(
            [1.0, 1.0], [[(0, 2.0), (1, 2.0)]], [2.0]
        )
        assert solved is not None
        value, values = solved
        assert value == pytest.approx(1.0)
        assert sum(values) == pytest.approx(1.0)

    def test_empty_program(self):
        assert solve_lp([], [], []) == (0.0, [])
        assert solve_lp([], [[]], [1.0]) == (0.0, [])

    def test_klee_minty_cube_finishes_under_blands_rule(self, monkeypatch):
        # max sum 2^(n-j) x_j  s.t.  sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i.
        # Dantzig pricing alone walks all 2^6 - 1 = 63 vertices; the
        # solver switches to Bland's rule after 2 * (m + n) = 24 pivots
        # and arrives after 47 (plus the iteration that finds no
        # entering column), so 23 pivots run in the Bland branch.
        n = 6
        objective = [float(2 ** (n - 1 - j)) for j in range(n)]
        rows = [
            [(j, float(2 ** (i - j + 1))) for j in range(i)] + [(i, 1.0)]
            for i in range(n)
        ]
        bounds = [float(5 ** (i + 1)) for i in range(n)]
        optimum = (float(5 ** n), [0.0] * (n - 1) + [float(5 ** n)])
        assert solve_lp(objective, rows, bounds) == optimum
        assert _dense_solve_lp(objective, rows, bounds) == optimum
        monkeypatch.setattr(ilp, "SIMPLEX_ITERATION_LIMIT", 48)
        assert solve_lp(objective, rows, bounds) == optimum
        monkeypatch.setattr(ilp, "SIMPLEX_ITERATION_LIMIT", 47)
        assert solve_lp(objective, rows, bounds) is None


class TestSolveLpDifferential:
    """The sparse engine against the dense loop it replaced: ``==`` on
    the returned tuple, never a tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(_atom_programs())
    def test_atom_program_nodes(self, drawn):
        """A node solved cold is the dense oracle's answer on the
        aggregated LP, float for float, and bounds no looser than the
        per-atom LP."""
        program, fixed_zero, fixed_one = drawn
        solved = program.relax(fixed_zero, fixed_one)
        forced = sum(program.sizes[j] for j in fixed_one)
        if forced > program.budget_bytes:
            assert solved is None
            return
        constant = -sum(program.maintenance[j] for j in fixed_one)
        objective, rows, bounds, y_column = _aggregated_lp(
            program, fixed_zero, fixed_one
        )
        if not objective:
            # Every atom masked out: nothing to solve.
            assert (solved.bound, solved.fractional) == (constant, {})
            return
        value, values = _dense_solve_lp(objective, rows, bounds)
        assert (solved.bound, solved.fractional) == (
            value + constant,
            {j: values[column] for j, column in y_column.items()},
        )
        per_atom, _ = _dense_solve_lp(
            *_reference_lp(program, fixed_zero, fixed_one)
        )
        assert value <= per_atom + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(_small_lps())
    def test_unstructured_lps(self, lp):
        assert solve_lp(*lp) == _dense_solve_lp(*lp)

    def test_every_lp_of_the_suite_searches(self, tpox_inputs, xmark_db):
        """The LPs branch and bound really solves cold -- the roots of
        the shape the benchmark's ``advise_sweep`` block replays -- equal
        the dense oracle; everything below a root is warm-started."""
        with _solves() as log:
            for candidates, evaluator, all_size in (
                tpox_inputs,
                _inputs(xmark_db, xmark.xmark_workload(seed=7)),
            ):
                for fraction in (0.1, 0.2, 0.35, 0.5, 1.0):
                    ilp_search(candidates, evaluator, int(all_size * fraction))
        assert len(log.cold) == 10  # one root per search, no fallback
        assert len(log.warm) > 100
        sizes = []
        for program, fixed_zero, fixed_one, solved in log.cold:
            objective, rows, bounds, y_column = _aggregated_lp(
                program, fixed_zero, fixed_one
            )
            value, values = _dense_solve_lp(objective, rows, bounds)
            assert (solved.bound, solved.fractional) == (
                value,
                {j: values[column] for j, column in y_column.items()},
            )
            sizes.append(len(rows))
        assert max(sizes) > 50


class TestWarmStartDifferential:
    """Every warm-started node against ``relax`` (a cold solve) on the
    same node.  CI re-runs this class under ``--hypothesis-profile
    ci-deep``."""

    @settings(deadline=None)
    @given(_atom_programs())
    def test_atom_programs(self, drawn):
        program, fixed_zero, fixed_one = drawn
        # The tree branch and bound walks...
        with _solves() as log:
            _branch_and_bound(program, None)
        assert len(log.cold) == 1  # the root; no warm child fell back
        _assert_warm_is_cold(log.warm)
        # ...and the drawn fixings, one bound at a time from the root.
        node = program.relax(frozenset(), frozenset())
        zero, one = frozenset(), frozenset()
        for j in sorted(fixed_zero | fixed_one):
            if j not in node.fractional:
                break  # not free here: branch and bound never fixes it
            forced_in = j in fixed_one
            if forced_in:
                one = one | {j}
            else:
                zero = zero | {j}
            if program.size_of(one) > program.budget_bytes:
                assert program.relax(zero, one) is None
                break
            node = program.child(node, j, forced_in, zero, one)
            _assert_warm_is_cold([(program, zero, one, node)])

    def test_suite_programs(self, tpox_inputs, xmark_db):
        with _solves() as log:
            for candidates, evaluator, all_size in (
                tpox_inputs,
                _inputs(xmark_db, xmark.xmark_workload(seed=7)),
            ):
                for fraction in (0.1, 0.2, 0.35, 0.5, 1.0):
                    ilp_search(candidates, evaluator, int(all_size * fraction))
        assert len(log.warm) > 100
        _assert_warm_is_cold(log.warm)


class TestBranchAndBound:
    def test_integral_root_is_solved_exactly_once(self):
        # Everything fits: the root relaxation is integral, so the tree
        # is the root -- solved cold once, and not again when popped.
        atoms = [
            Atom(0, (0,), 5.0),
            Atom(0, (0, 1), 9.0),
            Atom(1, (1,), 4.0),
            Atom(2, (2,), 3.0),
        ]
        program = _program([10, 10, 10], atoms, [0.5, 0.5, 0.5], 100)
        with _solves() as log:
            chosen, value = _branch_and_bound(program, None)
        assert len(log.cold) == 1
        assert not log.warm
        assert chosen == {0, 1, 2}
        assert value == pytest.approx(9.0 + 4.0 + 3.0 - 1.5)

    @staticmethod
    def _two_of_one_fit():
        # Two 6-byte candidates under a 10-byte budget: the root takes
        # one whole and 2/3 of the other, branching closes the gap.
        atoms = [Atom(0, (0,), 6.0), Atom(1, (1,), 5.0)]
        return _program([6, 6], atoms, [0.0, 0.0], 10)

    def test_fractional_root_branches(self):
        program = self._two_of_one_fit()
        with _solves() as log:
            chosen, value = _branch_and_bound(program, None)
        assert len(log.cold) == 1  # the root; every child is warm
        assert len(log.warm) == 3
        assert chosen == {0}
        assert value == pytest.approx(6.0)

    def test_over_budget_forced_in_child_is_pruned_as_cold(self):
        # Forcing both candidates in needs 12 bytes of 10: the tree
        # reaches that node, and prunes it before any solve -- as
        # ``relax`` finds it infeasible; warm-solving it anyway, the
        # dual simplex finds it infeasible and the cold fallback agrees.
        program = self._two_of_one_fit()
        both = frozenset({0, 1})
        with _solves() as log:
            warm_tree = _branch_and_bound(program, None)
        assert all(
            program.size_of(fixed_one) <= program.budget_bytes
            for _, _, fixed_one, _ in log.warm
        )
        assert program.relax(frozenset(), both) is None
        root = program.relax(frozenset(), frozenset())
        forced = program.child(root, 1, True, frozenset(), frozenset({1}))
        tableau = forced.tableau.copy()
        tableau.cut(forced.layout.y_column[0])
        assert tableau.dual(SIMPLEX_ITERATION_LIMIT) is None
        assert program.child(forced, 0, True, frozenset(), both) is None
        with mock.patch.object(
            _Program,
            "child",
            lambda program, parent, j, forced_in, zero, one: program.relax(
                zero, one
            ),
        ):
            cold_tree = _branch_and_bound(program, None)
        assert warm_tree == cold_tree

    def test_gap_report_of_a_closed_tree(self):
        program = self._two_of_one_fit()
        report = GapReport()
        chosen, value = _branch_and_bound(program, None, report=report)
        assert report.proven
        assert report.root_bound == pytest.approx(6.0 + 5.0 * 4.0 / 6.0)
        assert report.final_bound == report.objective == value
        # The root, both of its children, and both children of the
        # forced-in one (the over-budget node counts as explored).
        assert report.nodes == 5

    def test_gap_report_of_a_node_capped_tree(self, monkeypatch):
        monkeypatch.setattr(ilp, "MAX_NODES", 1)
        program = self._two_of_one_fit()
        report = GapReport()
        chosen, value = _branch_and_bound(program, None, report=report)
        assert not report.proven
        assert report.nodes == 1
        assert report.objective == value
        assert report.final_bound >= report.objective
        assert report.final_bound == report.root_bound

    def test_warm_limit_falls_back_cold_and_still_beats_greedy(
        self, tpox_inputs, monkeypatch
    ):
        # Every warm re-solve exceeds the pivot limit: each child is
        # solved cold instead, and ``ilp`` still never loses to greedy.
        monkeypatch.setattr(_Tableau, "dual", lambda tableau, limit: None)
        candidates, evaluator, all_size = tpox_inputs
        for fraction in (0.2, 0.5):
            budget_bytes = int(all_size * fraction)
            with _solves() as log:
                result = ilp_search(candidates, evaluator, budget_bytes)
            assert len(log.cold) == 1 + len(log.warm) > 1
            greedy = greedy_search_with_heuristics(
                candidates, evaluator, budget_bytes
            )
            assert result.benefit >= greedy.benefit

    def test_simplex_giving_up_still_beats_greedy(
        self, tpox_inputs, monkeypatch
    ):
        # Not even the root solves: nothing is proven, and ``ilp``
        # returns at least greedy's benefit.
        monkeypatch.setattr(ilp, "SIMPLEX_ITERATION_LIMIT", 2)
        candidates, evaluator, all_size = tpox_inputs
        budget_bytes = all_size // 2
        result = ilp_search(candidates, evaluator, budget_bytes)
        greedy = greedy_search_with_heuristics(
            candidates, evaluator, budget_bytes
        )
        assert result.benefit >= greedy.benefit
        assert result.ilp["root_bound"] is None
        assert not result.ilp["proven"]

    @settings(max_examples=300, deadline=None)
    @given(_atom_programs(), st.data())
    def test_objective_reads_masks_as_the_atom_walk(self, drawn, data):
        program = drawn[0]
        chosen = data.draw(st.sets(st.integers(0, len(program.pool) - 1)))
        assert program.objective(chosen) == _reference_objective(
            program, chosen
        )

    # Chosen keys and model objective of ``_branch_and_bound`` recorded
    # at the parent of PR 15 (identical under PYTHONHASHSEED 0, 12345
    # and 77): the engine swap must not move the search.
    PINS = {
        ("tpox", 0.2): (
            [
                "/Customer/Nationality:string",
                "/Security/Price/Ask:numerical",
                "/Security/Symbol:string",
            ],
            241.76215,
        ),
        ("tpox", 0.5): (
            [
                "/Customer/@id:string",
                "/Customer/Nationality:string",
                "/FIXML/Order/@Acct:string",
                "/FIXML/Order/@ID:string",
                "/FIXML/Order/Instrmt/@Sym:string",
                "/Security/Price/Ask:numerical",
                "/Security/Symbol:string",
            ],
            420.9355333333333,
        ),
        ("xmark", 0.2): (
            ["/open_auction/itemref/@item:string", "/person/@id:string"],
            67.65375319148936,
        ),
        ("xmark", 0.5): (
            [
                "/item/description//text:string",
                "/item/location:string",
                "/open_auction/itemref/@item:string",
                "/person/*/city:string",
                "/person/@id:string",
            ],
            156.78522819148935,
        ),
    }

    @pytest.mark.parametrize("suite", ["tpox", "xmark"])
    def test_chosen_set_and_objective_pinned(self, suite, tpox_inputs, xmark_db):
        candidates, evaluator, all_size = (
            tpox_inputs
            if suite == "tpox"
            else _inputs(xmark_db, xmark.xmark_workload(seed=7))
        )
        for fraction in (0.2, 0.5):
            budget_bytes = int(all_size * fraction)
            pool = [
                c
                for c in evaluator.ranked_positive_candidates(candidates)
                if c.size_bytes <= budget_bytes
            ]
            program = _Program(
                pool,
                build_atom_matrix(pool, evaluator),
                [evaluator.candidate_maintenance(c) for c in pool],
                budget_bytes,
            )
            chosen, value = _branch_and_bound(program, None)
            keys, objective = self.PINS[(suite, fraction)]
            assert sorted(
                f"{pool[j].pattern}:{pool[j].value_type.value}" for j in chosen
            ) == keys
            assert value == objective


class TestAtomMatrix:
    def test_atoms_reference_pool_and_save(self, tpox_inputs):
        candidates, evaluator, _ = tpox_inputs
        pool = evaluator.ranked_positive_candidates(candidates)[:16]
        atoms = build_atom_matrix(pool, evaluator)
        assert atoms, "TPoX workload must produce cost atoms"
        positions = range(len(evaluator.workload.entries))
        for atom in atoms:
            assert atom.statement in positions
            assert atom.saving > 0
            assert all(0 <= j < len(pool) for j in atom.members)
            assert tuple(sorted(atom.members)) == atom.members

    def test_pair_atoms_dominate_their_singletons(self, tpox_inputs):
        candidates, evaluator, _ = tpox_inputs
        pool = evaluator.ranked_positive_candidates(candidates)[:16]
        atoms = build_atom_matrix(pool, evaluator)
        singles = {
            (atom.statement, atom.members[0]): atom.saving
            for atom in atoms
            if len(atom.members) == 1
        }
        pairs = [atom for atom in atoms if len(atom.members) == 2]
        for atom in pairs:
            best_member = max(
                singles.get((atom.statement, j), 0.0)
                for j in atom.members
            )
            assert atom.saving > best_member

    def test_deterministic(self, tpox_db, tpox_wl):
        first = _inputs(tpox_db, tpox_wl)
        second = _inputs(tpox_db, tpox_wl)
        for inputs in (first, second):
            candidates, evaluator, _ = inputs
        pools = []
        matrices = []
        for candidates, evaluator, _ in (first, second):
            pool = evaluator.ranked_positive_candidates(candidates)[:16]
            pools.append([c.key for c in pool])
            matrices.append(build_atom_matrix(pool, evaluator))
        assert pools[0] == pools[1]
        assert matrices[0] == matrices[1]


class TestIlpSearch:
    def test_registered(self):
        assert "ilp" in ALGORITHMS

    def test_budget_respected(self, tpox_inputs):
        candidates, evaluator, all_size = tpox_inputs
        for fraction in (0.2, 0.5, 1.0):
            budget = int(all_size * fraction)
            result = ilp_search(candidates, evaluator, budget)
            assert result.size_bytes <= budget
            assert result.algorithm == "ilp"

    def test_zero_budget_empty_config(self, tpox_inputs):
        candidates, evaluator, _ = tpox_inputs
        result = ilp_search(candidates, evaluator, 0)
        assert len(result.configuration) == 0
        assert result.benefit == 0.0

    def test_deterministic(self, tpox_db, tpox_wl):
        results = []
        for _ in range(2):
            candidates, evaluator, all_size = _inputs(tpox_db, tpox_wl)
            result = ilp_search(candidates, evaluator, all_size // 2)
            results.append(
                ([c.key for c in result.configuration], result.benefit)
            )
        assert results[0] == results[1]

    def test_pool_is_filtered_before_it_is_capped(self, tpox_db):
        # 88 positive candidates; at 5,000 bytes a handful of the 64
        # densest are oversize.  They must be replaced by rank 65+, not
        # shrink the pool.
        workload = synthetic.synthetic_workload(
            tpox_db, "SDOC", count=120, seed=0
        )
        candidates, evaluator, _ = _inputs(tpox_db, workload)
        ranked = evaluator.ranked_positive_candidates(candidates)
        budget_bytes = 5000
        assert len(ranked) > ilp.MAX_POOL
        assert any(c.size_bytes > budget_bytes for c in ranked[: ilp.MAX_POOL])
        pools = []

        def recording(pool, *args, **kwargs):
            pools.append(list(pool))
            return build_atom_matrix(pool, *args, **kwargs)

        with mock.patch.object(ilp, "build_atom_matrix", recording):
            result = ilp_search(candidates, evaluator, budget_bytes)
        (pool,) = pools
        fitting = [c for c in ranked if c.size_bytes <= budget_bytes]
        assert pool == fitting[: ilp.MAX_POOL]
        assert len(pool) == ilp.MAX_POOL
        assert ranked.index(pool[-1]) >= ilp.MAX_POOL
        assert result.size_bytes <= budget_bytes

    def test_solver_time_is_its_own_phase(self, tpox_inputs):
        candidates, evaluator, all_size = tpox_inputs
        ilp_search(candidates, evaluator, all_size // 2)
        phases = evaluator.session.stats()["phase_seconds"]
        assert phases["ilp-atoms"] >= 0.0
        assert phases["ilp-solve"] > 0.0

    def test_recommendation_carries_the_gap_block(self, tpox_db, tpox_wl):
        advisor = IndexAdvisor(tpox_db, tpox_wl)
        budget_bytes = 200_000
        recommendation = advisor.recommend(budget_bytes, algorithm="ilp")
        block = recommendation.to_dict()["ilp"]
        assert block == recommendation.search.ilp
        assert set(block) == {
            "root_bound",
            "final_bound",
            "objective",
            "nodes",
            "proven",
        }
        assert 1 <= block["nodes"] <= ilp.MAX_NODES
        assert block["root_bound"] >= block["final_bound"] - 1e-9
        assert block["final_bound"] >= block["objective"]
        assert "  ilp               : " in recommendation.stats_report()
        greedy = advisor.recommend(budget_bytes, algorithm="greedy_heuristics")
        assert "ilp" not in greedy.to_dict()
        assert "  ilp  " not in greedy.stats_report()

    def test_deadline_falls_back_to_greedy_truncated(self, tpox_inputs):
        candidates, evaluator, all_size = tpox_inputs
        budget = SearchBudget(deadline_seconds=1e-9)
        result = ilp_search(
            candidates, evaluator, all_size // 2, budget=budget
        )
        assert result.algorithm == "ilp"
        assert result.truncated
        assert "deadline" in result.truncated_reason


class TestIlpVsGreedyDifferential:
    """ilp benefit >= greedy benefit, on every suite workload."""

    def _assert_dominates(self, database, workload, fractions=(0.2, 0.5, 1.0)):
        candidates, evaluator, all_size = _inputs(database, workload)
        for fraction in fractions:
            budget = int(all_size * fraction)
            ilp = ilp_search(candidates, evaluator, budget)
            greedy = greedy_search_with_heuristics(
                candidates, evaluator, budget
            )
            assert ilp.benefit >= greedy.benefit, (
                f"ilp {ilp.benefit} < greedy {greedy.benefit} "
                f"at fraction {fraction}"
            )

    def test_tpox(self, tpox_db, tpox_wl):
        self._assert_dominates(tpox_db, tpox_wl)

    def test_tpox_with_updates(self, tpox_db):
        workload = tpox.tpox_workload(
            num_securities=120, seed=42, include_updates=True
        )
        self._assert_dominates(tpox_db, workload)

    def test_xmark(self, xmark_db):
        self._assert_dominates(xmark_db, xmark.xmark_workload(seed=7))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seeded_random_workloads(self, tpox_db, seed):
        workload = synthetic.synthetic_workload(
            tpox_db, "SDOC", count=10, seed=seed
        )
        self._assert_dominates(tpox_db, workload, fractions=(0.3, 0.8))
