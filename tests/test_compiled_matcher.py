"""Compiled pattern-matching kernel: equivalence and regression tests.

The compiled matcher (:mod:`repro.xpath.compiled`) must be observationally
identical to the NFA reference (``PathPattern.matches_nfa``), and the
delta benefit evaluation must equal the benefit difference it replaces.
The property tests here generate random patterns (child/descendant axes,
``*``/``@*`` wildcards, attribute finals) against random tag paths --
including symbols containing the encoding separator, which exercise the
NFA fallback.  The counter regression test pins the optimizer traffic of
the flagship search at its pre-kernel level.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndexAdvisor, WhatIfSession
from repro.core.benefit import ConfigurationEvaluator
from repro.core.config import IndexConfiguration
from repro.workloads import tpox
from repro.xpath.ast import Axis
from repro.xpath.compiled import (
    SEP,
    CompiledMatcher,
    PathTable,
    encode_tag_path,
)
from repro.xpath.patterns import (
    PathPattern,
    PatternStep,
    _covers_product,
    parse_pattern,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

NAMES = ["a", "b", "c"]
AXES = st.sampled_from([Axis.CHILD, Axis.DESCENDANT])

MIDDLE_STEPS = st.builds(
    PatternStep, axis=AXES, name=st.sampled_from(NAMES + ["*"])
)
FINAL_STEPS = st.builds(
    PatternStep, axis=AXES, name=st.sampled_from(NAMES + ["*", "@x", "@y", "@*"])
)
PATTERNS = st.builds(
    lambda middle, last: PathPattern(middle + [last]),
    st.lists(MIDDLE_STEPS, max_size=4),
    FINAL_STEPS,
)

# Tag paths over a slightly larger element alphabet (so concrete steps
# miss sometimes), optionally ending in an attribute symbol.  "se" + SEP
# exercises the unencodable-path NFA fallback.
ELEMENT_SYMBOLS = st.sampled_from(NAMES + ["d", "se" + SEP + "p"])
TAG_PATHS = st.builds(
    lambda elements, attr: tuple(elements) + (attr,) if attr else tuple(elements),
    st.lists(ELEMENT_SYMBOLS, max_size=5),
    st.sampled_from([None, "@x", "@y", "@z"]),
)


# ---------------------------------------------------------------------------
# Compiled matcher == NFA reference
# ---------------------------------------------------------------------------

@given(pattern=PATTERNS, tag_path=TAG_PATHS)
@settings(max_examples=400, deadline=None)
def test_compiled_matches_agrees_with_nfa(pattern, tag_path):
    assert pattern.matches(tag_path) == pattern.matches_nfa(tag_path)


@given(pattern=PATTERNS, tag_paths=st.lists(TAG_PATHS, max_size=8))
@settings(max_examples=150, deadline=None)
def test_matching_ids_is_exactly_the_nfa_language(pattern, tag_paths):
    """The bitmap over a private table holds exactly the NFA-matching
    interned paths, regardless of interleaving of intern and probe."""
    table = PathTable()
    matcher = CompiledMatcher(pattern._transitions, pattern.matches_nfa, table)
    ids = {table.intern(path): path for path in tag_paths}
    matched = matcher.matching_ids()
    for path_id, path in ids.items():
        assert (path_id in matched) == pattern.matches_nfa(path)


def test_empty_path_never_matches():
    assert not parse_pattern("//*").matches(())
    assert not parse_pattern("/a").matches(())


def test_empty_symbol_is_matched_by_wildcard_only():
    # ("",) is a distinct encodable path: wildcard matches it, literals miss.
    assert parse_pattern("/*").matches(("",))
    assert not parse_pattern("/a").matches(("",))
    assert not parse_pattern("/*").matches(())


def test_unencodable_symbol_falls_back_to_nfa():
    weird = ("a", f"b{SEP}c")
    assert encode_tag_path(weird) is None
    assert parse_pattern("/a/*").matches(weird)
    assert parse_pattern("//*").matches(weird)
    assert not parse_pattern("/a/b").matches(weird)


def test_descendant_axis_skips_elements_not_attributes():
    pattern = parse_pattern("//@id")
    assert pattern.matches(("a", "b", "@id"))
    assert not pattern.matches(("a", "@other", "@id"))


def test_path_table_interns_densely_and_stably():
    table = PathTable()
    first = table.intern(("a", "b"))
    second = table.intern(("a",))
    assert (first, second) == (0, 1)
    assert table.intern(["a", "b"]) == first  # list/tuple agnostic
    assert table.path(1) == ("a",)
    assert len(table) == 2


# ---------------------------------------------------------------------------
# Containment fast paths == product automaton
# ---------------------------------------------------------------------------

@given(sup=PATTERNS, sub=PATTERNS)
@settings(max_examples=300, deadline=None)
def test_covers_fast_paths_agree_with_product_automaton(sup, sub):
    assert sup.covers(sub) == _covers_product(sup, sub)


# ---------------------------------------------------------------------------
# Delta benefit == benefit difference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def world():
    db = tpox.build_database(
        num_securities=60, num_orders=40, num_customers=20, seed=17
    )
    workload = tpox.tpox_workload(
        num_securities=60, seed=17, include_updates=True, update_frequency=0.5
    )
    advisor = IndexAdvisor(db, workload)
    return db, workload, list(advisor.candidates)


@given(
    indices=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
    extra=st.integers(min_value=0, max_value=200),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_delta_benefit_equals_benefit_difference(world, indices, extra):
    db, workload, candidates = world
    config = IndexConfiguration(
        [candidates[i % len(candidates)] for i in indices]
    )
    candidate = candidates[extra % len(candidates)]
    evaluator = ConfigurationEvaluator(db, WhatIfSession(db), workload)
    expected = evaluator.benefit(
        config.with_candidate(candidate)
    ) - evaluator.benefit(config)
    assert evaluator.delta_benefit(config, candidate) == pytest.approx(
        expected, abs=1e-9
    )


@given(indices=st.lists(st.integers(min_value=0, max_value=200), max_size=6))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_delta_benefit_matches_naive_mode(world, indices):
    """Delta evaluation agrees with the naive evaluator's difference."""
    db, workload, candidates = world
    chosen = [candidates[i % len(candidates)] for i in indices]
    if not chosen:
        return
    config = IndexConfiguration(chosen[:-1])
    candidate = chosen[-1]
    fast = ConfigurationEvaluator(db, WhatIfSession(db), workload)
    naive = ConfigurationEvaluator(db, WhatIfSession(db), workload, naive=True)
    expected = naive.benefit(config.with_candidate(candidate)) - naive.benefit(
        config
    )
    assert fast.delta_benefit(config, candidate) == pytest.approx(
        expected, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Optimizer-traffic regression pin (pre-kernel values, captured before
# this change landed: optimizer_calls=45, cache_misses=45)
# ---------------------------------------------------------------------------

def test_greedy_heuristics_counters_do_not_regress():
    db = tpox.build_database(
        num_securities=250, num_orders=250, num_customers=120, seed=42
    )
    workload = tpox.tpox_workload(num_securities=250, seed=42)
    advisor = IndexAdvisor(db, workload)
    all_size = sum(c.size_bytes for c in advisor.candidates.basics())
    result = advisor.recommend(
        budget_bytes=int(all_size * 0.5), algorithm="greedy_heuristics"
    )
    assert result.search.optimizer_calls <= 45
    assert result.search.cache_misses <= 45
    assert result.search.benefit == pytest.approx(882.72225)
    assert len(result.configuration) == 7
