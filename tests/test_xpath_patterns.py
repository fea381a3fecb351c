"""Tests for linear index patterns: matching, containment, rewriting.

Pattern containment is the heart of optimizer index matching, so it gets
property-based coverage: containment decisions must agree with brute-force
membership checks over generated tag paths.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xpath.ast import Axis
from repro.xpath.parser import XPathSyntaxError
from repro.xpath.patterns import (
    PathPattern,
    PatternStep,
    parse_pattern,
    pattern_from_path,
    pattern_to_path,
)
from repro.xpath.parser import parse_xpath


class TestParsing:
    def test_parse_simple(self):
        pattern = parse_pattern("/Security/Yield")
        assert str(pattern) == "/Security/Yield"
        assert len(pattern.steps) == 2

    def test_parse_rejects_predicates(self):
        with pytest.raises(XPathSyntaxError):
            parse_pattern("/Security[Yield>4]/Symbol")

    def test_parse_rejects_relative(self):
        with pytest.raises(XPathSyntaxError):
            parse_pattern("Security/Yield")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            PathPattern([])

    def test_attribute_only_last(self):
        with pytest.raises(ValueError):
            PathPattern(
                [PatternStep(Axis.CHILD, "@id"), PatternStep(Axis.CHILD, "x")]
            )

    def test_pattern_round_trip_via_path(self):
        path = parse_xpath("/a//b/*")
        pattern = pattern_from_path(path)
        assert str(pattern_to_path(pattern)) == "/a//b/*"

    def test_equality_and_hash(self):
        assert parse_pattern("/a/b") == parse_pattern("/a/b")
        assert hash(parse_pattern("/a/b")) == hash(parse_pattern("/a/b"))
        assert parse_pattern("/a/b") != parse_pattern("/a//b")

    def test_immutable(self):
        pattern = parse_pattern("/a")
        with pytest.raises(AttributeError):
            pattern.steps = ()


class TestMatching:
    @pytest.mark.parametrize(
        "pattern,path,expected",
        [
            ("/a/b", ("a", "b"), True),
            ("/a/b", ("a",), False),
            ("/a/b", ("a", "b", "c"), False),
            ("/a/*", ("a", "anything"), True),
            ("/a//b", ("a", "b"), True),
            ("/a//b", ("a", "x", "y", "b"), True),
            ("/a//b", ("a", "x", "b", "y"), False),
            ("//b", ("b",), True),
            ("//b", ("x", "y", "b"), True),
            ("//*", ("any", "depth", "works"), True),
            ("/a/@id", ("a", "@id"), True),
            ("/a/@id", ("a", "id"), False),
            ("//@*", ("x", "@attr"), True),
            ("/a/*", ("a", "@attr"), False),  # * does not match attributes
            ("/Security/SecInfo/*/Sector",
             ("Security", "SecInfo", "Industrial", "Sector"), True),
            ("/Security/SecInfo/*/Sector",
             ("Security", "SecInfo", "Sector"), False),
        ],
    )
    def test_matches(self, pattern, path, expected):
        assert parse_pattern(pattern).matches(path) is expected

    def test_universal_flag(self):
        assert parse_pattern("//*").is_universal
        assert not parse_pattern("/a//*").is_universal


class TestContainment:
    @pytest.mark.parametrize(
        "sup,sub",
        [
            ("//*", "/a/b"),
            ("//*", "/Security/SecInfo/*/Sector"),
            ("/a//*", "/a/b/c"),
            ("/a//b", "/a/b"),
            ("/a//b", "/a/x/b"),
            ("/a/*", "/a/b"),
            ("/a//*", "/a/*/b"),
            ("/a/b", "/a/b"),
            ("//@*", "/a/@id"),
            ("/Security//*", "/Security/Symbol"),
        ],
    )
    def test_covers_positive(self, sup, sub):
        assert parse_pattern(sup).covers(parse_pattern(sub))

    @pytest.mark.parametrize(
        "sup,sub",
        [
            ("/a/b", "/a//b"),
            ("/a/*", "/a/b/c"),
            ("/a/b", "/a/c"),
            ("/a//b", "/a//c"),
            ("/a/@id", "/a/@other"),
            ("//*", "//@*"),  # element universal does not cover attributes
            ("/Security/Symbol", "/Security//*"),
        ],
    )
    def test_covers_negative(self, sup, sub):
        assert not parse_pattern(sup).covers(parse_pattern(sub))

    def test_covers_is_reflexive(self):
        for text in ["/a", "/a//b", "//*", "/a/*/c"]:
            pattern = parse_pattern(text)
            assert pattern.covers(pattern)

    def test_overlaps(self):
        assert parse_pattern("/a//b").overlaps(parse_pattern("/a/*/b"))
        assert not parse_pattern("/a/b").overlaps(parse_pattern("/a/c"))
        assert parse_pattern("//*").overlaps(parse_pattern("/x/y"))


class TestCollapseWildcards:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("/a/*/b", "/a//b"),
            ("/a/*/*/b", "/a//b"),
            ("/a/b", "/a/b"),
            ("/a/*", "/a/*"),  # last step kept
            ("/Security/*/*", "/Security//*"),
            ("/a/*/b/*/c", "/a//b//c"),
            ("/a//*/b", "/a//b"),
        ],
    )
    def test_collapse(self, before, after):
        assert str(parse_pattern(before).collapse_wildcards()) == after

    def test_collapse_only_generalizes(self):
        pattern = parse_pattern("/a/*/b")
        collapsed = pattern.collapse_wildcards()
        assert collapsed.covers(pattern)


# ---------------------------------------------------------------------------
# Property-based: containment agrees with membership
# ---------------------------------------------------------------------------

NAMES = st.sampled_from(["a", "b", "c", "d"])
STEP = st.tuples(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]),
                 st.one_of(NAMES, st.just("*")))
PATTERNS = st.lists(STEP, min_size=1, max_size=4).map(
    lambda steps: PathPattern([PatternStep(axis, name) for axis, name in steps])
)
TAG_PATHS = st.lists(NAMES, min_size=1, max_size=6).map(tuple)


@given(sup=PATTERNS, sub=PATTERNS, path=TAG_PATHS)
@settings(max_examples=300, deadline=None)
def test_containment_consistent_with_matching(sup, sub, path):
    """If sup covers sub, every path matched by sub is matched by sup."""
    if sup.covers(sub) and sub.matches(path):
        assert sup.matches(path)


@given(pattern=PATTERNS, path=TAG_PATHS)
@settings(max_examples=200, deadline=None)
def test_collapse_preserves_membership(pattern, path):
    """Rule 0 only generalizes: anything matched before is matched after."""
    if pattern.matches(path):
        assert pattern.collapse_wildcards().matches(path)


@given(pattern=PATTERNS)
@settings(max_examples=200, deadline=None)
def test_universal_covers_everything(pattern):
    assert parse_pattern("//*").covers(pattern)


@given(pattern=PATTERNS)
@settings(max_examples=200, deadline=None)
def test_pattern_text_round_trip(pattern):
    """Canonical text parses back to an equal pattern."""
    assert parse_pattern(str(pattern)) == pattern


@given(pattern=PATTERNS, path=TAG_PATHS)
@settings(max_examples=200, deadline=None)
def test_matched_paths_are_covered_as_exact_patterns(pattern, path):
    """If a pattern matches a tag path, it covers the exact child-axis
    pattern of that path (matching and containment agree)."""
    if pattern.matches(path):
        exact = PathPattern([PatternStep(Axis.CHILD, name) for name in path])
        assert pattern.covers(exact)


@given(a=PATTERNS, b=PATTERNS)
@settings(max_examples=200, deadline=None)
def test_covers_is_transitive_spotcheck(a, b):
    """a covers b implies a covers anything b covers (checked against the
    universal and a few fixed narrow patterns)."""
    if a.covers(b):
        for text in ["/a/b", "/a", "/b/c/d"]:
            narrow = parse_pattern(text)
            if b.covers(narrow):
                assert a.covers(narrow)


@given(a=PATTERNS, b=PATTERNS)
@settings(max_examples=200, deadline=None)
def test_mutual_coverage_is_equivalence(a, b):
    """a covers b and b covers a means the languages are equal: spot-check
    with each pattern's own 'easiest' witness paths."""
    if a.covers(b) and b.covers(a):
        # any witness matched by one must be matched by the other
        for path in [("a",), ("a", "b"), ("a", "b", "c"), ("d", "c", "b", "a")]:
            assert a.matches(path) == b.matches(path)


def test_pattern_pickles_by_reparsing():
    """Patterns pickle as their canonical text, so whichever process
    loads one re-interns against its own global path table (ids differ
    across processes; bitmap state must not travel)."""
    pattern = parse_pattern("/Security/SecInfo//Sector")
    clone = pickle.loads(pickle.dumps(pattern))
    assert str(clone) == str(pattern)
    assert clone == pattern
    assert clone.covers(parse_pattern("/Security/SecInfo/Industrial/Sector"))
