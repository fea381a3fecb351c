"""Tests for the generalization DAG."""

import pytest

from repro.core.candidates import CandidateSet
from repro.core.dag import CandidateDag
from repro.core.generalization import generalize_candidates
from repro.storage.index import IndexValueType
from repro.xpath import parse_pattern


def make_set(patterns, generals=()):
    candidates = CandidateSet()
    for text in patterns:
        candidates.get_or_add(parse_pattern(text), IndexValueType.STRING, "C")
    for text in generals:
        candidates.get_or_add(
            parse_pattern(text), IndexValueType.STRING, "C", general=True
        )
    return candidates


class TestDagStructure:
    def test_parent_child_links(self):
        candidates = make_set(
            ["/Security/Symbol", "/Security/SecInfo/*/Sector"],
            generals=["/Security//*"],
        )
        dag = CandidateDag(candidates)
        general = candidates.get(("/Security//*", IndexValueType.STRING))
        children = {str(c.pattern) for c in dag.children(general)}
        assert children == {"/Security/Symbol", "/Security/SecInfo/*/Sector"}
        basic = candidates.get(("/Security/Symbol", IndexValueType.STRING))
        assert [str(p.pattern) for p in dag.parents(basic)] == ["/Security//*"]

    def test_roots(self):
        candidates = make_set(
            ["/Security/Symbol", "/Security/SecInfo/*/Sector", "/Other/Path"],
            generals=["/Security//*"],
        )
        dag = CandidateDag(candidates)
        roots = {str(c.pattern) for c in dag.roots()}
        assert roots == {"/Security//*", "/Other/Path"}

    def test_transitive_reduction(self):
        """With /a/b < /a/* < /a//*, the widest pattern's direct child is
        the middle one only."""
        candidates = make_set(["/a/b"], generals=["/a/*", "/a//*"])
        dag = CandidateDag(candidates)
        widest = candidates.get(("/a//*", IndexValueType.STRING))
        assert [str(c.pattern) for c in dag.children(widest)] == ["/a/*"]
        middle = candidates.get(("/a/*", IndexValueType.STRING))
        assert [str(c.pattern) for c in dag.children(middle)] == ["/a/b"]

    def test_descendants(self):
        candidates = make_set(["/a/b"], generals=["/a/*", "/a//*"])
        dag = CandidateDag(candidates)
        widest = candidates.get(("/a//*", IndexValueType.STRING))
        descendants = {str(c.pattern) for c in dag.descendants(widest)}
        assert descendants == {"/a/*", "/a/b"}

    def test_types_separate_in_dag(self):
        candidates = CandidateSet()
        candidates.get_or_add(parse_pattern("/a/b"), IndexValueType.NUMERIC, "C")
        candidates.get_or_add(
            parse_pattern("/a/*"), IndexValueType.STRING, "C", general=True
        )
        dag = CandidateDag(candidates)
        general = candidates.get(("/a/*", IndexValueType.STRING))
        assert dag.children(general) == []

    def test_equivalent_patterns_no_cycle(self):
        """Mutually-covering patterns must not create parent/child cycles."""
        # /a//b and /a//*/b... use /a/*/b vs /a//b: //b covers /*/b strictly.
        candidates = make_set([], generals=["/a//b", "/a/*/b"])
        dag = CandidateDag(candidates)
        wide = candidates.get(("/a//b", IndexValueType.STRING))
        narrow = candidates.get(("/a/*/b", IndexValueType.STRING))
        assert narrow in dag.children(wide) or dag.children(wide) == [narrow]
        assert dag.children(narrow) == []

    def test_from_generalization_pipeline(self, tpox_db, tpox_wl):
        from repro.core.candidates import enumerate_basic_candidates
        from repro.optimizer.session import WhatIfSession

        candidates = enumerate_basic_candidates(WhatIfSession(tpox_db), tpox_wl)
        generalize_candidates(candidates)
        dag = CandidateDag(candidates)
        roots = dag.roots()
        assert roots
        # every basic candidate is reachable from some root
        reachable = set()
        for root in roots:
            reachable.add(root.key)
            reachable.update(c.key for c in dag.descendants(root))
        assert {c.key for c in candidates} <= reachable
