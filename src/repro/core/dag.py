"""The candidate generalization DAG (Section VI-B).

Each node is a candidate pattern; a node's *parents* are its possible
generalizations.  The top down search starts from the DAG's roots (the most
general candidates) and iteratively replaces a general index by its
children until the configuration fits the disk budget.

Edges are derived from index coverage (same value type + pattern
containment) reduced to direct links: ``g`` is a parent of ``c`` when ``g``
strictly covers ``c`` and no third candidate sits strictly between them.
This subsumes the generation-pair hints recorded during generalization and
also links basic candidates that a general pattern happens to cover even
though they were not part of the pair that produced it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.core.candidates import CandidateIndex, CandidateKey, CandidateSet


class CandidateDag:
    """Coverage DAG over a candidate set."""

    def __init__(self, candidates: CandidateSet) -> None:
        self.candidates = list(candidates)
        self._children: Dict[CandidateKey, List[CandidateIndex]] = {}
        self._parents: Dict[CandidateKey, List[CandidateIndex]] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        # strict coverage: g covers c, and not (c covers g).  Covered keys
        # are kept in candidate order (a dict, not a set): children order
        # decides the top down search's configuration order and with it
        # the float summation order of its benefit, which must not depend
        # on the string hash seed.
        covers: Dict[CandidateKey, Dict[CandidateKey, None]] = {}
        by_key = {c.key: c for c in self.candidates}
        for general in self.candidates:
            covered: Dict[CandidateKey, None] = {}
            for other in self.candidates:
                if other.key == general.key:
                    continue
                if general.covers(other) and not other.covers(general):
                    covered[other.key] = None
            covers[general.key] = covered
        # transitive reduction: keep edge g->c only if no d with
        # g covers d and d covers c.
        for general in self.candidates:
            children: List[CandidateIndex] = []
            for child_key in covers[general.key]:
                if any(
                    child_key in covers[mid_key]
                    for mid_key in covers[general.key]
                    if mid_key != child_key
                ):
                    continue
                children.append(by_key[child_key])
            self._children[general.key] = children
            for child in children:
                self._parents.setdefault(child.key, []).append(general)
        for candidate in self.candidates:
            self._parents.setdefault(candidate.key, [])

    # ------------------------------------------------------------------
    def children(self, candidate: CandidateIndex) -> List[CandidateIndex]:
        """Direct specializations of ``candidate``."""
        return list(self._children.get(candidate.key, []))

    def parents(self, candidate: CandidateIndex) -> List[CandidateIndex]:
        """Direct generalizations of ``candidate``."""
        return list(self._parents.get(candidate.key, []))

    def roots(self) -> List[CandidateIndex]:
        """Candidates with no generalization above them -- the starting
        configuration of the top down search."""
        return [c for c in self.candidates if not self._parents.get(c.key)]

    def descendants(self, candidate: CandidateIndex) -> List[CandidateIndex]:
        """All candidates strictly below ``candidate`` in the DAG."""
        seen: Set[CandidateKey] = set()
        order: List[CandidateIndex] = []
        stack = self.children(candidate)
        while stack:
            node = stack.pop()
            if node.key in seen:
                continue
            seen.add(node.key)
            order.append(node)
            stack.extend(self.children(node))
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CandidateDag nodes={len(self.candidates)} roots={len(self.roots())}>"
