"""Candidate indexes and basic candidate enumeration (Section IV).

The basic candidate set is obtained by optimizing every workload statement
in the optimizer's *Enumerate Indexes* mode: a virtual universal ``//*``
index is put in place, and every query pattern the optimizer's
index-matching step matched against it becomes a candidate.  Candidates are
keyed by (pattern, value type); each records its *affected set* -- the
workload statements that produced a basic pattern it covers -- which drives
the efficient benefit evaluation of Section VI-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.optimizer.optimizer import Optimizer, OptimizerMode
from repro.query.workload import Workload
from repro.robustness.errors import StatisticsUnavailable
from repro.storage.catalog import IndexDefinition
from repro.storage.index import IndexValueType
from repro.xpath.patterns import PathPattern

#: Size assumed for a candidate whose statistics are unavailable: big
#: enough that a degraded run does not overcommit its disk budget to
#: indexes nobody could size.
FALLBACK_CANDIDATE_SIZE = 4096

CandidateKey = Tuple[str, IndexValueType]


@dataclass
class CandidateIndex:
    """One candidate index: a pattern, a key type, and bookkeeping.

    Attributes:
        pattern: The linear index pattern.
        value_type: Key type (string/numeric).
        collection: Collection the candidate indexes.
        general: True if produced by the generalization step (Section V).
        affected: Indices (into the workload) of statements whose basic
            patterns this candidate covers -- its *affected set*.
        size_bytes: Estimated size from derived virtual-index statistics.
        sources: For general candidates, the keys of the candidates each
            generalization pair merged (direct DAG children hints).
    """

    pattern: PathPattern
    value_type: IndexValueType
    collection: str
    general: bool = False
    affected: Set[int] = field(default_factory=set)
    size_bytes: int = 0
    sources: Set[CandidateKey] = field(default_factory=set)

    @property
    def key(self) -> CandidateKey:
        return (str(self.pattern), self.value_type)

    def covers(self, other: "CandidateIndex") -> bool:
        """Index-coverage test between candidates: same key type and
        pattern containment."""
        return (
            self.value_type is other.value_type
            and self.pattern.covers(other.pattern)
        )

    def definition(self, name: str, virtual: bool = True) -> IndexDefinition:
        """Materialize this candidate as an index definition."""
        return IndexDefinition(
            name=name,
            collection=self.collection,
            pattern=self.pattern,
            value_type=self.value_type,
            virtual=virtual,
        )

    def __str__(self) -> str:
        flag = " [general]" if self.general else ""
        return f"{self.pattern} ({self.value_type.value}){flag}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CandidateIndex({self!s}, size={self.size_bytes})"


class CandidateSet:
    """A keyed collection of candidates with insertion order preserved."""

    def __init__(self) -> None:
        self._by_key: Dict[CandidateKey, CandidateIndex] = {}

    def get_or_add(
        self,
        pattern: PathPattern,
        value_type: IndexValueType,
        collection: str,
        general: bool = False,
    ) -> CandidateIndex:
        key = (str(pattern), value_type)
        candidate = self._by_key.get(key)
        if candidate is None:
            candidate = CandidateIndex(
                pattern=pattern,
                value_type=value_type,
                collection=collection,
                general=general,
            )
            self._by_key[key] = candidate
        return candidate

    def get(self, key: CandidateKey) -> Optional[CandidateIndex]:
        return self._by_key.get(key)

    def __contains__(self, key: CandidateKey) -> bool:
        return key in self._by_key

    def __iter__(self):
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def basics(self) -> List[CandidateIndex]:
        return [c for c in self if not c.general]

    def generals(self) -> List[CandidateIndex]:
        return [c for c in self if c.general]

    def compute_sizes(self, database, on_degraded=None) -> None:
        """Fill ``size_bytes`` from derived virtual-index statistics.

        When statistics are unavailable for a candidate the size degrades
        to a document-count guess (floor
        :data:`FALLBACK_CANDIDATE_SIZE`) instead of failing the run;
        ``on_degraded(candidate, exc)`` reports each such fallback so the
        advisor can surface it in the recommendation."""
        for candidate in self:
            try:
                stats = database.runstats(candidate.collection)
                candidate.size_bytes = stats.derive_index_statistics(
                    candidate.pattern, candidate.value_type
                ).size_bytes
            except StatisticsUnavailable as exc:
                try:
                    documents = len(database.collection(candidate.collection))
                except KeyError:
                    documents = 0
                candidate.size_bytes = max(
                    FALLBACK_CANDIDATE_SIZE, 32 * documents
                )
                if on_degraded is not None:
                    on_degraded(candidate, exc)

    def propagate_affected_sets(self) -> None:
        """Give every general candidate the union of the affected sets of
        the basic candidates it covers (Section VI-C: 'we keep track for
        each index of which workload statements produced basic candidate
        index patterns that are covered by this index')."""
        basics = self.basics()
        for general in self.generals():
            for basic in basics:
                if general.covers(basic):
                    general.affected |= basic.affected


def enumerate_basic_candidates(coupling, workload: Workload) -> CandidateSet:
    """Run every workload statement through Enumerate Indexes mode and
    collect the basic candidate set.

    ``coupling`` is a :class:`~repro.optimizer.session.WhatIfSession`
    (preferred -- enumeration results are cached per statement) or a bare
    :class:`Optimizer` (tests, backward compatibility).
    """
    candidates = CandidateSet()
    eligible = [
        (position, entry.statement)
        for position, entry in enumerate(workload)
        if hasattr(entry.statement, "collection")
    ]
    if isinstance(coupling, Optimizer):
        results = [
            coupling.optimize(statement, OptimizerMode.ENUMERATE)
            for _, statement in eligible
        ]
    else:
        results = coupling.enumerate_batch(
            [statement for _, statement in eligible]
        )
    for (position, _), result in zip(eligible, results):
        for enumerated in result.candidates:
            candidate = candidates.get_or_add(
                enumerated.pattern,
                enumerated.value_type,
                enumerated.collection,
            )
            candidate.affected.add(position)
    return candidates
