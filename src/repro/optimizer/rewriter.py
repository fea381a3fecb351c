"""Query rewriting: exposing indexable path requests.

The optimizer's rewrite phase turns a statement into the set of *path
requests* that an index could answer (Section IV: candidates "will have
already taken predicates into account and will include indexes that are
only exposed by query rewrites").  A path request is an absolute linear
pattern plus an optional comparison -- e.g. query Q2::

    for $sec in SECURITY('SDOC')/Security[Yield>4.5]
    where $sec/SecInfo/*/Sector = "Energy" ...

exposes ``/Security/Yield > 4.5`` (from the step predicate -- a rewrite)
and ``/Security/SecInfo/*/Sector = "Energy"`` (from the where clause).

Each request carries the value type an index must have to answer it:
numeric comparisons need a NUMERIC index, string comparisons and existence
tests need a STRING index (a string XML index contains *every* matched
node, so it is the complete one for structural use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.query.model import (
    DeleteStatement,
    InsertStatement,
    JoinQuery,
    Query,
    Statement,
)
from repro.storage.index import IndexValueType
from repro.xpath.ast import (
    AndPredicate,
    ComparisonPredicate,
    ExistsPredicate,
    FunctionPredicate,
    Literal,
    LocationPath,
    OrPredicate,
    Predicate,
)
from repro.xpath.patterns import PathPattern, pattern_from_path


@dataclass(frozen=True)
class PathRequest:
    """An indexable access request exposed by the rewrite phase."""

    pattern: PathPattern
    op: Optional[str] = None
    literal: Optional[Literal] = None

    def __post_init__(self) -> None:
        if (self.op is None) != (self.literal is None):
            raise ValueError("op and literal must be given together")

    @property
    def is_comparison(self) -> bool:
        return self.op is not None

    @property
    def value_type(self) -> IndexValueType:
        """The index key type required to answer this request."""
        if self.literal is not None and self.literal.is_number:
            return IndexValueType.NUMERIC
        return IndexValueType.STRING

    def __str__(self) -> str:
        if self.is_comparison:
            return f"{self.pattern} {self.op} {self.literal}"
        return f"{self.pattern} (exists)"


@dataclass(frozen=True)
class RangeRequest:
    """A two-sided interval condition on one pattern, produced by merging
    a lower-bound and an upper-bound request (``Yield >= a and Yield <=
    b``).  A single index range scan serves it."""

    pattern: PathPattern
    low: Literal
    low_inclusive: bool
    high: Literal
    high_inclusive: bool

    def __post_init__(self) -> None:
        if self.low.is_number != self.high.is_number:
            raise ValueError("interval bounds must share a type")

    @property
    def is_comparison(self) -> bool:
        return True

    @property
    def value_type(self) -> IndexValueType:
        if self.low.is_number:
            return IndexValueType.NUMERIC
        return IndexValueType.STRING

    def bounds(self) -> Tuple[PathRequest, PathRequest]:
        """The lower- and upper-bound requests this interval merged."""
        return (
            PathRequest(self.pattern, ">=" if self.low_inclusive else ">", self.low),
            PathRequest(self.pattern, "<=" if self.high_inclusive else "<", self.high),
        )

    def __str__(self) -> str:
        left = ">=" if self.low_inclusive else ">"
        right = "<=" if self.high_inclusive else "<"
        return f"{self.pattern} {left} {self.low} and {right} {self.high}"


def merge_range_requests(
    requests: List[PathRequest],
) -> List["PathRequest | RangeRequest"]:
    """Pair one lower bound with one upper bound on the same pattern into
    a :class:`RangeRequest`; everything else passes through unchanged.
    Used by the planner only -- candidate enumeration keeps the raw
    requests."""
    lowers: dict = {}
    uppers: dict = {}
    passthrough: List = []
    for request in requests:
        key = (request.pattern, request.value_type)
        if request.op in (">", ">=") and key not in lowers:
            lowers[key] = request
        elif request.op in ("<", "<=") and key not in uppers:
            uppers[key] = request
        else:
            passthrough.append(request)
    merged: List = []
    for key, lower in lowers.items():
        upper = uppers.pop(key, None)
        if upper is None:
            merged.append(lower)
            continue
        merged.append(
            RangeRequest(
                pattern=lower.pattern,
                low=lower.literal,
                low_inclusive=(lower.op == ">="),
                high=upper.literal,
                high_inclusive=(upper.op == "<="),
            )
        )
    merged.extend(uppers.values())
    merged.extend(passthrough)
    return merged


@dataclass(frozen=True)
class DisjunctiveRequest:
    """An OR of path requests (``[a=1 or b=2]``).

    An index plan can serve the disjunction only by *unioning* index
    results for every alternative (DB2-style index ORing); one covered
    alternative is not enough.  Alternatives that are conjunction groups
    are represented by one of their indexable conjuncts (a superset
    filter for that branch, which is sound for pre-filtering).
    """

    alternatives: Tuple[PathRequest, ...]

    def __post_init__(self) -> None:
        if len(self.alternatives) < 2:
            raise ValueError("a disjunction needs at least two alternatives")

    def __str__(self) -> str:
        return " OR ".join(str(a) for a in self.alternatives)


def _extraction(
    statement: Statement,
) -> Tuple[
    Tuple[PathRequest, ...],
    Tuple[DisjunctiveRequest, ...],
    Tuple[PathRequest, ...],
]:
    """(conjunctive requests, disjunctions, flattened all-requests) of a
    statement, extracted once and kept on the statement itself (see
    :mod:`repro.query.model`): every optimizer call asks for them again,
    and a memo that lives and dies with its statement cannot grow with
    the number of distinct texts a long-lived server has seen.  Entries
    are tuples: callers must treat them as immutable."""
    try:
        return statement._extraction
    except AttributeError:
        pass
    requests, disjunctions = _extract(statement)
    conjunctive = flattened = tuple(_dedupe(requests))
    if disjunctions:
        everything = list(requests)
        for disjunction in disjunctions:
            everything.extend(disjunction.alternatives)
        flattened = tuple(_dedupe(everything))
    memo = (conjunctive, tuple(disjunctions), flattened)
    object.__setattr__(statement, "_extraction", memo)
    return memo


class RequestSignature:
    """Everything the configuration-independent half of planning a query
    or delete reads from the statement: its kind, collection, conjunctive
    requests and disjunctions.  Statements that differ only in what they
    return share one signature.  The hash is computed once."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: Tuple) -> None:
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is RequestSignature and self.key == other.key
        )

    @property
    def requests(self) -> Tuple[PathRequest, ...]:
        return self.key[2]

    @property
    def disjunctions(self) -> Tuple[DisjunctiveRequest, ...]:
        return self.key[3]

    def map(self, function) -> "RequestSignature":
        """The same signature over ``function(request)`` of each request."""
        kind, collection, requests, disjunctions = self.key
        return RequestSignature((
            kind,
            collection,
            tuple(map(function, requests)),
            tuple(
                DisjunctiveRequest(tuple(map(function, d.alternatives)))
                for d in disjunctions
            ),
        ))


def request_signature(statement: Statement) -> RequestSignature:
    """The :class:`RequestSignature` of a query or delete, built once and
    kept on the statement next to its extraction memo."""
    try:
        return statement._signature
    except AttributeError:
        pass
    conjunctive, disjunctions, _ = _extraction(statement)
    signature = RequestSignature(
        (statement.kind, statement.collection, conjunctive, disjunctions)
    )
    object.__setattr__(statement, "_signature", signature)
    return signature


def extract_path_requests(statement: Statement) -> List[PathRequest]:
    """All *conjunctive* indexable path requests of a statement, in a
    deterministic order, duplicates removed.  Disjunctions are reported
    separately by :func:`extract_disjunctive_requests`.  The extraction
    itself is memoized per statement; callers get a fresh list."""
    return list(_extraction(statement)[0])


def extract_disjunctive_requests(statement: Statement) -> List[DisjunctiveRequest]:
    """The statement's fully-indexable disjunctions (index-ORing
    opportunities).  Memoized per statement; callers get a fresh list."""
    return list(_extraction(statement)[1])


def extract_all_requests(statement: Statement) -> List[PathRequest]:
    """Conjunctive requests plus every disjunction alternative -- the set
    relevant for candidate enumeration and affected-set computation (an
    index on an OR branch can participate in an index-ORing plan).
    Memoized per statement; callers get a fresh list."""
    return list(_extraction(statement)[2])


def join_key_request(side: Query, join_path) -> PathRequest:
    """The structural request a join-key index must answer: the side's
    binding skeleton extended by the join path.  Join keys are compared as
    strings, so a STRING index serves the probe -- which is exactly the
    type an existence (op-less) request demands."""
    skeleton = side.binding_path.without_predicates()
    full = skeleton.concat(join_path.without_predicates())
    return PathRequest(pattern_from_path(full))


def _extract(
    statement: Statement,
) -> Tuple[List[PathRequest], List[DisjunctiveRequest]]:
    if isinstance(statement, JoinQuery):
        left_requests, left_disjunctions = _requests_from_query(statement.left)
        right_requests, right_disjunctions = _requests_from_query(statement.right)
        requests = left_requests + right_requests
        requests.append(join_key_request(statement.left, statement.left_join_path))
        requests.append(
            join_key_request(statement.right, statement.right_join_path)
        )
        return requests, left_disjunctions + right_disjunctions
    if isinstance(statement, Query):
        return _requests_from_query(statement)
    if isinstance(statement, DeleteStatement):
        return _requests_from_delete(statement)
    if isinstance(statement, InsertStatement):
        return [], []
    raise TypeError(f"unknown statement type {type(statement)!r}")


def _dedupe(requests: List[PathRequest]) -> List[PathRequest]:
    unique: List[PathRequest] = []
    seen = set()
    for request in requests:
        key = (request.pattern, request.op, request.literal)
        if key not in seen:
            seen.add(key)
            unique.append(request)
    return unique


def _requests_from_query(
    query: Query,
) -> Tuple[List[PathRequest], List[DisjunctiveRequest]]:
    requests: List[PathRequest] = []
    disjunctions: List[DisjunctiveRequest] = []
    _collect_path_predicates(query.binding_path, requests, disjunctions)
    skeleton = query.binding_path.without_predicates()
    for clause in query.where:
        full = skeleton.concat(clause.path) if clause.path.steps else skeleton
        _collect_path_predicates(full, requests, disjunctions)
        pattern = pattern_from_path(full)
        if clause.is_comparison:
            requests.append(PathRequest(pattern, clause.op, clause.literal))
        else:
            requests.append(PathRequest(pattern))
    return requests, disjunctions


def _requests_from_delete(
    statement: DeleteStatement,
) -> Tuple[List[PathRequest], List[DisjunctiveRequest]]:
    requests: List[PathRequest] = []
    disjunctions: List[DisjunctiveRequest] = []
    _collect_path_predicates(statement.selector_path, requests, disjunctions)
    pattern = pattern_from_path(statement.selector_path)
    if statement.op is not None:
        requests.append(PathRequest(pattern, statement.op, statement.literal))
    else:
        requests.append(PathRequest(pattern))
    return requests, disjunctions


def _collect_path_predicates(
    path: LocationPath,
    requests: List[PathRequest],
    disjunctions: List[DisjunctiveRequest],
) -> None:
    """Lift every step predicate of ``path`` into a request rooted at the
    predicate's step -- the "query rewrite" that exposes e.g.
    ``/Security/Yield`` from ``/Security[Yield>4.5]``."""
    prefix_steps: List = []
    for step in path.steps:
        prefix_steps.append(step.without_predicates())
        if not path.absolute:
            continue  # relative predicate paths are not indexable roots
        prefix = LocationPath(tuple(prefix_steps), absolute=True)
        for predicate in step.predicates:
            _collect_predicate(prefix, predicate, requests, disjunctions)


def _collect_predicate(
    prefix: LocationPath,
    predicate: Predicate,
    requests: List[PathRequest],
    disjunctions: List[DisjunctiveRequest],
) -> None:
    """Requests exposed by one predicate anchored at ``prefix``.

    Conjuncts are indexable individually; ``contains()`` never is (a value
    index cannot answer substring conditions).  A disjunction is indexable
    as a *unit* when every alternative contributes a request -- then an
    index-ORing plan can union the alternatives' results.
    """
    if isinstance(predicate, OrPredicate):
        branch_requests: List[Optional[PathRequest]] = []
        for alternative in predicate.alternatives:
            branch_requests.append(_branch_request(prefix, alternative))
        if all(r is not None for r in branch_requests):
            disjunctions.append(DisjunctiveRequest(tuple(branch_requests)))
        return
    simple = _simple_request(prefix, predicate)
    if simple is not None:
        requests.append(simple)
    rel_path = getattr(predicate, "path", None)
    if rel_path is not None:
        _collect_nested(prefix, rel_path, requests, disjunctions)


def _simple_request(
    prefix: LocationPath, predicate: Predicate
) -> Optional[PathRequest]:
    """The request of a simple predicate, or None if not indexable."""
    if isinstance(predicate, ComparisonPredicate):
        target = prefix.concat(predicate.path.without_predicates())
        return PathRequest(
            pattern_from_path(target), predicate.op, predicate.literal
        )
    if isinstance(predicate, ExistsPredicate):
        target = prefix.concat(predicate.path.without_predicates())
        return PathRequest(pattern_from_path(target))
    if isinstance(predicate, FunctionPredicate):
        if predicate.function != "starts-with":
            return None
        target = prefix.concat(predicate.path.without_predicates())
        return PathRequest(
            pattern_from_path(target), "starts-with", predicate.literal
        )
    return None


def _branch_request(
    prefix: LocationPath, alternative: Predicate
) -> Optional[PathRequest]:
    """A request standing in for one OR alternative: the alternative's own
    request, or (for a conjunction group) the first indexable conjunct --
    a sound superset filter for that branch."""
    if isinstance(alternative, AndPredicate):
        for conjunct in alternative.conjuncts:
            request = _simple_request(prefix, conjunct)
            if request is not None:
                return request
        return None
    return _simple_request(prefix, alternative)


def _collect_nested(
    prefix: LocationPath,
    rel_path: LocationPath,
    requests: List[PathRequest],
    disjunctions: List[DisjunctiveRequest],
) -> None:
    """Predicates sitting on the steps of a predicate's own path."""
    steps: List = []
    for step in rel_path.steps:
        steps.append(step.without_predicates())
        inner_prefix = prefix.concat(LocationPath(tuple(steps), absolute=False))
        for predicate in step.predicates:
            _collect_predicate(inner_prefix, predicate, requests, disjunctions)
