"""Linear XPath index patterns and pattern containment.

An *index pattern* (Section III of the paper) is a linear XPath expression
without predicates, e.g. ``/Security/SecInfo/*/Sector`` or ``/Security//*``.
A pattern denotes a set of rooted *tag paths*: sequences of element names
from the document root to an element.  Index matching in the optimizer and
redundancy reasoning in the advisor both reduce to two questions this module
answers:

* :meth:`PathPattern.matches` -- does a concrete tag path belong to the
  pattern's language?
* :meth:`PathPattern.covers` -- is pattern ``q``'s language a subset of
  pattern ``p``'s language?  (Then an index on ``p`` can answer any path
  request an index on ``q`` could.)

Both are decided on the pattern's nondeterministic finite automaton.  A
pattern is a regular expression over the (unbounded) alphabet of element
names: a child step ``/name`` consumes one symbol, a descendant step
``//name`` consumes any number of symbols and then one, ``*`` matches any
symbol.  Containment is decided exactly by simulating the product of ``q``'s
NFA with the determinized NFA of ``p`` over a *symbolic* alphabet: the names
mentioned by either pattern plus one fresh "other" symbol (all unmentioned
names behave identically, so one representative suffices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.xpath.ast import Axis, LocationPath, Step
from repro.xpath.compiled import CompiledMatcher
from repro.xpath.parser import XPathSyntaxError, _XPathParser

#: Symbolic stand-in for "any element name not mentioned in the patterns".
OTHER_SYMBOL = "\x00other"


@dataclass(frozen=True)
class PatternStep:
    """One step of a linear pattern: an axis and a name test.

    ``name`` is an element name, ``*``, or an attribute test ``@name``/``@*``
    (attribute tests only in the final step).
    """

    axis: Axis
    name: str

    @property
    def is_wildcard(self) -> bool:
        return self.name in ("*", "@*")

    @property
    def is_attribute(self) -> bool:
        return self.name.startswith("@")

    def __str__(self) -> str:
        return f"{self.axis}{self.name}"


class PathPattern:
    """An immutable linear XPath pattern (no predicates).

    Instances are hashable and compare by their canonical string form, so
    they can key candidate sets and configuration caches.
    """

    __slots__ = (
        "steps", "_text", "_hash", "_transitions", "_matcher", "_tag_path"
    )

    def __init__(self, steps: Sequence[PatternStep]) -> None:
        steps = tuple(steps)
        if not steps:
            raise ValueError("a pattern needs at least one step")
        for step in steps[:-1]:
            if step.is_attribute:
                raise ValueError(
                    "attribute tests are only allowed in the final step"
                )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_text", "".join(str(s) for s in steps))
        object.__setattr__(self, "_hash", hash(self._text))
        object.__setattr__(
            self,
            "_transitions",
            tuple((s.axis is Axis.DESCENDANT, s.name) for s in steps),
        )
        object.__setattr__(self, "_matcher", None)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("PathPattern is immutable")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathPattern({self._text!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PathPattern) and self._text == other._text

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle as the canonical text.  A pattern's matcher bitmap is
        # keyed against the pickling process's GLOBAL_TABLE ids, which
        # mean nothing in another process -- re-parsing on unpickle
        # forces the receiving process (e.g. a parallel what-if worker)
        # to rebuild matcher state against its own table.
        return (parse_pattern, (self._text,))

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    @property
    def last_step(self) -> PatternStep:
        return self.steps[-1]

    @property
    def has_wildcard(self) -> bool:
        return any(step.is_wildcard for step in self.steps)

    @property
    def has_descendant_axis(self) -> bool:
        return any(step.axis is Axis.DESCENDANT for step in self.steps)

    @property
    def tag_path(self):
        """The one tag path a wildcard-free, child-steps-only pattern
        matches, else ``None`` (worked out on first use)."""
        try:
            return self._tag_path
        except AttributeError:
            tag_path = (
                tuple(name for _, name in self._transitions)
                if not any(
                    descendant or name in ("*", "@*")
                    for descendant, name in self._transitions
                )
                else None
            )
            object.__setattr__(self, "_tag_path", tag_path)
            return tag_path

    @property
    def is_universal(self) -> bool:
        """True for the universal pattern ``//*`` used by the Enumerate
        Indexes optimizer mode."""
        return (
            len(self.steps) == 1
            and self.steps[0].axis is Axis.DESCENDANT
            and self.steps[0].name == "*"
        )

    def mentioned_names(self) -> Set[str]:
        """Element/attribute names appearing in the pattern (no wildcards)."""
        return {s.name for s in self.steps if not s.is_wildcard}

    # ------------------------------------------------------------------
    # NFA construction and matching
    # ------------------------------------------------------------------
    def _nfa_transitions(self) -> List[Tuple[Axis, str]]:
        """The pattern as a list of (axis, name) consuming transitions.

        The NFA has states ``0..n``; state ``i`` moves to ``i+1`` by
        consuming a symbol matching ``name``; when the axis is DESCENDANT,
        state ``i`` also self-loops on any symbol.  State ``n`` accepts.
        """
        return [(s.axis, s.name) for s in self.steps]

    @staticmethod
    def _step_matches(name_test: str, symbol: str) -> bool:
        if name_test == "*":
            return not symbol.startswith("@")
        if name_test == "@*":
            return symbol.startswith("@")
        return name_test == symbol

    @property
    def matcher(self) -> CompiledMatcher:
        """The pattern's compiled matcher (deterministic regex over the
        interned path table), created on first use."""
        matcher = self._matcher
        if matcher is None:
            matcher = CompiledMatcher(self._transitions, self.matches_nfa)
            object.__setattr__(self, "_matcher", matcher)
        return matcher

    def matches(self, tag_path: Sequence[str]) -> bool:
        """True if the rooted tag path (a sequence of element names, the last
        possibly an ``@attr``) belongs to this pattern's language.

        Dispatches to the compiled matcher; :meth:`matches_nfa` is the
        reference implementation the matcher must agree with."""
        return self.matcher.matches(tag_path)

    def matches_nfa(self, tag_path: Sequence[str]) -> bool:
        """Reference NFA simulation of :meth:`matches` (kept as the ground
        truth the compiled matcher is property-tested against, and as the
        fallback for tag paths the path-string encoding cannot express)."""
        transitions = self._transitions
        accept = len(transitions)
        states: Set[int] = {0}
        for symbol in tag_path:
            is_attribute = symbol.startswith("@")
            next_states: Set[int] = set()
            for state in states:
                if state < accept:
                    descendant, name_test = transitions[state]
                    if descendant and not is_attribute:
                        next_states.add(state)  # self-loop
                    if (
                        name_test == symbol
                        or (name_test == "*" and not is_attribute)
                        or (name_test == "@*" and is_attribute)
                    ):
                        next_states.add(state + 1)
            states = next_states
            if not states:
                return False
        return accept in states

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def covers(self, other: "PathPattern") -> bool:
        """True if every tag path matched by ``other`` is matched by
        ``self`` (language containment L(other) ⊆ L(self))."""
        return _covers_cached(self._text, other._text)

    def overlaps(self, other: "PathPattern") -> bool:
        """True if some tag path is matched by both patterns (language
        intersection is non-empty)."""
        return _overlaps_cached(self._text, other._text)

    # ------------------------------------------------------------------
    # Rewriting (Rule 0 of Table II)
    # ------------------------------------------------------------------
    def collapse_wildcards(self) -> "PathPattern":
        """Apply the paper's final rewrite rule: replace any run of middle
        ``/*`` (or ``//*``) steps by a descendant axis on the following
        step, e.g. ``/a/*/b`` and ``/a/*/*/b`` both become ``/a//b``.

        The last step is never removed.  Note this rewrite *generalizes*
        the pattern (it can only grow the language), which is exactly what
        the generalization algorithm wants.
        """
        steps = list(self.steps)
        result: List[PatternStep] = []
        pending_descendant = False
        for position, step in enumerate(steps):
            is_middle = position < len(steps) - 1
            if is_middle and step.is_wildcard and not step.is_attribute:
                pending_descendant = True
                continue
            axis = Axis.DESCENDANT if (
                pending_descendant or step.axis is Axis.DESCENDANT
            ) else step.axis
            result.append(PatternStep(axis, step.name))
            pending_descendant = False
        return PathPattern(result)


# ---------------------------------------------------------------------------
# Containment decision procedures (module-level for lru_cache friendliness)
# ---------------------------------------------------------------------------

def _symbolic_alphabet(p: PathPattern, q: PathPattern) -> List[str]:
    names = p.mentioned_names() | q.mentioned_names()
    element_names = sorted(n for n in names if not n.startswith("@"))
    attribute_names = sorted(n for n in names if n.startswith("@"))
    alphabet = element_names + [OTHER_SYMBOL]
    if attribute_names or p.last_step.is_attribute or q.last_step.is_attribute:
        alphabet += attribute_names + ["@" + OTHER_SYMBOL]
    return alphabet


def _nfa_step(
    pattern: PathPattern, states: FrozenSet[int], symbol: str
) -> FrozenSet[int]:
    transitions = pattern._nfa_transitions()
    next_states: Set[int] = set()
    for state in states:
        if state < len(transitions):
            axis, name_test = transitions[state]
            if axis is Axis.DESCENDANT and not symbol.startswith("@"):
                next_states.add(state)
            if _symbol_matches(name_test, symbol):
                next_states.add(state + 1)
    return frozenset(next_states)


def _symbol_matches(name_test: str, symbol: str) -> bool:
    if name_test == "*":
        return not symbol.startswith("@")
    if name_test == "@*":
        return symbol.startswith("@")
    if symbol == OTHER_SYMBOL or symbol == "@" + OTHER_SYMBOL:
        # The "other" symbol only matches wildcards (handled above).
        return False
    return name_test == symbol


@lru_cache(maxsize=65536)
def _covers_cached(super_text: str, sub_text: str) -> bool:
    if super_text == sub_text:
        return True
    sup = parse_pattern(super_text)
    sub = parse_pattern(sub_text)
    # Fast paths that decide the bulk of optimizer index-matching probes
    # without building the product automaton; each must agree with
    # _covers_product (property-tested in tests/test_compiled_matcher.py).
    if sup.is_universal:
        # //* matches exactly the paths ending in an element symbol.
        return not sub.last_step.is_attribute
    if sub.tag_path is not None:
        # A concrete pattern's language is the single path of its names.
        return sup.matches(sub.tag_path)
    return _covers_product(sup, sub)


def _covers_product(sup: PathPattern, sub: PathPattern) -> bool:
    """Exact containment by product construction (reference decision
    procedure; the fast paths in :func:`_covers_cached` defer to it)."""
    alphabet = _symbolic_alphabet(sup, sub)
    sub_accept = len(sub.steps)
    sup_accept = len(sup.steps)
    # BFS over (sub NFA state, determinized sup state set): find a word
    # accepted by sub but not by sup.
    start = (0, frozenset([0]))
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for sub_state, sup_states in frontier:
            if sub_state == sub_accept and sup_accept not in sup_states:
                return False  # counterexample word exists
            for symbol in alphabet:
                new_subs = _nfa_step(sub, frozenset([sub_state]), symbol)
                if not new_subs:
                    continue
                new_sup = _nfa_step(sup, sup_states, symbol)
                for new_sub_state in new_subs:
                    state = (new_sub_state, new_sup)
                    if state not in seen:
                        seen.add(state)
                        next_frontier.append(state)
        frontier = next_frontier
    return True


@lru_cache(maxsize=65536)
def _overlaps_cached(a_text: str, b_text: str) -> bool:
    a = parse_pattern(a_text)
    b = parse_pattern(b_text)
    alphabet = _symbolic_alphabet(a, b)
    a_accept = len(a.steps)
    b_accept = len(b.steps)
    start = (frozenset([0]), frozenset([0]))
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for a_states, b_states in frontier:
            if a_accept in a_states and b_accept in b_states:
                return True
            for symbol in alphabet:
                new_a = _nfa_step(a, a_states, symbol)
                new_b = _nfa_step(b, b_states, symbol)
                if not new_a or not new_b:
                    continue
                state = (new_a, new_b)
                if state not in seen:
                    seen.add(state)
                    next_frontier.append(state)
        frontier = next_frontier
    return False


# ---------------------------------------------------------------------------
# Parsing and conversion
# ---------------------------------------------------------------------------

def parse_pattern(text: str) -> PathPattern:
    """Parse a linear index pattern like ``/Security/SecInfo/*/Sector``.

    Predicates are rejected; the pattern must be absolute.
    """
    parser = _XPathParser(text)
    path = parser.parse_complete(allow_predicates=False)
    if not path.absolute:
        raise XPathSyntaxError(f"index patterns must be absolute: {text!r}")
    return pattern_from_path(path)


def pattern_from_path(path: LocationPath) -> PathPattern:
    """The linear skeleton of a location path as a :class:`PathPattern`
    (predicates are stripped)."""
    return PathPattern(
        [PatternStep(step.axis, step.name_test) for step in path.steps]
    )


def pattern_to_path(pattern: PathPattern) -> LocationPath:
    """Convert a pattern back to a predicate-free absolute location path."""
    return LocationPath(
        tuple(Step(s.axis, s.name) for s in pattern.steps), absolute=True
    )
