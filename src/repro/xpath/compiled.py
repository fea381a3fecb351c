"""Compiled pattern matching: interned tag paths and deterministic matchers.

The interpreted NFA walk in :meth:`~repro.xpath.patterns.PathPattern.matches`
is correct but slow: every call runs a Python loop over the tag path,
maintaining a state *set* per symbol.  The optimizer probes the same small
universe of rooted tag paths with the same patterns over and over (index
matching, statistics aggregation, affected-set computation), so the
matching hot path is really a membership question over a mostly-static
path table.  This module turns it into one:

* :class:`PathTable` interns rooted tag paths (tuples of element names,
  the last possibly an ``@attr``) into dense integer ids, and stores a
  *path-string encoding* of each path: the symbols joined by an
  unprintable separator (:data:`SEP`), prefixed by it.  The encoding is
  injective for any symbol that does not itself contain the separator
  (XML names never do; a path containing one is marked unencodable and
  falls back to the NFA).
* :func:`compile_transitions` compiles a pattern's transition list into a
  deterministic anchored regex over that encoding: a child step consumes
  one encoded symbol, a descendant step consumes any number of element
  symbols first, wildcards become character classes.  Python's regex
  engine then does the whole walk in C.
* :class:`CompiledMatcher` owns a per-pattern *result bitmap* over the
  interned table (stored as a set of matching path ids plus a scan
  watermark).  A ``matches`` call is an id lookup plus a membership
  test; newly interned paths are folded in by scanning only the table's
  tail with the compiled regex.

The NFA implementation stays in :mod:`repro.xpath.patterns` as the
reference semantics; ``tests/test_compiled_matcher.py`` holds the
property test that the two agree on random patterns and paths.
"""

from __future__ import annotations

import re
import threading
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

#: Separator of the path-string encoding.  Unprintable, so it cannot occur
#: in XML element or attribute names; arbitrary (test-generated) symbols
#: containing it are detected at intern time and handled by NFA fallback.
SEP = "\x1f"

#: One pattern transition: (axis is descendant?, name test).
Transition = Tuple[bool, str]


def encode_tag_path(tag_path: Sequence[str]) -> Optional[str]:
    """The path-string encoding of a rooted tag path, or ``None`` when a
    symbol contains the separator (the encoding would not be injective).

    The empty path encodes to ``""`` -- distinct from ``("",)``, which
    encodes to a separator followed by the empty symbol.
    """
    if not tag_path:
        return ""
    encoded = SEP + SEP.join(tag_path)
    # An embedded separator would split one symbol into two.
    if encoded.count(SEP) != len(tag_path):
        return None
    return encoded


@lru_cache(maxsize=4096)
def compile_transitions(transitions: Tuple[Transition, ...]) -> "re.Pattern[str]":
    """Compile a pattern's transitions into an anchored regex over the
    path-string encoding.  Cached, so equal patterns share one regex.

    Per transition: a descendant axis first skips any number of *element*
    symbols (the NFA's self-loop never consumes attributes), then the name
    test consumes exactly one symbol.  ``*`` is any element symbol, ``@*``
    any attribute symbol, anything else a literal.
    """
    parts: List[str] = []
    for descendant, name_test in transitions:
        if descendant:
            parts.append(f"(?:{SEP}(?!@)[^{SEP}]*)*")
        parts.append(SEP)
        if name_test == "*":
            parts.append(f"(?!@)[^{SEP}]*")
        elif name_test == "@*":
            parts.append(f"@[^{SEP}]*")
        else:
            parts.append(re.escape(name_test))
    return re.compile("".join(parts))


class PathTable:
    """Interned rooted tag paths with dense integer ids.

    Interning is append-only; ids are assigned in first-seen order, so a
    table built from a dict of paths preserves its iteration order.
    """

    __slots__ = ("_ids", "_paths", "_encoded", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[str, ...], int] = {}
        self._paths: List[Tuple[str, ...]] = []
        #: Encoded form per id; ``None`` marks an unencodable path that
        #: matchers must check with the NFA instead.
        self._encoded: List[Optional[str]] = []
        #: Guards id assignment: the table is process-wide, so two
        #: threads interning the same new path (a caller's own threads
        #: sharing sessions) must agree on its id.  The hit
        #: path stays lock-free -- ``_ids`` is
        #: published last, so a visible id always has its path/encoding
        #: in place.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._paths)

    def intern(self, tag_path: Sequence[str]) -> int:
        """The id of ``tag_path``, interning it on first sight."""
        path = tuple(tag_path)
        path_id = self._ids.get(path)
        if path_id is None:
            with self._lock:
                path_id = self._ids.get(path)
                if path_id is None:
                    path_id = len(self._paths)
                    self._paths.append(path)
                    self._encoded.append(encode_tag_path(path))
                    self._ids[path] = path_id
        return path_id

    def path(self, path_id: int) -> Tuple[str, ...]:
        return self._paths[path_id]

    def encoded(self, path_id: int) -> Optional[str]:
        return self._encoded[path_id]


#: The process-wide table backing :meth:`PathPattern.matches`.  Rooted tag
#: paths are drawn from document vocabularies, a small universe that is
#: shared across collections, statistics objects, and advisor runs --
#: interning them once globally lets every pattern's result bitmap be
#: reused everywhere the same pattern object is probed.
GLOBAL_TABLE = PathTable()


class CompiledMatcher:
    """A pattern's deterministic matcher plus its result bitmap over one
    :class:`PathTable`.

    ``_matched`` holds the ids of table paths in the pattern's language
    (the bitmap), valid for ids below the ``_scanned`` watermark; a query
    for a newer id first extends the bitmap by regex-scanning the table's
    tail.  Amortized, each table path is matched exactly once per pattern
    no matter how often callers probe.
    """

    __slots__ = ("_regex", "_nfa_matches", "_table", "_ids", "_matched", "_scanned")

    def __init__(
        self,
        transitions: Tuple[Transition, ...],
        nfa_matches,
        table: PathTable = GLOBAL_TABLE,
    ) -> None:
        self._regex = compile_transitions(transitions)
        self._nfa_matches = nfa_matches  # reference fallback for unencodable paths
        self._table = table
        self._ids = table._ids  # append-only, safe to alias for the fast path
        self._matched: set = set()
        self._scanned = 0

    def _extend(self) -> None:
        """Fold newly interned table paths into the result bitmap."""
        table = self._table
        fullmatch = self._regex.fullmatch
        matched = self._matched
        end = len(table)
        for path_id in range(self._scanned, end):
            encoded = table._encoded[path_id]
            if encoded is None:
                if self._nfa_matches(table._paths[path_id]):
                    matched.add(path_id)
            elif fullmatch(encoded):
                matched.add(path_id)
        self._scanned = end

    def matches(self, tag_path: Sequence[str]) -> bool:
        """Deterministic equivalent of the NFA ``matches``."""
        path = tag_path if type(tag_path) is tuple else tuple(tag_path)
        path_id = self._ids.get(path)
        if path_id is None:
            path_id = self._table.intern(path)
        if self._scanned <= path_id:
            self._extend()
        return path_id in self._matched

    def matching_ids(self) -> set:
        """The full result bitmap (ids of every matching table path),
        scanning any unscanned tail first.  The returned set is live; do
        not mutate it."""
        if self._scanned < len(self._table):
            self._extend()
        return self._matched
