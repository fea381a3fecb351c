"""Text front end for the mini-XQuery language.

Supported statement forms (whitespace-insensitive, case-insensitive
keywords)::

    for $sec in SECURITY('SDOC')/Security[Yield>4.5]
    where $sec/SecInfo/*/Sector = "Energy" and $sec/Symbol = "A"
    return <Security>{$sec/Name}</Security>

    for $o in ORDER('ODOC')/FIXML/Order for $l in $o/OrdQty
    where $l/@Qty > 100 return $o

    COLLECTION('SDOC')/Security/Symbol          -- bare path query

    insert into SDOC value '<Security>...</Security>'

    delete from SDOC where /Security/Symbol = "GONE"

Secondary ``for`` bindings must navigate from an earlier variable
(same-document navigation); they are folded into the primary variable's
where clauses (existence) and return paths, which preserves which patterns
are indexable -- the property the advisor cares about.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple

from repro.query.model import (
    DeleteStatement,
    InsertStatement,
    Query,
    Statement,
    WhereClause,
)
from repro.xpath.ast import Literal, LocationPath
from repro.xpath.parser import (
    XPathSyntaxError,
    _XPathParser,
    parse_condition,
    parse_xpath,
)


class QuerySyntaxError(ValueError):
    """Raised when a statement cannot be parsed."""


_COLLECTION_BINDING = re.compile(
    r"^\s*([A-Za-z_][\w]*)\s*\(\s*['\"]([\w$.-]+)['\"]\s*\)\s*(.*)$", re.S
)
_VARIABLE_BINDING = re.compile(r"^\s*\$([A-Za-z_]\w*)\s*(.*)$", re.S)
_INSERT_RE = re.compile(
    r"^\s*insert\s+into\s+([\w$.-]+)\s*(?:values?\s+'(.*)'\s*)?$",
    re.S | re.I,
)
_DELETE_RE = re.compile(
    r"^\s*delete\s+from\s+([\w$.-]+)\s+where\s+(.+)$", re.S | re.I
)
_RETURN_VAR_PATH = re.compile(r"\$([A-Za-z_]\w*)((?:/{1,2}[^\s,<>{}()\]\[$]+)?)")


_VARIABLE = re.compile(r"\$([A-Za-z_]\w*)")

#: Everything that decides where a FLWOR clause starts or ends: a quoted
#: string (an unterminated one runs to the end of the text), a bracket, a
#: comma, or a clause keyword.  A keyword directly after ``$`` is a
#: variable name, not a keyword.
_CLAUSE_TOKEN = re.compile(
    r"""'[^']*'?|"[^"]*"?|[\[({\])},]"""
    r"""|(?<![\w$])(?:for|let|where|return|in|and)(?!\w)""",
    re.I,
)


#: What separates the pieces of a section, besides ``let``, ``where`` and
#: ``return`` opening theirs.  Any other keyword is ordinary text there.
_SEPARATORS = {"for": ("for", ","), "let": (), "where": ("and",)}


class _ForPart(NamedTuple):
    """One binding of the ``for`` section and its pieces around each
    top-level ``in`` (a well-formed binding has exactly two)."""

    text: str
    pieces: List[str]


class _Clauses(NamedTuple):
    """The top-level clause texts of one FLWOR statement."""

    for_parts: List[_ForPart]
    lets: List[str]
    conjuncts: List[str]
    returned: str


def _scan_clauses(text: str) -> _Clauses:
    """Find every clause of a FLWOR statement in one pass.

    Clauses come in the order ``for`` -> ``let`` -> ``where`` ->
    ``return``; a keyword counts only outside quotes and brackets and
    only in the section where it means something (``in`` and ``,`` in
    the for section, ``and`` in the where section).  Nothing after the
    top-level ``return`` is looked at: a constructor may say
    ``<p>where</p>``.
    """
    for_parts: List[_ForPart] = []
    lets: List[str] = []
    conjuncts: List[str] = []
    returned = ""
    cuts: List[int] = []  # start, end of each 'in' of the current binding

    def close(section: str, start: int, end: int) -> None:
        piece = text[start:end]
        if not piece.strip():
            return
        if section == "for":
            bounds = [start, *cuts, end]
            for_parts.append(
                _ForPart(
                    piece,
                    [
                        text[bounds[i] : bounds[i + 1]]
                        for i in range(0, len(bounds), 2)
                    ],
                )
            )
        elif section == "let":
            lets.append(piece.strip())
        else:
            conjuncts.append(piece.strip())

    section = "for"
    depth = 0
    start = 0  # of the piece (binding, let or conjunct) being scanned
    for match in _CLAUSE_TOKEN.finditer(text):
        token = match.group()
        first = token[0]
        if first in "'\"":
            continue
        if first in "[({":
            depth += 1
            continue
        if first in "])}":
            depth -= 1
            continue
        if depth != 0:
            continue
        word = token.lower()
        if word == "return":
            close(section, start, match.start())
            returned = text[match.end() :].strip()
            break
        if word == "where":
            if section == "where":
                raise QuerySyntaxError("multiple where clauses")
            following = "where"
        elif word == "let" and section != "where":
            following = "let"
        elif word in _SEPARATORS[section]:
            following = section
        else:
            if word == "in" and section == "for":
                cuts.extend(match.span())
            continue
        close(section, start, match.start())
        section, start = following, match.end()
        cuts.clear()
    else:  # no return clause: the last piece runs to the end
        close(section, start, len(text))
    return _Clauses(for_parts, lets, conjuncts, returned)


def _to_relative(path: LocationPath) -> LocationPath:
    return LocationPath(path.steps, absolute=False)


def parse_statement(text: str) -> Statement:
    """Parse one statement (query, insert, or delete)."""
    stripped = text.strip()
    if not stripped:
        raise QuerySyntaxError("empty statement")
    lowered = stripped.lower()
    if lowered.startswith("insert"):
        return _parse_insert(stripped, text)
    if lowered.startswith("delete"):
        return _parse_delete(stripped, text)
    if lowered.startswith("for"):
        return _parse_flwor(stripped, text)
    return _parse_bare_path(stripped, text)


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

def _parse_insert(stripped: str, original: str) -> InsertStatement:
    match = _INSERT_RE.match(stripped)
    if not match:
        raise QuerySyntaxError(f"malformed insert statement: {original!r}")
    collection, document_text = match.group(1), match.group(2) or ""
    return InsertStatement(collection, document_text, text=original.strip())


def _parse_delete(stripped: str, original: str) -> DeleteStatement:
    match = _DELETE_RE.match(stripped)
    if not match:
        raise QuerySyntaxError(f"malformed delete statement: {original!r}")
    collection, condition = match.group(1), match.group(2).strip()
    try:
        path, op, literal = parse_condition(condition)
    except XPathSyntaxError as exc:
        raise QuerySyntaxError(f"bad delete condition {condition!r}") from exc
    return DeleteStatement(collection, path, op, literal, text=original.strip())


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _parse_bare_path(stripped: str, original: str) -> Query:
    match = _COLLECTION_BINDING.match(stripped)
    if not match:
        raise QuerySyntaxError(
            f"expected COLLECTION('name')/path or a FLWOR query: {original!r}"
        )
    collection = match.group(2)
    path_text = match.group(3).strip()
    if not path_text:
        raise QuerySyntaxError(f"missing path after collection in {original!r}")
    try:
        binding = parse_xpath(path_text)
    except XPathSyntaxError as exc:
        raise QuerySyntaxError(str(exc)) from exc
    if not binding.absolute:
        raise QuerySyntaxError(f"collection path must be absolute: {path_text!r}")
    return Query(collection, binding, text=original.strip())


def _parse_flwor(stripped: str, original: str) -> Query:
    clauses = _scan_clauses(stripped)
    bindings = _parse_for_bindings(clauses.for_parts)
    collection_count = sum(1 for b in bindings if b[0] == "col")
    if collection_count == 2:
        return _parse_join(bindings, clauses, original)
    if collection_count > 2:
        raise QuerySyntaxError("at most two collection bindings are supported")

    __, primary_var, collection, binding_path = bindings[0]

    # Secondary bindings: $b in $a/path -- record each variable's path
    # relative to the primary variable, and fold in an existence clause.
    var_prefix: Dict[str, LocationPath] = {
        primary_var: LocationPath((), absolute=False)
    }
    where: List[WhereClause] = []
    for __, var, source_var, rel_path in bindings[1:]:
        if source_var not in var_prefix:
            raise QuerySyntaxError(
                f"variable ${source_var} used before definition"
            )
        full = var_prefix[source_var].concat(rel_path)
        var_prefix[var] = full
        where.append(WhereClause(full.without_predicates()))
        for clause in _predicate_clauses(full):
            where.append(clause)

    # let bindings are pure aliases: unlike 'for', they do NOT filter
    # (no existence conjunct) and do not iterate.
    for let_text in clauses.lets:
        var, full = _parse_let_binding(let_text, var_prefix)
        var_prefix[var] = full
        for clause in _predicate_clauses(full):
            where.append(clause)

    for clause_text in clauses.conjuncts:
        where.append(_parse_where_clause(clause_text, var_prefix))

    return_paths, aggregates = _parse_return_section(
        clauses.returned, var_prefix
    )
    return Query(
        collection,
        binding_path,
        tuple(where),
        tuple(return_paths),
        tuple(aggregates),
        text=original.strip(),
    )


_JOIN_CLAUSE_RE = re.compile(
    r"^\$([A-Za-z_]\w*)((?:/{1,2}\S*)?)\s*=\s*\$([A-Za-z_]\w*)((?:/{1,2}\S*)?)$",
    re.S,
)


def _parse_join(bindings, clauses: _Clauses, original: str) -> "JoinQuery":
    """Assemble a two-collection :class:`JoinQuery` (see model docstring)."""
    from repro.query.model import JoinQuery

    sides: List[Dict] = []  # one dict per collection binding
    var_group: Dict[str, int] = {}
    var_prefix: Dict[str, LocationPath] = {}
    for kind, *rest in bindings:
        if kind == "col":
            var, collection, path = rest
            var_group[var] = len(sides)
            var_prefix[var] = LocationPath((), absolute=False)
            sides.append(
                {
                    "collection": collection,
                    "binding": path,
                    "where": [],
                    "vars": {var},
                }
            )
        else:
            var, source_var, rel_path = rest
            if source_var not in var_prefix:
                raise QuerySyntaxError(
                    f"variable ${source_var} used before definition"
                )
            group = var_group[source_var]
            full = var_prefix[source_var].concat(rel_path)
            var_group[var] = group
            var_prefix[var] = full
            sides[group]["vars"].add(var)
            sides[group]["where"].append(WhereClause(full.without_predicates()))
            sides[group]["where"].extend(_predicate_clauses(full))

    for let_text in clauses.lets:
        var, full = _parse_let_binding(let_text, var_prefix)
        source = _LET_RE.match(let_text).group(2)
        group = var_group[source]
        var_group[var] = group
        sides[group]["vars"].add(var)
        sides[group]["where"].extend(_predicate_clauses(full))

    join_condition = None
    for clause_text in clauses.conjuncts:
        join_match = _JOIN_CLAUSE_RE.match(clause_text)
        if join_match:
            var_a, rel_a, var_b, rel_b = join_match.groups()
            if (
                var_a in var_group
                and var_b in var_group
                and var_group[var_a] != var_group[var_b]
            ):
                if join_condition is not None:
                    raise QuerySyntaxError("only one join condition is supported")
                path_a = var_prefix[var_a].concat(_parse_relative(rel_a.strip()))
                path_b = var_prefix[var_b].concat(_parse_relative(rel_b.strip()))
                join_condition = (var_group[var_a], path_a, path_b)
                continue
        var_match = _VARIABLE.match(clause_text)
        if not var_match or var_match.group(1) not in var_group:
            raise QuerySyntaxError(
                f"where clause must start with a known variable: {clause_text!r}"
            )
        group = var_group[var_match.group(1)]
        group_prefixes = {
            v: p for v, p in var_prefix.items() if var_group[v] == group
        }
        sides[group]["where"].append(
            _parse_where_clause(clause_text, group_prefixes)
        )
    if join_condition is None:
        raise QuerySyntaxError(
            "a two-collection query needs a join condition ($a/p = $b/q)"
        )

    side_returns = []
    for group, side in enumerate(sides):
        group_prefixes = {
            v: p for v, p in var_prefix.items() if var_group[v] == group
        }
        returns, aggregates = _parse_return_section(
            clauses.returned, group_prefixes
        )
        if aggregates:
            raise QuerySyntaxError("aggregates are not supported in join queries")
        side_returns.append(returns)

    queries = [
        Query(
            side["collection"],
            side["binding"],
            tuple(side["where"]),
            tuple(side_returns[group]),
            text=f"{side['collection']} side of join",
        )
        for group, side in enumerate(sides)
    ]
    first_group, path_a, path_b = join_condition
    if first_group == 0:
        left_path, right_path = path_a, path_b
    else:
        left_path, right_path = path_b, path_a
    return JoinQuery(
        left=queries[0],
        right=queries[1],
        left_join_path=left_path,
        right_join_path=right_path,
        text=original.strip(),
    )


_LET_RE = re.compile(
    r"^\$([A-Za-z_]\w*)\s*:=\s*\$([A-Za-z_]\w*)\s*(.*)$", re.S
)


def _parse_let_binding(
    text: str, var_prefix: Dict[str, LocationPath]
) -> Tuple[str, LocationPath]:
    match = _LET_RE.match(text)
    if not match:
        raise QuerySyntaxError(f"malformed let binding: {text!r}")
    var, source_var, rel_text = match.group(1), match.group(2), match.group(3).strip()
    if source_var not in var_prefix:
        raise QuerySyntaxError(f"variable ${source_var} used before definition")
    if var in var_prefix:
        raise QuerySyntaxError(f"variable ${var} redefined")
    return var, var_prefix[source_var].concat(_parse_relative(rel_text))


def _parse_for_bindings(parts: List[_ForPart]):
    """Parse the bindings of the ``for`` section into tagged bindings.

    Returns a list of ``("col", var, collection, abs_path)`` for
    collection-ranging bindings and ``("var", var, source_var, rel_path)``
    for navigation bindings.  The first binding must range over a
    collection; a second collection binding makes the query a join.
    """
    if not parts:
        raise QuerySyntaxError("for clause has no bindings")
    bindings = []
    seen_vars = set()
    for position, part in enumerate(parts):
        if len(part.pieces) != 2:
            raise QuerySyntaxError(
                f"malformed for binding: {part.text.strip()!r}"
            )
        var_text, expr_text = part.pieces[0].strip(), part.pieces[1].strip()
        var_match = _VARIABLE.fullmatch(var_text)
        if not var_match:
            raise QuerySyntaxError(f"expected a variable, got {var_text!r}")
        var = var_match.group(1)
        if var in seen_vars:
            raise QuerySyntaxError(f"variable ${var} redefined")
        seen_vars.add(var)
        collection_match = _COLLECTION_BINDING.match(expr_text)
        if collection_match:
            path_text = collection_match.group(3).strip()
            try:
                path = parse_xpath(path_text)
            except XPathSyntaxError as exc:
                raise QuerySyntaxError(str(exc)) from exc
            if not path.absolute:
                raise QuerySyntaxError(
                    f"collection path must be absolute: {path_text!r}"
                )
            bindings.append(("col", var, collection_match.group(2), path))
            continue
        variable_match = _VARIABLE_BINDING.match(expr_text)
        if not variable_match:
            raise QuerySyntaxError(f"malformed binding source: {expr_text!r}")
        if position == 0:
            raise QuerySyntaxError(
                "the first for binding must range over a collection"
            )
        source_var = variable_match.group(1)
        rel_text = variable_match.group(2).strip()
        rel_path = _parse_relative(rel_text)
        bindings.append(("var", var, source_var, rel_path))
    if bindings[0][0] != "col":
        raise QuerySyntaxError("the first for binding must range over a collection")
    return bindings


def _parse_relative(text: str) -> LocationPath:
    if not text:
        return LocationPath((), absolute=False)
    try:
        path = parse_xpath(text)
    except XPathSyntaxError as exc:
        raise QuerySyntaxError(str(exc)) from exc
    return _to_relative(path)


def _predicate_clauses(path: LocationPath) -> List[WhereClause]:
    """Lift step predicates of a folded secondary-binding path into
    explicit where clauses so the optimizer sees them uniformly."""
    clauses: List[WhereClause] = []
    from repro.xpath.ast import ComparisonPredicate, ExistsPredicate

    prefix_steps = []
    for step in path.steps:
        prefix_steps.append(step.without_predicates())
        for predicate in step.predicates:
            prefix = LocationPath(tuple(prefix_steps), absolute=False)
            full = prefix.concat(predicate.path)
            if isinstance(predicate, ComparisonPredicate):
                clauses.append(
                    WhereClause(
                        full.without_predicates(), predicate.op, predicate.literal
                    )
                )
            elif isinstance(predicate, ExistsPredicate):
                clauses.append(WhereClause(full.without_predicates()))
    return clauses


def _parse_where_clause(
    text: str, var_prefix: Dict[str, LocationPath]
) -> WhereClause:
    match = _VARIABLE_BINDING.match(text)
    if not match:
        raise QuerySyntaxError(f"where clause must start with a variable: {text!r}")
    var = match.group(1)
    if var not in var_prefix:
        raise QuerySyntaxError(f"unknown variable ${var} in where clause")
    rest = match.group(2).strip()
    prefix = var_prefix[var]
    if not rest:
        return WhereClause(prefix) if prefix.steps else WhereClause(
            LocationPath((), absolute=False)
        )
    if rest[0] in "=<>!":
        # comparison against the variable's own value
        parser = _XPathParser(rest)
        op_token = parser._advance()
        literal = parser._parse_literal()
        return WhereClause(prefix, op_token.text, literal)
    try:
        path, op, literal = parse_condition(rest)
    except XPathSyntaxError as exc:
        raise QuerySyntaxError(f"bad where clause {text!r}") from exc
    return WhereClause(prefix.concat(_to_relative(path)), op, literal)


_RETURN_AGGREGATE = re.compile(
    r"\b(count|sum|min|max|avg)\s*\(\s*\$([A-Za-z_]\w*)"
    r"((?:/{1,2}[^\s,)]*)?)\s*\)"
)


def _parse_return_section(
    text: str, var_prefix: Dict[str, LocationPath]
) -> Tuple[List[LocationPath], List]:
    """Extract plain return paths and aggregate expressions."""
    from repro.query.model import Aggregate

    paths: List[LocationPath] = []
    aggregates: List[Aggregate] = []
    if not text:
        return paths, aggregates
    remaining = text
    for match in _RETURN_AGGREGATE.finditer(text):
        function, var, rel_text = match.group(1), match.group(2), match.group(3)
        prefix = var_prefix.get(var)
        if prefix is None:
            continue
        full = prefix
        if rel_text:
            try:
                rel = parse_xpath(rel_text)
            except XPathSyntaxError:
                continue
            full = prefix.concat(_to_relative(rel))
        aggregates.append(Aggregate(function, full))
    remaining = _RETURN_AGGREGATE.sub(" ", text)
    for match in _RETURN_VAR_PATH.finditer(remaining):
        var, rel_text = match.group(1), match.group(2)
        prefix = var_prefix.get(var)
        if prefix is None:
            continue
        if rel_text:
            try:
                rel = parse_xpath(rel_text)
            except XPathSyntaxError:
                continue
            paths.append(prefix.concat(_to_relative(rel)))
        elif prefix.steps:
            paths.append(prefix)
    return paths, aggregates
