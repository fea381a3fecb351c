"""The statement front end: one-pass clause scanner, master-regex lexer,
per-workload parse sharing and O(1) statement identity.

The character-walking splitters this PR removed from ``src/`` live on
here as the reference the new scanner is checked against.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import os
import pickle
import re
import subprocess
import sys
from typing import List, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro import IndexAdvisor, Workload
from repro.optimizer.executor import Executor
from repro.optimizer.rewriter import extract_all_requests
from repro.optimizer.session import WhatIfSession
from repro.query.model import JoinQuery, Query
from repro.query.parser import (
    QuerySyntaxError,
    _scan_clauses,
    parse_statement,
)
from repro.serve import AdvisorServer
from repro.workloads import tpox, xmark
from repro.workloads.drift import unparse_query
from repro.workloads.stream import drifting_stream, synthetic_stream
from repro.xpath.lexer import TokenKind, XPathLexError, tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


# ---------------------------------------------------------------------------
# Reference oracle: the parent commit's splitters, verbatim
# ---------------------------------------------------------------------------
def _split_top_level(text: str, keyword: str) -> List[str]:
    """Split ``text`` on a keyword appearing at bracket/quote depth zero."""
    pattern = re.compile(rf"\b{keyword}\b", re.I)
    pieces: List[str] = []
    depth = 0
    quote: Optional[str] = None
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if quote:
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in "'\"":
            quote = ch
        elif ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
        elif depth == 0:
            match = pattern.match(text, i)
            if match and (i == 0 or not text[i - 1].isalnum()):
                pieces.append(text[start:i])
                start = match.end()
                i = match.end()
                continue
        i += 1
    pieces.append(text[start:])
    return pieces


def _split_top_level_char(text: str, separator: str) -> List[str]:
    """Split on a single character at bracket/quote depth zero."""
    pieces: List[str] = []
    depth = 0
    quote: Optional[str] = None
    start = 0
    for position, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
        elif ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
        elif ch == separator and depth == 0:
            pieces.append(text[start:position])
            start = position + 1
    pieces.append(text[start:])
    return pieces


def reference_clauses(text: str):
    """The clause texts the parent's ``_parse_flwor`` worked with, under
    the one rule this PR adds to the splitting itself: the text after
    the first top-level ``return`` is the return clause, whole."""
    before = _split_top_level(text, "return")[0]
    returned = text[len(before) + len("return"):].strip()
    where_split = _split_top_level(before, "where")
    if len(where_split) > 2:
        raise QuerySyntaxError("multiple where clauses")
    head = where_split[0]
    where_text = where_split[1] if len(where_split) == 2 else ""
    let_split = _split_top_level(head, "let")
    lets = [piece.strip() for piece in let_split[1:] if piece.strip()]
    body = re.sub(r"^\s*for\b", "", let_split[0], flags=re.I)
    for_parts = []
    for for_piece in _split_top_level(body, "for"):
        for part in _split_top_level_char(for_piece, ","):
            if part.strip():
                for_parts.append((part, _split_top_level(part, "in")))
    conjuncts = [
        piece.strip()
        for piece in _split_top_level(where_text, "and")
        if piece.strip()
    ]
    return for_parts, lets, conjuncts, returned


def scanned_clauses(text: str):
    for_parts, lets, conjuncts, returned = _scan_clauses(text)
    return [tuple(part) for part in for_parts], lets, conjuncts, returned


_FRAGMENTS = [
    "for", "FOR", "For", "let", "LET", "where", "Where", "WHERE", "return",
    "RETURN", "in", "IN", "In", "and", "AND", "And",
    " ", " ", " ", "\n", ",", "$a", "$b", "$sec", ":=", "X('C')", "/a", "//b",
    "/@id", "[", "]", "(", ")", "{", "}", "'", '"', "=", ">", "1", "4.5",
    "'where and'", '"return in"', "<p>", "</p>", "information", "forum",
    "android", "_in", "in_", "-", ".", "x", "é",
]
_KEYWORD_VARIABLE = re.compile(r"\$(?:for|let|where|return|in|and)(?!\w)", re.I)


@st.composite
def flwor_texts(draw):
    body = "".join(draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=40)))
    return ("for " + body).strip()


def assert_scanner_matches_reference(text: str) -> None:
    try:
        expected = reference_clauses(text)
    except QuerySyntaxError as exc:
        with pytest.raises(QuerySyntaxError) as caught:
            _scan_clauses(text)
        assert str(caught.value) == str(exc)
        return
    assert scanned_clauses(text) == expected


class TestClauseScannerDifferential:
    @given(flwor_texts())
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_splitter(self, text):
        # `$where` is a variable now; the reference splits inside it.
        assume(not _KEYWORD_VARIABLE.search(text))
        assert_scanner_matches_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "for $s in X('C')/a[b='x and y'][c=\"where\"] where $s/d = 1 "
            "and $s/e return <r>{$s/f}</r>",
            "FOR $s IN X('C')/a, $t IN $s/b LET $q := $t/c Where $q > 1 "
            "AND $s/d RETURN $s",
            "for $s in X('C')/a where $s/b = 'unterminated and $s/c return $s",
            "for $s in X('C')/a where ($s/b and $s/c) and $s/d",
            "for $s in X('C')/a] where $s/b return $s",  # depth goes negative
            "for $s in X('C')/a let $q := $s/b let $r := $q/c return $r",
            "for $s in X('C')/a for $t in $s/b where $t return $t",
            "for $s in X('C')/information/forum where $s/android return $s",
            "for",
            "for $s in X('C')/a where",
            "for $s in X('C')/a where $s/b where $s/c",
        ],
    )
    def test_hand_written_cases(self, text):
        assert_scanner_matches_reference(text)

    def test_nothing_after_return_is_scanned(self):
        clauses = _scan_clauses(
            "for $s in X('C')/a where $s/b return $s where $s/c and [ 'x"
        )
        assert clauses.conjuncts == ["$s/b"]
        assert clauses.returned == "$s where $s/c and [ 'x"


# ---------------------------------------------------------------------------
# Satellite bug fixes
# ---------------------------------------------------------------------------
class TestKeywordsInReturnConstructor:
    @pytest.mark.parametrize("word", ["where", "and", "for", "in", "let"])
    def test_keyword_as_constructor_text(self, word):
        query = parse_statement(
            f"for $s in SECURITY('SDOC')/Security where $s/Yield > 4 "
            f"return <p>{word}</p>"
        )
        plain = parse_statement(
            "for $s in SECURITY('SDOC')/Security where $s/Yield > 4 "
            "return <p>x</p>"
        )
        assert dataclasses.replace(query, text="") == dataclasses.replace(
            plain, text=""
        )

    def test_issue_example(self):
        query = parse_statement(
            "for $s in SECURITY('SDOC')/Security return <p>where</p>"
        )
        assert query.where == () and query.return_paths == ()

    def test_return_paths_still_found_beside_keywords(self):
        query = parse_statement(
            "for $s in X('C')/a return <p>where {$s/Name} and {$s/Symbol}</p>"
        )
        assert [str(p) for p in query.return_paths] == ["Name", "Symbol"]


class TestKeywordNamedVariables:
    @pytest.mark.parametrize("name", ["for", "in", "where", "return", "let", "and"])
    def test_variable_named_like_a_keyword(self, name):
        query = parse_statement(
            f"for ${name} in X('C')/a where ${name}/b = 1 return ${name}/Name"
        )
        plain = parse_statement(
            "for $v in X('C')/a where $v/b = 1 return $v/Name"
        )
        assert dataclasses.replace(query, text="") == dataclasses.replace(
            plain, text=""
        )

    def test_secondary_and_let_bindings(self):
        query = parse_statement(
            "for $for in X('C')/a, $in in $for/b let $where := $in/c "
            "where $where/d > 2 return $return"
        )
        assert [str(w.path) for w in query.where] == ["b", "b/c/d"]


# ---------------------------------------------------------------------------
# Equivalence on the generator texts, and pinned error messages
# ---------------------------------------------------------------------------
def generator_texts(seed: int) -> List[str]:
    texts = list(tpox.tpox_queries(120, seed=seed))
    texts += tpox.tpox_join_queries(120, seed=seed)
    texts += tpox.tpox_updates(4, 120, seed=seed)
    texts += xmark.xmark_queries(seed=seed)
    texts += [
        entry.statement.describe()
        for entry in synthetic_stream(300, seed=seed, update_fraction=0.1)
    ]
    texts += drifting_stream(300, seed=seed, update_fraction=0.05)[0]
    return texts


def _without_text(statement):
    if isinstance(statement, JoinQuery):
        return dataclasses.replace(
            statement,
            left=_without_text(statement.left),
            right=_without_text(statement.right),
            text="",
        )
    return dataclasses.replace(statement, text="")


class TestRoundTrips:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_describe_and_unparse_round_trip(self, seed):
        texts = generator_texts(seed)
        assert len(set(texts)) > 100
        unparsed = 0
        for text in texts:
            statement = parse_statement(text)
            again = parse_statement(statement.describe())
            assert _without_text(again) == _without_text(statement)
            assert hash(_without_text(again)) == hash(_without_text(statement))
            if isinstance(statement, Query) and not (
                statement.aggregates and statement.return_paths
            ):
                rebuilt = parse_statement(unparse_query(statement))
                assert _without_text(rebuilt) == _without_text(statement)
                unparsed += 1
        assert unparsed > 100


#: (text, message) at the parent commit, for every malformed statement
#: the existing parser tests raise on plus the scanner's own errors.
PINNED_MESSAGES = [
    ('', 'empty statement'),
    ('for $x in /a return $x', "malformed binding source: '/a'"),
    ('for $x return $x', "malformed for binding: '$x'"),
    ("for x in C('C')/a return x", "expected a variable, got 'x'"),
    ("for $x in C('C')/a where $y/b = 1", 'unknown variable $y in where clause'),
    ("for $x in C('C')/a for $y in $z/b return $y",
     'variable $z used before definition'),
    ('for $x in $y/a return $x',
     'the first for binding must range over a collection'),
    ("for $x in C('C')/a for $y in D('D')/b return $y",
     'a two-collection query needs a join condition ($a/p = $b/q)'),
    ("COLLECTION('C')", 'missing path after collection in "COLLECTION(\'C\')"'),
    ('delete from SDOC', "malformed delete statement: 'delete from SDOC'"),
    ('delete from SDOC where ???', "bad delete condition '???'"),
    ("for $o in X('C')/a let $q := $zzz/b return $o",
     'variable $zzz used before definition'),
    ("for $o in X('C')/a let $o := $o/b return $o", 'variable $o redefined'),
    ("for $o in X('C')/a let $q = $o/b return $o",
     "malformed let binding: '$q = $o/b'"),
    ("for $a in X('A')/r, $b in Y('B')/r where $a/v > 1 return $a",
     'a two-collection query needs a join condition ($a/p = $b/q)'),
    ("for $a in X('A')/r, $b in Y('B')/r where $a/v = $b/v and $a/w = $b/w "
     "return $a", 'only one join condition is supported'),
    ("for $a in X('A')/r, $b in Y('B')/r, $c in Z('C')/r where $a/v = $b/v "
     "return $a", 'at most two collection bindings are supported'),
    ("for $a in X('A')/r, $b in Y('B')/r where $a/v = $b/v return count($a/x)",
     'aggregates are not supported in join queries'),
    ("for $x in C('C')/a where $x/b = 1 where $x/c = 2 return $x",
     'multiple where clauses'),
    ("for $x in C('C')/a where $x/b = return $x", "bad where clause '$x/b ='"),
    ("for $x in C('C')/a where x/b = 1 return $x",
     "where clause must start with a variable: 'x/b = 1'"),
    ("for $x in C('C')/a, $x in $x/b return $x", 'variable $x redefined'),
    ("for $x in C('C')a return $x", "collection path must be absolute: 'a'"),
    ("for $x in C('C')/a in $x return $x",
     'malformed for binding: "$x in C(\'C\')/a in $x"'),
    ('for return $x', 'for clause has no bindings'),
    ('insert SDOC', "malformed insert statement: 'insert SDOC'"),
]


class TestPinnedMessages:
    @pytest.mark.parametrize("text,message", PINNED_MESSAGES)
    def test_message_unchanged(self, text, message):
        with pytest.raises(QuerySyntaxError) as caught:
            parse_statement(text)
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# Lexer: the per-character loop it replaced, as reference
# ---------------------------------------------------------------------------
def reference_tokenize(text: str):
    """The parent's ``tokenize`` as ``(kind, text, position)`` triples."""
    tokens = []
    pos = 0
    length = len(text)
    single = {
        "*": TokenKind.STAR, "@": TokenKind.AT, "[": TokenKind.LBRACKET,
        "]": TokenKind.RBRACKET, "(": TokenKind.LPAREN,
        ")": TokenKind.RPAREN, ",": TokenKind.COMMA,
    }
    while pos < length:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
        elif ch == "/":
            if text.startswith("//", pos):
                tokens.append((TokenKind.DOUBLE_SLASH, "//", pos))
                pos += 2
            else:
                tokens.append((TokenKind.SLASH, "/", pos))
                pos += 1
        elif ch in single:
            tokens.append((single[ch], ch, pos))
            pos += 1
        elif ch in "\"'":
            end = text.find(ch, pos + 1)
            if end == -1:
                raise XPathLexError(f"unterminated string literal at {pos}")
            tokens.append((TokenKind.STRING, text[pos + 1:end], pos))
            pos = end + 1
        elif ch in "=<>!":
            if text.startswith(("<=", ">=", "!="), pos):
                tokens.append((TokenKind.OP, text[pos:pos + 2], pos))
                pos += 2
            elif ch == "!":
                raise XPathLexError(f"unexpected '!' at {pos}")
            else:
                tokens.append((TokenKind.OP, ch, pos))
                pos += 1
        elif ch.isdigit() or (
            ch == "-" and pos + 1 < length and text[pos + 1].isdigit()
        ):
            start = pos
            pos += 1
            while pos < length and (text[pos].isdigit() or text[pos] == "."):
                pos += 1
            tokens.append((TokenKind.NUMBER, text[start:pos], pos))
        elif ch == ".":
            tokens.append((TokenKind.DOT, ".", pos))
            pos += 1
        elif ch.isalpha() or ch == "_":
            start = pos
            pos += 1
            while pos < length and (text[pos].isalnum() or text[pos] in "_.-:"):
                pos += 1
            tokens.append((TokenKind.NAME, text[start:pos], start))
        else:
            raise XPathLexError(
                f"unexpected character {ch!r} at position {pos}"
            )
    tokens.append((TokenKind.END, "", length))
    return tokens


_LEX_ALPHABET = list("ab_Z09.-:/*@[](),'\"=<>! \t\n$#é") + [
    "//", "<=", ">=", "!=", "and", "-1", "4.5", "starts-with", "ns:tag",
]


class TestLexerDifferential:
    @given(st.lists(st.sampled_from(_LEX_ALPHABET), max_size=14))
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_lexer(self, fragments):
        text = "".join(fragments)
        try:
            expected = reference_tokenize(text)
        except XPathLexError as exc:
            with pytest.raises(XPathLexError) as caught:
                tokenize(text)
            assert str(caught.value) == str(exc)
            return
        assert [
            (t.kind, t.text, t.position) for t in tokenize(text)
        ] == expected


# ---------------------------------------------------------------------------
# Identity: one deep hash per statement, never in a pickle
# ---------------------------------------------------------------------------
IDENTITY_TEXTS = [
    "for $s in SECURITY('SDOC')/Security[Yield>4.5] "
    "where $s/SecInfo/*/Sector = \"Energy\" return $s/Name",
    "for $o in ORDER('ODOC')/FIXML/Order, $s in SECURITY('SDOC')/Security "
    "where $o/Instrmt/@Sym = $s/Symbol and $s/Yield > 4.5 return $o",
    "insert into SDOC value '<Security><Symbol>ZZ9</Symbol></Security>'",
    'delete from SDOC where /Security/Symbol = "GONE"',
    "COLLECTION('SDOC')/Security/Symbol",
]


class TestStatementIdentity:
    @pytest.mark.parametrize("text", IDENTITY_TEXTS)
    def test_equal_statements_hash_equal(self, text):
        first, second = parse_statement(text), parse_statement(text)
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert hash(first) == hash(first)  # cached answer is the same
        copy = pickle.loads(pickle.dumps(first))
        assert copy == first and hash(copy) == hash(first)
        assert {first: 1}[copy] == 1

    def test_swapped_join_round_trip(self):
        join = parse_statement(IDENTITY_TEXTS[1])
        assert isinstance(join, JoinQuery)
        hash(join)
        swapped = join.swapped()
        assert swapped != join
        back = swapped.swapped()
        assert back == join and hash(back) == hash(join)
        assert hash(swapped) == hash(parse_statement(IDENTITY_TEXTS[1]).swapped())

    @pytest.mark.parametrize("text", IDENTITY_TEXTS)
    def test_memos_never_enter_a_pickle(self, text):
        statement = parse_statement(text)
        before = pickle.dumps(statement)
        hash(statement)
        extract_all_requests(statement)
        assert "_hash" in vars(statement)
        assert pickle.dumps(statement) == before
        copy = pickle.loads(before)
        assert set(vars(copy)) == {
            f.name for f in dataclasses.fields(statement)
        }
        assert "_hash" not in repr(statement)

    def test_unequal_after_field_change(self):
        query = parse_statement(IDENTITY_TEXTS[0])
        hash(query)
        other = dataclasses.replace(query, text="something else")
        assert other != query
        assert "_hash" not in vars(other)

    def test_pickle_crosses_hash_seeds(self, tmp_path):
        """A statement hashed here, then pickled, is equal to and
        dict-interchangeable with a fresh parse in an interpreter whose
        ``str`` hashes differ."""
        statements = [parse_statement(text) for text in IDENTITY_TEXTS]
        hashes = [hash(statement) for statement in statements]
        blob = tmp_path / "statements.pkl"
        blob.write_bytes(pickle.dumps((IDENTITY_TEXTS, statements, hashes)))
        script = (
            "import pickle, sys\n"
            "from repro.query.parser import parse_statement\n"
            "texts, shipped, hashes = pickle.load(open(sys.argv[1], 'rb'))\n"
            "fresh = [parse_statement(t) for t in texts]\n"
            "assert shipped == fresh\n"
            "assert [hash(s) for s in shipped] == [hash(f) for f in fresh]\n"
            "assert [hash(s) for s in shipped] != hashes, 'same hash seed?'\n"
            "table = {s: i for i, s in enumerate(shipped)}\n"
            "assert [table[f] for f in fresh] == list(range(len(fresh)))\n"
            "print('ok')\n"
        )
        here = os.environ.get("PYTHONHASHSEED", "")
        env = dict(os.environ, PYTHONPATH=SRC)
        env["PYTHONHASHSEED"] = "4242" if here != "4242" else "2424"
        done = subprocess.run(
            [sys.executable, "-c", script, str(blob)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# Per-workload parse sharing
# ---------------------------------------------------------------------------
def _comparable(recommendation) -> dict:
    """``to_dict()`` minus wall-clock fields and the blocks a worker
    pool adds (scheduling, shipped bytes); DDL names come from the
    shared database's catalog counter, so they are renumbered."""
    data = recommendation.to_dict()
    data.pop("elapsed_seconds")
    data["session"] = {
        key: value
        for key, value in data["session"].items()
        if key not in ("phase_seconds", "workers", "snapshots")
    }
    data["ddl"] = [re.sub(r"xmlidx_\d+", "xmlidx_N", line) for line in data["ddl"]]
    return data


class TestParseSharing:
    def test_repeated_texts_share_one_statement(self):
        texts = [IDENTITY_TEXTS[0], IDENTITY_TEXTS[3], IDENTITY_TEXTS[0]]
        workload = Workload.from_statements(texts, [1.0, 2.0, 3.0])
        first, delete, third = (entry.statement for entry in workload)
        assert first is third and first is not delete
        assert [entry.frequency for entry in workload] == [1.0, 2.0, 3.0]
        # no cache outlives the call
        again = Workload.from_statements(texts)
        assert again.entries[0].statement is not first

    def test_from_text_shares_and_still_reports_every_bad_statement(self):
        good = IDENTITY_TEXTS[0]
        workload = Workload.from_text(
            f"{good}\n; @ 2\nfor $x return $x\n;\n{good}\n;\nfor $x return $x\n;"
        )
        assert len(workload) == 2
        assert workload.entries[0].statement is workload.entries[1].statement
        assert len(workload.diagnostics) == 2

    def test_statement_objects_pass_through(self):
        statement = parse_statement(IDENTITY_TEXTS[0])
        workload = Workload.from_statements([statement, IDENTITY_TEXTS[0]])
        assert workload.entries[0].statement is statement
        assert workload.entries[1].statement is not statement

    @pytest.mark.parametrize("compress", ["off", "exact", "template", "cluster"])
    def test_same_recommendation_as_distinct_objects(self, tpox_db, compress):
        stream = synthetic_stream(160, seed=5, num_securities=120)
        texts = [
            entry.statement.describe()
            for entry in stream
            if set(_collections(entry.statement)) <= set(tpox_db.collections)
        ]
        assert len(set(texts)) < len(texts)
        shared = Workload.from_statements(texts)
        distinct = Workload(
            [
                dataclasses.replace(entry, statement=parse_statement(text))
                for entry, text in zip(shared, texts)
            ]
        )
        assert len({id(e.statement) for e in distinct}) == len(texts)
        assert len({id(e.statement) for e in shared}) == len(set(texts))
        results = []
        for workload in (shared, distinct):
            advisor = IndexAdvisor(tpox_db, workload, compress=compress)
            try:
                results.append(_comparable(advisor.recommend(60_000)))
            finally:
                advisor.session.close()
        assert results[0] == results[1]


def _collections(statement):
    if isinstance(statement, JoinQuery):
        return (statement.left.collection, statement.right.collection)
    return (statement.collection,)


# ---------------------------------------------------------------------------
# No module-level container grows with the number of distinct texts
# ---------------------------------------------------------------------------
def _module_container_sizes():
    sizes = {}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[f"{name}.{attribute}"] = len(value)
    return sizes


def test_distinct_texts_leave_no_module_level_growth(security_db):
    def texts(offset):
        return [
            f"for $s in X('SDOC')/Security where $s/Yield > {offset + i}.25 "
            f'and $s/Symbol = "SYM{offset + i}" return $s/Name'
            for i in range(60)
        ]

    async def serve(batch):
        async with AdvisorServer(security_db) as server:
            for text in batch:
                assert (await server.query(text)).ok

    def drive(offset):
        batch = texts(offset)
        for text in batch:
            Executor(security_db).execute(parse_statement(text))
        with WhatIfSession(security_db) as session:
            for text in batch:
                session.plan(parse_statement(text))
                session.enumerate(parse_statement(text))
        asyncio.run(serve(batch))
        gc.collect()

    drive(0)  # warm-up: imports, interned paths, compiled patterns
    before = _module_container_sizes()
    drive(1000)
    after = _module_container_sizes()
    grown = {
        name: (before.get(name, 0), size)
        for name, size in after.items()
        if size > before.get(name, 0)
    }
    assert not grown
    assert not hasattr(repro.optimizer.rewriter, "_EXTRACTION_MEMO")
