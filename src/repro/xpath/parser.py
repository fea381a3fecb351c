"""Recursive-descent parser for the XPath subset.

Grammar (leading separator decides absolute vs. relative)::

    path       := sep? step (sep step)*
    sep        := '/' | '//'
    step       := '.' | '@'? nametest predicate*
    nametest   := NAME | '*'
    predicate  := '[' relpath (op literal)? ']'
    relpath    := '.' | step (sep step)*
    literal    := STRING | NUMBER

A path written without a leading separator (``Symbol``) or starting with
``.`` is relative; ``/Security/Symbol`` and ``//Yield`` are absolute.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.xpath.ast import (
    PREDICATE_FUNCTIONS,
    AndPredicate,
    Axis,
    ComparisonPredicate,
    ExistsPredicate,
    FunctionPredicate,
    Literal,
    LocationPath,
    OrPredicate,
    Predicate,
    Step,
)
from repro.xpath.lexer import Token, TokenKind, XPathLexError, tokenize


class XPathSyntaxError(ValueError):
    """Raised when an XPath expression cannot be parsed."""


class _XPathParser:
    def __init__(self, text: str) -> None:
        self.text = text
        try:
            self.tokens = tokenize(text)
        except XPathLexError as exc:
            raise XPathSyntaxError(str(exc)) from exc
        self.index = 0

    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _error(self, message: str) -> XPathSyntaxError:
        token = self._peek()
        return XPathSyntaxError(
            f"{message} at position {token.position} in {self.text!r}"
        )

    def _accept(self, kind: TokenKind) -> bool:
        if self._peek().kind is kind:
            self.index += 1
            return True
        return False

    # ------------------------------------------------------------------
    def parse_path(self, allow_predicates: bool = True) -> LocationPath:
        first = self._peek().kind
        absolute = first in (TokenKind.SLASH, TokenKind.DOUBLE_SLASH)
        steps: List[Step] = []
        if absolute:
            axis = Axis.DESCENDANT if first is TokenKind.DOUBLE_SLASH else Axis.CHILD
            self._advance()
            steps.append(self._parse_step(axis, allow_predicates))
        else:
            if self._accept(TokenKind.DOT):
                # '.' alone, or './relpath'
                if self._peek().kind in (
                    TokenKind.END,
                    TokenKind.RBRACKET,
                    TokenKind.OP,
                    TokenKind.COMMA,
                    TokenKind.RPAREN,
                ):
                    return LocationPath((), absolute=False)
                if not (
                    self._peek().kind is TokenKind.SLASH
                    or self._peek().kind is TokenKind.DOUBLE_SLASH
                ):
                    raise self._error("expected '/' after '.'")
                sep = self._advance()
                axis = (
                    Axis.DESCENDANT
                    if sep.kind is TokenKind.DOUBLE_SLASH
                    else Axis.CHILD
                )
                steps.append(self._parse_step(axis, allow_predicates))
            else:
                steps.append(self._parse_step(Axis.CHILD, allow_predicates))
        while True:
            kind = self._peek().kind
            if kind is TokenKind.SLASH:
                self._advance()
                steps.append(self._parse_step(Axis.CHILD, allow_predicates))
            elif kind is TokenKind.DOUBLE_SLASH:
                self._advance()
                steps.append(self._parse_step(Axis.DESCENDANT, allow_predicates))
            else:
                break
        return LocationPath(tuple(steps), absolute=absolute)

    def _parse_step(self, axis: Axis, allow_predicates: bool) -> Step:
        is_attribute = self._accept(TokenKind.AT)
        token = self._peek()
        if token.kind is TokenKind.STAR:
            self._advance()
            name = "*"
        elif token.kind is TokenKind.NAME:
            self._advance()
            name = token.text
        else:
            raise self._error("expected a name test")
        if is_attribute:
            name = "@" + name
        predicates: List[Predicate] = []
        while self._peek().kind is TokenKind.LBRACKET:
            if not allow_predicates:
                raise self._error("predicates are not allowed in index patterns")
            predicates.extend(self._parse_predicate_group())
        return Step(axis, name, tuple(predicates))

    def _parse_predicate_group(self) -> List[Predicate]:
        """One ``[...]`` group.  A top-level conjunction (``[a=1 and
        b=2]``) splits into multiple step predicates, which is equivalent
        and lets the rewriter treat every conjunct uniformly."""
        self._advance()  # '['
        expression = self._parse_or_expression()
        if not self._accept(TokenKind.RBRACKET):
            raise self._error("expected ']'")
        if isinstance(expression, AndPredicate):
            return list(expression.conjuncts)
        return [expression]

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.NAME and token.text == word

    def _parse_or_expression(self) -> Predicate:
        parts = [self._parse_and_expression()]
        while self._at_keyword("or"):
            self._advance()
            parts.append(self._parse_and_expression())
        if len(parts) == 1:
            return parts[0]
        return OrPredicate(tuple(parts))

    def _parse_and_expression(self) -> Predicate:
        parts = [self._parse_predicate_atom()]
        while self._at_keyword("and"):
            self._advance()
            parts.append(self._parse_predicate_atom())
        if len(parts) == 1:
            return parts[0]
        return AndPredicate(tuple(parts))

    def _parse_predicate_atom(self) -> Predicate:
        if self._accept(TokenKind.LPAREN):
            inner = self._parse_or_expression()
            if not self._accept(TokenKind.RPAREN):
                raise self._error("expected ')'")
            return inner
        token = self._peek()
        if (
            token.kind is TokenKind.NAME
            and token.text == "not"
            and self.tokens[self.index + 1].kind is TokenKind.LPAREN
        ):
            from repro.xpath.ast import NotPredicate

            self._advance()  # 'not'
            self._advance()  # '('
            inner = self._parse_or_expression()
            if not self._accept(TokenKind.RPAREN):
                raise self._error("expected ')'")
            return NotPredicate(inner)
        if (
            token.kind is TokenKind.NAME
            and token.text in PREDICATE_FUNCTIONS
            and self.tokens[self.index + 1].kind is TokenKind.LPAREN
        ):
            return self._parse_function_predicate()
        rel_path = self.parse_path(allow_predicates=True)
        if rel_path.absolute:
            raise self._error("predicate paths must be relative")
        if self._peek().kind is TokenKind.OP:
            op = self._advance().text
            literal = self._parse_literal()
            return ComparisonPredicate(rel_path, op, literal)
        return ExistsPredicate(rel_path)

    def _parse_function_predicate(self) -> FunctionPredicate:
        function = self._advance().text
        self._advance()  # '('
        rel_path = self.parse_path(allow_predicates=True)
        if rel_path.absolute:
            raise self._error("function arguments must be relative paths")
        if not self._accept(TokenKind.COMMA):
            raise self._error("expected ','")
        literal = self._parse_literal()
        if not self._accept(TokenKind.RPAREN):
            raise self._error("expected ')'")
        if literal.is_number:
            raise self._error(f"{function}() needs a string argument")
        return FunctionPredicate(function, rel_path, literal)

    def _parse_literal(self) -> Literal:
        token = self._advance()
        if token.kind is TokenKind.STRING:
            return Literal(token.text)
        if token.kind is TokenKind.NUMBER:
            return Literal(float(token.text))
        raise XPathSyntaxError(
            f"expected a literal at position {token.position} in {self.text!r}"
        )

    def parse_complete(self, allow_predicates: bool = True) -> LocationPath:
        path = self.parse_path(allow_predicates)
        if self._peek().kind is not TokenKind.END:
            raise self._error("unexpected trailing tokens")
        return path


def parse_xpath(text: str) -> LocationPath:
    """Parse an XPath path expression (predicates allowed)."""
    return _XPathParser(text).parse_complete(allow_predicates=True)


def parse_condition(
    text: str,
) -> Tuple[LocationPath, Optional[str], Optional[Literal]]:
    """Parse ``path`` or ``path op literal`` in one pass (where clauses
    and delete conditions of the mini-XQuery front end).  ``op`` and
    ``literal`` are ``None`` for a bare path (an existence test)."""
    parser = _XPathParser(text)
    path = parser.parse_path(allow_predicates=True)
    op = literal = None
    if parser._peek().kind is TokenKind.OP:
        op = parser._advance().text
        literal = parser._parse_literal()
    if parser._peek().kind is not TokenKind.END:
        raise XPathSyntaxError(f"unexpected trailing tokens in {text!r}")
    return path, op, literal


def parse_comparison(text: str) -> Tuple[LocationPath, str, Literal]:
    """Parse ``path op literal``.  Returns the path, operator, and
    literal."""
    path, op, literal = parse_condition(text)
    if op is None:
        raise XPathSyntaxError(f"expected a comparison operator in {text!r}")
    return path, op, literal
