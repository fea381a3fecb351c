"""Tokenizer for XPath expressions."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List


class TokenKind(enum.Enum):
    SLASH = "/"
    DOUBLE_SLASH = "//"
    STAR = "*"
    AT = "@"
    DOT = "."
    LBRACKET = "["
    RBRACKET = "]"
    NAME = "name"
    STRING = "string"
    NUMBER = "number"
    OP = "op"  # = != <= < >= >
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    END = "end"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int


class XPathLexError(ValueError):
    """Raised on an unrecognized character in an XPath expression."""


#: One alternative per token class; ``BAD`` catches any other character,
#: so ``finditer`` never skips input.  Names start with a letter or ``_``
#: and continue over letters, digits and ``_ . - :``; a number is digits
#: and dots after an optional leading ``-``.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<PUNCT>//|[/*@\[\](),])"
    r"|(?P<NAME>[^\W\d][\w.\-:]*)"
    r"|(?P<NUMBER>-?\d[\d.]*)"
    r"|(?P<STRING>'[^']*'|\"[^\"]*\")"
    r"|(?P<OP>[<>!]=|[=<>])"
    r"|(?P<DOT>\.)"
    r"|(?P<END>\Z)"
    r"|(?P<BAD>.)"
    r")",
    re.S,
)
_PUNCTUATION = {
    kind.value: kind
    for kind in (
        TokenKind.SLASH,
        TokenKind.DOUBLE_SLASH,
        TokenKind.STAR,
        TokenKind.AT,
        TokenKind.LBRACKET,
        TokenKind.RBRACKET,
        TokenKind.LPAREN,
        TokenKind.RPAREN,
        TokenKind.COMMA,
    )
}
#: Groups whose token is the matched text under the kind of that name.
_LEXEME_KINDS = {
    "NAME": TokenKind.NAME,
    "OP": TokenKind.OP,
    "DOT": TokenKind.DOT,
}


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list ending with an END token."""
    tokens: List[Token] = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        start, end = match.span(group)
        lexeme = text[start:end]
        if group == "PUNCT":
            tokens.append(Token(_PUNCTUATION[lexeme], lexeme, start))
        elif group in _LEXEME_KINDS:
            tokens.append(Token(_LEXEME_KINDS[group], lexeme, start))
        elif group == "STRING":
            tokens.append(Token(TokenKind.STRING, lexeme[1:-1], start))
        elif group == "NUMBER":
            # a number token's position is the offset just past it
            tokens.append(Token(TokenKind.NUMBER, lexeme, end))
        elif group == "END":
            break
        elif lexeme in "\"'":
            raise XPathLexError(f"unterminated string literal at {start}")
        elif lexeme == "!":
            raise XPathLexError(f"unexpected '!' at {start}")
        else:
            raise XPathLexError(
                f"unexpected character {lexeme!r} at position {start}"
            )
    tokens.append(Token(TokenKind.END, "", len(text)))
    return tokens
