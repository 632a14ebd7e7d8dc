"""Lexer for MiniC, the C-subset source language used by the reproduction.

MiniC plays the role of the paper's gcc/lcc front ends: a realistic,
optimizing compiler that targets OmniVM.  The lexer produces a flat list of
:class:`Token` objects; the parser consumes them with one-token lookahead.

Scanning is one compiled master pattern (:data:`_TOKEN_RE`): each match
skips whitespace and comments, then takes exactly one token, so the whole
source is consumed by C code and Python runs once per token.  Malformed
literals fall through to single-character alternatives that a small error
routine turns into the precise :class:`~repro.errors.LexError`.
"""

from __future__ import annotations

import re

from repro import metrics
from repro.errors import LexError, SourceLocation

KEYWORDS = {
    "int",
    "uint",
    "char",
    "short",
    "float",
    "double",
    "void",
    "if",
    "else",
    "while",
    "for",
    "do",
    "break",
    "continue",
    "return",
    "sizeof",
    "struct",
    "extern",
    "static",
    "const",
}

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<=",
    ">>=",
    "...",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "~",
    "&",
    "|",
    "^",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
]

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}

# `unsigned` is accepted as an alias of `uint`.
_KEYWORD_VALUE = {word: word for word in KEYWORDS}
_KEYWORD_VALUE["unsigned"] = "uint"

# A hex escape takes every hex digit that follows it (the lookahead), so a
# literal has one parse and a malformed one fails in linear time: were the
# digits free to split between the escape and later plain characters, sre
# would try every split of every escape before giving up.
_ESCAPE = r"""\\(?:x[0-9a-fA-F]+(?![0-9a-fA-F])|[ntr0\\'"abfv])"""

# Each match is: skipped whitespace/comments/`#` lines, then one token.
# Alternation order is maximal munch: numbers precede operators (".5").
# `/*` reaches `comment` only when unterminated (the skip takes whole
# block comments), and the one-character alternatives at the end catch
# what no token form accepts, so every position matches and finditer
# never skips.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|\#[^\n]*|/\*.*?\*/)*"
    r"(?:(?P<ident>[^\W\d]\w*)"
    r"|(?P<number>0[xX][0-9a-fA-F]*[uUlL]*"
    r"|\d*\.\d+(?:[eE][+-]?\d+)?[fF]?"
    r"|\d+(?:[eE][+-]?\d+[fF]?|[fF]|[uUlL]*))"
    r"|(?P<comment>/\*)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")"
    rf'|(?P<string>"(?:[^"\\]|{_ESCAPE})*")'
    rf"|(?P<char>'(?:[^\\]|{_ESCAPE})')"
    r"|(?P<bad>.)"
    r"|(?P<eof>\Z))",
    re.DOTALL,
)

_ESCAPE_RE = re.compile(r"\\(?:x([0-9a-fA-F]+)|(.))", re.DOTALL)


class Token:
    """One lexical token.

    ``kind`` is one of: ``"kw"``, ``"ident"``, ``"int"``, ``"uint"``,
    ``"float"``, ``"char"``, ``"string"``, ``"op"``, ``"eof"``.  ``value``
    holds the decoded payload (int/float for literals, str otherwise).
    """

    __slots__ = ("kind", "value", "loc")

    def __init__(self, kind: str, value: object, loc: SourceLocation):
        self.kind = kind
        self.value = value
        self.loc = loc

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.value == text

    def is_kw(self, text: str) -> bool:
        return self.kind == "kw" and self.value == text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind, self.value, self.loc) == (
            other.kind, other.value, other.loc)

    def __repr__(self) -> str:
        return f"Token(kind={self.kind!r}, value={self.value!r}, loc={self.loc!r})"

    def __str__(self) -> str:
        return f"{self.kind}:{self.value!r}"


# Group numbers of the token alternatives, for a cheap dispatch.
_IDENT, _NUMBER, _COMMENT, _OP, _STRING, _CHAR, _BAD, _EOF = (
    _TOKEN_RE.groupindex[name] for name in (
        "ident", "number", "comment", "op", "string", "char", "bad", "eof"))


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Lex *source* into a token list ending with one ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of the current line
    end = 0         # where the previous match ended
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        start = match.start(group)
        if start != end:
            newlines = source.count("\n", end, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", end, start) + 1
        end = match.end()
        text = source[start:end]
        loc = SourceLocation(filename, line, start - line_start + 1)
        if group == _IDENT:
            value = _KEYWORD_VALUE.get(text)
            if value is not None:
                append(Token("kw", value, loc))
            elif text[0] > "\x7f" and not text[0].isalpha():
                raise LexError(f"unexpected character {text[0]!r}", loc)
            else:
                append(Token("ident", text, loc))
        elif group == _OP:
            append(Token("op", text, loc))
        elif group == _NUMBER:
            append(_number(text, loc))
        elif group == _EOF:
            append(Token("eof", None, loc))
            break
        elif group == _STRING or group == _CHAR:
            body = _unescape(text[1:-1])
            if group == _STRING:
                append(Token("string", body, loc))
            else:
                append(Token("char", ord(body), loc))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif group == _COMMENT:
            raise LexError("unterminated block comment", loc)
        else:
            if text == '"' or text == "'":
                _literal_error(source, start, filename)
            raise LexError(f"unexpected character {text!r}", loc)
    if metrics.active():
        metrics.count("frontend.tokens", len(tokens))
    return tokens


def _number(text: str, loc: SourceLocation) -> Token:
    """Decode one numeric literal matched by the ``number`` alternative."""
    if text[:2] in ("0x", "0X"):
        digits = text[2:].rstrip("uUlL")
        if not digits:
            raise LexError(f"hex literal {text!r} has no digits", loc)
        unsigned = "u" in text or "U" in text
        return Token("uint" if unsigned else "int", int(digits, 16), loc)
    if text[-1] in "fF":
        return Token("float", float(text[:-1]), loc)
    if "." in text or "e" in text or "E" in text:
        return Token("float", float(text), loc)
    unsigned = "u" in text or "U" in text
    return Token("uint" if unsigned else "int", int(text.rstrip("uUlL")), loc)


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(_escape_value, body)


def _escape_value(match: re.Match) -> str:
    digits, char = match.groups()
    if digits is not None:
        return chr(int(digits, 16) & 0xFF)
    return _ESCAPES[char]


def _literal_error(source: str, start: int, filename: str) -> None:
    """Raise the error for the malformed string or character literal
    whose opening quote is at *start*."""

    def loc(pos: int) -> SourceLocation:
        line_start = source.rfind("\n", 0, pos) + 1
        return SourceLocation(filename, source.count("\n", 0, pos) + 1,
                              pos - line_start + 1)

    quote = source[start]
    pos = start + 1
    while True:
        if pos >= len(source):
            if quote == '"':
                raise LexError("unterminated string literal", loc(start))
            raise LexError("unterminated ' literal", loc(pos))
        ch = source[pos]
        if ch == '"' and quote == '"':
            return  # unreachable: a well-formed string matches its pattern
        if ch != "\\":
            pos += 1
        else:
            esc = source[pos + 1 : pos + 2]
            if esc == "x":
                digits = pos + 2
                while source[digits : digits + 1] in _HEX_DIGITS:
                    digits += 1
                if digits == pos + 2:
                    raise LexError("bad hex escape", loc(digits))
                pos = digits
            elif esc in _ESCAPES:
                pos += 2
            else:
                raise LexError(f"unknown escape sequence \\{esc}", loc(pos + 1))
        if quote == "'":
            if source[pos : pos + 1] != "'":
                raise LexError("unterminated character literal", loc(start))
            return  # unreachable: a well-formed char matches its pattern


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
