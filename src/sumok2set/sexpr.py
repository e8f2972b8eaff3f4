"""Tokenizer and s-expression reader for SUO-KIF source text.

The reader keeps enough position information (file, line, column) for
downstream passes to report errors against the original source.  It reads
its input in one regex scan and works line and column out from token
offsets.  Atoms are classified lexically: plain constants, ``?X``
variables, ``@ROW`` row variables, signed decimal numerals, and
double-quoted strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ATOM_CONSTANT = "constant"
ATOM_VARIABLE = "variable"
ATOM_ROWVAR = "rowvariable"
ATOM_NUMERAL = "numeral"
ATOM_STRING = "string"

_NUMERAL_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?\Z")

# How deeply parse_forms lets lists nest; a top-level form is at depth 1.
# Every later pass recurses over the forms, so deeper input is refused here,
# at its first open paren past the bound, rather than by the interpreter's
# recursion limit somewhere downstream.
MAX_DEPTH = 64


@dataclass(frozen=True, slots=True)
class Span:
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class KifSyntaxError(Exception):
    """Base class for reader and lowering errors, carrying a source span."""

    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class UnbalancedParens(KifSyntaxError):
    pass


class BadToken(KifSyntaxError):
    pass


class NotUtf8(KifSyntaxError):
    """An input file whose bytes are not UTF-8 text."""


def read_text(path: str) -> str:
    """The text of a UTF-8 file, read as open() in text mode reads it.

    Bytes that are not UTF-8 raise NotUtf8 located at the first bad one.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        # one read of the whole file: err.object is every byte of it
        data, start = err.object, err.start
        line_start = data.rfind(b"\n", 0, start) + 1
        col = len(data[line_start:start].decode("utf-8")) + 1
        span = Span(path, data.count(b"\n", 0, start) + 1, col)
        raise NotUtf8(f"not UTF-8 text: {err.reason}", span) from None


@dataclass(frozen=True, slots=True)
class Atom:
    lexeme: str
    kind: str
    span: Span


@dataclass(frozen=True, slots=True)
class SList:
    items: tuple
    span: Span


def _classify(lexeme: str, span: Span) -> Atom:
    if lexeme.startswith("?"):
        name = lexeme[1:]
        if not name:
            raise BadToken("empty variable name", span)
        return Atom(name, ATOM_VARIABLE, span)
    if lexeme.startswith("@"):
        name = lexeme[1:]
        if not name:
            raise BadToken("empty row variable name", span)
        return Atom(name, ATOM_ROWVAR, span)
    first = lexeme[0]
    if first.isdigit() or (first in "+-" and len(lexeme) > 1 and lexeme[1].isdigit()):
        if not _NUMERAL_RE.match(lexeme):
            raise BadToken(f"malformed numeral {lexeme!r}", span)
        return Atom(lexeme, ATOM_NUMERAL, span)
    return Atom(lexeme, ATOM_CONSTANT, span)


# Every character of the input starts one of these alternatives, so one
# scan leaves no gaps.  The unnamed ones are whitespace and comments; a quote
# that opens no complete string falls through to `unterminated`.
_TOKEN_RE = re.compile(
    r"""\s+|;[^\n]*
      | (?P<paren>[()])
      | (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
      | (?P<unterminated>")
      | (?P<atom>[^\s()";]+)
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def tokenize(source: str, file: str = "<kif>"):
    """Yield ``("(", span)``, ``(")", span)``, and classified Atom tokens.

    Whitespace and ``;`` comments are skipped; a backslash in a string
    stands for the character after it.  Line and column come from offsets:
    the newlines between one token and the next are counted in one call.
    """
    line, line_start, last = 1, 0, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        pos = m.start()
        newlines = source.count("\n", last, pos)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", last, pos) + 1
        last = pos
        span = Span(file, line, pos - line_start + 1)
        if kind == "paren":
            yield m.group(), span
        elif kind == "atom":
            yield _classify(m.group(), span), span
        elif kind == "string":
            text = m.group()[1:-1]
            if "\\" in text:
                text = _ESCAPE_RE.sub(r"\1", text)
            yield Atom(text, ATOM_STRING, span), span
        else:
            raise BadToken("unterminated string", span)


def parse_forms(source: str, file: str = "<kif>") -> list:
    """Read all top-level forms from ``source``.

    Empty input yields an empty list.  Unbalanced parentheses raise
    UnbalancedParens with the offending span, and a list nested deeper than
    MAX_DEPTH raises KifSyntaxError at its open paren.
    """
    top: list = []
    items = top  # the list being filled
    stack: list = []  # (enclosing list, span of the open paren)
    for tok, span in tokenize(source, file):
        if isinstance(tok, Atom):
            items.append(tok)
        elif tok == "(":
            if len(stack) == MAX_DEPTH:
                raise KifSyntaxError(f"lists nested deeper than {MAX_DEPTH}", span)
            stack.append((items, span))
            items = []
        elif not stack:
            raise UnbalancedParens("unmatched ')'", span)
        else:
            outer, open_span = stack.pop()
            outer.append(SList(tuple(items), open_span))
            items = outer
    if stack:
        raise UnbalancedParens("unclosed '('", stack[-1][1])
    return top
