"""S-expression reader for SUO-KIF source text.

The reader takes its tokens from one regex findall of plain strings and
keeps a running offset.  Each node holds its offset into one Source shared
by the file's nodes; its ``span`` (file, line, column), which downstream
passes read to report errors against the original source, is worked out
only when read, by line_col, which also locates errors in THF text.  Atoms are classified lexically, once per distinct token:
plain constants, ``?X`` variables, ``@ROW`` row variables, signed decimal
numerals, and double-quoted strings.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

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


@dataclass(slots=True, unsafe_hash=True)
class Span:
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class InputError(Exception):
    """An error in an input file; str gives FILE:LINE:COL: message when located."""

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        return self.message if self.span is None else f"{self.span}: {self.message}"


class KifSyntaxError(InputError):
    """Base class for reader and lowering errors, carrying a source span."""


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
        valid = err.object[: err.start].decode("utf-8")
        span = Span(path, *line_col(line_starts(valid), len(valid)))
        raise NotUtf8(f"not UTF-8 text: {err.reason}", span) from None


def line_starts(text: str) -> list:
    """The offset of each line of a text; only a newline ends a line."""
    return list(accumulate((len(line) + 1 for line in text.split("\n")), initial=0))


def line_col(starts: list, pos: int) -> tuple:
    """1-based line and column of an offset into a text, given its line_starts.

    The one place an offset becomes a line and column, for KIF and THF text.
    """
    line = bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


class Source:
    """One input text and its file name, shared by the nodes read from it.

    Its line_starts are worked out the first time a span is asked for.
    """

    __slots__ = ("file", "text", "_starts")

    def __init__(self, text: str, file: str):
        self.file = file
        self.text = text
        self._starts = None

    def span(self, pos: int) -> Span:
        if self._starts is None:
            self._starts = line_starts(self.text)
        return Span(self.file, *line_col(self._starts, pos))


class _Node:
    """A read node: its span is given, or worked out from an offset."""

    __slots__ = ("_at", "_pos")
    _FIELDS: tuple = ()

    @property
    def span(self) -> Span | None:
        pos = self._pos
        return self._at if pos is None else self._at.span(pos)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self._values()))
        return f"{type(self).__name__}({fields})"


class Atom(_Node):
    """A token: ``span`` is a Span, or the Source that ``pos`` is an offset into."""

    __slots__ = ("lexeme", "kind")
    _FIELDS = ("lexeme", "kind", "span")

    def __init__(self, lexeme: str, kind: str, span=None, pos: int | None = None):
        self.lexeme = lexeme
        self.kind = kind
        self._at = span
        self._pos = pos


class SList(_Node):
    """A parenthesised list, located at its open paren like an Atom."""

    __slots__ = ("items",)
    _FIELDS = ("items", "span")

    def __init__(self, items: tuple, span=None, pos: int | None = None):
        self.items = items
        self._at = span
        self._pos = pos


# Every character of the input starts one of these alternatives, so the
# tokens of one findall, read in order, cover the text and a running sum of
# their lengths is each one's offset: whitespace, a comment, a paren, a
# string, a quote that opens no complete string, or an atom.
_TOKEN_RE = re.compile(r'''\s+|;[^\n]*|[()]|"[^"\\]*(?:\\.[^"\\]*)*"|"|[^\s()";]+''', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_SKIP, _OPEN, _CLOSE = object(), object(), object()


def _classify(tok: str):
    """What a token reads as: _SKIP, _OPEN, _CLOSE, an atom's (lexeme,
    kind), or, for a bad token, the error to raise given its span."""
    first = tok[0]
    if first == "(":
        return _OPEN
    if first == ")":
        return _CLOSE
    if first == ";" or first.isspace():
        return _SKIP
    if first == '"':
        if len(tok) == 1:
            return partial(BadToken, "unterminated string")
        text = tok[1:-1]
        return (_ESCAPE_RE.sub(r"\1", text) if "\\" in text else text), ATOM_STRING
    if first == "?":
        if len(tok) == 1:
            return partial(BadToken, "empty variable name")
        return tok[1:], ATOM_VARIABLE
    if first == "@":
        if len(tok) == 1:
            return partial(BadToken, "empty row variable name")
        return tok[1:], ATOM_ROWVAR
    if first.isdigit() or (first in "+-" and len(tok) > 1 and tok[1].isdigit()):
        if not _NUMERAL_RE.match(tok):
            return partial(BadToken, f"malformed numeral {tok!r}")
        return tok, ATOM_NUMERAL
    return tok, ATOM_CONSTANT


def parse_forms(source: str, file: str = "<kif>") -> list:
    """Read all top-level forms from ``source``.

    Whitespace and ``;`` comments are skipped; a backslash in a string
    stands for the character after it.  Empty input yields an empty list.
    Errors are raised in source order: a bad token as BadToken, unbalanced
    parentheses as UnbalancedParens, and a list nested deeper than
    MAX_DEPTH as KifSyntaxError at its open paren.
    """
    src = Source(source, file)
    toks = _TOKEN_RE.findall(source)
    reads = {tok: _classify(tok) for tok in set(toks)}
    top: list = []
    items = top  # the list being filled
    stack: list = []  # (enclosing list, offset of the open paren)
    pos = 0
    for tok in toks:
        read = reads[tok]
        if read.__class__ is tuple:
            items.append(Atom(read[0], read[1], src, pos))
        elif read is _SKIP:
            pass
        elif read is _OPEN:
            if len(stack) == MAX_DEPTH:
                raise KifSyntaxError(f"lists nested deeper than {MAX_DEPTH}", src.span(pos))
            stack.append((items, pos))
            items = []
        elif read is _CLOSE:
            if not stack:
                raise UnbalancedParens("unmatched ')'", src.span(pos))
            outer, open_pos = stack.pop()
            outer.append(SList(tuple(items), src, open_pos))
            items = outer
        else:
            raise read(src.span(pos))
        pos += len(tok)
    if stack:
        raise UnbalancedParens("unclosed '('", src.span(stack[-1][1]))
    return top
