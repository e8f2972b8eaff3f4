"""Reader of TPTP THF text: a token reader and a recursive descent parser.

The parser scans a text once for a bad character, building no token list,
before it parses; then it reads the tokens of one record at a time, those
of the text up to the next line that starts with thf(, with one findall as
plain strings, and a token's kind follows from its text.  So what the
parse holds at once is one record's tokens, however long the text, and
its parse is the parse of the whole text's tokens.  No offsets are kept;
when an error is raised, a finditer with the same pattern finds the
offending token again, and its line and column are worked out from its
offset.  A parsed text shares one Const node per declared constant and one
Var node per binder.  Terms come out flat: membership, subset, conditional
and separation are applied constants, as the text writes them, and so are
the connectives and truth values, each the one node hostterm.LOGICAL holds
for its name: (A & B) is CONJ applied to A and B.  A quantifier is its
constant applied to a lambda: (![X : $i]: P) is hostterm.forall("X", $i,
P).  Only = builds a node of its own.

th0 reads rendered problems with it, catalog the background theory, and
hforacle the claims of a lemma file.
"""

from __future__ import annotations

import re

from .hostterm import (
    CONJ,
    DISJ,
    IFF,
    IMP,
    IOTA,
    LOGICAL,
    NEG,
    OMICRON,
    App,
    Arrow,
    Const,
    Eq,
    Lam,
    Var,
    exists,
    forall,
)
from .sexpr import line_col, line_starts


class Th0Error(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


# Every character of a text but whitespace belongs to exactly one token:
# a comment, a word, an operator, or (the last alternative) one character
# that is none of these, which makes the text bad.  A word starts with a word
# character, a comment with %, and the catch-all only ever takes one
# character that neither does, so a token's kind follows from the token.
_TOKEN_RE = re.compile(r"%[^\n]*|[A-Za-z0-9_$]+|<=>|=>|[()\[\]:,.@&|~!?^=>]|[^ \t\r\n]")
_OPS = frozenset(
    ["<=>", "=>", "(", ")", "[", "]", ":", ",", ".", "@", "&", "|", "~", "!", "?", "^", "=", ">"]
)
# The longest prefix of a text with no bad character: runs of word,
# operator and blank characters, comments, and <=>, the one token that
# starts with a character no other token has.  A bad character is where it
# ends, and is the first token the catch-all alternative takes.
_BAD_RE = re.compile(r"(?:[A-Za-z0-9_$()\[\]:,.@&|~!?^=> \t\r\n]+|%[^\n]*|<=>)*")
_END = ""  # the sentinel after the last token; no token is empty
_LOWER_WORD_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")  # what a TPTP constant is
_BINOPS = frozenset([CONJ.name, DISJ.name, IMP.name, IFF.name, "="])
_BINDERS = {"!": forall, "?": exists, "^": Lam}


class _Parser:
    """Recursive descent over the tokens of one text, read record by record.

    The text is first scanned once for a bad character, with no token list
    built.  Its tokens are then read one span at a time, each span running
    up to the next line that starts with thf(: the plain strings of one
    findall over the span, comments taken out, with the _END sentinel after
    them; a token that is not an operator is a word.  The parse reads the
    next span into the same list when it needs a token past the sentinel
    (refill), so on well-formed text only between records.  A span after the first starts
    with the word thf, which no test of the next token for an operator
    takes, so those tests read the sentinel as they would read thf, and
    every parse, error and all, is the parse of the text's whole token
    list.  Offsets are found again, by finditer with the same pattern from
    the start of the span, only when an error is raised.
    """

    def __init__(self, text: str):
        self.text = text
        bad = _BAD_RE.match(text).end()
        if bad < len(text):
            at = line_col(line_starts(text), bad)
            raise Th0Error(f"bad character {text[bad]!r}", *at)
        self.comments: list = []  # the text of each comment read so far
        self.start = self.stop = 0  # the span of text the tokens are of
        self.comment = text.find("%")  # where the first comment not read yet starts, or -1
        self.before = 0  # the tokens of the spans before it
        self.toks = [_END]
        self.i = 0
        self.reads: set = set()  # the declared names read as constants so far
        self.refill()

    def refill(self) -> bool:
        """Read the tokens of the next span that has any; False at the end of the text."""
        text = self.text
        while self.stop < len(text):
            self.before += len(self.toks) - 1
            start = self.start = self.stop
            stop = self.stop = text.find("\nthf(", start) + 1 or len(text)
            toks = self.toks  # refilled in place, so that a name for it stays good
            toks[:] = _TOKEN_RE.findall(text, start, stop)
            if 0 <= self.comment < stop:
                self.comments += [tok[1:].lstrip(" ") for tok in toks if tok[0] == "%"]
                toks[:] = [tok for tok in toks if tok[0] != "%"]
                self.comment = text.find("%", stop)
            toks.append(_END)
            self.i = 0
            if toks[0]:
                return True
        return False

    def error(self, message: str, index: int) -> Th0Error:
        """An error located at the token of this index into toks.

        A negative index is of a token in an earlier span, counted from
        the start of this one back: an index into all the text's tokens,
        kept across a refill, less before.
        """
        start = self.start
        if index < 0:
            start, index = 0, index + self.before
        for m in _TOKEN_RE.finditer(self.text, start):
            if m.group()[0] != "%":
                if index == 0:
                    return Th0Error(message, *line_col(line_starts(self.text), m.start()))
                index -= 1
        return Th0Error(message)

    def peek(self) -> str:
        """The next token, _END at the end of input."""
        tok = self.toks[self.i]
        if not tok and self.refill():
            tok = self.toks[0]
        return tok

    def next(self) -> str:
        tok = self.toks[self.i] or self.peek()
        if not tok:
            raise Th0Error("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.toks[self.i] or self.peek()
        if tok != want:
            if not tok:
                raise Th0Error("unexpected end of input")
            raise self.error(f"expected {want!r}, found {tok!r}", self.i)
        self.i += 1

    def expect_word(self, word: str | None = None) -> str:
        tok = self.next()
        if tok in _OPS:
            raise self.error(f"expected 'word', found {tok!r}", self.i - 1)
        if word is not None and tok != word:
            raise self.error(f"expected {word!r}, found {tok!r}", self.i - 1)
        return tok

    # types -----------------------------------------------------------------

    def parse_type(self):
        left = self.parse_type_atom()
        if self.toks[self.i] == ">":
            self.i += 1
            return Arrow(left, self.parse_type())
        return left

    def parse_type_atom(self):
        tok = self.next()
        if tok == "$i":
            return IOTA
        if tok == "$o":
            return OMICRON
        if tok == "(":
            ty = self.parse_type()
            self.expect(")")
            return ty
        raise self.error(f"expected a type, found {tok!r}", self.i - 1)

    # terms -----------------------------------------------------------------
    #
    # env maps a bound name to its Var node and decls a declared name to its
    # Const node, so each symbol is looked up once and its node shared.

    def parse_formula(self, env, decls):
        """Applications joined by at most one kind of binary operator."""
        toks = self.toks
        items = []
        op = None
        while True:
            out = self.parse_unit(env, decls)
            while toks[self.i] == "@":
                self.i += 1
                out = App(out, self.parse_unit(env, decls))
            items.append(out)
            tok = toks[self.i]
            if tok not in _BINOPS:
                break
            if op is None:
                op, op_at = tok, self.before + self.i
            elif tok != op:
                raise self.error(f"mixed operators {op!r} and {tok!r} need parentheses", self.i)
            self.i += 1
        if op is None:
            return out
        if len(items) != 2 and op in ("=>", "<=>", "="):
            raise self.error(f"operator {op!r} is binary", op_at - self.before)
        if op == "=":
            return Eq(items[0], out)
        node = LOGICAL[op]
        for item in reversed(items[:-1]):
            out = App(App(node, item), out)
        return out

    def parse_unit(self, env, decls):
        i = self.i
        tok = self.toks[i]
        if not tok:
            tok, i = self.peek(), 0
        self.i = i + 1
        if tok not in _OPS:
            if tok == "$true" or tok == "$false":
                return LOGICAL[tok]
            node = env.get(tok)
            if node is None:
                try:
                    node = decls[tok]
                except KeyError:  # undeclared, or the end of input
                    node = None
                if node is None:
                    if not tok:
                        raise Th0Error("unexpected end of input")
                    raise self.error(f"undeclared symbol {tok!r}", i)
                self.reads.add(tok)
            return node
        if tok == "(":
            inner = self.parse_formula(env, decls)
            self.expect(")")
            return inner
        if tok == "~":
            return App(NEG, self.parse_unit(env, decls))
        binder = _BINDERS.get(tok)
        if binder is None:
            raise self.error(f"unexpected token {tok!r}", i)
        self.expect("[")
        name = self.expect_word()
        self.expect(":")
        ty = self.parse_type()
        self.expect("]")
        self.expect(":")
        return binder(name, ty, self.parse_unit({**env, name: Var(name, ty)}, decls))

    # records ---------------------------------------------------------------

    def record(self, decls, names) -> tuple:
        """Parse one record: (name, role, body).

        The body of a type record is the Const node it declares, which joins
        decls; any other body is a flat term.  The name joins names, and is
        a TPTP lower word, as a declared constant is.
        """
        start = self.before + self.i  # kept across a refill, as the index into all tokens
        self.expect_word("thf")
        self.expect("(")
        name = self.expect_word()
        name_at = self.i - 1
        if name in names:
            raise self.error(f"duplicate record name {name}", name_at)
        names.add(name)
        self.expect(",")
        role = self.expect_word()
        self.expect(",")
        if role == "type":
            const = self.expect_word()
            const_at = self.i - 1
            self.expect(":")
            ty = self.parse_type()
            if not name.startswith("ty_") or name[3:] != const:
                raise self.error(f"type record {name} must declare a matching constant", const_at)
            if not _LOWER_WORD_RE.match(const):
                raise self.error(f"declared constant {const!r} is not a lower word", const_at)
            # so the record name, ty_ and a lower word, is a lower word too
            body = decls[const] = Const(const, ty)
        elif role in ("axiom", "definition", "conjecture"):
            if not _LOWER_WORD_RE.match(name):
                raise self.error(f"record name {name!r} is not a lower word", name_at)
            body = self.parse_formula({}, decls)
            if role == "conjecture" and name != "conj":
                raise self.error("exactly one conjecture named conj is expected", start - self.before)
        else:
            raise self.error(f"unknown role {role!r}", start - self.before)
        self.expect(")")
        self.expect(".")
        return name, role, body
