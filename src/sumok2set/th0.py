"""Typed higher-order problem files: flattening, rendering, re-parsing.

The set primitives of the internal term language are structural nodes; here
they are flattened to applied constants so the output is plain typed lambda
calculus.  Separation subterms cannot be applied constants directly, so each
one is hoisted to a fresh constant parameterized over its free variables,
with a defining equivalence emitted as a definition-role premise.

Rendering is canonical: compound subterms are always parenthesized, binders
take one variable each, and long records wrap greedily at 100 columns with a
four space continuation indent.  Each premise is flattened and rendered on
its own, into a Record; a problem is its records put together, with the
separation definitions and type declarations merged in first-occurrence
order.  Parsing the rendered text and rendering again reproduces it byte
for byte.

The parser reads a text in one scan: a single findall gives its tokens as
plain strings, and a token's kind follows from its text.  The distinct
tokens are checked for bad characters once, before parsing.  No offsets are
kept; when an error is raised, a finditer with the same pattern finds the
offending token again, and its line and column are worked out from its
offset.  A parsed document shares one Const node per declared constant and
one Var node per binder.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .catalog import CATALOG, FLAT_CONST, cc
from .hostterm import (
    All,
    App,
    Arrow,
    Base,
    Bot,
    Conj,
    Const,
    Disj,
    Eq,
    Ex,
    IOTA,
    Iff,
    Imp,
    Lam,
    Neg,
    OMICRON,
    Sep,
    Top,
    TypeMismatch,
    Var,
    app,
    arrow,
    children,
    consts,
    free_vars,
    rebuild,
    substitute,
    typecheck,
)

WIDTH = 100
INDENT = "    "


class Th0Error(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Flattening


class _SepHoister:
    """Replace separation nodes by applied fresh constants with definitions."""

    def __init__(self):
        self.defs: list = []  # (const_name, definition term), hoist order
        self._by_key: dict = {}

    def flatten(self, t):
        if isinstance(t, Sep):
            return self._hoist(t)
        kids = children(t)
        if not kids:
            return t
        kids = [self.flatten(k) for k in kids]
        const = FLAT_CONST.get(type(t))
        if const is not None:
            return app(cc(const), *kids)
        return rebuild(t, kids)

    def _hoist(self, t: Sep):
        bound_flat = self.flatten(t.bound)
        body_flat = self.flatten(t.body)
        params = free_vars(Sep(t.name, bound_flat, body_flat))
        key = self._key(t.name, bound_flat, body_flat, params)
        found = self._by_key.get(key)
        if found is None:
            name = "sep_" + hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
            const = Const(name, arrow(*[ty for _, ty in params], IOTA))
            self.defs.append((name, self._definition(const, t, bound_flat, body_flat, params)))
            self._by_key[key] = const
            found = const
        return app(found, *[Var(n, ty) for n, ty in params])

    def _key(self, xname, bound_flat, body_flat, params) -> str:
        mapping = {n: Var(f"P{i}", ty) for i, (n, ty) in enumerate(params)}
        elem = "SEPX"
        while any(elem == n for n, _ in params):
            elem += "_"
        member = Var(elem, IOTA)
        shape = Conj(
            app(cc("in"), member, substitute(bound_flat, mapping)),
            substitute(
                substitute(body_flat, {xname: member}),
                mapping,
            ),
        )
        closed = Lam(elem, IOTA, shape)
        for i in range(len(params) - 1, -1, -1):
            closed = Lam(f"P{i}", params[i][1], closed)
        return render_term(closed)

    def _definition(self, const, t: Sep, bound_flat, body_flat, params):
        elem = t.name
        while any(elem == n for n, _ in params):
            elem += "_elem"
        member = Var(elem, IOTA)
        applied = app(const, *[Var(n, ty) for n, ty in params])
        body = substitute(body_flat, {t.name: member})
        out = Iff(
            app(cc("in"), member, applied),
            Conj(app(cc("in"), member, bound_flat), body),
        )
        out = All(elem, IOTA, out)
        for n, ty in reversed(params):
            out = All(n, ty, out)
        return out


# ---------------------------------------------------------------------------
# Rendering


def render_type(ty, atomic: bool = False) -> str:
    if isinstance(ty, Base):
        return "$" + ty.tag
    inner = f"{render_type(ty.dom, atomic=True)} > {render_type(ty.cod)}"
    return f"({inner})" if atomic else inner


_THF_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


def escape(name: str) -> str:
    """Injective escape into ASCII letters, digits and underscores.

    Letters and digits stay; any other character becomes _xx below U+0100
    and _uxxxxxx above it (lowercase hex, and u is no hex digit), so the
    escape is prefix-free and distinct names never collide.
    """
    return "".join(
        ch if ch.isascii() and ch.isalnum()
        else ("_%02x" if ord(ch) < 0x100 else "_u%06x") % ord(ch)
        for ch in name
    )


def host_var(name: str) -> str:
    """The host-term variable name of a KIF variable.

    A TH0-shaped name that does not start with V_ stays as it is; any other
    name becomes V_ + escape(name).  The two ranges are disjoint and escape
    is injective, so distinct KIF variables stay distinct.  Every result is
    TH0-shaped, so _thf_var renders it unchanged.
    """
    if _THF_VAR_RE.match(name) and not name.startswith("V_"):
        return name
    return "V_" + escape(name)


def _thf_var(name: str) -> str:
    if _THF_VAR_RE.match(name):
        return name
    return "V_" + escape(name)


def render_term(t) -> str:
    """Canonical fully parenthesized rendering of a flat term."""
    if isinstance(t, Var):
        return _thf_var(t.name)
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Bot):
        return "$false"
    if isinstance(t, Top):
        return "$true"
    return "(" + _render_inner(t) + ")"


def _render_inner(t) -> str:
    if isinstance(t, App):
        parts = []
        spine = t
        while isinstance(spine, App):
            parts.append(spine.arg)
            spine = spine.fn
        parts.append(spine)
        parts.reverse()
        return " @ ".join(render_term(p) for p in parts)
    if isinstance(t, Lam):
        return f"^[{_thf_var(t.name)} : {render_type(t.ty)}]: {render_term(t.body)}"
    if isinstance(t, All):
        return f"![{_thf_var(t.name)} : {render_type(t.ty)}]: {render_term(t.body)}"
    if isinstance(t, Ex):
        return f"?[{_thf_var(t.name)} : {render_type(t.ty)}]: {render_term(t.body)}"
    if isinstance(t, Neg):
        return "~ " + render_term(t.body)
    if isinstance(t, Imp):
        return f"{render_term(t.ante)} => {render_term(t.cons)}"
    if isinstance(t, Conj):
        return f"{render_term(t.left)} & {render_term(t.right)}"
    if isinstance(t, Disj):
        return f"{render_term(t.left)} | {render_term(t.right)}"
    if isinstance(t, Iff):
        return f"{render_term(t.left)} <=> {render_term(t.right)}"
    if isinstance(t, Eq):
        return f"{render_term(t.left)} = {render_term(t.right)}"
    raise TypeError(f"cannot render {t!r}")


def _wrap(text: str) -> str:
    if len(text) <= WIDTH:
        return text
    words = text.split(" ")
    lines = []
    cur = words[0]
    for w in words[1:]:
        if len(cur) + 1 + len(w) <= WIDTH:
            cur += " " + w
        else:
            lines.append(cur)
            cur = INDENT + w
    lines.append(cur)
    return "\n".join(lines)


def render_record(name: str, role: str, content: str) -> str:
    return _wrap(f"thf({name}, {role}, {content}).")


# ---------------------------------------------------------------------------
# Documents


class Record(NamedTuple):
    """One premise flattened and rendered on its own.

    Separations are named by content, so the text of a premise does not
    depend on its neighbours; a problem puts its records together by
    first-occurrence merges of their separations and constants.
    """

    text: str  # the wrapped thf(...) record
    consts: tuple  # distinct Const nodes of the flat term, in first use order
    seps: tuple = ()  # (sep name, Record of its definition), in hoist order


def _record(name: str, role: str, flat, seps: tuple = ()) -> Record:
    first: dict = {}  # name -> type of its first use
    distinct = []
    for c in consts(flat):
        ty = first.get(c.name)
        if ty is None:
            first[c.name] = c.ty
            distinct.append(c)
        elif ty is not c.ty and ty != c.ty:
            distinct.append(c)  # a second type, which _collect_consts rejects
    return Record(render_record(name, role, render_term(flat)), tuple(distinct), seps)


def render_premise(name: str, role: str, term) -> Record:
    """Flatten and render one premise of host terms."""
    hoister = _SepHoister()
    flat = hoister.flatten(term)
    seps = ()
    if hoister.defs:
        seps = tuple((sep, _record("def_" + sep, "definition", d)) for sep, d in hoister.defs)
    return _record(name, role, flat, seps)


def _cached_record(cache: dict, name: str, role: str, term) -> Record:
    """The record of a premise, from cache when it holds this very term.

    cache maps premise name -> (term, Record); the identity test keeps the
    record of one query's local premise from standing in for another's.
    """
    hit = cache.get(name)
    if hit is not None and hit[0] is term:
        return hit[1]
    record = render_premise(name, role, term)
    cache[name] = (term, record)
    return record


@dataclass
class Th0Doc:
    """A problem document.

    A premise body, and the conjecture, is a flat term in a parsed document
    and a Record, already rendered, in one built from a problem.
    """

    comments: list = field(default_factory=list)
    decls: list = field(default_factory=list)  # (const name, type)
    premises: list = field(default_factory=list)  # (name, role, flat term or Record)
    conjecture: object = None  # flat term or Record, record named conj


def _collect_consts(groups) -> list:
    """Declared constants: catalog members in catalog order, then first use."""
    seen: dict = {}
    for group in groups:
        for c in group:
            ty = seen.setdefault(c.name, c.ty)
            if ty is not c.ty and ty != c.ty:
                raise Th0Error(f"constant {c.name} used at two types")
    catalog_part = sorted(
        (n for n in seen if n in CATALOG), key=CATALOG.order_index
    )
    rest = [n for n in seen if n not in CATALOG]
    return [(n, seen[n]) for n in catalog_part + rest]


def build_doc(problem, reproducible: bool = False, explain: bool = False) -> Th0Doc:
    """Put a translated problem together from the records of its premises.

    The problems of one KbImage share their render_cache, so a premise of
    its knowledge base is flattened and rendered once per image.
    """
    import datetime

    premises = [
        (name, role, _cached_record(problem.render_cache, name, role, term))
        for name, role, term in problem.premises
    ]
    conjecture = render_premise("conj", "conjecture", problem.conjecture)
    seps: dict = {}
    for record in [r for _, _, r in premises] + [conjecture]:
        for sep, defn in record.seps:
            seps.setdefault(sep, defn)
    all_premises = [("def_" + sep, "definition", defn) for sep, defn in seps.items()]
    all_premises += premises
    decls = _collect_consts([r.consts for _, _, r in all_premises] + [conjecture.consts])

    comments = ["higher-order set theory translation"]
    if not reproducible:
        comments.append("generated " + datetime.date.today().isoformat())
    comments.extend(problem.comments)
    if explain:
        if problem.explanations:
            comments.append("guard derivations:")
            comments.extend(problem.explanations)
        else:
            comments.append("guard derivations: none")
    return Th0Doc(
        comments=comments,
        decls=decls,
        premises=all_premises,
        conjecture=conjecture,
    )


def _record_text(name: str, role: str, body) -> str:
    if isinstance(body, Record):
        return body.text
    return render_record(name, role, render_term(body))


def render_doc(doc: Th0Doc) -> str:
    lines = ["% " + c if c else "%" for c in doc.comments]
    for name, ty in doc.decls:
        lines.append(render_record(f"ty_{name}", "type", f"{name} : {render_type(ty)}"))
    for name, role, body in doc.premises:
        lines.append(_record_text(name, role, body))
    lines.append(_record_text("conj", "conjecture", doc.conjecture))
    return "\n".join(lines) + "\n"


def problem_text(problem, reproducible: bool = False, explain: bool = False) -> str:
    return render_doc(build_doc(problem, reproducible=reproducible, explain=explain))


# ---------------------------------------------------------------------------
# Re-parsing and checking

# Every character of a text but whitespace belongs to exactly one token:
# a comment, a word, an operator, or (the last alternative) one character
# that is none of these, which makes the text bad.  A word starts with a word
# character, a comment with %, and the catch-all only ever takes one
# character that neither does, so a token's kind follows from the token.
_TOKEN_RE = re.compile(r"%[^\n]*|[A-Za-z0-9_$]+|<=>|=>|[()\[\]:,.@&|~!?^=>]|[^ \t\r\n]")
_OPS = frozenset(
    ["<=>", "=>", "(", ")", "[", "]", ":", ",", ".", "@", "&", "|", "~", "!", "?", "^", "=", ">"]
)
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_$")
_END = ""  # the sentinel after the last token; no token is empty
_BINOPS = {"&": Conj, "|": Disj, "=>": Imp, "<=>": Iff, "=": Eq}
_BINDERS = {"!": All, "?": Ex, "^": Lam}


def _line_col(text: str, pos: int) -> tuple:
    """1-based line and column of an offset."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Parser:
    """Recursive descent over the tokens of one text, read in one scan.

    The tokens are the plain strings of one findall, comments taken out,
    with the _END sentinel after them; a token that is not an operator is a
    word.  Offsets are found again, by finditer with the same pattern, only
    when an error is raised.
    """

    def __init__(self, text: str):
        self.text = text
        toks = _TOKEN_RE.findall(text)
        bad = set()
        has_comments = False
        for tok in set(toks):
            if tok in _OPS or tok[0] in _WORD_START:
                continue
            if tok[0] == "%":
                has_comments = True
            else:
                bad.add(tok)
        if bad:
            for m in _TOKEN_RE.finditer(text):
                if m.group() in bad:
                    raise Th0Error(f"bad character {m.group()!r}", *_line_col(text, m.start()))
        comments = []
        if has_comments:
            lead = 0
            while lead < len(toks) and toks[lead][0] == "%":
                lead += 1
            comments = toks[:lead]
            if sum(c.count("%") for c in comments) == text.count("%"):
                del toks[:lead]  # the comments all lead, as in a rendered problem
            else:
                comments = [tok for tok in toks if tok[0] == "%"]
                toks = [tok for tok in toks if tok[0] != "%"]
        self.comments = [c[1:].lstrip(" ") for c in comments]
        toks.append(_END)
        self.toks = toks
        self.i = 0

    def error(self, message: str, index: int) -> Th0Error:
        """An error located at the token of this index."""
        n = index
        for m in _TOKEN_RE.finditer(self.text):
            if m.group()[0] != "%":
                if n == 0:
                    return Th0Error(message, *_line_col(self.text, m.start()))
                n -= 1
        return Th0Error(message)

    def peek(self) -> str:
        """The next token, _END at the end of input."""
        return self.toks[self.i]

    def next(self) -> str:
        tok = self.toks[self.i]
        if not tok:
            raise Th0Error("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.toks[self.i]
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
                op, op_at = tok, self.i
            elif tok != op:
                raise self.error(f"mixed operators {op!r} and {tok!r} need parentheses", self.i)
            self.i += 1
        if op is None:
            return out
        if len(items) != 2 and op in ("=>", "<=>", "="):
            raise self.error(f"operator {op!r} is binary", op_at)
        ctor = _BINOPS[op]
        for item in reversed(items[:-1]):
            out = ctor(item, out)
        return out

    def parse_unit(self, env, decls):
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        if tok not in _OPS:
            if tok == "$true":
                return Top()
            if tok == "$false":
                return Bot()
            node = env.get(tok)
            if node is None:
                node = decls.get(tok)
                if node is None:
                    if not tok:
                        raise Th0Error("unexpected end of input")
                    raise self.error(f"undeclared symbol {tok!r}", i)
            return node
        if tok == "(":
            inner = self.parse_formula(env, decls)
            self.expect(")")
            return inner
        if tok == "~":
            return Neg(self.parse_unit(env, decls))
        ctor = _BINDERS.get(tok)
        if ctor is None:
            raise self.error(f"unexpected token {tok!r}", i)
        self.expect("[")
        name = self.expect_word()
        self.expect(":")
        ty = self.parse_type()
        self.expect("]")
        self.expect(":")
        return ctor(name, ty, self.parse_unit({**env, name: Var(name, ty)}, decls))


def parse_doc(text: str) -> Th0Doc:
    """Parse rendered problem text back into a document."""
    parser = _Parser(text)
    toks = parser.toks
    doc = Th0Doc(comments=parser.comments)
    decls: dict = {}  # name -> Const node
    names: set = set()
    while toks[parser.i]:
        start = parser.i
        parser.expect_word("thf")
        parser.expect("(")
        name = parser.expect_word()
        if name in names:
            raise parser.error(f"duplicate record name {name}", parser.i - 1)
        names.add(name)
        parser.expect(",")
        role = parser.expect_word()
        parser.expect(",")
        if role == "type":
            const = parser.expect_word()
            const_at = parser.i - 1
            parser.expect(":")
            ty = parser.parse_type()
            if not name.startswith("ty_") or name[3:] != const:
                raise parser.error(
                    f"type record {name} must declare a matching constant", const_at
                )
            decls[const] = Const(const, ty)
            doc.decls.append((const, ty))
        elif role in ("axiom", "definition", "conjecture"):
            term = parser.parse_formula({}, decls)
            if role == "conjecture":
                if name != "conj":
                    raise parser.error("exactly one conjecture named conj is expected", start)
                doc.conjecture = term
            else:
                doc.premises.append((name, role, term))
        else:
            raise parser.error(f"unknown role {role!r}", start)
        parser.expect(")")
        parser.expect(".")
    if doc.conjecture is None:
        raise Th0Error("missing conjecture")
    return doc


def check_text(text: str) -> list:
    """Diagnostics for rendered problem text; empty means well formed.

    Checks grammar, unique record names, declarations before use, type
    correctness of every formula at the boolean type, and byte idempotence
    of the rendering.
    """
    diags: list = []
    try:
        doc = parse_doc(text)
    except Th0Error as err:
        where = f" at {err.line}:{err.col}" if err.line else ""
        return [f"parse error{where}: {err}"]
    env = {}
    for name, role, term in list(doc.premises) + [("conj", "conjecture", doc.conjecture)]:
        try:
            ty = typecheck(term, env)
            if ty != OMICRON:
                diags.append(f"{name}: formula has type {render_type(ty)}, not $o")
        except TypeMismatch as err:
            diags.append(f"{name}: ill-typed: {err}")
    rendered = render_doc(doc)
    if rendered != text:
        diags.append("text is not in canonical form (render of parse differs)")
    return diags
