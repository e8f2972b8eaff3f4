"""Typed higher-order problem files: hoisting, rendering, re-parsing.

The host term language writes the set primitives as applied catalog
constants, and the connectives, truth values, equality and quantifiers as
applied logical constants, already, so the output is plain typed lambda
calculus once the separations are gone.  A separation sep @ A @ (^[X : $i]: P) binds a
variable inside an application, so each one is hoisted to a fresh constant
parameterized over its free variables, with a defining equivalence emitted
as a definition-role premise.

Rendering is canonical: compound subterms are always parenthesized, binders
take one variable each, and long records wrap greedily at 100 columns with a
four space continuation indent.  One walk (_PremiseWalk) writes every
term.  Each premise is rendered on its own, into a Record, by the walk over
its host term: it writes the text of the term without building it, with
each separation it meets hoisted, and records the constants in the order
it writes them.  The same walk, under a renaming of free variables, writes
each separation's key, and writes its definition record.  A translated
problem holds nothing but records, each rendered as its premise was
translated, in Blocks: Block is the one place that merges records, into
their separations and constants in first-occurrence order, and blocks that
many problems share, such as a knowledge base's, are merged once.
build_doc puts a problem's blocks together, then its conjecture as a block
of one record, and renders nothing itself.  One merge (_merge_consts)
decides each constant's type: build_doc merges the blocks' constants, those
of the separation definitions first, into one dict, and a constant met at
a second type is an error.  render_doc writes the ty_ record of every
constant but those a problem brings rendered already (decl_records, a
knowledge base's, rendered once for all its problems).  Parsing the
rendered text (with th0read's parser) and rendering each record again
reproduces it byte for byte.

check_text goes through a problem record by record on one path: a record
that a memo holds from earlier problems that checked clean is confirmed
from its text alone, by one lookup of its text after thf( that gives its
role, its name and the declarations it reads; each run of the others is
parsed by one parser that reads one record's tokens at a time, each record
typechecked, rendered and compared with its text as soon as it is parsed,
and the layout of the records decides the rest of the canonical form.
"""

from __future__ import annotations

import functools
import hashlib
import re
import sys
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from .catalog import CATALOG, IN, SEP
from .hostterm import (
    CONJ,
    DISJ,
    EQUALS,
    EXISTS,
    FORALL,
    IFF,
    IMP,
    LOGICAL,
    NEG,
    App,
    Base,
    Const,
    IOTA,
    Lam,
    OMICRON,
    TypeMismatch,
    Var,
    app,
    arrow,
    free_vars,
    typecheck,
)
from .th0read import Th0Error, _Parser

WIDTH = 100
INDENT = "    "


# ---------------------------------------------------------------------------
# Hoisting separations


class _SepHoister:
    """The constants separations are hoisted to, by key, and their definitions.

    _PremiseWalk asks hoist for each separation it meets, and hoist writes
    the separation's key and, the first time it meets that key, its
    definition record with walks of its own.  The key is the closed text
    (^[P0 : ..]: .. (^[SEPX : $i]: ((in @ SEPX @ bound) & body))): the
    parameters renamed P0, P1, ... in first-occurrence order and the element
    renamed SEPX, SEPX_, ... (a name no parameter has).  The renaming does
    not avoid capture: under a binder of its new name, a renamed variable
    is written as that name all the same.
    """

    def __init__(self):
        self.defs: list = []  # (sep name, Record of its definition), hoist order
        self._by_key: dict = {}  # key -> Const

    def hoist(self, bound, pred: Lam) -> tuple:
        """The constant sep @ bound @ pred is hoisted to, and its (name, type) parameters."""
        params = free_vars(app(SEP, bound, pred))
        names = [n for n, _ in params]
        rename = {n: f"P{i}" for i, n in enumerate(names)}
        elem = "SEPX"
        while elem in names:
            elem += "_"
        walk = _PremiseWalk(self, rename)
        bound_text = walk.text(bound)
        walk.rename = {**rename, pred.name: elem}
        key = f"(^[{elem} : $i]: ((in @ {elem} @ {bound_text}) & {walk.text(pred.body)}))"
        for i in range(len(params) - 1, -1, -1):
            key = f"(^[P{i} : {render_type(params[i][1])}]: {key})"
        const = self._by_key.get(key)
        if const is None:
            name = "sep_" + hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
            const = Const(name, arrow(*[ty for _, ty in params], IOTA))
            self.defs.append((name, self._definition(const, bound, pred, names, params)))
            self._by_key[key] = const
        return const, params

    def _definition(self, const, bound, pred: Lam, names: list, params: list) -> Record:
        """The record of ! params, elem: (in elem (const params)) <=> (in elem bound) & body."""
        elem = pred.name
        while elem in names:
            elem += "_elem"
        walk = _PremiseWalk(self)
        member = f"{walk.const(IN)} @ {_thf_var(elem)} @ "
        applied = " @ ".join([walk.const(const)] + [_thf_var(n) for n in names])
        if names:
            applied = f"({applied})"
        bound_text = walk.text(bound)
        if elem != pred.name:
            walk.rename = {pred.name: elem}
        text = f"(({member}{applied}) <=> (({member}{bound_text}) & {walk.text(pred.body)}))"
        for n, ty in [*params, (elem, IOTA)][::-1]:
            text = f"(![{_thf_var(n)} : {render_type(ty)}]: {text})"
        return Record(render_record("def_" + const.name, "definition", text), tuple(walk.consts))


# ---------------------------------------------------------------------------
# Rendering


def render_type(ty, atomic: bool = False) -> str:
    if type(ty) is Base:
        return "$" + ty.tag
    inner = render_type(ty.dom, True) + " > " + render_type(ty.cod)
    return "(" + inner + ")" if atomic else inner


_THF_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_WORD_RE = re.compile(r"[A-Za-z0-9_]*\Z")


def escape(name: str) -> str:
    """Injective escape into ASCII letters, digits and underscores.

    Letters and digits stay; any other character becomes _xx below U+0100
    and _uxxxxxx above it (lowercase hex, and u is no hex digit), so the
    escape is prefix-free and distinct names never collide.  In a name of
    ASCII letters, digits and underscores, only each underscore changes.
    """
    if _WORD_RE.match(name):
        return name.replace("_", "_5f")
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


# the operands of each connective, which its full application writes infix
_OPERANDS = {NEG.name: 1, **{c.name: 2 for c in (CONJ, DISJ, IMP, IFF, EQUALS)}}
# the binder each quantifier applied to a lambda is written as
_QUANTIFIER_MARKS = {FORALL: "![", EXISTS: "?["}
# the logical constants written only applied in full, and to what
_APPLIED_ONLY = {FORALL: "to a lambda", EXISTS: "to a lambda", EQUALS.name: "to two operands"}


def render_term(t) -> str:
    """Canonical fully parenthesized rendering of a term, separations unhoisted."""
    return _PremiseWalk(None).text(t)


class _PremiseWalk:
    """One walk from a host term to its rendering and its constants.

    Writes the canonical text of the term with its separations hoisted, without
    building that term: sep @ A @ (^[X : $i]: P) is written as its hoisted
    constant applied to its parameters, and merges into the spine it heads.  A
    full application of a connective or =, a logical constant, is written infix
    as THF writes it, (~ A), (A & B) and (A = B), left operand first, and $true
    and $false by name; a quantifier applied to a lambda, as its binder
    (![X : $i]: P); = and a quantifier used any other way, not at all.  The
    other constants are recorded as they are written, and textual order is the
    pre-order of the written term; a logical constant or quantifier is never
    recorded, as no problem declares one.  A free variable is written under its
    name in rename, if it has one there; a binder of a renamed name suspends
    the renaming in its body.  render_term is this walk with no hoister, which
    writes a separation as sep applied, as catalog.p does.
    """

    def __init__(self, hoister: _SepHoister, rename: dict | None = None):
        self.hoister = hoister
        self.rename = rename or {}  # free variable name -> the name written for it
        self.first: dict = {}  # name -> type of its first use
        self.consts: list = []  # distinct Const nodes; a second type is kept too

    def const(self, c) -> str:
        ty = self.first.get(c.name)
        if ty is None:
            if c.name in _APPLIED_ONLY:
                raise TypeError(f"cannot render {c!r} but applied {_APPLIED_ONLY[c.name]}")
            if c.name in LOGICAL:
                return c.name  # a logical constant is declared by no problem
            self.first[c.name] = c.ty
            self.consts.append(c)
        elif ty is not c.ty and ty != c.ty:
            self.consts.append(c)  # a second type, which the merge rejects (_merge_consts)
        return c.name

    def binder(self, mark: str, t) -> str:
        rename = self.rename
        if t.name in rename:
            self.rename = {n: m for n, m in rename.items() if n != t.name}
            body = self.text(t.body)
            self.rename = rename
        else:
            body = self.text(t.body)
        return "(" + mark + _thf_var(t.name) + " : " + render_type(t.ty) + "]: " + body + ")"

    def text(self, t) -> str:
        cls = type(t)
        if cls is App:
            args = []
            while cls is App:
                args.append(t.arg)
                t = t.fn
                cls = type(t)
            if t is SEP and self.hoister and len(args) > 1 and type(args[-2]) is Lam:
                const, params = self.hoister.hoist(args.pop(), args.pop())
                rename = self.rename
                parts = [self.const(const)] + [_thf_var(rename.get(n, n)) for n, _ in params]
            elif cls is Const and t.name in _OPERANDS and _OPERANDS[t.name] <= len(args):
                # a connective or = applied in full is written infix: (~ A), (A & B), (A = B)
                if t.name == NEG.name:
                    parts = ["(~ " + self.text(args.pop()) + ")"]
                else:
                    left = self.text(args.pop())
                    parts = ["(" + left + " " + t.name + " " + self.text(args.pop()) + ")"]
            elif cls is Const and t.name in _QUANTIFIER_MARKS and type(args[-1]) is Lam:
                # a quantifier applied to a lambda is written as a binder
                parts = [self.binder(_QUANTIFIER_MARKS[t.name], args.pop())]
            else:
                parts = [self.text(t)]
            if not args and len(parts) == 1:
                return parts[0]  # a hoisted constant, connective or binder applied in full
            for arg in reversed(args):
                parts.append(self.text(arg))
            return "(" + " @ ".join(parts) + ")"
        if cls is Var:
            return _thf_var(self.rename.get(t.name, t.name))
        if cls is Const:
            return self.const(t)
        if cls is Lam:
            return self.binder("^[", t)
        raise TypeError(f"cannot render {t!r}")


def _wrap(text: str) -> str:
    """Fill lines greedily with the space-separated words of text.

    A line ends at the last space that leaves it at most WIDTH columns,
    its indent included, or after its first word when that word is longer.
    """
    if len(text) <= WIDTH:
        return text
    lines = []
    start, room = 0, WIDTH
    while len(text) - start > room:
        cut = text.rfind(" ", start, start + room + 1)
        if cut < 0:
            cut = text.find(" ", start)
            if cut < 0:
                break
        lines.append(text[start:cut])
        start, room = cut + 1, WIDTH - len(INDENT)
    lines.append(text[start:])
    return ("\n" + INDENT).join(lines)


def render_record(name: str, role: str, content: str) -> str:
    return _wrap(f"thf({name}, {role}, {content}).")


# ---------------------------------------------------------------------------
# Documents


class Record(NamedTuple):
    """One premise rendered on its own, in one walk over its host term.

    Separations are named by content, so the text of a premise does not
    depend on its neighbours; a problem puts its records together by
    first-occurrence merges of their separations and constants.
    """

    text: str  # the wrapped thf(...) record
    consts: tuple  # distinct Const nodes of the written term, in first use order
    seps: tuple = ()  # (sep name, Record of its definition), in hoist order


def render_premise(name: str, role: str, term) -> Record:
    """Render one premise of host terms, with a Record per hoisted separation."""
    hoister = _SepHoister()
    walk = _PremiseWalk(hoister)
    text = render_record(name, role, walk.text(term))
    return Record(text, tuple(walk.consts), tuple(hoister.defs))


_CATALOG_NAMES = frozenset(CATALOG.order)


def catalog_needs(record: Record) -> frozenset:
    """The catalog names the premise of a record needs.

    These are the catalog constants of the record and of its separation
    definitions: membership, subset and conditional nodes are written as
    their catalog constants, and a separation is defined by membership.
    """
    names = {c.name for c in record.consts}
    for _sep, defn in record.seps:
        names.update(c.name for c in defn.consts)
    return frozenset(names & _CATALOG_NAMES)


def _merge_consts(types: dict, pairs) -> dict:
    """Merge (name, type) pairs into types, name -> type of its first use.

    This is the one place that decides each constant's type: one met at a
    second type is an error.
    """
    for name, ty in pairs:
        first = types.setdefault(name, ty)
        if first is not ty and first != ty:
            raise Th0Error(f"constant {name} used at two types")
    return types


def _pairs(records):
    """The (name, type) pairs of the constants of records, in order."""
    return ((c.name, c.ty) for record in records for c in record.consts)


def _decl_record(name: str, ty) -> str:
    return render_record(f"ty_{name}", "type", f"{name} : {render_type(ty)}")


class Block:
    """A run of premise records that a problem takes whole, merged once.

    A problem is a list of blocks; a KbImage keeps two, its relation facts
    and its premises, which every problem it poses shares.  A block holds
    the records, their separations merged in first-occurrence order, the
    constants of those separations' definitions and, apart, those of the
    records, each merged in first-use order (name -> type), and the catalog
    names among them.  This is the one place records are merged; whether
    the blocks of a problem agree with each other is decided where
    build_doc merges their constants.
    """

    def __init__(self, premises):
        self.premises = list(premises)  # (name, role, Record)
        self.seps: dict = {}  # sep name -> Record of its definition
        for _name, _role, record in self.premises:
            for sep, defn in record.seps:
                self.seps.setdefault(sep, defn)
        self.sep_consts = _merge_consts({}, _pairs(self.seps.values()))
        self.consts = _merge_consts({}, _pairs(r for _n, _r, r in self.premises))
        self.catalog = frozenset((self.sep_consts.keys() | self.consts.keys()) & _CATALOG_NAMES)


def decl_records(blocks) -> dict:
    """The ty_ record of every constant of blocks, by name, rendered once.

    A KbImage renders its blocks' declarations here, so that no problem it
    poses renders them again (Th0Doc.decl_records).
    """
    types: dict = {}
    for block in blocks:
        types.update(block.sep_consts)
        types.update(block.consts)
    return {name: _decl_record(name, ty) for name, ty in types.items()}


@dataclass
class Th0Doc:
    """A problem document: every premise body, and the conjecture, is a Record."""

    comments: list = field(default_factory=list)
    decls: list = field(default_factory=list)  # (const name, type)
    premises: list = field(default_factory=list)  # (name, role, Record)
    conjecture: Record | None = None  # the record named conj
    decl_records: dict = field(default_factory=dict)  # const name -> its ty_ record, if known


def build_doc(problem, reproducible: bool = False) -> Th0Doc:
    """Put a translated problem together from its blocks of records.

    The premises and the conjecture of a problem are rendered already, and
    merged into blocks (problem.blocks, Block), so this renders nothing and
    merges no record: the blocks, then the conjecture as a block of its
    own, merge whole in first-occurrence order, separation definitions
    first, then the premises, then the conjecture.  One merge
    (_merge_consts) of all their constants decides each constant's type;
    the declarations list the catalog names first, in catalog order, then
    the rest in first-use order, and those problem.decl_records holds are
    not rendered again.  The guard derivations are written when the
    problem collected them (explanations is not None).
    """
    import datetime

    blocks = [*problem.blocks, Block([("conj", "conjecture", problem.conjecture)])]
    seps: dict = {}
    types: dict = {}  # name -> type of every constant, first use order
    for block in blocks:
        for sep, defn in block.seps.items():
            # the first definition stands: a later one may name its variables otherwise
            seps.setdefault(sep, defn)
        _merge_consts(types, block.sep_consts.items())
    for block in blocks:
        _merge_consts(types, block.consts.items())
    catalog = sorted(types.keys() & _CATALOG_NAMES, key=CATALOG.order_index)
    decls = [(name, types.pop(name)) for name in catalog] + list(types.items())

    comments = ["higher-order set theory translation"]
    if not reproducible:
        comments.append("generated " + datetime.date.today().isoformat())
    comments.extend(problem.comments)
    if problem.explanations is not None:
        comments.append("guard derivations:" if problem.explanations else "guard derivations: none")
        comments.extend(problem.explanations)
    return Th0Doc(
        comments=comments,
        decls=decls,
        premises=[("def_" + sep, "definition", defn) for sep, defn in seps.items()]
        + problem.premises,
        conjecture=problem.conjecture,
        decl_records=problem.decl_records,
    )


def render_doc(doc: Th0Doc) -> str:
    lines = ["% " + c if c else "%" for c in doc.comments]
    known = doc.decl_records
    lines += [known.get(name) or _decl_record(name, ty) for name, ty in doc.decls]
    lines += [body.text for _name, _role, body in doc.premises]
    lines += [doc.conjecture.text, ""]
    return "\n".join(lines)


def problem_text(problem, reproducible: bool = False) -> str:
    return render_doc(build_doc(problem, reproducible=reproducible))


# ---------------------------------------------------------------------------
# Re-parsing and checking


def parse_doc(text: str) -> Th0Doc:
    """Parse rendered problem text back into a document of records."""
    parser = _Parser(text)
    doc = Th0Doc()
    decls: dict = {}  # name -> Const node
    names: set = set()
    while parser.peek():
        name, role, body = parser.record(decls, names)
        if role == "type":
            doc.decls.append((body.name, body.ty))
        elif role == "conjecture":
            doc.conjecture = render_premise(name, role, body)
        else:
            doc.premises.append((name, role, render_premise(name, role, body)))
    if doc.conjecture is None:
        raise Th0Error("missing conjecture")
    doc.comments = parser.comments  # read with the records they come among
    return doc


# ---------------------------------------------------------------------------
# Checking, with a memo of verified records
#
# The problems of a corpus repeat their knowledge base's records, so check
# keeps the records it has seen check clean and confirms them again from
# their text.  A record's parse depends on its document only through the
# types of the constants it reads, and its typecheck and rendering only on
# its parse: a record that checked clean once checks clean again wherever
# those constants are declared before it at the same types.  What no
# record's text decides is checked per document: the comment lines, the
# layout, unique record names, and ty_ names matching their constants.

# Key text the memo holds at most, each key a record's text after its thf(.
# With the entries it costs about four bytes per byte of key text, traced,
# so this is about 6 MB: a fifth of the peak resident size (33 MB) of a
# one-shot translate and check on a 100-copy knowledge base, whose 1.2 MB
# problem it holds.
MEMO_BYTES = 1_500_000


class RecordMemo:
    """Records that checked clean, by their text after thf(, with what they read.

    An entry is a flat tuple of strings: the record's role, its name, then
    declarations as a type record writes them, "constant : type": for a
    type record the one it makes, for any other one for each constant its
    body reads.  So a hit is one lookup of the text as the problem splits
    it, and the name is read from the entry, whose string keeps its hash.
    Entries are added only for problems that checked clean.  The key text
    held is bounded by limit bytes: when an addition passes it, the entries
    added first go, down to three quarters of it.  An entry holds nothing
    but strings, so the collector untracks it, and a full collection does
    not scan it.  Readers take entries as it stands; additions, from any
    thread, take a lock.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.size = 0  # bytes of key text held
        self.entries: dict = {}  # record text after thf( -> (role, name, declaration, ...)
        self._lock = threading.Lock()

    def add(self, items) -> None:
        """Add (key, entry) items, of records not held yet."""
        with self._lock:
            known = self.entries
            fresh = {text: e for text, e in items if text not in known and len(text) <= self.limit}
            known.update(fresh)
            self.size += sum(map(len, fresh))
            if self.size > self.limit:
                keep = iter(known)
                for old in keep:
                    self.size -= len(old)
                    if self.size <= self.limit * 3 // 4:
                        break
                self.entries = {text: known[text] for text in keep}


CHECK_MEMO = RecordMemo(MEMO_BYTES)  # one per process, shared by every check_text


_RANK = {"type": 0, "axiom": 1, "definition": 1, "conjecture": 2}  # the layout's order of roles


def check_text(text: str) -> list:
    """Diagnostics for rendered problem text; empty means well formed.

    Checks grammar, unique record names, declarations before use, type
    correctness of every formula at the boolean type, and byte idempotence
    of the rendering.  A parse error is the only diagnostic; otherwise the
    type diagnostics of the premises come in order, then the conjecture's,
    then the canonical-form one.  The text is checked record by record
    (_RecordPass): CHECK_MEMO confirms the records it holds, and each run
    of the others is parsed by one parser.
    """
    return _RecordPass(CHECK_MEMO).check(text, True)


@functools.lru_cache(maxsize=256)
def _type_of_text(text: str):
    return _Parser(text).parse_type()


class _Consts(dict):
    """Const nodes by constant name, for parsing runs.

    A declaration that a memo hit makes is only text in decls until a run
    first reads its constant, which then becomes a node.
    """

    def __init__(self, decls: dict):
        super().__init__()
        self.decls = decls

    def __missing__(self, name: str):
        decl = self.decls[name]
        const = self[name] = Const(name, _type_of_text(decl[len(name) + 3 :]))
        return const


class _RecordPass:
    """One check of a problem text, record by record.

    The text is split at each line that starts with thf(, which leaves each
    record's text after its thf( as the memo keys it; what comes before the
    first such line is its head, which must be comments as render_doc
    writes them.  A record the memo holds is a hit, checked with no parse,
    when the name its entry gives is new and an earlier type record makes
    each declaration of the entry.  A run of the other records is parsed
    by one parser, which reads one record's tokens at a time, and each
    record is typechecked, rendered and compared with its own text right
    after its parse, so that only strings outlive it (run).  The
    diagnostics are those of parsing the whole run first: after a parse
    error the caller returns that error alone, or starts again with a fresh
    pass.  A parse error in a run that more records of the memo follow is
    found again with no hits, so the whole text is one run and its first
    error is the one a parse of the whole text meets.  The layout decides
    the rest of the canonical form: type records, then premises, then the
    conjecture, and a final newline.
    """

    def __init__(self, memo: RecordMemo):
        self.memo = memo
        self.names: set = set()
        self.declared: set = set()  # the declaration of each type record so far
        self.pending: list = []  # declarations of type records that hit, not yet in decls
        self.decls: dict = {}  # constant -> its declaration, for memo entries
        self.consts = _Consts(self.decls)  # constant -> Const node, for parsing runs
        self.phase = 0  # the _RANK of the last record
        self.canonical = True
        self.conjecture = False
        self.diags: list = []  # of the premises, in order
        self.conj_diags: list = []
        self.fresh: list = []  # (key, entry) of each record parsed

    def check(self, text: str, hits: bool) -> list:
        if text.startswith("thf("):
            first = 0
        else:
            first = text.find("\nthf(") + 1 or len(text)
        end = max(first, len(text) - text.endswith("\n"))
        # each record's text after its leading thf(, as the memo keys it
        records = text[first + 4 : end].split("\nthf(") if first < end else []
        head = text[:first].split("\n")[:-1]
        head_ok = all(line == "%" or line[:2] == "% " and line[2:3] not in ("", " ") for line in head)
        self.canonical = head_ok and end < len(text)
        known = self.memo.entries if hits and head_ok else {}
        self.at = (0, first)  # a record's index and the offset of its thf(
        names, declared, pending = self.names, self.declared, self.pending
        start = 0  # the first record of the run being collected
        for i, record in enumerate(records):
            entry = known.get(record)
            if entry is None:
                continue
            if start < i and self.run(text, records, start, i):
                return _RecordPass(self.memo).check(text, False)
            role, name = entry[0], entry[1]
            if name in names or role != "type" and not declared.issuperset(entry[2:]):
                start = i
                continue
            names.add(name)
            rank = _RANK[role]
            if rank < self.phase:
                self.canonical = False
            self.phase = rank
            if rank == 0:
                declared.add(entry[2])
                pending.append(entry[2])
            elif rank == 2:
                self.conjecture = True
            start = i + 1
        if start < len(records) or not records:
            error = self.run(text, records, start, len(records))
            if error:
                return [error]
        if not self.conjecture:
            return ["parse error: missing conjecture"]
        diags = self.diags + self.conj_diags
        if not self.canonical:
            diags.append("text is not in canonical form (render of parse differs)")
        elif not diags:
            self.memo.add(self.fresh)
        return diags

    def offset(self, records: list, j: int) -> int:
        """The offset in the text of the thf( of records[j]; j never decreases."""
        i, at = self.at
        at += sum(map(len, records[i:j])) + 5 * (j - i)  # each with its \nthf(
        self.at = (j, at)
        return at

    def run(self, text: str, records: list, a: int, b: int) -> str:
        """Check records[a:b], a run the memo does not confirm: its parse error, or "".

        The run is the text of records[a:b], each with its thf(, the head
        too when a is 0, and what follows the last record when b is past
        it, so with no hits the run is the whole text.  Each record parsed
        is compared with the next of records[a:b].
        """
        consts, decls = self.consts, self.decls
        for decl in self.pending:
            decls[decl[: decl.index(" : ")]] = decl
        self.pending.clear()
        start = self.offset(records, a) if a else 0
        stop = self.offset(records, b) - 1 if b < len(records) else len(text)
        own = iter(records[a:b])  # the text of each record of the run, after its thf(
        try:
            parser = _Parser(text[start:stop])
            reads = parser.reads
            while parser.peek():
                # each record is checked as soon as it is parsed; any of the
                # parse, typecheck and render_term may meet the recursion
                # limit: the parser reads a flat chain (a & b & ...) in a loop
                # but builds it right-nested, and typecheck and render_term
                # recurse once per link, so 800 conjuncts pass the parse and
                # fail the typecheck
                name, role, body = parser.record(consts, self.names)
                record = next(own, None)
                read = tuple(reads)
                reads.clear()
                rank = _RANK[role]
                if rank < self.phase:
                    self.canonical = False
                self.phase = rank
                if rank == 0:
                    decl = sys.intern(f"{body.name} : {render_type(body.ty)}")
                    decls[body.name] = decl
                    self.declared.add(decl)
                    if self.canonical:
                        self.compare(record, render_record(name, role, decl), ("type", name, decl))
                    continue
                self.conjecture |= rank == 2
                diags = self.conj_diags if rank == 2 else self.diags
                try:
                    ty = typecheck(body)
                    if ty != OMICRON:
                        diags.append(f"{name}: formula has type {render_type(ty)}, not $o")
                except TypeMismatch as err:
                    diags.append(f"{name}: ill-typed: {err}")
                if self.canonical:
                    entry = (sys.intern(role), name, *map(decls.__getitem__, read))
                    self.compare(record, render_record(name, role, render_term(body)), entry)
        except RecursionError:
            return "parse error: formulas nested too deeply"
        except Th0Error as err:
            if not err.line:
                return f"parse error: {err}"
            # the run starts at a line of its own: only the line moves
            err.line += text.count("\n", 0, start)
            return f"parse error at {err.line}:{err.col}: {err}"
        return ""

    def compare(self, record: str | None, rendered: str, entry: tuple) -> None:
        """Keep the memo entry of a record whose render is its text: thf( and record."""
        # each record starts a line with thf( and its continuation lines
        # start with spaces, so the records of a canonical run are these;
        # a parse that reads one's thf( as part of the record before fails
        if record is not None and len(rendered) == len(record) + 4 and rendered.endswith(record):
            self.fresh.append((record, entry))
        else:
            self.canonical = False
