"""Abstract syntax for the supported SUO-KIF fragment and its lowering.

The fragment is first-order logic plus row variables (at most one per
argument spine), variable-arity relation application, class-formation terms
(KappaFn), and signed decimal rationals.  Modal and temporal forms are
detected by head symbol and skipped rather than translated.  Lowering reads
a form once, in the order of the AST it builds, and finds as it goes the
form's free variables (which Assertion and Query carry) and its skip head.

A connective or a quantifier is one node kind that carries its KIF head as
op: Connective, Quantified over ordinary variables, RowQuantified over a row
variable.  Every KIF head over exactly two terms is a Binary that carries
its head as op: the arithmetic functions where a term stands, and equal,
instance, subclass and the two comparisons where a formula stands.

Nodes are slotted dataclasses that compare and hash by class and fields.
They are immutable by contract, not frozen, because a frozen dataclass pays
for object.__setattr__ on every construction.  A knowledge base's lowered
forms are shared by every query posed against its image, and translated
again when a query changes the signature, so no code assigns to a field of
a node once it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .sexpr import (
    ATOM_CONSTANT,
    ATOM_NUMERAL,
    ATOM_ROWVAR,
    ATOM_STRING,
    ATOM_VARIABLE,
    Atom,
    KifSyntaxError,
    SList,
    Span,
)

# ---------------------------------------------------------------------------
# Terms


@dataclass(slots=True, unsafe_hash=True)
class Var:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Const:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Rat:
    """Signed decimal rational, normalized so the scale is minimal.

    The denoted value is num / 10**scale; scale 0 means an integer.
    """

    num: int
    scale: int


@dataclass(slots=True, unsafe_hash=True)
class TermSpine:
    items: tuple


@dataclass(slots=True, unsafe_hash=True)
class RowSpine:
    prefix: tuple
    row: str
    suffix: tuple


@dataclass(slots=True, unsafe_hash=True)
class Apply:
    """An application: a function term, or a relation atom where a formula stands."""

    head: object  # Var or Const
    spine: object  # TermSpine or RowSpine


@dataclass(slots=True, unsafe_hash=True)
class Kappa:
    var: str
    body: object


@dataclass(slots=True, unsafe_hash=True)
class Binary:
    """Two terms under a KIF head, its op: arithmetic, or an atom where a formula stands."""

    op: str
    left: object
    right: object


# ---------------------------------------------------------------------------
# Formulas


@dataclass(slots=True, unsafe_hash=True)
class Connective:
    """A connective over its operands; op is its KIF head: not, =>, <=>, and or or."""

    op: str
    items: tuple


@dataclass(slots=True, unsafe_hash=True)
class Quantified:
    """A quantifier over ordinary variables; op is its KIF head: forall or exists."""

    op: str
    names: tuple
    body: object


@dataclass(slots=True, unsafe_hash=True)
class RowQuantified:
    """A quantifier over one row variable; op is its KIF head: forall or exists."""

    op: str
    name: str
    body: object


# ---------------------------------------------------------------------------
# Lowering results and errors


# free: the form's free variables, (name, is_row) pairs in first-occurrence
# order; out of repr, which the pinned lowering digests hash
@dataclass(slots=True, unsafe_hash=True)
class Assertion:
    formula: object
    span: Span
    free: tuple = field(repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Query:
    formula: object
    span: Span
    free: tuple = field(repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Skipped:
    reason: str
    span: Span


class LowerError(KifSyntaxError):
    pass


class TwoRowVarsInSpine(LowerError):
    pass


class MalformedBinder(LowerError):
    pass


class UnknownSyntax(LowerError):
    pass


class BadNumeral(LowerError):
    pass


class TooManyArguments(LowerError):
    pass


# An argument list and a numeral are flat in SUO-KIF but right-nested chains
# in THF, and a declared argument index is a relation's arity, so these bound
# how deep the translation of a flat form nests.  Past them an argument list
# is refused at the list, a numeral at the numeral, and an index at its
# declaration (signature._decl_index).
MAX_ARGUMENTS = 200
MAX_DIGITS = 100


DEFAULT_SKIP_HEADS = ("modalAttribute", "holdsDuring")

# the KIF heads that lower to a Binary where a term stands, and where a formula stands
_BINARY_FUNCTIONS = frozenset(["AdditionFn", "SubtractionFn", "MultiplicationFn", "DivisionFn"])
_BINARY_ATOMS = frozenset(["equal", "instance", "subclass", "lessThan", "lessThanOrEqualTo"])


def parse_numeral(lexeme: str) -> Rat:
    """Parse a signed decimal numeral into a normalized Rat.

    Trailing zeros of the fractional part are stripped so that the scale is
    minimal: "3.50" denotes the same Rat as "3.5".
    """
    text = lexeme
    sign = 1
    if text.startswith("+"):
        text = text[1:]
    elif text.startswith("-"):
        sign = -1
        text = text[1:]
    if "." in text:
        whole, frac = text.split(".", 1)
    else:
        whole, frac = text, ""
    if not whole.isdigit() or (frac and not frac.isdigit()) or ("." in frac):
        raise BadNumeral(f"malformed numeral {lexeme!r}")
    num = sign * int(whole + frac) if (whole + frac) else 0
    scale = len(frac)
    while scale > 0 and num % 10 == 0:
        num //= 10
        scale -= 1
    if num == 0:
        scale = 0
    return Rat(num, scale)


def _contains_skip_head(sx, skip_heads) -> str | None:  # the first, in source order
    if isinstance(sx, SList) and sx.items:
        head = sx.items[0]
        if isinstance(head, Atom) and head.kind == ATOM_CONSTANT and head.lexeme in skip_heads:
            return head.lexeme
        for item in sx.items:
            found = _contains_skip_head(item, skip_heads)
            if found is not None:
                return found
    return None


class _SkipHead(Exception):
    """Stops lowering at the first list head that is a skip head; args[0] is that head."""


def _row_free_in_term(term) -> bool:
    # a class-formation body is a formula of its own, not part of the spine
    if isinstance(term, RowSpine):
        return True
    return not isinstance(term, Kappa) and any(_row_free_in_term(c) for c in children(term))


def _binder_list(sx, body_sx) -> list:
    """The (name, is_row) pairs of a quantifier's binder list, in source order."""
    if not isinstance(sx, SList) or not sx.items:
        raise MalformedBinder("binder list must be a non-empty list", sx.span)
    binders = []
    for item in sx.items:
        if not (isinstance(item, Atom) and item.kind in (ATOM_VARIABLE, ATOM_ROWVAR)):
            raise MalformedBinder("binder list may contain only variables", sx.span)
        binders.append((item.lexeme, item.kind == ATOM_ROWVAR))
    if isinstance(body_sx, Atom):
        raise MalformedBinder("quantifier body is not a formula", body_sx.span)
    return binders


def _wrap_binders(binders, body, op: str):
    # consecutive ordinary variables share one quantifier node; each row
    # variable gets its own node, preserving source order
    out = body
    runs = [(is_row, [n for n, _ in run]) for is_row, run in groupby(binders, itemgetter(1))]
    for is_row, run in reversed(runs):
        if is_row:
            for name in reversed(run):
                out = RowQuantified(op, name, out)
        else:
            out = Quantified(op, tuple(run), out)
    return out


# a connective of a fixed number of operands -> (that number, in words)
_FIXED_OPERANDS = {"not": (1, "one operand"), "=>": (2, "two operands"), "<=>": (2, "two operands")}


class _Lowering:
    """The lowering of one form, the one place its free variables are found.

    bound holds the (name, is_row) pairs of the binders in scope; any other
    occurrence joins free.  The first list head that is a skip head stops it.
    """

    __slots__ = ("skip_heads", "free")

    def __init__(self, skip_heads):
        self.skip_heads = skip_heads
        self.free: dict = {}  # (name, is_row) -> None

    def term(self, sx, bound):
        if isinstance(sx, Atom):
            if sx.kind == ATOM_VARIABLE:
                if (sx.lexeme, False) not in bound:
                    self.free.setdefault((sx.lexeme, False), None)
                return Var(sx.lexeme)
            if sx.kind == ATOM_ROWVAR:
                raise UnknownSyntax("row variable used as a term", sx.span)
            if sx.kind == ATOM_NUMERAL:
                if len(sx.lexeme) > MAX_DIGITS:  # only then can it hold that many digits
                    digits = sum(ch.isdigit() for ch in sx.lexeme)
                    if digits > MAX_DIGITS:
                        raise BadNumeral(f"numeral of {digits} digits is too long", sx.span)
                return parse_numeral(sx.lexeme)
            if sx.kind == ATOM_STRING:
                raise UnknownSyntax("string literals are outside the fragment", sx.span)
            return Const(sx.lexeme)
        if not isinstance(sx, SList) or not sx.items:
            raise UnknownSyntax("empty application", sx.span)
        head = sx.items[0]
        if isinstance(head, SList):
            raise UnknownSyntax("compound head is outside the fragment", head.span)
        if head.kind == ATOM_VARIABLE:
            return Apply(self.term(head, bound), self.spine(sx.items[1:], sx, bound))
        if head.kind != ATOM_CONSTANT:
            raise UnknownSyntax("bad application head", head.span)
        name = head.lexeme
        if name in self.skip_heads:
            raise _SkipHead(name)
        if name == "KappaFn":
            var = sx.items[1] if len(sx.items) == 3 else None
            if not (isinstance(var, Atom) and var.kind == ATOM_VARIABLE):
                raise MalformedBinder("KappaFn expects a variable and a body", sx.span)
            return Kappa(var.lexeme, self.formula(sx.items[2], bound | {(var.lexeme, False)}))
        if name in _BINARY_FUNCTIONS:
            if len(sx.items) != 3:
                raise UnknownSyntax(f"{name} expects exactly two arguments", sx.span)
            left = self.term(sx.items[1], bound)
            return Binary(name, left, self.term(sx.items[2], bound))
        return Apply(Const(name), self.spine(sx.items[1:], sx, bound))

    def spine(self, items, owner, bound):
        # owner is the list the spine is read from; its span, read only to
        # report an error, locates a nested row variable or too long a list
        if len(items) > MAX_ARGUMENTS:
            message = f"{len(items)} arguments are more than {MAX_ARGUMENTS}"
            raise TooManyArguments(message, owner.span)
        row, prefix, suffix = None, [], []
        for sx in items:
            if isinstance(sx, Atom) and sx.kind == ATOM_ROWVAR:
                if row is not None:
                    raise TwoRowVarsInSpine("more than one row variable in a spine", sx.span)
                row = sx.lexeme
                if (row, True) not in bound:
                    self.free.setdefault((row, True), None)
                continue
            term = self.term(sx, bound)
            (suffix if row is not None else prefix).append(term)
        if row is None:
            return TermSpine(tuple(prefix))
        for term in prefix + suffix:
            if _row_free_in_term(term):
                message = "row variable nested inside a row-variable spine"
                raise TwoRowVarsInSpine(message, owner.span)
        return RowSpine(tuple(prefix), row, tuple(suffix))

    def formula(self, sx, bound):
        if isinstance(sx, Atom):
            raise UnknownSyntax("expected a formula", sx.span)
        if not sx.items:
            raise UnknownSyntax("empty form", sx.span)
        head = sx.items[0]
        if isinstance(head, SList):
            raise UnknownSyntax("compound head is outside the fragment", head.span)
        if head.kind == ATOM_VARIABLE:
            return Apply(self.term(head, bound), self.spine(sx.items[1:], sx, bound))
        if head.kind != ATOM_CONSTANT:
            raise UnknownSyntax("bad formula head", head.span)
        name = head.lexeme
        if name in self.skip_heads:
            raise _SkipHead(name)
        args = sx.items[1:]
        if name in ("forall", "exists"):
            if len(args) != 2:
                raise MalformedBinder(f"{name} expects a binder list and a body", sx.span)
            binders = _binder_list(args[0], args[1])
            body = self.formula(args[1], bound.union(binders))
            return _wrap_binders(binders, body, name)
        if name in ("and", "or"):
            if not args:
                raise UnknownSyntax(f"({name}) with no operands", sx.span)
            if len(args) == 1:
                return self.formula(args[0], bound)
            return Connective(name, tuple([self.formula(a, bound) for a in args]))
        fixed = _FIXED_OPERANDS.get(name)
        if fixed is not None:
            if len(args) != fixed[0]:
                raise UnknownSyntax(f"{name} expects {fixed[1]}", sx.span)
            return Connective(name, tuple([self.formula(a, bound) for a in args]))
        if name in _BINARY_ATOMS:
            if len(args) != 2:
                raise UnknownSyntax(f"{name} expects two arguments", sx.span)
            left = self.term(args[0], bound)
            return Binary(name, left, self.term(args[1], bound))
        return Apply(Const(name), self.spine(args, sx, bound))


def lower(form, skip_heads=DEFAULT_SKIP_HEADS):
    """Lower one top-level s-expression to Assertion, Query, or Skipped.

    A form is Skipped when the head of one of its lists is a skip head; the
    reason names the first in source order.  Lowering stops at that head.
    Only a form that lowering cannot read is searched for one, so that a
    skip head under syntax outside the fragment still skips its form.
    """
    span = form.span
    lowering = _Lowering(skip_heads)
    head = form.items[0] if isinstance(form, SList) and form.items else None
    try:
        if isinstance(head, Atom) and head.kind == ATOM_CONSTANT and head.lexeme == "query":
            if "query" in skip_heads:
                raise _SkipHead("query")
            if len(form.items) != 2:
                raise UnknownSyntax("query expects one formula", span)
            formula = lowering.formula(form.items[1], frozenset())
            return Query(formula, span, tuple(lowering.free))
        formula = lowering.formula(form, frozenset())
        return Assertion(formula, span, tuple(lowering.free))
    except _SkipHead as found:
        reason = found.args[0]
    except LowerError:
        reason = _contains_skip_head(form, skip_heads)
        if reason is None:
            raise
    return Skipped(f"modal head {reason!r}", span)


# ---------------------------------------------------------------------------
# The traversal table


VAR_BINDER = "var"
ROW_BINDER = "row"


class Shape(NamedTuple):
    fields: tuple  # child fields, in visit order
    binder: tuple | None = None  # (kind, field): the name(s) in field, bound over every child


# The one traversal table.  A child field holds a node or a tuple of nodes;
# RowSpine.row alone holds a string, the name of an occurring row variable,
# visited between the prefix and the suffix.  Visit order is output order
# (quantifier and guard order), so reordering fields changes problems.
SHAPES = {
    Var: Shape(()),
    Const: Shape(()),
    Rat: Shape(()),
    TermSpine: Shape(("items",)),
    RowSpine: Shape(("prefix", "row", "suffix")),
    Apply: Shape(("head", "spine")),
    Kappa: Shape(("body",), (VAR_BINDER, "var")),
    Binary: Shape(("left", "right")),
    Connective: Shape(("items",)),
    Quantified: Shape(("body",), (VAR_BINDER, "names")),
    RowQuantified: Shape(("body",), (ROW_BINDER, "name")),
}


def shape(node) -> Shape:
    try:
        return SHAPES[type(node)]
    except KeyError:
        raise TypeError(f"not a fragment node: {node!r}") from None


def children(node) -> list:
    """The children of a node in table order, tuple fields spread out."""
    out = []
    for f in shape(node).fields:
        v = getattr(node, f)
        if type(v) is tuple:
            out.extend(v)
        else:
            out.append(v)
    return out


def binder(node):
    """(kind, names) for a binding node, None otherwise."""
    b = shape(node).binder
    if b is None:
        return None
    names = getattr(node, b[1])
    return b[0], (names,) if type(names) is str else names


def variable_names(node, names=None) -> set:
    """Every variable and row variable name in a formula, bound or free."""
    if names is None:
        names = set()
    if type(node) is str:  # a row variable occurrence
        names.add(node)
    elif type(node) is Var:
        names.add(node.name)
    else:
        b = binder(node)
        if b is not None:
            names.update(b[1])
        for child in children(node):
            variable_names(child, names)
    return names
