"""Abstract syntax for the supported SUO-KIF fragment and its lowering.

The fragment is first-order logic plus row variables (at most one per
argument spine), variable-arity relation application, class-formation terms
(KappaFn), and signed decimal rationals.  Modal and temporal forms are
detected by head symbol and skipped rather than translated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import sexpr
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

REAL = "real"
NEGREAL = "negreal"
NONNEGREAL = "nonnegreal"

ARITH_ADD = "+"
ARITH_SUB = "-"
ARITH_MULT = "*"
ARITH_DIV = "/"


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    name: str


@dataclass(frozen=True, slots=True)
class Rat:
    """Signed decimal rational, normalized so the scale is minimal.

    The denoted value is num / 10**scale; scale 0 means an integer.
    """

    num: int
    scale: int


@dataclass(frozen=True, slots=True)
class Builtin:
    which: str  # REAL | NEGREAL | NONNEGREAL


@dataclass(frozen=True, slots=True)
class TermSpine:
    items: tuple


@dataclass(frozen=True, slots=True)
class RowSpine:
    prefix: tuple
    row: str
    suffix: tuple


@dataclass(frozen=True, slots=True)
class Apply:
    head: object  # Var or Const
    spine: object  # TermSpine or RowSpine


@dataclass(frozen=True, slots=True)
class Kappa:
    var: str
    body: object


@dataclass(frozen=True, slots=True)
class Arith:
    op: str
    left: object
    right: object


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True, slots=True)
class Bot:
    pass


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Not:
    body: object


@dataclass(frozen=True, slots=True)
class Impl:
    ante: object
    cons: object


@dataclass(frozen=True, slots=True)
class Iff:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class And:
    items: tuple


@dataclass(frozen=True, slots=True)
class Or:
    items: tuple


@dataclass(frozen=True, slots=True)
class ForallVars:
    names: tuple
    body: object


@dataclass(frozen=True, slots=True)
class ExistsVars:
    names: tuple
    body: object


@dataclass(frozen=True, slots=True)
class ForallRow:
    name: str
    body: object


@dataclass(frozen=True, slots=True)
class ExistsRow:
    name: str
    body: object


@dataclass(frozen=True, slots=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Instance:
    member: object
    cls: object


@dataclass(frozen=True, slots=True)
class Subclass:
    sub: object
    sup: object


@dataclass(frozen=True, slots=True)
class Le:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Lt:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class RelAtom:
    head: object  # Const or Var
    spine: object


# ---------------------------------------------------------------------------
# Lowering results and errors


@dataclass(frozen=True, slots=True)
class Assertion:
    formula: object
    span: Span


@dataclass(frozen=True, slots=True)
class Query:
    formula: object
    span: Span


@dataclass(frozen=True, slots=True)
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


DEFAULT_SKIP_HEADS = ("modalAttribute", "holdsDuring")

_BUILTIN_NAMES = {
    "RealNumber": REAL,
    "NegativeRealNumber": NEGREAL,
    "NonnegativeRealNumber": NONNEGREAL,
}

_ARITH_NAMES = {
    "AdditionFn": ARITH_ADD,
    "SubtractionFn": ARITH_SUB,
    "MultiplicationFn": ARITH_MULT,
    "DivisionFn": ARITH_DIV,
}


def parse_numeral(lexeme: str, span: Span | None = None) -> Rat:
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
        raise BadNumeral(f"malformed numeral {lexeme!r}", span or Span("<numeral>", 1, 1))
    num = sign * int(whole + frac) if (whole + frac) else 0
    scale = len(frac)
    while scale > 0 and num % 10 == 0:
        num //= 10
        scale -= 1
    if num == 0:
        scale = 0
    return Rat(num, scale)


def _contains_skip_head(sx, skip_heads) -> str | None:
    if isinstance(sx, SList) and sx.items:
        head = sx.items[0]
        if isinstance(head, Atom) and head.kind == ATOM_CONSTANT and head.lexeme in skip_heads:
            return head.lexeme
        for item in sx.items:
            found = _contains_skip_head(item, skip_heads)
            if found is not None:
                return found
    return None


def _lower_term(sx):
    if isinstance(sx, Atom):
        if sx.kind == ATOM_VARIABLE:
            return Var(sx.lexeme)
        if sx.kind == ATOM_ROWVAR:
            raise UnknownSyntax("row variable used as a term", sx.span)
        if sx.kind == ATOM_NUMERAL:
            try:
                return parse_numeral(sx.lexeme)
            except BadNumeral as err:
                raise BadNumeral(err.message, sx.span) from None
        if sx.kind == ATOM_STRING:
            raise UnknownSyntax("string literals are outside the fragment", sx.span)
        if sx.lexeme in _BUILTIN_NAMES:
            return Builtin(_BUILTIN_NAMES[sx.lexeme])
        return Const(sx.lexeme)
    if not isinstance(sx, SList) or not sx.items:
        raise UnknownSyntax("empty application", sx.span)
    head = sx.items[0]
    if isinstance(head, SList):
        raise UnknownSyntax("compound head is outside the fragment", head.span)
    if head.kind == ATOM_CONSTANT and head.lexeme == "KappaFn":
        if len(sx.items) != 3 or not (
            isinstance(sx.items[1], Atom) and sx.items[1].kind == ATOM_VARIABLE
        ):
            raise MalformedBinder("KappaFn expects a variable and a body", sx.span)
        return Kappa(sx.items[1].lexeme, _lower_formula(sx.items[2]))
    if head.kind == ATOM_CONSTANT and head.lexeme in _ARITH_NAMES:
        if len(sx.items) != 3:
            raise UnknownSyntax(
                f"{head.lexeme} expects exactly two arguments", sx.span
            )
        return Arith(
            _ARITH_NAMES[head.lexeme],
            _lower_term(sx.items[1]),
            _lower_term(sx.items[2]),
        )
    if head.kind == ATOM_VARIABLE:
        return Apply(Var(head.lexeme), _lower_spine(sx.items[1:], sx))
    if head.kind == ATOM_CONSTANT:
        return Apply(Const(head.lexeme), _lower_spine(sx.items[1:], sx))
    raise UnknownSyntax("bad application head", head.span)


def _row_free_in_term(term) -> bool:
    # a class-formation body is a formula of its own, not part of the spine
    if isinstance(term, RowSpine):
        return True
    return not isinstance(term, Kappa) and any(_row_free_in_term(c) for c in children(term))


def _lower_spine(items, owner):
    # owner is the list the spine is read from; its span, read only to
    # report an error, locates a nested row variable
    row = None
    prefix: list = []
    suffix: list = []
    for sx in items:
        if isinstance(sx, Atom) and sx.kind == ATOM_ROWVAR:
            if row is not None:
                raise TwoRowVarsInSpine("more than one row variable in a spine", sx.span)
            row = sx.lexeme
            continue
        term = _lower_term(sx)
        (suffix if row is not None else prefix).append(term)
    if row is None:
        return TermSpine(tuple(prefix))
    for term in prefix + suffix:
        if _row_free_in_term(term):
            raise TwoRowVarsInSpine(
                "row variable nested inside a row-variable spine", owner.span
            )
    return RowSpine(tuple(prefix), row, tuple(suffix))


def _lower_binders(sx, body_sx):
    if not isinstance(sx, SList) or not sx.items:
        raise MalformedBinder("binder list must be a non-empty list", sx.span)
    binders = []
    for item in sx.items:
        if isinstance(item, Atom) and item.kind == ATOM_VARIABLE:
            binders.append((item.lexeme, False))
        elif isinstance(item, Atom) and item.kind == ATOM_ROWVAR:
            binders.append((item.lexeme, True))
        else:
            raise MalformedBinder("binder list may contain only variables", sx.span)
    if isinstance(body_sx, Atom):
        raise MalformedBinder("quantifier body is not a formula", body_sx.span)
    return binders, _lower_formula(body_sx)


def _wrap_binders(binders, body, universal: bool):
    # consecutive ordinary variables share one quantifier node; each row
    # variable gets its own node, preserving source order
    out = body
    run: list = []

    def flush():
        nonlocal out
        if run:
            out = (ForallVars if universal else ExistsVars)(tuple(run), out)
            run.clear()

    for name, is_row in reversed(binders):
        if is_row:
            flush()
            out = (ForallRow if universal else ExistsRow)(name, out)
        else:
            run.insert(0, name)
    flush()
    return out


def _lower_formula(sx):
    if isinstance(sx, Atom):
        raise UnknownSyntax("expected a formula", sx.span)
    if not sx.items:
        raise UnknownSyntax("empty form", sx.span)
    head = sx.items[0]
    if isinstance(head, SList):
        raise UnknownSyntax("compound head is outside the fragment", head.span)
    name = head.lexeme if head.kind == ATOM_CONSTANT else None
    args = sx.items[1:]
    if name in ("forall", "exists"):
        if len(args) != 2:
            raise MalformedBinder(f"{name} expects a binder list and a body", sx.span)
        binders, body = _lower_binders(args[0], args[1])
        return _wrap_binders(binders, body, universal=(name == "forall"))
    if name in ("and", "or"):
        if not args:
            raise UnknownSyntax(f"({name}) with no operands", sx.span)
        items = tuple(_lower_formula(a) for a in args)
        if len(items) == 1:
            return items[0]
        return (And if name == "and" else Or)(items)
    if name == "not":
        if len(args) != 1:
            raise UnknownSyntax("not expects one operand", sx.span)
        return Not(_lower_formula(args[0]))
    if name == "=>":
        if len(args) != 2:
            raise UnknownSyntax("=> expects two operands", sx.span)
        return Impl(_lower_formula(args[0]), _lower_formula(args[1]))
    if name == "<=>":
        if len(args) != 2:
            raise UnknownSyntax("<=> expects two operands", sx.span)
        return Iff(_lower_formula(args[0]), _lower_formula(args[1]))
    if name in ("equal", "instance", "subclass", "lessThan", "lessThanOrEqualTo"):
        if len(args) != 2:
            raise UnknownSyntax(f"{name} expects two arguments", sx.span)
        left, right = _lower_term(args[0]), _lower_term(args[1])
        ctor = {
            "equal": Eq,
            "instance": Instance,
            "subclass": Subclass,
            "lessThan": Lt,
            "lessThanOrEqualTo": Le,
        }[name]
        return ctor(left, right)
    if head.kind == ATOM_VARIABLE:
        return RelAtom(Var(head.lexeme), _lower_spine(args, sx))
    if head.kind == ATOM_CONSTANT:
        return RelAtom(Const(head.lexeme), _lower_spine(args, sx))
    raise UnknownSyntax("bad formula head", head.span)


def lower(form, skip_heads=DEFAULT_SKIP_HEADS):
    """Lower one top-level s-expression to Assertion, Query, or Skipped."""
    span = form.span
    reason = _contains_skip_head(form, tuple(skip_heads))
    if reason is not None:
        return Skipped(f"modal head {reason!r}", span)
    if (
        isinstance(form, SList)
        and form.items
        and isinstance(form.items[0], Atom)
        and form.items[0].kind == ATOM_CONSTANT
        and form.items[0].lexeme == "query"
    ):
        if len(form.items) != 2:
            raise UnknownSyntax("query expects one formula", span)
        return Query(_lower_formula(form.items[1]), span)
    return Assertion(_lower_formula(form), span)


# ---------------------------------------------------------------------------
# Free variables and rendering


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
    Builtin: Shape(()),
    TermSpine: Shape(("items",)),
    RowSpine: Shape(("prefix", "row", "suffix")),
    Apply: Shape(("head", "spine")),
    Kappa: Shape(("body",), (VAR_BINDER, "var")),
    Arith: Shape(("left", "right")),
    Bot: Shape(()),
    Top: Shape(()),
    Not: Shape(("body",)),
    Impl: Shape(("ante", "cons")),
    Iff: Shape(("left", "right")),
    And: Shape(("items",)),
    Or: Shape(("items",)),
    ForallVars: Shape(("body",), (VAR_BINDER, "names")),
    ExistsVars: Shape(("body",), (VAR_BINDER, "names")),
    ForallRow: Shape(("body",), (ROW_BINDER, "name")),
    ExistsRow: Shape(("body",), (ROW_BINDER, "name")),
    Eq: Shape(("left", "right")),
    Instance: Shape(("member", "cls")),
    Subclass: Shape(("sub", "sup")),
    Le: Shape(("left", "right")),
    Lt: Shape(("left", "right")),
    RelAtom: Shape(("head", "spine")),
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


def variables(formula):
    """Free variables and every variable name of a formula, in one walk.

    Returns (free, names): free is a list of (name, is_row) pairs in
    first-occurrence order; names is the set of variable and row variable
    names occurring in the formula, bound or free.
    """
    free: dict = {}
    names: set = set()
    _variables(formula, frozenset(), frozenset(), free, names)
    return list(free), names


def _variables(node, bound, rows, free, names):
    # module level, not a closure: a self-calling closure is a reference
    # cycle that only a full collection frees
    if type(node) is str:  # a row variable occurrence
        names.add(node)
        if node not in rows:
            free.setdefault((node, True), None)
        return
    if type(node) is Var:
        names.add(node.name)
        if node.name not in bound:
            free.setdefault((node.name, False), None)
        return
    b = binder(node)
    if b is not None:
        names.update(b[1])
        if b[0] == VAR_BINDER:
            bound = bound | set(b[1])
        else:
            rows = rows | set(b[1])
    for child in children(node):
        _variables(child, bound, rows, free, names)
