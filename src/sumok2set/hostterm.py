"""Simply typed term language over sets (iota) and propositions (omicron).

Terms are slotted dataclasses that compare and hash by class and fields.
They are immutable by contract, not frozen, because a frozen dataclass pays
for object.__setattr__ on every construction.  Terms are hashed and shared
(the constants of catalog.cc, the memo of minted constants in
Translator.resolve, the THF reader's shared Const and Var nodes), so no
code assigns to a field of a term once it is built.  The language is
Church's simply typed lambda calculus, Var, Const, App and Lam, and lambda
is its only binder: membership, subset, if-then-else and separation are no
node kinds but the catalog constants in, subq, ite and sep applied like any
other, a separation as sep @ A @ (^[X : $i]: P).  The connectives, truth
values and equality are no node kinds either but the logical constants of
Church's simple type theory, named as THF spells them: one shared Const
each, applied like any other constant, so a conjunction is
App(App(CONJ, A), B) and eq(A, B) is App(App(EQUALS, A), B).  Each is typed
as TH0 types it ((&) : $o > $o > $o) but =, which is polymorphic: typecheck
alone types it, by its operands, and only applied to two.  So are the
quantifiers !! and ??, one shared Const per binder type applied to a
lambda: forall(X, ty, P) is App(!!, ^[X : ty]: P).  A lambda is checked
against the type expected of it (Dunfield and Krishnaswami, "Bidirectional
Typing", 2021), so an ill-typed quantifier body reads "expected $o, found
$i".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple


class HostType:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Base(HostType):
    tag: str  # "i" or "o"

    def __repr__(self) -> str:
        return "$" + self.tag


@dataclass(slots=True, unsafe_hash=True)
class Arrow(HostType):
    dom: HostType
    cod: HostType

    def __repr__(self) -> str:
        return f"({self.dom!r} > {self.cod!r})"


IOTA = Base("i")
OMICRON = Base("o")


def arrow(*tys: HostType) -> HostType:
    """Right-associated function type over the given components."""
    if not tys:
        raise ValueError("arrow needs at least one type")
    out = tys[-1]
    for t in reversed(tys[:-1]):
        out = Arrow(t, out)
    return out


@dataclass(slots=True, unsafe_hash=True)
class Var:
    name: str
    ty: HostType


@dataclass(slots=True, unsafe_hash=True)
class Const:
    name: str
    ty: HostType


@dataclass(slots=True, unsafe_hash=True)
class App:
    fn: object
    arg: object


@dataclass(slots=True, unsafe_hash=True)
class Lam:
    name: str
    ty: HostType
    body: object


# The logical constants, one shared node each; LOGICAL maps each name to it.
TRUE, FALSE = Const("$true", OMICRON), Const("$false", OMICRON)
NEG = Const("~", Arrow(OMICRON, OMICRON))
CONJ, DISJ, IMP, IFF = (Const(op, Arrow(OMICRON, NEG.ty)) for op in ("&", "|", "=>", "<=>"))
# = is polymorphic: its type here is that between sets, which typecheck never reads
EQUALS = Const("=", Arrow(IOTA, Arrow(IOTA, OMICRON)))
LOGICAL = {c.name: c for c in (TRUE, FALSE, NEG, CONJ, DISJ, IMP, IFF, EQUALS)}

FORALL, EXISTS = "!!", "??"  # the quantifiers, Church's Pi and Sigma as THF spells them


@functools.cache
def quantifier(mark: str, ty: HostType) -> Const:
    """The one node of quantifier mark over ty, made on first use: mark : (ty > $o) > $o."""
    return Const(mark, Arrow(Arrow(ty, OMICRON), OMICRON))


def forall(name: str, ty: HostType, body):
    return App(quantifier(FORALL, ty), Lam(name, ty, body))


def exists(name: str, ty: HostType, body):
    return App(quantifier(EXISTS, ty), Lam(name, ty, body))


class TypeMismatch(Exception):
    def __init__(self, message: str, term=None):
        super().__init__(message)
        self.term = term


def app(fn, *args):
    out = fn
    for a in args:
        out = App(out, a)
    return out


def eq(left, right):
    return App(App(EQUALS, left), right)


def imp_chain(antecedents, body):
    out = body
    for g in reversed(list(antecedents)):
        out = App(App(IMP, g), out)
    return out


def conj_chain(conjuncts, body):
    out = body
    for g in reversed(list(conjuncts)):
        out = App(App(CONJ, g), out)
    return out


def typecheck(term, env: dict | None = None) -> HostType:
    """Infer the type of a term; raise TypeMismatch when ill-typed."""
    return _check(term, env or {})


# The recursive helpers here and below are module-level functions, not
# closures: a closure that calls itself is a reference cycle, garbage that
# only a full collection frees.


def _expect(t, want, ctx):
    # a lambda against a function type of its domain: its body against the codomain
    if type(t) is Lam and type(want) is Arrow and (t.ty is want.dom or t.ty == want.dom):
        _expect(t.body, want.cod, {**ctx, t.name: t.ty})
        return want
    got = _check(t, ctx)
    if got is not want and got != want:
        raise TypeMismatch(f"expected {want!r}, found {got!r}", t)
    return got


def _check(t, ctx) -> HostType:
    cls = type(t)
    if cls is App:
        fn = t.fn
        if type(fn) is App and type(fn.fn) is Const and fn.fn.name == EQUALS.name:
            # an equation, between two terms of one type: = is polymorphic
            lt, rt = _check(fn.arg, ctx), _check(t.arg, ctx)
            if lt is not rt and lt != rt:
                raise TypeMismatch(f"equation between {lt!r} and {rt!r}", t)
            return OMICRON
        fn_ty = _check(fn, ctx)
        if type(fn_ty) is not Arrow:
            raise TypeMismatch(f"applied non-function of type {fn_ty!r}", t)
        _expect(t.arg, fn_ty.dom, ctx)
        return fn_ty.cod
    if cls is Const:
        if t.name == EQUALS.name:
            raise TypeMismatch("= applied to fewer than two operands", t)
        return t.ty
    if cls is Var:
        bound = ctx.get(t.name)
        if bound is not None and bound != t.ty:
            raise TypeMismatch(f"variable {t.name} bound at {bound!r}, used at {t.ty!r}", t)
        return t.ty
    if cls is Lam:
        return Arrow(t.ty, _check(t.body, {**ctx, t.name: t.ty}))
    raise TypeMismatch(f"unknown term {t!r}", t)


# ---------------------------------------------------------------------------
# Traversal


class Shape(NamedTuple):
    fields: tuple  # sub-term fields, in visit order
    scoped: tuple = ()  # the fields the node's bound variable `name` scopes over


# The one traversal table: every structural walk below is a fold over it.
# Visit order is output order (declarations, hoisted parameters, sep_
# definitions), so reordering fields here changes rendered problems.
SHAPES = {
    Var: Shape(()),
    Const: Shape(()),
    App: Shape(("fn", "arg")),
    Lam: Shape(("body",), ("body",)),
}


def _getter(fs):
    """A function from a node to the named fields' values, as a tuple."""
    if len(fs) == 1:
        return lambda t, get=attrgetter(fs[0]): (get(t),)
    return attrgetter(*fs) if fs else (lambda t: ())


# Derived from the table once: each class's sub-term getter.
_CHILDREN = {cls: _getter(s.fields) for cls, s in SHAPES.items()}


def shape(t) -> Shape:
    try:
        return SHAPES[type(t)]
    except KeyError:
        raise TypeError(f"not a host term: {t!r}") from None


def children(t) -> tuple:
    """The sub-terms of t, in table order."""
    try:
        return _CHILDREN[type(t)](t)
    except KeyError:
        raise TypeError(f"not a host term: {t!r}") from None


def rebuild(t, kids):
    """A node like t whose sub-terms are kids, in children order."""
    if not kids:
        return t
    # sub-terms come last in every constructor; a lambda keeps its name and type
    return Lam(t.name, t.ty, *kids) if type(t) is Lam else type(t)(*kids)


def free_vars(term) -> list:
    """Free variables in first-occurrence order as (name, ty) pairs."""
    out: dict = {}
    _free_vars(term, frozenset(), out)
    return list(out)


def _free_vars(t, bound, out):
    if type(t) is Var:
        if t.name not in bound:
            out.setdefault((t.name, t.ty), None)
        return
    fs, scoped = shape(t)
    inner = bound | {t.name} if scoped else bound
    for f in fs:
        _free_vars(getattr(t, f), inner if f in scoped else bound, out)
