"""Type-guard inference for quantified variables.

Each use of a variable as an argument of an applied relation contributes a
membership guard, keyed by the argument position.  Uses as the first
argument of instance contribute membership in the entity universe.  Row
variables pick up whole-spine domain conditions phrased with dom_of.  One
walk finds the guards of every variable a binder group scopes, as one list
in source order, which is the order closing code emits them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import signature as sigmod
from . import sumo
from .catalog import IN, ITE, SUBQ, cc, ord_of
from .hostterm import App, IOTA, Lam, Var, app, eq
from .th0 import host_var, render_term

MEMBER = "member"
SUBSET = "subset"


@dataclass(unsafe_hash=True)
class MemDomseqm:
    relation: object  # host term for the applied relation
    index: int  # 0-based argument position

    def to_term(self, subject):
        return app(IN, subject, app(cc("domseqm"), self.relation, ord_of(self.index)))

    def describe(self) -> str:
        return f"in domseqm of {_describe(self.relation)} at {self.index}"


@dataclass(unsafe_hash=True)
class MemClass:
    cls: object
    mode: str  # MEMBER or SUBSET
    origin: str = field(default="use", compare=False)

    def to_term(self, subject):
        if self.mode == SUBSET:
            return app(SUBQ, subject, self.cls)
        return app(IN, subject, self.cls)

    def describe(self) -> str:
        rel = "subset of" if self.mode == SUBSET else "member of"
        suffix = f" [{self.origin}]" if self.origin != "use" else ""
        return f"{rel} {_describe(self.cls)}{suffix}"


@dataclass(unsafe_hash=True)
class RowDomOf:
    relation: object

    def to_term(self, subject):
        r = self.relation
        return app(
            cc("dom_of"),
            App(cc("vararity"), r),
            App(cc("arity"), r),
            App(cc("domseq"), r),
            subject,
        )

    def describe(self) -> str:
        return f"spine in dom_of of {_describe(self.relation)}"


@dataclass(unsafe_hash=True)
class RowDomOfKnown:
    var_arity: bool
    min_arity: int
    domains: tuple  # host class terms, 0-based, template included when variadic

    def to_term(self, subject):
        chain = cc("emptyset")
        ix = Var("I", IOTA)
        for j in range(len(self.domains) - 1, -1, -1):
            chain = app(ITE, eq(ix, ord_of(j)), self.domains[j], chain)
        dlam = Lam("I", IOTA, chain)
        head = cc("dom_of_varar") if self.var_arity else cc("dom_of_fixedar")
        return app(head, ord_of(self.min_arity), dlam, subject)

    def describe(self) -> str:
        kind = "variadic" if self.var_arity else "fixed"
        return f"spine in expanded {kind} domain of arity {self.min_arity}"


def _describe(term) -> str:
    """The term as the problem writes it, a variable with its KIF ? mark."""
    if isinstance(term, Var):
        return "?" + term.name
    return render_term(term)


def _hvar(name: str) -> Var:
    return Var(host_var(name), IOTA)


def host_domains(info, resolve) -> list:
    """The host domain sequence of a relation with declared argument domains.

    One host class per slot 1..min_arity, resolved in slot order, the power
    set of the class for a domainSubclass slot, and the last one again when
    the relation is variadic.
    """
    domains = []
    for idx in range(1, info.min_arity + 1):
        cls, mode = info.arg_domain[idx]
        host = resolve(cls)
        domains.append(App(cc("power"), host) if mode == sigmod.MODE_SUBCLASS else host)
    if info.var_arity:
        domains += domains[-1:]
    return domains


class _GuardWalk:
    """One walk of a formula, gathering the guards of the variables in scope.

    Every variable position works out its guard, resolving (and so minting)
    the names it needs, before scope decides whether the guard is kept:
    mint order orders the problem's facts and type records.  The head of an
    application is a Var or a Const, the only heads lowering builds.
    """

    __slots__ = ("scope", "sig", "resolve", "expand_known_rows", "found")

    def __init__(self, scope, sig, resolve, expand_known_rows):
        self.scope = scope
        self.sig = sig
        self.resolve = resolve
        self.expand_known_rows = expand_known_rows
        self.found: list = []  # (name, guard), in source order

    def add(self, name, shadowed, guard):
        if guard is None or name not in self.scope or name in shadowed:
            return
        if (name, guard) not in self.found:
            self.found.append((name, guard))

    def positional(self, head, j):
        if isinstance(head, sumo.Var):
            return MemDomseqm(_hvar(head.name), j)
        info = self.sig.info(head.name)
        if info is None or not info.arg_domain:
            return None
        slot = j + 1 if j + 1 <= info.min_arity else info.min_arity
        cls, mode = info.arg_domain[slot]
        if mode == sigmod.MODE_SUBCLASS:
            return MemClass(self.resolve(cls), SUBSET)
        return MemDomseqm(self.resolve(head.name), j)

    def row(self, head):
        if isinstance(head, sumo.Var):
            return RowDomOf(_hvar(head.name))
        info = self.sig.info(head.name)
        if self.expand_known_rows and info is not None and info.arg_domain:
            domains = tuple(host_domains(info, self.resolve))
            return RowDomOfKnown(info.var_arity, info.min_arity, domains)
        return RowDomOf(self.resolve(head.name))

    def spine(self, head, spine, shadowed):
        row = isinstance(spine, sumo.RowSpine)
        for j, item in enumerate(spine.prefix if row else spine.items):
            if isinstance(item, sumo.Var):
                self.add(item.name, shadowed, self.positional(head, j))
            self.walk(item, shadowed)
        if row:
            self.add(spine.row, shadowed, self.row(head))
            for item in spine.suffix:
                # indices after a row variable are not statically known
                self.walk(item, shadowed)

    def range_heuristic(self, a, b, shadowed):
        if not (isinstance(a, sumo.Var) and isinstance(b, sumo.Apply)):
            return
        if not isinstance(b.head, sumo.Const):
            return
        info = self.sig.info(b.head.name)
        if info is None or info.range is None:
            return
        cls, mode = info.range
        guard_mode = SUBSET if mode == sigmod.MODE_SUBCLASS else MEMBER
        guard = MemClass(self.resolve(cls), guard_mode, origin="range-heuristic")
        self.add(a.name, shadowed, guard)

    def walk(self, node, shadowed):
        if isinstance(node, sumo.Apply):
            self.spine(node.head, node.spine, shadowed)
            return
        if isinstance(node, sumo.Binary):
            if node.op == "instance" and isinstance(node.left, sumo.Var):
                guard = MemClass(cc("entity"), MEMBER, origin="instance-arg")
                self.add(node.left.name, shadowed, guard)
            elif node.op == "equal":
                self.range_heuristic(node.left, node.right, shadowed)
                self.range_heuristic(node.right, node.left, shadowed)
        binding = sumo.binder(node)
        if binding is not None:
            shadowed = shadowed | set(binding[1])
        for child in sumo.children(node):
            self.walk(child, shadowed)


def guards_for(formula, scope, sig, resolve, expand_known_rows: bool = False) -> list:
    """The (name, guard) pairs of the scoped variables, in source order.

    A guard is kept at its first occurrence for its variable; a use under a
    binder of the same name is not a use of the scoped variable.
    """
    walk = _GuardWalk(scope, sig, resolve, expand_known_rows)
    walk.walk(formula, frozenset())
    return walk.found


def explain(found: list) -> list:
    """One derivation line per (name, guard) pair, in the order given."""
    return [f"  {name}: {guard.describe()}" for name, guard in found]
