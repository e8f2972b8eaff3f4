"""Type-guard inference for quantified variables.

Each use of a variable as an argument of an applied relation contributes a
membership guard, keyed by the argument position.  Uses as the first
argument of instance contribute membership in the entity universe.  Row
variables pick up whole-spine domain conditions phrased with dom_of.  Guard
occurrences carry a global position so closing code can interleave guards
for several variables in source order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import signature as sigmod
from . import sumo
from .catalog import cc, ord_of
from .hostterm import App, Eq, IOTA, Ite, Lam, Mem, Subq, Var, app
from .th0 import host_var

MEMBER = "member"
SUBSET = "subset"


@dataclass(frozen=True)
class MemDomseqm:
    relation: object  # host term for the applied relation
    index: int  # 0-based argument position
    origin: str = field(default="use", compare=False)

    def to_term(self, subject):
        return Mem(subject, app(cc("domseqm"), self.relation, ord_of(self.index)))

    def describe(self) -> str:
        return f"in domseqm of {_describe(self.relation)} at {self.index}"


@dataclass(frozen=True)
class MemClass:
    cls: object
    mode: str  # MEMBER or SUBSET
    origin: str = field(default="use", compare=False)

    def to_term(self, subject):
        if self.mode == SUBSET:
            return Subq(subject, self.cls)
        return Mem(subject, self.cls)

    def describe(self) -> str:
        rel = "subset of" if self.mode == SUBSET else "member of"
        suffix = f" [{self.origin}]" if self.origin != "use" else ""
        return f"{rel} {_describe(self.cls)}{suffix}"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RowDomOfKnown:
    var_arity: bool
    min_arity: int
    domains: tuple  # host class terms, 0-based, template included when variadic

    def to_term(self, subject):
        chain = cc("emptyset")
        ix = Var("I", IOTA)
        for j in range(len(self.domains) - 1, -1, -1):
            chain = Ite(Eq(ix, ord_of(j)), self.domains[j], chain)
        dlam = Lam("I", IOTA, chain)
        head = cc("dom_of_varar") if self.var_arity else cc("dom_of_fixedar")
        return app(head, ord_of(self.min_arity), dlam, subject)

    def describe(self) -> str:
        kind = "variadic" if self.var_arity else "fixed"
        return f"spine in expanded {kind} domain of arity {self.min_arity}"


def _describe(term) -> str:
    from .hostterm import Const

    if isinstance(term, Const):
        return term.name
    if isinstance(term, Var):
        return "?" + term.name
    return repr(term)


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


def guards_for(formula, scope, sig, resolve, expand_known_rows: bool = False) -> dict:
    """Map each scoped variable name to its ordered (position, guard) list.

    Guards are deduplicated structurally per variable, first occurrence
    winning; the position counter is global so callers can interleave the
    chains of several variables in source order.
    """
    occ: dict = {name: [] for name in scope}
    counter = [0]

    def add(name, shadowed, guard):
        if guard is None or name not in occ or name in shadowed:
            return
        pos = counter[0]
        counter[0] += 1
        if any(g == guard for _, g in occ[name]):
            return
        occ[name].append((pos, guard))

    def positional_guard(head, j):
        if isinstance(head, sumo.Var):
            return MemDomseqm(_hvar(head.name), j)
        if isinstance(head, sumo.Const):
            info = sig.info(head.name)
            if info is None or not info.arg_domain:
                return None
            slot = j + 1 if j + 1 <= info.min_arity else info.min_arity
            cls, mode = info.arg_domain[slot]
            if mode == sigmod.MODE_SUBCLASS:
                return MemClass(resolve(cls), SUBSET)
            return MemDomseqm(resolve(head.name), j)
        return None

    def row_guard(head):
        if isinstance(head, sumo.Var):
            return RowDomOf(_hvar(head.name))
        if isinstance(head, sumo.Const):
            info = sig.info(head.name)
            if expand_known_rows and info is not None and info.arg_domain:
                domains = tuple(host_domains(info, resolve))
                return RowDomOfKnown(info.var_arity, info.min_arity, domains)
            return RowDomOf(resolve(head.name))
        return None

    def walk_spine(head, spine, shadowed):
        row = isinstance(spine, sumo.RowSpine)
        for j, item in enumerate(spine.prefix if row else spine.items):
            if isinstance(item, sumo.Var):
                add(item.name, shadowed, positional_guard(head, j))
            walk(item, shadowed)
        if row:
            add(spine.row, shadowed, row_guard(head))
            for item in spine.suffix:
                # indices after a row variable are not statically known
                walk(item, shadowed)

    def range_heuristic(a, b, shadowed):
        if not (isinstance(a, sumo.Var) and isinstance(b, sumo.Apply)):
            return
        if not isinstance(b.head, sumo.Const):
            return
        info = sig.info(b.head.name)
        if info is None or info.range is None:
            return
        cls, mode = info.range
        guard_mode = SUBSET if mode == sigmod.MODE_SUBCLASS else MEMBER
        add(a.name, shadowed, MemClass(resolve(cls), guard_mode, origin="range-heuristic"))

    def walk(node, shadowed):
        if isinstance(node, (sumo.Apply, sumo.RelAtom)):
            walk_spine(node.head, node.spine, shadowed)
            return
        if isinstance(node, sumo.Instance) and isinstance(node.member, sumo.Var):
            add(node.member.name, shadowed, MemClass(cc("entity"), MEMBER, origin="instance-arg"))
        elif isinstance(node, sumo.Eq):
            range_heuristic(node.left, node.right, shadowed)
            range_heuristic(node.right, node.left, shadowed)
        binding = sumo.binder(node)
        if binding is not None:
            shadowed = shadowed | set(binding[1])
        for child in sumo.children(node):
            walk(child, shadowed)

    try:
        walk(formula, frozenset())
    finally:
        # walk and walk_spine reach each other through closure cells; this
        # breaks the cycle, which would hold resolve (and its translator)
        # until a full collection
        del walk
    return occ


def merge_guard_chain(occ: dict, subjects: dict) -> list:
    """Interleave guards of several variables by global source position.

    subjects maps variable name to its host term; the result is the guard
    terms in ascending position order.
    """
    flat = []
    for name, entries in occ.items():
        for pos, guard in entries:
            flat.append((pos, name, guard))
    flat.sort(key=lambda t: t[0])
    return [guard.to_term(subjects[name]) for _, name, guard in flat]


def explain(occ: dict) -> list:
    """Human-readable guard derivation lines, one per guard occurrence."""
    flat = []
    for name, entries in occ.items():
        for pos, guard in entries:
            flat.append((pos, name, guard))
    flat.sort(key=lambda t: t[0])
    return [f"  {name}: {guard.describe()}" for _, name, guard in flat]
