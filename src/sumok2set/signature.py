"""Relation signature analysis over lowered assertions.

Collects ground typing declarations (domain, domainSubclass, range,
rangeSubclass, subrelation, instance, subclass), finalizes per-constant
records, and closes the variable-arity judgement under the class
hierarchy by fixpoint iteration.  The first five are relation atoms
(sumo.Apply); an instance or subclass fact is a sumo.Binary whose op is
its head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sumo
from .sexpr import InputError

MODE_INSTANCE = "instance"
MODE_SUBCLASS = "subclass"


class SignatureError(InputError):
    pass


class NonGroundDeclaration(SignatureError):
    pass


@dataclass
class ConstInfo:
    name: str
    min_arity: int = 0
    var_arity: bool = False
    arg_domain: dict = field(default_factory=dict)  # 1-based index -> (class, mode)
    range: tuple | None = None  # (class, mode)
    subrelation_of: list = field(default_factory=list)
    instance_of: list = field(default_factory=list)

    def has_domains(self) -> bool:
        return bool(self.arg_domain)


@dataclass
class Signature:
    consts: dict = field(default_factory=dict)  # name -> ConstInfo
    subclass_edges: dict = field(default_factory=dict)  # class -> [superclass]

    def info(self, name: str) -> ConstInfo | None:
        return self.consts.get(name)

    def _ensure(self, name: str) -> ConstInfo:
        if name not in self.consts:
            self.consts[name] = ConstInfo(name)
        return self.consts[name]


def _ground_const(term, what: str, span) -> str:
    if not isinstance(term, sumo.Const):
        raise NonGroundDeclaration(f"{what} declaration is not ground", span)
    return term.name


def _decl_index(term, span) -> int:
    if not isinstance(term, sumo.Rat) or term.scale != 0 or term.num < 1:
        raise NonGroundDeclaration("argument index must be a positive integer", span)
    if term.num > sumo.MAX_ARGUMENTS:
        message = f"argument index {term.num} is more than {sumo.MAX_ARGUMENTS}"
        raise NonGroundDeclaration(message, span)
    return term.num


def _record_domain(sig, items, mode, span):
    if len(items) != 3:
        raise NonGroundDeclaration("domain declaration expects three arguments", span)
    rel = _ground_const(items[0], "domain", span)
    idx = _decl_index(items[1], span)
    cls = _ground_const(items[2], "domain", span)
    info = sig._ensure(rel)
    info.arg_domain.setdefault(idx, (cls, mode))  # the first declaration of a slot stands
    info.min_arity = max(info.min_arity, idx)


def _record_range(sig, items, mode, span):
    if len(items) != 2:
        raise NonGroundDeclaration("range declaration expects two arguments", span)
    rel = _ground_const(items[0], "range", span)
    cls = _ground_const(items[1], "range", span)
    info = sig._ensure(rel)
    if info.range is None:  # the first declaration stands
        info.range = (cls, mode)


_DOMAIN_AND_RANGE = {
    "domain": (_record_domain, MODE_INSTANCE),
    "domainSubclass": (_record_domain, MODE_SUBCLASS),
    "range": (_record_range, MODE_INSTANCE),
    "rangeSubclass": (_record_range, MODE_SUBCLASS),
}
_RELATION_DECLARATIONS = frozenset([*_DOMAIN_AND_RANGE, "subrelation"])


def declaration_head(f) -> str | None:
    """The head of the declaration a lowered formula is, None when it is none.

    These are the forms collect reads: top-level domain, domainSubclass,
    range, rangeSubclass and subrelation atoms over a spine of terms, and
    instance and subclass facts (a Binary, whose op is returned) between two
    constants.  A formula that is none of these leaves the signature as it
    is.
    """
    cls = type(f)
    if cls is sumo.Apply:
        if (
            type(f.head) is sumo.Const
            and f.head.name in _RELATION_DECLARATIONS
            and type(f.spine) is sumo.TermSpine
        ):
            return f.head.name
    elif cls is sumo.Binary and f.op in ("instance", "subclass"):
        if type(f.left) is sumo.Const and type(f.right) is sumo.Const:
            return f.op
    return None


def collect(assertions) -> Signature:
    """Fold declaration facts out of lowered assertions into a Signature.

    Only ground top-level facts count as declarations (declaration_head);
    anything else is left for the translator.  Quantified or
    variable-containing domain/range/subrelation forms raise
    NonGroundDeclaration.  Of two declarations of one slot or range that
    disagree, the first stands.
    """
    sig = Signature()
    for a in assertions:
        f = a.formula
        head = declaration_head(f)
        if head is None:
            continue
        span = a.span
        if head == "instance":
            info = sig._ensure(f.left.name)
            if f.right.name not in info.instance_of:
                info.instance_of.append(f.right.name)
        elif head == "subclass":
            edges = sig.subclass_edges.setdefault(f.left.name, [])
            if f.right.name not in edges:
                edges.append(f.right.name)
        elif head == "subrelation":
            items = f.spine.items
            if len(items) != 2:
                raise NonGroundDeclaration("subrelation expects two arguments", span)
            sub = _ground_const(items[0], "subrelation", span)
            sup = _ground_const(items[1], "subrelation", span)
            info = sig._ensure(sub)
            if sup not in info.subrelation_of:
                info.subrelation_of.append(sup)
            sig._ensure(sup)
        else:
            record, mode = _DOMAIN_AND_RANGE[head]
            record(sig, f.spine.items, mode, span)
    _inherit_subrelations(sig)
    _fill_gaps(sig)
    return sig


def _inherit_subrelations(sig: Signature) -> None:
    # relations with no declarations of their own take the supers' slots;
    # iterate so chains propagate regardless of declaration order
    changed = True
    while changed:
        changed = False
        for name in sorted(sig.consts):
            info = sig.consts[name]
            if info.has_domains() and info.range is not None:
                continue
            for sup_name in info.subrelation_of:
                sup = sig.consts[sup_name]  # collect records every super relation
                if not info.has_domains() and sup.has_domains():
                    info.arg_domain = dict(sup.arg_domain)
                    info.min_arity = max(info.min_arity, sup.min_arity)
                    changed = True
                if info.range is None and sup.range is not None:
                    info.range = sup.range
                    changed = True


def _fill_gaps(sig: Signature) -> None:
    # a partially declared relation keeps contiguous slots 1..min_arity;
    # undeclared slots inside the span default to Entity membership
    for info in sig.consts.values():
        for idx in range(1, info.min_arity + 1):
            info.arg_domain.setdefault(idx, ("Entity", MODE_INSTANCE))


VARIABLE_ARITY_CLASS = "VariableArityRelation"


def close_vararity(sig: Signature) -> Signature:
    """Mark constants as variable-arity under the class hierarchy, to fixpoint.

    A constant is variable-arity when it is an instance of a class that reaches
    VariableArityRelation through subclass edges.  The sweep is monotone and
    idempotent.
    """
    var_classes = {VARIABLE_ARITY_CLASS}
    while True:
        changed = False
        for cls in sorted(sig.subclass_edges):
            if cls in var_classes:
                continue
            if any(sup in var_classes for sup in sig.subclass_edges[cls]):
                var_classes.add(cls)
                changed = True
        for name in sorted(sig.consts):
            info = sig.consts[name]
            if info.var_arity:
                continue
            if any(cls in var_classes for cls in info.instance_of):
                info.var_arity = True
                changed = True
        if not changed:
            break
    return sig
