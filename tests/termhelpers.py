"""Reference helpers over terms that only the tests use."""

from sumok2set import sumo
from sumok2set.catalog import CATALOG, IN, ITE, SEP, SUBQ
from sumok2set.hostterm import (
    CONJ,
    DISJ,
    IFF,
    IMP,
    IOTA,
    NEG,
    App,
    Const,
    Lam,
    Var,
    app,
    children,
    rebuild,
    shape,
)


def mem(elem, container):
    """elem in container, as the application in @ elem @ container."""
    return app(IN, elem, container)


def subq(sub, sup):
    return app(SUBQ, sub, sup)


def ite(cond, then, other):
    return app(ITE, cond, then, other)


def neg(body):
    """The negation ~ body, as the application ~ @ body."""
    return App(NEG, body)


def conj(left, right):
    """left & right, as the application & @ left @ right."""
    return app(CONJ, left, right)


def disj(left, right):
    return app(DISJ, left, right)


def imp(ante, cons):
    return app(IMP, ante, cons)


def iff(left, right):
    return app(IFF, left, right)


def separation(name, bound, body):
    """{name in bound | body}, as sep @ bound @ (^[name : $i]: body)."""
    return app(SEP, bound, Lam(name, IOTA, body))


def head_args(term):
    """The head of an application spine and its arguments, in order."""
    args = []
    while type(term) is App:
        args.append(term.arg)
        term = term.fn
    return term, args[::-1]


def subterms(term) -> list:
    """Every node of the term, in pre-order."""
    out: list = []
    _preorder(term, out)
    return out


def _preorder(t, out):
    # module level, not a closure: a self-calling closure is a reference cycle
    out.append(t)
    for k in children(t):
        _preorder(k, out)


def substitute(term, mapping):
    """Replace free variables by name with the mapped terms.

    Not capture-avoiding: a free variable of a mapped term that a binder on
    the way down binds is captured.  The reference for the renaming with
    which th0 writes a separation's key.
    """
    return _substitute(term, mapping, frozenset())


def _substitute(t, mapping, shadow):
    if type(t) is Var:
        return t if t.name in shadow else mapping.get(t.name, t)
    fs, scoped = shape(t)
    inner = shadow | {t.name} if scoped else shadow
    return rebuild(
        t, [_substitute(getattr(t, f), mapping, inner if f in scoped else shadow) for f in fs]
    )


def catalog_needs(terms) -> set:
    """Catalog names the host terms need.

    These are the catalog constants they mention, where sep, which is no
    catalog constant, needs in: a separation is defined by membership.  The
    reference for th0.catalog_needs and for the catalog's dependencies.
    """
    out: set = set()
    for term in terms:
        for t in subterms(term):
            if type(t) is Const:
                if t.name in CATALOG:
                    out.add(t.name)
                elif t.name == "sep":
                    out.add("in")
    return out


def consts(term) -> list:
    """The Const nodes of the term in pre-order, repeats included."""
    return [t for t in subterms(term) if type(t) is Const]


def const_names(term):
    """Every Const name in the term, in first-occurrence order."""
    return list(dict.fromkeys(c.name for c in consts(term)))


def alpha_eq(a, b) -> bool:
    """Structural equality modulo bound-variable names."""

    def go(x, y, ex, ey, depth):
        if type(x) is not type(y):
            return False
        if isinstance(x, Var):
            dx = ex.get(x.name)
            dy = ey.get(y.name)
            if dx is None and dy is None:
                return x == y
            return dx == dy and x.ty == y.ty
        fs, scoped = shape(x)
        if not fs:
            return x == y
        if scoped and x.ty != y.ty:
            return False
        for f in fs:
            sx, sy = getattr(x, f), getattr(y, f)
            if f in scoped:
                ok = go(sx, sy, {**ex, x.name: depth}, {**ey, y.name: depth}, depth + 1)
            else:
                ok = go(sx, sy, ex, ey, depth)
            if not ok:
                return False
        return True

    return go(a, b, {}, {}, 0)


def variables(formula):
    """Free variables and every variable name of a formula, in one walk.

    The reference for the free variables lowering finds.  Returns (free,
    names): free is a list of (name, is_row) pairs in first-occurrence
    order; names is the set of variable and row variable names occurring
    in the formula, bound or free.
    """
    free: dict = {}
    names: set = set()
    _variables(formula, frozenset(), frozenset(), free, names)
    return list(free), names


def _variables(node, bound, rows, free, names):
    if type(node) is str:  # a row variable occurrence
        names.add(node)
        if node not in rows:
            free.setdefault((node, True), None)
        return
    if type(node) is sumo.Var:
        names.add(node.name)
        if node.name not in bound:
            free.setdefault((node.name, False), None)
        return
    b = sumo.binder(node)
    if b is not None:
        names.update(b[1])
        if b[0] == sumo.VAR_BINDER:
            bound = bound | set(b[1])
        else:
            rows = rows | set(b[1])
    for child in sumo.children(node):
        _variables(child, bound, rows, free, names)


def formula_free_vars(formula):
    """Free variables of a formula in first-occurrence order.

    Returns a list of (name, is_row) pairs.
    """
    return variables(formula)[0]


# ---------------------------------------------------------------------------
# Printing lowered formulas back to SUO-KIF, for the print/lower fixed point

def rat_lexeme(r: sumo.Rat) -> str:
    sign = "-" if r.num < 0 else ""
    digits = str(abs(r.num))
    if r.scale == 0:
        return sign + digits
    digits = digits.rjust(r.scale + 1, "0")
    return f"{sign}{digits[:-r.scale]}.{digits[-r.scale:]}"


def term_to_kif(t) -> str:
    if isinstance(t, sumo.Var):
        return "?" + t.name
    if isinstance(t, sumo.Const):
        return t.name
    if isinstance(t, sumo.Rat):
        return rat_lexeme(t)
    if isinstance(t, sumo.Apply):
        return "(" + " ".join([term_to_kif(t.head)] + _spine_to_kif(t.spine)) + ")"
    if isinstance(t, sumo.Kappa):
        return f"(KappaFn ?{t.var} {to_kif(t.body)})"
    if isinstance(t, sumo.Binary):
        return f"({t.op} {term_to_kif(t.left)} {term_to_kif(t.right)})"
    raise TypeError(f"not a term: {t!r}")


def _spine_to_kif(s) -> list:
    if isinstance(s, sumo.TermSpine):
        return [term_to_kif(t) for t in s.items]
    parts = [term_to_kif(t) for t in s.prefix]
    parts.append("@" + s.row)
    parts.extend(term_to_kif(t) for t in s.suffix)
    return parts


def to_kif(f) -> str:
    """Render a lowered formula back to SUO-KIF concrete syntax."""
    if isinstance(f, sumo.Connective):
        return f"({f.op} " + " ".join(to_kif(i) for i in f.items) + ")"
    if isinstance(f, sumo.Quantified):
        return f"({f.op} (" + " ".join("?" + n for n in f.names) + ") " + to_kif(f.body) + ")"
    if isinstance(f, sumo.RowQuantified):
        return f"({f.op} (@{f.name}) {to_kif(f.body)})"
    if isinstance(f, (sumo.Apply, sumo.Binary)):  # printed alike as term and formula
        return term_to_kif(f)
    raise TypeError(f"not a formula: {f!r}")
