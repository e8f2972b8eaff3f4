"""Reference helpers over terms that only the tests use."""

from sumok2set import sumo
from sumok2set.hostterm import Const, Var, shape, subterms


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


def formula_free_vars(formula):
    """Free variables of a formula in first-occurrence order.

    Returns a list of (name, is_row) pairs.
    """
    return sumo.variables(formula)[0]
