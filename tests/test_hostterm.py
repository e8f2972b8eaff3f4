"""Typed term layer tests: typechecking, alpha equivalence, the traversal table."""

import gc
from dataclasses import fields, is_dataclass

import pytest

from sumok2set import hostterm, sexpr, sumo, th0, translate
from sumok2set.catalog import CATALOG
from sumok2set.hostterm import (
    IOTA,
    EXISTS,
    FORALL,
    OMICRON,
    App,
    Arrow,
    Const,
    FALSE,
    Lam,
    TRUE,
    TypeMismatch,
    Var,
    HostType,
    app,
    arrow,
    eq,
    children,
    conj_chain,
    exists,
    forall,
    free_vars,
    imp_chain,
    quantifier,
    rebuild,
    typecheck,
)

from conftest import fixture_path
from termhelpers import (
    alpha_eq,
    catalog_needs,
    conj,
    const_names,
    consts,
    disj,
    iff,
    imp,
    ite,
    mem,
    neg,
    separation,
    subq,
    substitute,
    subterms,
)

O = OMICRON


def test_arrow_helper():
    t = arrow(IOTA, IOTA, O)
    assert t == Arrow(IOTA, Arrow(IOTA, O))


def test_typecheck_basics():
    x = Var("X", IOTA)
    assert typecheck(x) == IOTA
    assert typecheck(mem(x, Const("s", IOTA))) == O
    assert typecheck(subq(x, x)) == O
    assert typecheck(eq(x, x)) == O
    assert typecheck(TRUE) == O
    assert typecheck(FALSE) == O


def test_typecheck_connectives():
    p = Const("p", O)
    assert typecheck(conj(p, p)) == O
    assert typecheck(imp(neg(p), iff(p, p))) == O


def test_typecheck_binders():
    body = mem(Var("X", IOTA), Const("s", IOTA))
    assert typecheck(forall("X", IOTA, body)) == O
    assert typecheck(exists("X", IOTA, body)) == O
    lam = Lam("X", IOTA, Var("X", IOTA))
    assert typecheck(lam) == Arrow(IOTA, IOTA)


def test_quantifiers_are_one_shared_constant_per_binder_type():
    body = mem(Var("X", IOTA), Const("s", IOTA))
    for mark, build in ((FORALL, forall), (EXISTS, exists)):
        q = quantifier(mark, IOTA)
        assert q is quantifier(mark, IOTA) and q.ty == arrow(arrow(IOTA, O), O)
        assert build("X", IOTA, body) == App(q, Lam("X", IOTA, body))
        assert quantifier(mark, O) is not q and quantifier(mark, O).ty == arrow(arrow(O, O), O)


def test_typecheck_application():
    f = Const("f", arrow(IOTA, IOTA, IOTA))
    x = Const("c", IOTA)
    assert typecheck(App(App(f, x), x)) == IOTA
    assert typecheck(app(f, x, x)) == IOTA


def test_typecheck_sep_and_ite():
    x = Var("X", IOTA)
    s = separation("X", Const("u", IOTA), mem(x, Const("a", IOTA)))
    assert typecheck(s) == IOTA
    i = ite(TRUE, Const("a", IOTA), Const("b", IOTA))
    assert typecheck(i) == IOTA


def test_typecheck_rejects_bad_application():
    f = Const("f", arrow(IOTA, IOTA))
    with pytest.raises(TypeMismatch):
        typecheck(App(f, Const("p", O)))
    with pytest.raises(TypeMismatch):
        typecheck(App(Const("c", IOTA), Const("d", IOTA)))


def test_typecheck_rejects_bad_connective_operand():
    with pytest.raises(TypeMismatch):
        typecheck(conj(Const("c", IOTA), TRUE))
    with pytest.raises(TypeMismatch):
        typecheck(neg(Const("c", IOTA)))


def test_typecheck_eq_needs_same_type():
    with pytest.raises(TypeMismatch):
        typecheck(eq(Const("c", IOTA), Const("p", O)))


def test_typecheck_free_variable_is_self_typed():
    assert typecheck(Var("X", IOTA), env={}) == IOTA


def test_typecheck_binder_use_disagreement():
    bad = forall("X", OMICRON, mem(Var("X", IOTA), Const("s", IOTA)))
    with pytest.raises(TypeMismatch):
        typecheck(bad)


def test_alpha_eq_binder_renaming():
    a = forall("X", IOTA, mem(Var("X", IOTA), Const("s", IOTA)))
    b = forall("Y", IOTA, mem(Var("Y", IOTA), Const("s", IOTA)))
    assert alpha_eq(a, b)


def test_alpha_eq_distinguishes_structure():
    a = forall("X", IOTA, mem(Var("X", IOTA), Const("s", IOTA)))
    b = exists("X", IOTA, mem(Var("X", IOTA), Const("s", IOTA)))
    assert not alpha_eq(a, b)


def test_alpha_eq_free_variables_by_name():
    assert alpha_eq(Var("X", IOTA), Var("X", IOTA))
    assert not alpha_eq(Var("X", IOTA), Var("Y", IOTA))


def test_alpha_eq_nested_shadowing():
    # \X.\X.X is not \X.\Y.X
    a = Lam("X", IOTA, Lam("X", IOTA, Var("X", IOTA)))
    b = Lam("X", IOTA, Lam("Y", IOTA, Var("X", IOTA)))
    assert not alpha_eq(a, b)
    c = Lam("A", IOTA, Lam("B", IOTA, Var("B", IOTA)))
    assert alpha_eq(a, c)


def test_alpha_eq_sep_binder():
    a = separation("X", Const("u", IOTA), mem(Var("X", IOTA), Const("s", IOTA)))
    b = separation("Z", Const("u", IOTA), mem(Var("Z", IOTA), Const("s", IOTA)))
    assert alpha_eq(a, b)


def _sumo_lt():
    return sumo.Arith(sumo.ARITH_LT, sumo.Var("X"), sumo.Rat(1, 0))


def _sumo_le():
    return sumo.Arith(sumo.ARITH_LE, sumo.Var("X"), sumo.Rat(1, 0))


@pytest.mark.parametrize(
    "one, other, var",
    [
        (lambda: neg(FALSE), lambda: neg(TRUE), lambda: Var("X", IOTA)),
        (_sumo_lt, _sumo_le, lambda: sumo.Var("X")),
    ],
    ids=["hostterm", "sumo"],
)
def test_nodes_compare_and_hash_by_class_and_fields(one, other, var):
    # nodes are not frozen; equality and the hash still come from the class
    # and the field values, so equal nodes built apart are one dict key
    assert one() != other() and one() == one() and hash(other()) == hash(other())
    x, y = var(), var()
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y, one(), one()}) == 2


def test_a_variable_is_not_the_constant_of_its_name():
    x, c = Var("X", IOTA), Const("X", IOTA)
    assert x != c and sumo.Var("X") != sumo.Const("X")
    left, right = App(Const("f", arrow(IOTA, IOTA)), x), App(Const("f", arrow(IOTA, IOTA)), x)
    assert left == right and hash(left) == hash(right) and left != App(left.fn, c)


def test_chains():
    p, q, r = (Const(n, O) for n in "pqr")
    assert imp_chain([], r) == r
    assert imp_chain([p, q], r) == imp(p, imp(q, r))
    assert conj_chain([], r) == r
    assert conj_chain([p, q], r) == conj(p, conj(q, r))


X, Y = Var("X", IOTA), Var("Y", IOTA)
S = Const("s", IOTA)

ONE_OF_EACH = [
    X, S,
    App(Const("f", arrow(IOTA, IOTA)), X),
    Lam("X", IOTA, X),
]

# the truth values, connectives, equality and quantifiers, logical constants
# applied like any other constant, by the usual names of what they spell
LOGICAL_TERMS = {
    "Bot": FALSE, "Top": TRUE, "Neg": neg(TRUE), "Imp": imp(TRUE, FALSE),
    "Conj": conj(TRUE, FALSE), "Disj": disj(TRUE, FALSE), "Iff": iff(TRUE, FALSE),
    "Eq": eq(X, S), "All": forall("X", IOTA, mem(X, S)), "Ex": exists("X", IOTA, mem(X, S)),
}


def test_shapes_are_the_simply_typed_lambda_calculus():
    # the set primitives are applied catalog constants and the connectives,
    # equality, truth values and quantifiers applied logical constants, no
    # node kinds: Church's lambda-terms
    assert set(hostterm.SHAPES) == {Var, Const, App, Lam}
    assert len(hostterm.SHAPES) == 4


def test_traversal_table_covers_every_term_class():
    declared = {
        c for c in vars(hostterm).values()
        if isinstance(c, type) and is_dataclass(c) and not issubclass(c, HostType)
    }
    assert declared == set(hostterm.SHAPES) == {type(t) for t in ONE_OF_EACH}
    for cls, shape in hostterm.SHAPES.items():
        # sub-terms come last and in constructor order, as rebuild assumes
        names = [f.name for f in fields(cls)]
        assert tuple(names[len(names) - len(shape.fields):]) == shape.fields, cls
        assert set(shape.scoped) <= set(shape.fields), cls


@pytest.mark.parametrize(
    "term",
    ONE_OF_EACH + list(LOGICAL_TERMS.values()),
    ids=[type(t).__name__ for t in ONE_OF_EACH] + list(LOGICAL_TERMS),
)
def test_rebuild_inverts_children(term):
    assert rebuild(term, list(children(term))) == term


class Stray:
    """A node no table lists."""


@pytest.mark.parametrize(
    "fold",
    [
        subterms,
        consts,
        const_names,
        free_vars,
        lambda t: substitute(t, {}),
        lambda t: alpha_eq(t, t),
        lambda t: catalog_needs([t]),
    ],
)
def test_folds_reject_unknown_nodes(fold):
    with pytest.raises(TypeError):
        fold(conj(TRUE, Stray()))


def test_children_rejects_unknown_node():
    with pytest.raises(TypeError):
        children(Stray())


def test_free_vars_sep_scopes_body_not_bound():
    t = separation("X", App(Const("f", arrow(IOTA, IOTA)), X), mem(X, Y))
    assert free_vars(t) == [("X", IOTA), ("Y", IOTA)]
    assert free_vars(Lam("X", IOTA, conj(eq(X, Y), eq(Y, X)))) == [("Y", IOTA)]


def test_substitute_respects_binders_but_not_capture():
    assert substitute(separation("X", X, mem(X, Y)), {"X": S}) == separation("X", S, mem(X, Y))
    # not capture-avoiding: the hoisting key relies on plain replacement
    assert substitute(Lam("Y", IOTA, X), {"X": Y}) == Lam("Y", IOTA, Y)


def test_consts_pre_order_with_repeats():
    f, g = Const("f", arrow(IOTA, IOTA)), Const("g", IOTA)
    t = conj(eq(App(f, g), g), eq(S, g))
    assert consts(t) == [hostterm.CONJ, hostterm.EQUALS, f, g, g, hostterm.EQUALS, S, g]
    assert const_names(t) == ["&", "=", "f", "g", "s"]


# a clean form, one lowering stops at a skip head, and one it skips only
# after failing on its binder list
_SUMO_FORMS = sexpr.parse_forms(
    "(=> (p ?X @ROW) (exists (?Y @L) (q ?X (KappaFn ?K (r ?K ?Y @L)))))"
    "(forall (?T) (holdsDuring ?T (p ?T)))"
    "(forall ((holdsDuring ?T)) (p ?T))"
)


_KB, _QUERY = fixture_path("merge_fragment.kif"), fixture_path("tqg3.kif")


def _compile_and_pose():
    image = translate.compile_kb(translate.read_kb([_KB]))
    return image.pose(_QUERY, translate.load_lowered(_QUERY), image.sig)


_PREMISE = forall("X", IOTA, conj(
    mem(X, separation("Z", ite(TRUE, S, X), mem(Var("Z", IOTA), separation("W", X, subq(Var("W", IOTA), S))))),
    eq(App(separation("Z", S, TRUE), X), Y),
))


# Each recursive walk is a module-level function or method: a self-calling
# closure would leave a reference cycle per call for the collector.
@pytest.mark.parametrize(
    "walk",
    [
        lambda: typecheck(forall("X", IOTA, conj(mem(X, separation("Z", S, mem(Var("Z", IOTA), X))), TRUE))),
        lambda: free_vars(Lam("X", IOTA, conj(eq(X, Y), mem(Y, separation("Z", X, TRUE))))),
        lambda: substitute(forall("Y", IOTA, conj(eq(X, Y), mem(Y, S))), {"X": S}),
        lambda: CATALOG.background({"ord_add", "len", "dom_of"}),
        lambda: [sumo.lower(form) for form in _SUMO_FORMS],
        lambda: th0.render_premise("ax", "axiom", _PREMISE),
        # whole compiles, which translate.collector_paused runs with the
        # collector off: they must leave nothing that only it would free
        lambda: translate.translate_query_job([_KB], _QUERY),
        _compile_and_pose,
    ],
    ids=[
        "typecheck", "free_vars", "substitute", "Catalog.background", "sumo.lower",
        "th0.render_premise", "translate_query_job", "compile_kb+pose",
    ],
)
def test_recursive_walks_leave_no_cyclic_garbage(walk):
    walk()  # warm up caches and lazily built tables
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            walk()
        assert gc.collect() == 0
    finally:
        gc.enable()
