"""Surface-to-AST lowering tests.

Numeral normalization is checked against exact Fraction arithmetic; the
printer round trip re-lowers its own output and demands a fixed point.
"""

import os
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sumok2set import sexpr, sumo

from conftest import FIXTURES, formula_of, lower_all, lower_one, sig_from
from termhelpers import formula_free_vars, to_kif, variables
from test_sexpr import FIXTURE_DIGESTS, _kif_mutants


def test_lower_connectives():
    f = formula_of("(=> (and (p ?X) (q ?X)) (or (r ?X) (not (s ?X))))")
    assert isinstance(f, sumo.Connective) and f.op == "=>"
    assert isinstance(f.items[0], sumo.Connective) and f.items[0].op == "and"
    assert len(f.items[0].items) == 2
    assert isinstance(f.items[1], sumo.Connective) and f.items[1].op == "or"
    assert isinstance(f.items[1].items[1], sumo.Connective) and f.items[1].items[1].op == "not"


def test_lower_quantifiers():
    f = formula_of("(forall (?X ?Y) (exists (?Z) (p ?X ?Y ?Z)))")
    assert isinstance(f, sumo.Quantified) and f.op == "forall"
    assert f.names == ("X", "Y")
    assert isinstance(f.body, sumo.Quantified) and f.body.op == "exists"
    assert f.body.names == ("Z",)


def test_lower_row_quantifier():
    f = formula_of("(forall (@ROW) (p @ROW))")
    assert isinstance(f, sumo.RowQuantified) and f.op == "forall"
    assert f.name == "ROW"
    atom = f.body
    assert isinstance(atom, sumo.Apply)
    assert isinstance(atom.spine, sumo.RowSpine)
    assert atom.spine.row == "ROW"


def test_mixed_quantifier_binder():
    f = formula_of("(forall (?X @ROW) (p ?X @ROW))")
    # scalar and row binders split into nested quantifiers
    assert isinstance(f, sumo.Quantified) and f.op == "forall"
    assert isinstance(f.body, sumo.RowQuantified) and f.body.op == "forall"


def test_lower_special_atoms():
    f = formula_of("(and (instance ?X Human) (subclass Human Object))")
    inst, sub = f.items
    assert isinstance(inst, sumo.Instance)
    assert isinstance(sub, sumo.Subclass)


def test_lower_equal_and_comparisons():
    f = formula_of(
        "(and (equal ?X ?Y) (lessThan ?X ?Y) (lessThanOrEqualTo ?X ?Y))"
    )
    eq, lt, le = f.items
    assert isinstance(eq, sumo.Eq)
    assert isinstance(lt, sumo.Arith) and lt.op == sumo.ARITH_LT
    assert isinstance(le, sumo.Arith) and le.op == sumo.ARITH_LE


def test_lower_arithmetic():
    f = formula_of("(equal (AdditionFn 1 2) 3)")
    assert isinstance(f.left, sumo.Arith)
    assert f.left.op == "+"
    f = formula_of("(equal (SubtractionFn ?X 1) (MultiplicationFn ?Y (DivisionFn 4 2)))")
    assert f.left.op == "-"
    assert f.right.op == "*"
    assert f.right.right.op == "/"


def test_lower_kappa():
    f = formula_of("(instance Bob (KappaFn ?X (employs Acme ?X)))")
    assert isinstance(f, sumo.Instance)
    assert isinstance(f.cls, sumo.Kappa)
    assert f.cls.var == "X"
    assert isinstance(f.cls.body, sumo.Apply)


def test_lower_row_spine_shapes():
    f = formula_of("(p ?X @ROW ?Y)")
    sp = f.spine
    assert isinstance(sp, sumo.RowSpine)
    assert len(sp.prefix) == 1 and len(sp.suffix) == 1
    assert sp.row == "ROW"


def test_two_rows_rejected():
    for src in ("(p @A @B)", "(p @A (f @B))", "(p @A @A)"):
        with pytest.raises(sumo.TwoRowVarsInSpine):
            lower_one(src)


def test_row_inside_nested_spine_ok():
    # the inner spine owns its row; one row per spine holds
    f = formula_of("(p (f @A))")
    inner = f.spine.items[0]
    assert isinstance(inner.spine, sumo.RowSpine)


def test_query_form():
    out = lower_one("(query (instance ?X Human))")
    assert isinstance(out, sumo.Query)
    assert (
        isinstance(out.formula, sumo.Quantified) and out.formula.op == "exists"
    ) or isinstance(out.formula, sumo.Instance)


def test_modal_heads_skipped():
    out = lower_all(
        "(holdsDuring (YearFn 1990) (employs Acme Bob))"
        "(modalAttribute (p a) Possibility)"
        "(=> (p ?X) (holdsDuring ?T (q ?X)))"
    )
    assert all(isinstance(x, sumo.Skipped) for x in out)
    assert "holdsDuring" in out[0].reason
    assert "modalAttribute" in out[1].reason


def test_skip_heads_configurable():
    out = lower_all("(holdsDuring ?T (p a))", skip_heads=())
    # with no skip heads the form lowers as an ordinary atom
    assert isinstance(out[0], sumo.Assertion)


# --- lowering finds free variables and skip heads ---------------------------
#
# The reference is the fold of termhelpers.variables over the lowered AST for
# free variables, and _contains_skip_head over the read form for skip heads.

SKIP_HEAD_SETS = (
    sumo.DEFAULT_SKIP_HEADS,
    ("instance", "domain"),
    ("KappaFn", "query", "AdditionFn", "=>", "forall"),
)


@pytest.fixture(scope="module")
def forms():
    """(file name, read forms) of every fixture and of every reader mutant that reads."""
    out = []
    for name in sorted(FIXTURE_DIGESTS):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            out.append((name, sexpr.parse_forms(fh.read(), name)))
    for name, text in _kif_mutants(2000, 14):
        try:
            out.append((name, sexpr.parse_forms(text, name)))
        except sexpr.KifSyntaxError:
            pass
    return out


def test_lowering_finds_the_free_variables_of_the_reference(forms):
    lowered = 0
    for name, file_forms in forms:
        for form in file_forms:
            try:
                item = sumo.lower(form)
            except sumo.LowerError:
                continue
            if not isinstance(item, sumo.Skipped):
                assert item.free == tuple(formula_free_vars(item.formula)), (name, item)
                lowered += 1
    assert lowered > 9000


@pytest.mark.parametrize("skip_heads", SKIP_HEAD_SETS, ids=lambda heads: "-".join(heads))
def test_lowering_skips_what_the_skip_head_search_finds(forms, skip_heads):
    skipped = failed = 0
    for name, file_forms in forms:
        for form in file_forms:
            reason = sumo._contains_skip_head(form, skip_heads)
            try:
                item = sumo.lower(form, skip_heads)
            except sumo.LowerError:
                assert reason is None, (name, form)
                failed += 1
                continue
            if reason is None:
                assert not isinstance(item, sumo.Skipped), (name, form)
            else:
                assert item == sumo.Skipped(f"modal head {reason!r}", form.span), (name, form)
                skipped += 1
    assert skipped > 50 and failed > 50


@pytest.mark.parametrize(
    "source,reason",
    [
        # a skip head in a binder list, which lowering rejects
        ("(forall ((holdsDuring ?T)) (p ?T))", "holdsDuring"),
        # an error that lowering meets before the skip head
        ("(and (=> (p ?X)) (holdsDuring ?T (q ?X)))", "holdsDuring"),
        ("(=> (p (KappaFn)) (modalAttribute (p a) Possibility))", "modalAttribute"),
        # the first of two, in source order
        ("(or (modalAttribute (p a) Possibility) (holdsDuring ?T (q ?X)))", "modalAttribute"),
        ("(instance (KappaFn ?X (holdsDuring ?X a)) (modalAttribute a b))", "holdsDuring"),
    ],
)
def test_skip_head_under_syntax_outside_the_fragment(source, reason):
    (form,) = sexpr.parse_forms(source)
    assert sumo._contains_skip_head(form, sumo.DEFAULT_SKIP_HEADS) == reason
    assert lower_one(source) == sumo.Skipped(f"modal head {reason!r}", form.span)


def test_malformed_binders():
    for src in ("(forall ?X (p ?X))", "(forall () (p a))", "(exists (a) (p a))"):
        with pytest.raises(sumo.KifSyntaxError):
            lower_one(src)


# Each connective's arity check and a binder's non-formula body, pinned as
# error class, FILE:LINE:COL and message.
@pytest.mark.parametrize(
    "source,error,where,message",
    [
        ("(and)", sumo.UnknownSyntax, "e.kif:1:1", "(and) with no operands"),
        ("(or)", sumo.UnknownSyntax, "e.kif:1:1", "(or) with no operands"),
        ("(not)", sumo.UnknownSyntax, "e.kif:1:1", "not expects one operand"),
        ("(not (p a) (q a))", sumo.UnknownSyntax, "e.kif:1:1", "not expects one operand"),
        ("(=> (p a))", sumo.UnknownSyntax, "e.kif:1:1", "=> expects two operands"),
        ("(<=> (p a) (q a) (r a))", sumo.UnknownSyntax, "e.kif:1:1", "<=> expects two operands"),
        ("(forall (?X) a)", sumo.MalformedBinder, "e.kif:1:14", "quantifier body is not a formula"),
        ("(exists (?X) ?X)", sumo.MalformedBinder, "e.kif:1:14", "quantifier body is not a formula"),
    ],
)
def test_connective_and_binder_errors_pinned(source, error, where, message):
    (form,) = sexpr.parse_forms(source, "e.kif")
    with pytest.raises(sumo.LowerError) as caught:
        sumo.lower(form)
    assert type(caught.value) is error
    assert (str(caught.value.span), caught.value.message) == (where, message)


@pytest.mark.parametrize("head", ["and", "or"])
def test_one_operand_conjunction_and_disjunction_lower_to_the_operand(head):
    assert formula_of(f"({head} (p a))") == formula_of("(p a)")


def test_a_numeral_with_a_plus_sign_lowers_to_its_value():
    assert formula_of("(p +5)") == sumo.Apply(sumo.Const("p"), sumo.TermSpine((sumo.Rat(5, 0),)))


def test_bad_numeral():
    with pytest.raises(sumo.BadNumeral):
        sumo.parse_numeral("1.2.3")


def test_numeral_normalization_cases():
    cases = {
        "3": (3, 0),
        "-1.50": (-15, 1),
        "0.25": (25, 2),
        "11.2": (112, 1),
        "12": (12, 0),
        "007": (7, 0),
        "1.000": (1, 0),
        "-0.0": (0, 0),
    }
    for lexeme, expected in cases.items():
        r = sumo.parse_numeral(lexeme)
        assert (r.num, r.scale) == expected, lexeme


@given(
    st.integers(-10**9, 10**9),
    st.integers(0, 6),
)
def test_numeral_normalization_matches_fraction(num, scale):
    digits = str(abs(num)).rjust(scale + 1, "0")
    if scale:
        lexeme = digits[:-scale] + "." + digits[-scale:]
    else:
        lexeme = digits
    if num < 0:
        lexeme = "-" + lexeme
    r = sumo.parse_numeral(lexeme)
    # normalized form denotes the same rational and has no trailing zeros
    assert Fraction(r.num, 10**r.scale) == Fraction(num, 10**scale)
    assert r.scale == 0 or r.num % 10 != 0


def test_free_vars():
    f = formula_of("(=> (p ?X ?Y) (exists (?Y) (q ?X ?Y)))")
    assert formula_free_vars(f) == [("X", False), ("Y", False)]


def test_free_vars_row_flag():
    f = formula_of("(=> (p ?X @ROW) (q @ROW))")
    assert formula_free_vars(f) == [("X", False), ("ROW", True)]


def test_variables_free_and_all_names_in_one_walk():
    f = formula_of(
        "(=> (p ?X @ROW ?Z) (exists (?Y @L) (q ?X (KappaFn ?K (r ?K ?Y @L)))))"
    )
    free, names = variables(f)
    assert free == [("X", False), ("ROW", True), ("Z", False)]
    assert names == {"X", "ROW", "Z", "Y", "L", "K"}
    assert sumo.variable_names(f) == names


def test_traversal_table_covers_every_node_class():
    lowering_results = {sumo.Assertion, sumo.Query, sumo.Skipped}
    declared = {
        c for c in vars(sumo).values()
        if isinstance(c, type) and is_dataclass(c) and c.__module__ == sumo.__name__
    }
    assert declared - lowering_results == set(sumo.SHAPES)
    for cls, shape in sumo.SHAPES.items():
        names = {f.name for f in fields(cls)}
        assert set(shape.fields) <= names, cls
        assert shape.binder is None or shape.binder[1] in names, cls


# One snippet per construct of the fragment, keyed by the node kind it is
# read as.  Lowering the table builds every kind of the traversal table and
# no other, so no kind lingers there that lowering never builds.
CONSTRUCTS = {
    sumo.Var: "(p ?X)",
    sumo.Const: "(p a)",
    sumo.Rat: "(p -1.50)",
    sumo.TermSpine: "(f a b)",
    sumo.RowSpine: "(p a @ROW b)",
    sumo.Apply: "(p (f a))",
    sumo.Kappa: "(instance a (KappaFn ?X (p ?X)))",
    sumo.Arith: "(equal (AdditionFn 1 2) 3)",
    sumo.Connective: "(=> (p a) (q a))",
    sumo.Quantified: "(forall (?X ?Y) (p ?X ?Y))",
    sumo.RowQuantified: "(exists (@ROW) (p @ROW))",
    sumo.Eq: "(equal a b)",
    sumo.Instance: "(instance a RealNumber)",
    sumo.Subclass: "(subclass A NonnegativeRealNumber)",
}


def node_kinds(node, kinds=None) -> set:
    """The classes of every node of a lowered formula."""
    if kinds is None:
        kinds = set()
    if type(node) is not str:  # a row variable occurrence is a name
        kinds.add(type(node))
        for child in sumo.children(node):
            node_kinds(child, kinds)
    return kinds


def test_lowering_builds_exactly_the_kinds_of_the_traversal_table():
    built = set()
    for kind, source in CONSTRUCTS.items():
        kinds = node_kinds(formula_of(source))
        assert kind in kinds, source
        built |= kinds
    assert built == set(CONSTRUCTS) == set(sumo.SHAPES)
    assert len(sumo.SHAPES) == 14


def test_real_number_classes_lower_to_constants():
    # which classes have a host term of their own is the translator's to
    # decide (translate.SPECIAL_CLASSES); lowering reads them as any class
    f = formula_of("(and (instance ?X RealNumber) (p NegativeRealNumber NonnegativeRealNumber))")
    real = [sumo.Const(n) for n in ("RealNumber", "NegativeRealNumber", "NonnegativeRealNumber")]
    assert f.items[0].cls == real[0]
    assert list(f.items[1].spine.items) == real[1:]


class Stray:
    """A node no table lists."""


def test_folds_reject_unknown_nodes():
    from sumok2set import guards

    with pytest.raises(TypeError):
        sumo.children(Stray())
    for fold in (
        sumo.variable_names,
        variables,
        formula_free_vars,
        lambda f: guards.guards_for(f, {"X"}, sig_from(""), None),
    ):
        with pytest.raises(TypeError):
            fold(sumo.Connective("and", (sumo.Eq(sumo.Var("X"), sumo.Var("Y")), Stray())))
    with pytest.raises(TypeError):
        sumo._row_free_in_term(sumo.Arith(sumo.ARITH_ADD, sumo.Var("X"), Stray()))


def test_spans_preserved():
    out = lower_one("(=> (p ?X)\n    (q ?X))")
    assert out.span is not None
    assert out.span.line == 1


ATOM_SRC = st.sampled_from(
    ["(p ?X)", "(q a b)", "(instance ?X Human)", "(equal ?X ?Y)", "(r @ROW)"]
)


@st.composite
def formula_src(draw, depth=2):
    if depth == 0:
        return draw(ATOM_SRC)
    choice = draw(st.integers(0, 5))
    sub = lambda: draw(formula_src(depth=depth - 1))
    if choice == 0:
        return f"(and {sub()} {sub()})"
    if choice == 1:
        return f"(or {sub()} {sub()})"
    if choice == 2:
        return f"(=> {sub()} {sub()})"
    if choice == 3:
        return f"(not {sub()})"
    if choice == 4:
        return f"(forall (?X) {sub()})"
    return draw(ATOM_SRC)


@given(formula_src())
def test_print_lower_fixed_point(src):
    f1 = formula_of(src)
    printed = to_kif(f1)
    f2 = formula_of(printed)
    assert to_kif(f2) == printed
    assert f1 == f2
