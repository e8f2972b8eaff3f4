"""Translation tests.

The four golden tests hand-build the expected host terms and demand alpha
equivalence with the translator output, guard order included.
"""

import pytest
from hypothesis import given, strategies as st

from sumok2set import guards, sexpr, signature, sumo, th0, translate
from sumok2set.catalog import IN, ITE, cc, ord_of
from sumok2set.hostterm import (
    FORALL,
    App,
    Const,
    IMP,
    IOTA,
    Lam,
    Var,
    app,
    eq,
    exists,
    forall,
    imp_chain,
    quantifier,
    typecheck,
)
from sumok2set.th0 import _thf_var, check_text, host_var, problem_text
from sumok2set.translate import LIST, Translator, mangle, translate_query_job

from conftest import FIXTURES, NESTED_KAPPA, fixture_path, formula_of, lower_one, sig_from
from termhelpers import alpha_eq, conj, head_args, imp, mem, neg, separation, subq


def istrue(t):
    return App(cc("istrue"), t)


def ap_list(rel, items):
    lst = cc("nil")
    for it in reversed(items):
        lst = app(cc("cons"), it, lst)
    return app(cc("ap"), rel, App(cc("listset"), lst))


def ap_row(rel, row):
    return app(cc("ap"), rel, App(cc("listset"), row))


def dom_of_generic(rel, row):
    return app(
        cc("dom_of"),
        App(cc("vararity"), rel),
        App(cc("arity"), rel),
        App(cc("domseq"), rel),
        row,
    )


def dm(rel, j):
    return app(cc("domseqm"), rel, ord_of(j))


VARIADIC_SIG = (
    "(instance partition VariableArityRelation)"
    "(domain partition 1 SetOrClass)"
    "(domain partition 2 SetOrClass)"
    "(instance exhaustiveDecomposition VariableArityRelation)"
    "(domain exhaustiveDecomposition 1 SetOrClass)"
    "(domain exhaustiveDecomposition 2 SetOrClass)"
    "(instance disjointDecomposition VariableArityRelation)"
    "(domain disjointDecomposition 1 SetOrClass)"
    "(domain disjointDecomposition 2 SetOrClass)"
)


def translate_formula(src, sig_src):
    sig = sig_from(sig_src)
    tr = Translator(sig)
    return tr, tr.close_assertion(lower_one(src))


def test_golden_partition_row_rule():
    tr, got = translate_formula(
        "(forall (@ROW)"
        " (=> (partition @ROW)"
        "     (and (exhaustiveDecomposition @ROW) (disjointDecomposition @ROW))))",
        VARIADIC_SIG,
    )
    p = Const("s_partition", IOTA)
    e = Const("s_exhaustiveDecomposition", IOTA)
    d = Const("s_disjointDecomposition", IOTA)
    rho = Var("R", LIST)
    expected = forall(
        "R",
        LIST,
        imp_chain(
            [
                dom_of_generic(p, rho),
                dom_of_generic(e, rho),
                dom_of_generic(d, rho),
            ],
            imp(
                istrue(ap_row(p, rho)),
                conj(istrue(ap_row(e, rho)), istrue(ap_row(d, rho))),
            ),
        ),
    )
    assert alpha_eq(got, expected)


def test_golden_partition_swap_rule():
    tr, got = translate_formula(
        "(=> (partition ?X ?Y ?Z) (partition ?X ?Z ?Y))",
        VARIADIC_SIG,
    )
    p = Const("s_partition", IOTA)
    x, y, z = (Var(n, IOTA) for n in "XYZ")
    expected = forall(
        "X",
        IOTA,
        forall(
            "Y",
            IOTA,
            forall(
                "Z",
                IOTA,
                imp_chain(
                    [
                        mem(x, dm(p, 0)),
                        mem(y, dm(p, 1)),
                        mem(z, dm(p, 2)),
                        mem(z, dm(p, 1)),
                        mem(y, dm(p, 2)),
                    ],
                    imp(
                        istrue(ap_list(p, [x, y, z])),
                        istrue(ap_list(p, [x, z, y])),
                    ),
                ),
            ),
        ),
    )
    assert alpha_eq(got, expected)


def test_golden_subrelation_rule():
    sig_src = (
        "(domain subrelation 1 Relation)"
        "(domain subrelation 2 Relation)"
    )
    tr, got = translate_formula(
        "(=> (and (subrelation ?REL1 ?REL2)"
        "         (instance ?REL1 Predicate)"
        "         (instance ?REL2 Predicate)"
        "         (?REL1 @ROW))"
        "    (?REL2 @ROW))",
        sig_src,
    )
    sr = Const("s_subrelation", IOTA)
    pred = Const("s_Predicate", IOTA)
    r1, r2 = Var("R1", IOTA), Var("R2", IOTA)
    rho = Var("RHO", LIST)
    body = imp(
        conj(
            istrue(ap_list(sr, [r1, r2])),
            conj(
                mem(r1, pred),
                conj(mem(r2, pred), istrue(ap_row(r1, rho))),
            ),
        ),
        istrue(ap_row(r2, rho)),
    )
    expected = forall(
        "R1",
        IOTA,
        forall(
            "R2",
            IOTA,
            forall(
                "RHO",
                LIST,
                imp_chain(
                    [
                        mem(r1, dm(sr, 0)),
                        mem(r2, dm(sr, 1)),
                        mem(r1, cc("entity")),
                        mem(r2, cc("entity")),
                        dom_of_generic(r1, rho),
                        dom_of_generic(r2, rho),
                    ],
                    body,
                ),
            ),
        ),
    )
    assert alpha_eq(got, expected)


def test_golden_kappa_class():
    sig_src = "(domain attribute 1 Object)(domain attribute 2 Attribute)"
    tr, got = translate_formula(
        "(instance o (KappaFn ?P (and (instance ?P Planet) (attribute ?P Earthlike))))",
        sig_src,
    )
    attr = Const("s_attribute", IOTA)
    p = Var("P", IOTA)
    expected = mem(
        Const("s_o", IOTA),
        separation(
            "P",
            cc("univ"),
            conj(
                mem(p, cc("entity")),
                conj(
                    mem(p, dm(attr, 0)),
                    conj(
                        mem(p, Const("s_Planet", IOTA)),
                        istrue(ap_list(attr, [p, Const("s_Earthlike", IOTA)])),
                    ),
                ),
            ),
        ),
    )
    assert alpha_eq(got, expected)


def test_existential_guards_conjoined():
    tr, _ = translate_formula("(son a b)", "(domain son 1 Human)(domain son 2 Human)")
    got = tr.formula(formula_of("(exists (?X) (son ?X ?X))"))
    son = Const("s_son", IOTA)
    x = Var("X", IOTA)
    expected = exists(
        "X",
        IOTA,
        conj(
            mem(x, dm(son, 0)),
            conj(mem(x, dm(son, 1)), istrue(ap_list(son, [x, x]))),
        ),
    )
    assert alpha_eq(got, expected)


def test_close_query_uses_conjunction():
    sig = sig_from("(domain son 1 Human)(domain son 2 Human)")
    tr = Translator(sig)
    got = tr.close_query(lower_one("(son ?X Bob)"))
    son = Const("s_son", IOTA)
    x = Var("X", IOTA)
    expected = exists(
        "X",
        IOTA,
        conj(mem(x, dm(son, 0)), istrue(ap_list(son, [x, Const("s_Bob", IOTA)]))),
    )
    assert alpha_eq(got, expected)


def _conjecture_text(tmp_path, kb_text, query_text):
    """The rendered conjecture of a query against a knowledge base, after it checks clean."""
    if kb_text is None:
        kb = fixture_path("merge_fragment.kif")
    else:
        kb = tmp_path / "kb.kif"
        kb.write_text(kb_text)
    q = tmp_path / "q.kif"
    q.write_text(query_text)
    problem, _skips, _tr = translate_query_job([str(kb)], str(q))
    assert check_text(problem_text(problem, reproducible=True)) == []
    return problem.conjecture.text


# Pinned as rendered text, which does not depend on how host terms are built.
def test_query_disjunction_and_biconditional_render_pinned(tmp_path):
    got = _conjecture_text(
        tmp_path,
        None,
        "(query (exists (?X) (or (instance ?X Organization)"
        " (<=> (employs ?X Bob) (not (employs Bob ?X))))))\n",
    )
    assert got == (
        "thf(conj, conjecture, (?[X : $i]: ((in @ X @ entity) & ((in @ X @ (domseqm @ s_employs @ ord0)) &\n"
        "    ((in @ X @ (domseqm @ s_employs @ ord1)) & ((in @ X @ s_Organization) | ((istrue @ (ap @\n"
        "    s_employs @ (listset @ (cons @ X @ (cons @ s_Bob @ nil))))) <=> (~ (istrue @ (ap @ s_employs @\n"
        "    (listset @ (cons @ s_Bob @ (cons @ X @ nil)))))))))))))."
    )


def test_every_connective_quantifier_and_comparison_renders_pinned(tmp_path):
    # a row and an individual existential, a nested universal, a 3-way or,
    # and, not, <=>, => and both comparisons, in one query
    got = _conjecture_text(
        tmp_path,
        None,
        "(query (exists (@ROW ?X) (or (partition @ROW)"
        " (and (instance ?X Organization) (not (employs ?X Bob)))"
        " (<=> (lessThan 1 2) (=> (lessThanOrEqualTo 2 2) (forall (?Y) (employs ?X ?Y)))))))\n",
    )
    assert got == (
        "thf(conj, conjecture, (?[ROW : $i > $i]: ((dom_of @ (vararity @ s_partition) @ (arity @ s_partition)\n"
        "    @ (domseq @ s_partition) @ ROW) & (?[X : $i]: ((in @ X @ entity) & ((in @ X @ (domseqm @\n"
        "    s_employs @ ord0)) & ((istrue @ (ap @ s_partition @ (listset @ ROW))) | (((in @ X @\n"
        "    s_Organization) & (~ (istrue @ (ap @ s_employs @ (listset @ (cons @ X @ (cons @ s_Bob @\n"
        "    nil))))))) | ((istrue @ (ap @ arith_lt @ (listset @ (cons @ ord1 @ (cons @ ord2 @ nil))))) <=>\n"
        "    ((istrue @ (ap @ arith_leq @ (listset @ (cons @ ord2 @ (cons @ ord2 @ nil))))) => (![Y : $i]:\n"
        "    ((in @ Y @ (domseqm @ s_employs @ ord1)) => (istrue @ (ap @ s_employs @ (listset @ (cons @ X @\n"
        "    (cons @ Y @ nil)))))))))))))))))."
    )


# A query over all nine two-argument heads: the three atoms, both
# comparisons and the four arithmetic functions.
BINARY_QUERY = (
    "(query (exists (?X ?C) (and (instance ?X Organization) (subclass ?C Organization)"
    " (equal (AdditionFn 1 2) (SubtractionFn 5 2))"
    " (lessThan (MultiplicationFn 2 2) (DivisionFn 9 2)) (lessThanOrEqualTo 1 1))))\n"
)


def test_every_binary_head_renders_pinned(tmp_path):
    got = _conjecture_text(tmp_path, None, BINARY_QUERY)
    assert got == (
        "thf(conj, conjecture, (?[X : $i]: (?[C : $i]: ((in @ X @ entity) & ((in @ X @ s_Organization) &\n"
        "    ((subq @ C @ s_Organization) & (((ap @ arith_add @ (listset @ (cons @ ord1 @ (cons @ ord2 @\n"
        "    nil)))) = (ap @ arith_sub @ (listset @ (cons @ ord5 @ (cons @ ord2 @ nil))))) & ((istrue @ (ap @\n"
        "    arith_lt @ (listset @ (cons @ (ap @ arith_mult @ (listset @ (cons @ ord2 @ (cons @ ord2 @\n"
        "    nil)))) @ (cons @ (ap @ arith_div @ (listset @ (cons @ ord9 @ (cons @ ord2 @ nil)))) @ nil)))))\n"
        "    & (istrue @ (ap @ arith_leq @ (listset @ (cons @ ord1 @ (cons @ ord1 @ nil)))))))))))))."
    )


def test_domain_subclass_guard_renders_pinned(tmp_path):
    got = _conjecture_text(
        tmp_path,
        "(domainSubclass likes 1 Animal)\n(domain likes 2 Entity)\n",
        "(query (exists (?C) (likes ?C Bob)))\n",
    )
    assert got == (
        "thf(conj, conjecture, (?[C : $i]: ((subq @ C @ s_Animal) & (istrue @ (ap @ s_likes @ (listset @\n"
        "    (cons @ C @ (cons @ s_Bob @ nil))))))))."
    )


def test_negative_context_guards_still_implied():
    tr, got = translate_formula(
        "(forall (?X) (not (son ?X ?X)))",
        "(domain son 1 Human)(domain son 2 Human)",
    )
    son = Const("s_son", IOTA)
    x = Var("X", IOTA)
    expected = forall(
        "X",
        IOTA,
        imp_chain(
            [mem(x, dm(son, 0)), mem(x, dm(son, 1))],
            neg(istrue(ap_list(son, [x, x]))),
        ),
    )
    assert alpha_eq(got, expected)


def test_arithmetic_applies_through_ap():
    tr = Translator(sig_from(""))
    got = tr.formula(formula_of("(equal (MultiplicationFn 3 4) 12)"))
    expected = eq(
        ap_list(cc("arith_mult"), [ord_of(3), ord_of(4)]),
        App(
            App(cc("ord_add"), App(App(cc("ord_mult"), ord_of(1)), ord_of(10))),
            ord_of(2),
        ),
    )
    assert alpha_eq(got, expected)


def test_comparisons_use_arith_bridge():
    tr = Translator(sig_from(""))
    got = tr.formula(formula_of("(lessThan ?X 4)"))
    expected = istrue(ap_list(cc("arith_lt"), [Var("X", IOTA), ord_of(4)]))
    assert alpha_eq(got, expected)
    got = tr.formula(formula_of("(lessThanOrEqualTo 0 ?A)"))
    expected = istrue(ap_list(cc("arith_leq"), [ord_of(0), Var("A", IOTA)]))
    assert alpha_eq(got, expected)
    # only the two comparison forms are special; others stay relations
    got = tr.formula(formula_of("(greaterThan ?X 4)"))
    expected = istrue(ap_list(Const("s_greaterThan", IOTA), [Var("X", IOTA), ord_of(4)]))
    assert alpha_eq(got, expected)


def test_special_class_resolution():
    tr = Translator(sig_from(""))
    assert tr.resolve("Entity") == cc("entity")
    assert tr.resolve("SetOrClass") == cc("set_or_class")
    assert tr.resolve("Abstract") == cc("abstract_class")
    assert tr.resolve("RealNumber") == cc("real")
    assert tr.resolve("NegativeRealNumber") == cc("negreal")
    assert tr.resolve("NonnegativeRealNumber") == cc("nonnegreal")
    assert tr.resolve("Class") == App(cc("power"), cc("univ"))


@pytest.mark.parametrize(
    "name, host",
    [
        ("RealNumber", "real"),
        ("NegativeRealNumber", "negreal"),
        ("NonnegativeRealNumber", "nonnegreal"),
    ],
)
def test_real_number_classes_translate_to_their_catalog_constants(name, host):
    tr = Translator(sig_from(f"(domain half 1 {name})\n(range half {name})"))
    c, x = cc(host), Var("X", IOTA)
    # as an instance class and as a subclass bound
    assert tr.formula(formula_of(f"(instance ?X {name})")) == mem(x, c)
    assert tr.formula(formula_of(f"(subclass ?X {name})")) == subq(x, c)
    # as a domain class, in the relation's facts, and as a range class, in
    # the guard of a variable equal to an application of the relation
    half = tr.resolve("half")
    domain = dict(tr.relation_facts("half"))["rel_s_half_domseq0"]
    assert domain == eq(app(cc("domseq"), half, ord_of(0)), c)
    found = guards.guards_for(formula_of("(equal ?X (half 1))"), {"X"}, tr.sig, tr.resolve)
    assert found == [("X", guards.MemClass(c, guards.MEMBER))]
    # as an argument
    assert tr.formula(formula_of(f"(p {name})")) == istrue(ap_list(tr.resolve("p"), [c]))
    assert mangle(name) not in tr.minted


def test_minted_constants_tracked_once():
    tr = Translator(sig_from(""))
    a1 = tr.resolve("Acme")
    a2 = tr.resolve("Acme")
    assert a1 == a2 == Const("s_Acme", IOTA)
    assert list(tr.minted) == ["s_Acme"]


def test_fresh_index_binder_avoids_the_forms_variables(monkeypatch):
    # the names a fresh binder avoids are worked out once, for the form that
    # needs one, and they include the form's bound variables
    built = []
    real = sumo.variable_names

    def variable_names(node, names=None):
        if names is None:
            built.append(node)
        return real(node, names)

    monkeypatch.setattr(sumo, "variable_names", variable_names)
    tr = Translator(sig_from(""))
    plain = tr.close_assertion(lower_one("(forall (@ROW) (p c @ROW))"))
    query = lower_one("(query (exists (@ROW ?NIDX) (and (p @ROW ?NIDX) (p ?NIDX))))")
    got = tr.close_query(query)
    assert built == [query.formula]
    assert "NIDX" not in th0.render_premise("ax", "axiom", plain).text
    text = th0.render_premise("conj", "conjecture", got).text
    assert "^[NIDX0 : $i]" in text
    assert "^[NIDX : $i]" not in text


def test_row_spine_suffix_encoding():
    sig = sig_from("")
    tr = Translator(sig)
    got = tr.formula(formula_of("(forall (@ROW) (p @ROW c))"))
    head, (lam,) = head_args(got)
    assert head is quantifier(FORALL, LIST) and type(lam) is Lam
    # the generic row guard wraps the atom even for undeclared heads
    head, (_guard, atom) = head_args(lam.body)
    assert head is IMP
    # istrue (ap p (listset <extended row>))
    spine = atom.arg.arg.arg
    assert isinstance(spine, Lam)
    # below the row's own length, defer to the row; at the extension
    # offset, the tagged suffix entry; otherwise empty
    head, (cond, then, other) = head_args(spine.body)
    assert head is ITE
    assert head_args(cond)[0] is IN
    assert then == App(Var("ROW", LIST), Var(spine.name, IOTA))
    head, (_, then, other) = head_args(other)
    assert head is ITE
    assert then == App(cc("tag"), Const("s_c", IOTA))
    assert other == cc("emptyset")
    env = {n: translate.CATALOG.type_of(n) for n in translate.CATALOG.order}
    env["s_p"] = IOTA
    env["s_c"] = IOTA
    assert typecheck(got, env).tag == "o"


def test_mangling_examples():
    assert mangle("partition") == "s_partition"
    assert mangle("Number3-1") == "s_Number3_2d1"
    assert mangle("a b") == "s_a_20b"
    assert mangle("x_y") == "s_x_5fy"


@given(st.text(min_size=1, max_size=12))
def test_mangling_injective_and_safe(name):
    import re

    m = mangle(name)
    assert re.fullmatch(r"[a-z][A-Za-z0-9_]*", m)
    other = name + "x"
    assert mangle(other) != m


def test_distinct_names_never_collide():
    tr = Translator(sig_from(""))
    # the escape makes collisions impossible; resolving near-misses is safe
    a = tr.resolve("a-b")
    b = tr.resolve("a_2db")
    assert a != b


def test_escape_keeps_wide_characters_apart():
    # a control character followed by a digit, and U+0100, once both gave _100
    a, b = "\x10" + "0", "\u0100"
    assert mangle(a) == "s__100" and mangle(b) == "s__u000100"
    assert _thf_var(a) == "V__100" and _thf_var(b) == "V__u000100"
    tr = Translator(sig_from(""))
    assert tr.resolve(a) != tr.resolve(b)


def test_collision_is_found_after_many_resolves_of_the_first_name(monkeypatch):
    # mangle is injective; a case-folding one makes a collision reachable
    monkeypatch.setattr(translate, "mangle", lambda name: "s_" + translate.escape(name.lower()))
    tr = Translator(sig_from(""))
    first = tr.resolve("Bob")
    for _ in range(1000):
        assert tr.resolve("Bob") is first
    with pytest.raises(translate.MangleCollision, match="'bob' and 'Bob' both mangle to 's_bob'"):
        tr.resolve("bob")
    assert tr.resolve("Bob") is first
    assert tr.minted == {"s_bob": "Bob"}


@given(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
def test_host_var_injective_and_rendered_unchanged(a, b):
    assert (host_var(a) == host_var(b)) == (a == b)
    assert _thf_var(host_var(a)) == host_var(a)
    if not a.startswith("V_") and _thf_var(a) == a:
        assert host_var(a) == a


def test_kif_variables_x_and_V_x_stay_apart(tmp_path):
    (tmp_path / "kb.kif").write_text("")
    (tmp_path / "q.kif").write_text(
        "(query (exists (?x ?V_x) (and (p ?x ?V_x) (not (equal ?x ?V_x)))))\n"
    )
    problem, _skips, _tr = translate_query_job([str(tmp_path / "kb.kif")], str(tmp_path / "q.kif"))
    text = problem_text(problem, reproducible=True)
    assert "?[V_x : $i]: (?[V_V_5fx : $i]:" in text
    assert "(~ (V_x = V_V_5fx))" in text
    assert check_text(text) == []


def test_guard_derivations_are_written_exactly_when_collected(tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    plain, _skips, _tr = translate_query_job(["merge_fragment.kif"], "tqg3.kif")
    assert plain.explanations is None
    assert "guard derivations" not in problem_text(plain, reproducible=True)
    forms = translate.read_kb(["merge_fragment.kif"])
    image = translate.KbImage(
        forms, translate.signature_of(forms.declarations), collect_explanations=True
    )
    for kb in (["merge_fragment.kif"], image):
        problem, _skips, _tr = translate_query_job(kb, "tqg3.kif", collect_explanations=True)
        lines = problem_text(problem, reproducible=True).splitlines()
        at = lines.index("% guard derivations:")
        assert len(problem.explanations) > 1
        assert lines[at + 1 : at + 1 + len(problem.explanations)] == [
            "% " + line for line in problem.explanations
        ]
    # collected, and none to write
    (tmp_path / "kb.kif").write_text("")
    (tmp_path / "q.kif").write_text("(query (instance Bob Human))\n")
    problem, _skips, _tr = translate_query_job(
        [str(tmp_path / "kb.kif")], str(tmp_path / "q.kif"), collect_explanations=True
    )
    assert problem.explanations == []
    assert "% guard derivations: none\n" in problem_text(problem, reproducible=True)


def test_nested_kappa_explains_every_guard_after_class_formation(tmp_path):
    # the instance-arg line repeats the entity guard kappa puts first; it is
    # explained though not emitted, and no golden digest has a KappaFn
    # variable under instance
    (tmp_path / "q.kif").write_text(NESTED_KAPPA)
    problem, _skips, _tr = translate_query_job(
        [fixture_path("merge_fragment.kif")], str(tmp_path / "q.kif"), collect_explanations=True
    )
    assert problem.explanations[-5:] == [
        "  X: member of entity [class-formation]",
        "  X: member of entity [instance-arg]",
        "  X: in domseqm of s_parent at 1",
        "  Y: member of entity [class-formation]",
        "  Y: in domseqm of s_parent at 0",
    ]
    # the entity guard is emitted once, the parent guard right after it
    text = " ".join(problem_text(problem, reproducible=True).split())
    assert "((in @ X @ entity) & ((in @ X @ (domseqm @ s_parent @ ord1))" in text


def test_relation_facts_variadic():
    sig = sig_from(VARIADIC_SIG)
    tr = Translator(sig)
    tr.resolve("partition")
    facts = dict(
        (name, term) for name, term in tr.relation_facts("partition")
    )
    p = Const("s_partition", IOTA)
    assert alpha_eq(
        facts["rel_s_partition_arity"], eq(App(cc("arity"), p), ord_of(2))
    )
    assert alpha_eq(facts["rel_s_partition_vararity"], App(cc("vararity"), p))
    soc = cc("set_or_class")
    for j in (0, 1, 2):
        assert alpha_eq(
            facts[f"rel_s_partition_domseq{j}"],
            eq(app(cc("domseq"), p, ord_of(j)), soc),
        )


def test_relation_facts_fixed_arity_negated_vararity():
    sig = sig_from("(domain son 1 Human)(domain son 2 Human)")
    tr = Translator(sig)
    tr.resolve("son")
    tr.resolve("Human")
    facts = dict(tr.relation_facts("son"))
    son = Const("s_son", IOTA)
    assert alpha_eq(facts["rel_s_son_vararity"], neg(App(cc("vararity"), son)))
    assert set(facts) == {
        "rel_s_son_arity",
        "rel_s_son_vararity",
        "rel_s_son_domseq0",
        "rel_s_son_domseq1",
    }


def test_relation_facts_subclass_slot_power_wrapped():
    sig = sig_from("(domainSubclass immediateSubclass 1 SetOrClass)")
    tr = Translator(sig)
    tr.resolve("immediateSubclass")
    facts = dict(tr.relation_facts("immediateSubclass"))
    got = facts["rel_s_immediateSubclass_domseq0"]
    want = eq(
        app(cc("domseq"), Const("s_immediateSubclass", IOTA), ord_of(0)),
        App(cc("power"), cc("set_or_class")),
    )
    assert alpha_eq(got, want)


def test_translated_terms_typecheck(merge_sig):
    tr = Translator(merge_sig)
    env = {n: translate.CATALOG.type_of(n) for n in translate.CATALOG.order}
    for src in (
        "(=> (son ?X ?Y) (parent ?Y ?X))",
        "(forall (@ROW) (=> (partition @ROW) (exhaustiveDecomposition @ROW)))",
        "(instance Bob (KappaFn ?X (employs Acme ?X)))",
        "(equal (AgeFn Bob) 41.5)",
    ):
        term = tr.close_assertion(lower_one(src))
        env2 = dict(env)
        env2.update({c.name: c.ty for c in (Const(n, IOTA) for n in tr.minted)})
        assert typecheck(term, env2) == translate.CATALOG.type_of("istrue").cod


def test_load_and_problem_naming(tmp_path):
    kb = tmp_path / "tiny.kif"
    kb.write_text(
        "(instance Acme Organization)\n"
        "(holdsDuring (YearFn 2000) (employs Acme Bob))\n"
        "(employs Acme Bob)\n"
    )
    q = tmp_path / "q.kif"
    q.write_text("(query (employs ?X Bob))\n")
    problem, skips, tr = translate.translate_query_job([str(kb)], str(q))
    names = [name for name, _role, _term in problem.premises]
    assert "kb_tiny_0" in names
    # the skipped middle form still consumes an index
    assert "kb_tiny_2" in names and "kb_tiny_1" not in names
    assert len(skips) == 1 and "holdsDuring" in skips[0].reason
    assert problem.conjecture is not None


def test_query_required(tmp_path):
    q = tmp_path / "q.kif"
    q.write_text("(instance a B)\n")
    with pytest.raises(translate.TranslateError):
        translate.translate_query_job([], str(q))


def test_query_in_kb_rejected(tmp_path):
    kb = tmp_path / "kb.kif"
    kb.write_text("(query (p a))\n")
    q = tmp_path / "q.kif"
    q.write_text("(query (p b))\n")
    with pytest.raises(translate.TranslateError):
        translate.translate_query_job([str(kb)], str(q))


def test_kb_files_with_coinciding_stems_rejected(tmp_path):
    paths = [tmp_path / "a-b.kif", tmp_path / "a_b.kif"]
    for path in paths:
        path.write_text("(instance Acme Organization)\n")
    q = tmp_path / "q.kif"
    q.write_text("(query (instance Acme Organization))\n")
    with pytest.raises(translate.TranslateError) as err:
        translate.translate_query_job([str(p) for p in paths], str(q))
    assert str(paths[0]) in str(err.value) and str(paths[1]) in str(err.value)


def test_premise_selection(tmp_path):
    kb = tmp_path / "kb.kif"
    kb.write_text("(instance Acme Organization)\n(instance Bob Human)\n")
    q = tmp_path / "q.kif"
    q.write_text("(query (instance Acme Organization))\n")
    problem, _skips, _tr = translate.translate_query_job([str(kb)], str(q))
    names = [n for n, _r, _t in translate.select_premises(problem, ["kb_kb_0"]).premises]
    assert "kb_kb_0" in names and "kb_kb_1" not in names
    with pytest.raises(translate.UnknownPremiseName):
        translate.select_premises(problem, ["kb_kb_9"])


def test_local_units_named_by_position(tmp_path):
    kb = tmp_path / "kb.kif"
    kb.write_text("(instance Acme Organization)\n")
    q = tmp_path / "q.kif"
    q.write_text("(employs Acme Bob)\n(query (employs ?X Bob))\n")
    problem, _skips, _tr = translate.translate_query_job([str(kb)], str(q))
    names = [n for n, _r, _t in problem.premises]
    assert "local_0" in names


def test_each_input_file_is_parsed_and_lowered_once(monkeypatch):
    parsed, lowered = [], []
    real_parse, real_lower = translate.parse_forms, sumo.lower

    def parse_forms(text, file):
        parsed.append(file)
        return real_parse(text, file)

    def lower(form, skip_heads):
        lowered.append(form)
        return real_lower(form, skip_heads)

    monkeypatch.setattr(translate, "parse_forms", parse_forms)
    monkeypatch.setattr(sumo, "lower", lower)
    kb, q = fixture_path("merge_fragment.kif"), fixture_path("tqg3.kif")
    translate_query_job([kb], q)
    assert parsed == [kb, q]
    forms = [f for path in (kb, q) for f in real_parse(sexpr.read_text(path), path)]
    assert len(lowered) == len(forms)


def test_every_file_is_read_before_translation(tmp_path):
    # the KB's misplaced query is a translation error, found only after the
    # query file's syntax error, because all files are read first
    kb = tmp_path / "kb.kif"
    kb.write_text("(query (p a))\n")
    q = tmp_path / "q.kif"
    q.write_text("(query (p\n")
    with pytest.raises(sexpr.UnbalancedParens):
        translate_query_job([str(kb)], str(q))
    q.write_text("(domain ?R 1 Foo)\n(query (p b))\n")
    with pytest.raises(signature.NonGroundDeclaration):
        translate_query_job([str(kb)], str(q))


def test_a_numeral_past_the_int_conversion_limit_is_a_located_error(tmp_path):
    # 5,001 digits are past the interpreter's default limit of 4,300 digits
    # on reading a string as an int
    q = tmp_path / "q.kif"
    q.write_text("(query\n  (equal ?X " + "7" * 5001 + "))\n")
    with pytest.raises(sumo.BadNumeral) as err:
        translate_query_job([], str(q))
    assert str(err.value) == f"{q}:2:13: numeral of 5001 digits is too long"


def test_collector_paused_restores_the_collector_state_it_found():
    import gc

    seen = []

    @translate.collector_paused
    def probe(fail=False, inner=None):
        seen.append(gc.isenabled())
        if inner is not None:
            inner()
            seen.append(gc.isenabled())  # a nested call did not turn it on
        if fail:
            raise ValueError("boom")
        return "done"

    was_enabled = gc.isenabled()
    try:
        gc.enable()
        assert probe() == "done" and gc.isenabled()
        with pytest.raises(ValueError):
            probe(fail=True)
        assert gc.isenabled()
        assert probe(inner=probe) == "done" and gc.isenabled()
        assert seen == [False, False, False, False, False]
        gc.disable()  # a caller's choice stands, on return and on raise
        assert probe() == "done" and not gc.isenabled()
        with pytest.raises(ValueError):
            probe(fail=True)
        assert not gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert probe.__name__ == "probe"


def test_a_kb_compile_runs_with_the_collector_off(monkeypatch):
    import gc

    seen = []
    for name in ("load_lowered", "translate_file"):
        real = getattr(translate, name)
        monkeypatch.setattr(
            translate, name, lambda *a, real=real: seen.append(gc.isenabled()) or real(*a)
        )
    kb, query = fixture_path("merge_fragment.kif"), fixture_path("tqg3.kif")
    assert gc.isenabled()
    forms = translate.read_kb([kb])
    image = translate.compile_kb(forms)
    translate_query_job(image, query)
    translate_query_job([kb], query)
    assert gc.isenabled() and len(seen) == 8 and not any(seen)


def test_translator_is_freed_by_reference_counting():
    # with the collector off, nothing may hold a job's translator in a cycle
    import gc
    import weakref

    from conftest import fixture_path

    kb, query = fixture_path("merge_fragment.kif"), fixture_path("tqg3.kif")
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        problem, skips, tr = translate_query_job([kb], query)
        assert problem is not None
        ref = weakref.ref(tr)
        del problem, skips, tr
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
