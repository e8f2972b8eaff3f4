"""Guard inference tests: positions, dedup, shadowing, row forms."""

from sumok2set import guards, translate
from sumok2set.guards import (
    MEMBER,
    SUBSET,
    MemClass,
    MemDomseqm,
    RowDomOf,
    RowDomOfKnown,
)
from sumok2set.hostterm import App, IOTA, Ite, Mem, Var
from sumok2set.catalog import cc

from conftest import formula_of, sig_from


def infer(src_formula, sig_src, scope, expand=False):
    sig = sig_from(sig_src)
    tr = translate.Translator(sig)
    f = formula_of(src_formula)
    return guards_dict(f, scope, sig, tr, expand), tr


def guards_dict(f, scope, sig, tr, expand):
    return guards.guards_for(f, set(scope), sig, tr.resolve, expand_known_rows=expand)


SIG = (
    "(domain son 1 Human)"
    "(domain son 2 Human)"
    "(domainSubclass immediateSubclass 1 SetOrClass)"
    "(domainSubclass immediateSubclass 2 SetOrClass)"
    "(instance partition VariableArityRelation)"
    "(domain partition 1 SetOrClass)"
    "(domain partition 2 SetOrClass)"
    "(range AgeFn NonnegativeRealNumber)"
    "(domain AgeFn 1 Object)"
)


def test_constant_head_positional_guard():
    occ, tr = infer("(son ?X ?Y)", SIG, {"X", "Y"})
    assert [g for _, g in occ["X"]] == [MemDomseqm(tr.resolve("son"), 0)]
    assert [g for _, g in occ["Y"]] == [MemDomseqm(tr.resolve("son"), 1)]


def test_positions_are_global_and_ordered():
    occ, _ = infer("(son ?X ?Y)", SIG, {"X", "Y"})
    assert occ["X"][0][0] < occ["Y"][0][0]


def test_subclass_domain_gives_subset_guard():
    occ, tr = infer("(immediateSubclass ?A ?B)", SIG, {"A", "B"})
    assert occ["A"] and isinstance(occ["A"][0][1], MemClass)
    g = occ["A"][0][1]
    assert g.mode == SUBSET
    assert g.cls == cc("set_or_class")


def test_unknown_relation_contributes_nothing():
    occ, _ = infer("(mystery ?X)", SIG, {"X"})
    assert occ["X"] == []


def test_variable_head_guard_uses_host_variable():
    occ, _ = infer("(?REL ?X)", SIG, {"X", "REL"})
    assert occ["X"] == [(0, MemDomseqm(Var("REL", IOTA), 0))]
    # the head variable itself gets no guard from head position
    assert occ["REL"] == []


def test_instance_first_arg_entity_guard():
    occ, _ = infer("(instance ?X Human)", SIG, {"X"})
    assert occ["X"] == [(0, MemClass(cc("entity"), MEMBER, origin="instance-arg"))]


def test_variadic_index_beyond_min_arity():
    occ, tr = infer("(partition ?X ?Y ?Z)", SIG, {"X", "Y", "Z"})
    p = tr.resolve("partition")
    assert [g for _, g in occ["X"]] == [MemDomseqm(p, 0)]
    assert [g for _, g in occ["Y"]] == [MemDomseqm(p, 1)]
    # index stays the raw position; saturation happens inside domseqm
    assert [g for _, g in occ["Z"]] == [MemDomseqm(p, 2)]


def test_structural_dedup_keeps_first():
    occ, tr = infer("(and (son ?X ?Y) (son ?X ?Z))", SIG, {"X", "Y", "Z"})
    assert len(occ["X"]) == 1
    assert occ["X"][0][0] == 0


def test_dedup_interleaving_partition_swap():
    occ, tr = infer(
        "(=> (partition ?X ?Y ?Z) (partition ?X ?Z ?Y))", SIG, {"X", "Y", "Z"}
    )
    subjects = {n: Var(n, IOTA) for n in "XYZ"}
    chain = guards.merge_guard_chain(occ, subjects)
    p = tr.resolve("partition")

    def dm(v, j):
        return MemDomseqm(p, j).to_term(subjects[v])

    assert chain == [
        dm("X", 0),
        dm("Y", 1),
        dm("Z", 2),
        dm("Z", 1),
        dm("Y", 2),
    ]


def test_shadowed_variables_skipped():
    occ, _ = infer(
        "(and (son ?X ?Y) (forall (?X) (son ?X ?X)))", SIG, {"X", "Y"}
    )
    # only the outer occurrence of X contributes
    assert len(occ["X"]) == 1
    assert occ["X"][0][0] == 0


def test_row_guard_generic_for_constant_head():
    occ, tr = infer("(partition @ROW)", SIG, ["ROW"])
    assert occ["ROW"] == [(0, RowDomOf(tr.resolve("partition")))]


def test_row_guard_for_variable_head():
    occ, _ = infer("(?REL @ROW)", SIG, ["ROW"])
    assert occ["ROW"] == [(0, RowDomOf(Var("REL", IOTA)))]


def test_row_guard_expanded_when_requested():
    occ, tr = infer("(partition @ROW)", SIG, ["ROW"], expand=True)
    (pos, g), = occ["ROW"]
    assert isinstance(g, RowDomOfKnown)
    assert g.var_arity is True
    assert g.min_arity == 2
    # template slot appended for the variadic tail
    assert len(g.domains) == 3
    assert g.domains[2] == g.domains[1]


def test_row_guard_expanded_fixed_arity():
    occ, tr = infer("(son @ROW)", SIG, ["ROW"], expand=True)
    (_, g), = occ["ROW"]
    assert isinstance(g, RowDomOfKnown)
    assert g.var_arity is False
    assert len(g.domains) == 2


def test_expanded_subclass_slot_power_wrapped():
    occ, tr = infer("(immediateSubclass @ROW)", SIG, ["ROW"], expand=True)
    (_, g), = occ["ROW"]
    assert g.domains[0] == App(cc("power"), cc("set_or_class"))


def test_expanded_guard_term_shape():
    occ, _ = infer("(son @ROW)", SIG, ["ROW"], expand=True)
    (_, g), = occ["ROW"]
    term = g.to_term(Var("R", guards.IOTA if hasattr(guards, "IOTA") else IOTA))
    # dom_of_fixedar applied to arity, a domain selector lambda, and the row
    assert term.fn.fn.fn == cc("dom_of_fixedar")
    lam = term.fn.arg
    assert isinstance(lam.body, Ite)


def test_range_heuristic_both_orientations():
    for src in (
        "(equal ?A (AgeFn ?P))",
        "(equal (AgeFn ?P) ?A)",
    ):
        occ, tr = infer(src, SIG, {"A", "P"})
        kinds = [g for _, g in occ["A"]]
        assert kinds == [
            MemClass(cc("nonnegreal"), MEMBER, origin="range-heuristic")
        ], src
        # P still picks up the argument guard
        assert [g for _, g in occ["P"]] == [MemDomseqm(tr.resolve("AgeFn"), 0)]


def test_no_range_heuristic_without_declared_range():
    occ, _ = infer("(equal ?A (mystery ?P))", SIG, {"A", "P"})
    assert occ["A"] == []


def test_prefix_guard_precedes_row_guard():
    occ, tr = infer("(son ?X @ROW)", SIG, {"X", "ROW"})
    chain = guards.merge_guard_chain(
        occ, {"X": Var("X", IOTA), "ROW": Var("ROW", translate.LIST)}
    )
    assert isinstance(chain[0], Mem)  # X in domseqm son 0
    # the row guard follows
    assert chain[1].fn.fn.fn.fn == cc("dom_of")


def test_row_suffix_terms_recursed_not_guarded():
    occ, tr = infer("(partition @ROW (AgeFn ?P))", SIG, {"P", "ROW"})
    # P sits after the row at an unknown index: only the inner AgeFn guard
    assert [g for _, g in occ["P"]] == [MemDomseqm(tr.resolve("AgeFn"), 0)]


def test_guards_inside_kappa_shadowed():
    occ, _ = infer(
        "(instance Acme (KappaFn ?X (son ?X ?Y)))", SIG, {"X", "Y"}
    )
    # the kappa binds X; uses inside do not leak to the outer scope
    assert occ["X"] == []
    assert len(occ["Y"]) == 1


def test_explain_lists_each_guard():
    occ, tr = infer("(son ?X ?Y)", SIG, {"X", "Y"})
    lines = guards.explain(occ)
    assert lines == [
        "  X: in domseqm of s_son at 0",
        "  Y: in domseqm of s_son at 1",
    ]


def test_relation_facts_and_expanded_row_guard_share_the_domain_sequence():
    # a domainSubclass slot, a gap filled with Entity, and a variadic tail
    sig = sig_from(
        "(instance mix VariableArityRelation)(domainSubclass mix 1 Animal)(domain mix 3 Human)"
    )
    guard_tr, fact_tr = translate.Translator(sig), translate.Translator(sig)
    occ = guards_dict(formula_of("(mix @ROW)"), ["ROW"], sig, guard_tr, True)
    (_, g), = occ["ROW"]
    facts = dict(fact_tr.relation_facts("mix"))
    human = fact_tr.resolve("Human")
    expected = [App(cc("power"), fact_tr.resolve("Animal")), cc("entity"), human, human]
    assert list(g.domains) == expected
    assert [facts[f"rel_s_mix_domseq{j}"].right for j in range(4)] == expected
    assert len(facts) == 2 + 4
    # both mint the domain classes in slot order
    assert list(guard_tr.minted) == list(fact_tr.minted)[1:] == ["s_Animal", "s_Human"]
