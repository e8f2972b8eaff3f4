"""Guard inference tests: source order, dedup, shadowing, row forms."""

from sumok2set import guards, translate
from sumok2set.guards import (
    MEMBER,
    SUBSET,
    MemClass,
    MemDomseqm,
    RowDomOf,
    RowDomOfKnown,
)
from sumok2set.hostterm import App, IOTA, Var
from sumok2set.catalog import IN, ITE, cc

from conftest import formula_of, sig_from
from termhelpers import head_args


def infer(src_formula, sig_src, scope, expand=False):
    sig = sig_from(sig_src)
    tr = translate.Translator(sig)
    f = formula_of(src_formula)
    return guards_found(f, scope, sig, tr, expand), tr


def guards_found(f, scope, sig, tr, expand):
    return guards.guards_for(f, set(scope), sig, tr.resolve, expand_known_rows=expand)


def of(found, name):
    """The guards found for one variable, in order."""
    return [g for n, g in found if n == name]


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
    found, tr = infer("(son ?X ?Y)", SIG, {"X", "Y"})
    assert of(found, "X") == [MemDomseqm(tr.resolve("son"), 0)]
    assert of(found, "Y") == [MemDomseqm(tr.resolve("son"), 1)]


def test_guards_of_all_variables_come_in_source_order():
    found, _ = infer("(son ?X ?Y)", SIG, {"X", "Y"})
    assert [n for n, _ in found] == ["X", "Y"]


def test_subclass_domain_gives_subset_guard():
    found, tr = infer("(immediateSubclass ?A ?B)", SIG, {"A", "B"})
    assert of(found, "A") and isinstance(of(found, "A")[0], MemClass)
    g = of(found, "A")[0]
    assert g.mode == SUBSET
    assert g.cls == cc("set_or_class")


def test_unknown_relation_contributes_nothing():
    found, _ = infer("(mystery ?X)", SIG, {"X"})
    assert found == []


def test_variable_head_guard_uses_host_variable():
    found, _ = infer("(?REL ?X)", SIG, {"X", "REL"})
    # the head variable itself gets no guard from head position
    assert found == [("X", MemDomseqm(Var("REL", IOTA), 0))]


def test_instance_first_arg_entity_guard():
    found, _ = infer("(instance ?X Human)", SIG, {"X"})
    assert found == [("X", MemClass(cc("entity"), MEMBER, origin="instance-arg"))]


def test_variadic_index_beyond_min_arity():
    found, tr = infer("(partition ?X ?Y ?Z)", SIG, {"X", "Y", "Z"})
    p = tr.resolve("partition")
    assert of(found, "X") == [MemDomseqm(p, 0)]
    assert of(found, "Y") == [MemDomseqm(p, 1)]
    # index stays the raw position; saturation happens inside domseqm
    assert of(found, "Z") == [MemDomseqm(p, 2)]


def test_structural_dedup_keeps_first():
    found, tr = infer("(and (son ?X ?Y) (son ?X ?Z))", SIG, {"X", "Y", "Z"})
    assert len(of(found, "X")) == 1
    assert found[0][0] == "X"


def test_dedup_interleaving_partition_swap():
    found, tr = infer(
        "(=> (partition ?X ?Y ?Z) (partition ?X ?Z ?Y))", SIG, {"X", "Y", "Z"}
    )
    subjects = {n: Var(n, IOTA) for n in "XYZ"}
    chain = [g.to_term(subjects[n]) for n, g in found]
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
    found, _ = infer(
        "(and (son ?X ?Y) (forall (?X) (son ?X ?X)))", SIG, {"X", "Y"}
    )
    # only the outer occurrence of X contributes
    assert len(of(found, "X")) == 1
    assert found[0][0] == "X"


def test_row_guard_generic_for_constant_head():
    found, tr = infer("(partition @ROW)", SIG, ["ROW"])
    assert found == [("ROW", RowDomOf(tr.resolve("partition")))]


def test_row_guard_for_variable_head():
    found, _ = infer("(?REL @ROW)", SIG, ["ROW"])
    assert found == [("ROW", RowDomOf(Var("REL", IOTA)))]


def test_row_guard_expanded_when_requested():
    found, tr = infer("(partition @ROW)", SIG, ["ROW"], expand=True)
    (name, g), = found
    assert name == "ROW"
    assert isinstance(g, RowDomOfKnown)
    assert g.var_arity is True
    assert g.min_arity == 2
    # template slot appended for the variadic tail
    assert len(g.domains) == 3
    assert g.domains[2] == g.domains[1]


def test_row_guard_expanded_fixed_arity():
    found, tr = infer("(son @ROW)", SIG, ["ROW"], expand=True)
    (_, g), = found
    assert isinstance(g, RowDomOfKnown)
    assert g.var_arity is False
    assert len(g.domains) == 2


def test_expanded_subclass_slot_power_wrapped():
    found, tr = infer("(immediateSubclass @ROW)", SIG, ["ROW"], expand=True)
    (_, g), = found
    assert g.domains[0] == App(cc("power"), cc("set_or_class"))


def test_expanded_guard_term_shape():
    found, _ = infer("(son @ROW)", SIG, ["ROW"], expand=True)
    (_, g), = found
    term = g.to_term(Var("R", guards.IOTA if hasattr(guards, "IOTA") else IOTA))
    # dom_of_fixedar applied to arity, a domain selector lambda, and the row
    assert term.fn.fn.fn == cc("dom_of_fixedar")
    lam = term.fn.arg
    assert head_args(lam.body)[0] is ITE


def test_range_heuristic_both_orientations():
    for src in (
        "(equal ?A (AgeFn ?P))",
        "(equal (AgeFn ?P) ?A)",
    ):
        found, tr = infer(src, SIG, {"A", "P"})
        kinds = of(found, "A")
        assert kinds == [
            MemClass(cc("nonnegreal"), MEMBER, origin="range-heuristic")
        ], src
        # P still picks up the argument guard
        assert of(found, "P") == [MemDomseqm(tr.resolve("AgeFn"), 0)]


def test_no_range_heuristic_without_declared_range():
    found, _ = infer("(equal ?A (mystery ?P))", SIG, {"A", "P"})
    assert of(found, "A") == []


def test_prefix_guard_precedes_row_guard():
    found, tr = infer("(son ?X @ROW)", SIG, {"X", "ROW"})
    subjects = {"X": Var("X", IOTA), "ROW": Var("ROW", translate.LIST)}
    chain = [g.to_term(subjects[n]) for n, g in found]
    assert head_args(chain[0])[0] is IN  # X in domseqm son 0
    # the row guard follows
    assert chain[1].fn.fn.fn.fn == cc("dom_of")


def test_row_suffix_terms_recursed_not_guarded():
    found, tr = infer("(partition @ROW (AgeFn ?P))", SIG, {"P", "ROW"})
    # P sits after the row at an unknown index: only the inner AgeFn guard
    assert of(found, "P") == [MemDomseqm(tr.resolve("AgeFn"), 0)]


def test_guards_inside_kappa_shadowed():
    found, _ = infer(
        "(instance Acme (KappaFn ?X (son ?X ?Y)))", SIG, {"X", "Y"}
    )
    # the kappa binds X; uses inside do not leak to the outer scope
    assert of(found, "X") == []
    assert len(of(found, "Y")) == 1


def test_explain_lists_each_guard():
    found, tr = infer("(son ?X ?Y)", SIG, {"X", "Y"})
    lines = guards.explain(found)
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
    found = guards_found(formula_of("(mix @ROW)"), ["ROW"], sig, guard_tr, True)
    (_, g), = found
    facts = dict(fact_tr.relation_facts("mix"))
    human = fact_tr.resolve("Human")
    expected = [App(cc("power"), fact_tr.resolve("Animal")), cc("entity"), human, human]
    assert list(g.domains) == expected
    assert [facts[f"rel_s_mix_domseq{j}"].arg for j in range(4)] == expected
    assert len(facts) == 2 + 4
    # both mint the domain classes in slot order
    assert list(guard_tr.minted) == list(fact_tr.minted)[1:] == ["s_Animal", "s_Human"]
