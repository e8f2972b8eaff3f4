"""Signature collection, inheritance, and variable-arity closure tests.

The transitive-closure cases are hand-walked; the property tests compare
close_vararity against an independent graph-reachability computation.
"""

import pytest
from hypothesis import given, strategies as st

from sumok2set import sexpr, signature, sumo
from sumok2set.sexpr import InputError

from conftest import lower_all, sig_from


def assertions(src):
    return [x for x in lower_all(src) if isinstance(x, sumo.Assertion)]


def test_empty_signature():
    sig = signature.collect([])
    assert sig.info("anything") is None


def test_basic_declarations():
    sig = sig_from(
        "(instance partition Predicate)"
        "(instance partition VariableArityRelation)"
        "(domain partition 1 Class)"
        "(domain partition 2 Class)"
    )
    info = sig.info("partition")
    assert info.min_arity == 2
    assert info.var_arity is True
    assert info.arg_domain == {1: ("Class", "instance"), 2: ("Class", "instance")}
    assert set(info.instance_of) >= {"Predicate", "VariableArityRelation"}


def test_domain_subclass_mode():
    sig = sig_from("(domainSubclass MereologicalSumFn 1 Object)")
    info = sig.info("MereologicalSumFn")
    assert info.arg_domain[1] == ("Object", "subclass")


def test_range_modes():
    sig = sig_from(
        "(range AgeFn NonnegativeRealNumber)"
        "(rangeSubclass PowerSetFn SetOrClass)"
    )
    assert sig.info("AgeFn").range == ("NonnegativeRealNumber", "instance")
    assert sig.info("PowerSetFn").range == ("SetOrClass", "subclass")


def test_conflicting_domain_keep_first():
    forms = assertions("(domain p 1 Human)(domain p 1 Object)")
    sig = signature.collect(forms)
    assert sig.info("p").arg_domain[1] == ("Human", "instance")
    assert sig.info("p").min_arity == 1
    sig = sig_from("(range f Human)(rangeSubclass f Object)")
    assert sig.info("f").range == ("Human", "instance")


def test_duplicate_identical_domain_ok():
    sig = sig_from("(domain p 1 Human)(domain p 1 Human)")
    assert sig.info("p").arg_domain[1] == ("Human", "instance")


def test_non_ground_declaration_rejected():
    forms = assertions("(domain ?R 1 Human)")
    with pytest.raises(signature.NonGroundDeclaration):
        signature.collect(forms)


def test_builtin_class_in_declaration_is_ground():
    sig = sig_from("(range AgeFn RealNumber)")
    assert sig.info("AgeFn").range == ("RealNumber", "instance")


def test_a_fact_of_a_real_number_class_between_constants_is_a_declaration():
    # RealNumber and its siblings lower to constants, so an instance or a
    # subclass fact between one of them and a constant declares
    src = "(instance Seven RealNumber)\n(subclass Pos NonnegativeRealNumber)"
    heads = [signature.declaration_head(a.formula) for a in assertions(src)]
    assert heads == ["instance", "subclass"]
    sig = sig_from(src)
    assert sig.info("Seven").instance_of == ["RealNumber"]
    assert sig.subclass_edges == {"Pos": ["NonnegativeRealNumber"]}


def test_subrelation_inherits_missing_slots():
    sig = sig_from(
        "(subrelation son parent)"
        "(domain parent 1 Human)"
        "(domain parent 2 Human)"
    )
    info = sig.info("son")
    assert info.arg_domain == {1: ("Human", "instance"), 2: ("Human", "instance")}
    assert info.min_arity == 2


def test_subrelation_own_slots_block_inheritance():
    # inheritance is all-or-nothing: any own domain declaration keeps
    # the supers' slots out entirely
    sig = sig_from(
        "(subrelation son parent)"
        "(domain son 1 Man)"
        "(domain parent 1 Human)"
        "(domain parent 2 Human)"
    )
    info = sig.info("son")
    assert info.arg_domain == {1: ("Man", "instance")}
    assert info.min_arity == 1


def test_subrelation_inherits_range():
    sig = sig_from(
        "(subrelation halfSibling sibling)"
        "(range sibling Human)"
    )
    info = sig.info("halfSibling")
    assert info.range == ("Human", "instance")


def test_missing_intermediate_slot_filled():
    sig = sig_from("(domain trusts 2 Agent)")
    info = sig.info("trusts")
    assert info.min_arity == 2
    assert info.arg_domain[1] == ("Entity", "instance")


def test_vararity_direct_instance():
    sig = sig_from("(instance partition VariableArityRelation)")
    assert sig.info("partition").var_arity is True


def test_vararity_via_subclass_chain():
    sig = sig_from(
        "(instance p Q)"
        "(subclass Q VariableArityRelation)"
    )
    assert sig.info("p").var_arity is True


def test_vararity_long_chain():
    sig = sig_from(
        "(instance p A)"
        "(subclass A B)"
        "(subclass B C)"
        "(subclass C VariableArityRelation)"
    )
    assert sig.info("p").var_arity is True


def test_vararity_default_false():
    sig = sig_from("(domain son 1 Human)")
    assert sig.info("son").var_arity is False


def test_close_vararity_idempotent():
    base = signature.collect(
        assertions(
            "(instance p Q)(subclass Q VariableArityRelation)(domain p 1 A)"
        )
    )
    once = signature.close_vararity(base)
    twice = signature.close_vararity(once)
    assert {n: i.var_arity for n, i in once.consts.items()} == {
        n: i.var_arity for n, i in twice.consts.items()
    }


names_st = st.sampled_from(list("pqrstu"))
classes_st = st.sampled_from(["A", "B", "C", "VariableArityRelation"])


@given(
    st.lists(st.tuples(names_st, classes_st), max_size=6),
    st.lists(st.tuples(classes_st, classes_st), max_size=6),
)
def test_vararity_matches_reachability(instances, subclasses):
    src = "".join(f"(instance {n} {c})" for n, c in instances)
    src += "".join(f"(subclass {a} {b})" for a, b in subclasses)
    sig = sig_from(src)

    # independent oracle: reachability in the subclass graph
    edges = {}
    for a, b in subclasses:
        edges.setdefault(a, set()).add(b)

    def reaches_var(cls, seen=()):
        if cls == "VariableArityRelation":
            return True
        if cls in seen:
            return False
        return any(reaches_var(n, seen + (cls,)) for n in edges.get(cls, ()))

    for n, _ in instances:
        expected = any(reaches_var(c) for c in sig.info(n).instance_of)
        assert sig.info(n).var_arity == expected, n


def test_merge_fragment_vararity(merge_sig):
    for name in ("partition", "exhaustiveDecomposition", "disjointDecomposition"):
        assert merge_sig.info(name).var_arity is True
        assert merge_sig.info(name).min_arity == 2
    assert merge_sig.info("employs").var_arity is False


def test_merge_fragment_employs_inherits(merge_sig):
    info = merge_sig.info("employs")
    assert info.arg_domain == {
        1: ("Object", "instance"),
        2: ("AutonomousAgent", "instance"),
    }


# Lowering and declaration errors no other test reaches, pinned as error
# class, FILE:LINE:COL and message.
@pytest.mark.parametrize(
    "source,error,where,message",
    [
        ("(instance @ROW Organization)", sumo.UnknownSyntax, "e.kif:1:11", "row variable used as a term"),
        ("(domain p 0 C)", signature.NonGroundDeclaration, "e.kif:1:1",
         "argument index must be a positive integer"),
        ("(range p)", signature.NonGroundDeclaration, "e.kif:1:1", "range declaration expects two arguments"),
        ("(subrelation a)", signature.NonGroundDeclaration, "e.kif:1:1", "subrelation expects two arguments"),
    ],
)
def test_lowering_and_declaration_errors_pinned(source, error, where, message):
    (form,) = sexpr.parse_forms(source, "e.kif")
    with pytest.raises(InputError) as caught:
        signature.collect([sumo.lower(form)])
    assert type(caught.value) is error
    assert (str(caught.value.span), caught.value.message) == (where, message)
