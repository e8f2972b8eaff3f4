"""Finite-set oracle tests.

Ordinal arithmetic is checked against plain int arithmetic; the claim
checker is exercised on both holding and failing identities.
"""

import copy
import gc
import hashlib
import itertools
import pickle
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from sumok2set import hforacle as hf
from sumok2set.catalog import CATALOG, SEP, cc, encode_nat, ord_of
from sumok2set.hostterm import (
    EQUALS, FORALL, LOGICAL, App, Const, FALSE, IOTA, Lam, OMICRON, TRUE, Var, app, arrow, eq, exists,
    forall, quantifier,
)

from termhelpers import conj, disj, imp, ite, mem, neg, separation, subq, subterms


def ev():
    return hf.Evaluator()


def run(term, env=None):
    return ev().eval(term, env or {})


def test_hfset_canonical():
    a = hf.hfset(hf.EMPTY, hf.EMPTY)
    b = hf.hfset(hf.EMPTY)
    assert a == b
    assert a.key() == "{{}}"
    assert len(list(a)) == 1


def test_hfset_key_sorted_deterministic():
    x = hf.hfset(hf.nat(2), hf.nat(0), hf.nat(1))
    y = hf.hfset(hf.nat(1), hf.nat(2), hf.nat(0))
    assert x.key() == y.key()


def test_nat_von_neumann():
    assert hf.nat(0) == hf.EMPTY
    three = hf.nat(3)
    assert len(list(three.elems)) == 3
    assert hf.nat(2) in three.elems


def test_is_nat():
    # returns the integer value, or None for non-numerals
    for n in range(6):
        assert hf.is_nat(hf.nat(n)) == n
    assert hf.is_nat(hf.hfset(hf.nat(1))) is None


def test_pred():
    for n in range(1, 6):
        assert hf.pred(hf.nat(n)) == hf.nat(n - 1)


# nested tuples of tuples: the shape of an HF set, duplicates allowed
hf_shapes = st.recursive(
    st.just(()), lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12
)


def build(shape, flip=False):
    elems = [build(s, flip) for s in shape]
    return hf.HfSet(reversed(elems) if flip else elems)


@given(hf_shapes, hf_shapes)
@settings(max_examples=60, deadline=None)
def test_interned_sets_equal_keys_same_object(s, t):
    x, y = build(s), build(s, flip=True)
    assert x is y and x.key() == y.key()
    z = build(t)
    assert (x is z) == (x.key() == z.key())


@given(hf_shapes)
@settings(max_examples=40, deadline=None)
def test_copy_and_pickle_return_the_interned_set(s):
    x = build(s)
    size = len(x)
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert copy.deepcopy([x, (x,)])[1][0] is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert len(x) == size
    for n in range(4):
        assert copy.copy(hf.nat(n)) is hf.nat(n)
        assert pickle.loads(pickle.dumps(hf.nat(n))) is hf.nat(n)
    assert len(hf.EMPTY) == 0 and hf.EMPTY.key() == "{}"
    assert hf.nat(3).key() == "{{{{}},{}},{{}},{}}"


@given(hf_shapes)
@settings(max_examples=40, deadline=None)
def test_numeral_tag_pred_and_order(s):
    x = build(s)
    assert hf.is_nat(x) == (len(x) if x is hf.nat(len(x)) else None)
    assert hf.pred(hf.succ(x)) is x
    # iteration is canonical key order, numerals included
    assert list(x) == sorted(x.elems, key=hf.HfSet.key)


def test_pred_of_non_successor_raises():
    for x in (hf.EMPTY, hf.hfset(hf.nat(1)), hf.hfset(hf.nat(0), hf.nat(2))):
        with pytest.raises(hf.OracleError):
            hf.pred(x)


def test_intern_table_keeps_nothing_alive():
    x = hf.hfset(hf.hfset(hf.nat(5)), hf.nat(9))
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None


def test_big_numerals_without_recursion_or_keys(monkeypatch):
    def no_key(self):
        raise AssertionError("key string built")

    monkeypatch.setattr(hf.HfSet, "key", no_key)
    e = ev()
    got = e.eval(app(cc("ord_exp"), ord_of(3), ord_of(3)), {})
    assert got is hf.nat(27) and hf.is_nat(got) == 27
    # deeper than the default recursion limit
    big = e.eval(app(cc("ord_sub"), encode_nat(1234), encode_nat(1)), {})
    assert hf.is_nat(big) == 1233 and hf.pred(big) is hf.nat(1232)
    assert list(hf.nat(40))[0] is hf.nat(39)


def test_pair_kuratowski():
    p = hf.pair(hf.nat(0), hf.nat(1))
    assert p == hf.hfset(
        hf.hfset(hf.nat(0)), hf.hfset(hf.nat(0), hf.nat(1))
    )


def test_hffn_defaults_empty_and_drops_empty_values():
    f = hf.hffn({hf.nat(0): hf.nat(2), hf.nat(1): hf.EMPTY})
    assert f(hf.nat(0)) == hf.nat(2)
    assert f(hf.nat(1)) == hf.EMPTY
    assert f(hf.nat(9)) == hf.EMPTY
    g = hf.hffn({hf.nat(0): hf.nat(2)})
    assert f == g


def test_lists_over_numerals_build_no_keys(monkeypatch):
    # the real key of nat(32) is about ten gigabytes, so count, never build
    calls = []

    def counting_key(self):
        calls.append(self)
        return ""

    monkeypatch.setattr(hf.HfSet, "key", counting_key)
    nats = [hf.nat(i) for i in range(33)]
    lst = hf.mk_hflist(nats)
    e = hf.Evaluator()
    same = e.to_list_fn(lambda i: hf.hfset(i))
    assert calls == []
    assert lst == same
    consed = e.eval(app(cc("cons"), cc("ord0"), cc("nil")), {})
    length = e.eval(app(cc("len"), Var("L", arrow(IOTA, IOTA))), {"L": lst})
    assert e.values_equal(length, hf.nat(33))
    assert consed(hf.nat(0)) is hf.hfset(hf.EMPTY)
    claim = hf.parse_lemmas(
        "![L:list]: ((len @ (^[N:$i]: (tag @ N))) = (len @ (^[N:$i]: (tag @ N))))\n"
    )[0]
    assert e.eval(claim.body, {"L": lst}) is True
    assert calls == []


def test_mk_hflist_tags_entries():
    lst = hf.mk_hflist([hf.nat(3), hf.EMPTY])
    assert lst(hf.nat(0)) == hf.hfset(hf.nat(3))
    assert lst(hf.nat(1)) == hf.hfset(hf.EMPTY)
    assert lst(hf.nat(2)) == hf.EMPTY


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_ord_add_matches_int(a, b):
    got = run(app(cc("ord_add"), encode(a), encode(b)))
    assert got == hf.nat(a + b)


@given(st.integers(0, 20), st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_ord_mult_matches_int(a, b):
    got = run(app(cc("ord_mult"), encode(a), encode(b)))
    assert got == hf.nat(a * b)


@given(st.integers(0, 6), st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_ord_exp_matches_int(a, b):
    got = run(app(cc("ord_exp"), encode(a), encode(b)))
    assert got == hf.nat(a**b)


@given(st.integers(0, 80), st.integers(0, 80))
@settings(max_examples=40, deadline=None)
def test_ord_sub_truncates(a, b):
    got = run(app(cc("ord_sub"), encode(a), encode(b)))
    assert got == hf.nat(max(a - b, 0))


@pytest.mark.parametrize("n", [11, 99, 100, 255, 999, 1000, 1234])
def test_encode_nat_evaluates_to_numeral(n):
    # set semantics of the digit polynomial, independent of rational_value
    assert ev().eval(encode_nat(n), {}) is hf.nat(n)


def encode(n):
    if n <= 10:
        return ord_of(n)
    return App(cc("ordsucc"), encode(n - 1))


def test_ordsucc_and_constants():
    for n in range(10):
        assert run(App(cc("ordsucc"), ord_of(n))) == hf.nat(n + 1)
        assert run(ord_of(n)) == hf.nat(n)


def test_tag_untag_identity():
    t = app(cc("untag"), App(cc("tag"), cc("ord3")))
    assert run(t) == hf.nat(3)


def test_tagged_entries_nonempty():
    assert run(App(cc("tag"), cc("emptyset"))) == hf.hfset(hf.EMPTY)


def test_in_and_subq():
    assert run(app(cc("in"), cc("ord1"), cc("ord2"))) is True
    assert run(app(cc("in"), cc("ord2"), cc("ord1"))) is False
    assert run(app(cc("subq"), cc("ord2"), cc("ord3"))) is True


def test_omega_membership_is_nathood():
    assert run(app(cc("in"), cc("ord7"), cc("omega"))) is True
    assert hf._mem(hf.hfset(hf.nat(1)), hf.OMEGA) is False
    # a set may hold omega itself; it is no numeral
    assert run(app(cc("in"), cc("omega"), App(cc("tag"), cc("omega")))) is True
    assert hf.is_nat(hf.hfset(hf.OMEGA)) is None
    # the infinite sentinel has no extensional value to compare
    with pytest.raises(hf.Unsupported):
        ev().values_equal(hf.OMEGA, hf.OMEGA)


@pytest.mark.parametrize("op", ["ord_add", "ord_sub", "ord_mult", "ord_exp"])
@pytest.mark.parametrize("args", [("ord1", "omega"), ("omega", "ord1"), ("omega", "ord0")])
def test_ordinal_arithmetic_on_omega_is_an_error_line(op, args):
    claims = hf.parse_lemmas(f"(({op} @ {args[0]} @ {args[1]}) = ord1)\n")
    results = [hf.check_claim(c) for c in claims]
    assert [r.error for r in results] == ["ordinal arithmetic on omega"]
    assert hf.format_results(results) == (
        "claim 1 (line 1): ERROR ordinal arithmetic on omega\n0/1 claims hold"
    )


def test_successor_of_omega_is_an_error_line():
    lines = (
        "((ordsucc @ omega) = omega)\n"
        # ite evaluates only the branch it takes, in a lemma line as in catalog.p
        "((ite @ $true @ emptyset @ (ordsucc @ omega)) = emptyset)\n"
    )
    results = [hf.check_claim(c) for c in hf.parse_lemmas(lines)]
    assert [r.error for r in results] == ["successor of omega", None]
    assert hf.format_results(results) == (
        "claim 1 (line 1): ERROR successor of omega\n"
        "claim 2 (line 2): ok (1 assignments)\n"
        "1/2 claims hold"
    )


@pytest.mark.parametrize(
    "line, error",
    [
        ("((ord_sub @ (tag @ omega) @ ord1) = ord1)", "a set that holds omega"),  # pred
        ("((ordsucc @ (tag @ omega)) = omega)", "a set that holds omega"),  # describe_set
        ("(subq @ (tag @ omega) @ omega)", "a set that holds omega"),
        ("((power @ omega) = omega)", "power set of omega"),
        ("((ord_add @ ord1 @ (tag @ omega)) = ord2)", "a set that holds omega"),
        # a set primitive applied short of its operands is a function value,
        # compared as one, and no error
        ("![A : set]: ((in @ A) = (in @ A))", None),
        ("![A : set]: ((subq @ A) = (subq @ A))", None),
        ("![A : set]: ((ite @ $true @ A) = (ite @ $true @ A))", None),
        # sep is evaluated over a lambda only, and has no value of its own
        ("((sep @ ord3 @ (in @ ord1)) = ord2)", "separation over a predicate that is no lambda"),
    ],
)
def test_sets_that_hold_omega_are_error_lines(line, error):
    results = [hf.check_claim(c) for c in hf.parse_lemmas(line + "\n")]
    assert [r.error for r in results] == [error]


def test_ordering_a_set_that_holds_omega_is_unsupported():
    mixed = hf.hfset(hf.OMEGA, hf.nat(1))
    with pytest.raises(hf.Unsupported, match="holds omega"):
        list(mixed)
    with pytest.raises(hf.Unsupported, match="holds omega"):
        mixed.key()
    # one member needs no ordering, so a quantifier can still range over it
    assert list(hf.hfset(hf.OMEGA)) == [hf.OMEGA]


def test_len_of_lists():
    e = ev()
    env = {}
    nil = e.eval(cc("nil"), env)
    assert e.eval(App(cc("len"), cc("nil")), env) == hf.EMPTY
    one = app(cc("cons"), cc("ord5"), cc("nil"))
    assert e.eval(App(cc("len"), one), env) == hf.nat(1)
    two = app(cc("cons"), cc("ord0"), one)
    assert e.eval(App(cc("len"), two), env) == hf.nat(2)
    # len is the set of numeral indices a table holds, a numeral or not
    length = App(cc("len"), Var("L", arrow(IOTA, IOTA)))
    holes = [{1: 0}, {0: 3, 2: 1}, {1: 1, 2: 2, 3: 3}, {0: 0, 1: 0, 2: 0}]
    for table in holes:
        fn = hf.hffn({hf.nat(k): hf.hfset(hf.nat(v)) for k, v in table.items()})
        assert e.eval(length, {"L": fn}) is hf.HfSet(map(hf.nat, table)), table
    tagged = hf.hffn({hf.nat(0): hf.nat(1), hf.hfset(hf.nat(1)): hf.nat(1)})
    assert e.eval(length, {"L": tagged}) is hf.nat(1)


def test_cons_semantics():
    e = ev()
    env = {}
    two = app(cc("cons"), cc("ord7"), app(cc("cons"), cc("ord5"), cc("nil")))
    lst = e.eval(two, env)
    assert lst(hf.nat(0)) == hf.hfset(hf.nat(7))
    assert lst(hf.nat(1)) == hf.hfset(hf.nat(5))
    assert lst(hf.nat(2)) == hf.EMPTY


def test_listset_pairs():
    e = ev()
    one = app(cc("cons"), cc("ord3"), cc("nil"))
    got = e.eval(App(cc("listset"), one), {})
    expect = hf.hfset(hf.pair(hf.nat(0), hf.hfset(hf.nat(3))))
    assert got == expect


def eager_cons(e, x, l):
    """The reference cons: a new table holding tag x at nat(0) and each of
    the tail's entries at the successor of its key."""
    fn = e.to_list_fn(l)
    table = {hf.EMPTY: hf.hfset(x)}
    for k, v in fn.table.items():
        table[hf.succ(k)] = v
    return hf.HfFn(table)


def eager_len(e, l):
    """The reference len: the table's length when its keys are nat(0) ..
    nat(n - 1), else the set of its numeral keys."""
    table = e.to_list_fn(l).table
    n = hf._list_length(table)
    if n is not None:
        return hf.nat(n)
    return hf.HfSet(k for k in table if k._nat >= 0)


# every numeral up to 6, every set of rank 2, and a successor that is no numeral
LIST_KEYS = [hf.nat(i) for i in range(7)] + hf.sets_of_rank(2) + [hf.succ(hf.hfset(hf.nat(1)))]


def assert_same_list(e, got, want):
    """got reads as want: applied, measured, as pairs, printed and compared."""
    for key in LIST_KEYS:
        assert got(key) is want(key), key
    assert e.interp["len"](got) is eager_len(e, want)
    assert e.interp["listset"](got) is e.interp["listset"](want)
    assert hf.describe_value(got) == hf.describe_value(want)
    assert got == want and want == got
    assert repr(got) == repr(want) == f"HfFn(table={want.table!r})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(got)
    for key in LIST_KEYS:  # and again once the comparison read the table
        assert got(key) is want(key), key


def test_cons_reads_as_the_eager_table_on_the_claims_domains():
    # the pairs of X and R that claims 2-4 of claims.lemmas range over
    e = ev()
    cons = e.interp["cons"]
    tails = hf.generators("list")
    assert len(tails) == 341
    for x in hf.generators("set"):
        for r in tails:
            assert_same_list(e, cons(x)(r), eager_cons(e, x, r))
    assert e.fuel == hf.DEFAULT_FUEL


def test_cons_reads_as_the_eager_table_on_tails_that_are_no_list():
    # the holes and tagged tables of test_len_of_lists: numeral keys with
    # gaps, and a key that is no numeral, one or two conses deep
    e = ev()
    cons = e.interp["cons"]
    holes = [{1: 0}, {0: 3, 2: 1}, {1: 1, 2: 2, 3: 3}, {0: 0, 1: 0, 2: 0}]
    tails = [hf.hffn({hf.nat(k): hf.hfset(hf.nat(v)) for k, v in t.items()}) for t in holes]
    tails.append(hf.hffn({hf.nat(0): hf.nat(1), hf.hfset(hf.nat(1)): hf.nat(1)}))
    for x in hf.sets_of_rank(2):
        for y in (hf.EMPTY, hf.nat(3)):
            for tail in tails:
                assert_same_list(e, cons(x)(tail), eager_cons(e, x, tail))
                want = eager_cons(e, x, eager_cons(e, y, tail))
                assert_same_list(e, cons(x)(cons(y)(tail)), want)
    # the successor of the tagged table's key that is no numeral
    consed = cons(hf.EMPTY)(tails[-1])
    assert consed(hf.succ(hf.hfset(hf.nat(1)))) is hf.nat(1)
    assert e.fuel == hf.DEFAULT_FUEL


def test_cons_of_a_closure_tabulates_it_at_once():
    tag_n = Lam("N", IOTA, App(cc("tag"), Var("N", IOTA)))
    e = ev()
    got = e.eval(app(cc("cons"), cc("ord2"), tag_n), {})
    # the cons, its head and the lambda, then 33 entries of tag @ N
    assert hf.DEFAULT_FUEL - e.fuel == 137
    ref = ev()
    want = eager_cons(ref, hf.nat(2), ref.eval(tag_n, {}))
    assert_same_list(e, got, want)
    assert hf.DEFAULT_FUEL - e.fuel == 137  # reading the list costs none


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_cons_chain_is_walked_in_a_loop(monkeypatch):
    # the numerals built here are forgotten after the test; a chain of n
    # conses reads nat(n), and the numerals up to n hold n * n / 2 members
    monkeypatch.setattr(hf, "_NATS", hf._NATS[:11])
    n = 600
    e = ev()
    cons, length = e.interp["cons"], e.interp["len"]
    entries = [hf.nat(i % 5) for i in range(n)]
    chain = e.interp["nil"]
    for x in reversed(entries):
        chain = cons(x)(chain)
    want = hf.mk_hflist(entries)
    # a walk that recursed once per link would need n frames more than the
    # limit leaves
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        last = chain(hf.nat(n - 1))
        got_length = length(chain)
        same = chain == want
        entry = chain(hf.nat(n // 2))  # from the table the comparison built
    finally:
        sys.setrecursionlimit(limit)
    assert last is hf.hfset(entries[-1])
    assert got_length is hf.nat(n)
    assert same
    assert entry is hf.hfset(entries[n // 2])


def test_istrue_and_boolset():
    assert run(App(cc("istrue"), cc("ord1"))) is True
    assert run(App(cc("istrue"), cc("ord0"))) is False


def test_powerset():
    got = run(App(cc("power"), cc("ord2")))
    assert len(list(got.elems)) == 4


def test_generator_counts():
    assert len(hf.sets_of_rank(3)) == 16
    assert len(hf.hf_lists(4, 2)) == 341
    assert len(list(hf.generators("nat"))) == 4
    assert list(hf.generators("bool")) == [False, True]
    assert len(list(hf.generators("set"))) == 16
    assert len(list(hf.generators("list"))) == 341


def test_sets_of_rank_levels():
    assert hf.sets_of_rank(0) == [hf.EMPTY]
    assert len(hf.sets_of_rank(1)) == 2
    assert len(hf.sets_of_rank(2)) == 4


def test_bounded_forall_over_sets():
    # forall X. X in ord3 -> X in omega
    x = Var("X", IOTA)
    body = imp(
        mem(x, cc("ord3")),
        mem(x, cc("omega")),
    )
    assert run(forall("X", IOTA, body)) is True


def test_bounded_exists_needs_conjunction():
    x = Var("X", IOTA)
    t = exists("X", IOTA, conj(mem(x, cc("ord3")), eq(x, cc("ord2"))))
    assert run(t) is True
    t2 = exists("X", IOTA, conj(mem(x, cc("ord3")), eq(x, cc("ord4"))))
    assert run(t2) is False


def test_unbounded_iota_quantifier_unsupported():
    x = Var("X", IOTA)
    with pytest.raises(hf.Unsupported):
        run(forall("X", IOTA, eq(x, x)))


def test_bool_quantifier_enumerates():
    from sumok2set.hostterm import OMICRON

    p = Var("P", OMICRON)
    assert run(forall("P", OMICRON, disj(p, neg(p)))) in (
        True,
        False,
    )


def test_uninterpreted_constant_raises():
    with pytest.raises(hf.UninterpretedConstant):
        run(cc("univ"))


def test_fuel_exhaustion():
    e = hf.Evaluator(fuel=3)
    heavy = app(cc("ord_mult"), cc("ord10"), cc("ord10"))
    with pytest.raises(hf.OutOfFuel):
        e.eval(heavy, {})


def test_omega_sep_probes_horizon():
    s = separation("X", cc("omega"), mem(Var("X", IOTA), cc("ord4")))
    got = run(s)
    assert got == hf.nat(4)


def test_defn_expansion_for_guard_combinators():
    # domseqm falls back to its catalog definition under an interp that
    # fixes the primitive relation observers
    e = hf.Evaluator(
        {
            "vararity": lambda r: False,
            "arity": lambda r: hf.nat(2),
            "domseq": lambda r: hf.hffn({}),
        }
    )
    got = e.eval(app(cc("domseqm"), cc("ord0"), cc("ord1")), {})
    assert got == hf.EMPTY


def test_parse_lemmas_comments_and_stubs():
    text = (
        "# a comment\n"
        "\n"
        "((len @ nil) = emptyset)\n"
        "!stub fixed_arity\n"
        "![X:set]: ((tag @ X) = (tag @ X))\n"
        "!stub none\n"
        "(emptyset = emptyset)\n"
    )
    claims = hf.parse_lemmas(text)
    assert len(claims) == 3
    assert claims[0].stub is None
    assert claims[1].stub == "fixed_arity"
    assert claims[1].binders == [("X", "set")]
    assert claims[2].stub is None


def test_parse_lemmas_bad_sort():
    with pytest.raises(hf.LemmaSyntaxError):
        hf.parse_lemmas("![X:frob]: (X = X)\n")


def test_parse_lemmas_unknown_stub():
    with pytest.raises(hf.LemmaSyntaxError):
        hf.parse_lemmas("!stub nonsense\n")


def test_parse_lemmas_trailing_garbage():
    with pytest.raises(hf.LemmaSyntaxError):
        hf.parse_lemmas("(emptyset = emptyset) extra\n")


# Hostile claim lines: the message, and the line and column of the parser
# error behind it (None where the claim parser gives no position).
@pytest.mark.parametrize(
    "line,message,where",
    [
        ("![X:frob]: (X = X)", "unknown sort 'frob'", (None, None)),
        ("![X:$i]: (X = X)", "unknown sort '$i'", (None, None)),
        ("(emptyset = emptyset) extra", "trailing input 'extra'", (1, 23)),
        ("((ord1 = ord1)))", "trailing input ')'", (1, 16)),
        ("![X:set]: (X = X) )", "trailing input ')'", (1, 19)),
        ("![X:set; Y:set]: (X = X)", "bad character ';'", (1, 8)),
        ("(emptyset <= emptyset)", "bad character '<'", (1, 11)),
        ("![X:bool]: X é", "bad character 'é'", (1, 14)),
        ("![X:set Y:set]: (X = Y)", "expected , or ] in binder list, found 'Y'", (None, None)),
        ("![X:set]", "unexpected end of input", (None, None)),
        ("(emptyset = emptyset", "unexpected end of input", (None, None)),
        ("!", "unexpected end of input", (None, None)),
        ("% comment only", "unexpected end of input", (None, None)),
        ("![X:set]: ((tag @ X) = (tag @ Y))", "undeclared symbol 'Y'", (1, 31)),
        ("thf(a, axiom, $true).", "undeclared symbol 'thf'", (1, 1)),
        ("![]: (emptyset = emptyset)", "expected 'word', found ']'", (1, 3)),
        ("![X:set,]: (X = X)", "expected 'word', found ']'", (1, 9)),
        ("![X set]: (X = X)", "expected ':', found 'set'", (1, 5)),
        ("![X:set]] (X = X)", "expected ':', found ']'", (1, 9)),
        ("?[X:set]: (X = X)", "expected a type, found 'set'", (1, 5)),
        (
            "(emptyset = emptyset & emptyset)",
            "mixed operators '=' and '&' need parentheses",
            (1, 22),
        ),
    ],
)
def test_parse_lemmas_hostile_lines_pinned(line, message, where):
    with pytest.raises(hf.LemmaSyntaxError) as err:
        hf.parse_lemmas(line + "\n", "hostile.lemmas")
    assert str(err.value) == "hostile.lemmas:1: " + message
    cause = err.value.__cause__
    assert (cause.line, cause.col) == where


def test_lemma_line_nested_past_the_parser_is_a_located_error():
    line = "((" + "(ordsucc @ " * 1500 + "emptyset" + ")" * 1500 + ") = emptyset)"
    with pytest.raises(hf.LemmaSyntaxError) as err:
        hf.parse_lemmas("(emptyset = emptyset)\n" + line + "\n", "deep.lemmas")
    assert str(err.value) == "deep.lemmas:2: formulas nested too deeply"


def test_claim_nested_past_the_compiler_is_an_error_result():
    body = emptyset = cc("emptyset")
    for _ in range(1500):
        body = App(cc("ordsucc"), body)
    claim = hf.Claim(1, 1, "deep", [], eq(body, emptyset), None)
    res = hf.check_claim(claim)
    assert not res.ok
    assert res.error == "formulas nested too deeply"
    # so is one of more binders than the recursion limit: each binder's
    # loop is a call deeper
    line = "![" + ", ".join(f"B{i}:bool" for i in range(sys.getrecursionlimit())) + "]: $false\n"
    res = hf.check_claim(hf.parse_lemmas(line)[0])
    assert (res.ok, res.checked, res.error) == (False, 0, "formulas nested too deeply")


def test_claims_read_the_catalog_constants():
    claims = hf.parse_lemmas("![X:set]: ((ordsucc @ X) = (ite @ $true @ X @ emptyset))\n")
    consts = [t for t in subterms(claims[0].body) if type(t) is Const]
    assert {c.name for c in consts} == {"=", "ordsucc", "ite", "emptyset", "$true"}
    assert all(c is (LOGICAL[c.name] if c.name in LOGICAL else cc(c.name)) for c in consts)


def test_parse_lemmas_trailing_comment_is_accepted():
    claims = hf.parse_lemmas("(emptyset = emptyset) % tail\n")
    assert hf.check_claim(claims[0]).ok


def test_check_claim_ok():
    claims = hf.parse_lemmas("((len @ nil) = emptyset)\n")
    res = hf.check_claim(claims[0])
    assert res.ok and res.checked == 1 and res.counterexample is None


def test_check_claim_counts_assignments():
    claims = hf.parse_lemmas("![B:bool]: (B | (~ B))\n")
    res = hf.check_claim(claims[0])
    assert res.ok and res.checked == 2


def test_check_claim_finds_counterexample():
    claims = hf.parse_lemmas(
        "![X:set, R:list]: ((len @ (cons @ X @ R)) = (len @ R))\n"
    )
    res = hf.check_claim(claims[0])
    assert not res.ok and res.checked == 1
    assert res.counterexample is not None
    assert "X =" in res.counterexample


def test_check_claim_reports_errors():
    # univ has no finite interpretation, so any claim touching it errors
    # out instead of silently passing
    for src in ["(univ = univ)\n", "(in @ emptyset @ univ)\n"]:
        res = hf.check_claim(hf.parse_lemmas(src)[0])
        assert not res.ok
        assert res.error == "uninterpreted constant univ"
        assert res.counterexample is None


# = between two lambdas, and between a lambda and a list binder
EQ_LEMMAS = "((^[X : $i]: X) = (^[Y : $i]: Y))\n![R:list]: ((^[N : $i]: (R @ N)) = R)\n"


def test_equality_at_function_type_and_used_any_other_way():
    results = [hf.check_claim(claim) for claim in hf.parse_lemmas(EQ_LEMMAS)]
    assert hf.format_results(results).splitlines() == [
        "claim 1 (line 1): ok (1 assignments)",
        "claim 2 (line 2): ok (341 assignments)",
        "2/2 claims hold",
    ]
    # a bare or partial =, which only a hand-built term has, is an error
    # result: = has no value of its own
    e = cc("emptyset")
    for body in (eq(App(EQUALS, e), App(EQUALS, e)), app(cc("ite"), TRUE, EQUALS, EQUALS)):
        res = hf.check_claim(hf.Claim(1, 1, "bare", [], body, None))
        assert (res.ok, res.error) == (False, "uninterpreted constant =")


def test_shipped_claims_all_hold():
    from conftest import fixture_path

    results = hf.run_lemma_file(fixture_path("claims.lemmas"))
    assert len(results) == 6
    assert all(r.ok for r in results)
    # frozen assignment counts for the generator grid
    assert [r.checked for r in results] == [1, 5456, 5456, 21824, 256, 5456]


def test_format_results_lines():
    claims = hf.parse_lemmas("(emptyset = emptyset)\n")
    res = [hf.check_claim(c) for c in claims]
    out = hf.format_results(res)
    assert "claim 1 (line 1): ok (1 assignments)" in out
    assert "1/1 claims hold" in out


def test_failing_closed_claim_prints_fail_alone():
    claims = hf.parse_lemmas("((len @ nil) = (ordsucc @ emptyset))\n")
    results = [hf.check_claim(c) for c in claims]
    assert [(r.ok, r.counterexample) for r in results] == [(False, "")]
    assert hf.format_results(results) == "claim 1 (line 1): FAIL\n0/1 claims hold"


def test_describe_value_shapes():
    # elements print sorted by their canonical key
    assert hf.describe_value(hf.nat(2)) == "{{{}},{}}"
    assert hf.describe_value(True) == "true"
    assert hf.describe_value(hf.mk_hflist([hf.nat(1)])).startswith("[")


def _refuse_keys_of_large_sets(monkeypatch):
    # a key of a set with many members is exponentially long when the
    # members are numerals; no message may ask for one
    real = hf.HfSet.key

    def key(self):
        if len(self.elems) > 30:
            raise AssertionError(f"key of a set with {len(self.elems)} members")
        return real(self)

    monkeypatch.setattr(hf.HfSet, "key", key)


def test_error_text_is_bounded(monkeypatch):
    _refuse_keys_of_large_sets(monkeypatch)
    claims = hf.parse_lemmas("((ord_sub @ (tag @ (ord_exp @ ord2 @ ord6)) @ ord1) = emptyset)\n")
    results = [hf.check_claim(c) for c in claims]
    assert [r.error for r in results] == ["not a successor numeral: {nat(64)}"]
    assert hf.format_results(results) == (
        "claim 1 (line 1): ERROR not a successor numeral: {nat(64)}\n0/1 claims hold"
    )


# acceptance criterion 3's planted wrong identity
WRONG_IDENTITY = "![X:set, R:list]: ((len @ (cons @ X @ R)) = (len @ R))\n"


# sha256 of format_results on the shipped claims and on acceptance
# criterion 3's planted wrong identity; every set they print is below the
# description cap, so capping changes none of it
LEMMA_OUTPUT_DIGESTS = {
    "claims.lemmas": "1d2044635298507ee1da07b5a4e5907a3a75d8ad01eff6732418328ab8ae88a6",
    "wrong.lemmas": "f31137ebd72d2ed922526b0ce64d2277c15a05fefe242bb7b0c756bcca41b952",
}


def test_lemma_output_unchanged_without_large_keys(monkeypatch, tmp_path):
    from conftest import fixture_path

    _refuse_keys_of_large_sets(monkeypatch)
    wrong = tmp_path / "wrong.lemmas"
    wrong.write_text(WRONG_IDENTITY)
    for name, path in (("claims.lemmas", fixture_path("claims.lemmas")), ("wrong.lemmas", str(wrong))):
        out = hf.format_results(hf.run_lemma_file(path))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LEMMA_OUTPUT_DIGESTS[name]


def test_describe_set_caps_long_keys():
    assert hf.describe_set(hf.nat(3)) == hf.nat(3).key() == repr(hf.nat(3))
    # nat(8) has a 639-character key, nat(9) one of 1279
    assert hf.describe_set(hf.nat(8)) == hf.nat(8).key()
    assert hf.describe_set(hf.nat(9)) == "nat(9)"
    assert repr(hf.hfset(hf.nat(2), hf.nat(10))) == "{nat(10),{{{}},{}}}"
    wide = hf.HfSet(hf.hfset(hf.nat(i)) for i in range(200))
    text = hf.describe_set(wide)
    assert len(text) == hf.DESCRIBE_LIMIT + 4 and text.endswith("...}")
    assert hf.describe_value(hf.mk_hflist([hf.nat(64)])) == "[nat(64)]"


def test_stub_fixed_arity_semantics():
    claims = hf.parse_lemmas(
        "!stub fixed_arity\n"
        "![R:set]: ((arity @ R) = (ordsucc @ ord1))\n"
        "![R:set]: (~ (vararity @ R))\n"
    )
    for c in claims:
        res = hf.check_claim(c)
        assert res.ok and res.checked == 16, res


def test_member_order_builds_no_key_of_large_sets(monkeypatch):
    # members of a set holding nat(64) are ordered without its key, which
    # has about 10**19 characters
    _refuse_keys_of_large_sets(monkeypatch)
    claims = hf.parse_lemmas(
        "(! [Y : $i] : ((in @ Y @ (tag @ (ord_exp @ ord2 @ ord6))) => (Y = Y)))\n"
        "(! [Y : $i] : ((in @ Y @ (ordsucc @ (tag @ (ord_exp @ ord2 @ ord6)))) => (Y = Y)))\n"
    )
    results = [hf.check_claim(c) for c in claims]
    assert hf.format_results(results) == (
        "claim 1 (line 1): ok (1 assignments)\n"
        "claim 2 (line 2): ok (1 assignments)\n"
        "2/2 claims hold"
    )
    big = hf.nat(64)
    assert list(hf.hfset(big, hf.hfset(big))) == [hf.hfset(big), big]


def test_member_order_is_key_order():
    from itertools import combinations

    rank3 = hf.sets_of_rank(3)
    assert rank3 == sorted(rank3, key=hf.HfSet.key)
    pool = hf.sets_of_rank(2) + [hf.nat(n) for n in range(3, 7)]
    pool += [hf.hfset(hf.nat(5)), hf.hfset(hf.nat(2), hf.nat(4)), hf.hfset(hf.hfset(hf.nat(3)))]
    mixed = [hf.HfSet(c) for r in range(4) for c in combinations(pool, r)]
    for x in rank3 + mixed:
        assert list(x) == sorted(x.elems, key=hf.HfSet.key), x
    for x in pool + rank3:
        for y in pool + rank3:
            want = (x.key() > y.key()) - (x.key() < y.key())
            got = hf._key_cmp(x, y)
            assert (got > 0) - (got < 0) == want, (x, y)


def test_ord_mult_and_exp_on_all_small_pairs_unchanged():
    # results and error texts on every pair of the 16 sets of rank <= 3 and
    # nat(0) .. nat(5): how often an operand's chain is walked must not show
    values = hf.sets_of_rank(3) + [hf.nat(n) for n in range(6)]
    lines = []
    for name, op in (("_ord_mult", hf._ord_mult), ("_ord_exp", hf._ord_exp)):
        for a in values:
            for b in values:
                try:
                    got = hf.describe_set(op(a, b))
                except hf.OracleError as err:
                    got = f"error {err}"
                lines.append(f"{name} {a!r} {b!r} {got}")
    assert len(lines) == 968
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    # the last line, _ord_exp of nat(5) and nat(5), is the numeral bound's
    # error: 5 ** 5 = 3125 is past NUMERAL_BOUND
    assert digest == "7e1d77eff4d7d6acef2ee599f33abad5536073c4c6325226944ae3c68cb341cf"
    assert "_ord_mult {{}} {{{}},{}} {{{}},{}}" in lines
    assert "_ord_exp {{}} {{{}}} error not a successor numeral: {{{}}}" in lines


# sha256 of format_results under a fuel cap: where fuel runs out, and the
# number of assignments checked by then, are part of the output
FUEL_CAPPED_DIGESTS = {
    1_000: "bdd8ccb338f1f92ab7f86b055ad773bfbdf1a01fbdd9513f2e9c8e0ba146e24c",
    20_000: "3cf5412499eb1ba1e1d63a638d90e7a065d123b19112e7765545383db9a899f3",
    300_000: "808326465ed02e54dd09742df616deac9b3cdc99842efafac6f959a09c6cd72b",
}


@pytest.mark.parametrize("fuel", sorted(FUEL_CAPPED_DIGESTS))
def test_fuel_capped_lemma_output_unchanged(fuel, tmp_path):
    from conftest import fixture_path

    wrong = tmp_path / "wrong.lemmas"
    wrong.write_text(WRONG_IDENTITY)
    results = hf.run_lemma_file(fixture_path("claims.lemmas"), fuel=fuel)
    out = hf.format_results(results)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FUEL_CAPPED_DIGESTS[fuel]
    refuted = hf.run_lemma_file(str(wrong), fuel=fuel)
    out = hf.format_results(refuted)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LEMMA_OUTPUT_DIGESTS["wrong.lemmas"]
    if fuel == 20_000:
        assert [(r.ok, r.checked) for r in results + refuted] == [
            (True, 1), (False, 1539), (False, 1819), (False, 1539), (True, 256), (False, 332), (False, 1),
        ]


# The fuel each shipped claim, and the planted wrong identity, spends at the
# default cap, and what expanding catalog definitions took of it: every
# node's charge counts, not only the assignment on which fuel runs out.
CLAIM_FUEL = [(5, 0), (70_928, 0), (60_016, 0), (283_712, 0), (5_377, 1), (329_330, 2), (11, 0)]


def test_fuel_spent_by_each_shipped_claim(monkeypatch):
    from conftest import fixture_path

    made = []

    class Recording(hf.Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(hf, "Evaluator", Recording)
    with open(fixture_path("claims.lemmas"), encoding="utf-8") as fh:
        claims = hf.parse_lemmas(fh.read() + WRONG_IDENTITY)
    spent = []
    for claim in claims:
        made.clear()
        hf.check_claim(claim)
        (e,) = made
        spent.append((hf.DEFAULT_FUEL - e.fuel, e.defn_fuel))
    assert spent == CLAIM_FUEL


def _body(line):
    """The body of the one claim of a lemma line."""
    (claim,) = hf.parse_lemmas(line)
    return claim.body


@pytest.mark.parametrize(
    "term, used",
    [
        (encode_nat(99), 17),
        (app(cc("cons"), cc("ord0"), cc("nil")), 5),
        (App(cc("len"), app(cc("cons"), cc("ord5"), app(cc("cons"), cc("ord0"), cc("nil")))), 11),
        (separation("X", cc("omega"), mem(Var("X", IOTA), cc("ord4"))), 134),
        (
            App(cc("len"), app(cc("cons"), cc("ord1"), app(cc("cons"), cc("ord2"), app(cc("cons"), cc("ord3"), cc("nil"))))),
            15,
        ),
        (
            App(cc("len"), app(cc("cons"), cc("ord1"), app(cc("cons"), cc("ord2"), Lam("N", IOTA, App(cc("tag"), Var("N", IOTA)))))),
            143,
        ),
        (App(cc("listset"), app(cc("cons"), cc("ord3"), app(cc("cons"), cc("ord4"), cc("nil")))), 11),
        # each connective and truth value as a lemma line reads it: one unit
        # for the connective, charged with its first operand, and none for
        # an operand that does not decide the value, here one that would
        # raise (the successor of omega)
        (_body("(~ (in @ ord1 @ ord0))"), 4),
        (_body("((in @ ord0 @ ord1) & (subq @ ord1 @ ord2))"), 7),
        (_body("((in @ ord1 @ ord0) | (ord2 = ord2))"), 7),
        (_body("((in @ ord1 @ ord0) => (in @ (ordsucc @ omega) @ ord1))"), 4),
        (_body("((ord1 = ord1) <=> (in @ ord0 @ ord1))"), 7),
        (_body("$false"), 1),
        (_body("($true | (in @ (ordsucc @ omega) @ ord1))"), 2),
        (_body("($false & (in @ (ordsucc @ omega) @ ord1))"), 2),
        # each quantifier: one unit for the quantifier, charged with its
        # bound, and one per value, boolean or member of the bound
        (_body("(![P : $o]: (P | (~ P)))"), 9),
        (_body("(?[X : $i]: ((in @ X @ ord2) & (X = ord1)))"), 6),
        (_body("(![X : $i]: ((in @ X @ ord3) => (subq @ X @ ord2)))"), 14),
        (_body("(?[X : $i]: ((in @ X @ ord3) & (?[Y : $i]: ((in @ Y @ X) & (Y = ord1)))))"), 9),
    ],
)
def test_fuel_spent_by_one_shot_evals(term, used):
    e = ev()
    e.eval(term, {})
    assert e.fuel == hf.DEFAULT_FUEL - used
    # one unit short, the same evaluation runs out
    with pytest.raises(hf.OutOfFuel):
        hf.Evaluator(fuel=used - 1).eval(term, {})


_Y = Var("Y", IOTA)


# A lemma line that spells a set primitive, sep over a lambda included, runs
# as the catalog's terms do: one unit for the primitive, charged with its
# first argument, and none for the branch ite does not take, here the
# successor of omega, an error.
@pytest.mark.parametrize(
    "line, built, used",
    [
        ("(in @ ord1 @ ord3)", mem(cc("ord1"), cc("ord3")), 3),
        ("(subq @ ord1 @ ord3)", subq(cc("ord1"), cc("ord3")), 3),
        (
            "((ite @ $true @ emptyset @ (ordsucc @ omega)) = emptyset)",
            eq(ite(TRUE, cc("emptyset"), App(cc("ordsucc"), cc("omega"))), cc("emptyset")),
            5,
        ),
        (
            "(! [Y : $i] : ((in @ Y @ ord3) => (subq @ Y @ ord2)))",
            forall("Y", IOTA, imp(mem(_Y, cc("ord3")), subq(_Y, cc("ord2")))),
            14,
        ),
        ("($false = (~ $true))", eq(FALSE, neg(TRUE)), 4),
        (
            "((sep @ ord3 @ (^[X : $i]: (in @ X @ ord2))) = ord2)",
            eq(separation("X", cc("ord3"), mem(Var("X", IOTA), cc("ord2"))), cc("ord2")),
            16,
        ),
    ],
)
def test_a_lemma_line_spends_the_fuel_of_the_catalog_built_term(line, built, used):
    (claim,) = hf.parse_lemmas(line)
    assert claim.body == built
    e = hf.Evaluator(fuel=used)
    assert e.eval(built, {}) is True and e.fuel == 0
    with pytest.raises(hf.OutOfFuel):
        hf.Evaluator(fuel=used - 1).eval(built, {})
    assert hf.check_claim(claim, fuel=used).ok
    assert hf.check_claim(claim, fuel=used - 1).error == "evaluation fuel exhausted"


def test_unsupported_shapes_fail_when_run_after_their_charge():
    x = Var("X", IOTA)
    unbounded = forall("X", IOTA, eq(x, x))
    # compiling never raises; running charges the node first
    with pytest.raises(hf.OutOfFuel):
        hf.Evaluator(fuel=0).eval(unbounded, {})
    with pytest.raises(hf.Unsupported, match="without a membership bound"):
        hf.Evaluator(fuel=1).eval(unbounded, {})
    with pytest.raises(hf.Unsupported, match="unbound variable Y"):
        run(Var("Y", IOTA))
    # under a lambda, the error waits for an application
    assert callable(run(Lam("Z", IOTA, Var("Y", IOTA))))
    # sep and a quantifier over a predicate that is no lambda: one unit each
    for term, what in (
        (app(SEP, cc("ord3"), App(cc("in"), cc("ord1"))), "separation"),
        (App(quantifier(FORALL, IOTA), App(cc("in"), cc("ord1"))), "quantification"),
    ):
        with pytest.raises(hf.OutOfFuel):
            hf.Evaluator(fuel=0).eval(term, {})
        with pytest.raises(hf.Unsupported, match=f"^{what} over a predicate that is no lambda$"):
            hf.Evaluator(fuel=1).eval(term, {})


def test_innermost_binder_wins():
    inner = Lam("X", IOTA, Lam("X", IOTA, Var("X", IOTA)))
    assert run(app(inner, cc("ord1"), cc("ord2"))) is hf.nat(2)
    assert run(Var("X", IOTA), {"X": hf.nat(3)}) is hf.nat(3)
    x = Var("X", IOTA)
    # the quantified X ranges over ord2, the outer X = 7 is not in it
    assert run(forall("X", IOTA, imp(mem(x, cc("ord2")), mem(x, cc("ord2")))), {"X": hf.nat(7)}) is True


def test_check_claim_compiles_the_body_once(monkeypatch):
    calls = []
    real = hf._compile

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hf, "_compile", counting)
    claim = hf.parse_lemmas("![X:set, R:list]: ((len @ (cons @ X @ R)) = (ordsucc @ (len @ R)))\n")[0]
    res = hf.check_claim(claim)
    assert res.ok and res.checked == 5456
    # a few compiles for the body's nodes, none per assignment
    assert len(calls) < 20


# The background theory in the oracle's model: each catalog.p premise, its
# prenex universals read as claim binders, either holds or cannot be decided
# here, never fails.  def_domseqm reads the signature functions, which it
# leaves abstract, so it is checked under the fixed_arity stub.  The
# undecided ones read the reals or univ, which the oracle does not
# interpret, or run past what the oracle bounds (the dom_of definitions run
# out of fuel, def_cons quantifies without a membership bound, def_len
# applies len to a set that is no list).  The digest is of one
# "premise: verdict" line per premise, in catalog order, the verdict being
# "holds" or the reason the oracle gave up.
CATALOG_VERDICTS_DIGEST = "d60f10a8cd2f6aa8277c0cc2fa81f8a01c3fd0fa5e0e933d93e7e2d0d9608302"
_CLAIM_SORTS = {IOTA: "set", arrow(IOTA, IOTA): "list", OMICRON: "bool"}
_PREMISE_STUBS = {"def_domseqm": "fixed_arity"}


def catalog_claims():
    """Each catalog premise as a claim, its prenex universals as binders."""
    claims = []
    for name in CATALOG.order:
        for premise, _role, body in CATALOG.entries[name].premises:
            binders = []
            while type(body) is App and type(body.fn) is Const and body.fn.name == FORALL:
                lam = body.arg
                binders.append((lam.name, _CLAIM_SORTS[lam.ty]))
                body = lam.body
            stub = _PREMISE_STUBS.get(premise)
            claims.append(hf.Claim(len(claims) + 1, 0, premise, binders, body, stub))
    return claims


def test_every_catalog_premise_the_oracle_decides_holds():
    verdicts = {}
    for claim in catalog_claims():
        result = hf.check_claim(claim)
        assert result.counterexample is None, (claim.text, result.counterexample)
        verdicts[claim.text] = "holds" if result.ok else result.error
    assert (len(verdicts), list(verdicts.values()).count("holds")) == (54, 33)
    lines = "\n".join(f"{premise}: {verdict}" for premise, verdict in verdicts.items())
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == CATALOG_VERDICTS_DIGEST, lines


# Staged evaluation against the per-assignment loop it replaces: the body
# evaluated afresh by Evaluator.eval on each assignment, on one evaluator,
# so fuel and expanded catalog definitions carry over as in check_claim.
def reference_check(claim, fuel=hf.DEFAULT_FUEL):
    interp = hf.STUBS[claim.stub]() if claim.stub else None
    e = hf.Evaluator(interp=interp, fuel=fuel)
    names = [name for name, _ in claim.binders]
    checked = 0
    try:
        for values in itertools.product(*(hf.generators(sort) for _, sort in claim.binders)):
            checked += 1
            if not e.eval(claim.body, dict(zip(names, values))):
                return (False, checked, hf._describe_env(names, values), None)
    except hf.OracleError as err:
        return (False, checked, None, str(err))
    return (True, checked, None, None)


def staged_check(claim, fuel=hf.DEFAULT_FUEL):
    res = hf.check_claim(claim, fuel=fuel)
    return (res.ok, res.checked, res.counterexample, res.error)


def staging_cases():
    """Claims whose subterms stage in each way, with their verdicts.

    A one-binder claim reading its binder under a quantifier, a closed
    claim with a closed subterm under one, and Unsupported subterms that no
    assignment demands, in an => or an ite branch.
    """
    claims = hf.parse_lemmas(
        "![X:set]: (! [Y : $i] : ((in @ Y @ X) => (in @ Y @ (ordsucc @ X))))\n"
        "(! [Y : $i] : ((in @ Y @ ord3) => (in @ Y @ (ord_add @ ord2 @ ord1))))\n"
        "![X:set]: ((in @ X @ emptyset) => ((ordsucc @ omega) = X))\n"
        "![X:set, N:nat]: ((in @ X @ emptyset) => ((ord_add @ N @ omega) = X))\n"
    )
    x = Var("X", IOTA)
    unsupported = eq(App(cc("ordsucc"), cc("omega")), x)
    claims.append(hf.Claim(5, 0, "ite", [("X", "set")], ite(eq(x, x), TRUE, unsupported), None))
    return list(zip(claims, [16, 1, 16, 64, 16]))


def staging_claims():
    from conftest import fixture_path

    with open(fixture_path("claims.lemmas"), encoding="utf-8") as fh:
        claims = hf.parse_lemmas(fh.read() + WRONG_IDENTITY)
    return claims + [claim for claim, _ in staging_cases()] + catalog_claims()


@pytest.mark.parametrize("fuel", [5, 60, 1_000, 20_000, 300_000, hf.DEFAULT_FUEL])
def test_check_claim_matches_the_per_assignment_loop(fuel):
    claims = staging_claims()
    if fuel == hf.DEFAULT_FUEL:
        # the dom_of premises spend all of it, which takes the reference
        # seconds; 300_000 already runs them out of fuel after reuses
        claims = [c for c in claims if not c.text.startswith("def_dom_of")]
    for claim in claims:
        assert staged_check(claim, fuel) == reference_check(claim, fuel), (claim.text, fuel)


# check_claim's binder loops against the per-assignment loop: each claim
# with the number of assignments run at the default fuel, and where the run
# stops.  Three binders run 16 x 2 x 4 = 128 assignments, N fastest, and
# the sets come in key order, so X = {} is the last of them.
LOOP_CASES = [
    ("((ord_add @ ord1 @ ord1) = ord2)", 1),
    ("(ord1 = ord2)", 1),
    ("![P:bool]: (P | (~ P))", 2),
    ("![P:bool]: P", 1),
    # fails at the first value of the innermost binder, and at its last
    ("![X:set, B:bool, N:nat]: (((tag @ X) = (ite @ B @ ord1 @ X)) => ~(N = ord0))", 15 * 8 + 5),
    ("![X:set, B:bool, N:nat]: (((tag @ X) = (ite @ B @ ord1 @ X)) => ~(N = ord3))", 16 * 8),
    # fails at the first assignment after the outer binder changes
    ("![X:set, B:bool, N:nat]: ~((ordsucc @ X) = ord2)", 14 * 8 + 1),
    # raises partway through the first inner loop
    ("![X:set, B:bool, N:nat]: ((N = ord2) => ((ordsucc @ omega) = X))", 3),
    # holds, and runs out of fuel partway through an inner loop at 300
    (
        "![X:set, B:bool, N:nat]: ((in @ N @ (ord_add @ N @ ord1)) & "
        "((ite @ B @ X @ (tag @ X)) = (ite @ B @ X @ (tag @ X))))",
        128,
    ),
]


@pytest.mark.parametrize("fuel", [1, 300, 20_000, hf.DEFAULT_FUEL])
def test_binder_loops_match_the_per_assignment_loop(fuel):
    claims = hf.parse_lemmas("".join(line + "\n" for line, _ in LOOP_CASES))
    for claim, (_, checked) in zip(claims, LOOP_CASES):
        got = staged_check(claim, fuel)
        assert got == reference_check(claim, fuel), (claim.text, fuel)
        if fuel == hf.DEFAULT_FUEL:
            assert got[1] == checked, claim.text
    # at 300, fuel runs out inside an inner loop, not at its end
    got = staged_check(claims[-1], 300)
    assert got[3] == "evaluation fuel exhausted" and got[1] % 4 != 0, got


# Claims over nat and bool binders whose spines mix bound variables, as
# heads and as operands, with natives that raise or charge on a partial
# application (ordsucc of omega, ordinal arithmetic on omega, cons of a
# lambda, which tabulates it, ordsucc applied past its value), and with
# catalog definitions applied in full and in part, two of them to an
# argument that raises; spines of one, two and three arguments.  Each with
# the fuel it spends.
SWEEP_CASES = [
    ("![N:nat, B:bool]: ((ord_add @ N @ (ite @ (B & (N = ord3)) @ omega @ N)) = (ord_mult @ N @ ord2))", 179),
    ("![B:bool, N:nat]: ((ite @ B @ (ordsucc @ omega) @ N) = N)", 26),
    ("![N:nat]: ((N = ord2) => ((ordsucc @ omega @ N) = N))", 17),
    ("![N:nat, M:nat]: ((cons @ N @ (cons @ M @ nil) @ ord1) = (tag @ M))", 240),
    (
        "![N:nat]: ((len @ (cons @ N @ (^[I : $i]: (ite @ (in @ I @ N) @ (tag @ I) @ emptyset))))"
        " = (ordsucc @ N))",
        848,
    ),
    (
        "![N:nat, M:nat]: (((^[F : $i > $i]: (^[K : $i]: (F @ K))) @ (cons @ N @ nil) @ M)"
        " = (ite @ (M = ord0) @ (tag @ N) @ emptyset))",
        312,
    ),
    ("![N:nat, M:nat]: ((in @ N @ M) => (subq @ N @ M))", 82),
    ("![N:nat]: (![I : $i]: ((in @ I @ N) => (in @ I @ (ordsucc @ N))))", 44),
    (
        "![B:bool, N:nat]: (((dom_of @ B @ N @ (^[I : $i]: ord4) @ (cons @ ord1 @ nil)) <=> "
        "(dom_of_fixedar @ N @ (^[I : $i]: ord4) @ (cons @ ord1 @ (ite @ B @ nil @ nil)))) | B)",
        562,
    ),
    ("![N:nat, B:bool]: ((B | (N = ord0)) | (ordsucc @ N @ N))", 20),
    (
        "![N:nat]: ((N = ord3) => (dom_of_fixedar @ N @ (^[I : $i]: ord4) @ "
        "(cons @ (ordsucc @ omega) @ nil)))",
        31,
    ),
    (
        "![N:nat]: ((N = ord3) => (dom_of_fixedar @ (ordsucc @ omega) @ (^[I : $i]: ord4) @ "
        "(cons @ N @ nil)))",
        24,
    ),
    # a bound function variable applied, and a native applied to one, where
    # the function's body raises after charges of its own
    ("![N:nat]: ((N = ord2) => (((^[F : $i > $i]: (F @ N)) @ (^[I : $i]: (ordsucc @ omega))) = N))", 22),
    ("![N:nat]: ((N = ord1) => (((^[F : $i > $i]: (len @ F)) @ (^[I : $i]: (ordsucc @ omega))) = N))", 19),
]
# sha256 of check_claim's result on each of them at every fuel from 1 to
# what it spends: where fuel runs out, and so the order of the charges
SWEEP_DIGEST = "eb614f852e0d1e96590a69a5ac86f359f60b3cade3ebea29d89e80edf9b93933"


def test_every_fuel_cap_on_small_claims():
    claims = hf.parse_lemmas("".join(line + "\n" for line, _ in SWEEP_CASES))
    digest = hashlib.sha256()
    for claim, (_, spent) in zip(claims, SWEEP_CASES):
        for fuel in range(1, spent + 1):
            got = staged_check(claim, fuel)
            assert got == reference_check(claim, fuel), (claim.text, fuel)
            digest.update(f"{claim.index} {fuel} {got}\n".encode("utf-8"))
        # the claim finishes on what it spends, and not on a unit less
        assert got[3] != "evaluation fuel exhausted", claim.text
        assert staged_check(claim, spent - 1)[3] == "evaluation fuel exhausted", claim.text
    assert digest.hexdigest() == SWEEP_DIGEST


def test_generators_are_built_once():
    fresh = {
        "set": hf.sets_of_rank(3),
        "list": hf.hf_lists(4, 2),
        "nat": [hf.nat(i) for i in range(4)],
        "bool": [False, True],
    }
    for sort, values in fresh.items():
        domain = hf.generators(sort)
        assert type(domain) is tuple and hf.generators(sort) is domain, sort
        assert len(domain) == len(values), sort
        for got, want in zip(domain, values):
            # interned sets are one object, lists equal by their tables
            same = got == want if sort == "list" else got is want
            assert same, sort


def test_staged_claims_of_each_shape_hold():
    for claim, checked in staging_cases():
        assert staged_check(claim) == (True, checked, None, None), claim.text


def counting_stub(monkeypatch):
    """Install stub "counting": fixed_arity, its arity and domseq recording
    each argument they are applied to."""
    calls = []

    def stub():
        interp = hf._stub_fixed_arity()
        domseq = interp["domseq"]
        interp["arity"] = lambda r: calls.append(r) or hf.nat(2)
        interp["domseq"] = lambda r: calls.append(r) or domseq(r)
        return interp

    monkeypatch.setitem(hf.STUBS, "counting", stub)
    return calls


OUTER_ONLY = "!stub counting\n![R:set, I:set]: ((in @ I @ (arity @ R)) => (in @ I @ ord2))\n"


def test_an_outer_only_subterm_runs_once_per_outer_value(monkeypatch):
    calls = counting_stub(monkeypatch)
    (claim,) = hf.parse_lemmas(OUTER_ONLY)
    assert staged_check(claim) == (True, 256, None, None)
    assert calls == hf.sets_of_rank(3)
    calls.clear()
    assert reference_check(claim) == (True, 256, None, None)
    assert len(calls) == 256
    # under a quantifier, a subterm reading only the claim binders is kept
    # for the next quantified value, even at the last binder's level
    calls.clear()
    (claim,) = hf.parse_lemmas(
        "!stub counting\n![R:set]: (! [Y : $i] : ((in @ Y @ ord2) => (in @ Y @ (arity @ R))))\n"
    )
    assert staged_check(claim) == (True, 16, None, None)
    assert calls == hf.sets_of_rank(3)
    # a spine's prefix that reads fewer binders is a subterm of its own
    calls.clear()
    (claim,) = hf.parse_lemmas("!stub counting\n![R:set, I:set]: ((domseq @ R @ I) = (tag @ I))\n")
    assert staged_check(claim) == (True, 256, None, None)
    assert calls == hf.sets_of_rank(3)
    # a new value of a middle binder leaves the outer binder's subterms kept
    calls.clear()
    (claim,) = hf.parse_lemmas(
        "!stub counting\n![R:set, I:set, N:nat]: ((in @ I @ (arity @ R)) => (in @ I @ ord2))\n"
    )
    assert staged_check(claim) == (True, 256 * 4, None, None)
    assert calls == hf.sets_of_rank(3)


class _Definitions:
    """A catalog of the given definitions alone."""

    def __init__(self, defs):
        self.defs = defs

    def __contains__(self, name):
        return name in self.defs

    def defn_of(self, name):
        return self.defs[name]


def test_reuse_charges_no_definition_expansion(monkeypatch):
    # expanding "two" expands "one" inside it: each is paid once, on first
    # use, and no reuse of a subterm that first expanded them pays again
    one, two = Const("one", IOTA), Const("two", IOTA)
    monkeypatch.setattr(
        hf, "CATALOG",
        _Definitions({"one": App(cc("ordsucc"), cc("ord0")), "two": app(cc("ord_add"), one, one)}),
    )
    side = app(cc("ord_add"), Var("X", IOTA), two)
    claim = hf.Claim(1, 0, "defs", [("X", "set"), ("Y", "set")], eq(side, side), None)
    assert staged_check(claim) == (True, 256, None, None)
    # fuel runs out on the same assignment at every cap up to what it needs
    for fuel in range(1, 5000, 61):
        assert staged_check(claim, fuel) == reference_check(claim, fuel), fuel


def test_a_domain_that_repeats_an_object(monkeypatch):
    calls = counting_stub(monkeypatch)
    real = hf.generators
    monkeypatch.setattr(hf, "generators", lambda sort: [v for v in real(sort) for _ in (0, 1)])
    (claim,) = hf.parse_lemmas(OUTER_ONLY)
    # a value repeated in a row is no change of binder, and consecutive
    # assignments may be equal throughout
    assert staged_check(claim) == (True, 32 * 32, None, None)
    assert calls == hf.sets_of_rank(3)
    claims = hf.parse_lemmas("![X:set, R:list]: ((cons @ X @ R @ emptyset) = (tag @ X))\n" + WRONG_IDENTITY)
    for claim in [claim] + claims + [c for c, _ in staging_cases()]:
        for fuel in (60, 20_000, hf.DEFAULT_FUEL):
            assert staged_check(claim, fuel) == reference_check(claim, fuel), (claim.text, fuel)
    # nor is a repeat in the loop of the last binder, whose subterms are
    # kept under a quantifier
    calls.clear()
    (claim,) = hf.parse_lemmas(
        "!stub counting\n![R:set]: (! [Y : $i] : ((in @ Y @ ord2) => (in @ Y @ (arity @ R))))\n"
    )
    assert staged_check(claim) == (True, 32, None, None)
    assert calls == hf.sets_of_rank(3)


def test_a_domain_that_ends_with_its_first_object(monkeypatch):
    # an inner loop that starts again at the object it ended with still
    # sees a new value of an outer binder: (X, Y) = (ord2, ord1) follows
    # (ord1, ord1), and the body, kept while N runs, is evaluated afresh
    real = hf.generators
    ring = (hf.nat(1), hf.nat(2), hf.nat(3), hf.nat(1))
    monkeypatch.setattr(hf, "generators", lambda sort: ring if sort == "set" else real(sort))
    (claim,) = hf.parse_lemmas("![X:set, Y:set, N:nat]: ~((X = ord2) & (Y = ord1))\n")
    got = staged_check(claim)
    assert got == (False, 17, "X = {{{}},{}}, Y = {{}}, N = {}", None)
    assert got == reference_check(claim)


@pytest.mark.parametrize(
    "op, value",
    [
        ("ord_add", lambda m, n: m + n),
        ("ord_mult", lambda m, n: m * n),
        ("ord_exp", lambda m, n: m**n),
        ("ord_sub", lambda m, n: max(m - n, 0)),
    ],
)
def test_ordinal_arithmetic_refuses_numerals_past_the_bound(op, value, monkeypatch):
    monkeypatch.setattr(hf, "NUMERAL_BOUND", 10)
    term = app(cc(op), Var("A", IOTA), Var("B", IOTA))
    for m in range(11):
        for n in range(11):
            env = {"A": hf.nat(m), "B": hf.nat(n)}
            if op != "ord_sub" and value(m, n) > 10:
                with pytest.raises(hf.Unsupported, match="^ordinal arithmetic past the numeral bound 10$"):
                    run(term, env)
            else:
                assert run(term, env) is hf.nat(value(m, n)), (m, n)
    # an operand that is no numeral fails as before, whatever the bound
    odd = hf.hfset(hf.hfset(hf.EMPTY))
    with pytest.raises(hf.OracleError, match="^not a successor numeral"):
        run(term, {"A": hf.nat(12), "B": odd})
    # adding to a set that is no numeral builds a set one larger per step
    if op == "ord_add":
        with pytest.raises(hf.Unsupported, match="past the numeral bound"):
            run(term, {"A": odd, "B": hf.nat(10)})
        assert len(run(term, {"A": odd, "B": hf.nat(9)})) == 10
    # a numeral past the bound stays an operand
    assert run(app(cc("ord_sub"), Var("A", IOTA), cc("ord1")), {"A": hf.nat(12)}) is hf.nat(11)


def test_refused_arithmetic_builds_no_numeral(monkeypatch):
    # memoized numerals past ord10 are forgotten for the test, so that what
    # an operation memoizes shows in the length of the list
    monkeypatch.setattr(hf, "_NATS", hf._NATS[:11])
    with pytest.raises(hf.Unsupported, match="past the numeral bound"):
        run(app(cc("ord_exp"), cc("ord9"), cc("ord6")))
    assert len(hf._NATS) == 11
    got = run(app(cc("ord_mult"), cc("ord4"), cc("ord5")))
    assert len(hf._NATS) == 21 and got is hf._NATS[20]


def test_power_refuses_sets_past_the_bound(monkeypatch):
    monkeypatch.setattr(hf, "NUMERAL_BOUND", 10)
    assert len(run(App(cc("power"), cc("ord3")))) == 8
    with pytest.raises(hf.Unsupported, match="^power set past the numeral bound 10$"):
        run(App(cc("power"), cc("ord4")))
    # the generator universes are not bounded by it
    assert len(hf.sets_of_rank(3)) == 16
