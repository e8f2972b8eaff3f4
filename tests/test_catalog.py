"""Background catalog tests.

rational_value is the independent exact-arithmetic check for the encoder;
the ordering tests recompute dependency constraints from the entries'
reference graph rather than trusting the order list.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from sumok2set import catalog
from sumok2set.catalog import CATALOG, encode_nat, encode_rational, ord_of
from sumok2set.hostterm import IOTA, OMICRON, Const, typecheck

from termhelpers import const_names


def ordc(n):
    return Const(f"ord{n}", IOTA)


def catalog_env():
    return {n: CATALOG.type_of(n) for n in CATALOG.order}


def test_small_ordinals_are_constants():
    for n in range(11):
        assert ord_of(n) == ordc(n)


def test_encode_nat_two_digits():
    # 12 = 1*10 + 2
    add = encode_nat(12)
    assert add.fn.fn.name == "ord_add"
    mul = add.fn.arg
    assert mul.fn.fn.name == "ord_mult"
    assert mul.fn.arg == ordc(1)
    assert mul.arg == ordc(10)
    assert add.arg == ordc(2)


def test_encode_nat_skips_zero_digits():
    # 100 = 1*10^2, no zero-coefficient summands
    t = encode_nat(100)
    assert t.fn.fn.name == "ord_mult"
    assert t.fn.arg == ordc(1)
    exp = t.arg
    assert exp.fn.fn.name == "ord_exp"
    assert exp.fn.arg == ordc(10)
    assert exp.arg == ordc(2)


def test_frozen_paper_rationals():
    assert encode_rational(3, 0) == ordc(3)
    assert encode_rational(4, 0) == ordc(4)

    twelve = encode_rational(12, 0)
    assert twelve.fn.fn.name == "ord_add"
    assert catalog.rational_value(twelve) == 12

    # 11.2 normalizes to 112/10^1
    t = encode_rational(112, 1)
    assert t.fn.fn.name == "real_div"
    assert t.arg == ordc(10)
    assert catalog.rational_value(t.fn.arg) == 112
    assert catalog.rational_value(t) == Fraction(112, 10)


def test_negative_wraps_numerator():
    t = encode_rational(-15, 1)
    assert t.fn.fn.name == "real_div"
    assert t.fn.arg.fn.name == "real_neg"
    assert catalog.rational_value(t) == Fraction(-15, 10)
    whole = encode_rational(-3, 0)
    assert whole.fn.name == "real_neg"
    assert catalog.rational_value(whole) == -3


def test_scale_two_uses_exponent_denominator():
    t = encode_rational(25, 2)
    assert t.fn.fn.name == "real_div"
    den = t.arg
    assert den.fn.fn.name == "ord_exp"
    assert catalog.rational_value(t) == Fraction(25, 100)


@given(st.integers(-10**6, 10**6), st.integers(0, 4))
def test_encoder_value_matches_fraction(num, scale):
    # drop non-normalized pairs the way the numeral parser would
    while scale > 0 and num % 10 == 0:
        num //= 10
        scale -= 1
    t = encode_rational(num, scale)
    assert catalog.rational_value(t) == Fraction(num, 10**scale)
    assert typecheck(t, catalog_env()) == IOTA


def test_all_catalog_premises_typecheck():
    env = catalog_env()
    for name, entry in CATALOG.entries.items():
        for pname, role, term in entry.premises:
            assert typecheck(term, env) == OMICRON, pname
            assert role in ("definition", "axiom"), pname
            assert pname.startswith(("def_", "ax_")), pname


def test_premise_names_unique():
    seen = set()
    for entry in CATALOG.entries.values():
        for pname, _role, _term in entry.premises:
            assert pname not in seen, pname
            seen.add(pname)


def test_background_is_dependency_closed():
    prems = CATALOG.background({"len"})
    names = {n for n, _r, _t in prems}
    assert "def_len" in names
    emitted = set()
    for n, _r, term in prems:
        for used in const_names(term):
            if used in CATALOG.entries:
                emitted.add(used)
    # every referenced catalog constant's own premises are present too
    for cname in emitted:
        for pname, _r, _t in CATALOG.entries[cname].premises:
            assert pname in names, f"{cname} premise {pname} missing"


def test_background_respects_catalog_order():
    prems = CATALOG.background(set(CATALOG.entries))
    owner = {}
    for cname, entry in CATALOG.entries.items():
        for pname, _r, _t in entry.premises:
            owner[pname] = cname
    indices = [CATALOG.order_index(owner[n]) for n, _r, _t in prems if n in owner]
    assert indices == sorted(indices)


def test_deps_reported_vs_term_scan():
    # deps_of must cover every catalog constant a defining premise mentions
    for cname, entry in CATALOG.entries.items():
        scanned = set()
        for _pname, _role, term in entry.premises:
            scanned |= {
                n
                for n in const_names(term)
                if n in CATALOG.entries and n != cname
            }
        assert scanned <= set(CATALOG.deps_of(cname)), cname


def test_deps_cover_separation_membership():
    # a separation is hoisted to a definition phrased with membership
    for cname in ("len", "negreal", "nonnegreal"):
        assert "in" in CATALOG.deps_of(cname), cname


def test_defn_only_for_guard_combinators():
    have = {n for n in CATALOG.order if CATALOG.defn_of(n) is not None}
    assert have == {"domseqm", "dom_of", "dom_of_varar", "dom_of_fixedar"}


def test_order_index_matches_order():
    for i, name in enumerate(CATALOG.order):
        assert CATALOG.order_index(name) == i


def test_catalog_constants_are_shared():
    for name in catalog.CATALOG.order:
        assert catalog.cc(name) is catalog.cc(name)
        assert catalog.cc(name) == catalog.Const(name, catalog.CATALOG.type_of(name))


def test_const_helper_types():
    c = CATALOG.const("ap")
    assert c.name == "ap"
    assert c.ty == CATALOG.type_of("ap")
