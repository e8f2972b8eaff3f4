"""Background catalog tests.

rational_value is the independent exact-arithmetic check for the encoder;
the ordering tests recompute dependency constraints from the entries'
reference graph rather than trusting the order list.
"""

import hashlib
import os
from fractions import Fraction

from hypothesis import given, strategies as st

from sumok2set import catalog, th0
from sumok2set.catalog import CATALOG, cc, encode_nat, encode_rational, ord_of
from sumok2set.hostterm import (
    EXISTS,
    FORALL,
    IOTA,
    LOGICAL,
    OMICRON,
    Const,
    arrow,
    quantifier,
    typecheck,
)
from sumok2set.th0read import _Parser

from termhelpers import catalog_needs, const_names, subterms


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


def test_deps_read_off_the_parse_equal_the_needs_of_the_terms():
    # the names the parser reads equal what the host terms need, in catalog order
    for cname, entry in CATALOG.entries.items():
        terms = [t for _p, _r, t in entry.premises] + [entry.defn] * (entry.defn is not None)
        want = sorted(catalog_needs(terms) - {cname}, key=CATALOG.order_index)
        assert CATALOG.deps_of(cname) == want, cname


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


# sha256 digests of the catalog: the repr of every entry's (name, type,
# premises, defn) in catalog order, and the rendered background of the
# whole catalog, its premise records and then its separation definitions
CATALOG_ENTRIES_DIGEST = "d59f2f78b5ad35484974785c6825edc001ab91fccb740364fb1099185b0ed3c2"
CATALOG_PREMISES_DIGEST = "37f8f9d9059e96bba46c90a597a037eab5c9901eb1cba4802d1e812d1faa1e51"
CATALOG_SEPS_DIGEST = "60fd4b205ad4b021a56ad0b9092706692bad4a2fe6686f03a1ba9bb508418874"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_catalog_entries_and_background_pinned():
    entries = [CATALOG.entries[name] for name in CATALOG.order]
    assert _sha256(repr([(e.name, e.ty, e.premises, e.defn) for e in entries])) == CATALOG_ENTRIES_DIGEST
    records = [th0.render_premise(*p) for p in CATALOG.background(set(CATALOG.order))]
    assert _sha256("\n".join(r.text for r in records)) == CATALOG_PREMISES_DIGEST
    seps = [defn.text for r in records for _sep, defn in r.seps]
    assert len(seps) == 3
    assert _sha256("\n".join(seps)) == CATALOG_SEPS_DIGEST


def test_catalog_text_is_canonical():
    # every record is what the renderer writes for the term it loads as, so
    # a hand edit keeps the canonical form, and the catalog keeps that term
    path = os.path.join(os.path.dirname(catalog.__file__), "catalog.p")
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line and not line.startswith("%")]
    records = ["thf(" + r for r in "\n".join(lines)[len("thf(") :].split("\nthf(")]
    consts, names, declared, seps = {}, set(), [], 0
    loaded = {p: t for e in CATALOG.entries.values() for p, _role, t in e.premises}
    for record in records:
        parser = _Parser(record)
        name, role, body = parser.record(consts, names)
        assert not parser.peek(), name
        if role == "type":
            declared.append(body.name)
            assert record == th0.render_record(name, role, f"{body.name} : {th0.render_type(body.ty)}")
            continue
        assert body == loaded[name], name
        assert record == th0.render_record(name, role, th0.render_term(body)), name
        seps += sum(t == catalog.SEP for t in subterms(body))
    assert [n for n in declared if n != "sep"] == CATALOG.order
    assert seps == 3


def test_one_const_node_per_catalog_name():
    assert "sep" not in CATALOG and "sep" not in CATALOG.consts
    assert catalog.SEP == Const("sep", arrow(IOTA, arrow(IOTA, OMICRON), IOTA))
    assert list(CATALOG.consts) == CATALOG.order
    for name in CATALOG.order:
        entry = CATALOG.entries[name]
        terms = [t for _p, _r, t in entry.premises] + [entry.defn] * (entry.defn is not None)
        for term in terms:
            for t in subterms(term):
                if type(t) is Const and t.name in LOGICAL:
                    assert t is LOGICAL[t.name], (name, t.name)
                elif type(t) is Const and t.name in (FORALL, EXISTS):
                    assert t is quantifier(t.name, t.ty.dom.dom), (name, t.name)
                elif type(t) is Const:
                    assert t is (catalog.SEP if t.name == "sep" else cc(t.name)), (name, t.name)
