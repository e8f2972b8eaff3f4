"""Fixed catalog of set-theoretic constants backing the translation.

Lists are encoded as functions from finite ordinals to tagged values: nil is
the constantly-empty function, cons shifts a list up by one and installs a
tagged head at index zero, and len collects the indices where the function
is nonempty.  Application of a relation to an argument list goes through an
abstract pairing operator ap over a set-level image of the list (listset).
Guard machinery (domseqm, dom_of and its two cases) and a small arithmetic
theory (finite ordinals, an opaque real line with bridge axioms) complete
the picture.

Every catalog constant carries zero or more named premises; background()
returns the premises for a set of needed constants closed under mutual
reference, dependencies first, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hostterm import (
    IOTA,
    OMICRON,
    All,
    App,
    Arrow,
    Conj,
    Const,
    Disj,
    Eq,
    Ex,
    Iff,
    Imp,
    Ite,
    Lam,
    Mem,
    Neg,
    Sep,
    Subq,
    Var,
    app,
    subterms,
)

I = IOTA
O = OMICRON
II = Arrow(I, I)

ROLE_DEFINITION = "definition"
ROLE_AXIOM = "axiom"

# The catalog constant each primitive constructor flattens to; a separation
# is hoisted instead, to a definition phrased with membership.
FLAT_CONST = {Mem: "in", Subq: "subq", Ite: "ite"}
_CONSTRUCTOR_NEEDS = {**FLAT_CONST, Sep: "in"}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ty: object
    premises: tuple  # of (premise_name, role, term)
    defn: object = None  # lambda form the finite-set evaluator can expand


class Catalog:
    def __init__(self, entries):
        self.entries = {e.name: e for e in entries}
        self.order = [e.name for e in entries]
        self._index = {n: i for i, n in enumerate(self.order)}
        self._consts = {e.name: Const(e.name, e.ty) for e in entries}
        self._deps = {e.name: self._compute_deps(e) for e in entries}

    def _compute_deps(self, entry: CatalogEntry) -> list:
        terms = [t for (_, _, t) in entry.premises]
        if entry.defn is not None:
            terms.append(entry.defn)
        found = self.needs(terms) - {entry.name}
        return sorted(found, key=self._index.__getitem__)

    def needs(self, terms) -> set:
        """Catalog names the terms need.

        These are the catalog constants they mention and the constants
        their primitive constructors stand for.
        """
        out: set = set()
        for term in terms:
            for t in subterms(term):
                if type(t) is Const:
                    if t.name in self.entries:
                        out.add(t.name)
                elif type(t) in _CONSTRUCTOR_NEEDS:
                    out.add(_CONSTRUCTOR_NEEDS[type(t)])
        return out

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def const(self, name: str) -> Const:
        """The one Const node of a catalog name."""
        return self._consts[name]

    def type_of(self, name: str):
        return self.entries[name].ty

    def deps_of(self, name: str) -> list:
        return list(self._deps[name])

    def order_index(self, name: str) -> int:
        return self._index[name]

    def defn_of(self, name: str):
        return self.entries[name].defn

    def background(self, needed) -> list:
        """Premises for the needed constants plus transitive dependencies.

        Output is (premise_name, role, term) triples, dependencies before
        dependents, stable across runs.
        """
        out: list = []
        visited: set = set()
        for name in self.order:
            if name in needed:
                self._visit(name, visited, out)
        return out

    def _visit(self, name: str, visited: set, out: list):
        # a method, not a closure: a self-calling closure is a reference
        # cycle that only a full collection frees
        if name in visited or name not in self.entries:
            return
        visited.add(name)
        for dep in self._deps[name]:
            self._visit(dep, visited, out)
        out.extend(self.entries[name].premises)


def _build() -> Catalog:
    c = lambda name, ty: Const(name, ty)

    in_c = c("in", Arrow(I, Arrow(I, O)))
    emptyset = c("emptyset", I)
    subq = c("subq", Arrow(I, Arrow(I, O)))
    power = c("power", II)
    ite = c("ite", Arrow(O, Arrow(I, II)))
    ordsucc = c("ordsucc", II)
    omega = c("omega", I)
    natp = c("nat_p", Arrow(I, O))
    ords = [c(f"ord{k}", I) for k in range(11)]
    ord_add = c("ord_add", Arrow(I, II))
    ord_mult = c("ord_mult", Arrow(I, II))
    ord_exp = c("ord_exp", Arrow(I, II))
    ord_sub = c("ord_sub", Arrow(I, II))
    tag = c("tag", II)
    untag = c("untag", II)
    nil = c("nil", II)
    cons = c("cons", Arrow(I, Arrow(II, II)))
    len_c = c("len", Arrow(II, I))
    listset = c("listset", Arrow(II, I))
    ap = c("ap", Arrow(I, II))
    istrue = c("istrue", Arrow(I, O))
    boolset = c("boolset", Arrow(O, I))
    arity = c("arity", II)
    vararity = c("vararity", Arrow(I, O))
    domseq = c("domseq", Arrow(I, II))
    domseqm = c("domseqm", Arrow(I, II))
    dov = c("dom_of_varar", Arrow(I, Arrow(II, Arrow(II, O))))
    dof = c("dom_of_fixedar", Arrow(I, Arrow(II, Arrow(II, O))))
    dom_of = c("dom_of", Arrow(O, Arrow(I, Arrow(II, Arrow(II, O)))))
    univ = c("univ", I)
    entity = c("entity", I)
    set_or_class = c("set_or_class", I)
    abstract_class = c("abstract_class", I)
    real = c("real", I)
    real_add = c("real_add", Arrow(I, II))
    real_sub = c("real_sub", Arrow(I, II))
    real_mult = c("real_mult", Arrow(I, II))
    real_div = c("real_div", Arrow(I, II))
    real_neg = c("real_neg", II)
    real_lt = c("real_lt", Arrow(I, Arrow(I, O)))
    real_leq = c("real_leq", Arrow(I, Arrow(I, O)))
    arith = {op: c(f"arith_{op}", I) for op in ("add", "sub", "mult", "div", "lt", "leq")}

    X = Var("X", I)
    Y = Var("Y", I)
    Z = Var("Z", I)
    N = Var("N", I)
    M = Var("M", I)
    R = Var("R", I)
    Ix = Var("I", I)
    P = Var("P", O)
    V = Var("V", O)
    L = Var("L", II)
    D = Var("D", II)

    def fa(*vs):
        def close(body):
            out = body
            for v in reversed(vs):
                out = All(v.name, v.ty, out)
            return out

        return close

    def list2(a, b):
        return app(cons, a, app(cons, b, nil))

    entries = [
        CatalogEntry("in", in_c.ty, ()),
        CatalogEntry("emptyset", I, ()),
        CatalogEntry(
            "subq",
            subq.ty,
            (
                (
                    "def_subq",
                    ROLE_DEFINITION,
                    fa(X, Y)(
                        Iff(
                            Subq(X, Y),
                            All("Z", I, Imp(Mem(Z, X), Mem(Z, Y))),
                        )
                    ),
                ),
                (
                    "ax_set_ext",
                    ROLE_AXIOM,
                    fa(X, Y)(Imp(Subq(X, Y), Imp(Subq(Y, X), Eq(X, Y)))),
                ),
            ),
        ),
        CatalogEntry(
            "power",
            power.ty,
            (
                (
                    "ax_power_mem",
                    ROLE_AXIOM,
                    fa(X, Y)(Iff(Mem(Y, App(power, X)), Subq(Y, X))),
                ),
            ),
        ),
        CatalogEntry(
            "ite",
            ite.ty,
            (
                (
                    "ax_ite_true",
                    ROLE_AXIOM,
                    All("P", O, fa(X, Y)(Imp(P, Eq(Ite(P, X, Y), X)))),
                ),
                (
                    "ax_ite_false",
                    ROLE_AXIOM,
                    All("P", O, fa(X, Y)(Imp(Neg(P), Eq(Ite(P, X, Y), Y)))),
                ),
            ),
        ),
        CatalogEntry(
            "ordsucc",
            ordsucc.ty,
            (
                (
                    "ax_ordsucc_mem",
                    ROLE_AXIOM,
                    fa(X, Z)(
                        Iff(Mem(Z, App(ordsucc, X)), Disj(Mem(Z, X), Eq(Z, X)))
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "omega",
            I,
            (
                ("ax_omega_zero", ROLE_AXIOM, Mem(emptyset, omega)),
                (
                    "ax_omega_succ",
                    ROLE_AXIOM,
                    fa(N)(Imp(Mem(N, omega), Mem(App(ordsucc, N), omega))),
                ),
            ),
        ),
        CatalogEntry(
            "nat_p",
            natp.ty,
            (
                (
                    "def_natp",
                    ROLE_DEFINITION,
                    fa(N)(Iff(App(natp, N), Mem(N, omega))),
                ),
            ),
        ),
        CatalogEntry("ord0", I, (("def_ord0", ROLE_DEFINITION, Eq(ords[0], emptyset)),)),
    ]
    for k in range(1, 11):
        entries.append(
            CatalogEntry(
                f"ord{k}",
                I,
                (
                    (
                        f"def_ord{k}",
                        ROLE_DEFINITION,
                        Eq(ords[k], App(ordsucc, ords[k - 1])),
                    ),
                ),
            )
        )
    entries += [
        CatalogEntry(
            "ord_add",
            ord_add.ty,
            (
                (
                    "ax_ord_add_zero",
                    ROLE_AXIOM,
                    fa(N)(Imp(App(natp, N), Eq(app(ord_add, N, ords[0]), N))),
                ),
                (
                    "ax_ord_add_succ",
                    ROLE_AXIOM,
                    fa(N, M)(
                        Imp(
                            App(natp, N),
                            Imp(
                                App(natp, M),
                                Eq(
                                    app(ord_add, N, App(ordsucc, M)),
                                    App(ordsucc, app(ord_add, N, M)),
                                ),
                            ),
                        )
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "ord_mult",
            ord_mult.ty,
            (
                (
                    "ax_ord_mult_zero",
                    ROLE_AXIOM,
                    fa(N)(Imp(App(natp, N), Eq(app(ord_mult, N, ords[0]), ords[0]))),
                ),
                (
                    "ax_ord_mult_succ",
                    ROLE_AXIOM,
                    fa(N, M)(
                        Imp(
                            App(natp, N),
                            Imp(
                                App(natp, M),
                                Eq(
                                    app(ord_mult, N, App(ordsucc, M)),
                                    app(ord_add, app(ord_mult, N, M), N),
                                ),
                            ),
                        )
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "ord_exp",
            ord_exp.ty,
            (
                (
                    "ax_ord_exp_zero",
                    ROLE_AXIOM,
                    fa(N)(Imp(App(natp, N), Eq(app(ord_exp, N, ords[0]), ords[1]))),
                ),
                (
                    "ax_ord_exp_succ",
                    ROLE_AXIOM,
                    fa(N, M)(
                        Imp(
                            App(natp, N),
                            Imp(
                                App(natp, M),
                                Eq(
                                    app(ord_exp, N, App(ordsucc, M)),
                                    app(ord_mult, app(ord_exp, N, M), N),
                                ),
                            ),
                        )
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "ord_sub",
            ord_sub.ty,
            (
                (
                    "ax_ord_sub_inv",
                    ROLE_AXIOM,
                    fa(N, M)(
                        Imp(
                            App(natp, N),
                            Imp(
                                App(natp, M),
                                Eq(app(ord_sub, app(ord_add, N, M), N), M),
                            ),
                        )
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "tag",
            tag.ty,
            (
                (
                    "ax_tag_nonempty",
                    ROLE_AXIOM,
                    fa(X)(Neg(Eq(App(tag, X), emptyset))),
                ),
            ),
        ),
        CatalogEntry(
            "untag",
            untag.ty,
            (
                (
                    "ax_untag_tag",
                    ROLE_AXIOM,
                    fa(X)(Eq(App(untag, App(tag, X)), X)),
                ),
            ),
        ),
        CatalogEntry(
            "nil",
            nil.ty,
            (("def_nil", ROLE_DEFINITION, Eq(nil, Lam("N", I, emptyset))),),
        ),
        CatalogEntry(
            "cons",
            cons.ty,
            (
                (
                    "def_cons",
                    ROLE_DEFINITION,
                    All(
                        "X",
                        I,
                        All(
                            "L",
                            II,
                            Conj(
                                Eq(app(cons, X, L, ords[0]), App(tag, X)),
                                All(
                                    "N",
                                    I,
                                    Imp(
                                        App(natp, N),
                                        Eq(
                                            app(cons, X, L, App(ordsucc, N)),
                                            App(L, N),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "len",
            len_c.ty,
            (
                (
                    "def_len",
                    ROLE_DEFINITION,
                    Eq(
                        len_c,
                        Lam(
                            "L",
                            II,
                            Sep("N", omega, Neg(Eq(App(L, N), emptyset))),
                        ),
                    ),
                ),
            ),
        ),
        CatalogEntry("listset", listset.ty, ()),
        CatalogEntry("ap", ap.ty, ()),
        CatalogEntry(
            "istrue",
            istrue.ty,
            (
                (
                    "def_istrue",
                    ROLE_DEFINITION,
                    fa(X)(Iff(App(istrue, X), Mem(emptyset, X))),
                ),
            ),
        ),
        CatalogEntry(
            "boolset",
            boolset.ty,
            (
                (
                    "def_boolset",
                    ROLE_DEFINITION,
                    All("P", O, Eq(App(boolset, P), Ite(P, ords[1], ords[0]))),
                ),
            ),
        ),
        CatalogEntry("arity", arity.ty, ()),
        CatalogEntry("vararity", vararity.ty, ()),
        CatalogEntry("domseq", domseq.ty, ()),
        CatalogEntry(
            "domseqm",
            domseqm.ty,
            (
                (
                    "def_domseqm",
                    ROLE_DEFINITION,
                    fa(R, Ix)(
                        Eq(
                            app(domseqm, R, Ix),
                            Ite(
                                App(vararity, R),
                                app(
                                    domseq,
                                    R,
                                    Ite(Mem(Ix, App(arity, R)), Ix, App(arity, R)),
                                ),
                                app(domseq, R, Ix),
                            ),
                        )
                    ),
                ),
            ),
            defn=Lam(
                "R",
                I,
                Lam(
                    "I",
                    I,
                    Ite(
                        App(vararity, R),
                        app(
                            domseq,
                            R,
                            Ite(Mem(Ix, App(arity, R)), Ix, App(arity, R)),
                        ),
                        app(domseq, R, Ix),
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "dom_of_varar",
            dov.ty,
            (
                (
                    "def_dom_of_varar",
                    ROLE_DEFINITION,
                    All(
                        "N",
                        I,
                        All(
                            "D",
                            II,
                            All(
                                "L",
                                II,
                                Iff(app(dov, N, D, L), _varar_body(N, D, L, untag, len_c)),
                            ),
                        ),
                    ),
                ),
            ),
            defn=Lam(
                "N", I, Lam("D", II, Lam("L", II, _varar_body(N, D, L, untag, len_c)))
            ),
        ),
        CatalogEntry(
            "dom_of_fixedar",
            dof.ty,
            (
                (
                    "def_dom_of_fixedar",
                    ROLE_DEFINITION,
                    All(
                        "N",
                        I,
                        All(
                            "D",
                            II,
                            All(
                                "L",
                                II,
                                Iff(app(dof, N, D, L), _fixedar_body(N, D, L, untag, len_c)),
                            ),
                        ),
                    ),
                ),
            ),
            defn=Lam(
                "N", I, Lam("D", II, Lam("L", II, _fixedar_body(N, D, L, untag, len_c)))
            ),
        ),
        CatalogEntry(
            "dom_of",
            dom_of.ty,
            (
                (
                    "def_dom_of",
                    ROLE_DEFINITION,
                    All(
                        "V",
                        O,
                        All(
                            "N",
                            I,
                            All(
                                "D",
                                II,
                                All(
                                    "L",
                                    II,
                                    Iff(
                                        app(dom_of, V, N, D, L),
                                        Conj(
                                            Imp(V, app(dov, N, D, L)),
                                            Imp(Neg(V), app(dof, N, D, L)),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
            defn=Lam(
                "V",
                O,
                Lam(
                    "N",
                    I,
                    Lam(
                        "D",
                        II,
                        Lam(
                            "L",
                            II,
                            Conj(
                                Imp(V, app(dov, N, D, L)),
                                Imp(Neg(V), app(dof, N, D, L)),
                            ),
                        ),
                    ),
                ),
            ),
        ),
        CatalogEntry("univ", I, ()),
        CatalogEntry(
            "entity",
            I,
            (
                (
                    "ax_entity_univ",
                    ROLE_AXIOM,
                    fa(X)(Imp(Mem(X, univ), Mem(X, entity))),
                ),
                (
                    "ax_entity_pow",
                    ROLE_AXIOM,
                    fa(X)(Imp(Mem(X, App(power, univ)), Mem(X, entity))),
                ),
            ),
        ),
        CatalogEntry(
            "set_or_class",
            I,
            (
                (
                    "ax_setorclass_pow",
                    ROLE_AXIOM,
                    fa(X)(Imp(Mem(X, App(power, univ)), Mem(X, set_or_class))),
                ),
            ),
        ),
        CatalogEntry(
            "abstract_class",
            I,
            (
                (
                    "ax_abstract_pow",
                    ROLE_AXIOM,
                    fa(X)(Imp(Mem(X, App(power, univ)), Mem(X, abstract_class))),
                ),
            ),
        ),
        CatalogEntry(
            "real",
            I,
            (("ax_omega_real", ROLE_AXIOM, Subq(omega, real)),),
        ),
        CatalogEntry(
            "real_add",
            real_add.ty,
            (
                (
                    "ax_add_agree_ord",
                    ROLE_AXIOM,
                    fa(N, M)(
                        Imp(
                            App(natp, N),
                            Imp(
                                App(natp, M),
                                Eq(app(real_add, N, M), app(ord_add, N, M)),
                            ),
                        )
                    ),
                ),
            ),
        ),
        CatalogEntry("real_sub", real_sub.ty, ()),
        CatalogEntry(
            "real_mult",
            real_mult.ty,
            (
                (
                    "ax_mult_agree_ord",
                    ROLE_AXIOM,
                    fa(N, M)(
                        Imp(
                            App(natp, N),
                            Imp(
                                App(natp, M),
                                Eq(app(real_mult, N, M), app(ord_mult, N, M)),
                            ),
                        )
                    ),
                ),
            ),
        ),
        CatalogEntry("real_div", real_div.ty, ()),
        CatalogEntry("real_neg", real_neg.ty, ()),
        CatalogEntry("real_lt", real_lt.ty, ()),
        CatalogEntry(
            "real_leq",
            real_leq.ty,
            (
                (
                    "ax_real_leq_lt_asym",
                    ROLE_AXIOM,
                    fa(X, Y)(
                        Imp(
                            Mem(X, real),
                            Imp(
                                Mem(Y, real),
                                Imp(
                                    app(real_leq, X, Y),
                                    Neg(app(real_lt, Y, X)),
                                ),
                            ),
                        )
                    ),
                ),
            ),
        ),
        CatalogEntry(
            "negreal",
            I,
            (
                (
                    "def_negreal",
                    ROLE_DEFINITION,
                    Eq(Const("negreal", I), Sep("X", real, app(real_lt, X, ords[0]))),
                ),
            ),
        ),
        CatalogEntry(
            "nonnegreal",
            I,
            (
                (
                    "def_nonnegreal",
                    ROLE_DEFINITION,
                    Eq(
                        Const("nonnegreal", I),
                        Sep("X", real, app(real_leq, ords[0], X)),
                    ),
                ),
            ),
        ),
    ]
    bridge_eq = [
        ("arith_add", "ax_add_real", real_add),
        ("arith_sub", "ax_sub_real", real_sub),
        ("arith_mult", "ax_mult_real", real_mult),
        ("arith_div", "ax_div_real", real_div),
    ]
    for cname, pname, realop in bridge_eq:
        entries.append(
            CatalogEntry(
                cname,
                I,
                (
                    (
                        pname,
                        ROLE_AXIOM,
                        fa(X, Y)(
                            Imp(
                                Mem(X, real),
                                Imp(
                                    Mem(Y, real),
                                    Eq(
                                        app(ap, arith[cname.split("_")[1]], App(listset, list2(X, Y))),
                                        app(realop, X, Y),
                                    ),
                                ),
                            )
                        ),
                    ),
                ),
            )
        )
    bridge_iff = [
        ("arith_lt", "ax_lessthan_real", real_lt),
        ("arith_leq", "ax_leq_real", real_leq),
    ]
    for cname, pname, realop in bridge_iff:
        entries.append(
            CatalogEntry(
                cname,
                I,
                (
                    (
                        pname,
                        ROLE_AXIOM,
                        fa(X, Y)(
                            Imp(
                                Mem(X, real),
                                Imp(
                                    Mem(Y, real),
                                    Iff(
                                        App(
                                            istrue,
                                            app(
                                                ap,
                                                arith[cname.split("_")[1]],
                                                App(listset, list2(X, Y)),
                                            ),
                                        ),
                                        app(realop, X, Y),
                                    ),
                                ),
                            )
                        ),
                    ),
                ),
            )
        )
    return Catalog(entries)


def _varar_body(N, D, L, untag, len_c):
    # the three conditions: n below the length, each declared slot typed,
    # and every optional slot typed by the template at index n
    Ix = Var("I", I)
    return Conj(
        Subq(N, App(len_c, L)),
        Conj(
            All(
                "I",
                I,
                Imp(Mem(Ix, N), Mem(App(untag, App(L, Ix)), App(D, Ix))),
            ),
            All(
                "I",
                I,
                Imp(
                    Mem(Ix, App(len_c, L)),
                    Imp(Subq(N, Ix), Mem(App(untag, App(L, Ix)), App(D, N))),
                ),
            ),
        ),
    )


def _fixedar_body(N, D, L, untag, len_c):
    Ix = Var("I", I)
    return Conj(
        Eq(App(len_c, L), N),
        All(
            "I",
            I,
            Imp(Mem(Ix, N), Mem(App(untag, App(L, Ix)), App(D, Ix))),
        ),
    )


CATALOG = _build()


def cc(name: str) -> Const:
    """Catalog constant by name."""
    return CATALOG.const(name)


def ord_of(n: int):
    """Ordinal literal for small n, successor chain above ten."""
    if n < 0:
        raise ValueError("ordinal literals are nonnegative")
    if n <= 10:
        return cc(f"ord{n}")
    return App(cc("ordsucc"), ord_of(n - 1))


def mk_list(items):
    """Right fold of cons over nil: the list encoding of the item sequence."""
    out = cc("nil")
    for item in reversed(list(items)):
        out = app(cc("cons"), item, out)
    return out


def _encode_digits(n: int):
    # base-10 digit polynomial with explicit coefficients, zero digits skipped
    digits = str(n)
    k = len(digits)
    parts = []
    for pos, ch in enumerate(digits):
        d = int(ch)
        if d == 0:
            continue
        power = k - 1 - pos
        lit = ord_of(d)
        if power == 0:
            parts.append(lit)
        elif power == 1:
            parts.append(app(cc("ord_mult"), lit, cc("ord10")))
        else:
            parts.append(
                app(cc("ord_mult"), lit, app(cc("ord_exp"), cc("ord10"), encode_nat(power)))
            )
    out = parts[0]
    for p in parts[1:]:
        out = app(cc("ord_add"), out, p)
    return out


def encode_nat(n: int):
    if n <= 10:
        return ord_of(n)
    return _encode_digits(n)


def encode_rational(num: int, scale: int):
    """Host numeral for num / 10**scale.

    Integers become base-10 digit polynomials over the finite ordinals; a
    positive scale divides by the matching power of ten on the real line, and
    negative numerators wrap the magnitude in real negation.
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    mag = encode_nat(abs(num))
    if num < 0:
        mag = App(cc("real_neg"), mag)
    if scale == 0:
        return mag
    if scale == 1:
        denom = cc("ord10")
    else:
        denom = app(cc("ord_exp"), cc("ord10"), encode_nat(scale))
    return app(cc("real_div"), mag, denom)


def rational_value(term) -> Fraction:
    """Exact value of a numeral term; the independent check for the encoder."""
    if isinstance(term, Const):
        if term.name.startswith("ord") and term.name[3:].isdigit():
            return Fraction(int(term.name[3:]))
        raise ValueError(f"not a numeral constant: {term.name}")
    if isinstance(term, App):
        head, args = _spine(term)
        if isinstance(head, Const):
            vals = None
            if head.name in ("ord_add", "real_add") and len(args) == 2:
                vals = rational_value(args[0]) + rational_value(args[1])
            elif head.name in ("ord_mult", "real_mult") and len(args) == 2:
                vals = rational_value(args[0]) * rational_value(args[1])
            elif head.name in ("ord_sub", "real_sub") and len(args) == 2:
                vals = rational_value(args[0]) - rational_value(args[1])
            elif head.name == "ord_exp" and len(args) == 2:
                vals = rational_value(args[0]) ** int(rational_value(args[1]))
            elif head.name == "ordsucc" and len(args) == 1:
                vals = rational_value(args[0]) + 1
            elif head.name == "real_neg" and len(args) == 1:
                vals = -rational_value(args[0])
            elif head.name == "real_div" and len(args) == 2:
                d = rational_value(args[1])
                vals = rational_value(args[0]) / d if d else Fraction(0)
            if vals is not None:
                return vals
    raise ValueError(f"not a numeral term: {term!r}")


def _spine(term):
    args = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    return term, list(reversed(args))
