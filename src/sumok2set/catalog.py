"""Fixed catalog of set-theoretic constants backing the translation.

The theory itself is THF text, catalog.p beside this module, read at import
with th0read's parser.  Each constant's ty_ record is followed by the
premises that belong to it; file order is catalog order.  Membership, subset
and conditional are applications of in, subq and ite, and a separation is
sep @ A @ (^[X : $i]: P), Megalodon's Sep A (fun X => P).  The host term
language spells the set primitives the same way, so the loader keeps each
term as it is parsed.  sep is declared for that form alone and is no catalog
constant: its parsed node is SEP, and each problem hoists every separation
afresh.  The constants named in _EVALUATED also carry a defn, the lambda the
finite-set oracle expands: the right-hand side of the constant's defining
premise, abstracted over that premise's universal binders.  To change the
theory, edit catalog.p and keep its records in the canonical form the
renderer writes (tests/test_catalog.py checks that).

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
reference, dependencies first, deterministically.  The dependencies of a
constant are read off the parse of catalog.p: the names the parser reads in
the constant's premises, where sep counts as in, by which a separation is
defined once it is hoisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .hostterm import FORALL, App, Const, Lam, app
from .th0read import _Parser

# The constants whose definitions the finite-set oracle expands.
_EVALUATED = ("domseqm", "dom_of_varar", "dom_of_fixedar", "dom_of")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ty: object
    premises: tuple  # of (premise_name, role, term)
    defn: object = None  # lambda form the finite-set evaluator can expand


class Catalog:
    def __init__(self, entries, consts: dict, reads: dict):
        self.entries = {e.name: e for e in entries}
        self.order = [e.name for e in entries]
        self._index = {n: i for i, n in enumerate(self.order)}
        self.consts = consts  # name -> the one Const node its premises share
        # the catalog names an entry's premises read, itself left out
        self._deps = {
            e.name: sorted(reads[e.name] - {e.name}, key=self._index.__getitem__) for e in entries
        }

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def const(self, name: str) -> Const:
        """The one Const node of a catalog name."""
        return self.consts[name]

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


def _load(text: str) -> tuple:
    """The catalog of THF text, each ty_ record and the premises after it,
    and the Const node of sep.

    The names each entry's premises read are its dependencies; sep is read
    as in, by which a separation is defined.
    """
    parser = _Parser(text)
    consts: dict = {}  # name -> Const node, shared by every premise
    names: set = set()
    owned: dict = {}  # name -> its premises, in file order
    reads: dict = {}  # name -> the declared names its premises read
    while parser.peek():
        record, role, body = parser.record(consts, names)
        if role == "type":
            premises = owned[body.name] = []
            parser.reads = reads[body.name] = set()
        else:
            premises.append((record, role, body))
    sep = consts.pop("sep")
    del owned["sep"]
    for read in reads.values():
        if "sep" in read:
            read.remove("sep")
            read.add("in")
    entries = [
        CatalogEntry(
            name,
            consts[name].ty,
            tuple(premises),
            _defn(premises[0][2]) if name in _EVALUATED else None,
        )
        for name, premises in owned.items()
    ]
    return Catalog(entries, consts, reads), sep


def _spine(term):
    args = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    return term, list(reversed(args))


def _defn(definition):
    """The lambda over a definition's universal binders of its right-hand side."""
    if type(definition.fn) is Const and definition.fn.name == FORALL:
        lam = definition.arg
        return Lam(lam.name, lam.ty, _defn(lam.body))
    return definition.arg  # the right operand of = or <=>


CATALOG, SEP = _load(
    resources.files(__package__).joinpath("catalog.p").read_text(encoding="utf-8")
)


def cc(name: str) -> Const:
    """Catalog constant by name."""
    return CATALOG.const(name)


IN, SUBQ, ITE = cc("in"), cc("subq"), cc("ite")
NIL, CONS = cc("nil"), cc("cons")


def ord_of(n: int):
    """Ordinal literal for small n, successor chain above ten."""
    if n < 0:
        raise ValueError("ordinal literals are nonnegative")
    if n <= 10:
        return cc(f"ord{n}")
    return App(cc("ordsucc"), ord_of(n - 1))


def mk_list(items):
    """Right fold of cons over nil: the list encoding of the item sequence."""
    out = NIL
    for item in reversed(list(items)):
        out = App(App(CONS, item), out)
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
