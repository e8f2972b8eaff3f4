"""Brute-force checking of identities over hereditarily finite sets.

Terms of the host language are evaluated in the universe of hereditarily
finite sets: individuals are HfSet values, list encodings are finite-support
functions defaulting to the empty set (a list that cons makes keeps its tail
and builds its table only when read), booleans are Python booleans, and
higher types are closures.  A numeral's value is checked against its von
Neumann structure once, when the numeral is interned; ordinal arithmetic
reads its operands' values and builds its result once.  The numeral encoder
has two independent checks: the evaluation of its digit polynomials here,
and catalog.rational_value.

Sets are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): HfSet looks its elements up in a
process-wide weak table, so each distinct set is one object and equality is
identity.  The table holds its sets weakly and keeps nothing alive; only the
numerals up to the largest one requested stay memoized.  Arithmetic, equality,
is_nat, pred and lists neither build a set's key string nor recurse, so
neither numeral size nor list length is bounded by recursion depth, and
numeral size is not bounded by key length either.
Members are ordered as their keys would be, by a comparison that builds no
key.  Key strings are built only to print a set, and then only up to
DESCRIBE_LIMIT characters.

Terms are compiled once into closures (see Evaluator) that then run on each
assignment.  The set primitives are applied catalog constants, and the
connectives, equality and quantifiers applied logical constants; a full
application of a connective or =, of in, subq or ite, of sep to a set and a
lambda, or of a quantifier to a lambda, is evaluated as one node
(_PRIMITIVES), whether a catalog term or a lemma line spells it: ite
evaluates only the branch it takes, and a connective only the operands that
decide its value; $true and $false are native constants.  Fuel bounds the
work: one unit per term node evaluated, per separation member, per
quantified value and per entry of a function tabulated as a list, and four
per native ordinal operation.  Ordinal arithmetic and power refuse, before
building anything, a set of more than NUMERAL_BOUND members, so that fuel
bounds memory too.

A claim's body is staged by binder level (a binding-time split in the sense
of Jones, Gomard and Sestoft, "Partial Evaluation and Automatic Program
Generation", 1993): a subterm that reads only the claim's first binders
keeps its value while they keep theirs, and a spine prefix that reads fewer
binders than the spine is a subterm of its own.  So a subterm is evaluated
once per assignment of the binders it reads, and once per claim when it
reads none.  Interning makes the reuse sound, since an unchanged binder is
the same object.  Kept values are still demanded lazily, and a reuse charges
the fuel the evaluation spent: fuel is charged as though each subterm were
evaluated on every assignment, and every verdict, count, counterexample and
error is that of evaluating the body afresh on each assignment.

Quantifiers are handled when bounded: forall over a membership guard whose
bound evaluates, forall over booleans, and the matching exists shapes.
Candidate identities are read from lemma files whose syntax mirrors the
rendered problem syntax, quantified over small generator universes.  Each
universe is built once per process, and a claim's assignments run in one
loop per binder: a new value of a binder moves its epoch and those of the
binders after it.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass

from .catalog import CATALOG, SEP
from .hostterm import (
    CONJ,
    DISJ,
    EQUALS,
    EXISTS,
    FALSE,
    FORALL,
    IFF,
    IMP,
    NEG,
    TRUE,
    App,
    Arrow,
    Const,
    IOTA,
    Lam,
    OMICRON,
    Var,
    free_vars,
)
from .sexpr import read_text
from .th0read import Th0Error, _Parser

DEFAULT_FUEL = 10**6
# omega's members run through 0..HORIZON wherever they are listed, and a
# function is tabulated as a list over the same indices
HORIZON = 32


class OracleError(Exception):
    pass


class OutOfFuel(OracleError):
    pass


class Unsupported(OracleError):
    pass


class UninterpretedConstant(OracleError):
    pass


# ---------------------------------------------------------------------------
# Values


class HfSet:
    """Canonical hereditarily finite set, interned: one object per set.

    Equality is identity.  The hash is the content hash of the element set,
    so frozenset iteration order does not depend on object addresses.
    """

    __slots__ = ("elems", "_hash", "_nat", "_key", "_sorted", "__weakref__")

    def __new__(cls, elems=()):
        elems = frozenset(elems)
        ref = _INTERNED.get(elems)
        self = None if ref is None else ref()
        if self is None:
            self = object.__new__(cls)
            self.elems = elems
            self._hash = hash(elems)
            self._nat = _numeral_value(elems)
            self._key = None
            self._sorted = None  # members in key order, once asked for
            _INTERNED[elems] = weakref.ref(self, lambda ref: _forget(elems, ref))
        return self

    # An interned set is its own copy; pickling re-interns it.
    def __reduce__(self):
        return (HfSet, (self.elems,))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def key(self) -> str:
        return _bounded_key(self, math.inf)

    # __eq__ is object identity, which interning makes extensional equality
    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        """Elements in canonical key order; no key is built to sort them."""
        if self._nat >= 0:
            # the key of nat(k + 1) sorts before that of nat(k)
            return map(nat, range(self._nat - 1, -1, -1))
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elems, key=_KEY_ORDER))
        return iter(self._sorted)

    def __contains__(self, item):
        return item in self.elems

    def __repr__(self):
        return describe_set(self)


_INTERNED: dict = {}  # frozenset of elements -> weak reference to its HfSet


def _forget(elems, ref):
    if _INTERNED.get(elems) is ref:
        del _INTERNED[elems]


def _numeral_value(elems) -> int:
    """n when elems are the numerals below n, else -1.

    Interning makes numerals of distinct value distinct objects, so n
    distinct numerals below n are exactly nat(0) .. nat(n - 1).
    """
    n = len(elems)
    if n < len(_NATS):
        return -1  # nat(n) is memoized, hence interned, so a new set is not it
    try:
        return n if all(0 <= e._nat < n for e in elems) else -1
    except AttributeError:  # a member that is not a set, such as omega
        return -1


# A set may hold omega, but such a set has no key, no order among sets and
# no predecessor; an operation that needs one of these raises this.
_HOLDS_OMEGA = "a set that holds omega"


def _key_cmp(x: HfSet, y: HfSet) -> int:
    """Compare x and y as their keys compare, without building the keys.

    A key is "{" and its members' keys in order, joined by ",", then "}".
    No key is a proper prefix of another, so the first members that differ
    decide; when one member sequence is a prefix of the other, the longer
    comes first, since "," sorts before "}".  Numerals come out by value,
    larger first.
    """
    if x is y:
        return 0
    if type(x) is not HfSet or type(y) is not HfSet:
        raise Unsupported(_HOLDS_OMEGA)
    if x._nat >= 0 and y._nat >= 0:
        return y._nat - x._nat
    for a, b in zip(x, y):
        if a is not b:
            return _key_cmp(a, b)
    return len(y) - len(x)


_KEY_ORDER = functools.cmp_to_key(_key_cmp)

DESCRIBE_LIMIT = 1000  # longest key a message or counterexample shows


def _bounded_key(x: HfSet, budget):
    """The key of x when it has at most budget characters, else None.

    Gives up at the first member that does not fit, so the cost is bounded
    by the budget, not by the length of the key.  Built keys are cached.
    """
    if x._key is not None:
        return x._key if len(x._key) <= budget else None
    used = max(len(x.elems) + 1, 2)  # braces and commas
    if used > budget:
        return None
    keys = []
    for e in x.elems:
        if type(e) is not HfSet:
            raise Unsupported(_HOLDS_OMEGA)
        key = _bounded_key(e, budget - used)
        if key is None:
            return None
        used += len(key)
        keys.append(key)
    x._key = "{" + ",".join(sorted(keys)) + "}"
    return x._key


def describe_set(x: HfSet) -> str:
    """The key of x, or a sketch of it when the key exceeds DESCRIBE_LIMIT.

    Keys grow exponentially with the numerals a set holds, so a longer key
    is never built: a numeral is sketched as nat(n) and any other set by the
    sorted descriptions of its members, cut after DESCRIBE_LIMIT characters.
    """
    memo: dict = {}

    def walk(s):
        if type(s) is not HfSet:
            raise Unsupported(_HOLDS_OMEGA)
        if s not in memo:
            text = _bounded_key(s, DESCRIBE_LIMIT)
            if text is None and s._nat >= 0:
                text = f"nat({s._nat})"
            elif text is None:
                text = "{" + ",".join(sorted(map(walk, s.elems))) + "}"
                if len(text) > DESCRIBE_LIMIT:
                    text = text[:DESCRIBE_LIMIT] + "...}"
            memo[s] = text
        return memo[s]

    return walk(x)


_NATS: list = []  # memoized numerals, _NATS[n] is nat(n)
EMPTY = HfSet()
_NATS.append(EMPTY)


def hfset(*elems) -> HfSet:
    return HfSet(elems)


def nat(n: int) -> HfSet:
    while len(_NATS) <= n:
        top = _NATS[-1]
        _NATS.append(HfSet(top.elems | {top}))
    return _NATS[n]


def succ(x: HfSet) -> HfSet:
    """The ordinal successor x | {x}."""
    n = x._nat + 1
    if n > 0:
        return _NATS[n] if n < len(_NATS) else nat(n)
    return HfSet(x.elems | {x})


def is_nat(x: HfSet):
    """The integer n when x is the von Neumann numeral n, else None.

    x is a numeral exactly when x is nat(len(x)); the value is recorded when
    x is interned.
    """
    return x._nat if x._nat >= 0 else None


def pred(x: HfSet) -> HfSet:
    """The set e with x = e | {e}: the predecessor of a nonzero numeral."""
    if x._nat > 0:
        return nat(x._nat - 1)
    # x = e | {e} exactly when e is a member, a subset and one smaller
    if not all(type(e) is HfSet for e in x.elems):
        raise Unsupported(_HOLDS_OMEGA)
    n = len(x.elems)
    for e in x.elems:
        if len(e.elems) + 1 == n and e.elems <= x.elems:
            return e
    raise OracleError(f"not a successor numeral: {x!r}")


def pair(a: HfSet, b: HfSet) -> HfSet:
    return hfset(hfset(a), hfset(a, b))


_UNMEASURED = object()  # a length not yet worked out


class HfFn:
    """Finite-support function on HF sets, empty set off the support.

    Immutable by contract; equal when the tables are, and unhashable.  A
    list that cons made keeps its tail (a persistent list in the sense of
    Okasaki, "Purely Functional Data Structures", 1998): applied to nat(0)
    it gives its head, to nat(n) for n > 0 its tail's value at nat(n - 1),
    since succ is injective, and to any other argument what its table
    holds.  That table is built on its first read.  The length is worked
    out once per value, a cons's when it is made.  A chain of conses is
    walked in a loop, never by recursion.
    """

    __slots__ = ("_table", "_head", "_tail", "_length")
    __hash__ = None

    def __init__(self, table: dict):
        self._table = table  # arg -> val, no EMPTY values; a cons's is None until read
        self._head = self._tail = None
        self._length = _UNMEASURED

    @classmethod
    def cons(cls, head: HfSet, tail: HfFn) -> HfFn:
        """The list with head at nat(0) and tail's entries one index up."""
        fn = cls.__new__(cls)
        fn._table, fn._head, fn._tail = None, head, tail
        # the keys are nat(0) and the successors of the tail's keys, and succ
        # is injective, never empty and makes a numeral of nat(i) alone, so
        # they are nat(0) .. nat(n) exactly when the tail's are nat(0) ..
        # nat(n - 1)
        n = tail.length()
        fn._length = None if n is None else n + 1
        return fn

    def __call__(self, x: HfSet) -> HfSet:
        fn = self
        while fn._table is None:
            n = x._nat if type(x) is HfSet else -1
            if n < 0:
                return fn.table.get(x, EMPTY)
            if n == 0:
                return fn._head
            x, fn = nat(n - 1), fn._tail
        return fn._table.get(x, EMPTY)

    @property
    def table(self) -> dict:
        """arg -> val, no EMPTY values.

        A chain of k conses over a table holds its heads at nat(0) ..
        nat(k - 1), and each entry of that table at its key's k-th successor.
        """
        if self._table is None:
            heads, fn = [], self
            while fn._table is None:
                heads.append(fn._head)
                fn = fn._tail
            table = {nat(i): head for i, head in enumerate(heads)}
            for key, value in fn._table.items():
                for _ in heads:
                    key = succ(key)
                table[key] = value
            self._table = table
        return self._table

    def length(self):
        """n when the keys of the table are nat(0) .. nat(n - 1), else None."""
        if self._length is _UNMEASURED:
            self._length = _list_length(self._table)
        return self._length

    def __eq__(self, other):
        if isinstance(other, HfFn):
            return self.table == other.table
        return NotImplemented

    def __repr__(self):
        return f"HfFn(table={self.table!r})"


def hffn(mapping) -> HfFn:
    return HfFn({k: v for k, v in mapping.items() if v is not EMPTY})


def _list_length(table):
    """n when the keys of table are nat(0) .. nat(n - 1), else None."""
    n = len(table)
    # n distinct numerals below n are the members of nat(n)
    return n if all(0 <= k._nat < n for k in table) else None


def mk_hflist(entries) -> HfFn:
    return hffn({nat(i): hfset(e) for i, e in enumerate(entries)})


class _Omega:
    """Stand-in for the set of natural numbers; only membership is decided."""

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


# ---------------------------------------------------------------------------
# Native constant meanings


# Arithmetic and power build no set of more members than this: nat(n) and
# the numerals below it, all kept memoized, hold about n * n / 2 members.
NUMERAL_BOUND = 2048


def _bounded(size: int, what: str = "ordinal arithmetic") -> int:
    """size, when a set of that many members may be built."""
    if size > NUMERAL_BOUND:
        raise Unsupported(f"{what} past the numeral bound {NUMERAL_BOUND}")
    return size


def _value(x) -> int:
    """The integer the numeral x stands for, recorded when x was interned.

    A set that is no numeral walks its pred chain instead, which raises at
    the first set in it that is no successor.
    """
    while x._nat < 0:
        x = pred(x)
    return x._nat


# Each operation reads b's value before a's, so an error in b is the one
# reported, and reads a's only when the result depends on it.
def _ord_add(a, b):
    n = _value(b)
    if n == 0:
        return a
    size = _bounded(len(a.elems) + n)
    if a._nat >= 0:
        return nat(size)
    for _ in range(n):  # a set that is no numeral gains a member per step
        a = succ(a)
    return a


def _ord_mult(a, b):
    n = _value(b)
    return nat(_bounded(_value(a) * n)) if n else EMPTY


def _ord_exp(a, b):
    n = _value(b)
    return nat(_bounded(_value(a) ** n)) if n else nat(1)


def _ord_sub(a, b):
    while b is not EMPTY and a is not EMPTY:
        a, b = pred(a), pred(b)
    return a


def _ordsucc(x):
    if isinstance(x, _Omega):
        raise Unsupported("successor of omega")
    return succ(x)


def _powerset(x: HfSet) -> HfSet:
    if isinstance(x, _Omega):
        raise Unsupported("power set of omega")
    elems = list(x.elems)
    subsets = []
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            subsets.append(HfSet(combo))
    return HfSet(subsets)


def _mem(a, b) -> bool:
    if isinstance(b, _Omega):
        return isinstance(a, HfSet) and is_nat(a) is not None
    if not isinstance(b, HfSet):
        raise Unsupported(f"membership in non-set {b!r}")
    return a in b


def _subq(a, b) -> bool:
    if isinstance(a, _Omega):
        raise Unsupported("omega on the left of subset")
    if isinstance(b, _Omega):
        if not all(type(e) is HfSet for e in a.elems):
            raise Unsupported(_HOLDS_OMEGA)
        return all(is_nat(e) is not None for e in a.elems)
    return a.elems <= b.elems


def _apply(fn, arg):
    if callable(fn):  # closures and HfFn tables alike
        return fn(arg)
    raise Unsupported(f"applied non-function {fn!r}")


_OUT_OF_FUEL = "evaluation fuel exhausted"


class Evaluator:
    """Values of host terms in the HF universe, computed by compiled closures.

    A term is compiled once into nested Python closures (Feeley and
    Lapalme, "Using closures for code generation", Computer Languages
    12(1), 1987) and the closures then run on each assignment.  Each node's
    closure is picked by the node's type at compile time, and each bound
    variable becomes a slot in a tuple of values; when a name is bound
    twice, the innermost binder wins.  Errors are raised when the closures
    run, never while compiling.

    Fuel is charged as a walk of the term would charge it: one unit per
    node visited, a full application of a connective, =, a quantifier or a
    set primitive counting as one, per separation member, per quantified value
    and per entry of a function tabulated as a list, and four per native
    ordinal operation.  A node whose first act is to evaluate a child passes
    its unit down to that child (owed), so charges with nothing observable
    between them are paid at once.
    """

    def __init__(self, interp=None, fuel: int = DEFAULT_FUEL):
        self.fuel = fuel
        self.interp = dict(self._native())
        if interp:
            self.interp.update(interp)
        self._defn_cache: dict = {}
        self.defn_fuel = 0  # fuel spent expanding catalog definitions
        # while a claim's body compiles (see _compile_claim): its binder
        # names, their epochs, and the scope depth and binder level at which
        # the code being compiled runs; claim_names is None otherwise
        self.claim_names = None
        self.epochs = self.stage = None

    # -- constant table ----------------------------------------------------

    def _native(self):
        """The constants the oracle computes itself, by name.

        cons @ X @ L tabulates a closure L, and charges its fuel, at once;
        the list it makes keeps L as its tail (HfFn.cons).  len reads the
        length each list works out once.
        """

        def untag(x):
            if isinstance(x, HfSet) and len(x) == 1:
                (elem,) = x.elems
                return elem
            return EMPTY

        def cons(x):
            head = hfset(x)

            def with_tail(l):
                return HfFn.cons(head, self.to_list_fn(l))

            return with_tail

        def len_of(l):
            fn = self.to_list_fn(l)
            n = fn.length()
            if n is not None:
                return nat(n)
            return HfSet(k for k in fn.table if k._nat >= 0)

        def listset(l):
            fn = self.to_list_fn(l)
            return HfSet(pair(k, v) for k, v in fn.table.items())

        def power(x):
            if isinstance(x, HfSet):
                _bounded(2 ** len(x.elems), "power set")
            return _powerset(x)

        def ordinal(op):
            def curried(a):
                def applied(b):
                    self.fuel -= 4
                    if self.fuel < 0:
                        raise OutOfFuel(_OUT_OF_FUEL)
                    if isinstance(a, _Omega) or isinstance(b, _Omega):
                        raise Unsupported("ordinal arithmetic on omega")
                    return op(a, b)

                return applied

            return curried

        return {
            TRUE.name: True,
            FALSE.name: False,
            "emptyset": EMPTY,
            "in": lambda a: lambda b: _mem(a, b),
            "subq": lambda a: lambda b: _subq(a, b),
            "power": power,
            "ite": lambda c: lambda t: lambda e: t if c else e,
            "ordsucc": _ordsucc,
            "omega": OMEGA,
            "nat_p": lambda x: isinstance(x, HfSet) and is_nat(x) is not None,
            **{f"ord{k}": nat(k) for k in range(11)},
            "ord_add": ordinal(_ord_add),
            "ord_mult": ordinal(_ord_mult),
            "ord_exp": ordinal(_ord_exp),
            "ord_sub": ordinal(_ord_sub),
            "tag": lambda x: hfset(x),
            "untag": untag,
            "nil": HfFn({}),
            "cons": cons,
            "len": len_of,
            "listset": listset,
            "istrue": lambda x: _mem(EMPTY, x),
            "boolset": lambda p: nat(1) if p else nat(0),
        }

    def use_fuel(self, n: int = 1):
        self.fuel -= n
        if self.fuel < 0:
            raise OutOfFuel(_OUT_OF_FUEL)

    def to_list_fn(self, value) -> HfFn:
        if isinstance(value, HfFn):
            return value
        if callable(value):
            table = {}
            for i in range(HORIZON + 1):
                self.use_fuel()
                table[nat(i)] = value(nat(i))
            return hffn(table)
        raise Unsupported(f"not a list value: {value!r}")

    # -- evaluation --------------------------------------------------------

    def const_value(self, name: str):
        """The value of a catalog definition, expanded on first use.

        A constant of interp never reaches here: _compile_const reads it.
        """
        if name in self._defn_cache:
            return self._defn_cache[name]
        defn = CATALOG.defn_of(name) if name in CATALOG else None
        if defn is None:
            raise UninterpretedConstant(f"uninterpreted constant {name}")
        spent, fuel = self.defn_fuel, self.fuel
        value = self.eval(defn, {})
        self._defn_cache[name] = value
        # what nested expansions spent is part of this one
        self.defn_fuel = spent + fuel - self.fuel
        return value

    def eval(self, t, env):
        """The value of t with the names of env bound to its values.

        t is compiled against env's names and run once.
        """
        return _compile(self, t, tuple(env))(tuple(env.values()))

    def members(self, value):
        if isinstance(value, _Omega):
            return [nat(i) for i in range(HORIZON + 1)]
        if isinstance(value, HfSet):
            return list(value)
        raise Unsupported(f"iterating non-set {value!r}")

    def values_equal(self, a, b) -> bool:
        if isinstance(a, HfSet) and isinstance(b, HfSet):
            return a is b
        if isinstance(a, bool) and isinstance(b, bool):
            return a == b
        if isinstance(a, (HfFn,)) or callable(a) or isinstance(b, (HfFn,)) or callable(b):
            fa = self.to_list_fn(a)
            fb = self.to_list_fn(b)
            return fa == fb
        raise Unsupported(f"cannot compare {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# Compiling terms to closures
#
# Each function below takes the evaluator, a term of its type, the names in
# scope and the fuel owed, and returns a closure over a tuple of values.


def _compile(ev, t, scope: tuple, owed: int = 0):
    """A closure from a tuple of values for the names in scope to t's value.

    owed is fuel charged by enclosing nodes that have done nothing since;
    the closure pays it with the charge for t itself.

    While a claim's body compiles (see _compile_claim), t is staged.  Its
    level is the slot of the last claim binder it reads.  When the code
    around t runs more often than that, once per value of a later claim
    binder or of a binder inside the claim, t's closure keeps its value
    until a claim binder up to its level changes.
    """
    if ev.claim_names is None:
        return _compiler(t)(ev, t, scope, owed)
    k = len(ev.claim_names)
    outer = ev.stage
    depth, ceiling = outer
    if len(scope) > depth:
        ceiling = k  # under a binder of its own, the code runs once per value
    if ceiling < 0 or type(t) in _LEAVES:
        return _compiler(t)(ev, t, scope, owed)
    level = _binder_level(t, scope, k)
    hoist = level is not None and level < ceiling
    if hoist:
        ev.stage = (len(scope), level)
    compiler = _compiler(t)
    if compiler is _compile_app:
        run = _compile_app(ev, t, scope, owed, _spine_split(t, scope, k, level))
    else:
        run = compiler(ev, t, scope, owed)
    ev.stage = outer
    return _reused(ev, run, level) if hoist else run


def _compiler(t):
    """The compiler of t's node, a primitive's own for its full application."""
    if type(t) is App:
        return _primitive(t) or _compile_app
    return _COMPILERS.get(type(t), _compile_unknown)


# nodes whose evaluation costs no more than reusing a kept value would
_LEAVES = (Var, Const)


def _slot(scope, name):
    """The index of name's innermost binding in scope, None when unbound."""
    if name not in scope:
        return None
    return len(scope) - 1 - scope[::-1].index(name)


def _binder_level(t, scope, k):
    """The slot of the last claim binder t reads, -1 when it reads none.

    The claim binders are the first k names of scope.  None when t reads a
    name bound inside the claim, or one bound nowhere.
    """
    level = -1
    for name, _ty in free_vars(t):
        slot = _slot(scope, name)
        if slot is None or slot >= k:
            return None
        level = max(level, slot)
    return level


def _spine_split(t, scope, k, level):
    """The longest proper prefix h @ a1 @ ... @ ai of the spine t that reads
    only claim binders before level (any claim binders, when level is None),
    or None."""
    prefix = t.fn
    while type(prefix) is App:
        at = _binder_level(prefix, scope, k)
        if at is not None and (level is None or at < level):
            return prefix
        prefix = prefix.fn
    return None


def _reused(ev, run, level):
    """run, keeping its value while the epoch of the binder at level stands.

    A reuse charges the fuel the evaluation spent, less what expanding
    catalog definitions cost it, which is paid once per evaluator; so fuel
    runs out on the same assignment as if run ran again.
    """
    epochs = ev.epochs
    stamp = value = spent = None

    def reuse(env):
        nonlocal stamp, value, spent
        if stamp == epochs[level]:
            ev.fuel -= spent
            if ev.fuel < 0:
                raise OutOfFuel(_OUT_OF_FUEL)
            return value
        fuel, expanding = ev.fuel, ev.defn_fuel
        value = run(env)
        spent = fuel - ev.fuel - (ev.defn_fuel - expanding)
        stamp = epochs[level]
        return value

    return reuse


def _compile_claim(ev, body, names: tuple):
    """The closure for a claim's body over its binders, staged by level.

    Returns the closure and the epochs it reads: one counter per binder,
    which the caller moves for each binder whose value, or an earlier
    binder's, changed, and a last one for closed subterms that never moves.
    """
    k = len(names)
    ev.claim_names, ev.epochs, ev.stage = names, [0] * (k + 1), (k, k - 1)
    try:
        return _compile(ev, body, names), ev.epochs
    finally:
        ev.claim_names = None


def _charged(ev, n: int, value):
    def run(env):
        ev.fuel -= n
        if ev.fuel < 0:
            raise OutOfFuel(_OUT_OF_FUEL)
        return value

    return run


def _failing(ev, n: int, text: str):
    def run(env):
        ev.use_fuel(n)
        raise Unsupported(text)

    return run


def _compile_unknown(ev, t, scope, owed):
    return _failing(ev, owed + 1, f"cannot evaluate {t!r}")


def _compile_var(ev, t, scope, owed):
    n, slot = owed + 1, _slot(scope, t.name)
    if slot is None:
        return _failing(ev, n, f"unbound variable {t.name}")

    def var(env):
        ev.fuel -= n
        if ev.fuel < 0:
            raise OutOfFuel(_OUT_OF_FUEL)
        return env[slot]

    return var


def _compile_const(ev, t, scope, owed):
    n, name = owed + 1, t.name
    if name in ev.interp:
        return _charged(ev, n, ev.interp[name])
    # catalog definitions expand, and unknown names fail, on first use
    const_value = ev.const_value

    def const(env):
        ev.fuel -= n
        if ev.fuel < 0:
            raise OutOfFuel(_OUT_OF_FUEL)
        return const_value(name)

    return const


def _compile_app(ev, t, scope, owed, stop=None):
    # the spine h @ a1 @ ... @ an charges n + 1 before evaluating any ai; a
    # prefix stop of the spine is a head of its own, and owes the charges of
    # the applications around it
    args = []
    while type(t) is App and t is not stop:
        args.append(t.arg)
        t = t.fn
    args.reverse()
    owed += len(args)
    fn = ev.interp.get(t.name) if type(t) is Const else None
    if callable(fn):
        # a known function is fetched with no effect, so the first argument
        # pays its charges, and applying it needs no check
        head = None
        args = [_compile(ev, a, scope, owed + 1 if i == 0 else 0) for i, a in enumerate(args)]
    else:
        head = _compile(ev, t, scope, owed)
        args = [_compile(ev, a, scope) for a in args]
    if len(args) == 1:
        (arg,) = args
        if head is None:
            return lambda env: fn(arg(env))
        return lambda env: _apply(head(env), arg(env))
    if len(args) == 2:
        first, second = args
        if head is None:
            return lambda env: _apply(fn(first(env)), second(env))
        return lambda env: _apply(_apply(head(env), first(env)), second(env))

    def app(env):
        value = fn if head is None else head(env)
        for arg in args:
            value = _apply(value, arg(env))
        return value

    return app


def _compile_lam(ev, t, scope, owed):
    n = owed + 1
    body = _compile(ev, t.body, scope + (t.name,))

    def lam(env):
        ev.fuel -= n
        if ev.fuel < 0:
            raise OutOfFuel(_OUT_OF_FUEL)
        return lambda v: body(env + (v,))

    return lam


def _compile_neg(ev, t, scope, owed):
    body = _compile(ev, t.arg, scope, owed + 1)
    return lambda env: not body(env)


def _binary(combine):
    """The compiler of a primitive of two operands: combine of their closures."""

    def compile_binary(ev, t, scope, owed):
        return combine(_compile(ev, t.fn.arg, scope, owed + 1), _compile(ev, t.arg, scope))

    return compile_binary


_compile_imp = _binary(lambda ante, cons: lambda env: (not ante(env)) or cons(env))
_compile_conj = _binary(lambda left, right: lambda env: left(env) and right(env))
_compile_disj = _binary(lambda left, right: lambda env: left(env) or right(env))
_compile_iff = _binary(lambda left, right: lambda env: left(env) == right(env))
_compile_subq = _binary(lambda sub, sup: lambda env: _subq(sub(env), sup(env)))


def _compile_eq(ev, t, scope, owed):
    left, right = _compile(ev, t.fn.arg, scope, owed + 1), _compile(ev, t.arg, scope)
    values_equal = ev.values_equal

    def eq(env):
        a, b = left(env), right(env)
        if type(a) is HfSet and type(b) is HfSet:
            return a is b
        return values_equal(a, b)

    return eq


def _compile_mem(ev, t, scope, owed):
    elem, container = _compile(ev, t.fn.arg, scope, owed + 1), _compile(ev, t.arg, scope)

    def mem(env):
        a, b = elem(env), container(env)
        return a in b.elems if type(b) is HfSet else _mem(a, b)

    return mem


def _compile_ite(ev, t, scope, owed):
    cond = _compile(ev, t.fn.fn.arg, scope, owed + 1)
    then, other = _compile(ev, t.fn.arg, scope), _compile(ev, t.arg, scope)
    return lambda env: then(env) if cond(env) else other(env)


def _compile_sep(ev, t, scope, owed):
    bound, pred = _compile(ev, t.fn.arg, scope, owed + 1), t.arg
    body = _compile(ev, pred.body, scope + (pred.name,), 1)  # a unit per member
    members = ev.members
    return lambda env: HfSet([item for item in members(bound(env)) if body(env + (item,))])


def _compile_quantifier(ev, t, scope, owed):
    lam, n = t.arg, owed + 1
    universal = t.fn.name == FORALL
    if lam.ty == OMICRON:
        body, values = lam.body, _charged(ev, n, (False, True))
    elif lam.ty == IOTA:
        bounded = _membership_bound(lam, universal)
        if bounded is None:
            return _failing(ev, n, "individual quantifier without a membership bound")
        container, body = bounded
        bound, members = _compile(ev, container, scope, n), ev.members

        def values(env):
            return members(bound(env))

    else:
        return _failing(ev, n, "quantification at function type")
    body = _compile(ev, body, scope + (lam.name,), 1)  # a unit per value

    if universal:

        def forall(env):
            for value in values(env):
                if not body(env + (value,)):
                    return False
            return True

        return forall

    def exists(env):
        for value in values(env):
            if body(env + (value,)):
                return True
        return False

    return exists


# head name -> (operands, what an application whose last operand is no Lam
# fails with, or None when any term will do, compiler)
_PRIMITIVES = {
    NEG.name: (1, None, _compile_neg),
    CONJ.name: (2, None, _compile_conj),
    DISJ.name: (2, None, _compile_disj),
    IMP.name: (2, None, _compile_imp),
    IFF.name: (2, None, _compile_iff),
    EQUALS.name: (2, None, _compile_eq),
    "in": (2, None, _compile_mem),
    "subq": (2, None, _compile_subq),
    "ite": (3, None, _compile_ite),
    SEP.name: (2, "separation over a predicate that is no lambda", _compile_sep),
    FORALL: (1, "quantification over a predicate that is no lambda", _compile_quantifier),
    EXISTS: (1, "quantification over a predicate that is no lambda", _compile_quantifier),
}


def _primitive(t):
    """The compiler of the application t if it is a full application of a
    primitive (_PRIMITIVES), else None: a connective, =, in, subq or ite, or
    sep to a set and a predicate, or a quantifier to a predicate.

    Such an application compiles as a node of its own: one unit of fuel,
    charged with its first argument, and staging never splits its spine.
    A connective evaluates its operands left to right, and only as far as
    they decide its value.  Only a Lam is evaluated as a predicate; any
    other term there fails, when run, after its unit.
    """
    head, n = t.fn, 1
    while type(head) is App:
        head, n = head.fn, n + 1
    entry = _PRIMITIVES.get(head.name) if type(head) is Const else None
    if entry is None or entry[0] != n:
        return None
    unsupported = entry[1]
    if unsupported is not None and type(t.arg) is not Lam:
        return lambda ev, t, scope, owed: _failing(ev, owed + 1, unsupported)
    return entry[2]


def _membership_bound(lam, universal: bool):
    """(S, phi) for forall X. X in S => phi, or exists X. X in S & phi, S closed."""
    body = lam.body
    connective = _compile_imp if universal else _compile_conj
    if type(body) is not App or _primitive(body) is not connective:
        return None
    guard, rest = body.fn.arg, body.arg
    if type(guard) is not App or _primitive(guard) is not _compile_mem:
        return None
    elem, container = guard.fn.arg, guard.arg
    if (
        type(elem) is Var
        and elem.name == lam.name
        and all(name != lam.name for name, _ in free_vars(container))
    ):
        return container, rest
    return None


_COMPILERS = {
    Var: _compile_var,
    Const: _compile_const,
    Lam: _compile_lam,
}


# ---------------------------------------------------------------------------
# Generator universes


def sets_of_rank(max_rank: int) -> list:
    """All HF sets of rank at most max_rank, by canonical key."""
    universe = EMPTY
    for _ in range(max_rank + 1):
        universe = _powerset(universe)
    return list(universe)


def hf_lists(max_len: int, entry_rank: int) -> list:
    entries = sets_of_rank(entry_rank)
    out = []
    for n in range(max_len + 1):
        for combo in itertools.product(entries, repeat=n):
            out.append(mk_hflist(combo))
    return out


# The finite domains a claim's binders range over, by sort: the sets of
# rank at most SET_RANK, the lists of at most LIST_LEN entries of rank at
# most LIST_ENTRY_RANK, and the first NAT_BOUND naturals.
SET_RANK, LIST_LEN, LIST_ENTRY_RANK, NAT_BOUND = 3, 4, 2, 4


@functools.cache
def generators(sort: str) -> tuple:
    """The domain of a binder of this sort, built once per process.

    Its values are interned sets and lists that hold their tables, both
    immutable by contract, so every claim can share the one tuple.
    """
    if sort == "set":
        return tuple(sets_of_rank(SET_RANK))
    if sort == "list":
        return tuple(hf_lists(LIST_LEN, LIST_ENTRY_RANK))
    if sort == "nat":
        return tuple(nat(i) for i in range(NAT_BOUND))
    if sort == "bool":
        return (False, True)
    raise Unsupported(f"unknown generator sort {sort!r}")


_SORT_TYPES = {
    "set": IOTA,
    "nat": IOTA,
    "list": Arrow(IOTA, IOTA),
    "bool": OMICRON,
}


# ---------------------------------------------------------------------------
# Stubs for the abstract signature functions


def _stub_fixed_arity():
    return {
        "vararity": lambda r: False,
        "arity": lambda r: nat(2),
        "domseq": lambda r: lambda i: hfset(i),
    }


STUBS = {"fixed_arity": _stub_fixed_arity}


# ---------------------------------------------------------------------------
# Lemma files


@dataclass
class Claim:
    index: int  # 1-based position among claims
    line: int
    text: str
    binders: list  # (name, sort)
    body: object
    stub: str | None


@dataclass
class ClaimResult:
    claim: Claim
    ok: bool
    checked: int
    counterexample: str | None = None
    error: str | None = None


class LemmaSyntaxError(OracleError):
    pass


_TOO_DEEP = "formulas nested too deeply"

# a claim may spell every catalog constant, sep too, which catalog.p declares
# but the catalog leaves out of its constants
_CLAIM_CONSTS = {**CATALOG.consts, SEP.name: SEP}


def parse_lemmas(text: str, file: str = "<lemmas>") -> list:
    """Claims from a lemma file: one formula per line, # comments, pragmas.

    A line "!stub NAME" switches the signature stub installed for all later
    claims; binder sorts are set, list, nat, and bool.
    """
    claims = []
    stub = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!stub"):
            name = line[len("!stub") :].strip()
            if name == "none":
                stub = None
            elif name in STUBS:
                stub = name
            else:
                raise LemmaSyntaxError(f"{file}:{lineno}: unknown stub {name!r}")
            continue
        try:
            binders, body = _parse_claim(line)
        except Th0Error as err:
            raise LemmaSyntaxError(f"{file}:{lineno}: {err}") from err
        except RecursionError:
            raise LemmaSyntaxError(f"{file}:{lineno}: {_TOO_DEEP}") from None
        claims.append(Claim(len(claims) + 1, lineno, line, binders, body, stub))
    return claims


def _parse_claim(line: str):
    parser = _Parser(line)
    binders = []
    if parser.peek() == "!":
        parser.next()
        parser.expect("[")
        while True:
            name = parser.expect_word()
            parser.expect(":")
            sort = parser.expect_word()
            if sort not in _SORT_TYPES:
                raise Th0Error(f"unknown sort {sort!r}")
            binders.append((name, sort))
            tok = parser.next()
            if tok == "]":
                break
            if tok != ",":
                raise Th0Error(f"expected , or ] in binder list, found {tok!r}")
        parser.expect(":")
    env = {name: Var(name, _SORT_TYPES[sort]) for name, sort in binders}
    body = parser.parse_formula(env, _CLAIM_CONSTS)
    if parser.peek():
        raise parser.error(f"trailing input {parser.peek()!r}", parser.i)
    return binders, body


def check_claim(claim: Claim, fuel: int = DEFAULT_FUEL) -> ClaimResult:
    """Evaluate the claim over all generator assignments for its sorts.

    The assignments run in the order of the binders' domains, the last
    binder's fastest, one loop per binder (_first_failure); the first one
    on which the body is false is the counterexample.
    """
    interp = STUBS[claim.stub]() if claim.stub else None
    ev = Evaluator(interp=interp, fuel=fuel)
    domains = [generators(sort) for _, sort in claim.binders]
    names = tuple(name for name, _ in claim.binders)
    checked = [0]
    try:
        body, epochs = _compile_claim(ev, claim.body, names)
        if domains:
            last = [_UNASSIGNED] * len(domains)
            values = _first_failure(body, domains, epochs, last, (), checked)
        else:
            checked[0] = 1
            values = None if body(()) else ()
        if values is not None:
            return ClaimResult(
                claim,
                ok=False,
                checked=checked[0],
                counterexample=_describe_env(names, values),
            )
    except OracleError as err:
        return ClaimResult(claim, ok=False, checked=checked[0], error=str(err))
    except RecursionError:
        return ClaimResult(claim, ok=False, checked=checked[0], error=_TOO_DEEP)
    return ClaimResult(claim, ok=True, checked=checked[0])


_UNASSIGNED = object()  # the value of a binder before its loop first runs


def _first_failure(body, domains, epochs, last, env, checked):
    """The first assignment extending env on which body is false, or None.

    One loop per binder after env's, each over its domain in order, the
    innermost calling body.  A binder's epoch moves when its value is
    another object than the one before, last holding each binder's latest;
    a new value of an outer binder moves every later binder's epoch too,
    as the subterms kept at their levels read it.  A domain may repeat an
    object, which moves no epoch.  checked[0] counts the assignments run,
    the one that raised among them.
    """
    i = len(env)
    domain, prev = domains[i], last[i]
    if i + 1 < len(domains):
        for value in domain:
            if value is not prev:
                prev = last[i] = value
                for j in range(i, len(domains)):
                    epochs[j] += 1
            values = _first_failure(body, domains, epochs, last, env + (value,), checked)
            if values is not None:
                return values
        return None
    n = 0
    try:
        for value in domain:
            n += 1
            if value is not prev:
                prev = last[i] = value
                epochs[i] += 1
            values = env + (value,)
            if not body(values):
                return values
    finally:
        checked[0] += n
    return None


def _describe_env(names, values) -> str:
    parts = []
    for name, value in zip(names, values):
        parts.append(f"{name} = {describe_value(value)}")
    return ", ".join(parts)


def describe_value(value) -> str:
    if isinstance(value, HfSet):
        return describe_set(value)
    if isinstance(value, HfFn):
        table, n = value.table, value.length()
        if n is not None:
            entries = []
            for i in range(n):
                v = table[nat(i)]
                entries.append(repr(next(iter(v.elems)) if len(v) == 1 else v))
            return "[" + ", ".join(entries) + "]"
        return "fn" + repr(sorted((repr(k), repr(v)) for k, v in table.items()))
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def run_lemma_file(path: str, fuel: int = DEFAULT_FUEL) -> list:
    claims = parse_lemmas(read_text(path), path)
    return [check_claim(c, fuel=fuel) for c in claims]


def format_results(results) -> str:
    lines = []
    for r in results:
        if r.error:
            status = f"ERROR {r.error}"
        elif r.ok:
            status = f"ok ({r.checked} assignments)"
        elif r.counterexample:
            status = f"FAIL at {r.counterexample}"
        else:  # a claim with no binders has no assignment to name
            status = "FAIL"
        lines.append(f"claim {r.claim.index} (line {r.claim.line}): {status}")
    bad = sum(1 for r in results if not r.ok)
    lines.append(
        f"{len(results) - bad}/{len(results)} claims hold" if results else "no claims"
    )
    return "\n".join(lines)
