"""Brute-force checking of identities over hereditarily finite sets.

Terms of the host language are evaluated in the universe of hereditarily
finite sets: individuals are HfSet values, list encodings are finite-support
functions defaulting to the empty set, booleans are Python booleans, and
higher types are closures.  Ordinal arithmetic recurses on the von Neumann
structure of its arguments rather than converting to machine integers, so a
comparison against int arithmetic is a genuinely independent check.

Sets are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): HfSet looks its elements up in a
process-wide weak table, so each distinct set is one object and equality is
identity.  The table holds its sets weakly and keeps nothing alive; only the
numerals up to the largest one requested stay memoized.  Arithmetic, equality,
is_nat, pred and list tables never build a set's key string, and arithmetic
loops instead of recursing, so numeral size is bounded neither by recursion
depth nor by key length.  Key strings are built only to print a set, and
then only up to DESCRIBE_LIMIT characters, and to order the members of a set
that is not a numeral.

Quantifiers are handled when bounded: forall over a membership guard whose
bound evaluates, forall over booleans, and the matching exists shapes.
Candidate identities are read from lemma files whose syntax mirrors the
rendered problem syntax, quantified over small generator universes.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

from .catalog import CATALOG
from .hostterm import (
    All,
    App,
    Arrow,
    Bot,
    Conj,
    Const,
    Disj,
    Eq,
    Ex,
    IOTA,
    Iff,
    Imp,
    Ite,
    Lam,
    Mem,
    Neg,
    OMICRON,
    Sep,
    Subq,
    Top,
    Var,
    free_vars,
)
from . import th0

DEFAULT_FUEL = 10**6
DEFAULT_HORIZON = 32


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

    __slots__ = ("elems", "_hash", "_nat", "_key", "__weakref__")

    def __new__(cls, elems=()):
        elems = frozenset(elems)
        self = _INTERNED.get(elems)
        if self is None:
            self = object.__new__(cls)
            self.elems = elems
            self._hash = hash(elems)
            self._nat = _numeral_value(elems)
            self._key = None
            _INTERNED[elems] = self
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
        """Elements in canonical key order."""
        if self._nat >= 0:
            # the key of nat(k + 1) sorts before that of nat(k)
            return map(nat, range(self._nat - 1, -1, -1))
        return iter(sorted(self.elems, key=HfSet.key))

    def __contains__(self, item):
        return item in self.elems

    def __repr__(self):
        return describe_set(self)


_INTERNED = weakref.WeakValueDictionary()  # frozenset of elements -> its HfSet


def _numeral_value(elems) -> int:
    """n when elems are the numerals below n, else -1.

    Interning makes numerals of distinct value distinct objects, so n
    distinct numerals below n are exactly nat(0) .. nat(n - 1).
    """
    n = len(elems)
    try:
        return n if all(0 <= e._nat < n for e in elems) else -1
    except AttributeError:  # a member that is not a set, such as omega
        return -1


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


EMPTY = HfSet()
_NATS = [EMPTY]  # memoized numerals, _NATS[n] is nat(n)


def hfset(*elems) -> HfSet:
    return HfSet(elems)


def nat(n: int) -> HfSet:
    while len(_NATS) <= n:
        top = _NATS[-1]
        _NATS.append(HfSet(top.elems | {top}))
    return _NATS[n]


def succ(x: HfSet) -> HfSet:
    """The ordinal successor x | {x}."""
    if x._nat >= 0:
        return nat(x._nat + 1)
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
    n = len(x.elems)
    for e in x.elems:
        if len(e.elems) + 1 == n and e.elems <= x.elems:
            return e
    raise OracleError(f"not a successor numeral: {x!r}")


def pair(a: HfSet, b: HfSet) -> HfSet:
    return hfset(hfset(a), hfset(a, b))


@dataclass(frozen=True)
class HfFn:
    """Finite-support function on HF sets, empty set off the support."""

    table: dict  # arg -> val, no EMPTY values

    def __call__(self, x: HfSet) -> HfSet:
        return self.table.get(x, EMPTY)


def hffn(mapping) -> HfFn:
    return HfFn({k: v for k, v in mapping.items() if v is not EMPTY})


def mk_hflist(entries) -> HfFn:
    return hffn({nat(i): hfset(e) for i, e in enumerate(entries)})


class _Omega:
    """Stand-in for the set of natural numbers; only membership is decided."""

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


# ---------------------------------------------------------------------------
# Native constant meanings


def _pred_chain(b) -> list:
    """pred(b), pred(pred(b)), ... down to the empty set.

    The whole chain is walked before any arithmetic, so a broken chain in
    b is reported before any error the other operand would raise.
    """
    chain = []
    while b is not EMPTY:
        b = pred(b)
        chain.append(b)
    return chain


def _ord_add(a, b):
    for _ in _pred_chain(b):
        a = succ(a)
    return a


def _ord_mult(a, b):
    out = EMPTY
    for _ in _pred_chain(b):
        out = _ord_add(out, a)
    return out


def _ord_exp(a, b):
    out = nat(1)
    for _ in _pred_chain(b):
        out = _ord_mult(out, a)
    return out


def _ord_sub(a, b):
    while b is not EMPTY and a is not EMPTY:
        a, b = pred(a), pred(b)
    return a


def _powerset(x: HfSet) -> HfSet:
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
        return all(is_nat(e) is not None for e in a.elems)
    return a.elems <= b.elems


class Evaluator:
    def __init__(self, interp=None, horizon: int = DEFAULT_HORIZON, fuel: int = DEFAULT_FUEL):
        self.horizon = horizon
        self.fuel = fuel
        self.interp = dict(self._native())
        if interp:
            self.interp.update(interp)
        self._defn_cache: dict = {}

    # -- constant table ----------------------------------------------------

    def _native(self):
        def untag(x):
            if isinstance(x, HfSet) and len(x) == 1:
                (elem,) = x.elems
                return elem
            return EMPTY

        def cons(x):
            def with_list(l):
                fn = self.to_list_fn(l)
                table = {nat(0): hfset(x)}
                for k, v in fn.table.items():
                    table[succ(k)] = v
                return hffn(table)

            return with_list

        def len_of(l):
            fn = self.to_list_fn(l)
            return HfSet(k for k in fn.table if is_nat(k) is not None)

        def listset(l):
            fn = self.to_list_fn(l)
            return HfSet(pair(k, v) for k, v in fn.table.items())

        return {
            "emptyset": EMPTY,
            "in": lambda a: lambda b: _mem(a, b),
            "subq": lambda a: lambda b: _subq(a, b),
            "power": _powerset,
            "ite": lambda c: lambda t: lambda e: t if c else e,
            "ordsucc": succ,
            "omega": OMEGA,
            "nat_p": lambda x: isinstance(x, HfSet) and is_nat(x) is not None,
            **{f"ord{k}": nat(k) for k in range(11)},
            "ord_add": lambda a: lambda b: self._spend(_ord_add)(a, b),
            "ord_mult": lambda a: lambda b: self._spend(_ord_mult)(a, b),
            "ord_exp": lambda a: lambda b: self._spend(_ord_exp)(a, b),
            "ord_sub": lambda a: lambda b: self._spend(_ord_sub)(a, b),
            "tag": lambda x: hfset(x),
            "untag": untag,
            "nil": HfFn({}),
            "cons": cons,
            "len": len_of,
            "listset": listset,
            "istrue": lambda x: _mem(EMPTY, x),
            "boolset": lambda p: nat(1) if p else nat(0),
        }

    def _spend(self, fn):
        def inner(*args):
            self.use_fuel(4)
            return fn(*args)

        return inner

    def use_fuel(self, n: int = 1):
        self.fuel -= n
        if self.fuel < 0:
            raise OutOfFuel("evaluation fuel exhausted")

    def to_list_fn(self, value) -> HfFn:
        if isinstance(value, HfFn):
            return value
        if callable(value):
            table = {}
            for i in range(self.horizon + 1):
                self.use_fuel()
                table[nat(i)] = value(nat(i))
            return hffn(table)
        raise Unsupported(f"not a list value: {value!r}")

    # -- evaluation --------------------------------------------------------

    def const_value(self, name: str):
        if name in self.interp:
            return self.interp[name]
        if name in self._defn_cache:
            return self._defn_cache[name]
        defn = CATALOG.defn_of(name) if name in CATALOG else None
        if defn is None:
            raise UninterpretedConstant(name)
        value = self.eval(defn, {})
        self._defn_cache[name] = value
        return value

    def eval(self, t, env):
        self.use_fuel()
        if isinstance(t, Var):
            if t.name not in env:
                raise Unsupported(f"unbound variable {t.name}")
            return env[t.name]
        if isinstance(t, Const):
            return self.const_value(t.name)
        if isinstance(t, App):
            fn = self.eval(t.fn, env)
            arg = self.eval(t.arg, env)
            return self.apply(fn, arg)
        if isinstance(t, Lam):
            return lambda v, _t=t, _env=env: self.eval(_t.body, {**_env, _t.name: v})
        if isinstance(t, Bot):
            return False
        if isinstance(t, Top):
            return True
        if isinstance(t, Neg):
            return not self.eval(t.body, env)
        if isinstance(t, Imp):
            return (not self.eval(t.ante, env)) or self.eval(t.cons, env)
        if isinstance(t, Conj):
            return self.eval(t.left, env) and self.eval(t.right, env)
        if isinstance(t, Disj):
            return self.eval(t.left, env) or self.eval(t.right, env)
        if isinstance(t, Iff):
            return self.eval(t.left, env) == self.eval(t.right, env)
        if isinstance(t, Eq):
            return self.values_equal(self.eval(t.left, env), self.eval(t.right, env))
        if isinstance(t, Mem):
            return _mem(self.eval(t.elem, env), self.eval(t.container, env))
        if isinstance(t, Subq):
            return _subq(self.eval(t.sub, env), self.eval(t.sup, env))
        if isinstance(t, Ite):
            if self.eval(t.cond, env):
                return self.eval(t.then, env)
            return self.eval(t.other, env)
        if isinstance(t, Sep):
            bound = self.eval(t.bound, env)
            kept = []
            for item in self.members(bound):
                self.use_fuel()
                if self.eval(t.body, {**env, t.name: item}):
                    kept.append(item)
            return HfSet(kept)
        if isinstance(t, All):
            return self.quantify(t, env, universal=True)
        if isinstance(t, Ex):
            return self.quantify(t, env, universal=False)
        raise Unsupported(f"cannot evaluate {t!r}")

    def apply(self, fn, arg):
        if isinstance(fn, HfFn):
            return fn(arg)
        if callable(fn):
            return fn(arg)
        raise Unsupported(f"applied non-function {fn!r}")

    def members(self, value):
        if isinstance(value, _Omega):
            return [nat(i) for i in range(self.horizon + 1)]
        if isinstance(value, HfSet):
            return list(value)
        raise Unsupported(f"iterating non-set {value!r}")

    def quantify(self, t, env, universal: bool):
        if t.ty == OMICRON:
            domain = [False, True]
            body = t.body
        elif t.ty == IOTA:
            body, domain = self._bounded_domain(t, env, universal)
        else:
            raise Unsupported("quantification at function type")
        for value in domain:
            self.use_fuel()
            result = self.eval(body, {**env, t.name: value})
            if universal and not result:
                return False
            if not universal and result:
                return True
        return universal

    def _bounded_domain(self, t, env, universal: bool):
        # forall X. X in S => phi, and exists X. X in S & phi, with S closed
        body = t.body
        if universal and isinstance(body, Imp):
            guard, rest = body.ante, body.cons
        elif not universal and isinstance(body, Conj):
            guard, rest = body.left, body.right
        else:
            raise Unsupported("individual quantifier without a membership bound")
        guard = self._as_mem(guard)
        if (
            guard is not None
            and isinstance(guard[0], Var)
            and guard[0].name == t.name
            and all(name != t.name for name, _ in free_vars(guard[1]))
        ):
            bound = self.eval(guard[1], env)
            return rest, self.members(bound)
        raise Unsupported("individual quantifier without a membership bound")

    @staticmethod
    def _as_mem(t):
        if isinstance(t, Mem):
            return t.elem, t.container
        if (
            isinstance(t, App)
            and isinstance(t.fn, App)
            and isinstance(t.fn.fn, Const)
            and t.fn.fn.name == "in"
        ):
            return t.fn.arg, t.arg
        return None

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
# Generator universes


def sets_of_rank(max_rank: int) -> list:
    """All HF sets of rank at most max_rank, by canonical key."""
    universe = [EMPTY]
    for _ in range(max_rank):
        elems = list(universe)
        universe = []
        for r in range(len(elems) + 1):
            for combo in itertools.combinations(elems, r):
                universe.append(HfSet(combo))
        universe.sort(key=HfSet.key)
    return universe


def hf_lists(max_len: int, entry_rank: int) -> list:
    entries = sets_of_rank(entry_rank)
    out = []
    for n in range(max_len + 1):
        for combo in itertools.product(entries, repeat=n):
            out.append(mk_hflist(combo))
    return out


GENERATOR_SORTS = ("set", "list", "nat", "bool")


def generators(sort: str, set_rank: int = 3, list_len: int = 4, list_entry_rank: int = 2, nat_bound: int = 4):
    if sort == "set":
        return sets_of_rank(set_rank)
    if sort == "list":
        return hf_lists(list_len, list_entry_rank)
    if sort == "nat":
        return [nat(i) for i in range(nat_bound)]
    if sort == "bool":
        return [False, True]
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
        except th0.Th0Error as err:
            raise LemmaSyntaxError(f"{file}:{lineno}: {err}") from err
        claims.append(Claim(len(claims) + 1, lineno, line, binders, body, stub))
    return claims


def _parse_claim(line: str):
    parser = th0._Parser(line)
    binders = []
    if parser.peek_kind() == "!":
        parser.next()
        parser.expect("[")
        while True:
            name, _ = parser.expect_word()
            parser.expect(":")
            sort, _ = parser.expect_word()
            if sort not in _SORT_TYPES:
                raise th0.Th0Error(f"unknown sort {sort!r}")
            binders.append((name, sort))
            kind, text, _ = parser.next()
            if kind == "]":
                break
            if kind != ",":
                raise th0.Th0Error(f"expected , or ] in binder list, found {text!r}")
        parser.expect(":")
    env = {name: _SORT_TYPES[sort] for name, sort in binders}
    decls = {name: CATALOG.type_of(name) for name in CATALOG.order}
    body = parser.parse_formula(env, decls)
    if parser.peek_kind() is not None:
        _, text, pos = parser.next()
        raise parser.error(f"trailing input {text!r}", pos)
    return binders, body


def check_claim(
    claim: Claim,
    horizon: int = DEFAULT_HORIZON,
    fuel: int = DEFAULT_FUEL,
    **generator_bounds,
) -> ClaimResult:
    """Evaluate the claim over all generator assignments for its sorts."""
    interp = STUBS[claim.stub]() if claim.stub else None
    ev = Evaluator(interp=interp, horizon=horizon, fuel=fuel)
    domains = [generators(sort, **generator_bounds) for _, sort in claim.binders]
    names = [name for name, _ in claim.binders]
    checked = 0
    try:
        for values in itertools.product(*domains):
            env = dict(zip(names, values))
            checked += 1
            if not ev.eval(claim.body, env):
                return ClaimResult(
                    claim,
                    ok=False,
                    checked=checked,
                    counterexample=_describe_env(names, values),
                )
    except OracleError as err:
        return ClaimResult(claim, ok=False, checked=checked, error=str(err))
    return ClaimResult(claim, ok=True, checked=checked)


def _describe_env(names, values) -> str:
    parts = []
    for name, value in zip(names, values):
        parts.append(f"{name} = {describe_value(value)}")
    return ", ".join(parts)


def describe_value(value) -> str:
    if isinstance(value, HfSet):
        return describe_set(value)
    if isinstance(value, HfFn):
        n = is_nat(HfSet(value.table))
        if n is not None:
            entries = []
            for i in range(n):
                v = value(nat(i))
                entries.append(repr(next(iter(v.elems)) if len(v) == 1 else v))
            return "[" + ", ".join(entries) + "]"
        return "fn" + repr(sorted((repr(k), repr(v)) for k, v in value.table.items()))
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def run_lemma_file(path: str, horizon: int = DEFAULT_HORIZON, fuel: int = DEFAULT_FUEL, **bounds) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    claims = parse_lemmas(text, path)
    return [check_claim(c, horizon=horizon, fuel=fuel, **bounds) for c in claims]


def format_results(results) -> str:
    lines = []
    for r in results:
        if r.error:
            status = f"ERROR {r.error}"
        elif r.ok:
            status = f"ok ({r.checked} assignments)"
        else:
            status = f"FAIL at {r.counterexample}"
        lines.append(f"claim {r.claim.index} (line {r.claim.line}): {status}")
    bad = sum(1 for r in results if not r.ok)
    lines.append(
        f"{len(results) - bad}/{len(results)} claims hold" if results else "no claims"
    )
    return "\n".join(lines)
