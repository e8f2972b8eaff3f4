"""Seeded inputs for the benchmark: synthetic KBs, renamed queries, numerals.

Everything here is plain text and integer arithmetic; nothing calls the
compiler, so the inputs do not depend on the code under measurement.  The
same seed gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import os
import random
import re

FRAGMENT = "merge_fragment.kif"
QUERY_SHAPES = ("tqg3.kif", "tqg11.kif", "tqg22alt4.kif", "tqg27.kif", "wordex.kif")
LEMMAS = "claims.lemmas"

# Acceptance criterion 3's planted wrong identity; the oracle must refute it.
WRONG_IDENTITY = "![X:set, R:list]: ((len @ (cons @ X @ R)) = (len @ R))\n"

# Symbols the compiler gives meaning to: connectives and quantifiers, the
# relations the lowering and the signature pass read, builtin and special
# classes, arithmetic, and the default skip heads.  Every other constant is
# renamed per copy, so copies share no relation, class or individual.
RESERVED = frozenset(
    """
    forall exists and or not => <=> equal instance subclass lessThan
    lessThanOrEqualTo KappaFn query domain domainSubclass range rangeSubclass
    subrelation VariableArityRelation Entity SetOrClass Abstract Class
    RealNumber NegativeRealNumber NonnegativeRealNumber AdditionFn
    SubtractionFn MultiplicationFn DivisionFn modalAttribute holdsDuring
    """.split()
)

_SYMBOL_RE = re.compile(r"(?<![?@\w-])[A-Za-z][A-Za-z0-9_-]*")

NUMERAL_MAX = 20


def fixture_text(fixtures_dir: str, name: str) -> str:
    with open(os.path.join(fixtures_dir, name), "r", encoding="utf-8") as fh:
        return fh.read()


def copy_suffix(i: int) -> str:
    return f"_{i}"


def rename(text: str, suffix: str) -> str:
    """Append suffix to every non-reserved constant; comments stay as they are."""
    out = []
    for line in text.splitlines(keepends=True):
        code, semi, comment = line.partition(";")
        code = _SYMBOL_RE.sub(
            lambda m: m.group() if m.group() in RESERVED else m.group() + suffix, code
        )
        out.append(code + semi + comment)
    return "".join(out)


def synthetic_kb(fragment: str, k: int) -> str:
    """k renamed copies of the fragment, copy 0 first."""
    return "".join(rename(fragment, copy_suffix(i)) for i in range(k))


def draw_queries(shapes: dict, k: int, n: int, rng: random.Random) -> list:
    """n (name, text) queries: a fixture shape renamed to a random copy."""
    names = sorted(shapes)
    out = []
    for j in range(n):
        shape = rng.choice(names)
        copy = rng.randrange(k)
        stem = os.path.splitext(shape)[0]
        out.append((f"q{j:03d}_{stem}_c{copy}", rename(shapes[shape], copy_suffix(copy))))
    return out


def draw_numerals(rng: random.Random) -> list:
    """(op, a, b, expected) identities with expected <= NUMERAL_MAX.

    The set has the same shape for every seed, one identity per op and
    target value, so its cost does not depend on the seed; the seed picks
    the operands.  b is None for encode_nat.
    """
    out = []
    for n in range(NUMERAL_MAX + 1):
        a = rng.randint(0, n)
        out.append(("ord_add", a, n - a, n))
        out.append(("encode_nat", n, None, n))
        b = rng.randint(0, NUMERAL_MAX - n)
        out.append(("ord_sub", n + b, b, n))
        pairs = [(a, n // a) for a in range(1, n + 1) if n % a == 0] or [(0, rng.randint(0, 10))]
        a, b = rng.choice(pairs)
        out.append(("ord_mult", a, b, a * b))
        pairs = [(a, b) for a in range(NUMERAL_MAX + 1) for b in range(5) if a**b == n]
        a, b = rng.choice(pairs)
        out.append(("ord_exp", a, b, a**b))
    return out


# The stub prover answers from the sha256 of the problem text: the first hex
# digit picks the outcome.  expected_outcome() is the same rule in Python.
STUB_SCRIPT = """#!/bin/sh
d=$(sha256sum "$1" | cut -c1)
case "$d" in
  0|1|2) echo "% SZS status Theorem for $1";;
  3|4|5) echo "% SZS status CounterSatisfiable for $1";;
  6|7|8) echo "% SZS status ResourceOut for $1";;
  9|a|b) echo "% no verdict";;
  *) echo "% SZS status Error for $1";;
esac
"""

_OUTCOME_BY_DIGIT = (
    ["Theorem"] * 3 + ["CounterSatisfiable"] * 3 + ["Timeout"] * 3 + ["GaveUp"] * 3 + ["Error"] * 4
)


def expected_outcome(problem_bytes: bytes) -> str:
    return _OUTCOME_BY_DIGIT[int(hashlib.sha256(problem_bytes).hexdigest()[0], 16)]


def write_stub_prover(path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(STUB_SCRIPT)
    os.chmod(path, 0o755)
    return path


def run_config(kb_path: str, query_paths: list, stub: str, out_dir: str, jobs: int) -> str:
    lines = [f"kb = {kb_path}"]
    lines += [f"query = {q}" for q in query_paths]
    lines += [
        f"out_dir = {out_dir}",
        "timeout = 10",
        f"jobs = {jobs}",
        f"prover.stub = {stub} {{file}}",
    ]
    return "\n".join(lines) + "\n"
