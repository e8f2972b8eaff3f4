"""Shared helpers for the test suite."""

import os

import pytest

from sumok2set import sexpr, signature, sumo, th0

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "sumok2set",
    "fixtures",
)


# a KappaFn nested in a KappaFn whose body mentions the outer variable
NESTED_KAPPA = (
    "(query (exists (?P) (instance Bob (KappaFn ?X (instance ?X (KappaFn ?Y (parent ?Y ?X)))))))\n"
)


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def lower_all(source, skip_heads=sumo.DEFAULT_SKIP_HEADS):
    return [sumo.lower(f, skip_heads) for f in sexpr.parse_forms(source)]


def lower_one(source):
    out = lower_all(source)
    assert len(out) == 1
    return out[0]


def formula_of(source):
    out = lower_one(source)
    assert isinstance(out, (sumo.Assertion, sumo.Query))
    return out.formula


def sig_from(source):
    assertions = [x for x in lower_all(source) if isinstance(x, sumo.Assertion)]
    return signature.close_vararity(signature.collect(assertions))


@pytest.fixture
def merge_sig():
    with open(fixture_path("merge_fragment.kif")) as fh:
        return sig_from(fh.read())


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo of verified records, in place of the process's own."""
    memo = th0.RecordMemo(th0.MEMO_BYTES)
    monkeypatch.setattr(th0, "CHECK_MEMO", memo)
    return memo
