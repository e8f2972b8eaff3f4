"""Flat KIF that becomes deep THF: each job ends in a clean problem or a located error.

An argument spine and a numeral are flat in KIF but right-nested chains in
THF, and a declared argument index becomes a relation's arity, so the
relation facts of a wide relation nest as deep.  Each shape is taken through
translate_query_job, problem_text and a check with an empty memo, at sizes
on both sides of the bound sumo states for it and of the sizes where check,
or the interpreter's stack, gave way before there was one.
"""

import pytest

from sumok2set import cli, signature, sumo, th0, translate


def _wide_atom(n):
    return "", "(query (p " + " ".join(f"A{i}" for i in range(n)) + "))\n"


def _long_numeral(n):
    return "", "(query (equal ?X " + "7" * n + "))\n"


def _wide_domain(n):
    kb = f"(instance p Predicate)\n(domain p {n} Entity)\n(p a)\n"
    return kb, "(query (p ?X))\n"


# each shape's maker, the bound it meets and the error past it, and the sizes
# tried: up to the bound, past it, and where the job once failed unlocated
SHAPES = {
    "wide-atom": (_wide_atom, sumo.MAX_ARGUMENTS, sumo.TooManyArguments, (150, 450, 500, 1000)),
    "long-numeral": (_long_numeral, sumo.MAX_DIGITS, sumo.BadNumeral, (50, 325, 350)),
    "wide-domain": (
        _wide_domain, sumo.MAX_ARGUMENTS, signature.NonGroundDeclaration, (150, 500, 900, 1200)
    ),
}
CASES = [
    (shape, n)
    for shape, (_make, bound, _error, sizes) in SHAPES.items()
    for n in sorted({*sizes, bound, bound + 1})
]


def _outcome(tmp_path, make, n):
    """The job's INPUT_ERRORS error, or the diagnostics of its problem."""
    kb_text, query_text = make(n)
    kb = tmp_path / "kb.kif"
    kb.write_text(kb_text)
    query = tmp_path / "query.kif"
    query.write_text(query_text)
    try:
        problem, _skips, _tr = translate.translate_query_job([str(kb)], str(query))
        text = th0.problem_text(problem, reproducible=True)
    except cli.INPUT_ERRORS as err:
        return err
    return th0.check_text(text)


@pytest.mark.parametrize("shape, n", CASES, ids=[f"{s}-{n}" for s, n in CASES])
def test_a_flat_shape_ends_clean_or_in_a_located_error(tmp_path, cold_memo, shape, n):
    make, bound, error, _sizes = SHAPES[shape]
    outcome = _outcome(tmp_path, make, n)
    if n <= bound:
        assert outcome == []
    else:
        assert type(outcome) is error
        where = cli._error_payload(outcome)
        assert where["file"] and where["line"] and where["col"], str(outcome)
