"""Reader tests.

The round-trip test uses a local printer as the independent check: a tree
printed and re-read must come back structurally identical.
"""

import hashlib
import os
import random

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES
from sumok2set import sexpr, sumo


def strip(node):
    if isinstance(node, sexpr.Atom):
        return (node.kind, node.lexeme)
    return tuple(strip(x) for x in node.items)


def show(node):
    if isinstance(node, sexpr.Atom):
        if node.kind == "variable":
            return "?" + node.lexeme
        if node.kind == "rowvariable":
            return "@" + node.lexeme
        if node.kind == "string":
            return '"' + node.lexeme + '"'
        return node.lexeme
    return "(" + " ".join(show(x) for x in node.items) + ")"


def test_atom_kinds():
    form = sexpr.parse_forms('(a ?X @ROW 3 -1.50 "hi there")')[0]
    kinds = [(it.kind, it.lexeme) for it in form.items]
    assert kinds == [
        ("constant", "a"),
        ("variable", "X"),
        ("rowvariable", "ROW"),
        ("numeral", "3"),
        ("numeral", "-1.50"),
        ("string", "hi there"),
    ]


def test_multiple_forms_and_comments():
    forms = sexpr.parse_forms("; leading comment\n(a b) ; trailing\n(c)\n")
    assert [strip(f) for f in forms] == [
        (("constant", "a"), ("constant", "b")),
        (("constant", "c"),),
    ]


def test_nested_lists():
    form = sexpr.parse_forms("(=> (p ?X) (q (f ?X)))")[0]
    assert strip(form) == (
        ("constant", "=>"),
        (("constant", "p"), ("variable", "X")),
        (
            ("constant", "q"),
            (("constant", "f"), ("variable", "X")),
        ),
    )


def test_spans_are_tracked():
    form = sexpr.parse_forms("(a\n  b)", file="f.kif")[0]
    assert form.span.file == "f.kif"
    assert form.span.line == 1
    b = form.items[1]
    assert b.span.line == 2


def test_unclosed_paren():
    with pytest.raises(sexpr.UnbalancedParens):
        sexpr.parse_forms("(a (b)")


def test_stray_close_paren():
    with pytest.raises(sexpr.UnbalancedParens):
        sexpr.parse_forms("(a))")


def test_bare_atom_at_top_level():
    forms = sexpr.parse_forms("atom")
    assert strip(forms[0]) == ("constant", "atom")


def test_empty_input():
    assert sexpr.parse_forms("") == []
    assert sexpr.parse_forms("; only a comment\n") == []


def test_unterminated_string():
    with pytest.raises(sexpr.KifSyntaxError):
        sexpr.parse_forms('(a "oops)')


def test_bad_variable_token():
    with pytest.raises(sexpr.BadToken):
        sexpr.parse_forms("(a ?)")


def test_lists_nested_past_the_bound_are_refused_at_their_open_paren():
    deepest = "(f " * sexpr.MAX_DEPTH + "a" + ")" * sexpr.MAX_DEPTH
    assert len(sexpr.parse_forms(deepest)) == 1
    source = "(p\n" + "(f " * sexpr.MAX_DEPTH + "a" + ")" * (sexpr.MAX_DEPTH + 1)
    with pytest.raises(sexpr.KifSyntaxError) as err:
        sexpr.parse_forms(source, file="deep.kif")
    assert str(err.value) == f"deep.kif:2:{3 * sexpr.MAX_DEPTH - 2}: lists nested deeper than 64"


atom_st = st.one_of(
    st.from_regex(r"[a-zA-Z][a-zA-Z0-9_-]{0,6}", fullmatch=True).map(
        lambda s: sexpr.Atom(s, "constant", None)
    ),
    st.from_regex(r"[A-Z][A-Z0-9]{0,4}", fullmatch=True).map(
        lambda s: sexpr.Atom(s, "variable", None)
    ),
    st.from_regex(r"[A-Z][A-Z0-9]{0,4}", fullmatch=True).map(
        lambda s: sexpr.Atom(s, "rowvariable", None)
    ),
    st.integers(-999, 999).map(lambda n: sexpr.Atom(str(n), "numeral", None)),
)

tree_st = st.recursive(
    atom_st,
    lambda kids: st.lists(kids, min_size=1, max_size=4).map(
        lambda xs: sexpr.SList(tuple(xs), None)
    ),
    max_leaves=20,
)


@given(tree_st)
def test_print_parse_round_trip(tree):
    text = show(tree)
    back = sexpr.parse_forms(text)
    assert len(back) == 1
    assert strip(back[0]) == strip(tree)


# --- pinned reader output ---------------------------------------------------
#
# Digests of repr(parse_forms(text, name)) for every fixture: atoms, kinds,
# escapes and every span are pinned, as are the errors below.

FIXTURE_DIGESTS = {
    "merge_fragment.kif": "ab5da722bab168707ae1770f71a186e4917e6cf18d7889592c23ce6e3768a57d",
    "tqg11.kif": "ef23ffcfc55109ba729d2fe2bd3ed9f5cce91820dcdcef65d02cc20baca071f1",
    "tqg22alt4.kif": "9a7a94837c305e9fd77b20ccf561b34dedc9ed345e5e46a41b4eec43dc3302c0",
    "tqg27.kif": "24f6ed534b362fdc43bc9d5e0c9827d8927851750fda8b69a29b6e8041c921e7",
    "tqg3.kif": "5c5aa5dba5b2ac33ce96aa14acf02cdc308fa8258fa4add8de4c159a0c8d6334",
    "wordex.kif": "628198906891b0ded9c00c1d17a245017f748fae960e766b1f5cebc008e8a18b",
}


def test_every_fixture_is_pinned():
    kifs = sorted(name for name in os.listdir(FIXTURES) if name.endswith(".kif"))
    assert kifs == sorted(FIXTURE_DIGESTS)


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_parse_pinned(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        forms = sexpr.parse_forms(fh.read(), name)
    digest = hashlib.sha256(repr(forms).encode("utf-8")).hexdigest()
    assert digest == FIXTURE_DIGESTS[name]


def test_clean_read_and_lowering_build_at_most_one_span_per_form(monkeypatch):
    # spans are worked out only when read: a clean file's lowering reads one
    # per top-level form (its Assertion's), none per token or list
    built = []
    real = sexpr.Span

    def counting_span(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(sexpr, "Span", counting_span)
    monkeypatch.setattr(sumo, "Span", counting_span)
    with open(os.path.join(FIXTURES, "merge_fragment.kif"), encoding="utf-8") as fh:
        forms = sexpr.parse_forms(fh.read(), "merge_fragment.kif")
    lowered = [sumo.lower(form) for form in forms]
    assert len(lowered) == len(forms) == 46
    assert 0 < len(built) <= len(forms)


@pytest.mark.parametrize(
    "source,error,message,line,col",
    [
        ('(a "one\ntwo\nthree', sexpr.BadToken, "unterminated string", 1, 4),
        ('(a "abc\\', sexpr.BadToken, "unterminated string", 1, 4),
        ('(a "abc\\"', sexpr.BadToken, "unterminated string", 1, 4),
        ("(a\n  ?)", sexpr.BadToken, "empty variable name", 2, 3),
        ("(a @)", sexpr.BadToken, "empty row variable name", 1, 4),
        ("(a b)\n\n\n   )", sexpr.UnbalancedParens, "unmatched ')'", 4, 4),
        ("(a\n (b c)\n", sexpr.UnbalancedParens, "unclosed '('", 1, 1),
        ("(a 1.2.3)", sexpr.BadToken, "malformed numeral '1.2.3'", 1, 4),
        # the first error in source order wins
        ('(a ?)\n"open', sexpr.BadToken, "empty variable name", 1, 4),
        ('"x\ny" ) (', sexpr.UnbalancedParens, "unmatched ')'", 2, 4),
    ],
)
def test_hostile_input_errors_pinned(source, error, message, line, col):
    with pytest.raises(error) as err:
        sexpr.parse_forms(source, "h.kif")
    assert err.value.message == message
    assert err.value.span == sexpr.Span("h.kif", line, col)
    assert str(err.value) == f"h.kif:{line}:{col}: {message}"


def test_string_with_newlines_then_form_pinned():
    source = '(a "x\ny\n  z") (b\n c "d\\"e" ?V)\n(f 1.5 -2)'
    forms = sexpr.parse_forms(source, "h.kif")

    def spans(node):
        if isinstance(node, sexpr.Atom):
            return (node.kind, node.lexeme, node.span.line, node.span.col)
        return ((node.span.line, node.span.col),) + tuple(spans(x) for x in node.items)

    assert [spans(f) for f in forms] == [
        ((1, 1), ("constant", "a", 1, 2), ("string", "x\ny\n  z", 1, 4)),
        (
            (3, 7),
            ("constant", "b", 3, 8),
            ("constant", "c", 4, 2),
            ("string", 'd"e', 4, 4),
            ("variable", "V", 4, 11),
        ),
        ((5, 1), ("constant", "f", 5, 2), ("numeral", "1.5", 5, 4), ("numeral", "-2", 5, 8)),
    ]


def test_whitespace_is_unicode_whitespace_and_only_newline_ends_a_line():
    forms = sexpr.parse_forms("(a\u00a0b\u2028c\x1c)\r\n(\td ;x (\n e)", "h.kif")
    atoms = [(x.lexeme, x.span.line, x.span.col) for f in forms for x in f.items]
    assert atoms == [("a", 1, 2), ("b", 1, 4), ("c", 1, 6), ("d", 2, 3), ("e", 3, 2)]


def test_backslash_escapes_the_next_character():
    (form,) = sexpr.parse_forms('("a\\\\b\\nc\\"" x)')
    assert [x.lexeme for x in form.items] == ['a\\bnc"', "x"]


# --- pinned reader and lowering outcomes over mutated fixtures --------------
#
# A seeded family of mutations of the fixture KIF files: inserted parens,
# quotes, variable and row-variable marks, CRLF line ends, comments,
# numerals and binders, and deleted or moved stretches of text.  The digest
# pins, for each mutant, the first error (class, message, FILE:LINE:COL) of
# reading and lowering it, or the repr of every lowered form.

_KIF_INSERTS = (
    "(", ")", '"', "?", "@", " @ROW ", "\r\n", "; a comment\n", " ;(\n", '"x\ny"',
    " 0 ", " -1.50 ", " 1.2.3 ",
    " (forall (?X) ", " (exists (?Y @ROW) ", "(forall () ", " (KappaFn ?Z ",
)
KIF_MUTATION_DIGEST = "30b8339d99cd2a170318a96842a263a5454178950dabcdeee05442e9307784b7"


def _kif_mutants(n, seed):
    names = sorted(FIXTURE_DIGESTS)
    texts = {}
    for name in names:
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            texts[name] = fh.read()
    rng = random.Random(seed)
    for _ in range(n):
        name = rng.choice(names)
        text = texts[name]
        for _ in range(rng.randint(1, 2)):
            p = rng.randrange(len(text))
            kind = rng.randrange(4)
            if kind < 2:  # insert
                text = text[:p] + rng.choice(_KIF_INSERTS) + text[p:]
                continue
            q = min(len(text), p + rng.randint(1, 12))
            cut, rest = text[p:q], text[:p] + text[q:]
            if kind == 2:  # delete
                text = rest
            else:  # move
                r = rng.randrange(len(rest) + 1)
                text = rest[:r] + cut + rest[r:]
        yield name, text


def _kif_outcome(name, text):
    try:
        return repr([sumo.lower(form) for form in sexpr.parse_forms(text, name)])
    except sexpr.KifSyntaxError as err:
        return f"{type(err).__name__}: {err.span}: {err.message}"


def test_kif_mutation_outcomes_pinned():
    digest = hashlib.sha256()
    for name, text in _kif_mutants(2000, 14):
        digest.update(_kif_outcome(name, text).encode("utf-8") + b"\n")
    assert digest.hexdigest() == KIF_MUTATION_DIGEST
