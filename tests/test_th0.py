"""TH0 rendering, parsing, and checking tests."""

import gc
import hashlib
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from sumok2set import sexpr, th0, th0read, translate
from sumok2set.catalog import cc
from sumok2set.hostterm import (
    App,
    Arrow,
    Const,
    EQUALS,
    FALSE,
    FORALL,
    IOTA,
    Lam,
    OMICRON,
    TRUE,
    TypeMismatch,
    Var,
    app,
    arrow,
    eq,
    exists,
    forall,
    quantifier,
)
from sumok2set.th0 import (
    check_text,
    parse_doc,
    problem_text,
    render_doc,
    render_term,
    render_type,
)
from sumok2set.translate import Problem

from conftest import FIXTURES, fixture_path
from termhelpers import (
    catalog_needs,
    conj,
    disj,
    iff,
    imp,
    ite,
    mem,
    neg,
    separation,
    subq,
    substitute,
)


def test_render_type_shapes():
    assert render_type(IOTA) == "$i"
    assert render_type(OMICRON) == "$o"
    assert render_type(arrow(IOTA, IOTA)) == "$i > $i"
    assert render_type(arrow(IOTA, IOTA, OMICRON)) == "$i > $i > $o"
    assert render_type(Arrow(Arrow(IOTA, IOTA), IOTA)) == "($i > $i) > $i"


def test_render_atoms_bare_compounds_wrapped():
    assert render_term(Const("c", IOTA)) == "c"
    assert render_term(Var("X", IOTA)) == "X"
    assert render_term(App(Const("f", arrow(IOTA, IOTA)), Const("c", IOTA))) == "(f @ c)"


def test_render_flattens_application_spines():
    f = Const("f", arrow(IOTA, IOTA, IOTA))
    t = app(f, Const("a", IOTA), Const("b", IOTA))
    assert render_term(t) == "(f @ a @ b)"


def test_render_binders_one_variable_each():
    t = forall("X", IOTA, exists("Y", IOTA, eq(Var("X", IOTA), Var("Y", IOTA))))
    assert render_term(t) == "(![X : $i]: (?[Y : $i]: (X = Y)))"


def test_a_quantifier_is_written_only_as_the_binder_of_a_lambda():
    c = Const("c", IOTA)
    q = quantifier(FORALL, IOTA)
    for bad in (q, App(q, Const("p", arrow(IOTA, OMICRON))), eq(q, q)):
        with pytest.raises(TypeError, match="cannot render"):
            render_term(bad)
    # a quantifier is declared by no problem, so no record reads it
    record = th0.render_premise("ax", "axiom", forall("X", IOTA, eq(Var("X", IOTA), c)))
    assert record.consts == (c,)


# a problem with = at a function type, and one with = between two types
EQ_AT_A_FUNCTION_TYPE = "thf(ty_f, type, f : $i > $i).\nthf(conj, conjecture, (f = (^[X : $i]: (f @ X)))).\n"
EQ_BETWEEN_TWO_TYPES = (
    "thf(ty_a, type, a : $o).\nthf(ty_c, type, c : $i).\nthf(conj, conjecture, (a = c)).\n"
)


def test_equality_is_typed_by_its_operands(cold_memo):
    assert check_text(EQ_AT_A_FUNCTION_TYPE) == []
    assert check_text(EQ_BETWEEN_TWO_TYPES) == ["conj: ill-typed: equation between $o and $i"]


def test_equality_used_but_applied_to_two_operands_is_ill_typed_and_not_written():
    # only a hand-built term has a bare or partial =: the reader builds
    # = applied to two operands, or nothing
    c = Const("c", IOTA)
    for bad in (EQUALS, App(EQUALS, c)):
        with pytest.raises(TypeMismatch) as caught:
            th0.typecheck(bad)
        assert str(caught.value) == "= applied to fewer than two operands"
        with pytest.raises(TypeError, match="^cannot render .* but applied to two operands$"):
            render_term(bad)
    # applied to a third, an equation is applied as a function
    with pytest.raises(TypeMismatch, match=r"^applied non-function of type \$o$"):
        th0.typecheck(App(eq(c, c), c))
    assert th0.typecheck(eq(c, c)) == OMICRON and render_term(eq(c, c)) == "(c = c)"


def test_render_lambda_and_connectives():
    t = Lam("X", IOTA, Var("X", IOTA))
    assert render_term(t) == "(^[X : $i]: X)"
    p = Const("p", OMICRON)
    assert render_term(imp(neg(p), conj(p, p))) == "((~ p) => (p & p))"


def test_render_mem_subq_as_applied_constants():
    # structural nodes are flattened before rendering in documents; the
    # plain renderer leaves them to the flattening pass
    doc_term = app(cc("in"), Const("a", IOTA), Const("b", IOTA))
    assert render_term(doc_term) == "(in @ a @ b)"


def test_variable_sanitization():
    t = forall("row", IOTA, eq(Var("row", IOTA), Var("row", IOTA)))
    out = render_term(t)
    assert "V_row" in out
    t2 = forall("X1_ok", IOTA, eq(Var("X1_ok", IOTA), Var("X1_ok", IOTA)))
    assert "X1_ok" in render_term(t2)


def _escape_per_character(name):
    return "".join(
        ch if ch.isascii() and ch.isalnum()
        else ("_%02x" if ord(ch) < 0x100 else "_u%06x") % ord(ch)
        for ch in name
    )


def test_escape_of_plain_names_matches_the_per_character_escape():
    rng = random.Random(5)
    plain = "abcxyzABCXYZ0189"
    odd = "_- .é\x00\x7f\u0100€\U0001d518"
    names = ["", "_", "9lives", "0", "é", "\U0001d518", "abc", "ABC123", "a_b"]
    for _ in range(3000):
        chars = plain if rng.randrange(2) else plain + odd
        names.append("".join(rng.choice(chars) for _ in range(rng.randint(0, 10))))
    for name in names:
        assert th0.escape(name) == _escape_per_character(name)


def simple_problem(conjecture, premises=()):
    """A problem of host-term premises, each rendered on its own."""
    records = [(name, role, th0.render_premise(name, role, t)) for name, role, t in premises]
    return Problem(
        blocks=[th0.Block(records)],
        conjecture=th0.render_premise("conj", "conjecture", conjecture),
        comments=[],
    )


def test_doc_layout_order():
    prob = simple_problem(
        mem(Const("s_a", IOTA), Const("s_b", IOTA)),
        premises=[("kb_x_0", "axiom", subq(Const("s_b", IOTA), Const("s_b", IOTA)))],
    )
    text = problem_text(prob, reproducible=True)
    lines = text.splitlines()
    assert lines[0].startswith("%")
    ty_lines = [l for l in lines if l.startswith("thf(ty_")]
    first_axiom = next(i for i, l in enumerate(lines) if ", axiom," in l)
    for l in ty_lines:
        assert lines.index(l) < first_axiom
    assert text.endswith(".\n") or text.endswith(")).\n")
    assert "thf(conj, conjecture," in text


def test_reproducible_omits_date():
    prob = simple_problem(mem(Const("s_a", IOTA), Const("s_b", IOTA)))
    assert "generated" in problem_text(prob)
    assert "generated" not in problem_text(prob, reproducible=True)


def test_catalog_constants_precede_minted_in_decls():
    prob = simple_problem(
        mem(Const("s_a", IOTA), App(cc("power"), Const("s_b", IOTA)))
    )
    text = problem_text(prob, reproducible=True)
    names = [
        line.split("(")[1].split(",")[0][3:]
        for line in text.splitlines()
        if line.startswith("thf(ty_")
    ]
    assert "power" in names and "s_a" in names
    assert names.index("power") < names.index("s_a")


def test_sep_hoisting_definition_premise():
    sep = separation(
        "X",
        cc("univ"),
        mem(Var("X", IOTA), Const("s_Planet", IOTA)),
    )
    prob = simple_problem(mem(Const("s_o", IOTA), sep))
    text = problem_text(prob, reproducible=True)
    assert "thf(ty_sep_" in text
    assert "thf(def_sep_" in text
    # definition precedes the conjecture and carries the definition role
    def_pos = text.index("thf(def_sep_")
    assert ", definition," in text[def_pos : def_pos + 120]
    assert def_pos < text.index("thf(conj")


def test_sep_hoisting_dedups_identical_bodies():
    sep = lambda: separation("X", cc("univ"), mem(Var("X", IOTA), Const("s_P", IOTA)))
    prob = simple_problem(
        conj(mem(Const("s_a", IOTA), sep()), mem(Const("s_b", IOTA), sep()))
    )
    text = problem_text(prob, reproducible=True)
    assert text.count("thf(def_sep_") == 1


def test_sep_hoisting_lifts_parameters():
    # a separation over a free variable becomes a parametric constant
    sep = separation(
        "X",
        Var("B", IOTA),
        mem(Var("X", IOTA), Var("B", IOTA)),
    )
    prob = simple_problem(forall("B", IOTA, mem(Const("s_o", IOTA), sep)))
    text = problem_text(prob, reproducible=True)
    decl = next(l for l in text.splitlines() if l.startswith("thf(ty_sep_"))
    assert "$i > $i" in decl


def test_alpha_variant_seps_share_a_constant():
    s1 = separation("X", cc("univ"), mem(Var("X", IOTA), Const("s_P", IOTA)))
    s2 = separation("Y", cc("univ"), mem(Var("Y", IOTA), Const("s_P", IOTA)))
    a, b = mem(Const("s_a", IOTA), s1), mem(Const("s_b", IOTA), s2)
    for prob in (
        simple_problem(conj(a, b)),
        # in two premises, each flattened and rendered on its own
        simple_problem(b, premises=[("kb_x_0", "axiom", a)]),
    ):
        text = problem_text(prob, reproducible=True)
        assert text.count("thf(def_sep_") == 1
        # the first occurrence writes the definition
        definition = next(l for l in text.splitlines() if l.startswith("thf(def_sep_"))
        assert "(![X : $i]: " in definition


def test_constant_used_at_two_types_is_rejected():
    f_i = Const("f", IOTA)
    f_ii = Const("f", arrow(IOTA, IOTA))
    twice = conj(eq(f_i, f_i), eq(App(f_ii, f_i), f_i))
    for prob in (
        simple_problem(twice),
        # in two premises, each flattened and rendered on its own
        simple_problem(eq(App(f_ii, Const("s_a", IOTA)), Const("s_a", IOTA)),
                       premises=[("kb_x_0", "axiom", eq(f_i, f_i))]),
    ):
        with pytest.raises(th0.Th0Error, match="constant f used at two types"):
            problem_text(prob, reproducible=True)


@pytest.mark.parametrize("sep_first", [True, False])
def test_a_separation_constant_clashing_with_a_record_constant_in_a_block_is_rejected(sep_first):
    # s_a is read only by the separation's definition in one premise, and
    # at a second type by the record of the other
    sep = separation("X", cc("univ"), mem(Var("X", IOTA), Const("s_a", IOTA)))
    terms = [
        ("kb_x_0", mem(Const("s_b", IOTA), sep)),
        ("kb_x_1", App(Const("s_a", arrow(IOTA, OMICRON)), cc("emptyset"))),
    ]
    premises = [(n, "axiom", th0.render_premise(n, "axiom", t)) for n, t in terms]
    if not sep_first:
        premises.reverse()
    conjecture = th0.render_premise("conj", "conjecture", TRUE)
    with pytest.raises(th0.Th0Error, match="constant s_a used at two types"):
        problem_text(Problem([th0.Block(premises)], conjecture), reproducible=True)


def test_long_lines_wrap_with_continuation_indent():
    deep = Const("s_x", IOTA)
    for i in range(40):
        deep = app(cc("ordsucc"), deep)
    prob = simple_problem(mem(deep, cc("omega")))
    text = problem_text(prob, reproducible=True)
    for line in text.splitlines():
        assert len(line) <= th0.WIDTH
    wrapped = [l for l in text.splitlines() if l.startswith(" ")]
    assert wrapped
    for l in wrapped:
        assert l.startswith("    ")


def _wrap_word_by_word(text):
    if len(text) <= th0.WIDTH:
        return text
    words = text.split(" ")
    lines = []
    cur = words[0]
    for w in words[1:]:
        if len(cur) + 1 + len(w) <= th0.WIDTH:
            cur += " " + w
        else:
            lines.append(cur)
            cur = th0.INDENT + w
    lines.append(cur)
    return "\n".join(lines)


def test_wrap_fills_lines_as_word_by_word_filling_does():
    # words up to and past the width, empty words from runs of spaces
    rng = random.Random(3)
    sizes = (0, 0, 1, 3, 10, 40, 95, 96, 97, 99, 100, 101, 150)
    for _ in range(20000):
        words = ["x" * rng.choice(sizes) for _ in range(rng.randint(1, rng.choice((2, 5, 20, 60))))]
        text = " " * rng.choice((0, 0, 1, 2)) + " ".join(words) + " " * rng.choice((0, 0, 1))
        assert th0._wrap(text) == _wrap_word_by_word(text)


def test_comments_rendered_with_percent():
    prob = simple_problem(
        mem(Const("s_a", IOTA), Const("s_b", IOTA)),
    )
    prob.comments.append("skipped x.kif:3: modal head 'holdsDuring'")
    text = problem_text(prob, reproducible=True)
    assert "% skipped x.kif:3: modal head 'holdsDuring'" in text


def test_parse_round_trip_on_generated():
    prob = simple_problem(
        forall(
            "X",
            IOTA,
            imp(
                mem(Var("X", IOTA), Const("s_A", IOTA)),
                mem(Var("X", IOTA), Const("s_B", IOTA)),
            ),
        ),
        premises=[("kb_t_0", "axiom", subq(Const("s_A", IOTA), Const("s_B", IOTA)))],
    )
    text = problem_text(prob, reproducible=True)
    doc = parse_doc(text)
    assert render_doc(doc) == text


def test_check_text_accepts_generated():
    prob = simple_problem(mem(Const("s_a", IOTA), cc("omega")))
    text = problem_text(prob, reproducible=True)
    assert check_text(text) == []


def test_check_text_flags_undeclared_constant():
    text = (
        "thf(ty_a, type, a : $i).\n"
        "thf(conj, conjecture, (in @ a @ b)).\n"
    )
    diags = check_text(text)
    assert diags
    assert any("in" in d or "b" in d for d in diags)


def test_check_text_flags_type_errors():
    text = (
        "thf(ty_a, type, a : $i).\n"
        "thf(conj, conjecture, a).\n"
    )
    diags = check_text(text)
    assert any("$o" in d or "type" in d.lower() for d in diags)


def test_check_text_flags_parse_errors():
    assert check_text("thf(conj, conjecture, (a &).\n")
    assert check_text("nonsense")


def test_check_text_requires_single_conj():
    text = (
        "thf(ty_a, type, a : $o).\n"
        "thf(c1, conjecture, a).\n"
    )
    assert check_text(text)  # conjecture must be named conj
    text2 = "thf(ty_a, type, a : $o).\nthf(ax, axiom, a).\n"
    assert check_text(text2)  # no conjecture at all


def test_parse_rejects_duplicate_declaration():
    text = (
        "thf(ty_a, type, a : $i).\n"
        "thf(ty_a, type, a : $i).\n"
        "thf(conj, conjecture, (a = a)).\n"
    )
    with pytest.raises(th0.Th0Error):
        parse_doc(text)


def test_parse_rejects_duplicate_premise_names():
    text = (
        "thf(ty_a, type, a : $o).\n"
        "thf(p, axiom, a).\n"
        "thf(p, axiom, a).\n"
        "thf(conj, conjecture, a).\n"
    )
    with pytest.raises(th0.Th0Error) as err:
        parse_doc(text)
    assert (err.value.line, err.value.col) == (3, 5)
    assert check_text(text) == ["parse error at 3:5: duplicate record name p"]


def test_parse_rejects_mixed_operators_without_parens():
    text = (
        "thf(ty_a, type, a : $o).\n"
        "thf(ty_b, type, b : $o).\n"
        "thf(conj, conjecture, (a & b | a)).\n"
    )
    with pytest.raises(th0.Th0Error):
        parse_doc(text)


def test_fixture_problems_round_trip(tmp_path):
    from sumok2set.translate import translate_query_job

    kb = fixture_path("merge_fragment.kif")
    for q in ("tqg3.kif", "tqg11.kif", "tqg22alt4.kif", "tqg27.kif", "wordex.kif"):
        prob, _skips, _tr = translate_query_job([kb], fixture_path(q))
        text = problem_text(prob, reproducible=True)
        assert check_text(text) == [], q
        assert render_doc(parse_doc(text)) == text, q


# Diagnostics pinned with the line and column the parser works out from
# token offsets.
_PINNED_DIAGNOSTICS = [
    (
        "thf(ty_a, type, a : $o).\nthf(conj, conjecture,\n    (a & #a)).\n",
        "parse error at 3:10: bad character '#'",
    ),
    (
        "thf(ty_a, type, a : $o).\r\nthf(conj, conjecture,\r\n\t(a <= a)).\r\n",
        "parse error at 3:5: bad character '<'",
    ),
    (
        "thf(ty_a, type, a : $o).\n% note\n\nthf(conj, conjecture, (a & )).\n",
        "parse error at 4:28: unexpected token ')'",
    ),
    (
        "thf(ty_a, type, a : $o).\nthf(conj, conjecture,\n    (a & a)",
        "parse error: unexpected end of input",
    ),
    # comments are rendered first, so one between records is not canonical
    (
        "thf(ty_a, type, a : $o).\n% between\nthf(conj, conjecture, a).\n",
        "text is not in canonical form (render of parse differs)",
    ),
    (
        "thf(ty_a, type, a : $o).\nthf(conj, conjecture, <).\n",
        "parse error at 2:23: bad character '<'",
    ),
    (
        "thf(ty_a, type, a : $o).\nthf(conj, conjecture, (a < a)).\n",
        "parse error at 2:26: bad character '<'",
    ),
    # a bad character anywhere is reported ahead of an earlier grammar error
    (
        "thf(ty_a, type, a : $o).\nthf(conj, conjecture, (a & )).\n"
        "thf(ty_b, type, b : $o).\n  %ok\nthf(x, axiom, (b # b)).\n",
        "parse error at 5:18: bad character '#'",
    ),
    (
        "thf(ty_a, type, a : $o).\nthf(conj, conjecture, a).\né",
        "parse error at 3:1: bad character 'é'",
    ),
    # positions after a mid-text comment that holds tokens of its own
    (
        "thf(ty_a, type, a : $o).\n% (a & ) # unbalanced\n\nthf(p, axiom,\n"
        "    (a => a => a)).\nthf(conj, conjecture, a).\n",
        "parse error at 5:8: operator '=>' is binary",
    ),
    (
        "thf(ty_a, type, a : $o).\n% note\nthf(conj, conjecture, (a & b)).\n",
        "parse error at 3:28: undeclared symbol 'b'",
    ),
    (
        "thf(ty_a, type, a : $o).thf(conj, conjecture, a).\n",
        "text is not in canonical form (render of parse differs)",
    ),
    # a declared constant must be a TPTP lower word
    *[
        (
            f"thf(ty_{c}, type, {c} : $o).\nthf(conj, conjecture, {c}).\n",
            f"parse error at 1:{len(c) + 16}: declared constant {c!r} is not a lower word",
        )
        for c in ("X", "$x", "1a", "_a")
    ],
    # so must a record name, whatever its role
    *[
        (
            f"thf(ty_a, type, a : $o).\nthf({name}, axiom, a).\nthf(conj, conjecture, a).\n",
            f"parse error at 2:5: record name {name!r} is not a lower word",
        )
        for name in ("$a", "Ab", "$true", "_x")
    ],
    # a record that misses its ). reads on into the next record
    (
        "thf(ty_a, type, a : $o).\nthf(p, axiom, a\nthf(conj, conjecture, a).\n",
        "parse error at 3:1: expected ')', found 'thf'",
    ),
    (
        "thf(ty_a, type, a : $o).\nthf(p, axiom, (a & a))\nthf(conj, conjecture, a).\n",
        "parse error at 3:1: expected '.', found 'thf'",
    ),
    # the error is located from an earlier record, once the parse read on
    (
        "thf(ty_thf, type, thf : $o).\nthf(p, axiom, (thf => thf => ~\n"
        "thf(conj, conjecture, thf).\n",
        "parse error at 2:20: operator '=>' is binary",
    ),
    (
        "thf(ty_thf, type, thf : $o).\nthf(c, conjecture, ~\nthf(conj, conjecture, thf).\n",
        "parse error at 2:1: exactly one conjecture named conj is expected",
    ),
    # a grammar error in the last record of a long run
    (
        "".join(f"thf(ty_a{i}, type, a{i} : $o).\n" for i in range(40))
        + "".join(f"thf(p{i}, axiom, (a{i} => a{i + 1})).\n" for i in range(39))
        + "thf(conj, conjecture, (a0 & a39 &)).\n",
        "parse error at 80:34: unexpected token ')'",
    ),
    # a bad character two records after a grammar error
    (
        "thf(ty_a, type, a : $o).\nthf(p, axiom, (a & )).\nthf(q, axiom, a).\n"
        "thf(conj, conjecture, (a § a)).\n",
        "parse error at 4:26: bad character '§'",
    ),
    ("", "parse error: missing conjecture"),
    ("   \n\n", "parse error: missing conjecture"),
    ("% only\n", "parse error: missing conjecture"),
    # each connective with an operand of type $i
    *[
        (
            f"thf(ty_a, type, a : $o).\nthf(ty_c, type, c : $i).\nthf(ax, axiom, {body}).\n"
            "thf(conj, conjecture, a).\n",
            "ax: ill-typed: expected $o, found $i",
        )
        for body in ("(~ c)", "(c & a)", "(a | c)", "(c => a)", "(a <=> c)")
    ],
    # the truth values check clean and render as read: the one diagnostic
    # is the conjecture's
    (
        "thf(ty_a, type, a : $o).\nthf(ty_c, type, c : $i).\n"
        "thf(ax, axiom, ((~ $false) | a)).\nthf(conj, conjecture, c).\n",
        "conj: formula has type $i, not $o",
    ),
    # a connective or truth value applied past its operands renders as read
    *[
        (
            f"thf(ty_a, type, a : $o).\nthf(conj, conjecture, {body}).\n",
            "conj: ill-typed: applied non-function of type $o",
        )
        for body in ("((a & a) @ a)", "((~ a) @ a)", "($true @ a)", "((![X : $i]: a) @ a)")
    ],
    # a quantifier's body of type $i, and a separation's predicate of the
    # wrong domain or codomain
    *[
        (
            "thf(ty_a, type, a : $o).\nthf(ty_c, type, c : $i).\n"
            "thf(ty_in, type, in : $i > $i > $o).\nthf(ty_sep, type, sep : $i > ($i > $o) > $i).\n"
            f"thf(ax, axiom, {body}).\nthf(conj, conjecture, a).\n",
            f"ax: ill-typed: {diag}",
        )
        for body, diag in (
            ("(![X : $i]: X)", "expected $o, found $i"),
            ("(?[X : $i]: X)", "expected $o, found $i"),
            ("(![P : $o]: c)", "expected $o, found $i"),
            ("(in @ c @ (sep @ c @ (^[X : $o]: X)))", "expected ($i > $o), found ($o > $o)"),
            # a lambda is checked against the type expected of it: its body at $o
            ("(in @ c @ (sep @ c @ (^[X : $i]: X)))", "expected $o, found $i"),
        )
    ],
]


@pytest.mark.parametrize("text,diag", _PINNED_DIAGNOSTICS)
def test_check_text_diagnostics_pinned(text, diag, cold_memo):
    assert check_text(text) == [diag]


@pytest.mark.parametrize("text,diag", _PINNED_DIAGNOSTICS)
def test_check_text_diagnostics_pinned_warm_memo(text, diag, warm_memo):
    assert check_text(text) == [diag]


def test_check_text_accepts_any_character_in_a_comment():
    assert check_text("% café # § note\nthf(ty_a, type, a : $o).\nthf(conj, conjecture, a).\n") == []


def test_check_text_truncated_fixture_problem_pinned(monkeypatch):
    # relative paths, as skipped-form comments quote them
    monkeypatch.chdir(FIXTURES)
    prob, _skips, _tr = translate.translate_query_job(["merge_fragment.kif"], "tqg3.kif")
    text = problem_text(prob, reproducible=True)
    assert check_text(text[: len(text) // 2]) == ["parse error at 148:1: expected 'thf', found 't'"]
    assert check_text(text[:-3]) == ["parse error: unexpected end of input"]
    assert check_text(text[:-1]) == ["text is not in canonical form (render of parse differs)"]


def test_check_text_reports_formulas_nested_too_deeply(cold_memo):
    deep = "(~ " * 2000 + "a" + ")" * 2000
    text = f"thf(ty_a, type, a : $o).\nthf(conj, conjecture, {deep}).\n"
    assert check_text(text) == ["parse error: formulas nested too deeply"]


@pytest.mark.parametrize(
    "query",
    [
        "(query (p " + "(f " * (sexpr.MAX_DEPTH - 2) + "a" + ")" * (sexpr.MAX_DEPTH - 2) + "))",
        "(query (equal " + "(AdditionFn 1 " * (sexpr.MAX_DEPTH - 2) + "1" + ")" * (sexpr.MAX_DEPTH - 2) + " 2))",
    ],
    ids=["application", "arithmetic"],
)
def test_kif_nested_to_the_reader_bound_gives_a_problem_that_checks(tmp_path, query, cold_memo):
    path = tmp_path / "q.kif"
    path.write_text(query + "\n")
    prob, _skips, _tr = translate.translate_query_job([], str(path))
    assert check_text(problem_text(prob, reproducible=True)) == []


@given(st.text(alphabet=" \t\r\n%<=>()[]:,.@&|~!?^aZ9_$#é\x0b", max_size=40))
def test_bad_character_scan_agrees_with_the_tokenizer(text):
    # the scan before parsing finds the first token the catch-all takes
    caught = (
        m.start()
        for m in th0read._TOKEN_RE.finditer(text)
        if m.group() not in th0read._OPS and not re.match(r"%|[A-Za-z0-9_$]", m.group())
    )
    assert th0read._BAD_RE.match(text).end() == next(caught, len(text))


def test_bad_character_after_long_whitespace_is_found_in_linear_time():
    # a scan that searched ahead would retry the whitespace run from every
    # offset in it: quadratic, tens of seconds here
    text = "thf(ty_a, type, a : $o)." + " " * 30000 + "#"
    start = time.perf_counter()
    assert check_text(text) == ["parse error at 1:30025: bad character '#'"]
    assert time.perf_counter() - start < 2.0


# A seeded family of one-character and one-token mutations of small
# problems cut from the fixture problems.  The digest pins every diagnostic
# check_text gives on them: message, line and column.
_MUTATION_QUERIES = ("tqg3.kif", "tqg11.kif", "tqg22alt4.kif", "tqg27.kif", "wordex.kif")
_MUTATION_WORD = re.compile(r"[A-Za-z0-9_$]+")
_MUTATION_TOKEN = re.compile(r"[A-Za-z0-9_$]+|<=>|=>|[^ \t\r\n]")
_MUTATION_CHARS = " \t\r\n()[]:,.@&|~!?^=<>%#$_aZ9é"
MUTATION_DIGEST = "7e7cb01c6d319c02255876f0f02408d34f7a636a8604253ed9a14e01c3f20e9a"


@pytest.fixture(scope="module")
def fixture_problems():
    """The problems of the mutation queries, with paths relative to the fixtures."""
    with pytest.MonkeyPatch.context() as mp:
        # relative paths, as skipped-form comments quote them
        mp.chdir(FIXTURES)
        return [
            problem_text(translate.translate_query_job(["merge_fragment.kif"], q)[0], reproducible=True)
            for q in _MUTATION_QUERIES
        ]


_SMALL_CLEAN = "thf(ty_a, type, a : $o).\nthf(p, axiom, a).\nthf(conj, conjecture, a).\n"


@pytest.fixture
def warm_memo(cold_memo, fixture_problems):
    """A memo of verified records warmed on the fixture problems and a small one."""
    for text in fixture_problems + [_SMALL_CLEAN]:
        assert check_text(text) == []
    assert _SMALL_CLEAN.split("\n")[1][len("thf(") :] in cold_memo.entries
    return cold_memo


def _records(text):
    out = []
    for line in text.splitlines(keepends=True):
        if line.startswith(" "):
            out[-1] += line
        else:
            out.append(line)
    return out


def _small_problem(text, rng):
    """The comments, one to three records and the conjecture of a problem,
    with the declarations they use."""
    recs = _records(text)
    comments = [r for r in recs if r.startswith("%")]
    decls = [r for r in recs if r.startswith("thf(ty_")]
    body = [r for r in recs if r.startswith("thf(") and r not in decls]
    start = rng.randrange(len(body) - 1)
    chosen = body[start : start + rng.randint(1, 3)]
    if chosen[-1] is not body[-1]:
        chosen.append(body[-1])
    used = set(_MUTATION_WORD.findall("".join(chosen)))
    needed = [d for d in decls if d[len("thf(ty_") : d.index(",")] in used]
    return "".join(comments + needed + chosen)


def _mutants(bases, n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        text = _small_problem(rng.choice(bases), rng)
        kind = rng.randrange(6)
        if kind < 3:  # delete, insert or swap one character
            p = rng.randrange(len(text) - 1)
            if kind == 0:
                yield text[:p] + text[p + 1 :]
            elif kind == 1:
                yield text[:p] + rng.choice(_MUTATION_CHARS) + text[p:]
            else:
                yield text[:p] + text[p + 1] + text[p] + text[p + 2 :]
            continue
        spans = [m.span() for m in _MUTATION_TOKEN.finditer(text)]
        j = rng.randrange(len(spans) - 1)
        a, b = spans[j]
        if kind == 3:  # delete a token
            yield text[:a] + text[b:]
        elif kind == 4:  # insert a copy of some token
            c, d = rng.choice(spans)
            yield text[:a] + text[c:d] + " " + text[a:]
        else:  # swap a token with the next
            c, d = spans[j + 1]
            yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def _mutation_digest(bases):
    digest = hashlib.sha256()
    for text in _mutants(bases, 2000, 8):
        digest.update(repr(check_text(text)).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_check_text_mutation_diagnostics_pinned(fixture_problems, cold_memo):
    assert _mutation_digest(fixture_problems) == MUTATION_DIGEST


def test_check_text_mutation_diagnostics_pinned_warm_memo(fixture_problems, warm_memo):
    assert _mutation_digest(fixture_problems) == MUTATION_DIGEST


# The memo of verified records: a warm memo confirms clean problems without
# parsing what it holds, and every other problem is diagnosed as with an
# empty memo.


def _cold_check(text):
    """check_text's diagnostics with an empty memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(th0, "CHECK_MEMO", th0.RecordMemo(th0.MEMO_BYTES))
        return check_text(text)


def test_a_check_builds_nodes_only_for_the_constants_its_runs_read(
    warm_memo, fixture_problems, monkeypatch
):
    text = fixture_problems[0]
    conj_at = text.index("thf(conj,")
    text = text[:conj_at] + "thf(conj, conjecture, ((ordsucc @ emptyset) = emptyset)).\n"
    passes = []

    def kept(memo):
        passes.append(record_pass(memo))
        return passes[-1]

    record_pass = th0._RecordPass
    monkeypatch.setattr(th0, "_RecordPass", kept)
    assert check_text(text) == []  # every record but the conjecture is a memo hit
    assert len(passes) == 1
    assert list(passes[0].consts.items()) == [
        ("ordsucc", Const("ordsucc", arrow(IOTA, IOTA))),
        ("emptyset", Const("emptyset", IOTA)),
    ]


def test_memo_confirms_a_known_problem_without_parsing(warm_memo, fixture_problems, monkeypatch):
    def no_parse(*args):
        raise AssertionError("parsed a problem the memo holds")

    monkeypatch.setattr(th0, "_Parser", no_parse)
    monkeypatch.setattr(th0, "parse_doc", no_parse)
    for text in fixture_problems:
        assert check_text(text) == []


def test_memo_same_record_under_another_type(warm_memo, fixture_problems):
    text = _SMALL_CLEAN.replace("a : $o", "a : $i")
    diags = ["p: formula has type $i, not $o", "conj: formula has type $i, not $o"]
    assert check_text(text) == _cold_check(text) == diags
    line = "thf(ty_nat_p, type, nat_p : $i > $o)."
    text = fixture_problems[0].replace(line, line.replace("$o", "$i"))
    assert check_text(text) == _cold_check(text) == [
        "def_natp: ill-typed: expected $o, found $i",
        "def_cons: ill-typed: expected $o, found $i",
    ]


def test_memo_record_whose_constant_is_declared_after_it(warm_memo, fixture_problems):
    text = "thf(p, axiom, a).\nthf(ty_a, type, a : $o).\nthf(conj, conjecture, a).\n"
    assert check_text(text) == _cold_check(text) == ["parse error at 1:15: undeclared symbol 'a'"]
    line = "thf(ty_ordsucc, type, ordsucc : $i > $i).\n"
    text = fixture_problems[0].replace(line, "").replace("thf(conj,", line + "thf(conj,")
    assert check_text(text) == _cold_check(text) == [
        "parse error at 81:64: undeclared symbol 'ordsucc'"
    ]


@pytest.mark.parametrize(
    "premises",
    ["thf(p, axiom, a).\nthf(p, axiom, (a & a)).\n", "thf(p, axiom, (a & a)).\nthf(p, axiom, a).\n"],
    ids=["hit-then-miss", "miss-then-hit"],
)
def test_memo_duplicate_name_across_a_hit_and_a_miss(warm_memo, premises):
    text = "thf(ty_a, type, a : $o).\n" + premises + "thf(conj, conjecture, a).\n"
    assert check_text(text) == _cold_check(text) == ["parse error at 3:5: duplicate record name p"]


def _record_edits(bases, n, seed):
    """Seeded edits of whole records: drop, repeat, move, retype or rename one."""
    rng = random.Random(seed)
    for _ in range(n):
        text = rng.choice(bases)
        head = text[: text.index("thf(")]
        recs = ["thf(" + r for r in text[len(head) + 4 : -1].split("\nthf(")]
        i = rng.randrange(len(recs))
        kind = rng.randrange(5)
        if kind == 0:
            del recs[i]
        elif kind == 1:
            recs.insert(rng.randrange(len(recs) + 1), recs[i])
        elif kind == 2:
            recs.insert(rng.randrange(len(recs)), recs.pop(i))
        elif kind == 3:
            decls = [r for r in recs if r.startswith("thf(ty_")]
            old = rng.choice(decls)
            ty = rng.choice(decls).split(" : ", 1)[1]
            recs[recs.index(old)] = old.split(" : ", 1)[0] + " : " + ty
        else:
            name = recs[i][4 : recs[i].index(",")]
            j = rng.randrange(len(recs))
            recs[j] = "thf(" + name + recs[j][recs[j].index(",") :]
        yield head + "\n".join(recs) + "\n"


def test_memo_record_edits_diagnosed_as_with_an_empty_memo(warm_memo, fixture_problems):
    diagnosed = 0
    for text in _record_edits(fixture_problems, 120, 3):
        cold = _cold_check(text)
        assert check_text(text) == cold
        diagnosed += bool(cold)
    assert diagnosed > 60


def _parser_texts(monkeypatch):
    """The texts of the _Parser objects made from here on over records.

    The types of the declarations a memo hit makes are read from the
    memo's own text (once per process), not from the problem's.
    """
    texts = []

    class Counted(th0._Parser):
        def __init__(self, text):
            if "thf(" in text:
                texts.append(text)
            super().__init__(text)

    monkeypatch.setattr(th0, "_Parser", Counted)
    return texts


def test_a_faulty_problem_is_parsed_once(cold_memo, fixture_problems, monkeypatch):
    text = fixture_problems[0]
    conj_at = text.index("thf(conj,")
    last_at = text.rindex("\nthf(", 0, conj_at - 1) + 1
    ill_typed = text[:conj_at] + "thf(conj, conjecture, (emptyset = $true)).\n"
    bad_last = text[:last_at] + text[last_at:].replace("(", "((", 2)
    bad_conj = text[:conj_at] + text[conj_at:].replace("(", "((", 2)
    middle_at = text.index("\nthf(kb_") + 1
    bad_middle = text[:middle_at] + text[middle_at:].replace("(", "((", 2)
    cold = {t: _cold_check(t) for t in (ill_typed, bad_last, bad_conj, bad_middle)}
    assert cold[ill_typed] == ["conj: ill-typed: equation between $i and $o"]
    assert all(d[0].startswith("parse error at ") for t, d in cold.items() if t is not ill_typed)
    parsed = _parser_texts(monkeypatch)
    for faulty in (ill_typed, bad_last):
        assert check_text(faulty) == cold[faulty]
        assert len(parsed) == 1
        parsed.clear()
    for clean in fixture_problems:  # the memo now holds every record but the faulty ones
        assert check_text(clean) == []
    parsed.clear()
    assert check_text(bad_conj) == cold[bad_conj]
    assert parsed == [bad_conj[conj_at:]]  # the last run alone
    parsed.clear()
    # memo hits follow the faulty run: the error is found again in the whole text
    assert check_text(bad_middle) == cold[bad_middle]
    assert len(parsed) == 2 and parsed[1] == bad_middle


def test_memo_holds_only_problems_that_checked_clean(cold_memo):
    assert check_text(_SMALL_CLEAN.replace("(conj, conjecture, a)", "(conj, conjecture, b)"))
    assert check_text(_SMALL_CLEAN.replace("\nthf(p", "\n%\nthf(p"))
    assert cold_memo.entries == {} and cold_memo.size == 0


def test_memo_evicts_its_oldest_records_at_the_byte_bound():
    memo = th0.RecordMemo(100)
    records = [(f"r{i}" + "x" * 18, ("axiom",)) for i in range(6)]  # 20 bytes each
    memo.add(records[:4])
    assert (memo.size, len(memo.entries)) == (80, 4)
    memo.add(records[4:] + [("r9" + "x" * 99, ("axiom",))])  # the last is over the bound
    # 120 bytes pass the bound: the oldest go, down to three quarters of it
    assert list(memo.entries) == [text for text, _ in records[3:]]
    assert memo.size == 60


def test_memo_checks_a_corpus_larger_than_its_bound(monkeypatch, fixture_problems):
    memo = th0.RecordMemo(sum(map(len, fixture_problems)) // 3)
    monkeypatch.setattr(th0, "CHECK_MEMO", memo)
    for _ in range(2):
        for text in fixture_problems:
            assert check_text(text) == []
            assert 0 < memo.size <= memo.limit
            assert memo.size == sum(map(len, memo.entries))


def test_memo_shared_by_threads_keeps_its_byte_count(monkeypatch, fixture_problems):
    memo = th0.RecordMemo(sum(map(len, fixture_problems)) // 2)
    monkeypatch.setattr(th0, "CHECK_MEMO", memo)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(check_text, text) for text in fixture_problems * 4]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[]] * len(futures)
    assert memo.size == sum(map(len, memo.entries)) <= memo.limit


def test_memo_entries_hold_only_strings_and_are_untracked(cold_memo, fixture_problems):
    for text in fixture_problems:
        assert check_text(text) == []
    gc.collect()
    entries = list(cold_memo.entries.values())
    assert entries
    for entry in entries:
        assert all(type(part) is str for part in entry)
        assert not gc.is_tracked(entry)


# A seeded corpus of host terms for the premise renderer.  It puts in, subq,
# ite and sep applications in head, argument and binder-body positions,
# nests separations, repeats alpha variants in one premise and uses f at
# two types.  Terms need not be well typed: rendering does not check.
# The digest pins, per premise, the record text, its (name, type) constant
# pairs and its separations with their definition records.
RENDER_PREMISE_DIGEST = "073438e372d8843761f355af9bce1065960b601cf4d3d8e43263ffc64a38e9ef"

_GEN_BINDERS = ("X", "Y", "Z", "x", "SEPX", "X_elem", "é")
_GEN_FREE = (
    Var("B", IOTA), Var("V_q", IOTA), Var("row", IOTA), Var("F", arrow(IOTA, IOTA)),
    Var("𝔘", IOTA),
)
_GEN_SETS = (
    Const("s_a", IOTA), Const("s_b", IOTA), Const("f", IOTA), cc("univ"), cc("emptyset"),
)
_GEN_FUNS = (Const("f", arrow(IOTA, IOTA)), cc("power"), Var("F", arrow(IOTA, IOTA)))
_GEN_PREDS = (Const("p", arrow(IOTA, OMICRON)), Const("in", IOTA))


def _gen_set(rng, depth, bound):
    k = rng.randrange(12 if depth > 0 else 3)
    if k == 0:
        return rng.choice(_GEN_SETS)
    if k == 1:
        return rng.choice(_GEN_FREE[:3] + tuple(Var(n, IOTA) for n in sorted(bound)))
    if k == 2:
        return Var(rng.choice(_GEN_BINDERS), IOTA)
    d = depth - 1
    if k in (3, 4):
        return App(rng.choice(_GEN_FUNS), _gen_set(rng, d, bound))
    if k == 5:
        return ite(_gen_prop(rng, d, bound), _gen_set(rng, d, bound), _gen_set(rng, d, bound))
    if k in (6, 7):
        return _gen_sep(rng, d, bound)
    if k == 8:  # a separation at the head of a spine
        return app(_gen_sep(rng, d, bound), *[_gen_set(rng, d, bound) for _ in range(rng.randint(1, 2))])
    if k == 9:  # an if-then-else at the head of a spine
        return App(ite(_gen_prop(rng, d, bound), _gen_set(rng, d, bound), rng.choice(_GEN_FUNS)),
                   _gen_set(rng, d, bound))
    if k == 10:
        name = rng.choice(_GEN_BINDERS)
        return App(Lam(name, IOTA, _gen_set(rng, d, bound | {name})), _gen_set(rng, d, bound))
    return app(cc("ord_add"), _gen_set(rng, d, bound), _gen_set(rng, d, bound))


def _gen_sep(rng, depth, bound):
    name = rng.choice(_GEN_BINDERS)
    if rng.randrange(4) == 0:  # parameter-free
        return separation(name, rng.choice(_GEN_SETS), _gen_prop(rng, depth, frozenset({name})))
    return separation(name, _gen_set(rng, depth, bound), _gen_prop(rng, depth, bound | {name}))


def _gen_prop(rng, depth, bound):
    k = rng.randrange(13 if depth > 0 else 2)
    if k == 0:
        return rng.choice((TRUE, FALSE))
    if k == 1:
        return App(rng.choice(_GEN_PREDS), _gen_set(rng, 0, bound))
    d = depth - 1
    if k in (2, 3):
        return mem(_gen_set(rng, d, bound), _gen_set(rng, d, bound))
    if k == 4:
        return subq(_gen_set(rng, d, bound), _gen_set(rng, d, bound))
    if k == 5:  # membership and subset at the head of a spine
        head = rng.choice((mem, subq))(_gen_set(rng, d, bound), _gen_set(rng, d, bound))
        return App(head, _gen_set(rng, d, bound))
    if k == 6:
        return neg(_gen_prop(rng, d, bound))
    if k in (7, 8):
        ctor = rng.choice((conj, disj, imp, iff))
        return ctor(_gen_prop(rng, d, bound), _gen_prop(rng, d, bound))
    if k == 9:
        return eq(_gen_set(rng, d, bound), _gen_set(rng, d, bound))
    name = rng.choice(_GEN_BINDERS)
    ctor = rng.choice((forall, exists, forall))
    return ctor(name, IOTA, _gen_prop(rng, d, bound | {name}))


def _gen_premise(rng):
    depth = rng.randint(1, 5)
    if rng.randrange(5):
        return _gen_prop(rng, depth, frozenset())
    # a separation next to an alpha variant of itself, and nested in a third
    sep = _gen_sep(rng, depth - 1, frozenset())
    fresh = next(n for n in ("W", "W1", "W2", "W3") if n not in repr(sep))
    bound, pred = sep.fn.arg, sep.arg
    variant = separation(fresh, bound, substitute(pred.body, {pred.name: Var(fresh, IOTA)}))
    outer = separation("Z", variant, mem(Var("Z", IOTA), sep))
    return conj(mem(_gen_set(rng, 1, frozenset()), sep),
                conj(subq(variant, sep), mem(cc("univ"), outer)))


def _pin_consts(record):
    return [(c.name, render_type(c.ty)) for c in record.consts]


def test_render_premise_differential_pinned():
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for i in range(2000):
        role = rng.choice(("axiom", "axiom", "definition", "conjecture"))
        rec = th0.render_premise(f"ax_{i}", role, _gen_premise(rng))
        seps = [(sep, d.text, _pin_consts(d), d.seps) for sep, d in rec.seps]
        digest.update(repr((rec.text, _pin_consts(rec), seps)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == RENDER_PREMISE_DIGEST


def test_catalog_needs_of_a_record_equal_catalog_needs_of_its_term():
    # the corpus of test_render_premise_differential_pinned
    rng = random.Random(2027)
    for i in range(2000):
        role = rng.choice(("axiom", "axiom", "definition", "conjecture"))
        term = _gen_premise(rng)
        record = th0.render_premise(f"ax_{i}", role, term)
        assert th0.catalog_needs(record) == frozenset(catalog_needs([term])), i


# Hand-built separations for the hoisting pin: nested two and three deep
# with parameters, and free variables whose key names (P0, P1, SEPX) an
# inner binder also takes, where the key's renaming captures.
_B, _C, _X, _Y, _Z = (Var(n, IOTA) for n in ("B", "C", "X", "Y", "Z"))
_F = Var("F", arrow(IOTA, IOTA))
_P0, _P1, _SEPX = Var("P0", IOTA), Var("P1", IOTA), Var("SEPX", IOTA)
_S = Const("s_a", IOTA)
_SEP_CASES = [
    # two deep: the inner separation takes the outer element and B
    forall("B", IOTA, mem(_S, separation("X", _B, mem(_X, separation("Y", _X, mem(_Y, _B)))))),
    # three deep, each level over the one outside it and over B and C
    separation("X", _B, mem(_X, separation("Y", _X, subq(_Y, separation("Z", _Y, conj(mem(_Z, _X), mem(_C, _B))))))),
    # three deep through the bound, a conditional and a head position
    mem(_S, separation("X", separation("Y", ite(mem(_B, _S), _B, _C), mem(_Y, separation("Z", _C, eq(_Z, _Y)))),
                App(separation("Z", _X, TRUE), _B))),
    # B becomes P0 under a binder named P0
    mem(_S, separation("X", _S, forall("P0", IOTA, mem(_B, _P0)))),
    # C becomes P1 under a binder named P1, B becomes P0 beside it
    mem(_S, separation("X", _B, exists("P1", IOTA, conj(mem(_C, _P1), mem(_X, _B))))),
    # the element becomes SEPX under a binder named SEPX
    mem(_S, separation("X", _S, exists("SEPX", IOTA, eq(_X, _SEPX)))),
    # a free P0 is itself a parameter (P1); a binder P0 suspends its renaming
    mem(_S, separation("X", _B, conj(mem(_X, _P0), forall("P0", IOTA, mem(_P0, _B))))),
    # a free SEPX moves the element to SEPX_; a binder X suspends the element
    mem(_S, separation("X", _SEPX, conj(mem(_X, _B), exists("X", IOTA, mem(_X, _SEPX))))),
    # the element is free in the bound: the definition's element is X_elem
    mem(_S, separation("X", _X, mem(_X, _B))),
    # an inner separation under a binder of an outer parameter's name, and
    # under a binder P0 that captures the renamed B of the one inside
    mem(_S, separation("X", _B, App(Lam("B", IOTA, mem(_X, separation("Y", _B, mem(_Y, _C)))), _S))),
    mem(_S, separation("X", _S, forall("P0", IOTA, mem(_P0, separation("Y", _B, mem(_Y, _X)))))),
    # a parameter of function type, and a repeat and an alpha variant
    conj(mem(_S, separation("X", App(_F, _B), mem(App(_F, _X), _B))),
         subq(separation("Y", App(_F, _B), mem(App(_F, _Y), _B)), separation("X", App(_F, _B), mem(App(_F, _X), _B)))),
]
SEP_PIN_DIGEST = "934991780f1c324d213494d764200304eb9bcd4b37c1efe96c49b1fa348a78a6"


def test_sep_hoisting_pinned():
    digest = hashlib.sha256()
    for i, term in enumerate(_SEP_CASES):
        rec = th0.render_premise(f"ax_{i}", "axiom", term)
        seps = [(sep, d.text, _pin_consts(d), d.seps) for sep, d in rec.seps]
        assert seps, i
        digest.update(repr((rec.text, _pin_consts(rec), seps)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == SEP_PIN_DIGEST
