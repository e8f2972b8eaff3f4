"""Acceptance gate: seven checks, one test and one printed verdict line each.

Each check wraps its body in the criterion() context manager, which prints
"criterion N: PASS/FAIL (t s) ..." and enforces the runtime bound.  Run
with -s to see the verdict lines on success.
"""

import os
import random
import stat
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import fixture_path, lower_one, sig_from
from termhelpers import alpha_eq, conj, imp, mem, separation
from sumok2set import catalog, cli, harness, hforacle, th0, translate
from sumok2set.catalog import cc, ord_of
from sumok2set.hostterm import (
    App,
    Const,
    IOTA,
    Var,
    app,
    forall,
    imp_chain,
    typecheck,
)
from sumok2set.translate import LIST, Translator


@contextmanager
def criterion(n, bound, desc):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL ({time.monotonic() - start:.2f}s) {desc}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {n}: PASS ({elapsed:.2f}s, bound {bound:.0f}s) {desc}")
    assert elapsed < bound, f"criterion {n} took {elapsed:.2f}s, bound {bound}s"


def istrue(t):
    return App(cc("istrue"), t)


def ap_list(rel, items):
    lst = cc("nil")
    for it in reversed(items):
        lst = app(cc("cons"), it, lst)
    return app(cc("ap"), rel, App(cc("listset"), lst))


def ap_row(rel, row):
    return app(cc("ap"), rel, App(cc("listset"), row))


def dom_of_generic(rel, row):
    return app(
        cc("dom_of"),
        App(cc("vararity"), rel),
        App(cc("arity"), rel),
        App(cc("domseq"), rel),
        row,
    )


def dm(rel, j):
    return app(cc("domseqm"), rel, ord_of(j))


VARIADIC_SIG = (
    "(instance partition VariableArityRelation)"
    "(domain partition 1 SetOrClass)"
    "(domain partition 2 SetOrClass)"
    "(instance exhaustiveDecomposition VariableArityRelation)"
    "(domain exhaustiveDecomposition 1 SetOrClass)"
    "(domain exhaustiveDecomposition 2 SetOrClass)"
    "(instance disjointDecomposition VariableArityRelation)"
    "(domain disjointDecomposition 1 SetOrClass)"
    "(domain disjointDecomposition 2 SetOrClass)"
)


def _translate(src, sig_src):
    return Translator(sig_from(sig_src)).close_assertion(lower_one(src))


def _golden_row_rule():
    got = _translate(
        "(forall (@ROW)"
        " (=> (partition @ROW)"
        "     (and (exhaustiveDecomposition @ROW) (disjointDecomposition @ROW))))",
        VARIADIC_SIG,
    )
    p = Const("s_partition", IOTA)
    e = Const("s_exhaustiveDecomposition", IOTA)
    d = Const("s_disjointDecomposition", IOTA)
    rho = Var("R", LIST)
    expected = forall(
        "R",
        LIST,
        imp_chain(
            [dom_of_generic(p, rho), dom_of_generic(e, rho), dom_of_generic(d, rho)],
            imp(
                istrue(ap_row(p, rho)),
                conj(istrue(ap_row(e, rho)), istrue(ap_row(d, rho))),
            ),
        ),
    )
    return got, expected


def _golden_swap_rule():
    got = _translate("(=> (partition ?X ?Y ?Z) (partition ?X ?Z ?Y))", VARIADIC_SIG)
    p = Const("s_partition", IOTA)
    x, y, z = (Var(n, IOTA) for n in "XYZ")
    expected = forall(
        "X",
        IOTA,
        forall(
            "Y",
            IOTA,
            forall(
                "Z",
                IOTA,
                imp_chain(
                    [
                        mem(x, dm(p, 0)),
                        mem(y, dm(p, 1)),
                        mem(z, dm(p, 2)),
                        mem(z, dm(p, 1)),
                        mem(y, dm(p, 2)),
                    ],
                    imp(
                        istrue(ap_list(p, [x, y, z])),
                        istrue(ap_list(p, [x, z, y])),
                    ),
                ),
            ),
        ),
    )
    return got, expected


def _golden_subrelation_rule():
    got = _translate(
        "(=> (and (subrelation ?REL1 ?REL2)"
        "         (instance ?REL1 Predicate)"
        "         (instance ?REL2 Predicate)"
        "         (?REL1 @ROW))"
        "    (?REL2 @ROW))",
        "(domain subrelation 1 Relation)(domain subrelation 2 Relation)",
    )
    sr = Const("s_subrelation", IOTA)
    pred = Const("s_Predicate", IOTA)
    r1, r2 = Var("R1", IOTA), Var("R2", IOTA)
    rho = Var("RHO", LIST)
    expected = forall(
        "R1",
        IOTA,
        forall(
            "R2",
            IOTA,
            forall(
                "RHO",
                LIST,
                imp_chain(
                    [
                        mem(r1, dm(sr, 0)),
                        mem(r2, dm(sr, 1)),
                        mem(r1, cc("entity")),
                        mem(r2, cc("entity")),
                        dom_of_generic(r1, rho),
                        dom_of_generic(r2, rho),
                    ],
                    imp(
                        conj(
                            istrue(ap_list(sr, [r1, r2])),
                            conj(
                                mem(r1, pred),
                                conj(mem(r2, pred), istrue(ap_row(r1, rho))),
                            ),
                        ),
                        istrue(ap_row(r2, rho)),
                    ),
                ),
            ),
        ),
    )
    return got, expected


def _golden_class_membership():
    got = _translate(
        "(instance o (KappaFn ?P (and (instance ?P Planet) (attribute ?P Earthlike))))",
        "(domain attribute 1 Object)(domain attribute 2 Attribute)",
    )
    attr = Const("s_attribute", IOTA)
    p = Var("P", IOTA)
    expected = mem(
        Const("s_o", IOTA),
        separation(
            "P",
            cc("univ"),
            conj(
                mem(p, cc("entity")),
                conj(
                    mem(p, dm(attr, 0)),
                    conj(
                        mem(p, Const("s_Planet", IOTA)),
                        istrue(ap_list(attr, [p, Const("s_Earthlike", IOTA)])),
                    ),
                ),
            ),
        ),
    )
    return got, expected


def test_criterion_1_golden_translations():
    with criterion(1, 5.0, "four golden translations alpha-equivalent, guards in order"):
        for build in (
            _golden_row_rule,
            _golden_swap_rule,
            _golden_subrelation_rule,
            _golden_class_membership,
        ):
            got, expected = build()
            assert alpha_eq(got, expected), build.__name__


TEN_ARY_KB = (
    "(instance partition VariableArityRelation)\n"
    "(domain partition 1 SetOrClass)\n"
    "(domain partition 2 SetOrClass)\n"
    "(partition Thing C1 C2 C3 C4 C5 C6 C7 C8 C9)\n"
)


def test_criterion_2_no_arity_ceiling(tmp_path):
    with criterion(2, 5.0, "6-argument premise emitted, 10-argument analogue emits too"):
        prob, _, _ = translate.translate_query_job(
            [fixture_path("merge_fragment.kif")], fixture_path("wordex.kif")
        )
        text = th0.problem_text(prob, reproducible=True)
        six = [
            ln
            for ln in text.split("thf(")
            if "s_partition" in ln
            and all(
                f"s_{w}" in ln
                for w in ("Word", "Noun", "Verb", "Adjective", "Adverb", "ParticleWord")
            )
        ]
        assert six, "6-argument partition premise missing"
        assert six[0].count("cons") == 6
        assert "s_exhaustiveDecomposition" in text.split("conjecture")[1]

        kb = tmp_path / "ten.kif"
        kb.write_text(TEN_ARY_KB)
        query = tmp_path / "tenq.kif"
        query.write_text("(query (partition Thing C1 C2 C3 C4 C5 C6 C7 C8 C9))\n")
        prob10, _, _ = translate.translate_query_job([str(kb)], str(query))
        text10 = th0.problem_text(prob10, reproducible=True)
        assert th0.check_text(text10) == []
        premise10 = [
            ln for ln in text10.split("thf(") if ln.startswith("kb_ten_") and "s_C9" in ln
        ]
        assert premise10 and premise10[0].count("cons") == 10


def test_criterion_3_finite_set_oracle(tmp_path):
    with criterion(3, 60.0, "all six identities hold over small sets, seeded wrong one fails"):
        results = hforacle.run_lemma_file(fixture_path("claims.lemmas"))
        assert len(results) == 6
        assert all(r.ok for r in results)
        assert [r.checked for r in results] == [1, 5456, 5456, 21824, 256, 5456]

        wrong = tmp_path / "wrong.lemmas"
        wrong.write_text("![X:set, R:list]: ((len @ (cons @ X @ R)) = (len @ R))\n")
        bad = hforacle.run_lemma_file(str(wrong))
        assert len(bad) == 1
        assert not bad[0].ok
        assert bad[0].counterexample


def test_criterion_4_rational_encoding():
    with criterion(4, 10.0, "1000 sampled scaled decimals decode exactly, named cases too"):
        env = {name: catalog.CATALOG.type_of(name) for name in catalog.CATALOG.order}
        named = [(112, 1), (3, 0), (4, 0), (12, 0)]
        for n, s in named:
            term = catalog.encode_rational(n, s)
            assert typecheck(term, env) == IOTA
            assert catalog.rational_value(term) == Fraction(n, 10**s)

        rng = random.Random(20260822)
        seen = set()
        while len(seen) < 1000:
            n = rng.randint(-(10**6), 10**6)
            s = rng.randint(0, 4)
            while s > 0 and n != 0 and n % 10 == 0:
                n //= 10
                s -= 1
            if n == 0:
                s = 0
            seen.add((n, s))
        for n, s in seen:
            assert catalog.rational_value(catalog.encode_rational(n, s)) == Fraction(n, 10**s)


FIXTURE_QUERIES = ("tqg3.kif", "tqg11.kif", "tqg22alt4.kif", "tqg27.kif", "wordex.kif")


def test_criterion_5_emission_validity(tmp_path):
    with criterion(5, 10.0, "every fixture and generated problem checks clean, render is idempotent"):
        kb = fixture_path("merge_fragment.kif")
        jobs = []
        for q in FIXTURE_QUERIES:
            jobs.append(translate.translate_query_job([kb], fixture_path(q)))
            jobs.append(
                translate.translate_query_job([kb], fixture_path(q), expand_known_rows=True)
            )
        gen_kb = tmp_path / "ten.kif"
        gen_kb.write_text(TEN_ARY_KB)
        gen_q = tmp_path / "tenq.kif"
        gen_q.write_text("(query (partition Thing C1 C2 C3 C4 C5 C6 C7 C8 C9))\n")
        jobs.append(translate.translate_query_job([str(gen_kb)], str(gen_q)))

        assert len(jobs) == 11
        for prob, _skips, _tr in jobs:
            text = th0.problem_text(prob, reproducible=True)
            assert th0.check_text(text) == []
            assert th0.render_doc(th0.parse_doc(text)) == text


def _stub_prover(dir, name, body):
    path = os.path.join(str(dir), name)
    with open(path, "w") as fh:
        fh.write("#!/bin/sh\n" + body)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def test_criterion_6_harness_fidelity(tmp_path):
    with criterion(6, 90.0, "stub provers reproduce the expected manifest, timeouts within grace"):
        kb = fixture_path("merge_fragment.kif")
        files = []
        for q in FIXTURE_QUERIES:
            prob, _, _ = translate.translate_query_job([kb], fixture_path(q))
            out = tmp_path / (os.path.splitext(q)[0] + ".p")
            out.write_text(th0.problem_text(prob, reproducible=True))
            files.append(str(out))

        exe = _stub_prover(
            tmp_path,
            "alpha.sh",
            'case "$1" in\n'
            '  *tqg3*|*tqg11*) echo "% SZS status Theorem";;\n'
            '  *wordex*) echo "% SZS status CounterSatisfiable";;\n'
            '  *tqg27*) echo "% SZS status ResourceOut";;\n'
            '  *) echo "thinking";;\n'
            "esac\n",
        )
        prover = harness.ProverDef("alpha", (exe, "{file}"))
        results = harness.run_all([prover], files, 5.0, jobs=2)

        manifest = [
            ("tqg3.p", "Theorem"),
            ("tqg11.p", "Theorem"),
            ("tqg22alt4.p", "GaveUp"),
            ("tqg27.p", "Timeout"),
            ("wordex.p", "CounterSatisfiable"),
        ]
        got = sorted((r.query, r.outcome) for r in results)
        assert got == sorted(manifest)
        table = harness.format_table(results)
        expected_table = harness.format_table(
            [harness.JobResult(q, "alpha", o, 0.0) for q, o in manifest]
        )
        assert table == expected_table
        assert "2 (40%)" in table

        slow = _stub_prover(tmp_path, "slow.sh", "sleep 30\n")
        slow_prover = harness.ProverDef("slow", (slow, "{file}"))
        start = time.monotonic()
        res = harness.run_one(slow_prover, files[0], 0.5)
        wall = time.monotonic() - start
        assert res.outcome == harness.OUTCOME_TIMEOUT
        assert res.detail == "wall clock limit"
        assert wall < 0.5 + harness.GRACE_SECONDS + 1.0


def test_criterion_7_published_rates_out_of_scope(tmp_path, capsys):
    # Published prover success rates (for one prover, 3765/4880 = 77%) come
    # from a 4880-problem corpus produced with proof-assistant tooling and
    # from licensed external provers; neither ships here, so those rates are
    # checked nowhere in this suite.  Criteria 1-6 stand in for them.  What
    # must still hold: a batch run over the fixture corpus executes end to
    # end and yields a well-formed table with whatever provers exist.
    with criterion(7, 90.0, "published benchmark rates out of scope; batch run still works"):
        exe = _stub_prover(tmp_path, "local.sh", 'echo "% SZS status GaveUp"\n')
        cfg = tmp_path / "run.cfg"
        lines = [f"kb = {fixture_path('merge_fragment.kif')}"]
        lines += [f"query = {fixture_path(q)}" for q in FIXTURE_QUERIES]
        lines += [
            f"out_dir = {tmp_path / 'runs'}",
            "timeout = 5",
            "jobs = 2",
            f"prover.local = {exe} {{file}}",
        ]
        cfg.write_text("\n".join(lines) + "\n")
        code = cli.main(["run", str(cfg)])
        out, _err = capsys.readouterr()
        assert code == 0
        table_lines = [l for l in out.splitlines() if l.startswith(("prover", "local"))]
        assert len(table_lines) == 2
        header = table_lines[0].split()
        assert header == [
            "prover",
            "proved",
            "Theorem",
            "CounterSatisfiable",
            "Timeout",
            "GaveUp",
            "Error",
        ]
        row = table_lines[1].split()
        assert row[0] == "local"
        assert row[1:3] == ["0", "(0%)"]
        tsv = (tmp_path / "runs" / "results.tsv").read_text().splitlines()
        assert len(tsv) == 1 + len(FIXTURE_QUERIES)
    print(
        "criterion 7 note: published success rates (3765/4880 = 77% for the"
        " strongest prover) require the original 4880-problem corpus and"
        " licensed provers, so they are not reproducible at desk scale;"
        " criteria 1-6 substitute structural, oracle, and emission checks."
    )
