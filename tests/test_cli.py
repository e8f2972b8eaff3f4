"""End-to-end runs of the command line front end."""

import fnmatch
import importlib.metadata
import json
import os
import re
import resource
import stat
import subprocess
import sys

import pytest

from conftest import NESTED_KAPPA, fixture_path
from sumok2set import cli

KB = fixture_path("merge_fragment.kif")
# inputs of the tests below that each command also meets in a process of its own
STRAY = b'(instance Bob Human)\r\n; a comment (with a paren\n(p "a string\nover two lines") )\n'
DEEP_KIF = b"(query (p " + b"(f " * 150 + b"a" + b")" * 150 + b"))\n"
DEEP_P = b"thf(ty_a, type, a : $o).\nthf(conj, conjecture, %s).\n" % (
    b"(~ " * 2000 + b"a" + b")" * 2000
)
DEEP_LEMMAS = b"((" + b"(ordsucc @ " * 1500 + b"emptyset" + b")" * 1500 + b") = emptyset)\n"
# 9^6 and 8^4 as von Neumann numerals: nat(531441) alone would take hundreds
# of gigabytes, and nat(4096) takes hundreds of megabytes in ten units of fuel
HUGE_NUMERAL = b"((ord_exp @ ord9 @ ord6) = emptyset)\n"
BIG_NUMERAL = b"(~ (subq @ (ord_exp @ ord8 @ ord4) @ ord2))\n"
# past the interpreter's limit of 4,300 digits on reading a string as an int
LONG_NUMERAL = b"(query (equal ?X " + b"7" * 5001 + b"))\n"
# flat forms whose translation once nested past the interpreter's stack
WIDE_ATOM = b"(query (p " + b" ".join(b"A%d" % i for i in range(1000)) + b"))\n"
WIDE_DOMAIN = b"(instance p Predicate)\n(domain p 1200 Entity)\n(p a)\n"
# a flat conjunction whose translation, a right-nested chain, renders past
# the interpreter's stack
FLAT_AND = b"(query (and " + b" ".join(b"(p A%d)" % i for i in range(1, 1001)) + b"))\n"
# the power set of nat(16) has 65,536 members
BIG_POWER_SET = b"((power @ (ord_mult @ ord4 @ ord4)) = emptyset)\n"
PROCESS_INPUTS = {
    "bad.kif": b"\xff\xfe", "bad.p": b"\xff\xfe", "stray.kif": STRAY, "deep.kif": DEEP_KIF,
    "deep.p": DEEP_P, "deep.lemmas": DEEP_LEMMAS, "kappa.kif": NESTED_KAPPA.encode(),
    "huge.lemmas": HUGE_NUMERAL, "long-numeral.kif": LONG_NUMERAL, "wide-atom.kif": WIDE_ATOM,
    "wide-domain.kif": WIDE_DOMAIN, "p.kif": b"(query (p ?X))\n", "flat.kif": FLAT_AND,
    "capped.cfg": f"kb = {KB}\nquery = kappa.kif\ntimeout = 3000000\nout_dir = capped\n".encode(),
    "kappa.cfg": f"kb = {KB}\nquery = kappa.kif\nout_dir = runs\n".encode(),
    # run configs whose outputs cannot be written: the out_dir lies under a
    # plain file, or a directory stands where run writes a file
    "under-file.cfg": f"kb = {KB}\nquery = kappa.kif\nout_dir = kappa.kif/runs\n".encode(),
    "summary.cfg": f"kb = {KB}\nquery = kappa.kif\nout_dir = summary\n".encode(),
    "problem.cfg": f"kb = {KB}\nquery = kappa.kif\nout_dir = problem\n".encode(),
    "table.cfg": f"kb = {KB}\nquery = kappa.kif\nout_dir = table\nprover.stub = true {{file}}\n".encode(),
}
# directories made beside PROCESS_INPUTS, each where a run config writes a file
PROCESS_DIRS = ("summary/kb-summary.txt", "problem/problems/kappa.p", "table/results.tsv")


# the address space each command run in a process of its own may take, so a
# run that builds a huge set fails alone instead of starving the host
PROCESS_MEMORY_CAP = 512 * 2**20


def run_process(argv, cwd):
    """The command run as `python -m sumok2set.cli` under PROCESS_MEMORY_CAP."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (PROCESS_MEMORY_CAP, PROCESS_MEMORY_CAP))

    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "sumok2set.cli", *argv], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap, timeout=120,
    )


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def make_script(dir, name, body):
    path = os.path.join(str(dir), name)
    with open(path, "w") as fh:
        fh.write("#!/bin/sh\n" + body)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def test_main_calls_share_the_parser_and_no_option_state(tmp_path, capsys, monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parsed = []
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: parsed.append(parse(argv)) or parsed[-1])
    missing = str(tmp_path / "missing")
    for argv in (
        ["translate", "--kb", missing, "--skip-head", "H", missing],
        ["translate", missing],
        ["check", "--keep-going", missing],
        ["check", missing],
    ):
        assert run_cli(argv, capsys)[0] == 1
    first, second, keep_going, plain = parsed
    assert (first.kb, first.skip_head) == ([missing], ["H"])
    assert (second.kb, second.skip_head) == ([], [])
    assert (keep_going.keep_going, plain.keep_going) == (True, False)


# --- translate ---


def test_translate_to_stdout(capsys):
    code, out, err = run_cli(
        [
            "translate",
            fixture_path("tqg3.kif"),
            "--kb",
            fixture_path("merge_fragment.kif"),
            "--reproducible",
        ],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert "thf(conj, conjecture," in out
    assert "thf(ty_in, type, in" in out


# the last comment lines --explain-guards writes, and the conjecture: a class
# with a host term of its own as the problem writes it, in a subset guard
# and a range-heuristic one, an expanded row domain, and no guard from the
# range heuristic where the other side is an application of a variable head
@pytest.mark.parametrize(
    "kb,query,flags,tail,conjecture",
    [
        (
            "(domainSubclass likes 1 Class)", "(query (exists (?C) (likes ?C Bob)))", [],
            ["% exists ?C:", "%   C: subset of (power @ univ)"],
            "(?[C : $i]: ((subq @ C @ (power @ univ)) & (istrue @ (ap @ s_likes @ (listset @ (cons @ C"
            " @ (cons @ s_Bob @ nil)))))))",
        ),
        (
            "(range age Class)", "(query (exists (?C) (equal ?C (age Bob))))", [],
            ["% exists ?C:", "%   C: member of (power @ univ) [range-heuristic]"],
            "(?[C : $i]: ((in @ C @ (power @ univ)) & (C = (ap @ s_age @ (listset @ (cons @ s_Bob @"
            " nil))))))",
        ),
        (
            "(range age Class)", "(query (exists (?X ?F) (equal ?X (?F a))))", [],
            ["% guard derivations: none"],
            "(?[X : $i]: (?[F : $i]: (X = (ap @ F @ (listset @ (cons @ s_a @ nil))))))",
        ),
        (
            None, "(query (exists (@ROW) (partition @ROW)))", ["--expand-row-domains"],
            ["% exists @ROW:", "%   ROW: spine in expanded variadic domain of arity 2"],
            "(?[ROW : $i > $i]: ((dom_of_varar @ ord2 @ (^[I : $i]: (ite @ (I = ord0) @ set_or_class @"
            " (ite @ (I = ord1) @ set_or_class @ (ite @ (I = ord2) @ set_or_class @ emptyset)))) @ ROW)"
            " & (istrue @ (ap @ s_partition @ (listset @ ROW)))))",
        ),
    ],
    ids=["subset-guard", "range-heuristic", "variable-head", "expanded-row"],
)
def test_translate_explains_guards_as_the_problem_writes_them(
    tmp_path, capsys, kb, query, flags, tail, conjecture
):
    kb_path = KB
    if kb is not None:
        kb_path = str(tmp_path / "kb.kif")
        (tmp_path / "kb.kif").write_text(kb + "\n")
    (tmp_path / "q.kif").write_text(query + "\n")
    code, out, err = run_cli(
        ["translate", str(tmp_path / "q.kif"), "--kb", kb_path, "--reproducible", "--explain-guards", *flags],
        capsys,
    )
    assert (code, err) == (0, "")
    comments = [line for line in out.splitlines() if line.startswith("%")]
    assert comments[-len(tail):] == tail
    # the conjecture is the last record, its wrapped lines joined again
    assert " ".join(out[out.index("thf(conj, conjecture, ") :].split()) == (
        f"thf(conj, conjecture, {conjecture})."
    )


def test_translate_to_file(tmp_path, capsys):
    out_file = tmp_path / "problem.p"
    code, out, err = run_cli(
        [
            "translate",
            fixture_path("tqg3.kif"),
            "--kb",
            fixture_path("merge_fragment.kif"),
            "--reproducible",
            "-o",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    text = out_file.read_text()
    assert text.endswith("\n")
    assert "thf(conj, conjecture," in text
    from sumok2set import th0

    assert th0.check_text(text) == []


def test_translate_syntax_error_plain(tmp_path, capsys):
    bad = tmp_path / "bad.kif"
    bad.write_text("(query (instance ?X\n")
    code, out, err = run_cli(["translate", str(bad)], capsys)
    assert code == 1
    assert "error:" in err
    assert "bad.kif" in err


def test_translate_errors_json(tmp_path, capsys):
    bad = tmp_path / "bad.kif"
    bad.write_text("(query (instance ?X\n")
    code, out, err = run_cli(["translate", str(bad), "--errors-json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    entry = payload[0]
    assert set(entry) == {"file", "line", "col", "error"}
    assert entry["file"].endswith("bad.kif")
    assert entry["line"] == 1
    assert entry["error"]


def test_translate_missing_query_form(tmp_path, capsys):
    nofq = tmp_path / "noquery.kif"
    nofq.write_text("(instance Bob Human)\n")
    code, out, err = run_cli(["translate", str(nofq), "--errors-json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert "query" in payload[0]["error"]


def test_translate_selection_keeps_named_premises_and_their_defs(tmp_path, capsys, cold_memo):
    out_file = tmp_path / "tqg3.p"
    names = "def_len,rel_s_partition_arity,kb_merge_fragment_0"
    argv = ["translate", "--reproducible", "--kb", KB, "-o", str(out_file), "--selection", names]
    assert run_cli(argv + [fixture_path("tqg3.kif")], capsys) == (0, "", "")
    records = re.findall(r"^thf\((\w+),", out_file.read_text(), re.M)
    # def_len's record brings its separation definition
    assert sorted(r for r in records if not r.startswith("ty_")) == [
        "conj", "def_len", "def_sep_97e9aa6f7e2e", "kb_merge_fragment_0", "rel_s_partition_arity"
    ]
    assert run_cli(["check", str(out_file)], capsys) == (0, f"{out_file}: ok\n", "")


def test_translate_selection_unknown_name(capsys):
    # the names come from the command line, so the error names the option,
    # not the query file
    names = "kb_merge_fragment_0,nosuch"
    argv = ["translate", fixture_path("tqg3.kif"), "--kb", KB, "--selection", names]
    message = "unknown premise name(s): nosuch"
    assert run_cli(argv, capsys) == (1, "", f"error: --selection: {message}\n")
    code, out, err = run_cli(argv + ["--errors-json"], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == [{"file": None, "line": None, "col": None, "error": message}]


def test_translate_skips_a_binder_list_skip_head_and_renames_an_index_binder(
    tmp_path, capsys, cold_memo
):
    kb, q, out_file = tmp_path / "moved.kif", tmp_path / "nidx.kif", tmp_path / "nidx.p"
    kb.write_text("(forall ((holdsDuring ?T)) (p ?T))\n(domain p 1 Human)\n")
    q.write_text("(query (exists (@ROW ?NIDX) (and (p @ROW ?NIDX) (p ?NIDX))))\n")
    argv = ["translate", "--reproducible", "--kb", str(kb), "-o", str(out_file), str(q)]
    assert run_cli(argv, capsys) == (0, "", "")
    text = out_file.read_text()
    assert f"% skipped {kb}:1: modal head 'holdsDuring'" in text.splitlines()
    assert "^[NIDX0 : $i]" in text
    assert run_cli(["check", str(out_file)], capsys) == (0, f"{out_file}: ok\n", "")


def test_translate_stray_paren_is_located_in_both_formats(tmp_path, capsys):
    # after a CRLF line, a comment holding '(' and a string over two lines
    stray = tmp_path / "stray.kif"
    stray.write_bytes(STRAY)
    code, out, err = run_cli(["translate", str(stray)], capsys)
    assert (code, out, err) == (1, "", f"error: {stray}:4:18: unmatched ')'\n")
    code, out, _err = run_cli(["translate", "--errors-json", str(stray)], capsys)
    (e,) = json.loads(out)
    assert (code, e["line"], e["col"], e["error"]) == (1, 4, 18, "unmatched ')'")


def test_translate_signature_error_is_located(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.kif").write_text("(domain ?R 1 Foo)\n")
    (tmp_path / "q.kif").write_text("(query (instance Bob Human))\n")
    code, out, err = run_cli(["translate", "q.kif", "--kb", "bad.kif"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: bad.kif:1:1: domain declaration is not ground\n"

    code, out, err = run_cli(["translate", "q.kif", "--kb", "bad.kif", "--errors-json"], capsys)
    assert code == 1
    assert json.loads(out) == [
        {"file": "bad.kif", "line": 1, "col": 1, "error": "domain declaration is not ground"}
    ]


def test_translate_missing_kb_is_located(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.kif").write_text("(query (instance Bob Human))\n")
    code, out, err = run_cli(["translate", "q.kif", "--kb", "missing.kif"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: missing.kif: No such file or directory\n"

    code, out, err = run_cli(
        ["translate", "q.kif", "--kb", "missing.kif", "--errors-json"], capsys
    )
    assert code == 1
    assert json.loads(out) == [
        {"file": "missing.kif", "line": None, "col": None, "error": "No such file or directory"}
    ]


def test_translate_query_form_in_kb_is_located_in_the_kb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kbq.kif").write_text("(instance Bob Human)\n(query (instance Bob Human))\n")
    (tmp_path / "q.kif").write_text("(query (instance Bob Human))\n")
    message = "query form inside knowledge base file kbq.kif"
    code, out, err = run_cli(["translate", "q.kif", "--kb", "kbq.kif"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: kbq.kif:2:1: {message}\n"

    code, out, err = run_cli(["translate", "q.kif", "--kb", "kbq.kif", "--errors-json"], capsys)
    assert code == 1
    assert json.loads(out) == [{"file": "kbq.kif", "line": 2, "col": 1, "error": message}]


def test_translate_non_utf8_kb_is_located(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.kif").write_text("(query (instance ?X Human))\n")
    # a bad byte in the middle of the second line
    (tmp_path / "kb.kif").write_bytes(b"(instance a B)\n(instance b \xe9C)\n")
    code, out, err = run_cli(["translate", "q.kif", "--kb", "kb.kif"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: kb.kif:2:13: not UTF-8 text: invalid continuation byte\n"
    # the column counts characters: the two-byte é before the bad byte is one
    (tmp_path / "kb.kif").write_bytes(b"(instance a B)\n(instance \xc3\xa9 \xe9C)\n")
    code, out, err = run_cli(["translate", "q.kif", "--kb", "kb.kif"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: kb.kif:2:13: not UTF-8 text: invalid continuation byte\n"
    (tmp_path / "q.kif").write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["translate", "q.kif"], capsys)
    assert (code, err) == (1, "error: q.kif:1:1: not UTF-8 text: invalid start byte\n")


def test_deep_input_ends_in_an_error_line_not_a_traceback(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.kif").write_bytes(DEEP_KIF)
    code, out, err = run_cli(["translate", "q.kif"], capsys)
    assert (code, out, err) == (1, "", "error: q.kif:1:197: lists nested deeper than 64\n")
    (tmp_path / "deep.p").write_bytes(DEEP_P)
    code, out, err = run_cli(["check", "deep.p"], capsys)
    assert (code, out, err) == (1, "deep.p: parse error: formulas nested too deeply\n", "")
    (tmp_path / "deep.lemmas").write_bytes(DEEP_LEMMAS)
    code, out, err = run_cli(["oracle", "deep.lemmas"], capsys)
    assert (code, out, err) == (2, "", "error: deep.lemmas:1: formulas nested too deeply\n")


def test_a_form_translated_past_the_stack_is_a_located_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flat.kif").write_bytes(FLAT_AND)
    code, out, err = run_cli(["translate", "flat.kif"], capsys)
    assert (code, out, err) == (1, "", "error: flat.kif:1:1: formulas nested too deeply\n")


def test_translate_missing_query_is_located(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["translate", "nope.kif"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: nope.kif: No such file or directory\n"


def test_translate_unwritable_output_is_located(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["translate", fixture_path("tqg3.kif"), "--kb", fixture_path("merge_fragment.kif")]
    code, out, err = run_cli(argv + ["-o", "no-dir/out.p"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: no-dir/out.p: No such file or directory\n"

    code, out, err = run_cli(argv + ["-o", "no-dir/out.p", "--errors-json"], capsys)
    assert code == 1
    assert json.loads(out) == [
        {"file": "no-dir/out.p", "line": None, "col": None, "error": "No such file or directory"}
    ]
    assert not (tmp_path / "no-dir").exists()


# --- oracle ---


def test_oracle_all_hold(capsys):
    code, out, err = run_cli(["oracle", fixture_path("claims.lemmas")], capsys)
    assert code == 0
    assert "6/6 claims hold" in out


def test_oracle_failure_exit_one(tmp_path, capsys):
    lemmas = tmp_path / "wrong.lemmas"
    lemmas.write_text("((len @ nil) = (ordsucc @ emptyset))\n")
    code, out, err = run_cli(["oracle", str(lemmas)], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "0/1 claims hold" in out


def test_oracle_syntax_error_exit_two(tmp_path, capsys):
    lemmas = tmp_path / "junk.lemmas"
    lemmas.write_text("((len @ nil = emptyset)\n")
    code, out, err = run_cli(["oracle", str(lemmas)], capsys)
    assert code == 2
    assert "error:" in err


def test_oracle_missing_file_exit_two(tmp_path, capsys):
    code, out, err = run_cli(["oracle", str(tmp_path / "nope.lemmas")], capsys)
    assert code == 2


def test_oracle_non_utf8_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.lemmas"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["oracle", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}:1:1: not UTF-8 text: invalid start byte\n"


def test_oracle_refuses_numerals_past_the_bound(tmp_path):
    # each claim ends in an ERROR line as soon as the size of the set is
    # known, before any of it is built; at --fuel 100 the second one would
    # otherwise build nat(4096) and hold
    lemmas = tmp_path / "big.lemmas"
    lemmas.write_bytes(HUGE_NUMERAL + BIG_NUMERAL + BIG_POWER_SET)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = run_process(["oracle", "--fuel", "100", str(lemmas)], tmp_path)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (done.returncode, done.stderr) == (1, ""), done.stderr
    assert done.stdout == (
        "claim 1 (line 1): ERROR ordinal arithmetic past the numeral bound 2048\n"
        "claim 2 (line 2): ERROR ordinal arithmetic past the numeral bound 2048\n"
        "claim 3 (line 3): ERROR power set past the numeral bound 2048\n"
        "0/3 claims hold\n"
    )
    # CPU time of the whole process, interpreter start included
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1.0


# the KIF front end and the batch runner, which neither oracle nor check runs
NOT_IMPORTED = (
    "sumok2set.translate", "sumok2set.sumo", "sumok2set.signature", "sumok2set.guards",
    "sumok2set.harness",
)


@pytest.mark.parametrize("command", ["oracle", "check"])
def test_oracle_and_check_import_only_what_they_run(command, tmp_path):
    if command == "oracle":
        argv = ["oracle", fixture_path("claims.lemmas")]
    else:
        problem = str(tmp_path / "tqg3.p")
        assert cli.main(["translate", fixture_path("tqg3.kif"), "--kb", KB, "-o", problem]) == 0
        argv = ["check", problem]
    script = (
        "import sys\n"
        "from sumok2set import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(code, [m for m in {NOT_IMPORTED!r} if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert done.stderr == ""
    assert done.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("fuel", ["0", "-5", "x"])
def test_oracle_fuel_must_be_a_positive_integer(fuel, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["oracle", "--fuel", fuel, fixture_path("claims.lemmas")])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument --fuel: not a positive integer: {fuel!r}" in err


def test_oracle_horizon_is_fixed(tmp_path, capsys):
    # omega's members are listed up to hforacle.HORIZON; no option moves it
    lemmas = tmp_path / "omega.lemmas"
    lemmas.write_text("(?[X : $i]: ((in @ X @ omega) & (X = ord0)))\n")
    code, out, err = run_cli(["oracle", str(lemmas)], capsys)
    assert (code, err) == (0, "")
    assert "1/1 claims hold" in out
    with pytest.raises(SystemExit):
        cli.main(["oracle", "--horizon=-1", str(lemmas)])


# --- check ---


def test_check_ok_and_bad_files(tmp_path, capsys):
    from sumok2set import th0, translate

    problem, _, _ = translate.translate_query_job(
        [fixture_path("merge_fragment.kif")], fixture_path("tqg3.kif")
    )
    good = tmp_path / "good.p"
    good.write_text(th0.problem_text(problem, reproducible=True))
    bad = tmp_path / "bad.p"
    bad.write_text("thf(conj, conjecture, (undeclared_thing @ x)).\n")

    code, out, err = run_cli(["check", str(good)], capsys)
    assert code == 0
    assert out.strip() == f"{good}: ok"

    code, out, err = run_cli(["check", str(good), str(bad)], capsys)
    assert code == 1
    assert f"{good}: ok" in out

    # without keep-going the first bad file stops the walk
    code, out, err = run_cli(["check", str(bad), str(good)], capsys)
    assert code == 1
    assert f"{good}: ok" not in out

    code, out, err = run_cli(["check", "--keep-going", str(bad), str(good)], capsys)
    assert code == 1
    assert f"{good}: ok" in out


def _tampered(text):
    """Four faulty copies of a fixture problem, each by whole records."""
    line = "thf(ty_nat_p, type, nat_p : $i > $o)."
    retyped = text.replace(line, line.replace("$o", "$i"))
    line = "thf(ty_ordsucc, type, ordsucc : $i > $i).\n"
    moved = text.replace(line, "").replace("thf(conj,", line + "thf(conj,")
    first, second = re.findall(r"^thf\((\w+), axiom,", text, re.M)[:2]
    duplicated = text.replace(f"thf({second}, axiom,", f"thf({first}, axiom,", 1)
    line = "thf(kb_merge_fragment_42, axiom, (in @ "
    broken = text.replace(line, line + "@ ")  # a parse error in a middle premise
    return {"retyped": retyped, "moved": moved, "duplicated": duplicated, "broken": broken}


def test_check_of_many_files_prints_what_one_check_per_file_prints(tmp_path, capsys, monkeypatch):
    from sumok2set import th0

    paths = []
    for q in ("tqg3", "tqg11", "tqg22alt4", "tqg27", "wordex"):
        out_file = tmp_path / f"{q}.p"
        kb = fixture_path("merge_fragment.kif")
        code, _out, _err = run_cli(
            ["translate", "--reproducible", "--kb", kb, "-o", str(out_file), fixture_path(f"{q}.kif")],
            capsys,
        )
        assert code == 0
        paths.append(str(out_file))
    for name, text in _tampered((tmp_path / "tqg3.p").read_text()).items():
        (tmp_path / f"{name}.p").write_text(text)
        paths.append(str(tmp_path / f"{name}.p"))

    def check(files):
        monkeypatch.setattr(th0, "CHECK_MEMO", th0.RecordMemo(th0.MEMO_BYTES))
        return run_cli(["check", "--keep-going", *files], capsys)

    # the tampered copies last meet a warm memo, first a cold one
    for order, codes in ((paths, [0] * 5 + [1] * 4), (paths[::-1], [1] * 4 + [0] * 5)):
        alone = [check([path]) for path in order]
        assert [c for c, _o, _e in alone] == codes
        code, out, err = check(order)
        assert out == "".join(o for _c, o, _e in alone)
        assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == 10  # the retyped copy has two diagnostics
    assert all(line.endswith(": ok") for line in lines[5:])
    assert f"{tmp_path / 'retyped.p'}: def_natp: ill-typed: expected $o, found $i" in lines
    assert lines[0].startswith(f"{tmp_path / 'broken.p'}: parse error at ")


def test_check_missing_file(tmp_path, capsys):
    code, out, err = run_cli(["check", str(tmp_path / "ghost.p")], capsys)
    assert code == 1
    assert "ERROR" in out


def test_check_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.p"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 1
    assert out == f"{bad}: ERROR {bad}:1:1: not UTF-8 text: invalid start byte\n"


# --- run ---


def write_run_config(tmp_path, prover_lines, timeout="5"):
    cfg = tmp_path / "run.cfg"
    lines = [
        f"kb = {fixture_path('merge_fragment.kif')}",
        f"query = {fixture_path('tqg3.kif')}",
        f"query = {fixture_path('wordex.kif')}",
        f"out_dir = {tmp_path / 'runs'}",
        f"timeout = {timeout}",
        "jobs = 2",
    ]
    lines.extend(prover_lines)
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def test_run_without_provers_writes_problems(tmp_path, capsys):
    cfg = write_run_config(tmp_path, [])
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0
    assert "no provers configured" in out
    problems = tmp_path / "runs" / "problems"
    assert sorted(os.listdir(problems)) == ["tqg3.p", "wordex.p"]
    summary = (tmp_path / "runs" / "kb-summary.txt").read_text()
    assert "premises" in summary
    assert "tqg3" in summary and "wordex" in summary
    from sumok2set import th0

    for name in ("tqg3.p", "wordex.p"):
        assert th0.check_text((problems / name).read_text()) == []


def test_run_with_stub_prover_table_and_tsv(tmp_path, capsys):
    body = (
        'case "$1" in\n'
        '  *tqg3*) echo "% SZS status Theorem";;\n'
        '  *) echo "% SZS status CounterSatisfiable";;\n'
        "esac\n"
    )
    exe = make_script(tmp_path, "stub.sh", body)
    cfg = write_run_config(tmp_path, [f"prover.stub = {exe} {{file}}"])
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0
    lines = out.splitlines()
    header = [l for l in lines if l.startswith("prover")]
    assert header, out
    row = [l for l in lines if l.startswith("stub")][0].split()
    assert row[1:3] == ["1", "(50%)"]
    tsv = (tmp_path / "runs" / "results.tsv").read_text().splitlines()
    assert tsv[0] == "query\tprover\toutcome\tseconds\tdetail"
    assert len(tsv) == 3
    assert tsv[1].startswith("tqg3.p\tstub\tTheorem\t")
    assert tsv[2].startswith("wordex.p\tstub\tCounterSatisfiable\t")


def test_run_bad_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert "error:" in err

    code, out, err = run_cli(["run", str(tmp_path / "missing.cfg")], capsys)
    assert code == 2


def test_run_bad_number_in_config_is_a_located_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line in ("jobs = two", "timeout = inf", "timeout = -5", "timeout = 3000000"):
        cfg.write_text(f"kb = {fixture_path('merge_fragment.kif')}\n{line}\n")
        code, out, err = run_cli(["run", str(cfg)], capsys)
        assert code == 2, line
        assert err.startswith("error: line 2: "), err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()


def test_run_config_without_queries_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kb = {fixture_path('merge_fragment.kif')}\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert "no query files" in err


def test_run_keep_going_past_bad_query(tmp_path, capsys):
    bad = tmp_path / "broken.kif"
    bad.write_text("(query (instance ?X\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"kb = {fixture_path('merge_fragment.kif')}",
                f"query = {bad}",
                f"query = {fixture_path('tqg3.kif')}",
                f"out_dir = {tmp_path / 'runs'}",
            ]
        )
        + "\n"
    )
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 1
    assert not (tmp_path / "runs" / "problems" / "tqg3.p").exists()

    code, out, err = run_cli(["run", str(cfg), "--keep-going"], capsys)
    assert code == 1
    assert "FAILED" in out
    assert (tmp_path / "runs" / "problems" / "tqg3.p").exists()
    summary = (tmp_path / "runs" / "kb-summary.txt").read_text()
    assert "FAILED" in summary


def test_run_keep_going_past_non_utf8_query(tmp_path, capsys):
    bad = tmp_path / "bad.kif"
    bad.write_bytes(b"\xff\xfe")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"kb = {fixture_path('merge_fragment.kif')}",
                f"query = {bad}",
                f"query = {fixture_path('tqg3.kif')}",
                f"out_dir = {tmp_path / 'runs'}",
            ]
        )
        + "\n"
    )
    code, out, err = run_cli(["run", str(cfg), "--keep-going"], capsys)
    assert code == 1
    assert f"{bad}: FAILED: {bad}:1:1: not UTF-8 text: invalid start byte" in out
    assert (tmp_path / "runs" / "problems" / "tqg3.p").exists()
    # a config file that is not UTF-8 is an error of the command
    cfg.write_bytes(b"kb = \xff\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert (code, err) == (2, f"error: {cfg}:1:6: not UTF-8 text: invalid start byte\n")


def test_run_signature_error_fails_the_query(tmp_path, capsys):
    bad = tmp_path / "bad.kif"
    bad.write_text("(domain ?R 1 Foo)\n(query (instance ?X Human))\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"kb = {fixture_path('merge_fragment.kif')}",
                f"query = {bad}",
                f"query = {fixture_path('tqg3.kif')}",
                f"out_dir = {tmp_path / 'runs'}",
            ]
        )
        + "\n"
    )
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 1
    assert f"{bad}:1:1: domain declaration is not ground" in err
    assert not (tmp_path / "runs" / "problems" / "tqg3.p").exists()

    code, out, err = run_cli(["run", str(cfg), "--keep-going"], capsys)
    assert code == 1
    assert f"{bad}: FAILED: {bad}:1:1: domain declaration is not ground" in out
    assert (tmp_path / "runs" / "problems" / "tqg3.p").exists()


def run_failures(tmp_path, capsys, kb_text, query_text, keep_going):
    """Run a KB and two queries (one written here, then tqg3); exit code and summary."""
    kb, q = tmp_path / "kb.kif", tmp_path / "q.kif"
    kb.write_text(kb_text)
    q.write_text(query_text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"kb = {kb}\nquery = {q}\nquery = {fixture_path('tqg3.kif')}\n"
        f"out_dir = {tmp_path / 'runs'}\n"
    )
    code, _out, _err = run_cli(["run", str(cfg)] + (["--keep-going"] if keep_going else []), capsys)
    return code, (tmp_path / "runs" / "kb-summary.txt").read_text().splitlines(), kb, q


# Each query of a run fails as the job on its own fails: the KB's reader
# errors first, then the query's, then signature errors (the KB's
# declarations before the query's), then translation errors.


def test_run_kb_reader_error_fails_every_query(tmp_path, capsys):
    kb_text = "(instance Bob Human)\n(query (p\n"
    query = "(query (instance Bob Human))\n"
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, False)
    assert code == 1
    assert summary == [f"{q}: FAILED: {kb}:2:8: unclosed '('"]
    # an error located in another file than the query names the query too
    _code, _out, err = run_cli(["run", str(tmp_path / "run.cfg")], capsys)
    assert err == f"error: {q}: {kb}:2:8: unclosed '('\n"
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, True)
    assert code == 1
    assert summary == [
        f"{q}: FAILED: {kb}:2:8: unclosed '('",
        f"{fixture_path('tqg3.kif')}: FAILED: {kb}:2:8: unclosed '('",
    ]


def test_run_query_reader_error_comes_before_kb_signature_error(tmp_path, capsys):
    kb_text, query = "(domain ?R 1 Foo)\n", "(query (p\n"
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, False)
    assert code == 1
    assert summary == [f"{q}: FAILED: {q}:1:8: unclosed '('"]
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, True)
    assert code == 1
    assert summary == [
        f"{q}: FAILED: {q}:1:8: unclosed '('",
        f"{fixture_path('tqg3.kif')}: FAILED: {kb}:1:1: domain declaration is not ground",
    ]


def test_run_query_signature_error_comes_before_kb_translation_error(tmp_path, capsys):
    kb_text = "(instance Bob Human)\n(query (p a))\n"
    query = "(domain ?R 1 Foo)\n(query (p b))\n"
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, False)
    assert code == 1
    assert summary == [f"{q}: FAILED: {q}:1:1: domain declaration is not ground"]
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, True)
    assert code == 1
    assert summary == [
        f"{q}: FAILED: {q}:1:1: domain declaration is not ground",
        f"{fixture_path('tqg3.kif')}: FAILED: {kb}:2:1: query form inside knowledge base file {kb}",
    ]


def test_run_second_query_form_is_located(tmp_path, capsys):
    kb_text = "(instance Bob Human)\n"
    query = "(query (p a))\n(query (p b))\n"
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, False)
    assert code == 1
    assert summary == [f"{q}: FAILED: {q}:2:1: more than one query form"]
    _code, _out, err = run_cli(["run", str(tmp_path / "run.cfg")], capsys)
    assert err == f"error: {q}:2:1: more than one query form\n"


def test_run_query_constant_mangling_onto_a_kb_name_fails_that_query(tmp_path, capsys, monkeypatch):
    # mangle is injective; a case-folding one makes the collision reachable
    from sumok2set import translate

    monkeypatch.setattr(translate, "mangle", lambda name: "s_" + translate.escape(name.lower()))
    kb_text, query = "(instance Bob Human)\n", "(query (instance bob Human))\n"
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, False)
    assert code == 1
    assert summary == [f"{q}: FAILED: 'bob' and 'Bob' both mangle to 's_bob'"]
    _code, _out, err = run_cli(["run", str(tmp_path / "run.cfg")], capsys)
    assert err == f"error: {q}: 'bob' and 'Bob' both mangle to 's_bob'\n"
    code, summary, kb, q = run_failures(tmp_path, capsys, kb_text, query, True)
    assert code == 1
    problem = tmp_path / "runs" / "problems" / "tqg3.p"
    assert summary == [
        f"{q}: FAILED: 'bob' and 'Bob' both mangle to 's_bob'",
        f"{fixture_path('tqg3.kif')}: 15 premises, 0 skipped forms -> {problem}",
    ]


def test_run_rejects_queries_writing_the_same_problem(tmp_path, capsys):
    paths = [tmp_path / "a" / "q.kif", tmp_path / "b" / "q.kif"]
    for path in paths:
        path.parent.mkdir()
        path.write_text("(query (instance ?X Human))\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"kb = {fixture_path('merge_fragment.kif')}",
                f"query = {paths[0]}",
                f"query = {paths[1]}",
                f"out_dir = {tmp_path / 'runs'}",
            ]
        )
        + "\n"
    )
    code, out, err = run_cli(["run", str(cfg), "--keep-going"], capsys)
    assert code == 2
    assert err == (
        f"error: query files {paths[0]} and {paths[1]} would both write problems/q.p\n"
    )
    # rejected before anything is translated or written
    assert not (tmp_path / "runs").exists()


def test_run_skip_head_config(tmp_path, capsys):
    # an explicit skip_head list replaces the default modal skips
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"kb = {fixture_path('merge_fragment.kif')}",
                f"query = {fixture_path('tqg3.kif')}",
                f"out_dir = {tmp_path / 'runs'}",
                "skip_head = lessThanOrEqualTo",
            ]
        )
        + "\n"
    )
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0
    summary = (tmp_path / "runs" / "kb-summary.txt").read_text()
    assert "lessThanOrEqualTo" in summary


@pytest.mark.parametrize(
    "out_dir, blocked, reason",
    [
        ("file/runs", "file/runs", "Not a directory"),
        ("runs", "runs/kb-summary.txt", "Is a directory"),
        ("runs", "runs/problems/tqg3.p", "Is a directory"),
        ("runs", "runs/results.tsv", "Is a directory"),
    ],
)
def test_run_names_an_output_path_it_cannot_write(tmp_path, capsys, out_dir, blocked, reason):
    (tmp_path / "file").write_text("")
    if blocked != "file/runs":
        (tmp_path / blocked).mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"kb = {KB}\nquery = {fixture_path('tqg3.kif')}\nout_dir = {tmp_path / out_dir}\n"
        + ("prover.stub = true {file}\n" if blocked.endswith(".tsv") else "")
    )
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert err == f"error: {tmp_path / blocked}: {reason}\n"


# Only a process of its own shows the exit code and what reaches stderr when
# an error escapes cli.main, as a traceback.  The tests above pin each output,
# and fail on any error that escapes cli.main in-process.
PROCESS_RUNS = [
    (["translate", "bad.kif"], 1),
    (["check", "bad.p"], 1),
    (["translate", "--errors-json", "stray.kif"], 1),
    (["translate", "deep.kif"], 1),
    (["translate", "long-numeral.kif"], 1),
    (["translate", "wide-atom.kif"], 1),
    (["translate", "--kb", "wide-domain.kif", "p.kif"], 1),
    (["translate", "flat.kif"], 1),
    (["check", "deep.p"], 1),
    (["oracle", "deep.lemmas"], 2),
    (["oracle", "--fuel", "0", fixture_path("claims.lemmas")], 2),
    (["oracle", "huge.lemmas"], 1),
    (["run", "capped.cfg"], 2),
    (["translate", "--explain-guards", "--kb", KB, "kappa.kif"], 0),
    (["run", "kappa.cfg"], 0),
    (["run", "under-file.cfg"], 2),
    (["run", "summary.cfg"], 2),
    (["run", "problem.cfg"], 2),
    (["run", "table.cfg"], 2),
]


@pytest.mark.parametrize(
    "argv, code", PROCESS_RUNS, ids=[" ".join(map(os.path.basename, a)) for a, _ in PROCESS_RUNS]
)
def test_cli_process_exits_without_a_traceback(argv, code, tmp_path):
    for name, data in PROCESS_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    for name in PROCESS_DIRS:
        (tmp_path / name).mkdir(parents=True)
    done = run_process(argv, tmp_path)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [["oracle", fixture_path("claims.lemmas")], ["check", "mid.p"]])
def test_a_closed_standard_output_ends_without_a_traceback(argv, tmp_path):
    # the reader closes its end before the command writes: the write fails
    # with EPIPE, which the command meets as BrokenPipeError
    (tmp_path / "mid.p").write_text("thf(ty_a, type, a : $o).\nthf(conj, conjecture, (a => a)).\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "sumok2set.cli", *argv], cwd=tmp_path, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml"
)


def pyproject():
    """The repository's pyproject.toml, as a dict."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def project_scripts():
    """The `[project.scripts]` table of the repository's pyproject.toml."""
    return pyproject()["project"]["scripts"]


def test_package_data_covers_every_data_file():
    # a file of the package that no package-data glob names is left out of
    # an installed copy, which then cannot load it
    globs = pyproject()["tool"]["setuptools"]["package-data"]["sumok2set"]
    package = os.path.dirname(cli.__file__)
    data = []
    for root, dirs, files in os.walk(package):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in files:
            if not name.endswith(".py"):
                data.append(os.path.relpath(os.path.join(root, name), package).replace(os.sep, "/"))
    assert "catalog.p" in data
    for path in data:
        assert any(fnmatch.fnmatchcase(path, glob) for glob in globs), path


def distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_entry_point():
    # the declared script must name a callable that exists, so load it
    value = project_scripts().get("sumok2set")
    assert value == "sumok2set.cli:main"
    ep = importlib.metadata.EntryPoint(
        name="sumok2set", value=value, group="console_scripts"
    )
    assert ep.load() is cli.main


@pytest.mark.skipif(
    not distribution_installed("sumok2set"),
    reason="sumok2set distribution not installed",
)
def test_installed_console_script_matches_pyproject():
    dist = importlib.metadata.distribution("sumok2set")
    eps = dist.entry_points.select(group="console_scripts")
    assert {e.name: e.value for e in eps} == project_scripts()
