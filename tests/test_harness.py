"""Config parsing, SZS classification, and batch-run bookkeeping."""

import os
import signal
import stat
import time

import pytest

from sumok2set import harness as hn


def make_script(dir, name, body):
    path = os.path.join(str(dir), name)
    with open(path, "w") as fh:
        fh.write("#!/bin/sh\n" + body)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return path


def test_parse_config_basic():
    cfg = hn.parse_config(
        "# comment\n"
        "\n"
        "prover.e = eprover --auto {file} --cpu-limit={timeout}\n"
        "kb = merge.kif\n"
        "kb = extra.kif\n"
        "query = q1.kif\n"
        "skip_head = holdsDuring\n"
        "timeout = 12.5\n"
        "jobs = 4\n"
        "out_dir = out\n",
        base_dir="/base",
    )
    assert len(cfg.provers) == 1
    p = cfg.provers[0]
    assert p.name == "e"
    assert p.template == ("eprover", "--auto", "{file}", "--cpu-limit={timeout}")
    assert cfg.kbs == ["/base/merge.kif", "/base/extra.kif"]
    assert cfg.queries == ["/base/q1.kif"]
    assert cfg.skip_heads == ["holdsDuring"]
    assert cfg.timeout == 12.5
    assert cfg.jobs == 4
    assert cfg.out_dir == "/base/out"


def test_parse_config_quoted_command_words():
    cfg = hn.parse_config('prover.z = zipperposition "--mode=ho competitive" {file}\n')
    assert cfg.provers[0].template == ("zipperposition", "--mode=ho competitive", "{file}")


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(hn.ConfigError, match="line 2: expected key = value"):
        hn.parse_config("timeout = 1\nnot a pair\n")
    with pytest.raises(hn.ConfigError, match="line 1: empty value"):
        hn.parse_config("kb =\n")
    with pytest.raises(hn.ConfigError, match="line 3: unknown key 'frobnicate'"):
        hn.parse_config("timeout = 1\njobs = 1\nfrobnicate = yes\n")
    with pytest.raises(hn.ConfigError, match="prover needs a name"):
        hn.parse_config("prover. = foo {file}\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("jobs = two", "jobs must be a positive integer, not 'two'"),
        ("jobs = 0", "jobs must be a positive integer, not '0'"),
        ("jobs = -3", "jobs must be a positive integer, not '-3'"),
        ("jobs = 1.5", "jobs must be a positive integer, not '1.5'"),
        ("timeout = soon", "timeout must be a positive finite number, not 'soon'"),
        ("timeout = inf", "timeout must be a positive finite number, not 'inf'"),
        ("timeout = nan", "timeout must be a positive finite number, not 'nan'"),
        ("timeout = -5", "timeout must be a positive finite number, not '-5'"),
        ("timeout = 0", "timeout must be a positive finite number, not '0'"),
        ("timeout = 1e400", "timeout must be a positive finite number, not '1e400'"),
        ("timeout = 1e10", "timeout must be at most 1000000 seconds, not '1e10'"),
    ],
)
def test_parse_config_rejects_bad_numbers_with_line_numbers(line, message):
    with pytest.raises(hn.ConfigError) as err:
        hn.parse_config("kb = a.kif\n" + line + "\n")
    assert str(err.value) == "line 2: " + message


def test_parse_config_accepts_positive_numbers():
    cfg = hn.parse_config("timeout = 0.5\njobs = 1\n")
    assert (cfg.timeout, cfg.jobs) == (0.5, 1)
    # the largest timeout a config may give
    cfg = hn.parse_config("timeout = 1000000\n")
    assert cfg.timeout == hn.MAX_TIMEOUT_SECONDS == 1_000_000


def test_load_config_joins_relative_to_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("kb = kb/merge.kif\nquery = q.kif\nprover.x = x {file}\n")
    cfg = hn.load_config(str(cfg_file))
    assert cfg.kbs == [str(tmp_path / "kb" / "merge.kif")]
    assert cfg.queries == [str(tmp_path / "q.kif")]


def test_prover_argv_substitution():
    p = hn.ProverDef("e", ("eprover", "{file}", "--cpu-limit={timeout}"))
    assert p.argv("/tmp/a.p", 30.0) == ["eprover", "/tmp/a.p", "--cpu-limit=30"]


def test_prover_argv_rounds_a_fractional_timeout_up():
    # int() would hand a 0.5 s budget to the prover as 0
    p = hn.ProverDef("e", ("eprover", "--cpu-limit={timeout}", "{file}"))
    assert p.argv("a.p", 0.5) == ["eprover", "--cpu-limit=1", "a.p"]
    assert p.argv("a.p", 2.25) == ["eprover", "--cpu-limit=3", "a.p"]
    assert p.argv("a.p", 3.0) == ["eprover", "--cpu-limit=3", "a.p"]


def test_parse_szs_first_line_wins():
    out = "% comment\n% SZS status Theorem for x\n% SZS status GaveUp\n"
    assert hn.parse_szs(out) == "Theorem"


def test_parse_szs_resourceout_maps_to_timeout():
    assert hn.parse_szs("% SZS status ResourceOut\n") == "Timeout"


def test_parse_szs_absent():
    assert hn.parse_szs("nothing to see\n") is None
    assert hn.parse_szs("") is None
    # a status line with no word after it is skipped
    assert hn.parse_szs("% SZS status\n% SZS status CounterSatisfiable\n") == "CounterSatisfiable"


def test_percent_cell_half_up():
    assert hn.percent_cell(1, 3) == "1 (33%)"
    assert hn.percent_cell(2, 3) == "2 (67%)"
    assert hn.percent_cell(1, 8) == "1 (13%)"
    assert hn.percent_cell(2, 5) == "2 (40%)"
    assert hn.percent_cell(1, 2) == "1 (50%)"
    assert hn.percent_cell(3, 3) == "3 (100%)"
    assert hn.percent_cell(0, 4) == "0 (0%)"
    assert hn.percent_cell(0, 0) == "0 (0%)"


def test_resolve_executable_literal_path(tmp_path):
    exe = make_script(tmp_path, "tool", "exit 0\n")
    assert hn.resolve_executable(exe) == exe
    assert hn.resolve_executable(str(tmp_path / "missing")) is None


def test_resolve_executable_env_path_precedence(tmp_path, monkeypatch):
    first = tmp_path / "a"
    second = tmp_path / "b"
    first.mkdir()
    second.mkdir()
    make_script(first, "dupe", "echo first\n")
    make_script(second, "dupe", "echo second\n")
    monkeypatch.setenv(hn.PROVER_PATH_ENV, str(first))
    monkeypatch.setenv("PATH", str(second) + os.pathsep + os.environ.get("PATH", ""))
    assert hn.resolve_executable("dupe") == str(first / "dupe")
    monkeypatch.delenv(hn.PROVER_PATH_ENV)
    assert hn.resolve_executable("dupe") == str(second / "dupe")


def test_run_one_missing_executable_is_error_without_spawn(tmp_path):
    prover = hn.ProverDef("ghost", ("no-such-prover-here", "{file}"))
    res = hn.run_one(prover, str(tmp_path / "q.p"), 1.0)
    assert res.outcome == hn.OUTCOME_ERROR
    assert "not found" in res.detail
    assert res.seconds == 0.0


def test_run_one_theorem(tmp_path):
    exe = make_script(tmp_path, "yes.sh", 'echo "% SZS status Theorem for $1"\n')
    prover = hn.ProverDef("yes", (exe, "{file}"))
    problem = tmp_path / "q.p"
    problem.write_text("thf(conj, conjecture, $true).\n")
    res = hn.run_one(prover, str(problem), 5.0)
    assert res.outcome == hn.OUTCOME_THEOREM
    assert res.prover == "yes"
    assert res.query == "q.p"
    assert res.detail == ""


def test_run_one_szs_on_stderr(tmp_path):
    exe = make_script(tmp_path, "err.sh", 'echo "% SZS status CounterSatisfiable" 1>&2\n')
    prover = hn.ProverDef("err", (exe, "{file}"))
    res = hn.run_one(prover, str(tmp_path / "q.p"), 5.0)
    assert res.outcome == hn.OUTCOME_COUNTERSAT


def test_run_one_no_status_is_gaveup(tmp_path):
    exe = make_script(tmp_path, "mute.sh", "echo thinking...\n")
    prover = hn.ProverDef("mute", (exe, "{file}"))
    res = hn.run_one(prover, str(tmp_path / "q.p"), 5.0)
    assert res.outcome == hn.OUTCOME_GAVEUP
    assert res.detail == "no SZS status line"


def test_run_one_wall_clock_timeout(tmp_path):
    exe = make_script(tmp_path, "slow.sh", "sleep 30\n")
    prover = hn.ProverDef("slow", (exe, "{file}"))
    res = hn.run_one(prover, str(tmp_path / "q.p"), 0.2)
    assert res.outcome == hn.OUTCOME_TIMEOUT
    assert res.detail == "wall clock limit"
    # killed shortly after timeout + grace, well before the sleep ends
    assert res.seconds < 0.2 + hn.GRACE_SECONDS + 1.5


def _alive(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: a signalable pid counts as alive
        return True


def test_run_one_timeout_kills_the_process_group(tmp_path):
    # the stub backgrounds one grandchild and records its pid
    exe = make_script(tmp_path, "wrapper.sh", 'sleep 30 &\necho $! > "$1.pid"\nwait\n')
    prover = hn.ProverDef("wrapper", (exe, "{file}"))
    problem = tmp_path / "q.p"
    res = hn.run_one(prover, str(problem), 0)
    pid = int((tmp_path / "q.p.pid").read_text())
    try:
        assert res.outcome == hn.OUTCOME_TIMEOUT
        deadline = time.monotonic() + 5.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)
    finally:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


def test_run_one_unexecutable_path_is_error(tmp_path):
    plain = tmp_path / "notexec"
    plain.write_text("not a program\n")
    prover = hn.ProverDef("bad", (str(plain), "{file}"))
    res = hn.run_one(prover, str(tmp_path / "q.p"), 1.0)
    assert res.outcome == hn.OUTCOME_ERROR
    assert res.detail


def test_run_all_keeps_pair_order(tmp_path):
    exe = make_script(tmp_path, "ok.sh", 'echo "% SZS status Theorem"\n')
    provers = [hn.ProverDef("p1", (exe, "{file}")), hn.ProverDef("p2", (exe, "{file}"))]
    files = [str(tmp_path / "a.p"), str(tmp_path / "b.p")]
    results = hn.run_all(provers, files, 5.0, jobs=3)
    assert [(r.query, r.prover) for r in results] == [
        ("a.p", "p1"),
        ("a.p", "p2"),
        ("b.p", "p1"),
        ("b.p", "p2"),
    ]


def test_aggregate_buckets_unknown_words_as_gaveup():
    results = [
        hn.JobResult("a.p", "e", "Theorem", 0.1),
        hn.JobResult("b.p", "e", "Satisfiable", 0.1),
        hn.JobResult("c.p", "e", "Unknown", 0.1),
    ]
    counts = hn.aggregate(results)["e"]
    assert counts[hn.OUTCOME_THEOREM] == 1
    assert counts[hn.OUTCOME_GAVEUP] == 2


def test_format_table_alignment_and_order():
    results = [
        hn.JobResult("a.p", "zip", "Theorem", 0.1),
        hn.JobResult("b.p", "zip", "Timeout", 0.1),
        hn.JobResult("c.p", "zip", "Theorem", 0.1),
        hn.JobResult("a.p", "ep", "Theorem", 0.1),
        hn.JobResult("b.p", "ep", "GaveUp", 0.1),
        hn.JobResult("c.p", "ep", "Error", 0.1),
    ]
    table = hn.format_table(results)
    lines = table.splitlines()
    assert lines[0].split() == [
        "prover",
        "proved",
        "Theorem",
        "CounterSatisfiable",
        "Timeout",
        "GaveUp",
        "Error",
    ]
    # provers sorted by name
    assert lines[1].startswith("ep")
    assert lines[2].startswith("zip")
    assert "1 (33%)" in lines[1]
    assert "2 (67%)" in lines[2]
    # columns align: every "proved" cell starts at the same offset
    offset = lines[0].index("proved")
    assert lines[1][offset:].startswith("1 (33%)")
    assert lines[2][offset:].startswith("2 (67%)")
    assert not any(line.endswith(" ") for line in lines)


def test_write_tsv_format(tmp_path):
    out = tmp_path / "results.tsv"
    results = [
        hn.JobResult("a.p", "e", "Theorem", 0.1234, ""),
        hn.JobResult("b.p", "e", "Timeout", 2.5, "wall clock limit"),
    ]
    hn.write_tsv(str(out), results)
    lines = out.read_text().splitlines()
    assert lines[0] == "query\tprover\toutcome\tseconds\tdetail"
    assert lines[1] == "a.p\te\tTheorem\t0.123\t"
    assert lines[2] == "b.p\te\tTimeout\t2.500\twall clock limit"


def test_write_tsv_escapes_detail(tmp_path):
    out = tmp_path / "results.tsv"
    detail = "boom\tat line 3\nsee C:\\tmp\r"
    hn.write_tsv(str(out), [hn.JobResult("a.p", "e", "Error", 1.0, detail)])
    rows = out.read_text(encoding="utf-8").split("\n")
    assert rows[2:] == [""]
    fields = rows[1].split("\t")
    assert len(fields) == 5
    assert fields[4] == "boom\\tat line 3\\nsee C:\\\\tmp\\r"


def test_scripted_provers_reproduce_manifest(tmp_path):
    body = (
        'case "$1" in\n'
        '  *one*) echo "% SZS status Theorem";;\n'
        '  *two*) echo "% SZS status CounterSatisfiable";;\n'
        '  *) echo "no answer";;\n'
        "esac\n"
    )
    exe = make_script(tmp_path, "stub.sh", body)
    prover = hn.ProverDef("stub", (exe, "{file}"))
    files = []
    for stem in ("one", "two", "three"):
        p = tmp_path / f"{stem}.p"
        p.write_text("thf(conj, conjecture, $true).\n")
        files.append(str(p))
    results = hn.run_all([prover], files, 5.0, jobs=2)
    assert [r.outcome for r in results] == ["Theorem", "CounterSatisfiable", "GaveUp"]
    table = hn.format_table(results)
    row = table.splitlines()[1].split()
    assert row[0] == "stub"
    assert row[1:3] == ["1", "(33%)"]
    assert row[3:] == ["1", "1", "0", "1", "0"]
