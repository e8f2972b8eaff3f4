"""Tests of the benchmark's own parts: spans, self times and the generator.

    python3 -m pytest bench/test_bench.py
"""

import os
import random
import subprocess
import threading
import time

import pytest

import run
import spans
import workload as wl

MODS = run.load_program()


def _by_op(tracer):
    out = {}
    for s in tracer.spans:
        out.setdefault(s.op, []).append(s)
    return out


def _assert_self_within_wall(tracer):
    selfs = spans.self_times(tracer.spans)
    for op_spans in _by_op(tracer).values():
        [root] = [s for s in op_spans if s.name.startswith("op.")]
        by_thread = {}
        for s in op_spans:
            by_thread.setdefault(s.thread, 0.0)
            by_thread[s.thread] += selfs[s.sid]
        # spans on one thread never overlap their siblings, so their self
        # times partition part of the op's wall time
        assert by_thread[root.thread] <= root.dur + 1e-9
        assert all(selfs[s.sid] >= -1e-9 for s in op_spans)


def test_self_times_of_nested_spans():
    tr = spans.Tracer()
    with tr.op("demo"):
        with tr.span("outer"):
            time.sleep(0.01)
            with tr.span("inner"):
                time.sleep(0.01)
            with tr.span("inner"):
                time.sleep(0.01)
    selfs = spans.self_times(tr.spans)
    named = {s.name: s for s in tr.spans}
    outer = named["outer"]
    inner_total = sum(s.dur for s in tr.spans if s.name == "inner")
    assert selfs[outer.sid] == pytest.approx(outer.dur - inner_total)
    assert sum(selfs.values()) <= named["op.demo"].dur + 1e-9
    _assert_self_within_wall(tr)


def test_overlapping_children_count_once():
    tr = spans.Tracer()
    with tr.op("pool"):
        with tr.span("parent", pool_parent=True):

            def child():
                with tr.span("child"):
                    time.sleep(0.02)

            threads = [threading.Thread(target=child) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
    parent = next(s for s in tr.spans if s.name == "parent")
    kids = [s for s in tr.spans if s.name == "child"]
    assert all(k.parent == parent.sid for k in kids)
    union = max(k.end for k in kids) - min(k.start for k in kids)
    selfs = spans.self_times(tr.spans)
    assert selfs[parent.sid] == pytest.approx(parent.dur - union, abs=1e-6)
    _assert_self_within_wall(tr)


def test_traced_ops_self_times_fit_their_wall(tmp_path):
    tracer = spans.Tracer()
    bench = run.Bench(MODS, "oracle", 7, str(tmp_path), tracer)
    bench.generate()
    main, comp = run.Samples(), run.Samples()
    ops = bench._ops(main, comp)
    for kind in (run.COMPILE, run.BATCH):
        bench._timed(kind, True, ops[kind])
        bench._timed(kind, False, ops[kind])
    assert bench.gates.failed == 0, bench.gates.messages
    # spans come from traced ops only
    assert all(s.op is not None for s in tracer.spans)
    # patches are gone again
    assert MODS.translate.parse_forms is MODS.sexpr.parse_forms
    _assert_self_within_wall(tracer)
    views, _selfs = run.op_views(tracer)
    compile_view = views[run.COMPILE][0]
    assert compile_view.calls("sexpr.parse_forms") == 4  # KB and query, each read twice
    assert views[run.BATCH][0].calls("harness.run_one") == len(wl.QUERY_SHAPES)


def _inputs(seed, tmp):
    bench = run.Bench(MODS, "query-batch", seed, str(tmp), None)
    bench.generate()
    out = {}
    for root, _dirs, files in os.walk(str(tmp)):
        for name in files:
            with open(os.path.join(root, name), "rb") as fh:
                out[os.path.relpath(os.path.join(root, name), str(tmp))] = fh.read()
    return out, bench


def test_same_seed_same_inputs(tmp_path):
    a, _ = _inputs(11, tmp_path / "a")
    b, _ = _inputs(11, tmp_path / "b")
    c, _ = _inputs(12, tmp_path / "c")
    strip = lambda d: {k: v.replace(str(tmp_path / "b").encode(), str(tmp_path / "a").encode()) for k, v in d.items()}
    assert a == strip(b)
    assert a != c
    assert wl.draw_numerals(random.Random(3)) == wl.draw_numerals(random.Random(3))


def test_every_generated_form_lowers(tmp_path):
    frag = wl.fixture_text(run.FIXTURES, wl.FRAGMENT)
    shapes = {s: wl.fixture_text(run.FIXTURES, s) for s in wl.QUERY_SHAPES}
    texts = [wl.synthetic_kb(frag, 3)] + [t for _, t in wl.draw_queries(shapes, 3, 20, random.Random(5))]
    for text in texts:
        for form in MODS.sexpr.parse_forms(text):
            MODS.sumo.lower(form)


def test_premises_grow_by_a_fixed_count_per_copy(tmp_path):
    frag = wl.fixture_text(run.FIXTURES, wl.FRAGMENT)
    query = tmp_path / "q.kif"
    query.write_text(wl.rename(wl.fixture_text(run.FIXTURES, "tqg27.kif"), wl.copy_suffix(0)))
    counts = []
    for k in (1, 2, 3, 4):
        kb = tmp_path / f"kb{k}.kif"
        kb.write_text(wl.synthetic_kb(frag, k))
        problem, _skips, _tr = MODS.translate.translate_query_job([str(kb)], str(query))
        counts.append(len(problem.premises))
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1 and steps.pop() > 0


def test_numerals_match_integer_arithmetic():
    for op, a, b, n in wl.draw_numerals(random.Random(9)):
        assert 0 <= n <= wl.NUMERAL_MAX
        want = {
            "ord_add": lambda: a + b,
            "ord_sub": lambda: max(a - b, 0),
            "ord_mult": lambda: a * b,
            "ord_exp": lambda: a**b,
            "encode_nat": lambda: a,
        }[op]()
        assert want == n


def test_stub_prover_follows_the_python_rule(tmp_path):
    stub = wl.write_stub_prover(str(tmp_path / "stub.sh"))
    prover = MODS.harness.ProverDef("stub", (stub, "{file}"))
    seen = set()
    for i in range(40):
        path = tmp_path / f"p{i}.p"
        path.write_bytes(f"problem {i}\n".encode())
        result = MODS.harness.run_one(prover, str(path), 5.0)
        assert result.outcome == wl.expected_outcome(path.read_bytes())
        seen.add(result.outcome)
    assert seen == set(MODS.harness.TABLE_OUTCOMES)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 31))
    value, rank = run.tail(values)
    assert rank == 20 and value == 20
    assert sum(1 for v in values if v > value) == 10
    assert run.tail([4, 1, 2, 3, 5]) == (4, None)
    assert run.tail(list(range(21)))[0] == 10


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in ("run.py", "spans.py", "workload.py"):
        (bare / "bench" / name).write_bytes(open(os.path.join(run.HERE, name), "rb").read())
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
