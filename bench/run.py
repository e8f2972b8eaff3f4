"""Layered benchmark for sumok2set.

    python3 bench/run.py --workload kb-scale --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop with one client for --seconds, checks
every output, prints a report and, as the last line of standard output, one
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, with times scaled by machine speed (see Speed); --trace 1 patches the compiler's public functions,
records spans and reports the per-layer metrics instead, writing the spans
and a self-time summary under .bench_work/trace/.  Exits 1 when a
correctness gate fails and 2 when the program cannot be found or set up.
See bench/README.md for why each workload and metric was chosen.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workload as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "sumok2set", "fixtures")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("kb-scale", "query-batch", "oracle")
KB_SCALE_COPIES = 100
BATCH_COPIES = 10
BATCH_QUERIES = 24
# the batch goes to `run` in this many commands, so that each command is a
# short step between two speed probes; every command still repeats the
# per-query KB work
BATCH_RUNS = 4
JOBS = 2
SETUP_REPEATS = 3
# hand-written from the lemma file's generator bounds, as in acceptance criterion 3
EXPECTED_CHECKED = [1, 5456, 5456, 21824, 256, 5456]

# Op kinds.  A workload's own ops are of one kind (oracle alternates two);
# the kinds it does not run come from small fixed companion ops mixed in.
COMPILE, BATCH, LEMMAS, NUMERALS = "compile", "batch", "lemmas", "numerals"
MAIN_KINDS = {"kb-scale": (COMPILE,), "query-batch": (BATCH,), "oracle": (LEMMAS, NUMERALS)}
# Share of the run's time each kind gets; main kinds take most of it.
SHARES = {
    "kb-scale": {COMPILE: 0.6, BATCH: 0.05, LEMMAS: 0.2, NUMERALS: 0.15},
    "query-batch": {BATCH: 0.7, COMPILE: 0.1, LEMMAS: 0.1, NUMERALS: 0.1},
    "oracle": {LEMMAS: 0.4, NUMERALS: 0.4, COMPILE: 0.1, BATCH: 0.1},
}

END_TO_END = (
    ("setup_s", "s"),
    ("translate_s_p50", "s"),
    ("translate_s_tail", "s"),
    ("check_s_p50", "s"),
    ("queries_per_s", "1/s"),
    ("oracle_lemmas_s_p50", "s"),
    ("oracle_numerals_s_p50", "s"),
    ("output_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


class Gates:
    """Counts attempted and failed operations; a failed op names its gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def run(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            problems = fn()
        except (Exception, SystemExit):
            problems = ["raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            self.messages.extend(f"{label}: {p}" for p in problems)


class Samples:
    """Measurements from one source (main ops or companion ops).

    Each time is kept raw and scaled by the machine speed (see Speed).
    """

    TIMES = ("translate_s", "check_s", "lemmas_s", "numerals_s", "query_wall")

    def __init__(self):
        self.raw = {name: [] for name in self.TIMES}
        self.scaled = {name: [] for name in self.TIMES}
        self.output_bytes: list = []
        self.queries = 0

    def add(self, name: str, raw_scaled: tuple) -> None:
        self.raw[name].append(raw_scaled[0])
        self.scaled[name].append(raw_scaled[1])


def _reference_work() -> int:
    # fixed object churn of the kind the compiler does: tuples, strings,
    # dicts and frozensets; it calls nothing of the program
    table = {}
    for i in range(4000):
        key = (i % 97, str(i), (i, i % 13))
        table[key] = frozenset((i % 7, i % 11, key))
    return sum(len(v) for v in table.values())


class Speed:
    """How fast the machine runs right now, relative to a nominal speed.

    On a shared host the speed of a core changes by up to a factor of two
    within seconds, for every op alike.  A fixed reference loop is timed
    between short steps of each measured stage; a step's time is multiplied
    by NOMINAL_S over the mean of the reference times around it, so times
    read as seconds on a machine that runs the loop in NOMINAL_S.  A change
    to the program changes the step times and not the loop.
    """

    NOMINAL_S = 0.0045
    REPEATS = 3
    PROBE_EVERY_S = 0.1

    def __init__(self):
        self.last = self.measure()

    def measure(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def factor(self) -> float:
        """Factor for the interval since the previous probe."""
        now = self.measure()
        factor = self.NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor

    def stage(self, *steps) -> tuple:
        """Run the steps in order; (raw, scaled) seconds of the steps alone.

        The speed is probed after every PROBE_EVERY_S of steps and at the
        end; probes are not part of the time."""
        raw = scaled = segment = 0.0
        for i, step in enumerate(steps):
            t0 = time.perf_counter()
            step()
            segment += time.perf_counter() - t0
            if segment >= self.PROBE_EVERY_S or i == len(steps) - 1:
                raw += segment
                scaled += segment * self.factor()
                segment = 0.0
        return raw, scaled


class Bench:
    def __init__(self, mods, workload: str, seed: int, work: str, tracer, speed=None):
        self.m = mods
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.speed = speed or Speed()
        self.install = install_patches(mods) if tracer is not None else None
        self.gates = Gates()
        self.shas: dict = {}
        self.outcomes_seen: set = set()

    # -- inputs ------------------------------------------------------------

    def generate(self) -> None:
        """Write every input of this run; the seed decides all of them."""
        rng = random.Random(self.seed)
        frag = wl.fixture_text(FIXTURES, wl.FRAGMENT)
        shapes = {s: wl.fixture_text(FIXTURES, s) for s in wl.QUERY_SHAPES}
        os.makedirs(self.work, exist_ok=True)
        stub = wl.write_stub_prover(os.path.join(self.work, "stub-prover.sh"))

        # companion inputs: the shipped fragment as copy 0, the five shapes
        small_kb = self._write("small/kb.kif", wl.synthetic_kb(frag, 1))
        small_queries = [
            self._write(f"small/{os.path.splitext(s)[0]}.kif", wl.rename(shapes[s], wl.copy_suffix(0)))
            for s in wl.QUERY_SHAPES
        ]
        self.compile_jobs = [(small_kb, q) for q in small_queries]
        self.small_batch = self._batch("small", small_kb, small_queries, stub, 1)

        self.numerals = wl.draw_numerals(rng)
        self.lemmas = os.path.join(FIXTURES, wl.LEMMAS)
        self.wrong = self._write("wrong.lemmas", wl.WRONG_IDENTITY)

        if self.workload == "kb-scale":
            kb = self._write("kb-scale/kb.kif", wl.synthetic_kb(frag, KB_SCALE_COPIES))
            [(name, text)] = wl.draw_queries(shapes, KB_SCALE_COPIES, 1, rng)
            self.main_job = (kb, self._write(f"kb-scale/{name}.kif", text))
        elif self.workload == "query-batch":
            kb = self._write("batch/kb.kif", wl.synthetic_kb(frag, BATCH_COPIES))
            queries = [
                self._write(f"batch/{name}.kif", text)
                for name, text in wl.draw_queries(shapes, BATCH_COPIES, BATCH_QUERIES, rng)
            ]
            self.main_batch = self._batch("batch", kb, queries, stub, BATCH_RUNS)

    def _write(self, rel: str, text: str) -> str:
        path = os.path.join(self.work, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _batch(self, name: str, kb: str, queries: list, stub: str, runs: int) -> list:
        """Configs for `runs` run commands that split the queries between them."""
        out = []
        for i in range(runs):
            part = queries[i::runs]
            out_dir = os.path.join(self.work, f"{name}-runs{i}")
            cfg = self._write(f"{name}{i}.cfg", wl.run_config(kb, part, stub, out_dir, JOBS))
            problems = [
                os.path.join(out_dir, "problems", os.path.splitext(os.path.basename(q))[0] + ".p")
                for q in part
            ]
            out.append({"cfg": cfg, "out_dir": out_dir, "problems": problems})
        return out

    def warm_up(self) -> None:
        kb, query = self.compile_jobs[0]
        problem, _skips, _tr = self.m.translate.translate_query_job([kb], query)
        self.m.th0.check_text(self.m.th0.problem_text(problem, reproducible=True))
        claims = self.m.hforacle.parse_lemmas(wl.fixture_text(FIXTURES, wl.LEMMAS))
        self.m.hforacle.check_claim(claims[0])

    # -- operations --------------------------------------------------------

    def _same_as_before(self, key, data: bytes) -> list:
        sha = hashlib.sha256(data).hexdigest()
        first = self.shas.setdefault(key, sha)
        return [] if first == sha else [f"output of {key} changed between runs of one job"]

    def compile_op(self, kb: str, query: str, out: Samples, counts_queries: bool) -> list:
        translate, th0 = self.m.translate, self.m.th0
        got = {}

        def compile_query():
            problem, _skips, _tr = translate.translate_query_job([kb], query)
            got["text"] = th0.problem_text(problem, reproducible=True)

        translated = self.speed.stage(compile_query)
        checked = self.speed.stage(lambda: got.setdefault("diags", th0.check_text(got["text"])))
        data = got["text"].encode("utf-8")
        out.add("translate_s", translated)
        out.add("check_s", checked)
        out.output_bytes.append(len(data))
        if counts_queries:
            out.add("query_wall", (translated[0] + checked[0], translated[1] + checked[1]))
            out.queries += 1
        problems = [f"check_text: {d}" for d in got["diags"][:5]]
        return problems + self._same_as_before(("compile", kb, query), data)

    def batch_op(self, batch: list, out: Samples) -> list:
        cli = self.m.cli
        sink = io.StringIO()
        codes = []
        paths = [path for run in batch for path in run["problems"]]
        with contextlib.redirect_stdout(sink):
            ran = [self.speed.stage(lambda: codes.append(cli.main(["run", run["cfg"]]))) for run in batch]
            # one check command per problem: many short samples, each
            # between two speed probes
            checked = [self.speed.stage(lambda: codes.append(cli.main(["check", path]))) for path in paths]
        problems = []
        if any(codes):
            problems.append(f"run and check exit codes {codes}: {sink.getvalue()[-500:]}")
        mismatches = 0
        sizes = []
        for run in batch:
            expected = {}
            for path in run["problems"]:
                with open(path, "rb") as fh:
                    data = fh.read()
                sizes.append(len(data))
                expected[os.path.basename(path)] = wl.expected_outcome(data)
                problems += self._same_as_before(("batch", path), data)
            got = _read_results(os.path.join(run["out_dir"], "results.tsv"))
            mismatches += sum(1 for q, o in expected.items() if got.get(q) != o)
            mismatches += len(set(got) - set(expected))
            self.outcomes_seen.update(got.values())
        if mismatches:
            problems.append(f"{mismatches} result rows differ from the stub prover's rule")
        self._mismatches = mismatches
        out.queries += len(paths)
        for sample in ran:
            out.add("query_wall", sample)
        for sample in checked:
            out.add("check_s", sample)
        out.output_bytes.extend(sizes)
        return problems

    def lemmas_op(self, out: Samples) -> list:
        hf = self.m.hforacle
        claims, wrong, results, refuted = [], [], [], []

        def read():
            for path, into in ((self.lemmas, claims), (self.wrong, wrong)):
                with open(path, "r", encoding="utf-8") as fh:
                    into.extend(hf.parse_lemmas(fh.read(), path))

        def check(i, from_list, into):
            return lambda: into.append(hf.check_claim(from_list[i]))

        # one step per claim, so the speed is probed between claims
        steps = [check(i, claims, results) for i in range(len(EXPECTED_CHECKED))]
        steps.append(check(0, wrong, refuted))
        problems = []
        try:
            out.add("lemmas_s", self.speed.stage(read, *steps))
        except IndexError:
            problems.append("the lemma files hold other claims than expected")
        checked = [r.checked for r in results]
        if checked != EXPECTED_CHECKED or not all(r.ok for r in results):
            problems.append(f"lemma verdicts {[(r.ok, r.checked) for r in results]}")
        if len(wrong) != 1 or not refuted or refuted[0].ok or not refuted[0].counterexample:
            problems.append("the wrong identity was not refuted")
        return problems

    def numerals_op(self, out: Samples) -> list:
        hf, catalog, hostterm = self.m.hforacle, self.m.catalog, self.m.hostterm
        span = self.tracer.span if self.tracer is not None else _no_span
        problems = []
        ev = []

        def identity(op, a, b, n):
            def step():
                if op == "encode_nat":
                    term = catalog.encode_nat(a)
                else:
                    term = hostterm.app(catalog.cc(op), catalog.encode_nat(a), catalog.encode_nat(b))
                with span("hforacle.eval"):
                    value = ev[0].eval(term, {})
                with span("hforacle.numeral_eq"):
                    same = value == hf.nat(n)
                if not same:
                    problems.append(f"{op}({a}, {b}) is not {n}")

            return step

        steps = [lambda: ev.append(hf.Evaluator())] + [identity(*item) for item in self.numerals]
        out.add("numerals_s", self.speed.stage(*steps))
        return problems

    # -- loops -------------------------------------------------------------

    def _ops(self, main: Samples, comp: Samples) -> dict:
        """Op kind -> callable running one op; main kinds use the workload's
        inputs, companion kinds the small fixed ones."""
        kinds = MAIN_KINDS[self.workload]
        small = itertools.cycle(self.compile_jobs)
        return {
            COMPILE: (
                (lambda: self.compile_op(*self.main_job, main, True))
                if COMPILE in kinds
                else (lambda: self.compile_op(*next(small), comp, False))
            ),
            BATCH: (
                (lambda: self.batch_op(self.main_batch, main))
                if BATCH in kinds
                else (lambda: self.batch_op(self.small_batch, comp))
            ),
            LEMMAS: lambda: self.lemmas_op(main if LEMMAS in kinds else comp),
            NUMERALS: lambda: self.numerals_op(main if NUMERALS in kinds else comp),
        }

    def _timed(self, kind: str, traced: bool, fn) -> float:
        # a full collection first, so that the collections during the op
        # depend on the op's own allocations and not on what ran before
        gc.collect()
        self._mismatches = 0
        t0 = time.perf_counter()
        if traced:
            # the layers are patched for traced ops only, so untraced ops
            # run the program as it is
            with self.tracer.patched(self.install), self.tracer.op(kind) as counts:
                self.gates.run(kind, fn)
                counts["outcome_mismatches"] = self._mismatches
        else:
            self.gates.run(kind, fn)
        return time.perf_counter() - t0

    def loop(self, seconds: float, main: Samples, comp: Samples) -> dict:
        """Closed loop with one client for the given time.

        The next op is of the kind that has had the least time for its
        share, so companion ops are spread over the run like the main ones.
        With tracing, main ops alternate untraced and traced, and companion
        ops are all traced.  Returns (kind, traced) -> op wall times.
        """
        ops = self._ops(main, comp)
        share = SHARES[self.workload]
        main_kinds = MAIN_KINDS[self.workload]
        spent = dict.fromkeys(share, 0.0)
        walls: dict = {}

        def runs(kind, traced):
            return len(walls.get((kind, traced), ()))

        def covered():
            if self.tracer is None:
                return all(spent.values())
            return all(runs(k, True) for k in share) and all(runs(k, False) for k in main_kinds)

        def fits(kind, elapsed):
            past = walls.get((kind, False), []) + walls.get((kind, True), [])
            return not past or elapsed + statistics.median(past) <= seconds

        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # once every kind has run, start only ops expected to end in time
            kinds = [k for k in share if fits(k, elapsed)] if covered() else list(share)
            if not kinds:
                break
            kind = min(kinds, key=lambda k: spent[k] / share[k])
            traced = self.tracer is not None and (
                kind not in main_kinds or runs(kind, False) > runs(kind, True)
            )
            wall = self._timed(kind, traced, ops[kind])
            walls.setdefault((kind, traced), []).append(wall)
            spent[kind] += wall
        return walls


@contextlib.contextmanager
def _no_span(name):
    yield None


def _read_results(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return out
    for line in lines[1:]:
        cols = line.split("\t")
        if len(cols) >= 3:
            out[cols[0]] = cols[2]
    return out


# ---------------------------------------------------------------------------
# End-to-end metrics


def tail(values: list):
    """(value, rank) of the highest order statistic with at least ten samples
    above it.  Below 21 samples that statistic lies under the median, so the
    upper quartile stands in for it (rank None)."""
    ordered = sorted(values)
    if len(ordered) >= 21:
        rank = len(ordered) - 10
        return ordered[rank - 1], rank
    if len(ordered) == 1:
        return ordered[0], None
    return statistics.quantiles(ordered, n=4, method="inclusive")[2], None


def end_to_end(main: Samples, comp: Samples, setup_s: float, gates: Gates) -> tuple:
    def src(name):
        return main if main.scaled[name] else comp

    def med(name):
        return statistics.median(src(name).scaled[name])

    translate_s = src("translate_s").scaled["translate_s"]
    tail_value, tail_rank = tail(translate_s)
    q = main if main.queries else comp
    values = {
        "setup_s": setup_s,
        "translate_s_p50": med("translate_s"),
        "translate_s_tail": tail_value,
        "check_s_p50": med("check_s"),
        "queries_per_s": q.queries / sum(q.scaled["query_wall"]),
        "oracle_lemmas_s_p50": med("lemmas_s"),
        "oracle_numerals_s_p50": med("numerals_s"),
        "output_bytes": statistics.median(main.output_bytes or comp.output_bytes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (gates.attempted - gates.failed) / gates.attempted,
    }
    raw = {name: statistics.median(src(name).raw[name]) for name in ("translate_s", "check_s", "lemmas_s", "numerals_s")}
    notes = {
        "translate_s": f"{len(translate_s)} samples, tail is "
        + (f"rank {tail_rank}" if tail_rank else "the upper quartile"),
        "queries_per_s": f"{q.queries} queries in {len(q.raw['query_wall'])} steps over {sum(q.raw['query_wall']):.3f} s unscaled",
        "unscaled medians": ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        "ok_ratio": f"{gates.attempted - gates.failed} of {gates.attempted} ops passed every gate",
    }
    return values, notes


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def install_patches(mods):
    """Wrap each layer's public functions under the name its caller uses."""
    translate, th0, hf = mods.translate, mods.th0, mods.hforacle

    def build_counts(result, args, kwargs):
        names = [name for name, _, _ in result.premises]
        kb, local = len(args[1]), len(args[2])
        facts = sum(1 for n in names if n.startswith("rel_"))
        return {"kb": kb, "local": local, "facts": facts, "catalog": len(names) - kb - local - facts}

    def doc_counts(result, args, kwargs):
        seps = sum(1 for name, role, _ in result.premises if name.startswith("def_sep_"))
        return {"sep_defs": seps, "decls": len(result.decls)}

    def jobs(result, args, kwargs):
        return {"jobs": args[3] if len(args) > 3 else kwargs.get("jobs", 2)}

    def install(tr):
        tr.patch(translate, "parse_forms", "sexpr.parse_forms",
                 lambda r, a, k: {"bytes": len(a[0].encode("utf-8"))})
        tr.patch(mods.sumo, "lower", "sumo.lower",
                 lambda r, a, k: {"skipped": int(isinstance(r, mods.sumo.Skipped))})
        tr.patch(mods.signature, "collect", "signature.collect",
                 lambda r, a, k: {"constants": len(r.consts)})
        tr.patch(mods.signature, "close_vararity", "signature.close_vararity")
        tr.patch(mods.guards, "guards_for", "guards.guards_for")
        tr.patch(translate.Translator, "close_assertion", "translate.close_assertion")
        tr.patch(translate.Translator, "close_query", "translate.close_query")
        tr.patch(translate, "translate_query_job", "translate.translate_query_job")
        tr.patch(translate, "build_problem", "translate.build_problem", build_counts)
        tr.patch(mods.catalog.Catalog, "background", "catalog.background",
                 lambda r, a, k: {"premises": len(r)})
        tr.patch(th0, "typecheck", "hostterm.typecheck")
        tr.patch(th0, "build_doc", "th0.build_doc", doc_counts)
        tr.patch(th0, "render_doc", "th0.render_doc")
        tr.patch(th0, "parse_doc", "th0.parse_doc")
        tr.patch(th0, "check_text", "th0.check_text")
        tr.patch(hf, "check_claim", "hforacle.check_claim",
                 lambda r, a, k: {"assignments": r.checked})
        tr.patch(mods.harness, "run_all", "harness.run_all", jobs, pool_parent=True)
        tr.patch(mods.harness, "run_one", "harness.run_one")
        tr.patch(mods.cli, "cmd_run", "cli.cmd_run")
        tr.patch(mods.cli, "cmd_check", "cli.cmd_check")

    return install


class OpView:
    """The spans of one op, with self times, for per-layer sums."""

    def __init__(self, op_spans, selfs, by_id):
        self.spans = op_spans
        self.selfs = selfs
        self.by_id = by_id

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def dur(self, *names) -> float:
        return sum(s.dur for s in self.named(*names))

    def self_s(self, *names) -> float:
        return sum(self.selfs[s.sid] for s in self.named(*names))

    def calls(self, *names) -> int:
        return len(self.named(*names))

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def render_outside_check(self) -> float:
        return sum(
            s.dur
            for s in self.named("th0.render_doc")
            if self.by_id[s.parent].name != "th0.check_text"
        )

    def root(self):
        return self.named(*("op." + k for k in (COMPILE, BATCH, LEMMAS, NUMERALS)))[0]


_COMPILER = (COMPILE, BATCH)

# name, unit, op kinds that exercise it (main kind preferred), per-op value
PER_LAYER = (
    ("sexpr.parse_s", "s", _COMPILER, lambda v: v.dur("sexpr.parse_forms")),
    ("sexpr.parse_calls", "count", _COMPILER, lambda v: v.calls("sexpr.parse_forms")),
    ("sexpr.parse_calls_per_job", "count", _COMPILER,
     lambda v: v.calls("sexpr.parse_forms") / v.calls("translate.translate_query_job")),
    ("sexpr.bytes_parsed", "bytes", _COMPILER, lambda v: v.count("sexpr.parse_forms", "bytes")),
    ("sumo.lower_s", "s", _COMPILER, lambda v: v.dur("sumo.lower")),
    ("sumo.lower_calls", "count", _COMPILER, lambda v: v.calls("sumo.lower")),
    ("sumo.forms_skipped", "count", _COMPILER, lambda v: v.count("sumo.lower", "skipped")),
    ("signature.collect_s", "s", _COMPILER,
     lambda v: v.dur("signature.collect", "signature.close_vararity")),
    ("signature.constants", "count", _COMPILER,
     lambda v: max(s.counts["constants"] for s in v.named("signature.collect"))),
    ("guards.guards_for_s", "s", _COMPILER, lambda v: v.dur("guards.guards_for")),
    ("guards.guards_for_calls", "count", _COMPILER, lambda v: v.calls("guards.guards_for")),
    ("translate.jobs", "count", _COMPILER, lambda v: v.calls("translate.translate_query_job")),
    ("translate.close_s", "s", _COMPILER,
     lambda v: v.self_s("translate.close_assertion", "translate.close_query")),
    ("translate.build_problem_s", "s", _COMPILER, lambda v: v.self_s("translate.build_problem")),
    ("translate.premises_catalog", "count", _COMPILER, lambda v: v.count("translate.build_problem", "catalog")),
    ("translate.premises_facts", "count", _COMPILER, lambda v: v.count("translate.build_problem", "facts")),
    ("translate.premises_kb", "count", _COMPILER, lambda v: v.count("translate.build_problem", "kb")),
    ("translate.premises_local", "count", _COMPILER, lambda v: v.count("translate.build_problem", "local")),
    ("catalog.background_s", "s", _COMPILER, lambda v: v.dur("catalog.background")),
    ("catalog.background_premises", "count", _COMPILER, lambda v: v.count("catalog.background", "premises")),
    ("hostterm.typecheck_s", "s", _COMPILER, lambda v: v.dur("hostterm.typecheck")),
    ("hostterm.typecheck_calls", "count", _COMPILER, lambda v: v.calls("hostterm.typecheck")),
    ("th0.build_doc_s", "s", _COMPILER, lambda v: v.dur("th0.build_doc")),
    ("th0.render_doc_s", "s", _COMPILER, lambda v: v.render_outside_check()),
    ("th0.sep_defs", "count", _COMPILER, lambda v: v.count("th0.build_doc", "sep_defs")),
    ("th0.decls", "count", _COMPILER, lambda v: v.count("th0.build_doc", "decls")),
    ("th0.parse_doc_s", "s", _COMPILER, lambda v: v.self_s("th0.parse_doc")),
    ("th0.check_text_self_s", "s", _COMPILER, lambda v: v.self_s("th0.check_text")),
    ("hforacle.check_claim_s", "s", (LEMMAS,), lambda v: v.dur("hforacle.check_claim")),
    ("hforacle.assignments", "count", (LEMMAS,), lambda v: v.count("hforacle.check_claim", "assignments")),
    ("hforacle.eval_s", "s", (NUMERALS,), lambda v: v.dur("hforacle.eval")),
    ("hforacle.numeral_eq_s", "s", (NUMERALS,), lambda v: v.dur("hforacle.numeral_eq")),
    ("harness.run_all_s", "s", (BATCH,), lambda v: v.dur("harness.run_all")),
    ("harness.jobs", "count", (BATCH,), lambda v: max(s.counts["jobs"] for s in v.named("harness.run_all"))),
    ("harness.outcome_mismatches", "count", (BATCH,), lambda v: v.root().counts["outcome_mismatches"]),
    ("cli.run_self_s", "s", (BATCH,), lambda v: v.self_s("cli.cmd_run")),
    ("cli.check_self_s", "s", (BATCH,), lambda v: v.self_s("cli.cmd_check")),
)


def op_views(tracer) -> dict:
    """Op kind -> [OpView], in run order."""
    selfs = spans.self_times(tracer.spans)
    by_id = {s.sid: s for s in tracer.spans}
    grouped: dict = {}
    for s in tracer.spans:
        if s.op is not None:
            grouped.setdefault(s.op, []).append(s)
    views: dict = {}
    for op_id in sorted(grouped):
        kind = by_id[op_id].name[len("op."):]
        views.setdefault(kind, []).append(OpView(grouped[op_id], selfs, by_id))
    return views, selfs


def per_layer(workload: str, tracer, walls: dict) -> tuple:
    views, selfs = op_views(tracer)
    main = MAIN_KINDS[workload]
    values, notes = {}, {}
    for name, unit, kinds, fn in PER_LAYER:
        kind = next((k for k in kinds if k in main), kinds[0])
        values[name] = statistics.median(fn(v) for v in views[kind])
        notes[name] = f"median of {len(views[kind])} {kind} ops"
    run_one = [s.dur for v in views[BATCH] for s in v.named("harness.run_one")]
    values["harness.run_one_s_p50"] = statistics.median(run_one)
    notes["harness.run_one_s_p50"] = f"{len(run_one)} prover jobs"
    values["trace.overhead_s"] = sum(
        statistics.median(walls[k, True]) - statistics.median(walls[k, False]) for k in main
    )
    notes["trace.overhead_s"] = "sum over main kinds of median traced op minus median untraced op, " + ", ".join(
        f"{k} {len(walls[k, True])} vs {len(walls[k, False])}" for k in main
    )
    values["trace.spans"] = len(tracer.spans)
    return values, notes, selfs


PER_LAYER_UNITS = {name: unit for name, unit, _k, _f in PER_LAYER}
PER_LAYER_UNITS.update({"harness.run_one_s_p50": "s", "trace.overhead_s": "s", "trace.spans": "count"})


def self_time_summary(tracer, selfs) -> dict:
    """Span name -> calls, total and self seconds, over the whole run."""
    out: dict = {}
    for s in tracer.spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.dur
        row["self_s"] += selfs[s.sid]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


# ---------------------------------------------------------------------------


class Modules:
    def __init__(self):
        from sumok2set import catalog, cli, guards, harness, hforacle, hostterm
        from sumok2set import sexpr, signature, sumo, th0, translate

        self.catalog, self.cli, self.guards, self.harness = catalog, cli, guards, harness
        self.hforacle, self.hostterm, self.sexpr, self.signature = hforacle, hostterm, sexpr, signature
        self.sumo, self.th0, self.translate = sumo, th0, translate


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sumok2set", "__init__.py")):
        raise FileNotFoundError(f"no sumok2set package under {SRC}")
    sys.path.insert(0, SRC)
    mods = Modules()
    where = os.path.dirname(os.path.abspath(mods.cli.__file__))
    if where != os.path.join(SRC, "sumok2set"):
        raise ImportError(f"sumok2set imported from {where}, not from {SRC}")
    return mods


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        mods = load_program()
    except (OSError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = spans.Tracer() if args.trace else None
    speed = Speed()
    import_s *= Speed.NOMINAL_S / speed.last
    bench = Bench(mods, args.workload, args.seed, work, tracer, speed)
    try:
        rounds = []
        for _ in range(SETUP_REPEATS):
            rounds.append(speed.stage(bench.generate, bench.warm_up)[1])
    except Exception:
        traceback.print_exc()
        shutil.rmtree(work, ignore_errors=True)
        print("error: set-up failed", file=sys.stderr)
        return 2
    setup_s = import_s + statistics.median(rounds)

    main_samples, comp_samples = Samples(), Samples()
    try:
        walls = bench.loop(args.seconds, main_samples, comp_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gates = bench.gates
    if tracer is not None:
        values, notes, selfs = per_layer(args.workload, tracer, walls)
        units = PER_LAYER_UNITS
        trace_dir = os.path.join(WORK, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        base = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}")
        tracer.write_jsonl(base + ".jsonl", selfs)
        with open(base + "-summary.json", "w", encoding="utf-8") as fh:
            json.dump(self_time_summary(tracer, selfs), fh, indent=1)
        rel = os.path.relpath(base, ROOT)
        notes["trace files"] = rel + ".jsonl, " + rel + "-summary.json"
    else:
        values, notes = end_to_end(main_samples, comp_samples, setup_s, gates)
        units = dict(END_TO_END)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name in units:
        print(f"  {name:32s} {values[name]:>16.6g} {units[name]}")
    for key, note in notes.items():
        print(f"  [{key}] {note}")
    print(f"  stub prover outcomes seen: {', '.join(sorted(bench.outcomes_seen)) or 'none'}")
    for msg in gates.messages[:20]:
        print(f"  FAILED {msg}")
    correct = gates.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
