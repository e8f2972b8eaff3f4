"""Batch prover runs over translated problems.

A plain key = value config names the provers (command templates with {file}
and {timeout} holes), the knowledge base files, and the query files.  Each
query/prover pair runs in a worker thread under a wall-clock limit two
seconds past the prover's own budget.  Each prover runs in a session of its
own, so at the limit its whole process group is killed.  The first SZS
status line of the output decides the outcome.  Results land in a TSV plus
an aligned summary table with proved counts as "n (p%)".
"""

from __future__ import annotations

import math
import os
import shlex
import shutil
import signal
import subprocess
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .sexpr import read_text

GRACE_SECONDS = 2.0
# the largest timeout a config may give: a wait is a C int of milliseconds,
# so one past about 2,147,483 s cannot be waited for
MAX_TIMEOUT_SECONDS = 1_000_000
PROVER_PATH_ENV = "SUMOK2SET_PROVER_PATH"

OUTCOME_THEOREM = "Theorem"
OUTCOME_COUNTERSAT = "CounterSatisfiable"
OUTCOME_TIMEOUT = "Timeout"
OUTCOME_GAVEUP = "GaveUp"
OUTCOME_ERROR = "Error"

TABLE_OUTCOMES = (
    OUTCOME_THEOREM,
    OUTCOME_COUNTERSAT,
    OUTCOME_TIMEOUT,
    OUTCOME_GAVEUP,
    OUTCOME_ERROR,
)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ProverDef:
    name: str
    template: tuple  # argv words, may contain {file} and {timeout}

    def argv(self, file: str, timeout: float) -> list:
        """The command for one job; {timeout} is in whole seconds, rounded up."""
        seconds = str(math.ceil(timeout))
        out = []
        for word in self.template:
            word = word.replace("{file}", file)
            word = word.replace("{timeout}", seconds)
            out.append(word)
        return out


@dataclass
class RunConfig:
    provers: list = field(default_factory=list)
    kbs: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    skip_heads: list = field(default_factory=list)
    timeout: float = 30.0
    jobs: int = 2
    out_dir: str = "runs"


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Read key = value lines; kb, query, and skip_head keys repeat."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key.startswith("prover."):
            name = key[len("prover.") :]
            if not name:
                raise ConfigError(f"line {lineno}: prover needs a name")
            words = tuple(shlex.split(value))
            if not words:
                raise ConfigError(f"line {lineno}: empty prover command")
            cfg.provers.append(ProverDef(name, words))
        elif key == "kb":
            cfg.kbs.append(os.path.join(base_dir, value))
        elif key == "query":
            cfg.queries.append(os.path.join(base_dir, value))
        elif key == "skip_head":
            cfg.skip_heads.append(value)
        elif key == "timeout":
            cfg.timeout = _positive(lineno, key, value, float)
            if cfg.timeout > MAX_TIMEOUT_SECONDS:
                raise ConfigError(
                    f"line {lineno}: timeout must be at most {MAX_TIMEOUT_SECONDS} seconds,"
                    f" not {value!r}"
                )
        elif key == "jobs":
            cfg.jobs = _positive(lineno, key, value, int)
        elif key == "out_dir":
            cfg.out_dir = os.path.join(base_dir, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return cfg


def _positive(lineno: int, key: str, value: str, kind):
    """value read as a positive finite int or float (kind); else a ConfigError."""
    try:
        number = kind(value)
    except ValueError:
        number = None
    if number is None or not math.isfinite(number) or number <= 0:
        noun = "integer" if kind is int else "finite number"
        raise ConfigError(f"line {lineno}: {key} must be a positive {noun}, not {value!r}")
    return number


def load_config(path: str) -> RunConfig:
    return parse_config(read_text(path), os.path.dirname(os.path.abspath(path)))


def resolve_executable(word: str) -> str | None:
    """Find the prover binary, preferring the dedicated search path."""
    if os.path.sep in word:
        return word if os.path.exists(word) else None
    search = os.environ.get(PROVER_PATH_ENV)
    if search:
        found = shutil.which(word, path=search)
        if found:
            return found
    return shutil.which(word)


def parse_szs(output: str) -> str | None:
    """First SZS status word in the output, normalized; None when absent."""
    for line in output.splitlines():
        idx = line.find("SZS status")
        if idx < 0:
            continue
        rest = line[idx + len("SZS status") :].strip()
        if not rest:
            continue
        word = rest.split()[0]
        if word == "ResourceOut":
            return OUTCOME_TIMEOUT
        return word
    return None


@dataclass
class JobResult:
    query: str
    prover: str
    outcome: str
    seconds: float
    detail: str = ""


def run_one(prover: ProverDef, problem_file: str, timeout: float) -> JobResult:
    query = os.path.basename(problem_file)
    argv = prover.argv(problem_file, timeout)
    exe = resolve_executable(argv[0])
    start = time.monotonic()
    if exe is None:
        return JobResult(query, prover.name, OUTCOME_ERROR, 0.0, f"executable {argv[0]!r} not found")
    argv = [exe] + argv[1:]
    try:
        # a session of its own makes the prover lead a process group, so a
        # timeout kills every process it started, not just the prover
        with subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout + GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return JobResult(
                    query, prover.name, OUTCOME_TIMEOUT, time.monotonic() - start, "wall clock limit"
                )
    except OSError as err:
        return JobResult(query, prover.name, OUTCOME_ERROR, time.monotonic() - start, str(err))
    elapsed = time.monotonic() - start
    word = parse_szs(stdout or "")
    if word is None:
        word = parse_szs(stderr or "")
    if word is None:
        return JobResult(query, prover.name, OUTCOME_GAVEUP, elapsed, "no SZS status line")
    return JobResult(query, prover.name, word, elapsed)


def run_all(provers, problem_files, timeout: float, jobs: int = 2) -> list:
    """Every prover on every problem file, jobs workers, input order kept."""
    pairs = [(prover, pf) for pf in problem_files for prover in provers]
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        futures = [pool.submit(run_one, prover, pf, timeout) for prover, pf in pairs]
        return [f.result() for f in futures]


def percent_cell(n: int, total: int) -> str:
    """Count with half-up rounded percentage, e.g. "2 (67%)"."""
    if total <= 0:
        return f"{n} (0%)"
    pct = (200 * n + total) // (2 * total)
    return f"{n} ({pct}%)"


def aggregate(results) -> dict:
    by_prover: dict = {}
    for r in results:
        counts = by_prover.setdefault(r.prover, Counter())
        outcome = r.outcome if r.outcome in TABLE_OUTCOMES else OUTCOME_GAVEUP
        counts[outcome] += 1
    return by_prover


def format_table(results) -> str:
    by_prover = aggregate(results)
    total_by_prover = Counter(r.prover for r in results)
    header = ["prover", "proved"] + list(TABLE_OUTCOMES)
    rows = [header]
    for prover in sorted(by_prover):
        counts = by_prover[prover]
        total = total_by_prover[prover]
        row = [prover, percent_cell(counts[OUTCOME_THEOREM], total)]
        row.extend(str(counts[o]) for o in TABLE_OUTCOMES)
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def write_tsv(path: str, results) -> None:
    """One row per result; detail is backslash-escaped so each row stays one line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query\tprover\toutcome\tseconds\tdetail\n")
        for r in results:
            detail = r.detail.translate(_TSV_ESCAPES)
            fh.write(f"{r.query}\t{r.prover}\t{r.outcome}\t{r.seconds:.3f}\t{detail}\n")
