"""Command line front end.

translate  one query against knowledge base files, to typed problem text
run        batch translate and prove per a config file, with summaries
oracle     check a lemma file by brute force over finite sets
check      validate rendered problem files (grammar, types, canonical form)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .sexpr import InputError, NotUtf8, read_text

# Errors in the input files; each carries the span it was found at, if any.
INPUT_ERRORS = InputError


def _error_payload(err, file_hint=None):
    if isinstance(err, OSError):
        return {
            "file": err.filename or file_hint,
            "line": None,
            "col": None,
            "error": err.strerror or str(err),
        }
    span = err.span
    return {
        "file": getattr(span, "file", None) or file_hint,
        "line": getattr(span, "line", None),
        "col": getattr(span, "col", None),
        # the bare message; the span is already broken out above
        "error": err.message,
    }


def _report_errors(errors, as_json: bool, unlocated: str = "<input>") -> None:
    """Print error payloads; unlocated names the source of one with no file."""
    if as_json:
        print(json.dumps(errors, indent=2))
    else:
        for e in errors:
            where = e["file"] or unlocated
            if e["line"] is not None:
                where += f":{e['line']}"
                if e["col"] is not None:
                    where += f":{e['col']}"
            print(f"error: {where}: {e['error']}", file=sys.stderr)


# Each command imports the modules it runs, so that oracle and check load
# neither the KIF front end nor the batch runner.
def cmd_translate(args) -> int:
    from . import th0, translate

    skip_heads = tuple(args.skip_head) if args.skip_head else translate.sumo.DEFAULT_SKIP_HEADS
    try:
        problem, skips, _tr = translate.translate_query_job(
            args.kb,
            args.query,
            skip_heads=skip_heads,
            expand_known_rows=args.expand_row_domains,
            collect_explanations=args.explain_guards,
        )
    except (OSError, INPUT_ERRORS) as err:
        _report_errors([_error_payload(err, args.query)], args.errors_json)
        return 1
    if args.selection:
        try:
            problem = translate.select_premises(problem, args.selection.split(","))
        except translate.UnknownPremiseName as err:
            # the names come from the command line, not from a file
            _report_errors([_error_payload(err)], args.errors_json, unlocated="--selection")
            return 1
    text = th0.problem_text(problem, reproducible=args.reproducible)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            _report_errors([_error_payload(err, args.output)], args.errors_json)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    from . import harness

    try:
        cfg = harness.load_config(args.config)
    except (OSError, NotUtf8, harness.ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not cfg.queries:
        print("error: config names no query files", file=sys.stderr)
        return 2
    # each query writes problems/<stem>.p; two queries must not share one
    outputs: dict = {}  # problem file name -> query path
    for query in cfg.queries:
        name = os.path.splitext(os.path.basename(query))[0] + ".p"
        if name in outputs:
            print(
                f"error: query files {outputs[name]} and {query} would both write"
                f" problems/{name}",
                file=sys.stderr,
            )
            return 2
        outputs[name] = query
    try:
        return _run_jobs(cfg, outputs, args.keep_going)
    except OSError as err:
        # each query's read and translate errors are caught in _run_jobs, so
        # what gets here is an output path that cannot be written
        print(f"error: {err.filename or cfg.out_dir}: {err.strerror or err}", file=sys.stderr)
        return 2


def _run_jobs(cfg, outputs: dict, keep_going: bool) -> int:
    from . import harness, th0, translate

    skip_heads = tuple(cfg.skip_heads) if cfg.skip_heads else translate.sumo.DEFAULT_SKIP_HEADS
    problems_dir = os.path.join(cfg.out_dir, "problems")
    os.makedirs(problems_dir, exist_ok=True)

    summary_lines = []
    problem_files = []
    failures = 0
    # the knowledge base is read and compiled once for all queries; if it
    # does not compile, each job gets its forms, or its reader error, and
    # fails as it does on its own
    kb = kb_error = None
    try:
        kb = translate.read_kb(cfg.kbs, skip_heads)
        kb = translate.compile_kb(kb)
    except (OSError, INPUT_ERRORS) as err:
        kb_error = err if kb is None else None
    for name, query in outputs.items():
        try:
            if kb_error is not None:
                raise kb_error
            problem, skips, _tr = translate.translate_query_job(
                kb, query, skip_heads=skip_heads
            )
        except (OSError, INPUT_ERRORS) as err:
            failures += 1
            summary_lines.append(f"{query}: FAILED: {err}")
            if keep_going:
                continue
            _write_lines(os.path.join(cfg.out_dir, "kb-summary.txt"), summary_lines)
            # the query is named unless the error is located in it
            span = getattr(err, "span", None)
            where = "" if span is not None and span.file == query else f"{query}: "
            print(f"error: {where}{err}", file=sys.stderr)
            return 1
        text = th0.problem_text(problem, reproducible=True)
        out_path = os.path.join(problems_dir, name)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        problem_files.append(out_path)
        n_premises = len(problem.premises)
        summary_lines.append(
            f"{query}: {n_premises} premises, {len(skips)} skipped forms -> {out_path}"
        )
        for s in skips:
            summary_lines.append("  " + s.text())

    _write_lines(os.path.join(cfg.out_dir, "kb-summary.txt"), summary_lines)
    print("\n".join(summary_lines))

    if not cfg.provers:
        print("no provers configured; problems written only")
        return 1 if failures else 0
    results = harness.run_all(cfg.provers, problem_files, cfg.timeout, cfg.jobs)
    harness.write_tsv(os.path.join(cfg.out_dir, "results.tsv"), results)
    print(harness.format_table(results))
    return 1 if failures else 0


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_oracle(args) -> int:
    from . import hforacle

    fuel = hforacle.DEFAULT_FUEL if args.fuel is None else args.fuel
    try:
        results = hforacle.run_lemma_file(args.lemmas, fuel=fuel)
    except (OSError, NotUtf8, hforacle.OracleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(hforacle.format_results(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_check(args) -> int:
    from . import th0

    bad = 0
    for path in args.files:
        try:
            text = read_text(path)
        except (OSError, NotUtf8) as err:
            print(f"{path}: ERROR {err}")
            bad += 1
            if not args.keep_going:
                break
            continue
        diags = th0.check_text(text)
        if diags:
            bad += 1
            for d in diags:
                print(f"{path}: {d}")
            if not args.keep_going:
                break
        else:
            print(f"{path}: ok")
    return 1 if bad else 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, made on first use and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="sumok2set",
        description="translate a SUMO fragment into higher-order set theory problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate one query file against knowledge bases")
    p.add_argument("query", help="query file containing one (query ...) form")
    p.add_argument("--kb", action="append", default=[], help="knowledge base file, repeatable")
    p.add_argument("-o", "--output", help="write problem text here instead of stdout")
    p.add_argument(
        "--skip-head",
        action="append",
        default=[],
        help="head symbol whose forms are skipped (default: modalAttribute, holdsDuring)",
    )
    p.add_argument("--reproducible", action="store_true", help="suppress the date comment")
    p.add_argument(
        "--explain-guards", action="store_true", help="include guard derivations as comments"
    )
    p.add_argument(
        "--expand-row-domains",
        action="store_true",
        help="expand row guards for known heads instead of the generic form",
    )
    p.add_argument("--selection", help="comma separated premise names to keep")
    p.add_argument("--errors-json", action="store_true", help="report errors as JSON")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("run", help="translate and run provers per a config file")
    p.add_argument("config", help="key = value config naming provers, kbs, and queries")
    p.add_argument("--keep-going", action="store_true", help="continue past failing queries")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("oracle", help="brute-force check a lemma file over finite sets")
    p.add_argument("lemmas", help="lemma file, one claim per line")
    p.add_argument("--fuel", type=_positive_int, help="work bound per claim")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("check", help="validate rendered problem files")
    p.add_argument("files", nargs="+", help="problem files to validate")
    p.add_argument("--keep-going", action="store_true", help="check all files before exiting")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
