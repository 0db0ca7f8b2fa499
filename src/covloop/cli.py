"""Command-line entry point: single-target runs and benchmark batches."""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from .analyzer import EXTENSIONS
from .backends import make_backend
from .driver import RunResult, run_loop
from .errors import ContractViolation, CovloopError
from .model import RunConfig, Termination, format_pct

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAP_REACHED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_help(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covloop",
        description="Coverage-feedback test input generation for C and Python targets.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig()

    def add_common(p):
        p.add_argument("--threshold", type=float, default=defaults.threshold,
                       help="stop once (line%% + branch%%)/2 reaches this (default %(default)g)")
        p.add_argument("--max-iters", type=int, default=defaults.k_max,
                       help="iteration cap (default %(default)s)")
        p.add_argument("--timeout", type=float, default=defaults.per_test_timeout,
                       help="per-test timeout in seconds (default %(default)g)")
        p.add_argument("--model", default=defaults.model_id,
                       help="model id sent to the endpoint (default %(default)s)")
        p.add_argument("--endpoint", default=defaults.endpoint,
                       help="completion endpoint URL; without one, the offline stub answers")
        p.add_argument("--out", type=Path, default=defaults.workdir,
                       help="output directory (default %(default)s)")
        p.add_argument("--no-line-feedback", action="store_true")
        p.add_argument("--no-branch-feedback", action="store_true")

    run_p = sub.add_parser("run", help="run the loop over one source file")
    run_p.add_argument("source", type=Path)
    add_common(run_p)
    run_p.set_defaults(parser=run_p)

    bench_p = sub.add_parser("bench", help="run every target in a directory")
    bench_p.add_argument("directory", type=Path)
    add_common(bench_p)
    bench_p.set_defaults(parser=bench_p)
    bench_p.add_argument("--jobs", type=int, default=1,
                         help="parallel targets (default 1)")
    bench_p.add_argument("--bound", default=None,
                         help="bound label for targets directly in the directory")
    return parser


def _config_from_args(args) -> RunConfig:
    """The run's RunConfig. A flag out of the range RunConfig checks is a
    usage error that names the flag, raised before any directory is made."""
    config = RunConfig(
        model_id=args.model,
        workdir=args.out,
        endpoint=args.endpoint,
        line_feedback_enabled=not args.no_line_feedback,
        branch_feedback_enabled=not args.no_branch_feedback,
    )
    for flag, field, value in (("--threshold", "threshold", args.threshold),
                               ("--max-iters", "k_max", args.max_iters),
                               ("--timeout", "per_test_timeout", args.timeout)):
        try:
            config = replace(config, **{field: value})
        except ContractViolation as exc:
            args.parser.error(f"argument {flag}: {exc}")
    return config


def cli_run(args, config: RunConfig) -> int:
    result = run_loop(config, args.source)
    report = result.final_report
    print(f"target:          {args.source}")
    print(f"line coverage:   {format_pct(report.line_coverage)}%")
    print(f"branch coverage: {format_pct(report.branch_coverage)}%")
    print(f"total coverage:  {format_pct(report.total_coverage)}%")
    print(f"iterations:      {len(result.iterations)}")
    print(f"test cases:      {len(result.cache)}")
    print(f"duration:        {result.total_duration:.2f}s")
    print(f"termination:     {result.termination.value}")
    if result.termination is Termination.THRESHOLD_MET:
        return EXIT_OK
    if result.termination in (Termination.K_MAX_REACHED, Termination.STAGNATED):
        return EXIT_CAP_REACHED
    return EXIT_ERROR


def _bench_targets(directory: Path, default_bound: str | None):
    """(program, source, bound label) for the sources directly in the
    directory, plus one level of bound-label subdirs.

    A program is named by its stem, or by its file name where two sources of
    one label share a stem, so each gets a workdir and a report row of its own.
    """
    targets = []
    for path in sorted(directory.iterdir()):
        if path.is_file() and path.suffix in EXTENSIONS:
            targets.append((path, default_bound or "-"))
        elif path.is_dir():
            for inner in sorted(path.iterdir()):
                if inner.is_file() and inner.suffix in EXTENSIONS:
                    targets.append((inner, path.name))
    stems = Counter((path.stem, label) for path, label in targets)
    return [(path.stem if stems[path.stem, label] == 1 else path.name, path, label)
            for path, label in targets]


def bench_run(args, config: RunConfig) -> int:
    if args.jobs < 1:
        args.parser.error(f"argument --jobs: must be >= 1: {args.jobs}")
    # Refuse a backend that cannot start, or a directory that cannot be
    # listed, before --out is made; each target still builds its own
    # backend, so each stub run starts afresh.
    make_backend(config)
    targets = _bench_targets(args.directory, args.bound)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)

    def one(entry) -> tuple[str, str, RunResult | None]:
        program, path, label = entry
        try:
            return program, label, run_loop(
                replace(config, workdir=out / f"{program}__{label}"), path)
        except (CovloopError, OSError) as exc:
            log.error("target %s failed: %s", path, exc)
            return program, label, None

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(one, targets))
    rows.sort(key=lambda r: (r[0], r[1]))

    _write_reports(out, rows)
    print(f"report written to {out / 'report.csv'} ({len(rows)} targets)")
    return EXIT_OK


def _write_reports(out: Path, rows) -> None:
    table = [["program", "bound", "branch_coverage", "line_coverage", "execution_time_sec",
              "termination"]]
    for program, bound, result in rows:
        if result is None:
            table.append([program, bound, "ERROR", "ERROR", "ERROR", "ERROR"])
        else:
            report = result.final_report
            table.append([program, bound, format_pct(report.branch_coverage),
                          format_pct(report.line_coverage), f"{result.total_duration:.2f}",
                          result.termination.value])

    with open(out / "report.csv", "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)

    lines = ["| " + " | ".join(cells) + " |\n" for cells in table]
    lines.insert(1, "|" + "---|" * len(table[0]) + "\n")
    with open(out / "report.md", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)

    with open(out / "curves.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["program", "k", "line", "branch"])
        for program, _, result in rows:
            if result is None:
                continue
            for k, record in enumerate(result.iterations):
                writer.writerow([
                    program, k,
                    format_pct(record.report.line_coverage),
                    format_pct(record.report.branch_coverage),
                ])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            return cli_run(args, config)
        return bench_run(args, config)
    except (CovloopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
