"""Command-line entry point: single-target runs and benchmark batches."""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .analyzer import _EXTENSIONS
from .driver import RunResult, run_loop
from .errors import CovloopError
from .model import BackendKind, RunConfig, Termination, format_pct

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

    def add_common(p):
        p.add_argument("--threshold", type=float, default=90.0,
                       help="stop once (line%% + branch%%)/2 reaches this (default 90)")
        p.add_argument("--max-iters", type=int, default=10,
                       help="iteration cap (default 10)")
        p.add_argument("--timeout", type=float, default=5.0,
                       help="per-test timeout in seconds (default 5)")
        p.add_argument("--backend", choices=["stub", "http"], default="stub")
        p.add_argument("--model", default="stub", help="model id for the backend")
        p.add_argument("--endpoint", default=None,
                       help="completion endpoint URL (http backend)")
        p.add_argument("--out", type=Path, default=Path("covloop_out"),
                       help="output directory (default covloop_out)")
        p.add_argument("--no-line-feedback", action="store_true")
        p.add_argument("--no-branch-feedback", action="store_true")

    run_p = sub.add_parser("run", help="run the loop over one source file")
    run_p.add_argument("source", type=Path)
    add_common(run_p)

    bench_p = sub.add_parser("bench", help="run every target in a directory")
    bench_p.add_argument("directory", type=Path)
    add_common(bench_p)
    bench_p.add_argument("--jobs", type=int, default=1,
                         help="parallel targets (default 1)")
    bench_p.add_argument("--bound", default=None,
                         help="bound label for targets directly in the directory")
    return parser


def _config_from_args(args, workdir: Path) -> RunConfig:
    return RunConfig(
        threshold=args.threshold,
        k_max=args.max_iters,
        per_test_timeout=args.timeout,
        backend=BackendKind(args.backend),
        model_id=args.model,
        workdir=workdir,
        endpoint=args.endpoint,
        line_feedback_enabled=not args.no_line_feedback,
        branch_feedback_enabled=not args.no_branch_feedback,
    )


def cli_run(args) -> int:
    config = _config_from_args(args, args.out)
    try:
        result = run_loop(config, args.source)
    except (CovloopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

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
    if result.termination is Termination.K_MAX_REACHED:
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
        if path.is_file() and path.suffix in _EXTENSIONS:
            targets.append((path, default_bound or "-"))
        elif path.is_dir():
            for inner in sorted(path.iterdir()):
                if inner.is_file() and inner.suffix in _EXTENSIONS:
                    targets.append((inner, path.name))
    stems = Counter((path.stem, label) for path, label in targets)
    return [(path.stem if stems[path.stem, label] == 1 else path.name, path, label)
            for path, label in targets]


def bench_run(args) -> int:
    directory: Path = args.directory
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_ERROR
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    targets = _bench_targets(directory, args.bound)

    def one(entry) -> tuple[str, str, RunResult | str]:
        program, path, label = entry
        config = _config_from_args(args, out / f"{program}__{label}")
        try:
            return program, label, run_loop(config, path)
        except (CovloopError, OSError) as exc:
            log.error("target %s failed: %s", path, exc)
            return program, label, f"ERROR: {exc}"

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        rows = list(pool.map(one, targets))
    rows.sort(key=lambda r: (r[0], r[1]))

    _write_reports(out, rows)
    print(f"report written to {out / 'report.csv'} ({len(rows)} targets)")
    return EXIT_OK


_REPORT_COLUMNS = ["program", "bound", "branch_coverage", "line_coverage",
                   "execution_time_sec"]


def _write_reports(out: Path, rows) -> None:
    csv_path = out / "report.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        for program, bound, result in rows:
            writer.writerow(_report_row(program, bound, result))

    md_path = out / "report.md"
    with open(md_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("| " + " | ".join(_REPORT_COLUMNS) + " |\n")
        fh.write("|" + "---|" * len(_REPORT_COLUMNS) + "\n")
        for program, bound, result in rows:
            cells = [str(c) for c in _report_row(program, bound, result)]
            fh.write("| " + " | ".join(cells) + " |\n")

    curves_path = out / "curves.csv"
    with open(curves_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["program", "k", "line", "branch"])
        for program, _, result in rows:
            if isinstance(result, str):
                continue
            for record in result.iterations:
                writer.writerow([
                    program, record.k,
                    format_pct(record.line_coverage),
                    format_pct(record.branch_coverage),
                ])


def _report_row(program: str, bound: str, result: RunResult | str) -> list:
    if isinstance(result, str):
        return [program, bound, "ERROR", "ERROR", "ERROR"]
    report = result.final_report
    return [
        program,
        bound,
        format_pct(report.branch_coverage),
        format_pct(report.line_coverage),
        f"{result.total_duration:.2f}",
    ]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "run":
        return cli_run(args)
    return bench_run(args)


if __name__ == "__main__":
    sys.exit(main())
