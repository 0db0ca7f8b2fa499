"""Normalization of raw coverage, a gcov JSON file entry in both lanes, into
CoverageReport, plus the JSON coverage artifact that each loop iteration
writes to its workdir."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import CovloopError
from .model import BranchGap, CoverageReport, format_pct


def parse_gcov(entry: dict) -> CoverageReport:
    """Map one file entry of `gcov -b --json-format` output to CoverageReport.

    Both lanes produce this entry: gcov itself for C, `pytrace.build_export`
    for Python. A listed line is executed when its count is positive and
    missing otherwise. Each of its `branches` is one outcome arm, covered as
    soon as its count is positive and numbered by its position among the
    line's arms. A line listed more than once (one listing per function on
    it) is merged.
    """
    listed: set[int] = set()
    executed: set[int] = set()
    arms: dict[int, list[bool]] = {}
    try:
        for line in entry["lines"]:
            lineno = int(line["line_number"])
            listed.add(lineno)
            if line["count"] > 0:
                executed.add(lineno)
            arms.setdefault(lineno, []).extend(b["count"] > 0 for b in line["branches"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CovloopError(f"gcov JSON entry does not match expected schema: {exc}") from exc
    return CoverageReport(
        executed_lines=frozenset(executed),
        missing_lines=frozenset(listed - executed),
        total_branches=sum(len(hits) for hits in arms.values()),
        missing_branches=tuple(sorted(
            BranchGap(line=lineno, branch_id=arm)
            for lineno, hits in arms.items()
            for arm, hit in enumerate(hits)
            if not hit
        )),
    )


# The span wrapper of perfbench/spans.py still names this; it goes with that file.
parse_dynamic_coverage = parse_gcov


def percentages(report: CoverageReport) -> dict[str, str]:
    """A report's three percentages by name, each rendered to two decimals."""
    return {
        "line_coverage": format_pct(report.line_coverage),
        "branch_coverage": format_pct(report.branch_coverage),
        "total_coverage": format_pct(report.total_coverage),
    }


def render_artifact(report: CoverageReport) -> str:
    """Artifact JSON text: the report's raw fields, then its percentages."""
    raw = {
        "executed_lines": sorted(report.executed_lines),
        "missing_lines": sorted(report.missing_lines),
        "missing_branches": [
            {"line": g.line, "branch_id": g.branch_id}
            for g in report.missing_branches
        ],
        "total_branches": report.total_branches,
        "taken_branches": report.taken_branches,
    }
    parts = [f'  "{key}": {json.dumps(value, separators=(", ", ": "))}'
             for key, value in raw.items()]
    parts += [f'  "{key}": {text}' for key, text in percentages(report).items()]
    return "{\n" + ",\n".join(parts) + "\n}\n"


def emit_artifact(report: CoverageReport, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(render_artifact(report), encoding="utf-8")
    return path

