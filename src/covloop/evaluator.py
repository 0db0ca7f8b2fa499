"""Normalization of raw coverage, a gcov JSON file entry in both lanes, into
CoverageReport, plus the JSON coverage artifact consumed by the feedback
agents and report generator."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ContractViolation, ParseError, PersistError
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
        raise ParseError(f"gcov JSON entry does not match expected schema: {exc}") from exc
    gaps = [
        BranchGap(line=lineno, branch_id=arm)
        for lineno, taken in arms.items()
        for arm, hit in enumerate(taken)
        if not hit
    ]
    total = sum(len(taken) for taken in arms.values())
    return _checked_report(executed, listed - executed, total, total - len(gaps), gaps)


# The span wrapper of perfbench/spans.py still names this; it goes with that file.
parse_dynamic_coverage = parse_gcov


def _checked_report(executed, missing, total, taken, gaps) -> CoverageReport:
    """Build a report; its own invariants are the one consistency check."""
    try:
        return CoverageReport(
            executed_lines=frozenset(executed),
            missing_lines=frozenset(missing),
            total_branches=total,
            taken_branches=taken,
            missing_branches=tuple(gaps),
        )
    except ContractViolation as exc:
        raise ParseError(f"inconsistent coverage data: {exc}") from exc


def artifact_dict(report: CoverageReport) -> dict:
    """The coverage artifact as a plain dict (percentages still floats)."""
    return {
        "executed_lines": sorted(report.executed_lines),
        "missing_lines": sorted(report.missing_lines),
        "missing_branches": [
            {"line": g.line, "branch_id": g.branch_id, "taken": g.taken}
            for g in report.missing_branches
        ],
        "total_branches": report.total_branches,
        "taken_branches": report.taken_branches,
        "line_coverage": report.line_coverage,
        "branch_coverage": report.branch_coverage,
        "total_coverage": report.total_coverage,
    }


def render_artifact(report: CoverageReport) -> str:
    """Artifact JSON text with percentage fields rendered to two decimals."""
    data = artifact_dict(report)
    parts = []
    for key, value in data.items():
        if key.endswith("_coverage"):
            rendered = format_pct(value)
        else:
            rendered = json.dumps(value, separators=(", ", ": "))
        parts.append(f'  "{key}": {rendered}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def emit_artifact(report: CoverageReport, path: str | Path) -> Path:
    path = Path(path)
    try:
        path.write_text(render_artifact(report), encoding="utf-8")
    except OSError as exc:
        raise PersistError(f"cannot write coverage artifact {path}: {exc}") from exc
    return path


def read_artifact(path: str | Path) -> CoverageReport:
    """Inverse of emit_artifact; percentages are recomputed from raw fields."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise PersistError(f"cannot read coverage artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"coverage artifact {path} is not valid JSON: {exc}") from exc
    try:
        return _checked_report(
            executed=data["executed_lines"],
            missing=data["missing_lines"],
            total=int(data["total_branches"]),
            taken=int(data["taken_branches"]),
            gaps=(
                BranchGap(line=g["line"], branch_id=g["branch_id"])
                for g in data["missing_branches"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"coverage artifact {path} is missing fields: {exc}") from exc
