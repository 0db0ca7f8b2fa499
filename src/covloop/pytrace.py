"""Line and branch coverage for Python targets, from the tracer's store.

The runtime tracer (`_covtrace.py`, copied into a run's build directory)
appends one record of observed lines, arcs and frame-exit lines per test to a
JSON-lines trace store. This module reads that store back, finds the
executable lines and branch sites of the source, and combines the two into a
gcov JSON file entry, the raw coverage format of both lanes.

Branch model: each if/while/for statement contributes two outcome arms, arm 0
entering the body and arm 1 skipping to the else/exit side. Arm execution is
decided from traced line-to-line arcs within a frame, plus frame-exit lines
for loops that fall off the end of their scope. Statements whose body starts
on the header line (inline bodies) and constant-test headers such as
`while True` are not measurable this way and are excluded from the totals.
Conditions are expected to sit on the header line: a site whose header line
fires no trace event is left out too.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from types import CodeType

from .errors import ParseError


def executable_lines(source: str, filename: str = "<target>") -> set[int]:
    """Lines that can fire a trace event, from the compiled line tables.

    Line 0, which Python 3.11+ reports for the RESUME instruction, is not a
    source line and is left out.
    """
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(l for _, _, l in code.co_lines() if l is not None and l > 0)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


@dataclass(frozen=True)
class BranchSite:
    """One measurable two-arm conditional statement."""

    line: int
    body_target: int
    else_target: int | None  # first line of the else/elif side, None if absent


def branch_sites(source: str) -> list[BranchSite]:
    sites: list[BranchSite] = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.If, ast.While, ast.For)):
            continue
        test = getattr(node, "test", None)
        if isinstance(test, ast.Constant):
            continue  # compiler folds constant tests; no runtime branch exists
        body_target = node.body[0].lineno
        else_target = node.orelse[0].lineno if node.orelse else None
        if body_target == node.lineno or else_target == node.lineno:
            continue  # inline body, indistinguishable in line events
        sites.append(BranchSite(node.lineno, body_target, else_target))
    return sorted(sites, key=lambda s: s.line)


def _arm_states(
    site: BranchSite, arcs: set[tuple[int, int]], exit_lines: set[int]
) -> tuple[bool, bool]:
    """(body arm taken, else/exit arm taken) under the observed trace."""
    targets_from_header = {dst for src, dst in arcs if src == site.line}
    body_taken = site.body_target in targets_from_header
    if site.else_target is not None:
        else_taken = site.else_target in targets_from_header
    else:
        else_taken = bool(targets_from_header - {site.body_target}) or (
            site.line in exit_lines
        )
    return body_taken, else_taken


def build_export(source: str, store: dict[str, set]) -> dict:
    """A loaded trace store as a gcov JSON file entry.

    Each executable line is listed with `count` 1 if it ran and 0 if not. A
    branch-site line lists one `branches` item per arm, body arm first, with
    `count` 1 if the arm was taken.
    """
    arms: dict[int, tuple[bool, bool]] = {
        site.line: _arm_states(site, store["arcs"], store["exits"])
        for site in branch_sites(source)
    }
    return {"lines": [
        {
            "line_number": line,
            "count": int(line in store["lines"]),
            "branches": [{"count": int(taken)} for taken in arms.get(line, ())],
        }
        for line in sorted(executable_lines(source))
    ]}


def load_store(path: Path) -> dict[str, set]:
    """The union of a trace store's records: `lines`, `arcs` and `exits` sets.

    A missing store means no runs. A last line without its newline is a
    record cut off when its test was killed mid-write, and is skipped. Any
    other line that is not a record raises ParseError.
    """
    store: dict[str, set] = {"lines": set(), "arcs": set(), "exits": set()}
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return store
    for number, line in enumerate(text.split("\n")[:-1], 1):
        try:
            record = json.loads(line)
            store["lines"].update(record["lines"])
            store["arcs"].update(map(tuple, record["arcs"]))
            store["exits"].update(record["exits"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(
                f"trace store {path}, line {number}, is not a trace record: {exc}"
            ) from exc
    return store
