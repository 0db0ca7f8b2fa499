"""Line and branch tracing for Python targets.

This file plays two roles:

* Imported as a module, it provides the static analysis (executable lines,
  branch sites) and turns an accumulated trace store into a coverage export.
* Copied into a run's build directory and executed as a script, it runs the
  target under sys.settrace, feeds its exit code through, and merges the
  observed lines/arcs into a JSON store (append semantics across runs).

Branch model: each if/while/for statement contributes two outcome arms, arm 0
entering the body and arm 1 skipping to the else/exit side. Arm execution is
decided from traced line-to-line arcs within a frame, plus frame-exit lines
for loops that fall off the end of their scope. Statements whose body starts
on the header line (inline bodies) and constant-test headers such as
`while True` are not measurable this way and are excluded from the totals.
Conditions are expected to sit on a single line.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from dataclasses import dataclass
from types import CodeType

EXPORT_FORMAT = "covloop-pytrace-v1"


# --- static analysis ---


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


def build_export(source: str, store: dict) -> dict:
    """Combine static structure with an accumulated trace store."""
    known = executable_lines(source)
    traced = {int(l) for l in store.get("lines", [])}
    executed = sorted(known & traced)
    missing = sorted(known - traced)
    arcs = {(int(a), int(b)) for a, b in store.get("arcs", [])}
    exits = {int(l) for l in store.get("exits", [])}

    total = 0
    covered = 0
    missing_arms: list[dict] = []
    for site in branch_sites(source):
        states = _arm_states(site, arcs, exits)
        for arm_id, taken in enumerate(states):
            total += 1
            if taken:
                covered += 1
            else:
                missing_arms.append({"line": site.line, "branch_id": arm_id})
    return {
        "format": EXPORT_FORMAT,
        "executed_lines": executed,
        "missing_lines": missing,
        "branches": {"total": total, "covered": covered, "missing": missing_arms},
    }


def empty_store() -> dict:
    return {"lines": [], "arcs": [], "exits": []}


def load_store(path: str | os.PathLike) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):
        return empty_store()


def merge_into_store(
    path: str | os.PathLike,
    lines: set[int],
    arcs: set[tuple[int, int]],
    exits: set[int],
) -> None:
    store = load_store(path)
    lines |= {int(l) for l in store.get("lines", [])}
    arcs |= {(int(a), int(b)) for a, b in store.get("arcs", [])}
    exits |= {int(l) for l in store.get("exits", [])}
    merged = {
        "lines": sorted(lines),
        "arcs": sorted(list(a) for a in arcs),
        "exits": sorted(exits),
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(merged, fh)
    os.replace(tmp, path)


# --- tracer entry point (run as a copied script inside the build dir) ---


def _run_traced(store_path: str, script_path: str, argv: list[str]) -> int:
    import runpy
    import traceback

    target = os.path.abspath(script_path)
    lines: set[int] = set()
    arcs: set[tuple[int, int]] = set()
    exits: set[int] = set()
    last_line: dict[int, int] = {}

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != target:
            return None
        if event == "call":
            return tracer
        if event == "line":
            key = id(frame)
            cur = frame.f_lineno
            lines.add(cur)
            prev = last_line.get(key)
            if prev is not None:
                arcs.add((prev, cur))
            last_line[key] = cur
        elif event == "return":
            exits.add(frame.f_lineno)
            last_line.pop(id(frame), None)
        return tracer

    sys.argv = [target] + argv
    exit_code = 0
    sys.settrace(tracer)
    try:
        runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        if isinstance(exc.code, int):
            exit_code = exc.code
        elif exc.code is not None:
            print(exc.code, file=sys.stderr)
            exit_code = 1
    except BaseException:
        traceback.print_exc()
        exit_code = 1
    finally:
        sys.settrace(None)
    merge_into_store(store_path, lines, arcs, exits)
    return exit_code


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print("usage: pytrace.py <store.json> <script.py> [args...]", file=sys.stderr)
        sys.exit(64)
    sys.exit(_run_traced(sys.argv[1], sys.argv[2], sys.argv[3:]))
