"""Seeded benchmark corpus: C/Python twin programs and their coverage oracle.

Every program is built from a small statement tree that renders to C (for
gcov) and to Python (for the settrace tracer), and to an instrumented Python
function that records which statements ran and which branch arms were taken.
The oracle therefore knows, for any set of stdin inputs, the exact statement
lines and branch arms a correct coverage report must show, without running
gcc, gcov or the tracer.

The shapes of each workload are fixed; the seed draws the comparison
constants, keeping their relative order. The stub backend reacts to the order
of constants, not to their values, so every seed asks for the same work and
the figures of one workload can be compared across seeds.

Expressions use only integer +, -, * and comparisons, which mean the same in
C (`long long`) and Python for the magnitudes the stub produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Assign:
    var: str
    expr: str


@dataclass(frozen=True)
class Print:
    expr: str


@dataclass(frozen=True)
class If:
    cond: str
    body: tuple
    orelse: tuple | None = None


@dataclass(frozen=True)
class While:
    cond: str
    body: tuple


@dataclass
class Program:
    """One target: stdin inputs, zero-initialised locals and a body.

    The exit status is the local `rc`, so a body can make a run exit non-zero
    without a second return statement.
    """

    name: str
    inputs: tuple[str, ...]
    locals: tuple[str, ...]
    body: tuple

    def __post_init__(self):
        if "rc" not in self.locals:
            self.locals = self.locals + ("rc",)


def _statements(body):
    """Pre-order walk: each statement once, with its index in that order."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from _statements(stmt.body)
            if stmt.orelse:
                yield from _statements(stmt.orelse)
        elif isinstance(stmt, While):
            yield from _statements(stmt.body)


def _number(program: Program) -> dict[int, int]:
    """Statement object id -> pre-order index."""
    return {id(s): i for i, s in enumerate(_statements(program.body))}


@dataclass(frozen=True)
class Rendered:
    """Source text of one lane plus where each statement landed."""

    text: str
    stmt_line: dict[int, int]  # pre-order index -> 1-based line
    always_lines: frozenset[int]  # lines that run whenever the program runs
    n_lines: int


def render_c(program: Program) -> Rendered:
    lines = ["#include <stdio.h>", "", "int main(void) {"]
    always = {3}
    decls = ", ".join(f"{v} = 0" for v in program.inputs + program.locals)
    lines.append(f"    long long {decls};")
    always.add(len(lines))
    fmt = " ".join("%lld" for _ in program.inputs)
    refs = ", ".join(f"&{v}" for v in program.inputs)
    lines.append(f'    scanf("{fmt}", {refs});')
    always.add(len(lines))
    index = _number(program)
    stmt_line: dict[int, int] = {}

    def emit(body, depth):
        pad = "    " * depth
        for stmt in body:
            stmt_line[index[id(stmt)]] = len(lines) + 1
            if isinstance(stmt, Assign):
                lines.append(f"{pad}{stmt.var} = {stmt.expr};")
            elif isinstance(stmt, Print):
                lines.append(f'{pad}printf("%lld\\n", (long long)({stmt.expr}));')
            elif isinstance(stmt, If):
                lines.append(f"{pad}if ({stmt.cond}) {{")
                emit(stmt.body, depth + 1)
                if stmt.orelse:
                    lines.append(f"{pad}}} else {{")
                    emit(stmt.orelse, depth + 1)
                lines.append(f"{pad}}}")
            else:
                lines.append(f"{pad}while ({stmt.cond}) {{")
                emit(stmt.body, depth + 1)
                lines.append(f"{pad}}}")

    emit(program.body, 1)
    lines.append("    return (int)rc;")
    always.add(len(lines))
    lines.append("}")
    return Rendered("\n".join(lines) + "\n", stmt_line, frozenset(always), len(lines))


def render_py(program: Program) -> Rendered:
    lines = [" = ".join(program.locals) + " = 0"]
    always = {1}
    for v in program.inputs:
        lines.append(f"{v} = int(input())")
        always.add(len(lines))
    index = _number(program)
    stmt_line: dict[int, int] = {}

    def emit(body, depth):
        pad = "    " * depth
        for stmt in body:
            stmt_line[index[id(stmt)]] = len(lines) + 1
            if isinstance(stmt, Assign):
                lines.append(f"{pad}{stmt.var} = {stmt.expr}")
            elif isinstance(stmt, Print):
                lines.append(f"{pad}print({stmt.expr})")
            elif isinstance(stmt, If):
                lines.append(f"{pad}if {stmt.cond}:")
                emit(stmt.body, depth + 1)
                if stmt.orelse:
                    lines.append(f"{pad}else:")
                    emit(stmt.orelse, depth + 1)
            else:
                lines.append(f"{pad}while {stmt.cond}:")
                emit(stmt.body, depth + 1)

    emit(program.body, 0)
    lines.append("raise SystemExit(rc)")
    always.add(len(lines))
    return Rendered("\n".join(lines) + "\n", stmt_line, frozenset(always), len(lines))


RENDERERS = {"c": render_c, "py": render_py}


# --- oracle ---


def _simulator(program: Program):
    """Compile the program into `run(values, hit, arms)` that records coverage.

    hit[i] is set when statement i runs; arms[i] = [body arm, else/exit arm]
    for each if/while statement i.
    """
    index = _number(program)
    out = ["def run(values, hit, arms):"]
    for v in program.locals:
        out.append(f"    {v} = 0")
    for k, v in enumerate(program.inputs):
        out.append(f"    {v} = values[{k}]")

    def emit(body, depth):
        pad = "    " * depth
        for stmt in body:
            i = index[id(stmt)]
            out.append(f"{pad}hit[{i}] = True")
            if isinstance(stmt, Assign):
                out.append(f"{pad}{stmt.var} = {stmt.expr}")
            elif isinstance(stmt, Print):
                out.append(f"{pad}({stmt.expr})")
            elif isinstance(stmt, If):
                out.append(f"{pad}if {stmt.cond}:")
                out.append(f"{pad}    arms[{i}][0] = True")
                emit(stmt.body, depth + 1)
                out.append(f"{pad}else:")
                out.append(f"{pad}    arms[{i}][1] = True")
                if stmt.orelse:
                    emit(stmt.orelse, depth + 1)
            else:
                out.append(f"{pad}while True:")
                out.append(f"{pad}    if not ({stmt.cond}):")
                out.append(f"{pad}        arms[{i}][1] = True")
                out.append(f"{pad}        break")
                out.append(f"{pad}    arms[{i}][0] = True")
                emit(stmt.body, depth + 1)

    emit(program.body, 1)
    namespace: dict = {}
    exec(compile("\n".join(out) + "\n", f"<oracle {program.name}>", "exec"), namespace)
    return namespace["run"]


@dataclass(frozen=True)
class Expected:
    """What a correct report shows for one lane after a given set of runs."""

    executed_lines: frozenset[int]
    missing_lines: frozenset[int]
    total_arms: int
    taken_arms: int
    missing_arms_by_line: dict[int, int]


def expected_coverage(
    program: Program, rendered: Rendered, runs: list[tuple[int, ...]]
) -> Expected:
    run = _simulator(program)
    stmts = list(_statements(program.body))
    hit = [False] * len(stmts)
    arms = [[False, False] for _ in stmts]
    for values in runs:
        run(values, hit, arms)
    statement_lines = set(rendered.always_lines) | set(rendered.stmt_line.values())
    executed = {rendered.stmt_line[i] for i, h in enumerate(hit) if h}
    if runs:
        executed |= rendered.always_lines
    missing_by_line: dict[int, int] = {}
    total = taken = 0
    for i, stmt in enumerate(stmts):
        if isinstance(stmt, (If, While)):
            total += 2
            taken += sum(arms[i])
            if not all(arms[i]):
                missing_by_line[rendered.stmt_line[i]] = 2 - sum(arms[i])
    return Expected(
        executed_lines=frozenset(executed),
        missing_lines=frozenset(statement_lines - executed),
        total_arms=total,
        taken_arms=taken,
        missing_arms_by_line=missing_by_line,
    )


def disagreements(report, expected: Expected, n_lines: int) -> list[str]:
    """Every way a CoverageReport differs from the oracle; empty when exact."""
    problems = []
    if report.total_branches != expected.total_arms:
        problems.append(
            f"branch arms total {report.total_branches} != {expected.total_arms}"
        )
    if report.taken_branches != expected.taken_arms:
        problems.append(
            f"branch arms taken {report.taken_branches} != {expected.taken_arms}"
        )
    by_line: dict[int, int] = {}
    for gap in report.missing_branches:
        by_line[gap.line] = by_line.get(gap.line, 0) + 1
    if by_line != expected.missing_arms_by_line:
        problems.append(
            f"missing arms per line {sorted(by_line.items())} != "
            f"{sorted(expected.missing_arms_by_line.items())}"
        )
    if report.executed_lines != expected.executed_lines:
        problems.append(
            "executed lines differ: "
            f"extra {sorted(report.executed_lines - expected.executed_lines)}, "
            f"absent {sorted(expected.executed_lines - report.executed_lines)}"
        )
    if report.missing_lines != expected.missing_lines:
        problems.append(
            "missing lines differ: "
            f"extra {sorted(report.missing_lines - expected.missing_lines)}, "
            f"absent {sorted(expected.missing_lines - report.missing_lines)}"
        )
    outside = sorted(
        l for l in report.executed_lines | report.missing_lines
        if not 1 <= l <= n_lines
    )
    if outside:
        problems.append(f"lines outside 1..{n_lines}: {outside}")
    return problems


def read_testcases(testcases_dir: Path) -> list[tuple[int, ...]]:
    """Persisted inputs, in file order, parsed as the targets parse them."""
    runs = []
    for path in sorted(testcases_dir.glob("test_*.txt")):
        values = path.read_text(encoding="utf-8").split("\n")[:-1]
        runs.append(tuple(int(v) for v in values))
    return runs


# --- workloads ---


def _constants(rng: random.Random, n: int) -> list[int]:
    """n ascending constants in [10, 990], pairwise at least 3 apart.

    The stub proposes K-1, K, K+1 for an ordering guard on K; the spacing
    keeps those proposals distinct, so every seed yields the same case counts.
    """
    return sorted(10 + 3 * k for k in rng.sample(range(327), n))


def small_programs(rng: random.Random) -> list[Program]:
    """A dozen one-to-three-input shapes that converge in a few iterations."""
    k = _constants(rng, 14)
    return [
        Program("straight", ("x",), (), (Print("x"),)),
        Program("guard", ("x",), (), (
            If(f"x == {k[5]}", (Print("1"),), (Print("0"),)),
        )),
        Program("countdown", ("x",), ("n",), (
            Assign("n", "x"),
            If("n > 6", (Assign("n", "6"),)),
            While("n > 0", (Assign("n", "n - 1"),)),
            Print("n"),
        )),
        Program("flag", ("x",), ("flag",), (
            If(f"x > {k[8]}", (Assign("flag", "1"),)),
            Print("flag"),
        )),
        Program("pair", ("a", "b"), (), (
            If("a > 0", (Print("a"),)),
            If("b > 0", (Print("b"),), (Print("0 - b"),)),
        )),
        Program("nested", ("a", "b", "c"), ("t",), (
            If(f"a != {k[1]}", (
                Assign("t", "t + 1"),
                If(f"b != {k[7]}", (
                    Assign("t", "t + 2"),
                    If(f"c != {k[12]}", (Assign("t", "t + 3"),)),
                )),
            )),
            Print("t"),
        )),
        Program("ladder", ("x",), ("t",), (
            If(f"x < {k[2]}", (Assign("t", "1"),), (
                If(f"x < {k[10]}", (Assign("t", "2"),), (Assign("t", "3"),)),
            )),
            Print("t"),
        )),
        Program("loopguard", ("x",), ("i", "t"), (
            While("i < 4", (
                If(f"x > {k[4]} + i", (Assign("t", "t + 1"),)),
                Assign("i", "i + 1"),
            )),
            Print("t"),
        )),
        Program("status", ("x",), (), (
            If(f"x < {k[3]}", (Assign("rc", "3"),)),
            Print("x"),
        )),
        Program("eqpair", ("a", "b"), ("t",), (
            If(f"a == {k[0]}", (
                Assign("t", "1"),
                If(f"b == {k[11]}", (Assign("t", "2"),)),
            )),
            Print("t"),
        )),
        Program("range", ("x",), ("t",), (
            If(f"x >= {k[6]}", (
                If(f"x <= {k[13]}", (Assign("t", "1"),), (Assign("t", "2"),)),
            ), (Assign("t", "3"),)),
            Print("t"),
        )),
        Program("compare", ("a", "b"), (), (
            If("a > b", (Print("a"),), (Print("b"),)),
            If("a == b", (Assign("rc", "1"),)),
        )),
    ]


def deep_programs(rng: random.Random) -> list[Program]:
    """Three-input programs with a dozen constant guards and one arm behind a
    hash the stub cannot invert, so a threshold of 100 is never met."""
    programs = []
    for p in range(3):
        k = _constants(rng, 12)
        h = 900_000_000 + rng.randrange(10_000_000)
        var = ("a", "b", "c")
        sites = []
        for j in range(12):
            v = var[(j + p) % 3]
            op = ("==", "<", "!=", ">")[j % 4]
            inner = (Assign("t", f"t + {j + 1}"),)
            if j % 3 == 2:
                w = var[(j + p + 1) % 3]
                inner += (If(f"{w} > {v}", (Assign("t", "t - 1"),)),)
            orelse = (Assign("t", "t * 2"),) if j % 2 else None
            sites.append(If(f"{v} {op} {k[j]}", inner, orelse))
        body = (
            *sites,
            Assign("h", "a * 961 + b * 31 + c"),
            If(f"h == {h}", (Assign("rc", "7"), Print("h"))),
            Print("t"),
        )
        programs.append(Program(f"deep{p}", var, ("t", "h"), body))
    return programs


def hotloop_programs(rng: random.Random) -> list[Program]:
    """Loops whose trip count is an input: the stub's 1000000 runs them 10^6
    times. The guard after each loop needs one round of feedback."""
    k = _constants(rng, 3)
    return [
        Program("sumloop", ("n", "m"), ("i", "s"), (
            While("i < n", (Assign("s", "s + m"), Assign("i", "i + 1"))),
            If(f"n == {k[0]}", (Assign("rc", "2"),)),
            Print("s"),
        )),
        Program("countloop", ("n",), ("i", "s"), (
            While("i < n", (
                Assign("i", "i + 1"),
                If(f"i > {k[1]}", (Assign("s", "s + 1"),)),
            )),
            If(f"n == {k[2]}", (Assign("rc", "1"),)),
            Print("s"),
        )),
    ]


WORKLOADS = {
    # name: (lane, programs, loop threshold)
    "c-small": ("c", small_programs, 90.0),
    "py-small": ("py", small_programs, 90.0),
    "c-deep": ("c", deep_programs, 100.0),
    "py-hotloop": ("py", hotloop_programs, 90.0),
}


@dataclass(frozen=True)
class Target:
    program: Program
    rendered: Rendered
    path: Path


def write_corpus(workload: str, seed: int, directory: Path) -> list[Target]:
    """Generate the workload's programs for a seed and write their sources."""
    lane, make, _ = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    targets = []
    for program in make(random.Random(f"{make.__name__}:{seed}")):
        rendered = RENDERERS[lane](program)
        path = directory / f"{program.name}.{lane}"
        path.write_text(rendered.text, encoding="utf-8")
        targets.append(Target(program, rendered, path))
    return targets
