"""Tests for the Python lane: probe table, gcov entry, hits file, prober."""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import require_interpreter
from covloop import _covtrace, harness, pytrace
from covloop.errors import CovloopError
from covloop.evaluator import parse_gcov
from covloop.model import BranchGap, TestCase

BRANCHY = """\
def classify(n):
    if n < 0:
        return "neg"
    return "nonneg"

x = int(input())
while x > 0:
    x = x - 1
print(classify(x))
"""

# Conditions and a for's iterable that span lines: each header is one
# statement, measured on its first line.
MULTILINE = """\
x = int(input())
y = int(input())
if (x > 0 and
        y > 0):
    print("both")
if (
    x > 0
):
    print("pos")
while (x > 0 and
       y > 0):
    x -= 1
for i in range(
        y):
    print(i)
print("done")
"""

# Every statement that can run, runs; the rest can never run.
NEVER_RUNS = """\
x = 0
def f():
    global x
    x = 1
    return x
    x = 2
f()
if False:
    x = 3
while True:
    break
else:
    x = 4
"""


def statement_lines(source):
    return {line for line, arm in _covtrace.instrument(ast.parse(source)) if arm is None}


def arms(source):
    return [(line, arm) for line, arm in _covtrace.instrument(ast.parse(source))
            if arm is not None]


class TestStaticAnalysis:
    def test_executable_lines(self):
        assert statement_lines(BRANCHY) == {1, 2, 3, 4, 6, 7, 8, 9}

    def test_branch_sites(self):
        assert arms(BRANCHY) == [(2, 0), (2, 1), (7, 0), (7, 1)]

    def test_else_and_elif_targets(self):
        source = "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n"
        assert arms(source) == [(1, 0), (1, 1), (3, 0), (3, 1)]
        assert statement_lines(source) == {1, 2, 3, 4, 6}

    def test_constant_test_excluded(self):
        assert arms("while True:\n    break\n") == []
        assert arms("if 0:\n    x = 1\n") == []

    def test_inline_body_is_measured(self):
        assert arms("if x: y = 1\n") == [(1, 0), (1, 1)]
        assert arms("if (x and\n        y): z = 1\n") == [(1, 0), (1, 1)]

    def test_for_loop_is_a_site(self):
        assert arms("for i in range(3):\n    print(i)\n") == [(1, 0), (1, 1)]

    def test_multiline_header_counts_on_its_first_line(self):
        assert arms(MULTILINE) == [(line, arm) for line in (3, 6, 10, 13) for arm in (0, 1)]
        assert statement_lines(MULTILINE) == {1, 2, 3, 5, 6, 9, 10, 12, 13, 15, 16}

    def test_a_statement_counts_once_on_its_first_line(self):
        source = ("import functools\n"
                  "@functools.cache\n"
                  "def f(x):\n"
                  "    return (x +\n"
                  "            1)\n"
                  "try:\n"
                  "    f(1)\n"
                  "except ValueError:\n"
                  "    pass\n")
        assert statement_lines(source) == {1, 3, 4, 6, 7, 9}

    def test_code_that_never_runs_gets_no_probe(self, tmp_path):
        assert statement_lines(NEVER_RUNS) == {1, 2, 4, 5, 7, 8, 10, 11}
        assert arms(NEVER_RUNS) == []
        _, hits = run_prober(tmp_path, NEVER_RUNS)
        assert report_of(NEVER_RUNS, hits).line_coverage == 100.0


def report_of(source, hits):
    """The report the loop derives from a hits file: via the gcov JSON entry."""
    return parse_gcov(pytrace.build_export(source, hits))


class TestBuildExport:
    def test_empty_store_reports_everything_missing(self, tmp_path):
        report = report_of(BRANCHY, tmp_path / "none")
        assert report.executed_lines == frozenset()
        assert report.missing_lines == frozenset({1, 2, 3, 4, 6, 7, 8, 9})
        assert report.total_branches == 4
        assert report.taken_branches == 0
        assert len(report.missing_branches) == 4

    def test_exit_detects_loop_falloff(self, tmp_path):
        source = "for i in range(2):\n    print(i)\n"
        _, hits = run_prober(tmp_path, source)
        assert report_of(source, hits).taken_branches == 2
        broken = "for i in range(2):\n    break\n"
        _, hits = run_prober(tmp_path / "broken", broken)
        assert report_of(broken, hits).missing_branches == (BranchGap(line=1, branch_id=1),)

    def test_entry_is_a_gcov_file_entry(self, tmp_path):
        source = "x = int(input())\nif x:\n    x = 2\nprint(x)\n"
        _, hits = run_prober(tmp_path, source, stdin="0\n")
        assert pytrace.build_export(source, hits) == {"lines": [
            {"line_number": 1, "count": 1, "branches": []},
            {"line_number": 2, "count": 1, "branches": [{"count": 0}, {"count": 1}]},
            {"line_number": 3, "count": 0, "branches": []},
            {"line_number": 4, "count": 1, "branches": []},
        ]}


class TestLoadStore:
    def test_corrupt_record_raises_and_names_store(self, tmp_path):
        # One byte per probe: a file of any other size was made for another source.
        hits = tmp_path / "hits"
        probes = len(_covtrace.instrument(ast.parse(BRANCHY)))
        for size in (0, probes - 1, probes + 1):
            hits.write_bytes(bytes(size))
            with pytest.raises(CovloopError, match=re.escape(str(hits))):
                pytrace.load_store(hits, probes)
            with pytest.raises(CovloopError, match=re.escape(str(hits))):
                pytrace.build_export(BRANCHY, hits)
        hits.write_bytes(bytes([1] * probes))
        assert pytrace.load_store(hits, probes) == bytes([1] * probes)


def run_prober(directory, source, stdin="", args=(), python=sys.executable):
    directory.mkdir(parents=True, exist_ok=True)
    script = directory / "t.py"
    script.write_text(source)
    hits = directory / "hits"
    proc = subprocess.run(
        [python, _covtrace.__file__, str(hits), str(script), *args],
        input=stdin.encode(),
        capture_output=True,
        timeout=30,
    )
    return proc, hits


class TestTracerShim:
    """`_covtrace.py` run on its own, as `python _covtrace.py <hits> <script>`."""

    def test_records_lines_and_arms(self, tmp_path):
        proc, hits = run_prober(tmp_path, BRANCHY, stdin="2\n")
        assert proc.returncode == 0
        report = report_of(BRANCHY, hits)
        assert report.missing_lines == frozenset({3})
        assert report.total_branches == 4
        assert report.taken_branches == 3
        assert report.missing_branches == (BranchGap(line=2, branch_id=0),)

    def test_append_merges_across_runs(self, tmp_path):
        source = "x = int(input())\nif x > 0:\n    print('pos')\nelse:\n    print('neg')\n"
        _, hits = run_prober(tmp_path, source, stdin="1\n")
        first = report_of(source, hits).executed_lines
        run_prober(tmp_path, source, stdin="-1\n")
        second = report_of(source, hits).executed_lines
        assert first < second  # strictly grew: the else arm appeared
        assert second == {1, 2, 3, 5}
        assert sorted(os.listdir(tmp_path)) == ["hits", "t.py"]

    def test_exit_code_passthrough(self, tmp_path):
        proc, _ = run_prober(tmp_path, "import sys\nsys.exit(3)\n")
        assert proc.returncode == 3

    def test_crash_reports_failure_but_keeps_trace(self, tmp_path):
        proc, hits = run_prober(tmp_path, "x = 1\nraise RuntimeError('boom')\n")
        assert proc.returncode == 1
        assert b"boom" in proc.stderr
        assert f'File "{tmp_path / "t.py"}", line 2'.encode() in proc.stderr
        assert 1 in report_of("x = 1\nraise RuntimeError('boom')\n", hits).executed_lines

    def test_stdin_reaches_target(self, tmp_path):
        proc, _ = run_prober(tmp_path, "print(input())\n", stdin="marker\n")
        assert proc.stdout.strip() == b"marker"

    def test_target_runs_as_main(self, tmp_path):
        source = ('"""Doc."""\n'
                  "from __future__ import annotations\n"
                  "import dataclasses, sys\n"
                  "@dataclasses.dataclass\n"
                  "class Point:\n"
                  '    """A point."""\n'
                  "    x: int\n"
                  "print(__name__, __file__ == sys.argv[0], sys.argv[1:])\n"
                  "print(__doc__, Point.__doc__, Point(1))\n"
                  "print(sys.modules['__main__'].Point is Point)\n")
        proc, hits = run_prober(tmp_path, source, args=("a", "b"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().splitlines() == [
            "__main__ True ['a', 'b']", "Doc. A point. Point(x=1)", "True"]
        assert report_of(source, hits).line_coverage == 100.0

    def test_imports_only_what_tracing_needs(self, tmp_path):
        # Under -S, no site hook imports a module on the prober's behalf.
        script = tmp_path / "t.py"
        script.write_text(
            "import sys\n"
            "heavy = {'dataclasses', 'threading', 'traceback', 'covloop'}\n"
            "print(sorted(heavy & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", _covtrace.__file__, str(tmp_path / "hits"), str(script)],
            capture_output=True, timeout=30)
        assert proc.stdout.strip() == b"[]", proc.stderr


def served_report(tmp_path, source, *values, timeout=10.0):
    """The report after running `source` once per value through the loop's
    own path: prepared target, test server, collection."""
    script = tmp_path / "prog.py"
    script.write_text(source)
    with harness.prepare_target(script, tmp_path / "work") as target:
        for value in values:
            harness.run_test(target, TestCase((value,)), timeout=timeout)
    return parse_gcov(harness.collect_raw_coverage(target))


class TestEverythingThatRunsIsMeasured:
    def test_branch_run_only_in_a_thread(self, tmp_path):
        source = ("import threading\n"
                  "def work(x):\n"
                  "    if x > 0:\n"
                  "        print('pos')\n"
                  "t = threading.Thread(target=work, args=(int(input()),))\n"
                  "t.start()\n"
                  "t.join()\n")
        report = served_report(tmp_path, source, "1")
        assert report.missing_lines == frozenset()
        assert report.missing_branches == (BranchGap(line=3, branch_id=1),)

    def test_target_that_ends_with_os_exit(self, tmp_path):
        report = served_report(tmp_path, "import os\nprint(input())\nos._exit(0)\n", "1")
        assert report.executed_lines == frozenset({1, 2, 3})

    def test_inline_body_arms(self, tmp_path):
        report = served_report(tmp_path, "x = int(input())\nif x: y = 1\n", "1")
        assert report.total_branches == 2
        assert report.missing_branches == (BranchGap(line=2, branch_id=1),)


LOOPS = """\
def scale(v):
    return v * 2

n = int(input())
total = 0
while n > 0:
    n -= 1
    total += scale(n)
for i in range(total):
    if i % 2:
        total -= 1
print(total)
"""


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_same_store_on_every_interpreter(tmp_path, minor):
    python = require_interpreter(minor)
    stores = []
    for name, interpreter in (("here", sys.executable), ("there", python)):
        for stdin in ("0\n", "3\n"):
            proc, hits = run_prober(tmp_path / name, LOOPS, stdin, python=interpreter)
            assert proc.returncode == 0, proc.stderr
        stores.append(hits.read_bytes())
    # The same fixture through the prober's server mode, on that interpreter.
    script = tmp_path / "loops.py"
    script.write_text(LOOPS)
    with harness.prepare_target(script, tmp_path / "served") as target:
        target.test_argv = (python, *target.test_argv[1:])
        for value in ("0", "3"):
            outcome = harness.run_test(target, TestCase((value,)), timeout=30.0)
            assert outcome.exit_status == 0
    stores.append(target.data_store.read_bytes())
    assert stores[2] == stores[1] == stores[0]
    assert report_of(LOOPS, target.data_store).total_coverage == 100.0


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_multiline_conditions_are_measured(tmp_path, minor):
    python = require_interpreter(minor)
    for stdin in ("1\n1\n", "1\n0\n", "0\n1\n"):
        proc, hits = run_prober(tmp_path, MULTILINE, stdin, python=python)
        assert proc.returncode == 0, proc.stderr
    report = report_of(MULTILINE, hits)
    assert report.missing_lines == frozenset()
    assert report.total_branches == 8
    assert report.missing_branches == ()


# Tests the compiler folds to a constant: it drops one side of each, so they
# get no arms, and only the side that runs is measured. Under -O, `__debug__`
# is False and the other side of the first two is dropped, which makes one
# probe more.
FOLDED = """\
x = 1
if __debug__:
    x = 2
if not __debug__:
    x = 3
    x = 4
while (1, 2):
    x = 5
    break
if not False:
    x = 6
if -1:
    x = 7
if 1 + 1:
    x = 8
while 1 and 0:
    x = 9
if x or True:
    x = 10
if x and False:
    x = 11
if not 0:
    x = 12
while '' or 0:
    x = 13
if None:
    x = 14
"""
FOLDED_LINES = {1, 2, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 22, 23, 24, 26}


def arms_of(source):
    """The arm of each probe, statement probes (None) included."""
    return [arm for _, arm in _covtrace.instrument(ast.parse(source))]


@pytest.mark.parametrize("test", ["__debug__", "not __debug__", "not False", "(1, 2)",
                                  "()", "not (0, __debug__)", "-1", "1 + 1", "1 and 0",
                                  "x or True", "x and False", "not 0", "'' or 0", "None"])
def test_folded_tests_get_no_arms(test):
    for kind in ("if", "while"):
        assert arms_of(f"{kind} {test}:\n    x = 1\nelse:\n    x = 2\n") == [None, None]


@pytest.mark.parametrize("test", ["x", "1 < 2", "[]", "(x, 1)"])
def test_unfolded_tests_keep_both_arms(test):
    for kind in ("if", "while"):
        assert arms_of(f"{kind} {test}:\n    x = 1\nelse:\n    x = 2\n") == [
            None, 0, None, 1, None]


@pytest.mark.parametrize("test", ["await x", "(yield)"])
def test_a_test_that_cannot_compile_alone_keeps_both_arms(test):
    assert arms_of(f"async def f():\n    if {test}:\n        x = 1\n") == [None, None, 0, None, 1]


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_folded_tests_reach_full_coverage_on_every_interpreter(tmp_path, minor):
    python = require_interpreter(minor)
    script = tmp_path / "folded.py"
    script.write_text(FOLDED)
    with harness.prepare_target(script, tmp_path / "work") as target:
        target.test_argv = (python, *target.test_argv[1:])
        outcome = harness.run_test(target, TestCase(()), timeout=30.0)
        assert outcome.exit_status == 0
    report = parse_gcov(harness.collect_raw_coverage(target))
    assert report.executed_lines == frozenset(FOLDED_LINES | {3})
    assert report.missing_lines == frozenset()
    assert (report.total_branches, report.missing_branches) == (0, ())
    assert report.total_coverage == 100.0


def test_folded_tests_reach_full_coverage_under_optimize(tmp_path):
    """covloop run under -O starts its test server under -O too, so both
    fold `__debug__` to False and agree on the probe table."""
    script = tmp_path / "folded.py"
    script.write_text(FOLDED)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "covloop.cli", "run", str(script), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    artifact = json.loads((out / "coverage" / "iter_0.json").read_text())
    assert artifact["executed_lines"] == sorted(FOLDED_LINES | {5, 6})
    assert (artifact["missing_lines"], artifact["missing_branches"]) == ([], [])
    assert json.loads((out / "result.json").read_text())["termination"] == "threshold_met"


def test_compiler_warnings_of_a_test_do_not_change_its_arms(tmp_path):
    """Under -W error, the `is` with a literal warning that compiling the
    test alone raises neither fails the skeleton nor reaches stderr: covloop
    folds `x is 1 or True` as its test server does, which runs without -W."""
    script = tmp_path / "is_literal.py"
    script.write_text("x = 1\nif x is 1 or True:\n    x = 2\nif x is 1:\n    x = 3\n")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "covloop.cli", "run", str(script),
         "--out", str(out), "--threshold", "50"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "<test>" not in proc.stderr
    artifact = json.loads((out / "coverage" / "iter_0.json").read_text())
    assert artifact["executed_lines"] == [1, 2, 3, 4]
    assert artifact["missing_branches"] == [{"line": 4, "branch_id": 0}]
