"""Tests for the Python lane: static analysis, gcov entry, trace store, tracer."""

import os
import subprocess
import sys

import pytest

from conftest import require_interpreter
from covloop import _covtrace, pytrace
from covloop.errors import ParseError
from covloop.evaluator import parse_gcov
from covloop.model import BranchGap

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

# Conditions and a for's iterable that span lines: the `if (` and `):` lines
# fire no trace event, and the arcs into each body leave from a later line.
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


class TestStaticAnalysis:
    def test_executable_lines(self):
        lines = pytrace.executable_lines(BRANCHY)
        assert lines == {1, 2, 3, 4, 6, 7, 8, 9}

    def test_branch_sites(self):
        sites = pytrace.branch_sites(BRANCHY)
        assert [(s.span, s.body_target, s.else_target) for s in sites] == [
            (range(2, 3), 3, None),
            (range(7, 8), 8, None),
        ]

    def test_else_and_elif_targets(self):
        source = "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n"
        sites = pytrace.branch_sites(source)
        assert [(s.span, s.body_target, s.else_target) for s in sites] == [
            (range(1, 2), 2, 3),
            (range(3, 4), 4, 6),
        ]

    def test_constant_test_excluded(self):
        assert pytrace.branch_sites("while True:\n    break\n") == []

    def test_inline_body_excluded(self):
        assert pytrace.branch_sites("if x: y = 1\n") == []
        assert pytrace.branch_sites("if (x and\n        y): z = 1\n") == []

    def test_for_loop_is_a_site(self):
        sites = pytrace.branch_sites("for i in range(3):\n    print(i)\n")
        assert [(s.span, s.body_target) for s in sites] == [(range(1, 2), 2)]

    def test_header_span_ends_with_the_condition(self):
        sites = pytrace.branch_sites(MULTILINE)
        assert [(s.span, s.body_target) for s in sites] == [
            (range(3, 5), 5),
            (range(6, 8), 9),
            (range(10, 12), 12),
            (range(13, 15), 15),
        ]


def report_of(source, store):
    """The report the loop derives from a trace store: via the gcov JSON entry."""
    return parse_gcov(pytrace.build_export(source, store))


class TestBuildExport:
    def test_empty_store_reports_everything_missing(self, tmp_path):
        report = report_of(BRANCHY, pytrace.load_store(tmp_path / "none.jsonl"))
        assert report.executed_lines == frozenset()
        assert report.missing_lines == frozenset({1, 2, 3, 4, 6, 7, 8, 9})
        assert report.total_branches == 4
        assert report.taken_branches == 0
        assert len(report.missing_branches) == 4

    def test_arcs_decide_branch_arms(self):
        # Trace shape for input 2: loop entered and exited, if-false only.
        store = {
            "lines": {1, 2, 4, 6, 7, 8, 9},
            "arcs": {(1, 6), (2, 4), (6, 7), (7, 8), (7, 9), (8, 7)},
            "exits": {4, 9},
        }
        report = report_of(BRANCHY, store)
        assert report.missing_lines == frozenset({3})
        assert report.total_branches == 4
        assert report.taken_branches == 3
        assert report.missing_branches == (BranchGap(line=2, branch_id=0),)

    def test_exit_detects_loop_falloff(self):
        source = "for i in range(2):\n    print(i)\n"
        store = {"lines": {1, 2}, "arcs": {(1, 2), (2, 1)}, "exits": {1}}
        assert report_of(source, store).taken_branches == 2

    def test_entry_is_a_gcov_file_entry(self):
        source = "x = int(input())\nif x:\n    x = 2\nprint(x)\n"
        store = {"lines": {1, 2, 4}, "arcs": {(1, 2), (2, 4)}, "exits": {4}}
        assert pytrace.build_export(source, store) == {"lines": [
            {"line_number": 1, "count": 1, "branches": []},
            {"line_number": 2, "count": 1, "branches": [{"count": 0}, {"count": 1}]},
            {"line_number": 3, "count": 0, "branches": []},
            {"line_number": 4, "count": 1, "branches": []},
        ]}

    def test_foreign_lines_ignored(self):
        store = {"lines": {1, 999}, "arcs": set(), "exits": set()}
        report = report_of("x = 1\n", store)
        assert report.executed_lines == frozenset({1})
        assert report.missing_lines == frozenset()


class TestLoadStore:
    def test_records_are_unioned(self, tmp_path):
        store = tmp_path / "trace.jsonl"
        store.write_text(
            '{"lines": [1, 2], "arcs": [[1, 2]], "exits": [2]}\n'
            '{"lines": [1, 3], "arcs": [[1, 3]], "exits": [3]}\n'
        )
        assert pytrace.load_store(store) == {
            "lines": {1, 2, 3}, "arcs": {(1, 2), (1, 3)}, "exits": {2, 3},
        }

    def test_cut_off_last_record_skipped(self, tmp_path):
        store = tmp_path / "trace.jsonl"
        store.write_text('{"lines": [1], "arcs": [], "exits": [1]}\n{"lines": [1, 2')
        assert pytrace.load_store(store)["lines"] == {1}

    def test_corrupt_record_raises_and_names_store(self, tmp_path):
        store = tmp_path / "trace.jsonl"
        for bad in ("{}\n", "not json\n", '{"lines": [[1]], "arcs": [], "exits": []}\n',
                    '\n{"lines": [1], "arcs": [], "exits": []}\n'):
            store.write_text(bad)
            with pytest.raises(ParseError, match="trace.jsonl"):
                pytrace.load_store(store)


def run_tracer(tmp_path, source, stdin="", args=(), python=sys.executable):
    script = tmp_path / "t.py"
    script.write_text(source)
    store = tmp_path / "trace.jsonl"
    proc = subprocess.run(
        [python, _covtrace.__file__, str(store), str(script), *args],
        input=stdin.encode(),
        capture_output=True,
        timeout=30,
    )
    return proc, store


class TestTracerShim:
    def test_records_lines_and_arcs(self, tmp_path):
        proc, store = run_tracer(tmp_path, BRANCHY, stdin="2\n")
        assert proc.returncode == 0
        data = pytrace.load_store(store)
        assert 6 in data["lines"]
        assert (7, 8) in data["arcs"]

    def test_append_merges_across_runs(self, tmp_path):
        source = "x = int(input())\nif x > 0:\n    print('pos')\nelse:\n    print('neg')\n"
        _, store = run_tracer(tmp_path, source, stdin="1\n")
        first = pytrace.load_store(store)["lines"]
        run_tracer(tmp_path, source, stdin="-1\n")
        second = pytrace.load_store(store)["lines"]
        assert first < second  # strictly grew: the else arm appeared
        assert second == {1, 2, 3, 5}
        assert len(store.read_text().splitlines()) == 2  # one record per run
        assert sorted(os.listdir(tmp_path)) == ["t.py", "trace.jsonl"]

    def test_exit_code_passthrough(self, tmp_path):
        proc, _ = run_tracer(tmp_path, "import sys\nsys.exit(3)\n")
        assert proc.returncode == 3

    def test_crash_reports_failure_but_keeps_trace(self, tmp_path):
        proc, store = run_tracer(tmp_path, "x = 1\nraise RuntimeError('boom')\n")
        assert proc.returncode == 1
        assert b"boom" in proc.stderr
        assert 1 in pytrace.load_store(store)["lines"]

    def test_stdin_reaches_target(self, tmp_path):
        proc, _ = run_tracer(tmp_path, "print(input())\n", stdin="marker\n")
        assert proc.stdout.strip() == b"marker"

    def test_imports_only_what_tracing_needs(self, tmp_path):
        source = (
            "import sys\n"
            "heavy = {'ast', 'dataclasses', 'traceback', 'covloop'}\n"
            "print(sorted(heavy & set(sys.modules)))\n"
        )
        proc, _ = run_tracer(tmp_path, source)
        assert proc.stdout.strip() == b"[]"


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
        workdir = tmp_path / name
        workdir.mkdir()
        for stdin in ("0\n", "3\n"):
            proc, store = run_tracer(workdir, LOOPS, stdin, python=interpreter)
            assert proc.returncode == 0, proc.stderr
        stores.append(pytrace.load_store(store))
    assert stores[1] == stores[0]


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_multiline_conditions_are_measured(tmp_path, minor):
    python = require_interpreter(minor)
    for stdin in ("1\n1\n", "1\n0\n", "0\n1\n"):
        proc, store = run_tracer(tmp_path, MULTILINE, stdin, python=python)
        assert proc.returncode == 0, proc.stderr
    report = report_of(MULTILINE, pytrace.load_store(store))
    assert report.missing_lines == frozenset()
    assert report.total_branches == 8
    assert report.missing_branches == ()
