"""Tests for target preparation and instrumented execution."""

import json
import os
import subprocess

import pytest

from conftest import CRASH_ON_NEGATIVE_C, ECHO_C, SPIN_FOREVER_C
from covloop import harness, pytrace
from covloop.errors import CompileError, ContractViolation, ToolInvocationError
from covloop.evaluator import parse_dynamic_coverage, parse_gcov
from covloop.model import BranchGap, Language, TestCase


def prepare_c(tmp_path, source=ECHO_C, name="prog.c"):
    source_path = tmp_path / name
    source_path.write_text(source)
    return harness.prepare_target(source_path, Language.C, tmp_path / "work")


def prepare_py(tmp_path, source, name="prog.py"):
    source_path = tmp_path / name
    source_path.write_text(source)
    return harness.prepare_target(source_path, Language.PYTHON, tmp_path / "work")


class TestPrepareTarget:
    def test_c_builds_instrumented_binary(self, tmp_path):
        target = prepare_c(tmp_path)
        assert target.executable_or_script.exists()
        assert (target.build_dir / "prog.gcno").exists()
        assert target.testcases_dir.is_dir()
        assert target.coverage_dir.is_dir()

    def test_c_syntax_error_carries_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void { return 0; }\n")
        with pytest.raises(CompileError) as exc:
            harness.prepare_target(bad, Language.C, tmp_path / "work")
        assert "error" in str(exc.value)

    def test_python_copies_script_and_tracer(self, tmp_path):
        target = prepare_py(tmp_path, "print(input())\n")
        assert target.executable_or_script.read_text() == "print(input())\n"
        assert (target.build_dir / "_covtrace.py").exists()
        assert not target.data_store.exists()  # fresh store, created on first run

    def test_source_inside_a_reset_entry_is_refused(self, tmp_path):
        target = prepare_c(tmp_path)
        built_source = target.build_dir / "prog.c"
        with pytest.raises(ContractViolation):
            harness.prepare_target(built_source, Language.C, target.workdir)
        assert built_source.read_text() == ECHO_C

    def test_refused_source_resets_nothing(self, tmp_path):
        target = prepare_c(tmp_path)
        source = target.prompts_dir / "prog.c"
        source.write_text(ECHO_C)
        with pytest.raises(ContractViolation):
            harness.prepare_target(source, Language.C, target.workdir)
        assert (target.build_dir / "prog.gcno").exists()
        assert source.read_text() == ECHO_C

    def test_project_build_dir_without_manifest_is_kept(self, tmp_path):
        project = tmp_path / "proj"
        keep = project / "build" / "keep.txt"
        keep.parent.mkdir(parents=True)
        keep.write_text("mine")
        source = tmp_path / "prog.c"
        source.write_text(ECHO_C)
        with pytest.raises(ContractViolation):
            harness.prepare_target(source, Language.C, project)
        assert keep.read_text() == "mine"
        assert not (project / "manifest.json").exists()

    def test_foreign_manifest_is_kept(self, tmp_path):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "manifest.json").write_text('{"name": "app"}\n')
        source = tmp_path / "prog.c"
        source.write_text(ECHO_C)
        with pytest.raises(ContractViolation):
            harness.prepare_target(source, Language.C, project)
        assert (project / "manifest.json").read_text() == '{"name": "app"}\n'

    def test_other_files_in_workdir_survive_reruns(self, tmp_path):
        notes = tmp_path / "work" / "notes.txt"
        notes.parent.mkdir()
        notes.write_text("mine")
        prepare_c(tmp_path)
        prepare_c(tmp_path)
        assert notes.read_text() == "mine"

    def test_workdir_of_a_failed_build_is_reused(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void { return 0; }\n")
        with pytest.raises(CompileError):
            harness.prepare_target(bad, Language.C, tmp_path / "work")
        assert prepare_c(tmp_path).executable_or_script.exists()

    def test_tool_versions_are_read_once_per_process(self, tmp_path, monkeypatch):
        prepare_c(tmp_path)
        spawned = []
        real_run = subprocess.run

        def recording_run(cmd, *args, **kwargs):
            spawned.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(harness.subprocess, "run", recording_run)
        target = prepare_c(tmp_path)
        assert [cmd for cmd in spawned if "--version" in cmd] == []
        manifest = json.loads((target.workdir / "manifest.json").read_text())
        assert manifest["gcc"] and manifest["gcov"]

    def test_manifest_records_tools_and_flags(self, tmp_path):
        target = prepare_c(tmp_path)
        manifest = json.loads((target.workdir / "manifest.json").read_text())
        assert manifest["language"] == "c"
        assert "-ftest-coverage" in manifest["compile_flags"]
        assert "-b" in manifest["gcov_flags"]
        assert manifest["gcc"] != ""


class TestRunTest:
    def test_echo_roundtrip(self, tmp_path):
        target = prepare_c(tmp_path)
        outcome = harness.run_test(target, TestCase(("5",)), timeout=5.0)
        assert outcome.exit_status == 0
        assert not outcome.timed_out
        assert b"5" in outcome.stdout_bytes

    def test_timeout_kills_and_records(self, tmp_path):
        target = prepare_c(tmp_path, SPIN_FOREVER_C, "spin.c")
        outcome = harness.run_test(target, TestCase(("1",)), timeout=1.0)
        assert outcome.timed_out
        assert outcome.exit_status is None
        assert 0.9 <= outcome.duration <= 3.0

    def test_timeout_after_closing_its_output(self, tmp_path):
        # The pipes reach end of file long before the child exits.
        source = ("#include <stdio.h>\n"
                  "int main(void) { fclose(stdout); fclose(stderr); for (;;); }\n")
        target = prepare_c(tmp_path, source, "quiet_spin.c")
        outcome = harness.run_test(target, TestCase(("1",)), timeout=1.0)
        assert outcome.timed_out
        assert 0.9 <= outcome.duration <= 3.0

    @pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="no pidfds here")
    def test_waiting_for_exit_does_not_poll(self, tmp_path, monkeypatch):
        target = prepare_c(tmp_path)
        sleeps = []
        monkeypatch.setattr(harness.subprocess.time, "sleep", sleeps.append)
        for value in range(20):
            assert harness.run_test(target, TestCase((str(value),)), timeout=5.0).exit_status == 0
        assert sleeps == []

    def test_crash_recorded_not_raised(self, tmp_path):
        target = prepare_c(tmp_path, CRASH_ON_NEGATIVE_C, "crash.c")
        outcome = harness.run_test(target, TestCase(("-1",)), timeout=5.0)
        assert outcome.timed_out is False
        assert outcome.exit_status != 0

    def test_deterministic_exit_status(self, tmp_path):
        target = prepare_c(tmp_path)
        first = harness.run_test(target, TestCase(("9",)), timeout=5.0)
        second = harness.run_test(target, TestCase(("9",)), timeout=5.0)
        assert first.exit_status == second.exit_status == 0

    def test_python_runs_under_tracer(self, tmp_path):
        target = prepare_py(tmp_path, "print(int(input()) * 2)\n")
        outcome = harness.run_test(target, TestCase(("21",)), timeout=10.0)
        assert outcome.exit_status == 0
        assert outcome.stdout_bytes.strip() == b"42"
        assert target.data_store.exists()

    def test_python_timeout_drops_a_cut_off_record(self, tmp_path):
        source = "if input() == 'spin':\n    while True:\n        pass\nprint('done')\n"
        target = prepare_py(tmp_path, source)
        target.data_store.write_text(
            '{"lines": [1], "arcs": [], "exits": []}\n{"lines": [1, 2], "ar')
        assert harness.run_test(target, TestCase(("spin",)), timeout=1.0).timed_out
        harness.run_test(target, TestCase(("go",)), timeout=10.0)
        assert 4 in pytrace.load_store(target.data_store)["lines"]
        assert len(target.data_store.read_text().splitlines()) == 2


class TestCollectRawCoverage:
    def test_c_before_any_run_reports_zero_counters(self, tmp_path):
        target = prepare_c(tmp_path)
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.executed_lines == frozenset()
        assert report.missing_lines  # all executable lines unexecuted

    def test_c_accumulates_across_runs(self, tmp_path):
        source = (
            "#include <stdio.h>\n"
            "\n"
            "int main(void) {\n"
            "    int x = 0;\n"
            "    scanf(\"%d\", &x);\n"
            "    if (x > 0) {\n"
            "        printf(\"pos\\n\");\n"
            "    } else {\n"
            "        printf(\"neg\\n\");\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        target = prepare_c(tmp_path, source, "signs.c")
        harness.run_test(target, TestCase(("1",)), timeout=5.0)
        first = parse_gcov(harness.collect_raw_coverage(target))
        harness.run_test(target, TestCase(("-1",)), timeout=5.0)
        second = parse_gcov(harness.collect_raw_coverage(target))
        assert first.executed_lines <= second.executed_lines
        assert first.taken_branches < second.taken_branches
        assert second.branch_coverage == 100.0

    def test_c_writes_no_gcov_file(self, tmp_path):
        target = prepare_c(tmp_path)
        harness.run_test(target, TestCase(("5",)), timeout=5.0)
        harness.collect_raw_coverage(target)
        assert list(target.build_dir.glob("*.gcov")) == []

    def test_c_entries_for_other_files_ignored(self, tmp_path):
        # `#line` makes gcov report helper() under a second file entry whose
        # line numbers overlap this file's.
        source = (
            "#include <stdio.h>\n"
            "static int twice(int v) { return 2 * v; }\n"
            "#line 1 \"elsewhere.c\"\n"
            "static int helper(int v) {\n"
            "    if (v > 3)\n"
            "        return 1;\n"
            "    return 0;\n"
            "}\n"
            "#line 10 \"prog.c\"\n"
            "int main(void) {\n"
            "    int x = 0;\n"
            "    if (scanf(\"%d\", &x) != 1) return 1;\n"
            "    printf(\"%d %d\\n\", helper(x), twice(x));\n"
            "    return 0;\n"
            "}\n"
        )
        target = prepare_c(tmp_path, source)
        harness.run_test(target, TestCase(("5",)), timeout=5.0)
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.executed_lines == frozenset({2, 10, 11, 12, 13, 14})
        assert report.missing_lines == frozenset()
        assert report.total_branches == 2
        assert report.missing_branches == (BranchGap(line=12, branch_id=0),)

    def test_c_source_without_entry_raises(self, tmp_path):
        source = '#line 1 "elsewhere.c"\nint main(void) { return 0; }\n'
        target = prepare_c(tmp_path, source)
        with pytest.raises(ToolInvocationError):
            harness.collect_raw_coverage(target)

    def test_python_before_any_run_reports_zero_counters(self, tmp_path):
        target = prepare_py(tmp_path, "x = input()\nprint(x)\n")
        report = parse_dynamic_coverage(harness.collect_raw_coverage(target))
        assert report.executed_lines == frozenset()
        assert report.missing_lines == frozenset({1, 2})

    def test_python_accumulates_across_runs(self, tmp_path):
        source = "x = int(input())\nif x > 0:\n    print('pos')\nelse:\n    print('neg')\n"
        target = prepare_py(tmp_path, source)
        harness.run_test(target, TestCase(("1",)), timeout=10.0)
        first = parse_dynamic_coverage(harness.collect_raw_coverage(target))
        harness.run_test(target, TestCase(("-1",)), timeout=10.0)
        second = parse_dynamic_coverage(harness.collect_raw_coverage(target))
        assert first.executed_lines < second.executed_lines
        assert second.line_coverage == 100.0
        assert second.branch_coverage == 100.0

    def test_instrumentation_stays_inside_workdir(self, tmp_path, monkeypatch):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        for prepare in (prepare_c, lambda p: prepare_py(p, "print(input())\n")):
            target = prepare(tmp_path)
            harness.run_test(target, TestCase(("1",)), timeout=10.0)
            harness.collect_raw_coverage(target)
        assert list(elsewhere.iterdir()) == []

