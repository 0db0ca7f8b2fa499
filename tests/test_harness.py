"""Tests for target preparation and instrumented execution."""

import json
import os
import re
import subprocess
import threading
import time

import pytest

from conftest import CRASH_ON_NEGATIVE_C, ECHO_C, SPIN_FOREVER_C
from covloop import harness, pytrace
from covloop.errors import (
    CompileError,
    ContractViolation,
    MissingToolchain,
    SpawnError,
    ToolInvocationError,
)
from covloop.evaluator import parse_gcov
from covloop.model import BranchGap, Language, TestCase


@pytest.fixture(autouse=True)
def close_targets(monkeypatch):
    """Close every target a test prepares, which stops its test server."""
    prepared = []
    prepare = harness.prepare_target

    def recording_prepare(*args, **kwargs):
        prepared.append(prepare(*args, **kwargs))
        return prepared[-1]

    monkeypatch.setattr(harness, "prepare_target", recording_prepare)
    yield
    for target in prepared:
        target.close()


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

    def test_gcov_without_json_format_is_refused_before_compiling(self, tmp_path, monkeypatch):
        # gcov before GCC 9 stops at the first option it does not know.
        fake = tmp_path / "bin" / "gcov"
        fake.parent.mkdir()
        fake.write_text('#!/bin/sh\ncase "$*" in *--json-format*)\n'
                        '  echo "gcov: unrecognized option" >&2; exit 1;;\nesac\n'
                        'echo "gcov (GCC) 8.3.0"\n')
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{fake.parent}{os.pathsep}{os.environ['PATH']}")
        with pytest.raises(MissingToolchain, match="--json-format"):
            prepare_c(tmp_path)
        assert not (tmp_path / "work").exists()

    def test_shim_is_compiled_once_across_threads(self, monkeypatch):
        compiles = []
        real_run = subprocess.run

        def recording_run(cmd, *args, **kwargs):
            if any(str(arg).endswith("_forksrv.c") for arg in cmd):
                compiles.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(harness.subprocess, "run", recording_run)
        harness._compile_shim.cache_clear()
        results = []
        threads = [threading.Thread(target=lambda: results.append(harness._shim_object()))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(compiles) == 1
        assert len(results) == 4 and len(set(results)) == 1

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


# Forks a child that would sleep for a minute, prints its pid, then spins.
FORK_A_SLEEPER_C = """\
#include <stdio.h>
#include <unistd.h>

int main(void) {
    pid_t pid = fork();
    if (pid == 0) {
        sleep(60);
        return 0;
    }
    printf("%d\\n", (int)pid);
    fflush(stdout);
    for (;;);
}
"""

# Defines `read` and `write`, which a static link binds in place of libc's.
OWN_READ_AND_WRITE_C = """\
#include <stdio.h>

static int last;

int read(void) {
    if (scanf("%d", &last) != 1)
        last = 0;
    return last;
}

void write(int value) {
    printf("%d\\n", value);
}

int main(void) {
    int x = read();
    if (x > 3)
        write(x * 2);
    else
        write(-x);
    return 0;
}
"""

PRINT_PIDS_C = """\
#include <stdio.h>
#include <unistd.h>

int main(void) {
    printf("%d %d\\n", (int)getpid(), (int)getppid());
    return 0;
}
"""

KILL_PARENT_ON_NEGATIVE_C = """\
#include <signal.h>
#include <stdio.h>
#include <unistd.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    if (x < 0) {
        kill(getppid(), SIGKILL);
        pause();
    }
    printf("%d\\n", x);
    return 0;
}
"""


def process_state(pid):
    """The state letter of /proc/<pid>/stat, or None once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


class TestTestServer:
    def test_timeout_kills_the_whole_test(self, tmp_path):
        target = prepare_c(tmp_path, FORK_A_SLEEPER_C, "forks.c")
        outcome = harness.run_test(target, TestCase(("1",)), timeout=1.0)
        assert outcome.timed_out
        grandchild = int(outcome.stdout_bytes)
        try:
            # A killed orphan may stay a zombie until init reaps it.
            deadline = time.monotonic() + 5.0
            while process_state(grandchild) not in (None, "Z") and time.monotonic() < deadline:
                time.sleep(0.05)
            assert process_state(grandchild) in (None, "Z")
        finally:
            if process_state(grandchild) not in (None, "Z"):
                os.kill(grandchild, 9)

    def test_target_defining_read_and_write_matches_a_plain_build(self, tmp_path):
        target = prepare_c(tmp_path, OWN_READ_AND_WRITE_C, "rw.c")
        plain = harness.PreparedTarget(Language.C, tmp_path / "plain", tmp_path / "plain",
                                       source_name="rw.c")
        plain.build_dir.mkdir(parents=True)
        (plain.build_dir / "rw.c").write_text(OWN_READ_AND_WRITE_C)
        for cmd in (["gcc", *harness.GCC_COVERAGE_FLAGS, "-c", "rw.c", "-o", "rw.o"],
                    ["gcc", "-fprofile-arcs", "rw.o", "-o", "plain"]):
            subprocess.run(cmd, cwd=plain.build_dir, check=True)
        for value, expected in (("5", b"10\n"), ("1", b"-1\n")):
            outcome = harness.run_test(target, TestCase((value,)), timeout=5.0)
            direct = subprocess.run(["./plain"], input=f"{value}\n".encode(),
                                    cwd=plain.build_dir, capture_output=True, check=True)
            assert outcome.stdout_bytes == direct.stdout == expected
        served = harness.collect_raw_coverage(target)
        assert served["lines"] == harness.collect_raw_coverage(plain)["lines"]
        assert parse_gcov(served).missing_lines == frozenset({7})  # scanf never failed

    @pytest.mark.parametrize("name, source", [
        ("pids.c", PRINT_PIDS_C),
        ("pids.py", "import os\nprint(os.getpid(), os.getppid())\n"),
    ], ids=["c", "python"])
    def test_tests_fork_from_one_server(self, tmp_path, name, source):
        prepare = prepare_c if name.endswith(".c") else prepare_py
        target = prepare(tmp_path, source, name)
        pids = [harness.run_test(target, TestCase(("1",)), timeout=10.0).stdout_bytes.split()
                for _ in range(3)]
        assert len({pid for pid, _ in pids}) == 3
        assert len({parent for _, parent in pids}) == 1
        assert int(pids[0][1]) != os.getpid()

    def test_only_tests_write_coverage_data(self, tmp_path):
        # Neither the server nor its idle child may run gcov's exit handler,
        # which would count a run.
        target = prepare_c(tmp_path)
        for value in ("1", "2"):
            harness.run_test(target, TestCase((value,)), timeout=5.0)
        target.close()
        report = subprocess.run(["gcov", "--stdout", "prog.c"], cwd=target.build_dir,
                                capture_output=True, text=True, check=True).stdout
        assert re.search(r"Runs:(\d+)", report).group(1) == "2"

    def test_python_test_exits_like_the_interpreter(self, tmp_path):
        source = ("import atexit, sys\n"
                  "atexit.register(print, 'at exit')\n"
                  "print('body', end=' ')\n"
                  "sys.exit(3)\n")
        target = prepare_py(tmp_path, source)
        outcome = harness.run_test(target, TestCase(("1",)), timeout=10.0)
        assert outcome.exit_status == 3
        assert outcome.stdout_bytes == b"body at exit\n"

    def test_a_test_that_kills_its_server_raises_and_the_next_one_runs(self, tmp_path):
        target = prepare_c(tmp_path, KILL_PARENT_ON_NEGATIVE_C, "killer.c")
        with pytest.raises(SpawnError, match="test server for .*target exited"):
            harness.run_test(target, TestCase(("-1",)), timeout=5.0)
        assert harness.run_test(target, TestCase(("4",)), timeout=5.0).stdout_bytes == b"4\n"

    def test_stdio_starts_empty_for_each_test(self, tmp_path):
        source = "import sys\ndata = sys.stdin.read()\nprint(len(data), file=sys.stderr)\nprint(data)\n"
        target = prepare_py(tmp_path, source)
        long = harness.run_test(target, TestCase(("x" * 1000,)), timeout=10.0)
        short = harness.run_test(target, TestCase(("y",)), timeout=10.0)
        assert (long.stdout_bytes, long.stderr_bytes) == (b"x" * 1000 + b"\n\n", b"1001\n")
        assert (short.stdout_bytes, short.stderr_bytes) == (b"y\n\n", b"2\n")


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
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.executed_lines == frozenset()
        assert report.missing_lines == frozenset({1, 2})

    def test_python_accumulates_across_runs(self, tmp_path):
        source = "x = int(input())\nif x > 0:\n    print('pos')\nelse:\n    print('neg')\n"
        target = prepare_py(tmp_path, source)
        harness.run_test(target, TestCase(("1",)), timeout=10.0)
        first = parse_gcov(harness.collect_raw_coverage(target))
        harness.run_test(target, TestCase(("-1",)), timeout=10.0)
        second = parse_gcov(harness.collect_raw_coverage(target))
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

