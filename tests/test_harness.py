"""Tests for target preparation and instrumented execution."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import (
    CRASH_ON_NEGATIVE_C,
    ECHO_C,
    GUARD_C,
    NESTED_GUARDS_C,
    SPIN_FOREVER_C,
    UNREACHABLE_ARM_C,
)
from covloop import harness, testserver
from covloop.errors import ContractViolation, CovloopError, SpawnError
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


def prepare_c(tmp_path, source=ECHO_C, name="prog.c", work="work"):
    source_path = tmp_path / name
    source_path.write_text(source)
    return harness.prepare_target(source_path, tmp_path / work)


@pytest.fixture(params=["gold", "default"])
def linker(request, monkeypatch):
    """Each linker a C target can be built with: gold, or gcc's default."""
    if request.param == "default":
        monkeypatch.setattr(harness, "_links_with_gold", lambda: False)
    elif not harness._links_with_gold():
        pytest.skip("gcc cannot link with gold here")
    return request.param


def prepare_py(tmp_path, source, name="prog.py"):
    source_path = tmp_path / name
    source_path.write_text(source)
    return harness.prepare_target(source_path, tmp_path / "work")


class TestPrepareTarget:
    def test_c_builds_instrumented_binary(self, tmp_path):
        target = prepare_c(tmp_path)
        assert (target.build_dir / "target").exists()
        assert (target.build_dir / "prog.gcno").exists()
        assert target.testcases_dir.is_dir()
        assert target.coverage_dir.is_dir()

    def test_c_syntax_error_carries_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void { return 0; }\n")
        with pytest.raises(CovloopError, match="failed with status") as exc:
            harness.prepare_target(bad, tmp_path / "work")
        assert "error" in str(exc.value)

    @pytest.mark.parametrize("name, source, built", [
        ("prog.c", ECHO_C, ["prog.gcda", "prog.gcno", "target"]),
        ("prog.py", "open('wrote.txt', 'w').write(input())\n", ["wrote.txt"]),
    ], ids=["c", "python"])
    def test_build_holds_only_what_gcc_and_the_tests_write(self, tmp_path, name, source, built):
        project = tmp_path / "project"
        project.mkdir()
        (project / name).write_text(source)
        listed = sorted(project.iterdir())
        target = harness.prepare_target(project / name, tmp_path / "work")
        assert target.source == (project / name).resolve()
        assert not target.data_store.exists()  # fresh store, created on first run
        assert harness.run_test(target, TestCase(("1",)), timeout=10.0).exit_status == 0
        assert parse_gcov(harness.collect_raw_coverage(target)).missing_lines == frozenset()
        target.close()
        assert sorted(p.name for p in target.build_dir.iterdir()) == built
        assert sorted(project.iterdir()) == listed

    def test_python_script_named_like_the_prober_is_measured_as_itself(self, tmp_path):
        source = "x = input()\nif x == 'a':\n    print(1)\nprint(2)\n"
        target = prepare_py(tmp_path, source, name="_covtrace.py")
        assert harness.run_test(target, TestCase(("a",)), timeout=10.0).exit_status == 0
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.executed_lines == frozenset({1, 2, 3, 4})
        assert report.missing_lines == frozenset()

    def test_unsupported_suffix_is_refused_before_the_workdir_is_made(self, tmp_path):
        source = tmp_path / "prog.java"
        source.write_text("class Prog {}\n")
        with pytest.raises(ContractViolation, match="unsupported extension"):
            harness.prepare_target(source, tmp_path / "work")
        assert not (tmp_path / "work").exists()

    def test_symlinked_source_is_taken_by_its_resolved_name(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        (real / "limit.h").write_text("#define LIMIT 7\n")
        (real / "prog.c").write_text('#include "limit.h"\nint main(void) { return LIMIT; }\n')
        (tmp_path / "link.c").symlink_to(real / "prog.c")
        target = harness.prepare_target(tmp_path / "link.c", tmp_path / "work")
        assert json.loads((target.workdir / "manifest.json").read_text())["source"] == "prog.c"
        assert harness.run_test(target, TestCase(("1",)), timeout=5.0).exit_status == 7
        target.close()
        (tmp_path / "gen.c").symlink_to(real / "generated_src")
        (real / "generated_src").write_text(ECHO_C)
        with pytest.raises(ContractViolation, match="unsupported extension"):
            harness.prepare_target(tmp_path / "gen.c", tmp_path / "fresh")
        assert not (tmp_path / "fresh").exists()

    def test_source_inside_a_reset_entry_is_refused(self, tmp_path):
        target = prepare_c(tmp_path)
        built_source = target.build_dir / "prog.c"
        built_source.write_text(ECHO_C)
        with pytest.raises(ContractViolation):
            harness.prepare_target(built_source, target.workdir)
        assert built_source.read_text() == ECHO_C

    def test_refused_source_resets_nothing(self, tmp_path):
        target = prepare_c(tmp_path)
        source = target.prompts_dir / "prog.c"
        source.write_text(ECHO_C)
        with pytest.raises(ContractViolation):
            harness.prepare_target(source, target.workdir)
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
            harness.prepare_target(source, project)
        assert keep.read_text() == "mine"
        assert not (project / "manifest.json").exists()

    def test_foreign_manifest_is_kept(self, tmp_path):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "manifest.json").write_text('{"name": "app"}\n')
        source = tmp_path / "prog.c"
        source.write_text(ECHO_C)
        with pytest.raises(ContractViolation):
            harness.prepare_target(source, project)
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
        with pytest.raises(CovloopError, match="failed with status"):
            harness.prepare_target(bad, tmp_path / "work")
        assert (prepare_c(tmp_path).build_dir / "target").exists()

    def test_tool_versions_are_read_once_per_process(self, tmp_path, monkeypatch):
        prepare_c(tmp_path)
        spawned = []
        real_run = subprocess.run

        def recording_run(cmd, *args, **kwargs):
            spawned.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(harness.subprocess, "run", recording_run)
        harness._first_line.cache_clear()
        target = prepare_c(tmp_path)
        prepare_c(tmp_path, work="again")
        # One gcov process both checks the flags and names gcov.
        gcov = [shutil.which("gcov"), *harness.GCOV_FLAGS, "--version"]
        assert [list(cmd) for cmd in spawned if "--version" in cmd] == [gcov, ["gcc", "--version"]]
        manifest = json.loads((target.workdir / "manifest.json").read_text())
        assert manifest["gcc"] == subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True).stdout.splitlines()[0]
        assert manifest["gcov"] == subprocess.run(
            ["gcov", "--version"], capture_output=True, text=True).stdout.splitlines()[0]

    def test_gcov_without_json_format_is_refused_before_compiling(self, tmp_path, monkeypatch):
        # gcov before GCC 9 stops at the first option it does not know.
        fake = tmp_path / "bin" / "gcov"
        fake.parent.mkdir()
        fake.write_text('#!/bin/sh\ncase "$*" in *--json-format*)\n'
                        '  echo "gcov: unrecognized option" >&2; exit 1;;\nesac\n'
                        'echo "gcov (GCC) 8.3.0"\n')
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{fake.parent}{os.pathsep}{os.environ['PATH']}")
        with pytest.raises(CovloopError, match="--json-format"):
            prepare_c(tmp_path)
        assert not (tmp_path / "work").exists()

    def test_gcc_before_11_is_refused_before_compiling(self, tmp_path, monkeypatch):
        # Before GCC 11, -dumpdir does not place the .gcno and .gcda files.
        fake = tmp_path / "bin" / "gcc"
        fake.parent.mkdir()
        fake.write_text('#!/bin/sh\ncase "$*" in *-dumpversion*) echo 10;; *) exit 1;; esac\n')
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{fake.parent}{os.pathsep}{os.environ['PATH']}")
        with pytest.raises(CovloopError, match=r"GCC 11 .* \(gcc -dumpversion gave 10\)"):
            prepare_c(tmp_path)
        assert not (tmp_path / "work").exists()

    def test_no_gcc_on_path_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(CovloopError, match="required tool not on PATH: gcc"):
            harness.check_toolchain(Language.C)

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

    def test_shim_object_is_removed_when_the_process_exits(self):
        code = "from covloop import harness; print(harness._shim_object())"
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              text=True, check=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        shim = Path(proc.stdout.strip())
        assert shim.name == "_forksrv.o" and proc.stderr == ""
        assert not shim.parent.exists()

    def test_manifest_records_tools_and_flags(self, tmp_path, monkeypatch):
        linkers = ["gold"] if harness._links_with_gold() else []
        for linker in (*linkers, "default"):
            if linker == "default":
                monkeypatch.setattr(harness, "_links_with_gold", lambda: False)
            target = prepare_c(tmp_path, work=linker)
            manifest = json.loads((target.workdir / "manifest.json").read_text())
            assert manifest["language"] == "c"
            assert {"-ftest-coverage", "-pipe"} <= set(manifest["build_flags"])
            assert ("-fuse-ld=gold" in manifest["build_flags"]) == (linker == "gold")
            gold_note = b".note.gnu.gold-version" in (target.build_dir / "target").read_bytes()
            assert gold_note == (linker == "gold")
            assert "-b" in manifest["gcov_flags"]
            assert manifest["gcc"] != ""

    def test_gold_is_probed_once_per_process(self, tmp_path, monkeypatch):
        prepare_c(tmp_path)
        spawned = []
        real_run = subprocess.run

        def recording_run(cmd, *args, **kwargs):
            spawned.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(harness.subprocess, "run", recording_run)
        prepare_c(tmp_path)
        assert [cmd for cmd in spawned if "-Wl,--version" in cmd] == []

    def test_one_gcc_process_builds_a_target(self, tmp_path, monkeypatch, linker):
        prepare_c(tmp_path)  # compiles the shim and runs the probes
        spawned = []
        real_run = subprocess.run

        def recording_run(cmd, *args, **kwargs):
            spawned.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(harness.subprocess, "run", recording_run)
        prepare_c(tmp_path)
        assert [cmd[0] for cmd in spawned] == ["gcc"]


class TestRunTest:
    def test_echo_roundtrip(self, tmp_path):
        target = prepare_c(tmp_path, EXIT_WITH_INPUT_C, "exits.c")
        outcome = harness.run_test(target, TestCase(("5",)), timeout=5.0)
        assert outcome.exit_status == 5
        assert not outcome.timed_out

    def test_timeout_kills_and_records(self, tmp_path):
        target = prepare_c(tmp_path, SPIN_FOREVER_C, "spin.c")
        started = time.monotonic()
        outcome = harness.run_test(target, TestCase(("1",)), timeout=1.0)
        assert 0.9 <= time.monotonic() - started <= 3.0
        assert outcome.timed_out
        assert outcome.exit_status is None

    def test_timeout_after_closing_its_output(self, tmp_path):
        # The test closes its stdout and stderr long before it exits.
        source = ("#include <stdio.h>\n"
                  "int main(void) { fclose(stdout); fclose(stderr); for (;;); }\n")
        target = prepare_c(tmp_path, source, "quiet_spin.c")
        started = time.monotonic()
        outcome = harness.run_test(target, TestCase(("1",)), timeout=1.0)
        assert 0.9 <= time.monotonic() - started <= 3.0
        assert outcome.timed_out

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
        target = prepare_py(tmp_path, "raise SystemExit(int(input()) * 2)\n")
        outcome = harness.run_test(target, TestCase(("21",)), timeout=10.0)
        assert outcome.exit_status == 42
        assert target.data_store.exists()

    def test_c_includes_a_header_next_to_its_source(self, tmp_path):
        (tmp_path / "limit.h").write_text("#define LIMIT 7\n")
        target = prepare_c(tmp_path, '#include "limit.h"\nint main(void) { return LIMIT; }\n')
        assert harness.run_test(target, TestCase(("1",)), timeout=5.0).exit_status == 7

    def test_python_imports_and_opens_files_next_to_its_source(self, tmp_path):
        (tmp_path / "limit.py").write_text("LIMIT = 7\n")
        (tmp_path / "extra.txt").write_text("5\n")
        source = ("import os\nfrom limit import LIMIT\n"
                  "with open(os.path.join(os.path.dirname(__file__), 'extra.txt')) as f:\n"
                  "    raise SystemExit(LIMIT + int(f.read()))\n")
        target = prepare_py(tmp_path, source)
        assert harness.run_test(target, TestCase(("1",)), timeout=10.0).exit_status == 12
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.missing_lines == frozenset()

    def test_python_timeout_keeps_the_lines_it_reached(self, tmp_path):
        source = "if input() == 'spin':\n    while True:\n        pass\nprint('done')\n"
        target = prepare_py(tmp_path, source)
        assert harness.run_test(target, TestCase(("spin",)), timeout=1.0).timed_out
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.executed_lines == frozenset({1, 2, 3})
        assert report.missing_branches == (BranchGap(line=1, branch_id=1),)
        harness.run_test(target, TestCase(("go",)), timeout=10.0)
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.missing_lines == frozenset()


# Exits with the number it reads.
EXIT_WITH_INPUT_C = """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    return x;
}
"""

# Forks a child that would sleep for a minute, writes its pid to the file
# `sleeper` in the current directory, then spins.
FORK_A_SLEEPER_C = """\
#include <stdio.h>
#include <unistd.h>

int main(void) {
    pid_t pid = fork();
    if (pid == 0) {
        sleep(60);
        return 0;
    }
    FILE *out = fopen("sleeper", "w");
    fprintf(out, "%d\\n", (int)pid);
    fclose(out);
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
    return x;
}
"""

# Writes its pid and its parent's to a file named after its pid.
PIDS_TO_FILE_C = """\
#include <stdio.h>
#include <unistd.h>

int main(void) {
    char name[32];
    snprintf(name, sizeof name, "pid_%d", (int)getpid());
    FILE *out = fopen(name, "w");
    fprintf(out, "%d %d\\n", (int)getpid(), (int)getppid());
    fclose(out);
    return 0;
}
"""

PIDS_TO_FILE_PY = """\
import os
with open(f"pid_{os.getpid()}", "w") as out:
    print(os.getpid(), os.getppid(), file=out)
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
    return x;
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
    def test_a_failed_start_closes_every_descriptor_it_opened(self, monkeypatch, tmp_path):
        pipe, calls = os.pipe, []

        def second_pipe_fails():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(24, "Too many open files")
            return pipe()

        def no_process(*args, **kwargs):
            raise AssertionError("no process may start")

        monkeypatch.setattr(testserver.os, "pipe", second_pipe_fails)
        monkeypatch.setattr(testserver.subprocess, "Popen", no_process)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="Too many open files"):
            testserver.TestServer(("true",), tmp_path)
        assert len(calls) == 2
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_command_that_cannot_start_closes_every_descriptor(self, tmp_path):
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(SpawnError, match="cannot launch .*missing"):
            testserver.TestServer((str(tmp_path / "missing"),), tmp_path)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_server_that_has_exited_fails_the_request(self, tmp_path):
        server = testserver.TestServer(("true",), tmp_path)
        try:
            server._proc.wait()
            with pytest.raises(SpawnError, match="test server for true exited"):
                server.run(b"1\n", 1.0)
        finally:
            server.close()

    def test_a_server_that_never_replies_is_killed(self, tmp_path, monkeypatch):
        # `sleep` holds the pipes it was given and answers nothing.
        monkeypatch.setattr(testserver, "SERVER_GRACE", 0.1)
        server = testserver.TestServer(("sleep", "60"), tmp_path)
        try:
            with pytest.raises(SpawnError, match="for 60 gave no reply 0.1s after the timeout"):
                server.run(b"1\n", 0.1)
        finally:
            server.close()
        assert server._proc.returncode == -9

    def test_stdin_without_memfd_is_an_unlinked_file(self, tmp_path, monkeypatch):
        monkeypatch.delattr(testserver.os, "memfd_create")
        fd = testserver._scratch_fd("stdin")
        try:
            assert os.fstat(fd).st_nlink == 0
        finally:
            os.close(fd)
        target = prepare_py(tmp_path, "import sys\nsys.exit(len(sys.stdin.read()))\n")
        assert harness.run_test(target, TestCase(("abc",)), timeout=10.0).exit_status == 4

    def test_timeout_kills_the_whole_test(self, tmp_path):
        target = prepare_c(tmp_path, FORK_A_SLEEPER_C, "forks.c")
        outcome = harness.run_test(target, TestCase(("1",)), timeout=1.0)
        assert outcome.timed_out
        grandchild = int((target.build_dir / "sleeper").read_text())
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
        plain = harness.PreparedTarget(tmp_path / "plain", tmp_path / "plain" / "build" / "rw.c")
        plain.build_dir.mkdir(parents=True)
        plain.source.write_text(OWN_READ_AND_WRITE_C)
        for cmd in (["gcc", *harness.GCC_COVERAGE_FLAGS, "-c", "rw.c", "-o", "rw.o"],
                    ["gcc", "-fprofile-arcs", "rw.o", "-o", "plain"]):
            subprocess.run(cmd, cwd=plain.build_dir, check=True)
        for value in ("5", "1"):
            outcome = harness.run_test(target, TestCase((value,)), timeout=5.0)
            direct = subprocess.run(["./plain"], input=f"{value}\n".encode(),
                                    cwd=plain.build_dir, capture_output=True)
            assert outcome.exit_status == direct.returncode == int(value)
        served = harness.collect_raw_coverage(target)
        assert served["lines"] == harness.collect_raw_coverage(plain)["lines"]
        assert parse_gcov(served).missing_lines == frozenset({7})  # scanf never failed

    @pytest.mark.parametrize("name, source", [
        ("pids.c", PIDS_TO_FILE_C),
        ("pids.py", PIDS_TO_FILE_PY),
    ], ids=["c", "python"])
    def test_tests_fork_from_one_server(self, tmp_path, name, source):
        prepare = prepare_c if name.endswith(".c") else prepare_py
        target = prepare(tmp_path, source, name)
        for _ in range(3):
            assert harness.run_test(target, TestCase(("1",)), timeout=10.0).exit_status == 0
        pids = [(path.name, *path.read_text().split())
                for path in target.build_dir.glob("pid_*")]
        assert all(file_name == f"pid_{pid}" for file_name, pid, _ in pids)
        assert len({pid for _, pid, _ in pids}) == 3
        assert len({parent for _, _, parent in pids}) == 1
        assert int(pids[0][2]) != os.getpid()

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

    @pytest.mark.parametrize("source", [
        ("import atexit, sys\n"
         "def log(text):\n"
         "    with open('log', 'a') as out:\n"
         "        out.write(text)\n"
         "atexit.register(log, 'at exit')\n"
         "log('body ')\n"
         "sys.exit(3)\n"),
        # A file left open: the interpreter's exit finalizes it, which flushes it.
        ("import atexit, sys\n"
         "log = open('log', 'w')\n"
         "print('body', end=' ', file=log)\n"
         "atexit.register(print, 'at exit', end='', file=log)\n"
         "sys.exit(3)\n"),
        # The test's globals are its own, wherever sys.modules points.
        ("import atexit, sys\n"
         "log = open('log', 'w')\n"
         "print('body', end=' ', file=log)\n"
         "atexit.register(print, 'at exit', end='', file=log)\n"
         "del sys.modules['__main__']\n"
         "sys.exit(3)\n"),
    ], ids=["closed", "left-open", "main-removed"])
    def test_python_test_exits_like_the_interpreter(self, tmp_path, source):
        script = tmp_path / "prog.py"
        script.write_text(source)
        plain = subprocess.run([sys.executable, script.name], cwd=tmp_path)
        assert plain.returncode == 3
        assert (tmp_path / "log").read_text() == "body at exit"
        target = prepare_py(tmp_path, source)
        outcome = harness.run_test(target, TestCase(("1",)), timeout=10.0)
        assert outcome.exit_status == 3
        assert (target.build_dir / "log").read_text() == "body at exit"

    def test_a_test_that_kills_its_server_raises_and_the_next_one_runs(self, tmp_path):
        target = prepare_c(tmp_path, KILL_PARENT_ON_NEGATIVE_C, "killer.c")
        with pytest.raises(SpawnError, match="test server for .*target exited"):
            harness.run_test(target, TestCase(("-1",)), timeout=5.0)
        assert harness.run_test(target, TestCase(("4",)), timeout=5.0).exit_status == 4

    def test_stdin_holds_only_this_tests_payload(self, tmp_path):
        target = prepare_py(tmp_path, "import sys\nsys.exit(len(sys.stdin.read()))\n")
        long = harness.run_test(target, TestCase(("x" * 200,)), timeout=10.0)
        short = harness.run_test(target, TestCase(("y",)), timeout=10.0)
        assert (long.exit_status, short.exit_status) == (201, 2)


# Prepares the target named on the command line and runs one test of it
# with a 0.2 s timeout, in a process of its own, so that its peak RSS is
# the test's cost to covloop; prints timed_out, duration and peak RSS in kB.
# The peak is VmHWM, not ru_maxrss: Linux carries ru_maxrss over an exec,
# and a child that subprocess starts with vfork would report pytest's peak.
RUN_ONE_TEST = """\
import re, sys, time
from pathlib import Path
from covloop import harness
from covloop.model import TestCase

source = Path(sys.argv[1])
with harness.prepare_target(source, source.parent / "work") as target:
    started = time.monotonic()
    outcome = harness.run_test(target, TestCase(("1",)), timeout=0.2)
    duration = time.monotonic() - started
peak_kb = re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text()).group(1)
print(outcome.timed_out, duration, peak_kb)
"""

# Each writes 8 KiB blocks to stdout or stderr until it is killed.
FLOOD_C = ("#include <stdio.h>\n"
           "static char block[1 << 13];\n"
           "int main(void) { for (;;) fwrite(block, 1, sizeof block, %s); }\n")
FLOOD_PY = "import sys\nblock = 'x' * (1 << 13)\nwhile True:\n    sys.%s.write(block)\n"
FLOODS = {
    "c-stdout": ("flood.c", FLOOD_C % "stdout"),
    "c-stderr": ("flood.c", FLOOD_C % "stderr"),
    "python-stdout": ("flood.py", FLOOD_PY % "stdout"),
    "python-stderr": ("flood.py", FLOOD_PY % "stderr"),
}


class TestHostileOutput:
    @pytest.mark.parametrize("name, source", FLOODS.values(), ids=FLOODS.keys())
    def test_output_without_end_costs_neither_time_nor_memory(self, tmp_path, name, source):
        (tmp_path / name).write_text(source)
        proc = subprocess.run([sys.executable, "-c", RUN_ONE_TEST, str(tmp_path / name)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        timed_out, duration, peak_kb = proc.stdout.split()
        assert timed_out == "True"
        assert float(duration) <= 0.2 + 1.0
        assert int(peak_kb) < 64 * 1024


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
        with pytest.raises(CovloopError, match="gcov lists no coverage for prog.c"):
            harness.collect_raw_coverage(target)

    def test_c_gcov_failure_raises_with_its_message(self, tmp_path, monkeypatch):
        target = prepare_c(tmp_path)
        fake = tmp_path / "bin" / "gcov"
        fake.parent.mkdir()
        fake.write_text("#!/bin/sh\necho 'cannot open notes file' >&2\nexit 3\n")
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{fake.parent}{os.pathsep}{os.environ['PATH']}")
        with pytest.raises(CovloopError, match=r"gcov -b --json-format --stdout \./prog\.c "
                           r"failed with status 3:\ncannot open notes"):
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



# Records the process its constructor ran in; main exits 7 if that was the
# test server it was forked from, 8 if it was its own process.
OWN_CONSTRUCTOR_C = """\
#include <stdio.h>
#include <unistd.h>

static pid_t constructed_in;
static int status;
__attribute__((constructor)) static void construct(void) {
    constructed_in = getpid();
}

int main(void) {
    if (constructed_in != getpid())
        status = 7; /* inherited */
    else
        status = 8; /* own */
    return status;
}
"""

# Leaves the build directory, for one read from stdin, and exits 9.
CHDIR_C = """\
#include <stdio.h>
#include <unistd.h>

int main(void) {
    char dir[4096];
    if (scanf("%4095s", dir) != 1 || chdir(dir) != 0)
        return 1;
    return 9;
}
"""

# Inputs for the conftest C fixtures; each reads as many values as it needs.
FIXTURE_CASES = (("42", "809", "911"), ("-1", "0", "0"), ("701", "1", "2"), ("5", "5", "5"))


class TestBuild:
    def test_target_constructor_runs_before_the_shim_takes_over(self, tmp_path, linker):
        # The target's constructor runs once, in the server, like the
        # constructors of libc and gcov; each test inherits its effect.
        target = prepare_c(tmp_path, OWN_CONSTRUCTOR_C, "ctor.c")
        for _ in range(2):
            outcome = harness.run_test(target, TestCase(("1",)), timeout=5.0)
            assert outcome.exit_status == 7
        report = parse_gcov(harness.collect_raw_coverage(target))
        assert report.executed_lines == frozenset({6, 7, 8, 10, 11, 12, 15})
        assert report.missing_lines == frozenset({14})

    def test_coverage_data_lands_in_build_after_chdir(self, tmp_path, linker):
        target = prepare_c(tmp_path, CHDIR_C, "moves.c")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        outcome = harness.run_test(target, TestCase((str(elsewhere),)), timeout=5.0)
        assert outcome.exit_status == 9
        assert (target.build_dir / "moves.gcda").is_file()
        assert list(elsewhere.iterdir()) == []
        assert parse_gcov(harness.collect_raw_coverage(target)).missing_lines == frozenset({7})

    @pytest.mark.parametrize("source", [
        GUARD_C, NESTED_GUARDS_C, ECHO_C, UNREACHABLE_ARM_C, CRASH_ON_NEGATIVE_C,
    ], ids=["guard", "nested_guards", "echo", "unreachable_arm", "crash_on_negative"])
    def test_gold_and_the_default_linker_give_the_same_report(self, tmp_path, monkeypatch,
                                                              source):
        if not harness._links_with_gold():
            pytest.skip("gcc cannot link with gold here")
        entries = []
        for gold in (True, False):
            monkeypatch.setattr(harness, "_links_with_gold", lambda gold=gold: gold)
            target = prepare_c(tmp_path, source, work=f"gold_{gold}")
            for case in FIXTURE_CASES:
                harness.run_test(target, TestCase(case), timeout=5.0)
            entries.append(harness.collect_raw_coverage(target))
        assert entries[0] == entries[1]
        assert parse_gcov(entries[0]).executed_lines
