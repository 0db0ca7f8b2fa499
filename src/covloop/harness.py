"""Target preparation and instrumented execution.

Each run owns a workdir with a fixed layout:

    build/         compiled binary, or copied script and tracer; instrumentation
    coverage/      iter_<k>.json coverage artifacts; trace.jsonl, the Python trace store
    TestCases/     persisted novel test inputs
    prompts/       iter_<k>.txt, the generation prompt of each iteration
    manifest.json  tool versions and flags used, for reproducibility
    result.json    written by the loop driver when the run ends

Preparing a target removes these entries, and only these, so a reused
workdir shows only the last run. A workdir that holds any of them without a
manifest.json written by covloop is refused, so `.` keeps its own `build/`.

C targets are compiled with gcc profile instrumentation and read back through
`gcov -b --json-format --stdout`, so gcov must accept those flags (GCC 9 or
later, tested with GCC 12.2); no `.gcov` file is written. Python targets run
under the bundled tracer, which appends one record per test to the trace
store, and `pytrace` turns the store into the same gcov JSON file entry, so
both lanes report one raw coverage format. Each prepared target carries the
argv of its tests, so running a test does not depend on the language.
Tests of one target run one at a time, so the store has a single writer.
Coverage accumulates across runs of one prepared target and is never reset
within a run, so reported coverage is monotone over the loop.
"""

from __future__ import annotations

import functools
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import pytrace
from .errors import (
    CompileError,
    ContractViolation,
    MissingToolchain,
    SpawnError,
    ToolInvocationError,
)
from .model import Language, TestCase

GCC_COVERAGE_FLAGS = ["-fprofile-arcs", "-ftest-coverage", "-O0"]
GCOV_FLAGS = ["-b", "--json-format", "--stdout"]  # without -b: no branches
_TRACER_NAME = "_covtrace.py"


@dataclass
class PreparedTarget:
    language: Language
    workdir: Path
    executable_or_script: Path
    source_name: str = ""
    test_argv: tuple[str, ...] = ()  # the command each test runs

    @property
    def build_dir(self) -> Path:
        return self.workdir / "build"

    @property
    def coverage_dir(self) -> Path:
        return self.workdir / "coverage"

    @property
    def testcases_dir(self) -> Path:
        return self.workdir / "TestCases"

    @property
    def prompts_dir(self) -> Path:
        return self.workdir / "prompts"

    @property
    def result_path(self) -> Path:
        return self.workdir / "result.json"

    @property
    def data_store(self) -> Path:
        return self.coverage_dir / "trace.jsonl"


@dataclass(frozen=True)
class ExecutionOutcome:
    exit_status: int | None
    timed_out: bool
    stdout_bytes: bytes
    stderr_bytes: bytes
    duration: float


def check_toolchain(language: Language) -> None:
    if language is Language.C:
        for tool in ("gcc", "gcov"):
            if shutil.which(tool) is None:
                raise MissingToolchain(f"required tool not on PATH: {tool}")
        if not _accepts_gcov_flags(shutil.which("gcov")):
            raise MissingToolchain(
                f"gcov does not accept {' '.join(GCOV_FLAGS)}; GCC 9 or later is needed")


@functools.cache
def _accepts_gcov_flags(gcov: str) -> bool:
    """Whether `gcov` takes GCOV_FLAGS: it exits 1 at the first unknown option."""
    try:
        return subprocess.run([gcov, *GCOV_FLAGS, "--version"], capture_output=True,
                              timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def prepare_target(
    source_path: str | Path, language: Language, workdir: str | Path
) -> PreparedTarget:
    """Set up the workdir and produce an instrumented, runnable target."""
    check_toolchain(language)
    source_path = Path(source_path)
    # Targets run from inside the build directory, so paths must not be relative.
    workdir = Path(workdir).resolve()
    target = PreparedTarget(
        language=language,
        workdir=workdir,
        executable_or_script=workdir,  # placeholder until built below
        source_name=source_path.name,
    )
    directories = (target.build_dir, target.coverage_dir,
                   target.testcases_dir, target.prompts_dir)
    if any(source_path.resolve().is_relative_to(d) for d in directories):
        raise ContractViolation(f"{source_path} is in a directory each run resets")
    manifest = workdir / "manifest.json"
    entries = (*directories, manifest, target.result_path)
    if any(e.exists() for e in entries) and not _is_covloop_manifest(manifest):
        raise ContractViolation(
            f"{workdir} holds entries a run resets but no covloop manifest.json;"
            " refusing to delete them, choose an empty or covloop-made workdir")
    for directory in directories:
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
    target.result_path.unlink(missing_ok=True)
    # Written before the build, so a failed build still leaves a workdir
    # that the next run recognises as its own.
    _write_manifest(target)

    local_source = target.build_dir / source_path.name
    shutil.copyfile(source_path, local_source)

    if language is Language.C:
        _compile_c(target, local_source)
        target.test_argv = (str(target.executable_or_script),)
    else:
        target.executable_or_script = local_source
        tracer = target.build_dir / _TRACER_NAME
        shutil.copyfile(Path(__file__).with_name(_TRACER_NAME), tracer)
        target.test_argv = (sys.executable, str(tracer), str(target.data_store),
                            str(local_source))
    return target


def _is_covloop_manifest(path: Path) -> bool:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return isinstance(manifest, dict) and {"language", "source"} <= manifest.keys()


def _compile_c(target: PreparedTarget, local_source: Path) -> None:
    stem = local_source.stem
    object_file = target.build_dir / f"{stem}.o"
    binary = target.build_dir / "target"
    # Compile and link separately so the .gcno/.gcda names track the source
    # file instead of being prefixed with the binary name.
    compile_cmd = ["gcc", *GCC_COVERAGE_FLAGS, "-c", local_source.name,
                   "-o", object_file.name]
    link_cmd = ["gcc", "-fprofile-arcs", object_file.name, "-o", binary.name]
    for cmd in (compile_cmd, link_cmd):
        proc = subprocess.run(
            cmd, cwd=target.build_dir, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise CompileError(
                f"{' '.join(cmd)} failed with status {proc.returncode}:\n{proc.stderr}"
            )
    target.executable_or_script = binary


def _write_manifest(target: PreparedTarget) -> None:
    manifest = {
        "language": target.language.value,
        "source": target.source_name,
        "created": datetime.now(timezone.utc).isoformat(),
        "python": sys.version.split()[0],
    }
    if target.language is Language.C:
        manifest["gcc"] = _tool_version("gcc")
        manifest["gcov"] = _tool_version("gcov")
        manifest["compile_flags"] = GCC_COVERAGE_FLAGS
        manifest["gcov_flags"] = GCOV_FLAGS
    (target.workdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


@functools.cache
def _tool_version(tool: str) -> str:
    try:
        out = subprocess.run(
            [tool, "--version"], capture_output=True, text=True, timeout=10
        )
        return out.stdout.splitlines()[0] if out.stdout else "unknown"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return "unknown"


def run_test(
    target: PreparedTarget, tc: TestCase, timeout: float
) -> ExecutionOutcome:
    """Execute one test case: values joined by LF, trailing LF, stdin closed.

    `timeout` is wall time. A timeout is not an error; the child is killed
    and the outcome records timed_out=True. Crashes are recorded through
    exit_status and execution continues. Run one test of a target at a
    time: a Python test's tracer appends to the trace store, which has a
    single writer.
    """
    start = time.monotonic()
    try:
        proc = _Child(target.test_argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                      stderr=subprocess.PIPE, cwd=target.build_dir)
    except OSError as exc:
        raise SpawnError(f"cannot launch {target.test_argv[0]}: {exc}") from exc
    with proc:
        try:
            stdout, stderr = proc.communicate(
                tc.stdin_payload().encode("utf-8"), timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.wait()
            if target.data_store.exists():  # only Python targets have a store
                # A tracer killed mid-write leaves a cut-off record; drop it so
                # the next test's record starts on a line of its own.
                with open(target.data_store, "rb+") as store:
                    store.truncate(store.read().rfind(b"\n") + 1)
            return ExecutionOutcome(
                exit_status=None,
                timed_out=True,
                stdout_bytes=exc.stdout or b"",
                stderr_bytes=exc.stderr or b"",
                duration=time.monotonic() - start,
            )
        except BaseException:
            proc.kill()  # leaving the block waits for it
            raise
    return ExecutionOutcome(
        exit_status=proc.returncode,
        timed_out=False,
        stdout_bytes=stdout,
        stderr_bytes=stderr,
        duration=time.monotonic() - start,
    )


class _Child(subprocess.Popen):
    """A Popen whose timed wait sleeps until the child exits.

    `Popen.wait(timeout)` polls waitpid with sleeps that start at 1 ms. The
    wait that `communicate` makes once the child has closed its pipes nearly
    always takes that first sleep, because the child has not quite exited:
    about 1.2 ms of a 1.7 ms C test. Where the platform has pidfds (Linux
    5.3+), this waits on the child's pidfd instead, with poll, which has no
    ceiling on descriptor numbers.
    """

    def wait(self, timeout=None):
        if timeout is not None and self.returncode is None and hasattr(os, "pidfd_open"):
            try:
                pidfd = os.pidfd_open(self.pid)
            except OSError:  # a kernel without pidfds
                return super().wait(timeout)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                if not poller.poll(max(timeout, 0) * 1000):
                    timeout = 0
            finally:
                os.close(pidfd)
        return super().wait(timeout)


def collect_raw_coverage(target: PreparedTarget) -> dict:
    """Cumulative raw coverage as a gcov JSON file entry for the source: from
    gcov in C, from the trace store through `pytrace.build_export` in Python.

    With no runs recorded yet this still succeeds, reporting all-zero
    counters.
    """
    if target.language is Language.C:
        return _collect_gcov(target)
    source = target.executable_or_script.read_text(encoding="utf-8")
    store = pytrace.load_store(target.data_store)
    return pytrace.build_export(source, store)


def _collect_gcov(target: PreparedTarget) -> dict:
    source_name = target.source_name
    proc = subprocess.run(
        ["gcov", *GCOV_FLAGS, source_name],
        cwd=target.build_dir,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise ToolInvocationError(
            f"gcov exited with {proc.returncode}: {proc.stderr.strip()}"
        )
    try:
        files = json.loads(proc.stdout)["files"]
        return next(entry for entry in files if entry["file"] == source_name)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        raise ToolInvocationError(
            f"gcov lists no coverage for {source_name}: {proc.stderr.strip()}"
        ) from exc
