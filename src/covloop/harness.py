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
both lanes report one raw coverage format. Coverage accumulates across runs
of one prepared target and is never reset within a run, so reported
coverage is monotone over the loop.

Tests run through one test server per target, started by its first test
and stopped by `PreparedTarget.close()`. The server is the target itself,
started once: a C binary, whose linked-in `_forksrv.c` shim takes over
before `main`, or the Python tracer. It forks one child per test, so a test
pays for a fork instead of an exec, the dynamic loader and the start-up of
libc or the interpreter. Both lanes speak the protocol of `testserver`, so
running a test does not depend on the language. Tests of one target run one
at a time, so the Python trace store has a single writer. The servers need
Linux 5.3 or later.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
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
from .testserver import TestServer

GCC_COVERAGE_FLAGS = ["-fprofile-arcs", "-ftest-coverage", "-O0"]
GCOV_FLAGS = ["-b", "--json-format", "--stdout"]  # without -b: no branches
_TRACER_NAME = "_covtrace.py"
_SHIM_NAME = "_forksrv.c"


@dataclass
class PreparedTarget:
    language: Language
    workdir: Path
    executable_or_script: Path
    source_name: str = ""
    test_argv: tuple[str, ...] = ()  # the command that starts the test server
    _server: TestServer | None = field(default=None, init=False, repr=False, compare=False)

    def close(self) -> None:
        """Stop the test server, if a test started one. Idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.close()

    def __enter__(self) -> PreparedTarget:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
    shim = target.build_dir / "_forksrv.o"
    shim.write_bytes(_shim_object())
    compile_cmd = ["gcc", *GCC_COVERAGE_FLAGS, "-c", local_source.name,
                   "-o", object_file.name]
    # The shim comes last, so its constructor runs after the target's own.
    link_cmd = ["gcc", "-fprofile-arcs", object_file.name, shim.name, "-o", binary.name]
    for cmd in (compile_cmd, link_cmd):
        proc = subprocess.run(
            cmd, cwd=target.build_dir, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise CompileError(
                f"{' '.join(cmd)} failed with status {proc.returncode}:\n{proc.stderr}"
            )
    target.executable_or_script = binary


_shim_lock = threading.Lock()


def _shim_object() -> bytes:
    """The fork server shim, compiled once per process; safe across threads."""
    with _shim_lock:
        return _compile_shim()


@functools.cache
def _compile_shim() -> bytes:
    # Uninstrumented, as its lines are not the target's. At -O0, because
    # cc1 then peaks no higher than for a target, and lower than at -O2.
    with tempfile.TemporaryDirectory(prefix="covloop-") as scratch:
        out = Path(scratch) / "_forksrv.o"
        cmd = ["gcc", "-O0", "-c", str(Path(__file__).with_name(_SHIM_NAME)), "-o", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise CompileError(
                f"{' '.join(cmd)} failed with status {proc.returncode}:\n{proc.stderr}")
        return out.read_bytes()


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
    """Execute one test case: values joined by LF, trailing LF, then end of file.

    `timeout` is wall time. A timeout is not an error; the test's process
    group is killed and the outcome records timed_out=True. Crashes are
    recorded through exit_status and execution continues. The first test of
    a target starts its test server, which `target.close()` stops. Run one
    test of a target at a time: a server runs one test at a time, and a
    Python test's tracer appends to the trace store, which has a single
    writer.
    """
    start = time.monotonic()
    if target._server is None:
        target._server = TestServer(target.test_argv, target.build_dir)
    try:
        exit_status, stdout, stderr = target._server.run(
            tc.stdin_payload().encode("utf-8"), timeout)
    except SpawnError:
        target.close()
        raise
    if exit_status is None and target.data_store.exists():  # only Python targets have a store
        # A tracer killed mid-write leaves a cut-off record; drop it so the
        # next test's record starts on a line of its own.
        with open(target.data_store, "rb+") as store:
            store.truncate(store.read().rfind(b"\n") + 1)
    return ExecutionOutcome(
        exit_status=exit_status,
        timed_out=exit_status is None,
        stdout_bytes=stdout,
        stderr_bytes=stderr,
        duration=time.monotonic() - start,
    )


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
