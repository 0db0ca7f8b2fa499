"""Target preparation and instrumented execution.

Each run owns a private workdir with a fixed layout:

    build/        compiled binary or copied script plus instrumentation files
    coverage/     per-iteration coverage artifacts and the trace data store
    TestCases/    persisted novel test inputs
    manifest.json tool versions and flags used, for reproducibility

C targets are compiled with gcc profile instrumentation and read back through
`gcov -b --json-format --stdout`, so gcov must accept those flags (tested
with GCC 12.2); no `.gcov` file is written. Python targets run under the
bundled tracer.
Coverage accumulates across runs of one prepared target and is never reset
within a run, so reported coverage is monotone over the loop.
"""

from __future__ import annotations

import json
import logging
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
    MissingToolchain,
    SpawnError,
    ToolInvocationError,
)
from .model import Language, TestCase

log = logging.getLogger(__name__)

GCC_COVERAGE_FLAGS = ["-fprofile-arcs", "-ftest-coverage", "-O0"]
GCOV_FLAGS = ["-b", "--json-format", "--stdout"]  # without -b: no branches
_TRACER_NAME = "_covtrace.py"


@dataclass
class PreparedTarget:
    language: Language
    workdir: Path
    executable_or_script: Path
    source_name: str = ""

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
    def data_store(self) -> Path:
        return self.coverage_dir / "pytrace.json"


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


def prepare_target(
    source_path: str | Path, language: Language, workdir: str | Path
) -> PreparedTarget:
    """Set up the workdir and produce an instrumented, runnable target."""
    check_toolchain(language)
    source_path = Path(source_path)
    workdir = Path(workdir)
    target = PreparedTarget(
        language=language,
        workdir=workdir,
        executable_or_script=workdir,  # placeholder until built below
        source_name=source_path.name,
    )
    for directory in (target.build_dir, target.coverage_dir, target.testcases_dir):
        directory.mkdir(parents=True, exist_ok=True)

    local_source = target.build_dir / source_path.name
    shutil.copyfile(source_path, local_source)

    if language is Language.C:
        _compile_c(target, local_source)
    else:
        target.executable_or_script = local_source
        tracer = target.build_dir / _TRACER_NAME
        shutil.copyfile(pytrace.__file__, tracer)
        if target.data_store.exists():
            target.data_store.unlink()  # each prepared target starts fresh

    _write_manifest(target)
    return target


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
    else:
        manifest["tracer"] = pytrace.EXPORT_FORMAT
    (target.workdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


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

    A timeout is not an error; the child is killed and the outcome records
    timed_out=True. Crashes are recorded through exit_status and execution
    continues.
    """
    if target.language is Language.C:
        cmd = [str(target.executable_or_script)]
    else:
        cmd = [
            sys.executable,
            str(target.build_dir / _TRACER_NAME),
            str(target.data_store),
            str(target.executable_or_script),
        ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            input=tc.stdin_payload().encode("utf-8"),
            capture_output=True,
            timeout=timeout,
            cwd=target.build_dir,
        )
    except subprocess.TimeoutExpired as exc:
        return ExecutionOutcome(
            exit_status=None,
            timed_out=True,
            stdout_bytes=exc.stdout or b"",
            stderr_bytes=exc.stderr or b"",
            duration=time.monotonic() - start,
        )
    except OSError as exc:
        raise SpawnError(f"cannot launch {cmd[0]}: {exc}") from exc
    return ExecutionOutcome(
        exit_status=proc.returncode,
        timed_out=False,
        stdout_bytes=proc.stdout,
        stderr_bytes=proc.stderr,
        duration=time.monotonic() - start,
    )


def collect_raw_coverage(target: PreparedTarget) -> dict:
    """Cumulative raw coverage: gcov's JSON entry for the source file in C,
    the tracer export in Python.

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
