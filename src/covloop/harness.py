"""Target preparation and instrumented execution.

Each run owns a workdir with a fixed layout:

    build/         C: the binary, its .gcno and .gcda; both: files the tests write
    coverage/      iter_<k>.json coverage artifacts; hits, the Python probes' hits file
    TestCases/     persisted novel test inputs
    prompts/       iter_<k>.txt, the generation prompt of each iteration
    manifest.json  tool versions and build flags, for reproducibility
    result.json    written by the loop driver when the run ends

Preparing a target removes these entries, and only these, so a reused
workdir shows only the last run. A workdir that holds any of them without a
manifest.json written by covloop is refused, so `.` keeps its own `build/`.
Every target is built and served from its own source, which is never
copied: gcc runs in the source's directory, so quoted includes resolve
beside it, and a script runs as `python <source>` would. The prober and the
shim's source are covloop's installed files. A source must stay as it is
while its run lasts.

C targets are built by one gcc process, which compiles with profile
instrumentation and `-pipe`, and links with gold when gcc can, with its
default linker otherwise. Coverage is read back through `gcov -b
--json-format --stdout`, so gcov must accept those flags (GCC 11 or later,
tested with GCC 12.2); no `.gcov` file is written. Python targets run with
probes compiled in by the bundled `_covtrace.py`, one byte of the hits file
per statement and per if/while/for arm, which a test sets as it runs, and
`pytrace` turns the hits into the same gcov JSON file entry, so both lanes
report one raw coverage format. Coverage accumulates across runs of one
prepared target and is never reset within a run, so reported coverage is
monotone over the loop.

Tests run through one test server per target, started by its first test
and stopped by `PreparedTarget.close()`. The server is the target itself,
started once: a C binary, whose linked-in `_forksrv.c` shim takes over
before `main`, or `_covtrace.py`, which probes and compiles the script
once. It forks one child per test, so a test pays for a fork instead of an
exec, the dynamic loader and the start-up of libc or the interpreter. Both
lanes speak the protocol of `testserver`, so running a test does not depend
on the language. A test's stdout and stderr go to /dev/null, as the loop
reads only its exit status. The servers need Linux 5.3 or later.
"""

from __future__ import annotations

import atexit
import functools
import json
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import pytrace
from .analyzer import detect_language
from .errors import ContractViolation, CovloopError, SpawnError
from .model import Language, TestCase
from .testserver import TestServer

GCC_COVERAGE_FLAGS = ["-fprofile-arcs", "-ftest-coverage", "-O0"]
GCOV_FLAGS = ["-b", "--json-format", "--stdout"]  # without -b: no branches
_PROBER = Path(__file__).with_name("_covtrace.py")
_SHIM = Path(__file__).with_name("_forksrv.c")


@dataclass
class PreparedTarget:
    workdir: Path
    source: Path  # resolved
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
    def language(self) -> Language:
        return detect_language(self.source)

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
        return self.coverage_dir / "hits"


@dataclass(frozen=True)
class ExecutionOutcome:
    exit_status: int | None  # None when the test timed out

    @property
    def timed_out(self) -> bool:
        return self.exit_status is None


def check_toolchain(language: Language) -> None:
    if language is Language.C:
        for tool in ("gcc", "gcov"):
            if shutil.which(tool) is None:
                raise CovloopError(f"required tool not on PATH: {tool}")
        major = (_first_line(shutil.which("gcc"), "-dumpversion") or "0").partition(".")[0]
        if not major.isdigit() or int(major) < 11 or _gcov_version() is None:
            raise CovloopError(f"GCC 11 or later is needed (gcc -dumpversion gave {major}),"
                               f" with a gcov that accepts {' '.join(GCOV_FLAGS)}")


def _gcov_version() -> str | None:
    """The version line of gcov, or None if it refuses GCOV_FLAGS: it exits 1
    at the first unknown option. So one process checks and names it."""
    return _first_line(shutil.which("gcov"), *GCOV_FLAGS, "--version")


@functools.cache
def _first_line(*cmd: str) -> str | None:
    """The first line `cmd` prints, or None if it fails; each runs once per process."""
    try:
        return _run(*cmd, timeout=10).stdout.partition("\n")[0]
    except (OSError, subprocess.SubprocessError, CovloopError):
        return None


def _run(*cmd: str, cwd: Path | None = None,
         timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run a tool; a nonzero status raises CovloopError with its command and stderr."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise CovloopError(f"{' '.join(cmd)} failed with status {proc.returncode}:\n{proc.stderr}")
    return proc


def _links_with_gold() -> bool:
    """Whether gcc can link with gold, which links a target faster than the
    default linker. Gold is deprecated upstream, so it may be missing or
    broken; then targets are linked with gcc's default linker."""
    return _first_line("gcc", "-fuse-ld=gold", "-Wl,--version") is not None


def _build_flags() -> list[str]:
    """The flags of the one gcc process that builds a C target."""
    return [*GCC_COVERAGE_FLAGS, "-pipe", *(["-fuse-ld=gold"] if _links_with_gold() else [])]


def prepare_target(source_path: str | Path, workdir: str | Path) -> PreparedTarget:
    """Set up the workdir and produce an instrumented, runnable target in the
    language its suffix names."""
    # Resolved: gcc and the tests run elsewhere, and gcc sees the resolved name.
    source = Path(source_path).resolve()
    language = detect_language(source)
    check_toolchain(language)
    workdir = Path(workdir).resolve()
    target = PreparedTarget(workdir, source)
    directories = (target.build_dir, target.coverage_dir,
                   target.testcases_dir, target.prompts_dir)
    if any(target.source.is_relative_to(d) for d in directories):
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
    if language is Language.C:
        target.test_argv = (str(_compile_c(target)),)
    else:
        # At covloop's own -O level, so the server's probes fold `__debug__`
        # as `pytrace.build_export` does here.
        target.test_argv = (sys.executable, *(["-O"] * sys.flags.optimize), str(_PROBER),
                            str(target.data_store), str(target.source))
    return target


def _is_covloop_manifest(path: Path) -> bool:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return isinstance(manifest, dict) and {"language", "source"} <= manifest.keys()


def _compile_c(target: PreparedTarget) -> Path:
    """Build the target's binary and return its path."""
    binary = target.build_dir / "target"
    # One gcc process compiles and links, in the source's directory, as any
    # build of it would. From GCC 11 on, `-dumpdir` puts the note file in
    # build/ and names it `<stem>.gcno` after the source, not after the binary,
    # and the .gcda path compiled into the target is build/'s, which is
    # absolute. The shim comes last, so its constructor runs after the target's
    # own. The source goes in as `./<name>`, here and to gcov, so a name such
    # as `-g.c` is never read as an option; gcov names the file `<name>`.
    _run("gcc", *_build_flags(), "-dumpdir", f"{target.build_dir}/", f"./{target.source.name}",
         str(_shim_object()), "-o", str(binary), cwd=target.source.parent)
    return binary


_shim_lock = threading.Lock()


def _shim_object() -> Path:
    """The fork server shim's object file, which every C target links:
    compiled once per process and removed when it exits; safe across threads."""
    with _shim_lock:
        return _compile_shim()


@functools.cache
def _compile_shim() -> Path:
    # Uninstrumented, as its lines are not the target's. At -O0, because
    # cc1 then peaks no higher than for a target, and lower than at -O2.
    scratch = tempfile.mkdtemp(prefix="covloop-")
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    out = Path(scratch) / "_forksrv.o"
    _run("gcc", "-O0", "-c", str(_SHIM), "-o", str(out))
    return out


def _write_manifest(target: PreparedTarget) -> None:
    manifest = {
        "language": target.language.value,
        "source": target.source.name,
        "created": datetime.now(timezone.utc).isoformat(),
        "python": sys.version.split()[0],
    }
    if target.language is Language.C:
        manifest["gcc"] = _first_line("gcc", "--version") or "unknown"
        manifest["gcov"] = _gcov_version()
        manifest["build_flags"] = _build_flags()
        manifest["gcov_flags"] = GCOV_FLAGS
    (target.workdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def run_test(
    target: PreparedTarget, tc: TestCase, timeout: float
) -> ExecutionOutcome:
    """Execute one test case: values joined by LF, trailing LF, then end of file.

    `timeout` is wall time. A timeout is not an error; the test's process
    group is killed and the outcome records timed_out=True. Crashes are
    recorded through exit_status and execution continues. The first test of
    a target starts its test server, which `target.close()` stops. Run one
    test of a target at a time: a server runs one test at a time.
    """
    if target._server is None:
        target._server = TestServer(target.test_argv, target.build_dir)
    try:
        exit_status = target._server.run(tc.stdin_payload().encode("utf-8"), timeout)
    except SpawnError:
        target.close()
        raise
    return ExecutionOutcome(exit_status)


def collect_raw_coverage(target: PreparedTarget) -> dict:
    """Cumulative raw coverage as a gcov JSON file entry for the source: from
    gcov in C, from the hits file through `pytrace.build_export` in Python.

    With no runs recorded yet this still succeeds, reporting all-zero
    counters.
    """
    if target.language is Language.C:
        return _collect_gcov(target)
    source = target.source.read_text(encoding="utf-8-sig")
    return pytrace.build_export(source, target.data_store)


def _collect_gcov(target: PreparedTarget) -> dict:
    source_name = target.source.name
    proc = _run("gcov", *GCOV_FLAGS, f"./{source_name}", cwd=target.build_dir)
    try:
        files = json.loads(proc.stdout)["files"]
        return next(entry for entry in files if entry["file"] == source_name)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        raise CovloopError(
            f"gcov lists no coverage for {source_name}: {proc.stderr.strip()}") from exc
