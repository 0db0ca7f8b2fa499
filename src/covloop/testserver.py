"""The covloop side of the test server protocol, shared by both lanes.

A test server is a target's test command started once, with SERVER_ENV set
to "<control fd>,<status fd>": a C binary, whose linked-in `_forksrv.c`
shim takes over before `main`, or the Python tracer, `_covtrace.py`. It
serves until its control pipe closes:

- Pre-fork. As soon as the previous test is answered, the server forks the
  next child. The child makes itself a process group and waits on a pipe of
  its own for a go byte before it enters `main` or the script.
- Per test, covloop writes the timeout to the control pipe as a C
  `struct timespec`. The server sends the go byte and waits, on a pidfd, for
  the child's exit or the timeout. It then kills the child and its process
  group and reaps the child; being the child's parent, it kills before it
  reaps, so no pid can have been reused. It answers on the status pipe with
  two C ints: the wait status, and 1 if the test timed out.
- stdin, stdout and stderr are anonymous files shared by covloop, the server
  and its children, and rewound here before each test.
- At end of file on the control pipe, the server closes the idle child's go
  pipe, so the child ends with `_exit` before running any of the target (a C
  child writes no `.gcda`), reaps it, and exits.

The servers need Linux 5.3 or later (pidfd_open).
"""

from __future__ import annotations

import os
import select
import struct
import subprocess
import tempfile
from pathlib import Path

from .errors import SpawnError

SERVER_ENV = "COVLOOP_FORKSRV"  # read by the C shim and the Python tracer
SERVER_GRACE = 5.0  # seconds a test server may take beyond a test's timeout


class TestServer:
    """The long-lived process that forks each test of one target."""

    def __init__(self, argv: tuple[str, ...], cwd: Path):
        self._stdio = [_scratch_fd(name) for name in ("stdin", "stdout", "stderr")]
        control_r, self._control = os.pipe()
        self._status, status_w = os.pipe()
        try:
            self._proc = subprocess.Popen(
                argv, stdin=self._stdio[0], stdout=self._stdio[1], stderr=self._stdio[2],
                cwd=cwd, pass_fds=(control_r, status_w),
                env={**os.environ, SERVER_ENV: f"{control_r},{status_w}"})
        except OSError as exc:
            for fd in (*self._stdio, self._control, self._status):
                os.close(fd)
            raise SpawnError(f"cannot launch {argv[0]}: {exc}") from exc
        finally:
            os.close(control_r)
            os.close(status_w)
        self._replies = select.poll()
        self._replies.register(self._status, select.POLLIN)

    def run(self, payload: bytes, timeout: float) -> tuple[int | None, bytes, bytes]:
        """(exit status or None on timeout, stdout, stderr) of one test."""
        stdin, stdout, stderr = self._stdio
        os.pwrite(stdin, payload, 0)
        os.ftruncate(stdin, len(payload))
        os.ftruncate(stdout, 0)
        os.ftruncate(stderr, 0)
        for fd in self._stdio:
            os.lseek(fd, 0, os.SEEK_SET)
        seconds, fraction = divmod(timeout, 1)
        try:
            os.write(self._control, struct.pack("@ll", int(seconds), int(fraction * 1e9)))
        except OSError:
            raise self._failure("exited") from None
        if not self._replies.poll((timeout + SERVER_GRACE) * 1000):
            raise self._failure(f"gave no reply {SERVER_GRACE}s after the timeout")
        reply = os.read(self._status, struct.calcsize("@ii"))
        if not reply:
            raise self._failure("exited")
        wait_status, timed_out = struct.unpack("@ii", reply)
        exit_status = None if timed_out else os.waitstatus_to_exitcode(wait_status)
        return exit_status, _read_all(stdout), _read_all(stderr)

    def _failure(self, what: str) -> SpawnError:
        detail = _read_all(self._stdio[2]).decode("utf-8", "replace").strip()
        return SpawnError(f"test server for {self._proc.args[-1]} {what}: {detail[-500:]}")

    def close(self) -> None:
        """Stop the server, its idle child first; kill it after SERVER_GRACE."""
        os.close(self._control)
        try:
            # The status pipe reaches end of file when the server exits; a
            # timed Popen.wait would poll with sleeps instead.
            if not self._replies.poll(SERVER_GRACE * 1000):
                self._proc.kill()
            self._proc.wait()
        finally:
            for fd in (*self._stdio, self._status):
                os.close(fd)


def _scratch_fd(name: str) -> int:
    """A descriptor on an anonymous file: a memfd, or an unlinked temp file."""
    if hasattr(os, "memfd_create"):
        return os.memfd_create(f"covloop-{name}")
    with tempfile.TemporaryFile() as file:
        return os.dup(file.fileno())


def _read_all(fd: int) -> bytes:
    return os.pread(fd, os.fstat(fd).st_size, 0)
