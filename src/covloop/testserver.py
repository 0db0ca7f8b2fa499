"""The covloop side of the test server protocol, shared by both lanes.

A test server is a target's test command started once, with SERVER_ENV set
to "<control fd>,<status fd>": a C binary, whose linked-in `_forksrv.c`
shim takes over before `main`, or the Python prober, `_covtrace.py`. It
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
- A test's stdin is an anonymous file that covloop rewrites and rewinds
  before each test. Its stdout and stderr are /dev/null: the server starts
  with stdout there, and each child points its stderr at it before it waits
  for its go byte. The server's own stderr is an anonymous file, whose tail
  covloop reports if the server fails.
- At end of file on the control pipe, the server closes the idle child's go
  pipe, so the child ends with `_exit` before running any of the target (a C
  child writes no `.gcda`), reaps it, and exits.

The servers need Linux 5.3 or later (pidfd_open). The prober runs alone, so
it holds the protocol's Python spelling (SERVER_ENV, REQUEST, REPLY), which
this module imports; `_forksrv.c` spells the same in C.
"""

from __future__ import annotations

import os
import select
import subprocess
import tempfile
from pathlib import Path

from ._covtrace import REPLY, REQUEST, SERVER_ENV
from .errors import SpawnError

SERVER_GRACE = 5.0  # seconds a test server may take beyond a test's timeout


class TestServer:
    """The long-lived process that forks each test of one target."""

    def __init__(self, argv: tuple[str, ...], cwd: Path):
        fds: list[int] = []  # every descriptor opened here; closed on failure
        try:
            fds.append(_scratch_fd("stdin"))
            fds.append(_scratch_fd("stderr"))
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            self._stdin, self._stderr, control_r, self._control, self._status, status_w = fds
            try:
                self._proc = subprocess.Popen(
                    argv, stdin=self._stdin, stdout=subprocess.DEVNULL, stderr=self._stderr,
                    cwd=cwd, pass_fds=(control_r, status_w),
                    env={**os.environ, SERVER_ENV: f"{control_r},{status_w}"})
            except OSError as exc:
                raise SpawnError(f"cannot launch {argv[0]}: {exc}") from exc
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        os.close(control_r)
        os.close(status_w)
        self._replies = select.poll()
        self._replies.register(self._status, select.POLLIN)

    def run(self, payload: bytes, timeout: float) -> int | None:
        """The exit status of one test, or None if it timed out."""
        os.pwrite(self._stdin, payload, 0)
        os.ftruncate(self._stdin, len(payload))
        os.lseek(self._stdin, 0, os.SEEK_SET)
        seconds, fraction = divmod(timeout, 1)
        try:
            os.write(self._control, REQUEST.pack(int(seconds), int(fraction * 1e9)))
        except OSError:
            raise self._failure("exited") from None
        if not self._replies.poll((timeout + SERVER_GRACE) * 1000):
            raise self._failure(f"gave no reply {SERVER_GRACE}s after the timeout")
        reply = os.read(self._status, REPLY.size)
        if not reply:
            raise self._failure("exited")
        wait_status, timed_out = REPLY.unpack(reply)
        return None if timed_out else os.waitstatus_to_exitcode(wait_status)

    def _failure(self, what: str) -> SpawnError:
        tail = os.pread(self._stderr, 500, max(0, os.fstat(self._stderr).st_size - 500))
        detail = tail.decode("utf-8", "replace").strip()
        return SpawnError(f"test server for {self._proc.args[-1]} {what}: {detail}")

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
            for fd in (self._stdin, self._stderr, self._status):
                os.close(fd)


def _scratch_fd(name: str) -> int:
    """A descriptor on an anonymous file: a memfd, or an unlinked temp file."""
    if hasattr(os, "memfd_create"):
        return os.memfd_create(f"covloop-{name}")
    with tempfile.TemporaryFile() as file:
        return os.dup(file.fileno())
