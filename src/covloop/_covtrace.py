"""Runtime line tracer for Python targets, copied into a run's build directory.

Usage: `python _covtrace.py <trace.jsonl> <script.py> [args...]`. Runs the
script as `__main__` under sys.settrace, passes its exit code through, and at
exit appends one JSON line `{"lines", "arcs", "exits"}` to the store in one
O_APPEND write, so runs sharing a store never overwrite each other. It imports
only what tracing and serving need.

Started by covloop with COVLOOP_FORKSRV=<control fd>,<status fd> in its
environment, it is instead the target's test server (the protocol is
described in testserver.py): the interpreter starts and imports `site`, `json`
and `runpy` once, and each test is a forked child that runs the script as
above.
"""

import atexit
import json
import os
import runpy
import select
import signal
import struct
import sys

SERVER_ENV = "COVLOOP_FORKSRV"  # testserver.SERVER_ENV; this file runs alone, as a copy


def main(store_path: str, script_path: str, argv: list[str]) -> int:
    target = os.path.abspath(script_path)
    lines: set[int] = set()
    arcs: set[tuple[int, int]] = set()
    exits: set[int] = set()
    last_line: dict[int, int] = {}

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != target:
            return None
        if event == "call":
            return tracer
        if event == "line":
            key = id(frame)
            cur = frame.f_lineno
            lines.add(cur)
            prev = last_line.get(key)
            if prev is not None:
                arcs.add((prev, cur))
            last_line[key] = cur
        elif event == "return":
            exits.add(frame.f_lineno)
            last_line.pop(id(frame), None)
        return tracer

    sys.argv = [target] + argv
    exit_code = 0
    sys.settrace(tracer)
    try:
        runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        if isinstance(exc.code, int):
            exit_code = exc.code
        elif exc.code is not None:
            print(exc.code, file=sys.stderr)
            exit_code = 1
    except BaseException:
        import traceback

        traceback.print_exc()
        exit_code = 1
    finally:
        sys.settrace(None)
    record = {"lines": sorted(lines), "arcs": sorted(arcs), "exits": sorted(exits)}
    with open(store_path, "ab", buffering=0) as store:
        store.write((json.dumps(record) + "\n").encode("utf-8"))
    return exit_code


def serve(control: int, status: int, store_path: str, script_path: str,
          argv: list[str]) -> None:
    """Fork one child per test until the control pipe closes. Never returns:
    the server, its idle child and each test child end in os._exit."""
    # On a Ctrl-C at the terminal, covloop stops the server once the running
    # test is over.
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    while True:
        # One go pipe per child, so a child that died before its go byte
        # cannot leave that byte to the next one.
        go_r, go_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.setpgid(0, 0)
            signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
            for fd in (control, status, go_w):
                os.close(fd)
            if not os.read(go_r, 1):
                os._exit(0)  # covloop closed the control pipe
            os.close(go_r)
            _exit_test(main(store_path, script_path, argv))
        os.close(go_r)
        request = os.read(control, struct.calcsize("@ll"))
        if not request:
            os.close(go_w)  # the idle child reads end of file
            os.waitpid(pid, 0)
            os._exit(0)
        seconds, nanoseconds = struct.unpack("@ll", request)
        os.write(go_w, b"g")
        os.close(go_w)
        wait_status, timed_out = _finish(pid, seconds + nanoseconds / 1e9)
        os.write(status, struct.pack("@ii", wait_status, timed_out))


def _exit_test(code: int) -> None:
    """End a test child the way the interpreter's exit would, as far as its
    target can tell: wait for its threads, run its exit handlers, flush its
    output. The interpreter's own teardown is skipped: it writes to every
    object the child shares with the server, copying each page of the heap
    (about 20 ms a test)."""
    if "threading" in sys.modules:
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):  # a target may close or break its streams
            pass
    os._exit(code)


def _finish(pid: int, timeout: float) -> tuple[int, bool]:
    """Wait up to `timeout` seconds for child `pid` to exit, then kill what
    is left of its process group and reap it. Its group id cannot have been
    reused while the child is unreaped. Returns the wait status and whether
    the wait timed out."""
    pidfd = os.pidfd_open(pid)  # readable once the child has exited
    try:
        exited = select.poll()
        exited.register(pidfd, select.POLLIN)
        timed_out = not exited.poll(timeout * 1000)
    finally:
        os.close(pidfd)
    try:
        os.kill(pid, signal.SIGKILL)  # in case it left its group
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return os.waitpid(pid, 0)[1], timed_out


if __name__ == "__main__":
    fds = os.environ.pop(SERVER_ENV, None)
    if fds:
        control, status = map(int, fds.split(","))
        serve(control, status, sys.argv[1], sys.argv[2], sys.argv[3:])
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
