"""Statement and branch probes for Python targets, and their test server.

Usage: `python _covtrace.py <hits> <script.py> [args...]`. Compiles the
script with probes (see `instrument`), runs it as `__main__` with its
directory first on `sys.path`, and passes its exit code through. The probes
store into <hits>, a file of one byte per probe mapped shared, as the
counters gcc compiles into a C target live in its `.gcda` file: a probe's
store lands in the file when it runs, from any thread, and stays there
however the process ends. `pytrace` maps the bytes back to lines and arms
through the same `instrument`. This file imports only what probing and
serving need.

Started by covloop, from its installed package and on the target's own
script, with SERVER_ENV=<control fd>,<status fd> in its environment, it is
instead the target's test server (the protocol is described in
testserver.py): the interpreter starts, and the script is parsed, probed,
compiled and its hits file mapped, once; each test is a forked child that
runs the compiled script as above. This file runs alone,
so it holds the protocol's Python spelling: SERVER_ENV, and the REQUEST and
REPLY structs; testserver.py imports them, and `_forksrv.c` spells them in C.
"""

import ast
import atexit
import dis
import mmap
import os
import select
import signal
import struct
import sys
import warnings

SERVER_ENV = "COVLOOP_FORKSRV"
REQUEST = struct.Struct("@ll")  # a test's timeout: a C struct timespec
REPLY = struct.Struct("@ii")  # a test's wait status, and 1 if it timed out
HITS = "covloop hits"  # the probes' global name, which no source can spell


def instrument(tree: ast.Module) -> list[tuple[int, int | None]]:
    """Put probes into `tree`, in place, and return the probe table: probe i
    stores 1 into HITS[i] and is listed as (line, arm).

    A probe before each statement is listed with arm None. An if, while or
    for whose test the compiler does not fold to a constant (see
    `_constant_truth`) gets two arm probes, listed on its first line: arm 0
    at the head of its body, arm 1 at the head of its else side, which is
    created when it is missing. A loop's else side runs when the loop ends
    without `break`, so arm 1 is the condition-false edge.
    Code that can never run gets no probe: `global` and `nonlocal`
    declarations, the side of a constant test that the compiler drops, and
    the statements after a return, raise, break or continue in its block.
    The docstring and `from __future__` imports of a module, class or
    function stay first, unprobed.
    """
    table: list[tuple[int, int | None]] = []

    def probe(line: int, arm: int | None = None) -> ast.stmt:
        table.append((line, arm))
        at = {"lineno": line, "col_offset": 0, "end_lineno": line, "end_col_offset": 0}
        hit = ast.Subscript(ast.Name(HITS, ast.Load(), **at), ast.Constant(len(table) - 1, **at),
                            ast.Store(), **at)
        return ast.Assign([hit], ast.Constant(1, **at), **at)

    def block(body: list[ast.stmt], head: tuple[ast.stmt, ...] = (),
              keep: int = 0) -> list[ast.stmt]:
        """`body` after `keep` statements left first and `head`, with a probe
        before each statement and its nested blocks probed."""
        out = [*body[:keep], *head]
        rest = body[keep:]
        for i, stmt in enumerate(rest):
            if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                out.append(probe(stmt.lineno))
            out.append(stmt)
            nested(stmt)
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                return out + rest[i + 1:]
        return out

    def nested(stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.If, ast.While, ast.For)):
            truth = None if isinstance(stmt, ast.For) else _constant_truth(stmt)
            if truth is True:
                stmt.body = block(stmt.body)
            elif truth is False:
                stmt.orelse = block(stmt.orelse)
            else:
                stmt.body = block(stmt.body, (probe(stmt.lineno, 0),))
                stmt.orelse = block(stmt.orelse, (probe(stmt.lineno, 1),))
            return
        defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for name, value in ast.iter_fields(stmt):
            if not isinstance(value, list) or not value:
                continue
            if isinstance(value[0], ast.stmt):
                setattr(stmt, name, block(value, keep=_kept_first(value) if defines else 0))
            elif isinstance(value[0], (ast.excepthandler, ast.match_case)):
                for clause in value:
                    clause.body = block(clause.body)

    tree.body = block(tree.body, keep=_kept_first(tree.body))
    return table


def _constant_truth(stmt: ast.If | ast.While) -> bool | None:
    """The truth of a test the compiler folds to a constant, or None. The
    test is compiled alone, in a statement of its kind with a marker store on
    each side; a marker missing from the bytecode is a side the compiler
    dropped. `__debug__` folds by the -O level, so covloop starts a test
    server at its own. A test that cannot compile alone (`await`) keeps arms.
    Its compiler warnings (`x is 1`) are ignored here, whatever -W says, so
    that they neither reach stderr twice nor turn into a SyntaxError; the
    filters are process-wide, so threads take turns (`pytrace.probe_table`)."""
    marks = [f"{HITS} {arm}" for arm in (0, 1)]
    sides = ([ast.Assign([ast.Name(mark, ast.Store())], ast.Constant(0))] for mark in marks)
    skeleton = ast.fix_missing_locations(ast.Module([type(stmt)(stmt.test, *sides)], []))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = compile(skeleton, "<test>", "exec", dont_inherit=True)
        except SyntaxError:
            return None
    stored = {op.argval for op in dis.get_instructions(code) if op.opname == "STORE_NAME"}
    return None if set(marks) <= stored else marks[0] in stored


def _kept_first(body: list[ast.stmt]) -> int:
    """How many of a module's, class's or function's first statements stay
    first: its docstring, then `from __future__` imports."""
    first = body[0] if body else None
    n = int(isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str))
    while n < len(body) and isinstance(body[n], ast.ImportFrom) and body[n].module == "__future__":
        n += 1
    return n


def load(script_path: str, hits_path: str):
    """The script compiled with probes under its own file name, and the
    array its probes store into: the hits file, mapped shared."""
    with open(script_path, "rb") as script:
        tree = ast.parse(script.read(), script_path)
    table = instrument(tree)
    code = compile(tree, script_path, "exec", dont_inherit=True)
    fd = os.open(hits_path, os.O_RDWR | os.O_CREAT, 0o666)
    try:
        # Zeros for a new file; a server started again keeps the hits so far.
        os.ftruncate(fd, len(table))
        hits = mmap.mmap(fd, len(table)) if table else bytearray()
    finally:
        os.close(fd)
    return code, hits


def run(code, hits, script_path: str, argv: list[str]) -> int:
    """Run the compiled script as `__main__` with `argv`; its exit code."""
    global _test_module
    module = _test_module = type(sys)("__main__")
    module.__file__ = script_path
    setattr(module, HITS, hits)
    sys.modules["__main__"] = module
    sys.argv = [script_path, *argv]
    sys.path[0] = os.path.dirname(script_path)
    try:
        exec(code, module.__dict__)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        if exc.code is not None:
            print(exc.code, file=sys.stderr)
            return 1
    except BaseException:
        import traceback

        traceback.print_exc()
        return 1
    return 0


def serve(control: int, status: int, hits_path: str, script_path: str,
          argv: list[str]) -> None:
    """Fork one child per test until the control pipe closes. Never returns:
    the server, its idle child and each test child end in os._exit."""
    code, hits = load(script_path, hits_path)
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
            os.dup2(1, 2)  # stdout is /dev/null: covloop reads no test's output
            signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
            for fd in (control, status, go_w):
                os.close(fd)
            if not os.read(go_r, 1):
                os._exit(0)  # covloop closed the control pipe
            os.close(go_r)
            _exit_test(run(code, hits, script_path, argv))
        os.close(go_r)
        request = os.read(control, REQUEST.size)
        if not request:
            os.close(go_w)  # the idle child reads end of file
            os.waitpid(pid, 0)
            os._exit(0)
        seconds, nanoseconds = REQUEST.unpack(request)
        os.write(go_w, b"g")
        os.close(go_w)
        wait_status, timed_out = _finish(pid, seconds + nanoseconds / 1e9)
        os.write(status, REPLY.pack(wait_status, timed_out))


def _exit_test(code: int) -> None:
    """End a test child the way the interpreter's exit would, as far as its
    target can tell: wait for its threads, run its exit handlers, drop its
    globals, so a file it left open is finalized and flushed, and flush its
    output. The interpreter's own teardown is skipped: it writes to every
    object the child shares with the server, copying each page of the heap
    (about 20 ms a test). So is its garbage collection, for the same reason:
    an object reachable only through a reference cycle is not finalized."""
    if "threading" in sys.modules:
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    _test_module.__dict__.clear()  # not sys.modules["__main__"], which the test may change
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
    hits_file, script, script_argv = sys.argv[1], os.path.abspath(sys.argv[2]), sys.argv[3:]
    fds = os.environ.pop(SERVER_ENV, None)
    if fds:
        control_fd, status_fd = map(int, fds.split(","))
        serve(control_fd, status_fd, hits_file, script, script_argv)
    sys.exit(run(*load(script, hits_file), script, script_argv))
