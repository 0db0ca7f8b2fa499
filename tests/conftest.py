"""Shared fixture programs, scripted backends and a scripted endpoint for the
test suite."""

from __future__ import annotations

import glob
import json
import os
import subprocess
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from covloop import agents
from covloop.backends import CompletionBackend, SchemaId, StubBackend
from covloop.model import RunConfig


# C target: one comparison-guarded branch pair, reachable only with 42.
GUARD_C = """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    if (x == 42) {
        printf("hit\\n");
    } else {
        printf("miss\\n");
    }
    return 0;
}
"""

# Python twin of the guard target.
GUARD_PY = """\
x = int(input())
if x == 42:
    print("hit")
else:
    print("miss")
"""

# Three nested guards whose bodies always run under boundary inputs, so all
# lines execute but the skip arms need the exact constants. Line feedback has
# nothing to say about this program; branch feedback is the only way in.
NESTED_GUARDS_C = """\
#include <stdio.h>

int main(void) {
    int a = 0, b = 0, c = 0;
    int t = 0;
    scanf("%d %d %d", &a, &b, &c);
    if (a != 701) {
        t += 1;
        if (b != 809) {
            t += 2;
            if (c != 911) {
                t += 3;
            }
        }
    }
    printf("%d\\n", t);
    return 0;
}
"""

# Straight-line program used where branching would only add noise.
ECHO_C = """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    printf("%d\\n", x);
    return 0;
}
"""

# One practically unreachable arm keeps total coverage below any threshold.
UNREACHABLE_ARM_C = """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    if (x == 123456789) {
        printf("secret\\n");
    }
    printf("%d\\n", x);
    return 0;
}
"""

SPIN_FOREVER_C = """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    while (1) {
        x = x + 1;
    }
    return 0;
}
"""

CRASH_ON_NEGATIVE_C = """\
#include <stdio.h>
#include <stdlib.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    if (x < 0) {
        abort();
    }
    printf("%d\\n", x);
    return 0;
}
"""


# C/Python twins for the cross-lane oracle: name -> (ints read from stdin,
# C source, Python source). Each pair has its branch statements in the same
# order, so their sites match by statement order. Conditions are simple
# comparisons: `&&` and `||` add gcov arms of their own.
TWINS = {
    "if_else": (1, """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    if (x > 2) {
        printf("big\\n");
    } else {
        printf("small\\n");
    }
    return 0;
}
""", """\
x = int(input())
if x > 2:
    print("big")
else:
    print("small")
"""),
    "if_without_else": (1, """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    if (x == 3) {
        x = 0;
    }
    printf("%d\\n", x);
    return 0;
}
""", """\
x = int(input())
if x == 3:
    x = 0
print(x)
"""),
    "elif_chain": (1, """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    if (x < 0) {
        printf("neg\\n");
    } else if (x == 0) {
        printf("zero\\n");
    } else {
        printf("pos\\n");
    }
    return 0;
}
""", """\
x = int(input())
if x < 0:
    print("neg")
elif x == 0:
    print("zero")
else:
    print("pos")
"""),
    "while_break": (1, """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    while (x > 0) {
        if (x == 3) {
            break;
        }
        x = x - 1;
    }
    printf("%d\\n", x);
    return 0;
}
""", """\
x = int(input())
while x > 0:
    if x == 3:
        break
    x = x - 1
print(x)
"""),
    "for_range": (1, """\
#include <stdio.h>

int main(void) {
    int n = 0, i = 0, s = 0;
    scanf("%d", &n);
    for (i = 0; i < n; i++) {
        s = s + i;
    }
    printf("%d\\n", s);
    return 0;
}
""", """\
n = int(input())
s = 0
for i in range(n):
    s = s + i
print(s)
"""),
    "nested_guards": (2, """\
#include <stdio.h>

int main(void) {
    int a = 0, b = 0;
    scanf("%d %d", &a, &b);
    if (a > 0) {
        if (b > 1) {
            printf("both\\n");
        }
        a = b;
    }
    while (a > 2) {
        a = a - 1;
    }
    printf("%d\\n", a);
    return 0;
}
""", """\
a = int(input())
b = int(input())
if a > 0:
    if b > 1:
        print("both")
    a = b
while a > 2:
    a = a - 1
print(a)
"""),
}


@pytest.fixture
def guard_c(tmp_path):
    path = tmp_path / "guard.c"
    path.write_text(GUARD_C)
    return path


@pytest.fixture
def guard_py(tmp_path):
    path = tmp_path / "guard.py"
    path.write_text(GUARD_PY)
    return path


@pytest.fixture
def nested_guards_c(tmp_path):
    path = tmp_path / "nested.c"
    path.write_text(NESTED_GUARDS_C)
    return path


@pytest.fixture
def echo_c(tmp_path):
    path = tmp_path / "echo.c"
    path.write_text(ECHO_C)
    return path


def require_interpreter(minor):
    """A CPython 3.<minor> that starts here; the test is skipped if none does.

    pyenv's shims come first on PATH but may refuse to run a version that is
    not selected, so every candidate is started once to check it.
    """
    pyenv = os.environ.get("PYENV_ROOT")
    candidates = sorted(glob.glob(f"{pyenv}/versions/3.{minor}.*/bin/python3")) if pyenv else []
    candidates += [os.path.join(d, f"python3.{minor}") for d in os.get_exec_path()]
    for python in candidates:
        if not os.access(python, os.X_OK):
            continue
        probe = subprocess.run(
            [python, "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, timeout=30,
        )
        if probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})".encode():
            return python
    pytest.skip(f"no CPython 3.{minor} found under $PYENV_ROOT/versions or on PATH")


def make_config(tmp_path, **overrides) -> RunConfig:
    return RunConfig(**{"workdir": tmp_path / "out", **overrides})


def artifact_fields(report) -> dict:
    """What `json.loads` reads back from the coverage artifact of `report`:
    its raw fields, and its percentages rounded to two decimals."""
    return {
        "executed_lines": sorted(report.executed_lines),
        "missing_lines": sorted(report.missing_lines),
        "missing_branches": [
            {"line": gap.line, "branch_id": gap.branch_id}
            for gap in report.missing_branches
        ],
        "total_branches": report.total_branches,
        "taken_branches": report.taken_branches,
        "line_coverage": round(report.line_coverage, 2),
        "branch_coverage": round(report.branch_coverage, 2),
        "total_coverage": round(report.total_coverage, 2),
    }


class ScriptedBackend(CompletionBackend):
    """Replays a fixed list of raw completions, then repeats the last one."""

    def __init__(self, replies: list[str]):
        self.replies = replies
        self.calls = 0

    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        reply = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        return reply


class ConstantPayloadBackend(CompletionBackend):
    """Adversarial generator: the same test_cases payload forever."""

    def __init__(self, cases: list[list[str]]):
        self._generated = json.dumps({"test_cases": cases})
        self._stub = StubBackend()

    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        if schema_id is SchemaId.TEST_CASES:
            return self._generated
        return self._stub.raw_complete(prompt, schema_id)


class SequentialCasesBackend(CompletionBackend):
    """Emits `fresh` brand-new single-int cases per call, plus optional repeats."""

    def __init__(self, fresh: int, duplicate_fraction: float = 0.0):
        self.fresh = fresh
        self.duplicate_fraction = duplicate_fraction
        self._next = 0
        self._stub = StubBackend()

    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        if schema_id is SchemaId.REFINEMENT:
            return self._stub.raw_complete(prompt, schema_id)
        cases = [[str(self._next + i)] for i in range(self.fresh)]
        self._next += self.fresh
        repeats = int(len(cases) * self.duplicate_fraction)
        cases.extend([[str(i)] for i in range(repeats)])
        return json.dumps({"test_cases": cases})


class ScriptedEndpoint(BaseHTTPRequestHandler):
    """A completion endpoint that replays `script`, then repeats its last
    entry, and records each request it was sent in `seen`."""

    # (status, headers, body) tuples consumed in order; a None status sends
    # the body as the whole raw reply.
    script = []
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).seen.append(
            {
                "auth": self.headers.get("Authorization"),
                "content_type": self.headers.get("Content-Type"),
                "body": body,
            }
        )
        status, headers, payload = self.script[min(len(self.seen) - 1,
                                                   len(self.script) - 1)]
        if status is None:
            self.wfile.write(payload.encode())
            return
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


def serve(handler):
    handler.seen = []
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/complete"
    server.shutdown()
    server.server_close()


@pytest.fixture
def slept(monkeypatch):
    """The delays `complete` waits between attempts, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(agents.time, "sleep", delays.append)
    return delays


@pytest.fixture
def endpoint(monkeypatch, slept):
    monkeypatch.setenv("COVLOOP_API_KEY", "sekrit")
    ScriptedEndpoint.script = []
    yield from serve(ScriptedEndpoint)
