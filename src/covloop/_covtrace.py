"""Runtime line tracer for Python targets, copied into a run's build directory.

Usage: `python _covtrace.py <trace.jsonl> <script.py> [args...]`. Runs the
script as `__main__` under sys.settrace, passes its exit code through, and at
exit appends one JSON line `{"lines", "arcs", "exits"}` to the store in one
O_APPEND write, so runs sharing a store never overwrite each other. It imports
only what tracing needs: every test pays for its imports.
"""

import json
import os
import runpy
import sys


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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
