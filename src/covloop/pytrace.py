"""Line and branch coverage for Python targets, from the probes' hits file.

Python targets run with probes compiled in by `_covtrace.instrument`, which
covloop runs from its installed package on the target's own script: one
before each statement, and one at the head of each arm of each if/while/for
whose test the compiler does not fold to a constant. Each probe stores into
its own byte of the hits file. This module rebuilds the probe table from
that same script with the same function and maps the hits to a gcov JSON
file entry, the raw coverage format of both lanes.

An executable line is the first line of a statement that can run, so a
statement that spans lines counts once. Branch model: each if/while/for
contributes two outcome arms on its first line, arm 0 entering the body and
arm 1 taking the else side, which for a loop is the exit without `break`.
"""

from __future__ import annotations

import ast
import threading
from functools import lru_cache
from pathlib import Path

from ._covtrace import instrument
from .errors import CovloopError

# `instrument` swaps the process's warning filters (`warnings.catch_warnings`),
# and `covloop bench --jobs N` probes sources from N threads.
_INSTRUMENTING = threading.Lock()


def build_export(source: str, store: Path) -> dict:
    """The hits file `store` of `source` as a gcov JSON file entry.

    Each executable line is listed with `count` 1 if a statement on it ran
    and 0 if not. An if/while/for line lists one `branches` item per arm,
    body arm first, with `count` 1 if the arm was taken.
    """
    table = probe_table(source)
    lines: dict[int, dict] = {}
    for (line, arm), hit in zip(table, load_store(store, len(table))):
        entry = lines.setdefault(line, {"line_number": line, "count": 0, "branches": []})
        if arm is None:
            entry["count"] |= hit
        else:
            entry["branches"].append({"count": hit})
    return {"lines": [lines[line] for line in sorted(lines)]}


@lru_cache(maxsize=32)
def probe_table(source: str) -> tuple[tuple[int, int | None], ...]:
    """`instrument`'s probe table of `source`, built once per source: a run
    rebuilds its target's export after each iteration that adds tests."""
    tree = ast.parse(source)
    with _INSTRUMENTING:
        return tuple(instrument(tree))


def load_store(path: Path, probes: int) -> bytes:
    """The hits file of a source with `probes` probes: one byte per probe,
    nonzero once the probe ran in any test.

    A missing file means no test ran. A file of another size was not made
    for this source, and raises CovloopError.
    """
    try:
        hits = path.read_bytes()
    except FileNotFoundError:
        return bytes(probes)
    if len(hits) != probes:
        raise CovloopError(f"hits file {path} has {len(hits)} bytes, its source {probes} probes")
    return hits
