"""In-memory spans around the calls the loop driver makes into each layer.

`Tracer.installed()` replaces the module and class attributes the loop driver
calls through with timing wrappers, and puts the originals back on exit, so
the program's own files stay untouched. A span is (id, name, start, end,
parent id, target id, attributes). Spans opened on the loop driver's feedback
threads have no open span of their own thread; their parent is the target's
root span, which the benchmark opens around `run_loop`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    target: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, target: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        s = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent else None,
            target=target if target is not None else (parent.target if parent else ""),
        )
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    @contextlib.contextmanager
    def root(self, name: str, target: str):
        """The span of one target run; parent of spans on any thread."""
        with self.span(name, target) as s:
            self._root = s
            try:
                yield s
            finally:
                self._root = None

    def _wrap(self, owner, attr: str, name: str, annotate=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(s, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        return owner, attr, original

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary the loop driver crosses; restore on exit."""
        from covloop import agents, backends, cache, driver, evaluator, harness
        from covloop import prompts, pytrace

        points = [
            (driver, "extract_input_signature", "analyzer.extract_input_signature", None),
            (harness, "prepare_target", "harness.prepare_target", None),
            (harness, "run_test", "harness.run_test", _annotate_run_test),
            (harness, "collect_raw_coverage", "harness.collect_raw_coverage", None),
            (pytrace, "load_store", "pytrace.load_store", None),
            (pytrace, "build_export", "pytrace.build_export", None),
            (evaluator, "parse_gcov", "evaluator.parse_gcov", None),
            (evaluator, "parse_dynamic_coverage", "evaluator.parse_dynamic_coverage", None),
            (evaluator, "emit_artifact", "evaluator.emit_artifact", None),
            (agents, "complete", "agents.complete", _annotate_complete),
            (agents, "parse_and_filter", "agents.parse_and_filter", _annotate_filter),
            (agents, "line_feedback", "agents.line_feedback", None),
            (agents, "branch_feedback", "agents.branch_feedback", None),
            (backends.StubBackend, "raw_complete", "backends.raw_complete", None),
            (cache.TestSuiteCache, "persist_novel", "cache.persist_novel", None),
            (cache.TestSuiteCache, "summary_for_prompt", "cache.summary_for_prompt", None),
            (driver, "build_baseline_prompt", "prompts.build", None),
            (driver, "merge_refinements", "prompts.merge", None),
            (prompts.PromptBundle, "render", "prompts.render", _annotate_render),
        ]
        saved = [self._wrap(owner, attr, name, note) for owner, attr, name, note in points]
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "target": s.target, **s.attrs,
                }) + "\n")


def _annotate_run_test(span, args, kwargs, outcome):
    span.attrs["timed_out"] = outcome.timed_out
    span.attrs["exit_status"] = outcome.exit_status


def _annotate_complete(span, args, kwargs, response):
    span.attrs["schema"] = args[2].value
    span.attrs["attempts"] = response.attempts


def _annotate_filter(span, args, kwargs, novel):
    raw, _cache = args[0], args[1]
    expected = args[2] if len(args) > 2 else kwargs.get("expected_count")
    cases = raw.parsed["test_cases"]
    dropped = sum(1 for c in cases if expected is not None and len(c) != expected)
    span.attrs.update(
        proposed=len(cases),
        arity_dropped=dropped,
        duplicates=len(cases) - dropped - len(novel),
        novel=len(novel),
    )


def _annotate_render(span, args, kwargs, text):
    span.attrs["chars"] = len(text)


def covered_time(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_time(children.get(s.id, [])) for s in spans
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def summary(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, p50, p90, total and self time, in ms."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for name in sorted(by_name):
        group = by_name[name]
        ms = [s.duration * 1e3 for s in group]
        out[name] = {
            "count": len(group),
            "p50_ms": statistics.median(ms),
            "p90_ms": percentile(ms, 0.9),
            "total_ms": sum(ms),
            "self_ms": sum(own[s.id] for s in group) * 1e3,
        }
    return out
