"""The bounded generate/execute/evaluate/refine loop for one target.

Per iteration: render the prompt (baseline plus the latest focus section and
cache summary), ask the generator for candidates, add the novel ones to the
cache, persist and execute them against the cumulative instrumented target,
evaluate coverage, and stop once the combined line/branch percentage reaches
the threshold or the iteration cap runs out. Otherwise both gap analysts run (in
parallel, each only when its gap set is non-empty) and their refinements
replace the focus section for the next round.

The loop also stops, before writing or sending it, at the first generation
prompt equal to one it already sent. An equal prompt carries an equal cache
summary, so no case was added since; with a backend that answers a prompt
the same way each time, the rest of the run would repeat a cycle that adds
nothing. So no request is sent twice: the analyst prompts embed the
generation prompt verbatim, and cannot repeat either.

Only newly added cases are executed each iteration: instrumentation counters
accumulate, so re-running the whole suite would change nothing except cost.
An iteration that executes no case reuses the previous coverage report
instead of collecting coverage again, since only a test can change it. The
all-zero report of a target no test has run yet is collected only when an
iteration or the result needs it. The analysts do not run after the last
iteration, because no later prompt would read their output.

Each run opens one two-worker thread pool next to its prepared target.
An iteration's new test cases are written on it, so creating their files
overlaps the iteration's tests and coverage collection; the writer gets the
iteration's own list of new cases, which nothing changes afterwards. The loop
waits for that write once collection is done, before it writes the
iteration's coverage artifact, so at most one write is pending, both workers
are free when the two analysts run on the same pool, every write is done
before each backend request and before `run_loop` returns, and a failed write
ends the run before another request is sent. If the loop itself raises while
a write is pending, leaving the pool waits for the write and drops its error,
so the loop's error is the one that propagates. The prompt and the coverage
artifact are written on the loop's own thread: the loop would wait for them
at once, so handing them over would add only a thread wake-up each, whose
latency varies from one write to the next.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import agents, evaluator, harness
from .analyzer import detect_language, extract_input_signature
from .backends import CompletionBackend, SchemaId, make_backend
from .cache import TestSuiteCache
from .errors import BackendError, ContractViolation
from .model import (
    CoverageReport,
    FeedbackRefinement,
    InputSignature,
    IterationRecord,
    RunConfig,
    Termination,
    format_pct,
)
from .prompts import build_baseline_prompt, merge_refinements

log = logging.getLogger(__name__)

# Most recent cache entries echoed in the generation prompt.
CACHE_PROMPT_LIMIT = 200


@dataclass
class RunResult:
    final_report: CoverageReport
    iterations: list[IterationRecord]
    termination: Termination
    total_duration: float
    cache: TestSuiteCache
    workdir: Path

    @property
    def executed_processes(self) -> int:
        # Each case the cache holds was executed once, in the iteration that added it.
        return len(self.cache)


def run_loop(
    config: RunConfig,
    source_path: str | Path,
    backend: CompletionBackend | None = None,
) -> RunResult:
    """Run the feedback loop over one target source file.

    A backend instance may be injected (tests rely on this); otherwise one is
    built from the config. Backend failures terminate the loop with the
    coverage observed so far rather than raising.
    """
    started = time.monotonic()
    source_path = Path(source_path)
    language = detect_language(source_path)
    try:
        source = source_path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{source_path} is not UTF-8 text: {exc}") from exc
    signature = extract_input_signature(source, language)

    backend = backend or make_backend(config)
    with (harness.prepare_target(source_path, config.workdir) as target,
          ThreadPoolExecutor(max_workers=2, thread_name_prefix="covloop") as pool):
        result = _iterate(config, target, pool, backend, signature, source, started)
    target.result_path.write_text(
        json.dumps(result_dict(result), indent=2) + "\n", encoding="utf-8"
    )
    return result


def _iterate(
    config: RunConfig,
    target: harness.PreparedTarget,
    pool: ThreadPoolExecutor,
    backend: CompletionBackend,
    signature: InputSignature,
    source: str,
    started: float,
) -> RunResult:
    """The loop itself, over a prepared target and a pool that the caller
    closes."""
    cache = TestSuiteCache()
    line_fb: FeedbackRefinement | None = None
    branch_fb: FeedbackRefinement | None = None
    records: list[IterationRecord] = []
    report: CoverageReport | None = None  # collected when first needed
    termination = Termination.K_MAX_REACHED
    sent_prompts: set[str] = set()

    for k in range(config.k_max):
        iter_started = time.monotonic()
        bundle = build_baseline_prompt(
            signature, cache.summary_for_prompt(CACHE_PROMPT_LIMIT)
        )
        bundle = merge_refinements(bundle, line_fb, branch_fb)
        prompt_text = bundle.render()
        if prompt_text in sent_prompts:
            termination = Termination.STAGNATED
            break
        sent_prompts.add(prompt_text)
        (target.prompts_dir / f"iter_{k}.txt").write_text(prompt_text, encoding="utf-8")

        try:
            response = agents.complete(backend, prompt_text, SchemaId.TEST_CASES)
        except BackendError as exc:
            log.error("generation backend failed at iteration %d: %s", k, exc)
            termination = Termination.BACKEND_FAILURE
            break

        since = len(cache)
        novel = agents.parse_and_filter(response, cache, len(signature))
        written = pool.submit(TestSuiteCache.persist_novel, novel,
                              target.testcases_dir, since) if novel else None

        for tc in novel:
            outcome = harness.run_test(target, tc, config.per_test_timeout)
            if outcome.timed_out:
                log.info("iteration %d: test timed out after %gs", k, config.per_test_timeout)
            elif outcome.exit_status:
                log.info("iteration %d: test exited with %s", k, outcome.exit_status)

        if novel or report is None:
            report = _evaluate(target)
        if written is not None:
            written.result()
        evaluator.emit_artifact(report, target.coverage_dir / f"iter_{k}.json")
        records.append(IterationRecord(len(novel), report, time.monotonic() - iter_started))
        log.info(
            "iteration %d: %d novel cases, line %s%%, branch %s%%",
            k, len(novel), format_pct(report.line_coverage),
            format_pct(report.branch_coverage),
        )

        if report.total_coverage >= config.threshold:
            termination = Termination.THRESHOLD_MET
            break
        if k == config.k_max - 1:
            break

        try:
            line_fb, branch_fb = _gather_feedback(
                pool, config, backend, source, report, prompt_text
            )
        except BackendError as exc:
            log.error("feedback backend failed at iteration %d: %s", k, exc)
            termination = Termination.BACKEND_FAILURE
            break

    return RunResult(
        final_report=report if report is not None else _evaluate(target),
        iterations=records,
        termination=termination,
        total_duration=time.monotonic() - started,
        cache=cache,
        workdir=target.workdir,
    )


def _evaluate(target: harness.PreparedTarget) -> CoverageReport:
    """The target's cumulative coverage; both lanes collect a gcov JSON entry."""
    return evaluator.parse_gcov(harness.collect_raw_coverage(target))


def _gather_feedback(
    pool: ThreadPoolExecutor,
    config: RunConfig,
    backend: CompletionBackend,
    source: str,
    report: CoverageReport,
    prompt_text: str,
) -> tuple[FeedbackRefinement | None, FeedbackRefinement | None]:
    """Run the analysts this iteration's gaps call for, concurrently on the
    run's pool: the loop has waited for its write, so both workers are free."""
    want_line = config.line_feedback_enabled and bool(report.missing_lines)
    want_branch = config.branch_feedback_enabled and bool(report.missing_branches)
    futures = (
        pool.submit(
            agents.line_feedback, backend, source,
            report.missing_lines, prompt_text,
        ) if want_line else None,
        pool.submit(
            agents.branch_feedback, backend, source,
            report.missing_branches, prompt_text,
        ) if want_branch else None,
    )
    line_fb, branch_fb = (f.result() if f else None for f in futures)
    return line_fb, branch_fb


def result_dict(result: RunResult) -> dict:
    return {
        "termination": result.termination.value,
        "total_duration_sec": round(result.total_duration, 3),
        "executed_processes": result.executed_processes,
        "test_cases": len(result.cache),
        "final_coverage": _percentages(result.final_report),
        "iterations": [
            {
                "k": k,
                "novel_tests": r.novel_tests,
                **_percentages(r.report),
                "duration_sec": round(r.duration, 3),
            }
            for k, r in enumerate(result.iterations)
        ],
    }


def _percentages(report: CoverageReport) -> dict[str, float]:
    return {name: float(text) for name, text in evaluator.percentages(report).items()}
