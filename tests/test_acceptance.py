"""Acceptance gate: one test per release criterion, offline stub only.

Each test prints a PASS line once its assertions hold, so a verbose run reads
as a checklist. Absolute coverage numbers from live models are out of scope;
everything here is a property of the loop machinery itself.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from conftest import (
    GUARD_C,
    NESTED_GUARDS_C,
    UNREACHABLE_ARM_C,
    ConstantPayloadBackend,
    SequentialCasesBackend,
    artifact_fields,
    make_config,
)
from covloop.backends import SchemaId, StubBackend
from covloop.driver import RunResult, run_loop
from covloop.evaluator import emit_artifact, parse_gcov
from covloop.harness import collect_raw_coverage, prepare_target, run_test
from covloop.model import BranchGap, CoverageReport, Termination, TestCase

_ALL_RESULTS: list[RunResult] = []


def run_and_register(config, source, backend=None) -> RunResult:
    result = run_loop(config, source, backend=backend)
    _ALL_RESULTS.append(result)
    return result


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def passed(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_loop_always_terminates(tmp_path):
    guard = write(tmp_path, "guard.c", GUARD_C)

    started = time.monotonic()
    adversarial = run_and_register(
        make_config(tmp_path, workdir=tmp_path / "adv", threshold=100.0),
        guard,
        backend=ConstantPayloadBackend([["1"], ["1"], ["2"]]),
    )
    adversarial_elapsed = time.monotonic() - started
    assert adversarial.termination is Termination.STAGNATED
    assert len(adversarial.iterations) == 2
    assert adversarial_elapsed < 5.0

    started = time.monotonic()
    regular = run_and_register(
        make_config(tmp_path, workdir=tmp_path / "reg"), guard
    )
    regular_elapsed = time.monotonic() - started
    assert len(regular.iterations) <= 10
    assert regular_elapsed < 5.0

    passed(1, "loop termination")


def test_criterion_2_threshold_exit_on_guarded_branch(tmp_path):
    guard = write(tmp_path, "guard.c", GUARD_C)
    result = run_and_register(make_config(tmp_path), guard)
    assert result.termination is Termination.THRESHOLD_MET
    assert len(result.iterations) <= 3
    assert result.final_report.line_coverage == 100.0
    assert result.final_report.branch_coverage == 100.0
    passed(2, "threshold exit via dual feedback")


def test_criterion_3_dual_feedback_beats_single(tmp_path):
    nested = write(tmp_path, "nested.c", NESTED_GUARDS_C)
    dual = run_and_register(
        make_config(tmp_path, workdir=tmp_path / "dual"), nested
    )
    single = run_and_register(
        make_config(
            tmp_path,
            workdir=tmp_path / "single",
            branch_feedback_enabled=False,
        ),
        nested,
    )
    assert single.termination is Termination.STAGNATED
    assert len(single.iterations) == 2
    assert single.final_report.branch_coverage < dual.final_report.branch_coverage
    passed(3, "dual vs single feedback")


def test_criterion_4_cache_prevents_duplicate_executions(tmp_path):
    target = write(tmp_path, "hard.c", UNREACHABLE_ARM_C)
    backend = SequentialCasesBackend(fresh=4, duplicate_fraction=1.0)
    result = run_and_register(
        make_config(tmp_path, threshold=100.0, k_max=4), target, backend=backend
    )
    assert result.executed_processes == len(result.cache)

    contents = sorted(
        p.read_text() for p in (result.workdir / "TestCases").iterdir()
    )
    assert len(contents) == len(result.cache)
    assert len(set(contents)) == len(contents)  # pairwise distinct by content
    passed(4, "no duplicate executions")


def test_criterion_5_wall_time_scales_linearly(tmp_path):
    target = write(tmp_path, "hard.c", UNREACHABLE_ARM_C)

    def measure(fresh_per_iter: int, runs: int = 5) -> float:
        samples = []
        for i in range(runs):
            config = make_config(
                tmp_path,
                workdir=tmp_path / f"scale_{fresh_per_iter}_{i}",
                threshold=100.0,
                k_max=3,
            )
            backend = SequentialCasesBackend(fresh=fresh_per_iter)
            started = time.monotonic()
            result = run_and_register(config, target, backend=backend)
            samples.append(time.monotonic() - started)
            assert len(result.cache) == fresh_per_iter * 3
        return statistics.median(samples)

    base = measure(6)
    doubled = measure(12)
    assert doubled / base <= 2.5, f"2N/N wall time ratio {doubled / base:.2f}"
    passed(5, "linear scaling with generated cases")


# Oracle fixtures: sources with hand-enumerated executions. For each entry:
# inputs fed, executable-line count, executed-line count, branch arm totals.
C_WHILE = """\
#include <stdio.h>

int main(void) {
    int n = 0;
    scanf("%d", &n);
    while (n > 0) {
        n = n - 1;
    }
    printf("%d\\n", n);
    return 0;
}
"""

C_IF_NO_ELSE = """\
#include <stdio.h>

int main(void) {
    int x = 0;
    int flag = 0;
    scanf("%d", &x);
    if (x > 100) {
        flag = 1;
    }
    printf("%d\\n", flag);
    return 0;
}
"""

C_TWO_IFS = """\
#include <stdio.h>

int main(void) {
    int a = 0, b = 0;
    scanf("%d %d", &a, &b);
    if (a > 0) {
        printf("apos\\n");
    }
    if (b > 0) {
        printf("bpos\\n");
    } else {
        printf("bneg\\n");
    }
    return 0;
}
"""

C_STRAIGHT = """\
#include <stdio.h>

int main(void) {
    int x = 0;
    scanf("%d", &x);
    printf("%d\\n", x);
    return 0;
}
"""

PY_STRAIGHT = "x = input()\nprint(x)\n"

PY_IF_ELSE = "x = int(input())\nif x == 42:\n    print('hit')\nelse:\n    print('miss')\n"

PY_WHILE = "n = int(input())\nwhile n > 0:\n    n = n - 1\nprint(n)\n"

PY_IF_NO_ELSE = "x = int(input())\nflag = 0\nif x > 100:\n    flag = 1\nprint(flag)\n"

PY_TWO_FUNCS = (
    "def double(v):\n"
    "    return v * 2\n"
    "\n"
    "\n"
    "def halve(v):\n"
    "    return v // 2\n"
    "\n"
    "\n"
    "x = int(input())\n"
    "print(double(x))\n"
)

# (name, source, inputs per run, executed lines, executable lines,
#  taken arms, total arms)
ORACLE_FIXTURES = [
    ("straight.c", C_STRAIGHT, [("7",)], 5, 5, 0, 0),
    ("guard.c", GUARD_C, [("7",)], 6, 7, 1, 2),
    ("countdown.c", C_WHILE, [("0",)], 6, 7, 1, 2),
    ("flag.c", C_IF_NO_ELSE, [("5",)], 7, 8, 1, 2),
    ("pair.c", C_TWO_IFS, [("1", "2"), ("3", "-4")], 9, 9, 3, 4),
    ("straight.py", PY_STRAIGHT, [("7",)], 2, 2, 0, 0),
    ("guard.py", PY_IF_ELSE, [("7",)], 3, 4, 1, 2),
    ("countdown.py", PY_WHILE, [("2",)], 4, 4, 2, 2),
    ("flag.py", PY_IF_NO_ELSE, [("5",)], 4, 5, 1, 2),
    ("funcs.py", PY_TWO_FUNCS, [("3",)], 5, 6, 0, 0),
]


def test_criterion_6_parser_oracles(tmp_path):
    for name, source, runs, executed, executable, taken, arms in ORACLE_FIXTURES:
        source_path = write(tmp_path, name, source)
        with prepare_target(source_path, tmp_path / f"work_{name}") as target:
            for values in runs:
                outcome = run_test(target, TestCase(values), timeout=10.0)
                assert not outcome.timed_out
        raw = collect_raw_coverage(target)
        report = parse_gcov(raw)

        assert len(report.executed_lines) == executed, name
        assert len(report.executed_lines) + len(report.missing_lines) == executable, name
        assert report.taken_branches == taken, name
        assert report.total_branches == arms, name
        # Exact equality: the parsed percentage and the hand computation are
        # the same arithmetic on the same integers.
        assert report.line_coverage == 100.0 * executed / executable, name
        if arms:
            assert report.branch_coverage == 100.0 * taken / arms, name
        else:
            assert report.branch_coverage == 100.0, name
        expected_total = (report.line_coverage + report.branch_coverage) / 2
        assert abs(report.total_coverage - expected_total) <= 1e-9, name
    passed(6, "parser oracles, 5 C + 5 Python fixtures")


def test_criterion_7_coverage_monotone_across_all_runs(tmp_path):
    # A fresh multi-iteration run plus everything the other criteria produced.
    guard = write(tmp_path, "guard.c", GUARD_C)
    run_and_register(
        make_config(tmp_path, threshold=100.0),
        guard,
        backend=ConstantPayloadBackend([["5"]]),
    )
    assert _ALL_RESULTS
    for result in _ALL_RESULTS:
        lines = [r.report.line_coverage for r in result.iterations]
        branches = [r.report.branch_coverage for r in result.iterations]
        assert lines == sorted(lines)
        assert branches == sorted(branches)
    passed(7, f"monotone coverage over {len(_ALL_RESULTS)} runs")


def test_criterion_8_prompt_contracts(tmp_path):
    generation_prompts: list[str] = []

    class RecordingStub(StubBackend):
        def raw_complete(self, prompt, schema_id):
            if schema_id is SchemaId.TEST_CASES:
                generation_prompts.append(prompt)
            return super().raw_complete(prompt, schema_id)

    guard = write(tmp_path, "guard.c", GUARD_C)
    result = run_and_register(make_config(tmp_path), guard, backend=RecordingStub())
    assert len(generation_prompts) >= 2

    followup = generation_prompts[1]  # the prompt after iteration 0's gaps
    assert followup.count("Additional Focus Areas:") == 1
    assert "[line coverage]" in followup
    assert "[branch coverage]" in followup
    focus = followup[followup.index("Additional Focus Areas:"):]
    assert "try integer input 42" in focus

    cache_section = followup[
        followup.index("Previously generated values:"):
        followup.index("Additional Focus Areas:")
    ]
    iteration_0_cases = result.cache.ordered[: result.iterations[0].novel_tests]
    for tc in iteration_0_cases:
        rendered = "(" + ", ".join(v.strip() for v in tc.values) + ")"
        assert rendered in cache_section
    passed(8, "prompt contracts")


def test_criterion_9_artifact_round_trip(tmp_path):
    rng = random.Random(20260810)
    for i in range(100):
        executed = frozenset(rng.sample(range(1, 400), rng.randint(0, 40)))
        missing = frozenset(
            n + 400 for n in rng.sample(range(1, 400), rng.randint(0, 40))
        )
        gap_keys = {
            (rng.randint(1, 400), rng.randint(0, 3))
            for _ in range(rng.randint(0, 12))
        }
        gaps = tuple(BranchGap(line=l, branch_id=b) for l, b in sorted(gap_keys))
        taken = rng.randint(0, 50)
        report = CoverageReport(
            executed_lines=executed,
            missing_lines=missing,
            total_branches=taken + len(gaps),
            missing_branches=gaps,
        )
        path = tmp_path / f"artifact_{i}.json"
        emit_artifact(report, path)
        assert json.loads(path.read_text()) == artifact_fields(report)
    passed(9, "artifact round trip x100")
