"""End-to-end loop driver tests against the offline backends."""

import codecs
import ctypes
import json
import os
import threading
import time
from concurrent.futures import Future

import pytest

from conftest import ConstantPayloadBackend, ScriptedBackend, make_config
from covloop import driver, harness
from covloop.backends import CompletionBackend, SchemaId, StubBackend
from covloop.cache import TestSuiteCache
from covloop.driver import run_loop
from covloop.errors import BackendError, ContractViolation, TransportError
from covloop.model import BranchGap, CoverageReport, Termination


class TestGuardTarget:
    def test_c_guard_reaches_full_coverage(self, tmp_path, guard_c):
        result = run_loop(make_config(tmp_path), guard_c)
        assert result.termination is Termination.THRESHOLD_MET
        assert len(result.iterations) <= 3
        assert result.final_report.line_coverage == 100.0
        assert result.final_report.branch_coverage == 100.0

    def test_python_guard_reaches_full_coverage(self, tmp_path, guard_py):
        result = run_loop(make_config(tmp_path), guard_py)
        assert result.termination is Termination.THRESHOLD_MET
        assert result.final_report.branch_coverage == 100.0

    def test_artifacts_written(self, tmp_path, guard_c):
        result = run_loop(make_config(tmp_path), guard_c)
        workdir = result.workdir
        assert (workdir / "result.json").exists()
        assert (workdir / "coverage" / "iter_0.json").exists()
        assert (workdir / "prompts" / "iter_0.txt").exists()
        listing = sorted(p.name for p in (workdir / "TestCases").iterdir())
        assert len(listing) == len(result.cache)
        payload = json.loads((workdir / "result.json").read_text())
        assert payload["termination"] == "threshold_met"
        assert len(payload["iterations"]) == len(result.iterations)


class TestSourceEncoding:
    @pytest.mark.parametrize("fixture", ["guard_c", "guard_py"])
    def test_a_byte_order_mark_changes_nothing(self, tmp_path, request, fixture):
        source = request.getfixturevalue(fixture)
        marked = tmp_path / "marked" / source.name
        marked.parent.mkdir()
        marked.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        plain = run_loop(make_config(tmp_path, workdir=tmp_path / "plain_out"), source)
        result = run_loop(make_config(tmp_path, workdir=tmp_path / "marked_out"), marked)
        assert result.termination is plain.termination is Termination.THRESHOLD_MET
        assert result.final_report == plain.final_report


class RecordingBackend(CompletionBackend):
    """Forwards to an inner backend and records each (schema, prompt) pair."""

    def __init__(self, inner: CompletionBackend):
        self.inner = inner
        self.requests = []  # list.append is atomic across the analyst threads

    def raw_complete(self, prompt, schema_id):
        self.requests.append((schema_id, prompt))
        return self.inner.raw_complete(prompt, schema_id)


class TestTermination:
    def test_constant_payload_runs_to_cap(self, tmp_path, guard_c):
        backend = ConstantPayloadBackend([["1"], ["2"]])
        result = run_loop(make_config(tmp_path), guard_c, backend=backend)
        assert result.termination is Termination.STAGNATED
        assert [r.novel_tests for r in result.iterations] == [2, 0]
        assert sorted(p.name for p in (result.workdir / "prompts").iterdir()) == [
            "iter_0.txt", "iter_1.txt",
        ]
        payload = json.loads((result.workdir / "result.json").read_text())
        assert payload["termination"] == "stagnated"
        assert "stagnated" not in payload

    def test_a_value_that_is_not_utf8_is_dropped(self, tmp_path, guard_c):
        # Valid JSON: a lone surrogate escape decodes, but cannot be encoded.
        backend = ScriptedBackend(['{"test_cases": [["\\ud800"], ["ok"]]}'])
        result = run_loop(make_config(tmp_path, k_max=1), guard_c, backend=backend)
        assert result.termination is Termination.K_MAX_REACHED
        assert result.executed_processes == 1
        assert [tc.values for tc in result.cache.ordered] == [("ok",)]

    def test_no_analysts_after_the_last_iteration(self, tmp_path, guard_c):
        backend = RecordingBackend(ConstantPayloadBackend([["1"], ["2"]]))
        k_max = 2  # the prompt repeats at iteration 2, so 2 still reaches the cap
        result = run_loop(make_config(tmp_path, k_max=k_max), guard_c, backend=backend)
        assert result.termination is Termination.K_MAX_REACHED
        schemas = [schema for schema, _ in backend.requests]
        assert schemas.count(SchemaId.REFINEMENT) == 2 * (k_max - 1)

    def test_iteration_without_tests_reuses_its_report(self, tmp_path, guard_c, monkeypatch):
        collected = []
        collect = harness.collect_raw_coverage
        monkeypatch.setattr(harness, "collect_raw_coverage",
                            lambda target: collected.append(target) or collect(target))
        backend = ConstantPayloadBackend([["1"], ["2"]])
        result = run_loop(make_config(tmp_path, k_max=4), guard_c, backend=backend)
        assert [r.novel_tests for r in result.iterations] == [2, 0]
        assert len(collected) == 1  # after iteration 0 only
        artifacts = [result.workdir / "coverage" / f"iter_{k}.json" for k in range(2)]
        assert len({a.read_text() for a in artifacts}) == 1

    def test_stub_reaches_a_large_constant_through_the_focus_section(self, tmp_path):
        # No boundary value hits 987654321123; the branch analyst quotes it,
        # and the stub substitutes it in the next round.
        source = tmp_path / "unreachable.py"
        source.write_text(
            "x = int(input())\nif x == 987654321123:\n    print('no')\n"
        )
        result = run_loop(make_config(tmp_path, k_max=4), source)
        assert result.termination is Termination.THRESHOLD_MET
        assert [r.novel_tests for r in result.iterations] == [5, 1]

    def test_timeouts_and_failed_tests_are_logged(self, tmp_path, caplog):
        source = tmp_path / "slow.py"
        source.write_text("import sys, time\nif input() == 'hang':\n    time.sleep(30)\n"
                          "sys.exit(3)\n")
        backend = ScriptedBackend(['{"test_cases": [["hang"], ["fail"]]}'])
        config = make_config(tmp_path, k_max=1, per_test_timeout=0.5)
        with caplog.at_level("INFO", logger="covloop.driver"):
            run_loop(config, source, backend=backend)
        messages = [r.getMessage() for r in caplog.records if r.name == "covloop.driver"]
        assert [m for m in messages if m.startswith("iteration 0: test ")] == [
            "iteration 0: test timed out after 0.5s",
            "iteration 0: test exited with 3",
        ]

    def test_trivial_target_exits_first_iteration(self, tmp_path, echo_c):
        result = run_loop(make_config(tmp_path), echo_c)
        assert result.termination is Termination.THRESHOLD_MET
        assert len(result.iterations) == 1

    def test_unsupported_language_propagates(self, tmp_path):
        source = tmp_path / "prog.rs"
        source.write_text("fn main() {}\n")
        with pytest.raises(ContractViolation, match="unsupported extension"):
            run_loop(make_config(tmp_path), source)


class TestNoRepeatedRequests:
    @pytest.mark.parametrize("fixture, make_backend, overrides", [
        ("guard_c", StubBackend, {}),
        ("nested_guards_c", StubBackend, {}),
        ("nested_guards_c", StubBackend, {"branch_feedback_enabled": False}),
        ("guard_c", lambda: ConstantPayloadBackend([["1"], ["2"]]), {}),
        ("nested_guards_c", lambda: ConstantPayloadBackend([["1", "2", "3"]]), {}),
    ], ids=["guard-stub", "nested-stub", "nested-stub-line-only",
            "guard-constant", "nested-constant"])
    def test_no_request_is_sent_twice(
        self, tmp_path, request, fixture, make_backend, overrides
    ):
        backend = RecordingBackend(make_backend())
        source = request.getfixturevalue(fixture)
        run_loop(make_config(tmp_path, **overrides), source, backend=backend)
        # Neither inner backend replies malformed, so no retry resends a prompt.
        assert len(backend.requests) == len(set(backend.requests))


class TestBackendFailure:
    def test_generation_failure_keeps_partial_coverage(self, tmp_path, guard_c):
        class FailsOnSecondGeneration(StubBackend):
            def __init__(self):
                super().__init__()
                self.generations = 0

            def raw_complete(self, prompt, schema_id):
                if schema_id is SchemaId.TEST_CASES:
                    self.generations += 1
                    if self.generations > 1:
                        raise BackendError("model went away")
                return super().raw_complete(prompt, schema_id)

        config = make_config(tmp_path, threshold=99.9)
        result = run_loop(config, guard_c, backend=FailsOnSecondGeneration())
        assert result.termination is Termination.BACKEND_FAILURE
        assert len(result.iterations) == 1
        assert result.final_report.line_coverage > 0

    @pytest.mark.parametrize("fixture, lines", [
        ("guard_c", {3, 4, 5, 6, 7, 9, 11}),
        ("guard_py", {1, 2, 3, 5}),
    ])
    def test_failure_before_any_test_reports_zero_coverage_of_the_source(
            self, tmp_path, request, fixture, lines):
        class FailsAtOnce(StubBackend):
            def raw_complete(self, prompt, schema_id):
                raise BackendError("model went away")

        source = request.getfixturevalue(fixture)
        result = run_loop(make_config(tmp_path), source, backend=FailsAtOnce())
        assert result.termination is Termination.BACKEND_FAILURE
        assert result.iterations == []
        report = result.final_report
        assert (report.executed_lines, report.missing_lines) == (frozenset(), lines)
        assert (report.taken_branches, report.total_branches) == (0, 2)


class TestLoopAccounting:
    def test_executions_equal_cache_size(self, tmp_path, guard_c):
        result = run_loop(make_config(tmp_path), guard_c)
        assert result.executed_processes == len(result.cache)

    def test_coverage_is_monotone(self, tmp_path, nested_guards_c):
        result = run_loop(
            make_config(tmp_path, branch_feedback_enabled=False), nested_guards_c
        )
        lines = [r.report.line_coverage for r in result.iterations]
        branches = [r.report.branch_coverage for r in result.iterations]
        assert lines == sorted(lines)
        assert branches == sorted(branches)
        assert result.iterations[-1].report is result.final_report

    def test_feedback_toggles_change_outcome(self, tmp_path, nested_guards_c):
        dual = run_loop(
            make_config(tmp_path, workdir=tmp_path / "dual"), nested_guards_c
        )
        single = run_loop(
            make_config(
                tmp_path, workdir=tmp_path / "single", branch_feedback_enabled=False
            ),
            nested_guards_c,
        )
        assert dual.final_report.branch_coverage == 100.0
        assert single.final_report.branch_coverage < 100.0


PR_SET_CHILD_SUBREAPER = 36


@pytest.fixture
def subreaper():
    """Make this process, for one test, the parent of every orphan among its
    descendants, so that a process a run leaves behind stays its child."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        pytest.skip("this process already has children")
    except ChildProcessError:
        pass
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip(f"prctl: {os.strerror(ctypes.get_errno())}")
    try:
        yield
    finally:
        prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
        # Reap what a failing run left behind, so the next test starts clean.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                if os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG) is None:
                    time.sleep(0.05)
            except ChildProcessError:
                break


class FailingFeedbackBackend(CompletionBackend):
    """Generates with the stub, then raises `error` from the first analyst."""

    def __init__(self, error: Exception):
        self.error = error
        self._stub = StubBackend()

    def raw_complete(self, prompt, schema_id):
        if schema_id is SchemaId.REFINEMENT:
            raise self.error
        return self._stub.raw_complete(prompt, schema_id)


# Each way a run can end: a termination, or an exception that propagates.
EVERY_ENDING = pytest.mark.parametrize("make_backend, ending", [
    (StubBackend, Termination.THRESHOLD_MET),
    (lambda: ConstantPayloadBackend([["1"], ["2"]]), Termination.STAGNATED),
    (lambda: FailingFeedbackBackend(TransportError("down")), Termination.BACKEND_FAILURE),
    (lambda: FailingFeedbackBackend(RuntimeError("boom")), RuntimeError),
], ids=["threshold_met", "stagnated", "backend_failure", "backend_exception"])


class TestNoProcessOutlivesTheRun:
    """Each way a run ends stops the target's test server and its idle child."""

    @pytest.mark.parametrize("fixture", ["guard_c", "guard_py"])
    @EVERY_ENDING
    def test_every_ending_reaps_the_server(self, tmp_path, request, monkeypatch, subreaper,
                                           fixture, make_backend, ending):
        tests = []
        run_test = harness.run_test
        monkeypatch.setattr(harness, "run_test",
                            lambda *args: tests.append(args) or run_test(*args))
        source = request.getfixturevalue(fixture)
        if isinstance(ending, Termination):
            result = run_loop(make_config(tmp_path), source, backend=make_backend())
            assert result.termination is ending
        else:
            with pytest.raises(ending):
                run_loop(make_config(tmp_path), source, backend=make_backend())
        assert tests  # a server was started
        with pytest.raises(ChildProcessError):  # no child, running or exited
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)

    @pytest.mark.parametrize("fixture", ["guard_c", "guard_py"])
    @EVERY_ENDING
    def test_every_ending_closes_its_descriptors(self, tmp_path, request, fixture,
                                                 make_backend, ending):
        source = request.getfixturevalue(fixture)
        before = sorted(os.listdir("/proc/self/fd"))
        if isinstance(ending, Termination):
            run_loop(make_config(tmp_path), source, backend=make_backend())
        else:
            with pytest.raises(ending):
                run_loop(make_config(tmp_path), source, backend=make_backend())
        assert sorted(os.listdir("/proc/self/fd")) == before


# Sixteen guards on two inputs: the analysts quote sixteen constants, and the
# stub's focus product proposes 200 cases in one iteration.
WIDE_C = (
    "#include <stdio.h>\n\nint main(void) {\n    int a = 0, b = 0;\n"
    '    scanf("%d %d", &a, &b);\n'
    + "".join(f'    if (a == {c}) printf("a{c}\\n");\n' for c in (3, 8, 14, 19, 27, 31, 46, 52))
    + "".join(f'    if (b == {c}) printf("b{c}\\n");\n' for c in (67, 73, 88, 94, 101, 117, 125, 139))
    + "    return 0;\n}\n"
)


@pytest.fixture
def wide_c(tmp_path):
    path = tmp_path / "wide.c"
    path.write_text(WIDE_C)
    return path


@pytest.fixture
def slow_writes(monkeypatch):
    """Delay each write of test cases, the writes made on the writer thread,
    by longer than running those cases takes, so a run that returned without
    waiting for them would be seen with files missing or threads alive. Only
    these are delayed: a delay on the loop's own thread would give the writer
    time to finish and hide a missing wait."""
    persist_novel = TestSuiteCache.persist_novel

    def slow(cases, directory, first_index):
        time.sleep(0.02 + 0.002 * len(cases))
        return persist_novel(cases, directory, first_index)

    monkeypatch.setattr(TestSuiteCache, "persist_novel", slow)


class SerialPool:
    """Stands in for `driver.ThreadPoolExecutor`: runs each call on the
    loop's own thread when it is submitted, and returns its completed Future."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def submit(self, call, *args, **kwargs):
        future = Future()
        try:
            future.set_result(call(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class BarrierBackend(CompletionBackend):
    """Generates with the stub; each analyst waits for the other before it
    answers, so a run only gets through when both run at once."""

    def __init__(self):
        self._stub = StubBackend()
        self._both_analysts = threading.Barrier(2, timeout=5)
        self.refinements = []  # list.append is atomic across the analyst threads

    def raw_complete(self, prompt, schema_id):
        if schema_id is SchemaId.REFINEMENT:
            self._both_analysts.wait()
            self.refinements.append(prompt)
        return self._stub.raw_complete(prompt, schema_id)


class TestAnalystsOnTheRunsPool:
    def test_both_analysts_run_at_once(self, tmp_path, guard_c):
        backend = BarrierBackend()
        result = run_loop(make_config(tmp_path), guard_c, backend=backend)
        assert result.termination is Termination.THRESHOLD_MET
        assert len(backend.refinements) == 2  # iteration 0 has both gaps

    # The analysts take a gap set as given, so the loop must not ask one
    # about a kind of gap the report has none of.
    @pytest.mark.parametrize("missing_lines, missing_branches", [
        ({3}, ()), (frozenset(), (BranchGap(2, 0),)), (frozenset(), ()),
    ], ids=["lines-only", "branches-only", "neither"])
    def test_an_analyst_is_asked_only_about_gaps_there_are(
        self, tmp_path, missing_lines, missing_branches
    ):
        report = CoverageReport(
            executed_lines=frozenset({1, 2}), missing_lines=frozenset(missing_lines),
            total_branches=2, missing_branches=missing_branches,
        )
        backend = RecordingBackend(StubBackend())
        line_fb, branch_fb = driver._gather_feedback(
            SerialPool(), make_config(tmp_path), backend, "a\nb\nc\n", report, "p"
        )
        assert (line_fb is not None, branch_fb is not None) == (
            bool(missing_lines), bool(missing_branches))
        assert len(backend.requests) == bool(missing_lines) + bool(missing_branches)


class FileCountingBackend(RecordingBackend):
    """Also records each request's schema with how many files a directory
    holds at that request."""

    def __init__(self, inner: CompletionBackend, directory):
        super().__init__(inner)
        self.directory = directory
        self.files = []

    def raw_complete(self, prompt, schema_id):
        self.files.append((schema_id, len(os.listdir(self.directory))))
        return super().raw_complete(prompt, schema_id)


def written_files(workdir):
    return {
        str(path.relative_to(workdir)): path.read_bytes()
        for name in ("TestCases", "prompts", "coverage")
        for path in sorted((workdir / name).iterdir())
    }


class TestBackgroundWrites:
    @pytest.mark.parametrize("fixture", ["guard_c", "guard_py", "wide_c"])
    def test_files_equal_a_serial_run(self, tmp_path, request, monkeypatch, fixture):
        source = request.getfixturevalue(fixture)
        with monkeypatch.context() as serial:
            serial.setattr(driver, "ThreadPoolExecutor", SerialPool)
            reference = run_loop(make_config(tmp_path, workdir=tmp_path / "serial"), source)
        request.getfixturevalue("slow_writes")
        result = run_loop(make_config(tmp_path, workdir=tmp_path / "background"), source)
        expected = written_files(reference.workdir)
        assert written_files(result.workdir) == expected
        assert sum(name.startswith("TestCases") for name in expected) == len(result.cache)
        if fixture == "wide_c":
            assert max(r.novel_tests for r in result.iterations) == 200

    @pytest.mark.parametrize("fixture", ["guard_c", "wide_c"])
    def test_each_request_follows_every_write_before_it(
            self, tmp_path, request, slow_writes, fixture):
        config = make_config(tmp_path)
        backend = FileCountingBackend(StubBackend(), config.workdir / "TestCases")
        result = run_loop(config, request.getfixturevalue(fixture), backend=backend)
        novel = [r.novel_tests for r in result.iterations]
        # A generation request follows the writes of the iterations before
        # it; the analysts' requests follow their own iteration's write too.
        written, expected = [], []
        for schema, _ in backend.files:
            if schema is SchemaId.TEST_CASES:
                written.append(novel[len(written)])
                expected.append((schema, sum(written[:-1])))
            else:
                expected.append((schema, sum(written)))
        assert written == novel
        assert SchemaId.REFINEMENT in {schema for schema, _ in expected}
        assert backend.files == expected

    @pytest.mark.parametrize("entry, requests", [
        ("prompts", []),
        ("TestCases", [SchemaId.TEST_CASES]),
        ("coverage", [SchemaId.TEST_CASES]),
    ])
    def test_failed_write_ends_the_run_before_the_next_request(
            self, tmp_path, guard_c, monkeypatch, slow_writes, entry, requests):
        prepare_target = harness.prepare_target

        def prepare_with_a_file_in_place_of(*args):
            target = prepare_target(*args)
            (target.workdir / entry).rmdir()
            (target.workdir / entry).write_text("")
            return target

        monkeypatch.setattr(harness, "prepare_target", prepare_with_a_file_in_place_of)
        backend = RecordingBackend(StubBackend())
        with pytest.raises(NotADirectoryError, match=entry):
            run_loop(make_config(tmp_path), guard_c, backend=backend)
        # Iteration 0 needs feedback, so a run that went on would send more.
        assert [schema for schema, _ in backend.requests] == requests

    def test_an_error_of_the_loop_wins_over_a_write_error(
            self, tmp_path, guard_c, monkeypatch, slow_writes):
        persist_novel = TestSuiteCache.persist_novel

        def fail_to_persist(*args):
            persist_novel(*args)
            raise OSError("write failed")

        def fail_to_collect(target):
            raise RuntimeError("collection failed")

        # The test cases' write is still pending when collection raises.
        monkeypatch.setattr(TestSuiteCache, "persist_novel", fail_to_persist)
        monkeypatch.setattr(harness, "collect_raw_coverage", fail_to_collect)
        with pytest.raises(RuntimeError, match="collection failed"):
            run_loop(make_config(tmp_path), guard_c)

    @EVERY_ENDING
    def test_no_thread_outlives_the_run(self, tmp_path, guard_c, slow_writes,
                                        make_backend, ending):
        before = set(threading.enumerate())
        if isinstance(ending, Termination):
            result = run_loop(make_config(tmp_path), guard_c, backend=make_backend())
            assert result.termination is ending
        else:
            with pytest.raises(ending):
                run_loop(make_config(tmp_path), guard_c, backend=make_backend())
        assert set(threading.enumerate()) <= before
