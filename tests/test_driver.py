"""End-to-end loop driver tests against the offline backends."""

import ctypes
import json
import os
import time

import pytest

from conftest import ConstantPayloadBackend, make_config
from covloop import harness
from covloop.backends import CompletionBackend, SchemaId, StubBackend
from covloop.driver import run_loop
from covloop.errors import MalformedResponse, TransportError, UnsupportedLanguage
from covloop.model import Termination


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


class RecordingBackend(CompletionBackend):
    """Forwards to an inner backend and records each (schema, prompt) pair."""

    def __init__(self, inner: CompletionBackend):
        self.model_id = inner.model_id
        self.max_retries = inner.max_retries
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
        assert len(collected) == 2  # before the loop, and after iteration 0
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

    def test_trivial_target_exits_first_iteration(self, tmp_path, echo_c):
        result = run_loop(make_config(tmp_path), echo_c)
        assert result.termination is Termination.THRESHOLD_MET
        assert len(result.iterations) == 1
        assert result.iterations[0].k == 0

    def test_unsupported_language_propagates(self, tmp_path):
        source = tmp_path / "prog.rs"
        source.write_text("fn main() {}\n")
        with pytest.raises(UnsupportedLanguage):
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
                        raise MalformedResponse("model went away", attempts=3)
                return super().raw_complete(prompt, schema_id)

        config = make_config(tmp_path, threshold=99.9)
        result = run_loop(config, guard_c, backend=FailsOnSecondGeneration())
        assert result.termination is Termination.BACKEND_FAILURE
        assert len(result.iterations) == 1
        assert result.final_report.line_coverage > 0


class TestLoopAccounting:
    def test_executions_equal_cache_size(self, tmp_path, guard_c):
        result = run_loop(make_config(tmp_path), guard_c)
        assert result.executed_processes == len(result.cache)

    def test_coverage_is_monotone(self, tmp_path, nested_guards_c):
        result = run_loop(
            make_config(tmp_path, branch_feedback_enabled=False), nested_guards_c
        )
        lines = [r.line_coverage for r in result.iterations]
        branches = [r.branch_coverage for r in result.iterations]
        assert lines == sorted(lines)
        assert branches == sorted(branches)

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
        self.model_id = "failing"
        self.max_retries = 3
        self.error = error
        self._stub = StubBackend()

    def raw_complete(self, prompt, schema_id):
        if schema_id is SchemaId.REFINEMENT:
            raise self.error
        return self._stub.raw_complete(prompt, schema_id)


class TestNoProcessOutlivesTheRun:
    """Each way a run ends stops the target's test server and its idle child."""

    @pytest.mark.parametrize("fixture", ["guard_c", "guard_py"])
    @pytest.mark.parametrize("make_backend, ending", [
        (StubBackend, Termination.THRESHOLD_MET),
        (lambda: ConstantPayloadBackend([["1"], ["2"]]), Termination.STAGNATED),
        (lambda: FailingFeedbackBackend(TransportError("down")), Termination.BACKEND_FAILURE),
        (lambda: FailingFeedbackBackend(RuntimeError("boom")), RuntimeError),
    ], ids=["threshold_met", "stagnated", "backend_failure", "backend_exception"])
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
