"""Tests for the agent layer: validation, retry, generation, feedback, HTTP."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import ScriptedBackend
from covloop.agents import (
    AgentResponse,
    branch_feedback,
    complete,
    extract_json_object,
    line_feedback,
    parse_and_filter,
)
from covloop.backends import HttpBackend, SchemaId, StubBackend
from covloop.cache import TestSuiteCache, canonical_key
from covloop.errors import ContractViolation, MalformedResponse, TransportError
from covloop.model import (
    BranchGap,
    FeedbackOrigin,
    InputKind,
    InputSignature,
    Language,
    TestCase,
)
from covloop.prompts import build_baseline_prompt

SIG_1 = InputSignature(1, (InputKind.INTEGER,), Language.C)
SIG_2 = InputSignature(2, (InputKind.INTEGER, InputKind.STRING), Language.C)


class TestExtractJsonObject:
    def test_plain(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_fenced(self):
        text = 'Sure thing:\n```json\n{"test_cases": [["1"]]}\n```\nDone.'
        assert extract_json_object(text) == {"test_cases": [["1"]]}

    def test_braces_inside_strings(self):
        text = 'noise {"a": "b}{", "c": 2} trailing'
        assert extract_json_object(text) == {"a": "b}{", "c": 2}

    def test_no_object_raises(self):
        with pytest.raises(ValueError):
            extract_json_object("no json here")


class TestComplete:
    def test_stub_validates_first_try(self):
        prompt = build_baseline_prompt(SIG_1, "").render()
        response = complete(StubBackend(), prompt, SchemaId.TEST_CASES)
        assert response.attempts == 1
        assert "test_cases" in response.parsed

    def test_malformed_forever_exhausts_retries(self):
        backend = ScriptedBackend(['{"wrong": []}'], max_retries=3)
        with pytest.raises(MalformedResponse) as exc:
            complete(backend, "p", SchemaId.TEST_CASES)
        assert exc.value.attempts == 3
        assert backend.calls == 3

    def test_recovers_on_second_attempt(self):
        backend = ScriptedBackend(["garbage", '{"test_cases": [["1"]]}'])
        response = complete(backend, "p", SchemaId.TEST_CASES)
        assert response.attempts == 2
        assert response.parsed == {"test_cases": [["1"]]}

    def test_retry_prompt_carries_parse_error(self):
        prompts = []

        class Recording(ScriptedBackend):
            def raw_complete(self, prompt, schema_id):
                prompts.append(prompt)
                return super().raw_complete(prompt, schema_id)

        backend = Recording(["nonsense", '{"test_cases": []}'])
        complete(backend, "base prompt", SchemaId.TEST_CASES)
        assert "base prompt" in prompts[1]
        assert "previous reply was not valid" in prompts[1]

    def test_numbers_coerced_to_strings(self):
        backend = ScriptedBackend(['{"test_cases": [[1, 2.5, "x"]]}'])
        response = complete(backend, "p", SchemaId.TEST_CASES)
        assert response.parsed == {"test_cases": [["1", "2.5", "x"]]}

    def test_refinement_requires_nonempty_proposals(self):
        payload = json.dumps(
            {"gap_explanation": "g", "input_patterns": [], "prompt_refinements": []}
        )
        with pytest.raises(MalformedResponse):
            complete(ScriptedBackend([payload]), "p", SchemaId.REFINEMENT)


class TestGenerateTests:
    """The driver's generation path: complete, then parse_and_filter."""

    def generate(self, backend, sig=SIG_2):
        prompt = build_baseline_prompt(sig, "").render()
        response = complete(backend, prompt, SchemaId.TEST_CASES)
        return parse_and_filter(response, TestSuiteCache(), sig.count)

    def test_maps_inner_lists(self):
        backend = ScriptedBackend(['{"test_cases": [["1", "a"], ["-5", "z"]]}'])
        assert self.generate(backend) == [TestCase(("1", "a")), TestCase(("-5", "z"))]

    def test_empty_payload(self):
        assert self.generate(ScriptedBackend(['{"test_cases": []}'])) == []

    def test_arity_mismatch_dropped(self, caplog):
        backend = ScriptedBackend(['{"test_cases": [["1"]]}'])
        with caplog.at_level("WARNING"):
            cases = self.generate(backend)
        assert cases == []
        assert any("dropping case" in r.message for r in caplog.records)

    def test_stub_respects_signature_arity(self):
        cases = self.generate(StubBackend())
        assert cases
        assert all(len(tc.values) == 2 for tc in cases)


class TestParseAndFilter:
    def response(self, cases):
        return AgentResponse("", {"test_cases": cases}, attempts=1)

    def test_filters_cached(self):
        cache = TestSuiteCache()
        cache.insert_if_novel(TestCase(("1",)))
        fresh = parse_and_filter(self.response([["1"], ["2"]]), cache)
        assert fresh == [TestCase(("2",))]

    def test_all_cached_gives_empty(self):
        cache = TestSuiteCache()
        cache.insert_if_novel(TestCase(("1",)))
        assert parse_and_filter(self.response([["1"], [" 1 "]]), cache) == []

    def test_in_payload_duplicates_collapse(self):
        fresh = parse_and_filter(
            self.response([["3"], ["3"], ["4"]]), TestSuiteCache()
        )
        assert fresh == [TestCase(("3",)), TestCase(("4",))]

    def test_never_intersects_cache(self):
        cache = TestSuiteCache()
        for i in range(10):
            cache.insert_if_novel(TestCase((str(i),)))
        fresh = parse_and_filter(
            self.response([[str(i)] for i in range(20)]), cache
        )
        assert all(canonical_key(tc) not in cache for tc in fresh)

    def test_unvalidated_response_rejected(self):
        with pytest.raises(ContractViolation):
            parse_and_filter(AgentResponse("", None, 1), TestSuiteCache())


NEGATIVE_GUARD_PY = """\
n = int(input())
if n < 0:
    print("below")
else:
    print("at or above")
"""


class TestFeedbackAgents:
    def test_line_feedback_mentions_negative_value(self):
        refinement = line_feedback(
            StubBackend(), NEGATIVE_GUARD_PY, {3}, "current prompt"
        )
        assert refinement.origin is FeedbackOrigin.LINE
        assert any("-1" in r for r in refinement.prompt_refinements)

    def test_line_feedback_requires_gaps(self):
        with pytest.raises(ContractViolation):
            line_feedback(StubBackend(), "src", set(), "p")

    def test_branch_feedback_echoes_comparison_constant(self):
        source = 'if (x == 42) {\n    printf("hit");\n}\n'
        refinement = branch_feedback(
            StubBackend(), source, [BranchGap(line=1, branch_id=0)], "p"
        )
        assert refinement.origin is FeedbackOrigin.BRANCH
        assert any("42" in r for r in refinement.prompt_refinements)

    def test_branch_feedback_requires_gaps(self):
        with pytest.raises(ContractViolation):
            branch_feedback(StubBackend(), "src", [], "p")

    def test_multiple_gaps_still_propose_something(self):
        gaps = [BranchGap(line=n, branch_id=0) for n in (1, 2, 3)]
        refinement = branch_feedback(StubBackend(), "a\nb\nc\n", gaps, "p")
        assert len(refinement.prompt_refinements) >= 1

    def test_stub_is_pure_per_prompt(self):
        backend = StubBackend()
        prompt = build_baseline_prompt(SIG_1, "").render()
        first = backend.raw_complete(prompt, SchemaId.TEST_CASES)
        second = backend.raw_complete(prompt, SchemaId.TEST_CASES)
        assert first == second


class _Endpoint(BaseHTTPRequestHandler):
    script = []  # list of (status, headers, body) tuples consumed in order
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).seen.append(
            {"auth": self.headers.get("Authorization"), "body": body}
        )
        status, headers, payload = self.script[min(len(self.seen) - 1,
                                                   len(self.script) - 1)]
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint(monkeypatch):
    monkeypatch.setenv("COVLOOP_API_KEY", "sekrit")
    _Endpoint.script = []
    _Endpoint.seen = []
    server = HTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/complete"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_requires_credential(self, monkeypatch):
        monkeypatch.delenv("COVLOOP_API_KEY", raising=False)
        with pytest.raises(ContractViolation):
            HttpBackend("http://example.invalid", "m")

    def test_posts_model_and_prompt(self, endpoint):
        _Endpoint.script = [(200, {}, json.dumps({"text": '{"test_cases": []}'}))]
        backend = HttpBackend(endpoint, "my-model")
        response = complete(backend, "the prompt", SchemaId.TEST_CASES)
        assert response.parsed == {"test_cases": []}
        assert _Endpoint.seen[0]["auth"] == "Bearer sekrit"
        assert _Endpoint.seen[0]["body"] == {"model": "my-model",
                                             "prompt": "the prompt"}

    def test_chat_shape_extracted(self, endpoint):
        reply = {"choices": [{"message": {"content": '{"test_cases": [["7"]]}'}}]}
        _Endpoint.script = [(200, {}, json.dumps(reply))]
        response = complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert response.parsed == {"test_cases": [["7"]]}

    def test_rate_limit_retried(self, endpoint):
        _Endpoint.script = [
            (429, {"Retry-After": "0"}, "slow down"),
            (200, {}, json.dumps({"text": '{"test_cases": []}'})),
        ]
        response = complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert response.attempts == 2
        assert response.parsed == {"test_cases": []}

    def test_server_error_is_transport_error(self, endpoint):
        _Endpoint.script = [(500, {}, "boom")]
        with pytest.raises(TransportError):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)

    def test_unreachable_endpoint_is_transport_error(self, monkeypatch):
        monkeypatch.setenv("COVLOOP_API_KEY", "k")
        backend = HttpBackend("http://127.0.0.1:9/unreachable", "m", timeout=0.5)
        with pytest.raises(TransportError):
            complete(backend, "p", SchemaId.TEST_CASES)
