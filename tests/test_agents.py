"""Tests for the agent layer: validation, retry, generation, feedback, HTTP."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedBackend
from covloop.agents import (
    AgentResponse,
    _validate,
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
    TestCase,
)
from covloop.prompts import build_baseline_prompt

SIG_1 = InputSignature(1, (InputKind.INTEGER,))
SIG_2 = InputSignature(2, (InputKind.INTEGER, InputKind.STRING))


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


REFINEMENT_OK = {
    "gap_explanation": "g",
    "input_patterns": ["p"],
    "prompt_refinements": ["r"],
}


def _without(key):
    return {k: v for k, v in REFINEMENT_OK.items() if k != key}


class TestReplyContract:
    """Which replies `complete` accepts: every rejection ends in MalformedResponse."""

    @pytest.mark.parametrize("cases", [
        [[True]], [[None]], [[["1"]]], [[{"a": 1}]], ["1"], "x",
    ])
    def test_bad_test_cases_rejected(self, cases):
        backend = ScriptedBackend([json.dumps({"test_cases": cases})])
        with pytest.raises(MalformedResponse):
            complete(backend, "p", SchemaId.TEST_CASES)

    @pytest.mark.parametrize("payload", [
        _without("gap_explanation"),
        _without("input_patterns"),
        _without("prompt_refinements"),
        {**REFINEMENT_OK, "gap_explanation": 1},
        {**REFINEMENT_OK, "input_patterns": ["p", 2]},
        {**REFINEMENT_OK, "prompt_refinements": ["r", None]},
    ])
    def test_bad_refinement_rejected(self, payload):
        backend = ScriptedBackend([json.dumps(payload)])
        with pytest.raises(MalformedResponse):
            complete(backend, "p", SchemaId.REFINEMENT)

    def test_extra_top_level_keys_ignored(self):
        cases = ScriptedBackend(['{"test_cases": [["1"]], "note": "hi"}'])
        assert complete(cases, "p", SchemaId.TEST_CASES).parsed == {
            "test_cases": [["1"]]
        }
        refinement = ScriptedBackend([json.dumps({**REFINEMENT_OK, "note": 1})])
        parsed = complete(refinement, "p", SchemaId.REFINEMENT).parsed
        assert {k: parsed[k] for k in REFINEMENT_OK} == REFINEMENT_OK


# Reference for the differential test: `_validate` must accept exactly the
# replies these Draft 2020-12 schemas accept.
REFERENCE_SCHEMAS = {
    SchemaId.TEST_CASES: {
        "type": "object",
        "required": ["test_cases"],
        "properties": {
            "test_cases": {
                "type": "array",
                "items": {"type": "array", "items": {"type": ["string", "number"]}},
            }
        },
    },
    SchemaId.REFINEMENT: {
        "type": "object",
        "required": ["gap_explanation", "input_patterns", "prompt_refinements"],
        "properties": {
            "gap_explanation": {"type": "string"},
            "input_patterns": {"type": "array", "items": {"type": "string"}},
            "prompt_refinements": {
                "type": "array", "items": {"type": "string"}, "minItems": 1,
            },
        },
    },
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_field_values = st.one_of(
    _json_values,
    st.lists(st.lists(_json_values, max_size=3), max_size=3),
    st.lists(st.text(max_size=3), max_size=3),
)
_payloads = st.dictionaries(
    st.sampled_from([
        "test_cases", "gap_explanation", "input_patterns", "prompt_refinements", "x",
    ]),
    _field_values,
)


def _reference_render(v):
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def test_validate_matches_reference_schemas():
    jsonschema = pytest.importorskip("jsonschema")
    validators = {
        schema_id: jsonschema.Draft202012Validator(schema)
        for schema_id, schema in REFERENCE_SCHEMAS.items()
    }

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(list(SchemaId)), _payloads)
    def check(schema_id, payload):
        accepted = validators[schema_id].is_valid(payload)
        try:
            checked = _validate(schema_id, payload)
        except ValueError:
            assert not accepted
            return
        assert accepted
        if schema_id is SchemaId.TEST_CASES:
            assert checked == {"test_cases": [
                [v if isinstance(v, str) else _reference_render(v) for v in case]
                for case in payload["test_cases"]
            ]}
        else:
            assert checked == payload

    check()


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
        return AgentResponse({"test_cases": cases}, attempts=1)

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
            parse_and_filter(AgentResponse(None, 1), TestSuiteCache())


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


class _Elsewhere(_Endpoint):
    """A second host, the target of redirects; keeps its own script and log."""

    script = [(200, {}, json.dumps({"text": '{"test_cases": []}'}))]
    seen = []

    def do_GET(self):
        self.do_POST()


def _serve(handler):
    handler.seen = []
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/complete"
    server.shutdown()
    server.server_close()


@pytest.fixture
def endpoint(monkeypatch):
    monkeypatch.setenv("COVLOOP_API_KEY", "sekrit")
    _Endpoint.script = []
    yield from _serve(_Endpoint)


@pytest.fixture
def elsewhere():
    yield from _serve(_Elsewhere)


REPLY = '{"test_cases": [["7"]]}'


class TestHttpBackend:
    def test_requires_credential(self, monkeypatch):
        monkeypatch.delenv("COVLOOP_API_KEY", raising=False)
        with pytest.raises(ContractViolation):
            HttpBackend("http://example.invalid", "m")

    @pytest.mark.parametrize("url", ["file:///etc/hostname", "ftp://h/x", "127.0.0.1:9/x"])
    def test_only_http_endpoints(self, monkeypatch, url):
        monkeypatch.setenv("COVLOOP_API_KEY", "k")
        with pytest.raises(ContractViolation):
            HttpBackend(url, "m")

    def test_posts_model_and_prompt(self, endpoint):
        _Endpoint.script = [(200, {}, json.dumps({"text": '{"test_cases": []}'}))]
        backend = HttpBackend(endpoint, "my-model")
        response = complete(backend, "the prompt", SchemaId.TEST_CASES)
        assert response.parsed == {"test_cases": []}
        assert _Endpoint.seen[0]["auth"] == "Bearer sekrit"
        assert _Endpoint.seen[0]["content_type"] == "application/json"
        assert _Endpoint.seen[0]["body"] == {"model": "my-model",
                                             "prompt": "the prompt"}

    @pytest.mark.parametrize("body", [
        json.dumps(REPLY),
        json.dumps({"text": REPLY}),
        json.dumps({"choices": [{"message": {"content": REPLY}}]}),
        json.dumps({"choices": [{"text": REPLY}]}),
        json.dumps({"candidates": [{"content": {"parts": [{"text": REPLY}]}}]}),
        "Here you go: " + REPLY,
    ], ids=["string", "text", "chat", "completion", "candidates", "not-json"])
    def test_reply_shapes_extracted(self, endpoint, body):
        _Endpoint.script = [(200, {}, body)]
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
        with pytest.raises(TransportError, match="HTTP 500: boom"):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, endpoint, elsewhere, status):
        _Endpoint.script = [(status, {"Location": elsewhere}, "moved")]
        with pytest.raises(TransportError, match=f"HTTP {status} .*{elsewhere}"):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert len(_Endpoint.seen) == 1
        assert _Elsewhere.seen == []

    @pytest.mark.parametrize("script", [
        (None, {}, "garbage\r\n\r\n"),
        (200, {"Content-Length": "100"}, "short"),
    ], ids=["bad-status-line", "truncated-body"])
    def test_broken_reply_is_transport_error(self, endpoint, script):
        _Endpoint.script = [script]
        with pytest.raises(TransportError):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)

    def test_unreachable_endpoint_is_transport_error(self, monkeypatch):
        monkeypatch.setenv("COVLOOP_API_KEY", "k")
        backend = HttpBackend("http://127.0.0.1:9/unreachable", "m", timeout=0.5)
        with pytest.raises(TransportError):
            complete(backend, "p", SchemaId.TEST_CASES)
