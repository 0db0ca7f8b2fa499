"""Tests for the agent layer: validation, retry, generation, feedback, HTTP."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedBackend, ScriptedEndpoint, serve
from covloop.agents import (
    AgentResponse,
    _validate,
    branch_feedback,
    complete,
    extract_json_object,
    line_feedback,
    parse_and_filter,
)
from covloop.backends import (
    _BATCH_SIZE,
    CompletionBackend,
    HttpBackend,
    SchemaId,
    StubBackend,
    _extract_completion_text,
)
from covloop.cache import TestSuiteCache
from covloop.errors import BackendError, ContractViolation, TransportError
from covloop.model import (
    BranchGap,
    FeedbackRefinement,
    InputKind,
    TestCase,
)
from covloop.prompts import (
    MISSING_BRANCHES_ANCHOR,
    MISSING_LINES_ANCHOR,
    build_baseline_prompt,
    merge_refinements,
)

SIG_1 = (InputKind.INTEGER,)
SIG_2 = (InputKind.INTEGER, InputKind.STRING)


class TestExtractJsonObject:
    def test_plain(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_fenced(self):
        text = 'Sure thing:\n```json\n{"test_cases": [["1"]]}\n```\nDone.'
        assert extract_json_object(text) == {"test_cases": [["1"]]}

    def test_braces_inside_strings(self):
        text = 'noise {"a": "b}{", "c": 2} trailing'
        assert extract_json_object(text) == {"a": "b}{", "c": 2}

    def test_brace_that_starts_no_json_is_skipped(self):
        text = 'for {x in xs} here: {"test_cases": [["1"]]}'
        assert extract_json_object(text) == {"test_cases": [["1"]]}

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
        backend = ScriptedBackend(['{"wrong": []}'])
        with pytest.raises(BackendError, match="after 3 attempts"):
            complete(backend, "p", SchemaId.TEST_CASES)
        assert backend.calls == 3

    def test_numbers_become_strings_and_whole_floats_integers(self):
        backend = ScriptedBackend(['{"test_cases": [[3.0], [2.5], [4]]}'])
        response = complete(backend, "p", SchemaId.TEST_CASES)
        assert response.parsed == {"test_cases": [["3"], ["2.5"], ["4"]]}

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
            {"gap_explanation": "g", "prompt_refinements": []}
        )
        with pytest.raises(BackendError, match="after 3 attempts"):
            complete(ScriptedBackend([payload]), "p", SchemaId.REFINEMENT)


REFINEMENT_OK = {
    "gap_explanation": "g",
    "prompt_refinements": ["r"],
}


def _without(key):
    return {k: v for k, v in REFINEMENT_OK.items() if k != key}


class TestReplyContract:
    """Which replies `complete` accepts: every rejection ends in a BackendError."""

    @pytest.mark.parametrize("cases", [
        [[True]], [[None]], [[["1"]]], [[{"a": 1}]], ["1"], "x",
    ])
    def test_bad_test_cases_rejected(self, cases):
        backend = ScriptedBackend([json.dumps({"test_cases": cases})])
        with pytest.raises(BackendError, match="after 3 attempts"):
            complete(backend, "p", SchemaId.TEST_CASES)

    @pytest.mark.parametrize("payload", [
        _without("gap_explanation"),
        _without("prompt_refinements"),
        {**REFINEMENT_OK, "gap_explanation": 1},
        {**REFINEMENT_OK, "prompt_refinements": ["r", None]},
        {**REFINEMENT_OK, "prompt_refinements": "r"},
        {**REFINEMENT_OK, "gap_explanation": None},
    ])
    def test_bad_refinement_rejected(self, payload):
        backend = ScriptedBackend([json.dumps(payload)])
        with pytest.raises(BackendError, match="after 3 attempts"):
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
        "required": ["gap_explanation", "prompt_refinements"],
        "properties": {
            "gap_explanation": {"type": "string"},
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
        "test_cases", "gap_explanation", "prompt_refinements", "x",
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
        return parse_and_filter(response, TestSuiteCache(), len(sig))

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


class TestStubBackend:
    """The stub's generation replies to the prompts the loop renders."""

    def cases(self, sig, focus=None):
        bundle = build_baseline_prompt(sig, "")
        if focus is not None:
            bundle = merge_refinements(bundle, FeedbackRefinement("gap", (focus,)))
        reply = StubBackend().raw_complete(bundle.render(), SchemaId.TEST_CASES)
        return json.loads(reply)["test_cases"]

    def test_a_target_without_inputs_gets_one_empty_case(self):
        assert self.cases(()) == [[]]

    def test_a_slot_without_a_focus_constant_gets_its_fill_value(self):
        cases = self.cases(SIG_2, "try integer input 7")
        assert cases[_BATCH_SIZE:] == [["7", "a"]]

    def test_a_focus_without_constants_adds_no_case(self):
        baseline = self.cases(SIG_2)
        assert len(baseline) == _BATCH_SIZE
        assert self.cases(SIG_2, "increase value diversity") == baseline


class TestParseAndFilter:
    def response(self, cases):
        return AgentResponse({"test_cases": cases}, attempts=1)

    def test_filters_cached(self):
        cache = TestSuiteCache()
        cache.insert_if_novel(TestCase(("1",)))
        fresh = parse_and_filter(self.response([["1"], ["2"]]), cache, 1)
        assert fresh == [TestCase(("2",))]

    def test_all_cached_gives_empty(self):
        cache = TestSuiteCache()
        cache.insert_if_novel(TestCase(("1",)))
        assert parse_and_filter(self.response([["1"], [" 1 "]]), cache, 1) == []

    def test_in_payload_duplicates_collapse(self):
        fresh = parse_and_filter(
            self.response([["3"], ["3"], ["4"]]), TestSuiteCache(), 1
        )
        assert fresh == [TestCase(("3",)), TestCase(("4",))]

    def test_never_intersects_cache(self):
        cache = TestSuiteCache()
        for i in range(10):
            cache.insert_if_novel(TestCase((str(i),)))
        fresh = parse_and_filter(
            self.response([[str(i)] for i in range(20)]), cache, 1
        )
        assert fresh == [TestCase((str(i),)) for i in range(10, 20)]
        assert len(cache) == 20

    def test_a_case_of_the_wrong_arity_is_not_cached(self):
        cache = TestSuiteCache()
        fresh = parse_and_filter(self.response([["1"], ["2", "x"]]), cache, 2)
        assert fresh == [TestCase(("2", "x"))]
        assert len(cache) == 1


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
        assert any("-1" in r for r in refinement.prompt_refinements)

    def test_branch_feedback_echoes_comparison_constant(self):
        source = 'if (x == 42) {\n    printf("hit");\n}\n'
        refinement = branch_feedback(
            StubBackend(), source, (BranchGap(line=1, branch_id=0),), "p"
        )
        assert any("42" in r for r in refinement.prompt_refinements)

    def test_multiple_gaps_still_propose_something(self):
        gaps = tuple(BranchGap(line=n, branch_id=0) for n in (1, 2, 3))
        refinement = branch_feedback(StubBackend(), "a\nb\nc\n", gaps, "p")
        assert len(refinement.prompt_refinements) >= 1

    def test_line_feedback_lists_the_lines_in_numeric_order(self):
        backend = PromptRecorder()
        line_feedback(backend, "src", {20, 3, 100}, "p")
        assert f"{MISSING_LINES_ANCHOR} 3, 20, 100\n" in backend.prompts[0]

    def test_branch_feedback_lists_the_gaps_in_the_order_given(self):
        backend = PromptRecorder()
        gaps = (BranchGap(line=9, branch_id=0), BranchGap(line=2, branch_id=1))
        branch_feedback(backend, "src", gaps, "p")
        assert (f"{MISSING_BRANCHES_ANCHOR} line 9 arm 0; line 2 arm 1\n"
                in backend.prompts[0])

    # The reply's check is the one guard: no refinement is built without proposals.
    @pytest.mark.parametrize("ask", [
        lambda backend: line_feedback(backend, "src", {1}, "p"),
        lambda backend: branch_feedback(backend, "src", (BranchGap(1, 0),), "p"),
    ], ids=["line", "branch"])
    def test_a_reply_without_proposals_is_malformed(self, ask):
        backend = ScriptedBackend(['{"gap_explanation": "g", "prompt_refinements": []}'])
        with pytest.raises(BackendError, match="after 3 attempts"):
            ask(backend)
        assert backend.calls == 3


class PromptRecorder(CompletionBackend):
    """Records each prompt and answers with a fixed refinement."""

    def __init__(self):
        self.prompts = []

    def raw_complete(self, prompt, schema_id):
        self.prompts.append(prompt)
        return json.dumps(REFINEMENT_OK)


class _Elsewhere(ScriptedEndpoint):
    """A second host, the target of redirects; keeps its own script and log."""

    script = [(200, {}, json.dumps({"text": '{"test_cases": []}'}))]
    seen = []

    def do_GET(self):
        self.do_POST()


@pytest.fixture
def elsewhere():
    yield from serve(_Elsewhere)


REPLY = '{"test_cases": [["7"]]}'

# Values at a reply path that are not the reply's text.
NON_STRING_TEXTS = [None, 5, {"test_cases": []}]
NON_STRING_IDS = ["null-text", "number-text", "object-text"]


class TestHttpBackend:
    def test_http_stack_is_not_imported_by_the_loop_or_the_cli(self):
        code = ("import sys, covloop.driver, covloop.cli; print(sorted(m for m in sys.modules "
                "if m.partition('.')[0] in ('ssl', 'email') "
                "or m in ('http.client', 'urllib.request')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": os.pathsep.join(sys.path)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
        ScriptedEndpoint.script = [(200, {}, json.dumps({"text": '{"test_cases": []}'}))]
        backend = HttpBackend(endpoint, "my-model")
        response = complete(backend, "the prompt", SchemaId.TEST_CASES)
        assert response.parsed == {"test_cases": []}
        assert ScriptedEndpoint.seen[0]["auth"] == "Bearer sekrit"
        assert ScriptedEndpoint.seen[0]["content_type"] == "application/json"
        assert ScriptedEndpoint.seen[0]["body"] == {"model": "my-model",
                                                    "prompt": "the prompt"}

    @pytest.mark.parametrize("body", [
        json.dumps(REPLY),
        json.dumps({"text": REPLY}),
        json.dumps({"choices": [{"message": {"content": REPLY}}]}),
        json.dumps({"choices": [{"text": REPLY}]}),
        json.dumps({"candidates": [{"content": {"parts": [{"text": REPLY}]}}]}),
        "Here you go: " + REPLY,
        json.dumps({"text": 5, "choices": [{"text": REPLY}]}),
    ], ids=["string", "text", "chat", "completion", "candidates", "not-json",
            "non-string-skipped"])
    def test_reply_shapes_extracted(self, endpoint, body):
        ScriptedEndpoint.script = [(200, {}, body)]
        response = complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert response.parsed == {"test_cases": [["7"]]}

    @pytest.mark.parametrize("candidates", [
        [{}], [{"content": {"parts": []}}], ["text"],
        *([{"content": {"parts": [{"text": text}]}}] for text in NON_STRING_TEXTS),
    ], ids=["no-content", "no-parts", "not-an-object", *NON_STRING_IDS])
    def test_malformed_candidates_give_the_body(self, candidates):
        body = json.dumps({"candidates": candidates})
        assert _extract_completion_text(body) == body

    @pytest.mark.parametrize("text", NON_STRING_TEXTS, ids=NON_STRING_IDS)
    def test_a_text_that_is_not_a_string_is_malformed(self, endpoint, slept, text):
        reply = {"candidates": [{"content": {"parts": [{"text": text}]}}]}
        ScriptedEndpoint.script = [(200, {}, json.dumps(reply))]
        with pytest.raises(BackendError, match="after 3 attempts"):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert len(ScriptedEndpoint.seen) == 3
        assert slept == []

    def test_rate_limit_retried(self, endpoint):
        ScriptedEndpoint.script = [
            (429, {"Retry-After": "0"}, "slow down"),
            (200, {}, json.dumps({"text": '{"test_cases": []}'})),
        ]
        response = complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert response.attempts == 2
        assert response.parsed == {"test_cases": []}

    @pytest.mark.parametrize("status", [429, 500])
    def test_retryable_status_is_transport_error(self, endpoint, slept, status):
        ScriptedEndpoint.script = [(status, {}, "boom")]
        with pytest.raises(TransportError, match=f"HTTP {status}: boom"):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert len(ScriptedEndpoint.seen) == 3  # retried within MAX_ATTEMPTS
        assert slept == [1.0, 1.0]  # no Retry-After: 1 s each

    def test_server_error_then_success_is_retried(self, endpoint, slept):
        ScriptedEndpoint.script = [
            (503, {"Retry-After": "2"}, "busy"),
            (200, {}, json.dumps({"text": '{"test_cases": []}'})),
        ]
        response = complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert response.attempts == 2
        assert response.parsed == {"test_cases": []}
        assert slept == [2.0]

    def test_retry_waits_at_most_the_cap(self, endpoint, slept):
        ScriptedEndpoint.script = [
            (502, {"Retry-After": "3600"}, "bad gateway"),
            (200, {}, json.dumps({"text": '{"test_cases": []}'})),
        ]
        assert complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES).attempts == 2
        assert slept == [30.0]

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_client_error_is_sent_once(self, endpoint, slept, status):
        ScriptedEndpoint.script = [(status, {}, "no")]
        with pytest.raises(TransportError, match=f"HTTP {status}: no"):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert len(ScriptedEndpoint.seen) == 1
        assert slept == []

    def test_a_transport_error_that_is_not_retryable_is_final(self):
        class Down(CompletionBackend):
            calls = 0

            def raw_complete(self, prompt, schema_id):
                self.calls += 1
                raise TransportError("down")

        backend = Down()
        with pytest.raises(TransportError, match="down"):
            complete(backend, "p", SchemaId.TEST_CASES)
        assert backend.calls == 1

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, endpoint, elsewhere, status):
        ScriptedEndpoint.script = [(status, {"Location": elsewhere}, "moved")]
        with pytest.raises(TransportError, match=f"HTTP {status} .*{elsewhere}"):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert len(ScriptedEndpoint.seen) == 1
        assert _Elsewhere.seen == []

    @pytest.mark.parametrize("script", [
        (None, {}, "garbage\r\n\r\n"),
        (200, {"Content-Length": "100"}, "short"),
    ], ids=["bad-status-line", "truncated-body"])
    def test_broken_reply_is_transport_error(self, endpoint, slept, script):
        ScriptedEndpoint.script = [script]
        with pytest.raises(TransportError):
            complete(HttpBackend(endpoint, "m"), "p", SchemaId.TEST_CASES)
        assert len(ScriptedEndpoint.seen) == 3  # a broken connection is retried
        assert slept == [1.0, 1.0]

    def test_unreachable_endpoint_is_transport_error(self, monkeypatch, slept):
        monkeypatch.setenv("COVLOOP_API_KEY", "k")
        backend = HttpBackend("http://127.0.0.1:9/unreachable", "m", timeout=0.5)
        with pytest.raises(TransportError):
            complete(backend, "p", SchemaId.TEST_CASES)
        assert slept == [1.0, 1.0]
