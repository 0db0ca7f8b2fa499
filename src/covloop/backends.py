"""Completion backends: a deterministic offline stub and a generic HTTP client.

The stub makes the whole loop testable without a model endpoint. Each
generation call advances a boundary-value enumeration, so successive
iterations see new candidate batches; a prompt sent again would get the next
batch, but the loop driver never sends one again. Analyst replies are a pure
function of the prompt, whose source and gap line ANALYST_PROMPT_RE reads back.
When the prompt carries an "Additional Focus Areas" section, integer and char
literals found there are substituted into matching input slots (cartesian
product, capped), which is what lets feedback flip comparison-guarded
branches offline. A reply may repeat a case; the cache drops repeats.
"""

from __future__ import annotations

import abc
import enum
import functools
import itertools
import json
import operator
import os
import re
import threading
import urllib.parse

from .errors import RETRY_AFTER_DEFAULT, ContractViolation, TransportError
from .model import InputKind, RunConfig
from .prompts import ANALYST_PROMPT_RE, FOCUS_HEADER, GAP_LINE_RE, INPUT_KIND_RE

API_KEY_ENV = "COVLOOP_API_KEY"


class SchemaId(enum.Enum):
    TEST_CASES = "test_cases"
    REFINEMENT = "refinement"


class CompletionBackend(abc.ABC):
    """One completion call per request; implementations must be thread-safe."""

    @abc.abstractmethod
    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        """Return the raw completion text for one prompt."""


# Boundary-value enumerations per input kind, and the filler used for slots
# that have no feedback-derived candidate during focus substitution.
_BOUNDARY_VALUES = {
    InputKind.INTEGER: ("0", "1", "-1", "1000000", "-1000000"),
    InputKind.FLOAT: ("0.0", "0.5", "-0.5", "1000000.0", "-1000000.0"),
    InputKind.STRING: ("", "a", "z" * 32),
    InputKind.CHAR: ("a", "Z", "0"),
}
_FOCUS_FILL = {
    InputKind.INTEGER: "1",
    InputKind.FLOAT: "1.0",
    InputKind.STRING: "a",
    InputKind.CHAR: "a",
}
_BATCH_SIZE = 5
_FOCUS_CASE_CAP = 200

_FOCUS_INT_RE = re.compile(r"-?\d+")
_FOCUS_CHAR_RE = re.compile(r"'(.)'")
_COMPARISON_RE = re.compile(
    r"(?:==|!=|<=|>=|<|>)\s*(-?\d+)|(-?\d+)\s*(?:==|!=|<=|>=|<|>)"
)
_EQUALITY_RE = re.compile(r"(?:==|!=)\s*(-?\d+)|(-?\d+)\s*(?:==|!=)")
_CHAR_COMPARISON_RE = re.compile(r"(?:==|!=)\s*'(.)'|'(.)'\s*(?:==|!=)")


class StubBackend(CompletionBackend):
    """Deterministic offline backend, used by the test suite and by every run
    without `--endpoint`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._batch_counter = 0

    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        if schema_id is SchemaId.REFINEMENT:
            return json.dumps(_stub_refinement(prompt), sort_keys=True)
        with self._lock:
            batch_index = self._batch_counter
            self._batch_counter += 1
        return json.dumps(
            {"test_cases": _stub_test_cases(prompt, batch_index)}, sort_keys=True
        )


def _prompt_kinds(prompt: str) -> list[InputKind]:
    return [InputKind(k) for k in INPUT_KIND_RE.findall(prompt)]


def _focus_section(prompt: str) -> str | None:
    pos = prompt.find(FOCUS_HEADER)
    return prompt[pos:] if pos >= 0 else None


def _stub_test_cases(prompt: str, batch_index: int) -> list[list[str]]:
    kinds = _prompt_kinds(prompt)
    if not kinds:
        return [[]]
    cases: list[list[str]] = []
    for j in range(_BATCH_SIZE):
        case = []
        for s, kind in enumerate(kinds):
            values = _BOUNDARY_VALUES[kind]
            case.append(values[(batch_index * _BATCH_SIZE + j + s) % len(values)])
        cases.append(case)

    focus = _focus_section(prompt)
    if focus:
        cases.extend(_focus_cases(kinds, focus))
    return cases


def _focus_cases(kinds: list[InputKind], focus: str) -> list[list[str]]:
    ints = sorted({int(v) for v in _FOCUS_INT_RE.findall(focus)})
    chars = sorted({c for c in _FOCUS_CHAR_RE.findall(focus)})
    per_slot: list[list[str]] = []
    substituted = False
    for kind in kinds:
        if kind in (InputKind.INTEGER, InputKind.FLOAT) and ints:
            per_slot.append([str(v) for v in ints])
            substituted = True
        elif kind is InputKind.CHAR and chars:
            per_slot.append(chars)
            substituted = True
        else:
            per_slot.append([_FOCUS_FILL[kind]])
    if not substituted:
        return []
    return [list(combo) for combo in
            itertools.islice(itertools.product(*per_slot), _FOCUS_CASE_CAP)]


def _stub_refinement(prompt: str) -> dict:
    """Echo comparison constants found near the reported gap lines."""
    ints: set[int] = set()
    chars: set[str] = set()
    match = ANALYST_PROMPT_RE.search(prompt)
    if match:
        src_lines = match[1].split("\n")
        window: set[int] = set()
        for line in map(int, GAP_LINE_RE.findall(match[2])):
            window.update((line - 1, line, line + 1))
        for lineno in sorted(window):
            if not 1 <= lineno <= len(src_lines):
                continue
            text = src_lines[lineno - 1]
            equality_constants = {
                int(a or b) for a, b in _EQUALITY_RE.findall(text)
            }
            ints.update(equality_constants)
            for a, b in _COMPARISON_RE.findall(text):
                value = int(a or b)
                if value not in equality_constants:
                    # Ordering comparison: either side of the bound may be
                    # the uncovered one, so propose the whole neighborhood.
                    ints.update((value - 1, value, value + 1))
            for a, b in _CHAR_COMPARISON_RE.findall(text):
                chars.add(a or b)

    refinements = [f"try integer input {v}" for v in sorted(ints)]
    refinements += [f"try char input '{c}'" for c in sorted(chars)]
    if refinements:
        explanation = (
            "Uncovered regions are guarded by comparisons against specific "
            "constants; matching inputs are required."
        )
    else:
        explanation = (
            "No comparison constants found near the uncovered regions; "
            "inputs lack diversity."
        )
        refinements = ["increase value diversity: repeat boundary extremes"]
    return {"gap_explanation": explanation, "prompt_refinements": refinements}


class HttpBackend(CompletionBackend):
    """Single-POST client for any JSON completion endpoint.

    The request body carries the model id and prompt; the reply text is
    located by trying a short list of common response shapes. The credential
    is read from the COVLOOP_API_KEY environment variable.
    """

    def __init__(self, endpoint: str, model_id: str, timeout: float = 60.0):
        if urllib.parse.urlsplit(endpoint).scheme not in ("http", "https"):
            raise ContractViolation(f"the endpoint must be an http(s) URL, got {endpoint!r}")
        key = os.environ.get(API_KEY_ENV, "")
        if not key:
            raise ContractViolation(f"an endpoint needs a credential in ${API_KEY_ENV}")
        self.endpoint = endpoint
        self.model_id = model_id
        self.timeout = timeout
        self._key = key

    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        # Imported on first use: with the ssl and email modules they pull in,
        # they cost about 7 MB and 40 ms of start-up that a stub run never needs.
        import http.client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps({"model": self.model_id, "prompt": prompt}).encode(),
            headers={"Authorization": f"Bearer {self._key}",
                     "Content-Type": "application/json"},
            method="POST",
        )
        try:
            try:
                response = _opener().open(request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                response = exc  # error and redirect statuses, body included
            with response:
                status, headers = response.status, response.headers
                body = response.read().decode("utf-8", "replace")
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"POST {self.endpoint} failed: {exc}", retryable=True) from exc
        if status >= 300:
            location = headers.get("Location")
            to = f" (redirect to {location} not followed)" if location else ""
            raise TransportError(f"endpoint returned HTTP {status}{to}: {body[:200]}",
                                 retryable=status == 429 or status >= 500,
                                 retry_after=_parse_retry_after(headers.get("Retry-After")))
        return _extract_completion_text(body)


@functools.cache
def _opener():
    """The opener of every HttpBackend: it refuses to follow a redirect,
    which would resend the bearer token to the Location's host."""
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(NoRedirect)


def _parse_retry_after(header: str | None) -> float:
    try:
        return max(0.0, float(header))
    except (TypeError, ValueError):
        return RETRY_AFTER_DEFAULT


# Where a reply's text may sit, tried in order; the first string found is the
# text, and a reply where none leads to a string is taken whole. The shapes:
# a bare JSON string, {"text": ...}, an OpenAI-style chat or completion
# choice, and a candidates/content/parts list.
_REPLY_PATHS = (
    (),
    ("text",),
    ("choices", 0, "message", "content"),
    ("choices", 0, "text"),
    ("candidates", 0, "content", "parts", 0, "text"),
)


def _extract_completion_text(body: str) -> str:
    try:
        data = json.loads(body)
    except ValueError:
        return body
    for path in _REPLY_PATHS:
        try:
            text = functools.reduce(operator.getitem, path, data)
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(text, str):
            return text
    return body


def make_backend(config: RunConfig) -> CompletionBackend:
    """The HTTP client of the config's endpoint, or the stub if it names none."""
    if config.endpoint is None:
        return StubBackend()
    return HttpBackend(endpoint=config.endpoint, model_id=config.model_id)
