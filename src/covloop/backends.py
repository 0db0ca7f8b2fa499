"""Completion backends: a deterministic offline stub and a generic HTTP client.

The stub makes the whole loop testable without a model endpoint. Its replies
are a pure function of the prompt text given to it: repeated identical prompts
produce byte-identical payloads, while each previously unseen generation
prompt advances a boundary-value enumeration so successive iterations see new
candidate batches. When the prompt carries an "Additional Focus Areas"
section, integer and char literals found there are substituted into matching
input slots (cartesian product, capped), which is what lets feedback flip
comparison-guarded branches offline.
"""

from __future__ import annotations

import abc
import enum
import itertools
import json
import os
import re
import threading

import requests

from .errors import ContractViolation, RateLimited, TransportError
from .model import BackendKind, InputKind, RunConfig
from .prompts import FOCUS_HEADER, INPUT_COUNT_RE, INPUT_KIND_RE

API_KEY_ENV = "COVLOOP_API_KEY"

# Anchors shared between the feedback prompt builders and the stub's parser.
SOURCE_ANCHOR = "SOURCE CODE:"
MISSING_LINES_ANCHOR = "MISSING LINES:"
MISSING_BRANCHES_ANCHOR = "MISSING BRANCHES:"


class SchemaId(enum.Enum):
    TEST_CASES = "test_cases"
    REFINEMENT = "refinement"


class CompletionBackend(abc.ABC):
    """One completion call per request; implementations must be thread-safe."""

    kind: BackendKind
    model_id: str
    max_retries: int

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
    """Deterministic offline backend used by the test suite and `--backend stub`."""

    kind = BackendKind.STUB

    def __init__(self, model_id: str = "stub", max_retries: int = 3):
        self.model_id = model_id
        self.max_retries = max_retries
        self._lock = threading.Lock()
        self._memo: dict[str, str] = {}
        self._batch_counter = 0

    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        if schema_id is SchemaId.REFINEMENT:
            return json.dumps(_stub_refinement(prompt), sort_keys=True)
        with self._lock:
            cached = self._memo.get(prompt)
            if cached is not None:
                return cached
            batch_index = self._batch_counter
            self._batch_counter += 1
        payload = json.dumps(
            {"test_cases": _stub_test_cases(prompt, batch_index)}, sort_keys=True
        )
        with self._lock:
            self._memo.setdefault(prompt, payload)
        return self._memo[prompt]


def _prompt_kinds(prompt: str) -> list[InputKind]:
    count_match = INPUT_COUNT_RE.search(prompt)
    count = int(count_match.group(1)) if count_match else 1
    kinds = [InputKind(k) for k in INPUT_KIND_RE.findall(prompt)]
    if len(kinds) < count:
        kinds.extend([InputKind.STRING] * (count - len(kinds)))
    return kinds[:count]


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
        if case not in cases:
            cases.append(case)

    focus = _focus_section(prompt)
    if focus:
        cases.extend(_focus_cases(kinds, focus, cases))
    return cases


def _focus_cases(
    kinds: list[InputKind], focus: str, existing: list[list[str]]
) -> list[list[str]]:
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
    out: list[list[str]] = []
    for combo in itertools.islice(itertools.product(*per_slot), _FOCUS_CASE_CAP):
        case = list(combo)
        if case not in existing and case not in out:
            out.append(case)
    return out


def _stub_refinement(prompt: str) -> dict:
    """Echo comparison constants found near the reported gap lines."""
    source = _extract_block(prompt, SOURCE_ANCHOR,
                            (MISSING_LINES_ANCHOR, MISSING_BRANCHES_ANCHOR))
    gap_lines = _extract_gap_lines(prompt)
    ints: set[int] = set()
    chars: set[str] = set()
    patterns: list[str] = []
    if source and gap_lines:
        src_lines = source.split("\n")
        window: set[int] = set()
        for line in gap_lines:
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
        patterns = [f"inputs matching comparisons near line {line}" for line in gap_lines]

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
        patterns = patterns or ["wider spread of boundary values"]
    return {
        "gap_explanation": explanation,
        "input_patterns": patterns,
        "prompt_refinements": refinements,
    }


def _extract_block(prompt: str, start_anchor: str, end_anchors: tuple[str, ...]) -> str:
    start = prompt.find(start_anchor)
    if start < 0:
        return ""
    start += len(start_anchor)
    end = len(prompt)
    for anchor in end_anchors:
        pos = prompt.find(anchor, start)
        if 0 <= pos < end:
            end = pos
    # Drop only the single separator newline on each side: interior blank
    # lines are real source lines and keep gap line numbers aligned.
    return prompt[start:end].removeprefix("\n").removesuffix("\n")


def _extract_gap_lines(prompt: str) -> list[int]:
    for anchor, pattern in (
        (MISSING_LINES_ANCHOR, r"\d+"),
        (MISSING_BRANCHES_ANCHOR, r"line (\d+)"),
    ):
        pos = prompt.find(anchor)
        if pos < 0:
            continue
        tail = prompt[pos + len(anchor):].split("\n", 1)[0]
        found = [int(v) for v in re.findall(pattern, tail)]
        if found:
            return found
    return []


class HttpBackend(CompletionBackend):
    """Single-POST client for any JSON completion endpoint.

    The request body carries the model id and prompt; the reply text is
    located by trying a short list of common response shapes. The credential
    is read from the COVLOOP_API_KEY environment variable.
    """

    kind = BackendKind.HTTP

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        max_retries: int = 3,
        timeout: float = 60.0,
        api_key_env: str = API_KEY_ENV,
    ):
        if not endpoint:
            raise ContractViolation("http backend requires an endpoint URL")
        key = os.environ.get(api_key_env, "")
        if not key:
            raise ContractViolation(
                f"http backend requires a credential in ${api_key_env}"
            )
        self.endpoint = endpoint
        self.model_id = model_id
        self.max_retries = max_retries
        self.timeout = timeout
        self._key = key

    def raw_complete(self, prompt: str, schema_id: SchemaId) -> str:
        try:
            resp = requests.post(
                self.endpoint,
                json={"model": self.model_id, "prompt": prompt},
                headers={"Authorization": f"Bearer {self._key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(f"POST {self.endpoint} failed: {exc}") from exc
        if resp.status_code == 429:
            retry_after = _parse_retry_after(resp.headers.get("Retry-After"))
            raise RateLimited(
                f"endpoint rate limited (429), retry after {retry_after}s",
                retry_after=retry_after,
            )
        if resp.status_code >= 400:
            raise TransportError(
                f"endpoint returned HTTP {resp.status_code}: {resp.text[:200]}"
            )
        return _extract_completion_text(resp)


def _parse_retry_after(header: str | None) -> float:
    try:
        return max(0.0, float(header))
    except (TypeError, ValueError):
        return 1.0


def _extract_completion_text(resp) -> str:
    try:
        data = resp.json()
    except ValueError:
        return resp.text
    if isinstance(data, str):
        return data
    if isinstance(data, dict):
        if isinstance(data.get("text"), str):
            return data["text"]
        choices = data.get("choices")
        if isinstance(choices, list) and choices:
            first = choices[0]
            if isinstance(first, dict):
                message = first.get("message")
                if isinstance(message, dict) and isinstance(message.get("content"), str):
                    return message["content"]
                if isinstance(first.get("text"), str):
                    return first["text"]
        candidates = data.get("candidates")
        if isinstance(candidates, list) and candidates:
            try:
                return candidates[0]["content"]["parts"][0]["text"]
            except (KeyError, IndexError, TypeError):
                pass
    return resp.text


def make_backend(config: RunConfig) -> CompletionBackend:
    if config.backend is BackendKind.STUB:
        return StubBackend(model_id=config.model_id)
    return HttpBackend(endpoint=config.endpoint or "", model_id=config.model_id)
