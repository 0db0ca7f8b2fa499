"""Model-backed agents: test generation plus line and branch gap analysts.

Every completion goes through `complete`, which validates the reply against
the requested schema and retries malformed output with the parse error
appended to the prompt. Replies are JSON; fenced or prose-wrapped objects are
tolerated.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

import jsonschema

from .backends import (
    MISSING_BRANCHES_ANCHOR,
    MISSING_LINES_ANCHOR,
    SOURCE_ANCHOR,
    CompletionBackend,
    SchemaId,
)
from .cache import TestSuiteCache, canonical_key
from .errors import ContractViolation, MalformedResponse, RateLimited
from .model import BranchGap, FeedbackOrigin, FeedbackRefinement, TestCase

log = logging.getLogger(__name__)

_RATE_LIMIT_SLEEP_CAP = 30.0

_SCHEMAS = {
    SchemaId.TEST_CASES: {
        "type": "object",
        "required": ["test_cases"],
        "properties": {
            "test_cases": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": ["string", "number"]},
                },
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
                "type": "array",
                "items": {"type": "string"},
                "minItems": 1,
            },
        },
    },
}
_VALIDATORS = {
    schema_id: jsonschema.Draft202012Validator(schema)
    for schema_id, schema in _SCHEMAS.items()
}


@dataclass(frozen=True)
class AgentResponse:
    """Raw completion text plus its schema-validated payload."""

    raw_text: str
    parsed: dict | None
    attempts: int


def extract_json_object(text: str) -> dict:
    """Pull the first JSON object out of possibly fenced or chatty text."""
    try:
        value = json.loads(text)
        if isinstance(value, dict):
            return value
    except ValueError:
        pass
    start = text.find("{")
    while start >= 0:
        depth = 0
        in_string = False
        escape = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escape:
                    escape = False
                elif ch == "\\":
                    escape = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        value = json.loads(text[start : i + 1])
                        if isinstance(value, dict):
                            return value
                    except ValueError:
                        break
        start = text.find("{", start + 1)
    raise ValueError("no JSON object found in completion text")


def _validate(schema_id: SchemaId, payload: dict) -> dict:
    errors = sorted(
        _VALIDATORS[schema_id].iter_errors(payload), key=lambda e: list(e.path)
    )
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.path) or "<root>"
        raise ValueError(f"schema {schema_id.value} violated at {where}: {first.message}")
    if schema_id is SchemaId.TEST_CASES:
        # stdin is text: numbers are coerced to strings at this boundary.
        payload = {
            "test_cases": [
                [v if isinstance(v, str) else _render_number(v) for v in case]
                for case in payload["test_cases"]
            ]
        }
    return payload


def _render_number(v) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def complete(
    backend: CompletionBackend, prompt: str, schema_id: SchemaId
) -> AgentResponse:
    """One schema-validated completion, retrying malformed replies.

    Raises MalformedResponse once max_retries attempts all failed validation;
    rate-limit rejections are waited out and retried within the same budget.
    """
    attempts = 0
    last_error = ""
    current_prompt = prompt
    while attempts < backend.max_retries:
        attempts += 1
        try:
            raw = backend.raw_complete(current_prompt, schema_id)
        except RateLimited as exc:
            if attempts >= backend.max_retries:
                raise
            delay = 1.0 if exc.retry_after is None else exc.retry_after
            time.sleep(min(delay, _RATE_LIMIT_SLEEP_CAP))
            continue
        try:
            payload = _validate(schema_id, extract_json_object(raw))
            return AgentResponse(raw_text=raw, parsed=payload, attempts=attempts)
        except ValueError as exc:
            last_error = str(exc)
            log.debug("attempt %d returned malformed payload: %s", attempts, last_error)
            current_prompt = (
                f"{prompt}\n\nYour previous reply was not valid: {last_error}. "
                "Reply with ONLY the JSON object."
            )
    raise MalformedResponse(
        f"no valid {schema_id.value} payload after {attempts} attempts: {last_error}",
        attempts=attempts,
    )


def cases_from_payload(
    payload: dict, expected_count: int | None = None
) -> list[TestCase]:
    """Map a validated test_cases payload to TestCase values.

    Inner lists whose length disagrees with the target's input count are
    dropped (logged), as are values that cannot be a single stdin line.
    """
    cases: list[TestCase] = []
    for raw_case in payload["test_cases"]:
        if expected_count is not None and len(raw_case) != expected_count:
            log.warning(
                "dropping case with %d values (target reads %d): %r",
                len(raw_case), expected_count, raw_case,
            )
            continue
        try:
            cases.append(TestCase(values=tuple(raw_case)))
        except ContractViolation as exc:
            log.warning("dropping unusable case %r: %s", raw_case, exc)
    return cases


def parse_and_filter(
    raw: AgentResponse,
    cache: TestSuiteCache,
    expected_count: int | None = None,
) -> list[TestCase]:
    """Keep only cases whose canonical key is new to the cache.

    Within-payload duplicates collapse to their first occurrence. The cache
    itself is not modified; insertion is the loop driver's step.
    """
    if raw.parsed is None or "test_cases" not in raw.parsed:
        raise ContractViolation("response has no validated test_cases payload")
    fresh: list[TestCase] = []
    seen: set[tuple[str, ...]] = set()
    for tc in cases_from_payload(raw.parsed, expected_count):
        key = canonical_key(tc)
        if key in cache or key in seen:
            continue
        seen.add(key)
        fresh.append(tc)
    return fresh


def _feedback_prompt(kind: str, source: str, gap_line: str, current_prompt: str) -> str:
    return "\n".join(
        [
            f"You analyze {kind} coverage gaps for a program under test.",
            "Explain why the gaps were not reached and propose concrete prompt",
            "refinements that will steer input generation into them.",
            "Respond with a JSON object of this exact shape:",
            '{"gap_explanation": string, "input_patterns": [string],',
            ' "prompt_refinements": [string]} with prompt_refinements non-empty.',
            SOURCE_ANCHOR,
            source,
            gap_line,
            "CURRENT PROMPT:",
            current_prompt,
        ]
    )


def line_feedback(
    backend: CompletionBackend,
    source: str,
    missing_lines: frozenset[int] | set[int],
    current_prompt: str,
) -> FeedbackRefinement:
    """Ask the statement-gap analyst about lines that never executed."""
    if not missing_lines:
        raise ContractViolation("line feedback requires a non-empty missing_lines set")
    gap_line = MISSING_LINES_ANCHOR + " " + ", ".join(
        str(n) for n in sorted(missing_lines)
    )
    prompt = _feedback_prompt("statement", source, gap_line, current_prompt)
    response = complete(backend, prompt, SchemaId.REFINEMENT)
    return _refinement_from_payload(FeedbackOrigin.LINE, response.parsed)


def branch_feedback(
    backend: CompletionBackend,
    source: str,
    missing_branches: list[BranchGap] | tuple[BranchGap, ...],
    current_prompt: str,
) -> FeedbackRefinement:
    """Ask the branch-gap analyst about outcome arms that were never taken."""
    if not missing_branches:
        raise ContractViolation(
            "branch feedback requires a non-empty missing_branches list"
        )
    gap_line = MISSING_BRANCHES_ANCHOR + " " + "; ".join(
        f"line {gap.line} arm {gap.branch_id}" for gap in sorted(missing_branches)
    )
    prompt = _feedback_prompt("branch", source, gap_line, current_prompt)
    response = complete(backend, prompt, SchemaId.REFINEMENT)
    return _refinement_from_payload(FeedbackOrigin.BRANCH, response.parsed)


def _refinement_from_payload(origin: FeedbackOrigin, payload: dict) -> FeedbackRefinement:
    return FeedbackRefinement(
        origin=origin,
        gap_explanation=payload["gap_explanation"],
        input_patterns=tuple(payload["input_patterns"]),
        prompt_refinements=tuple(payload["prompt_refinements"]),
    )
