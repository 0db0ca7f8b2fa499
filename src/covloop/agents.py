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

from .backends import CompletionBackend, SchemaId
from .cache import TestSuiteCache
from .errors import BackendError, ContractViolation, TransportError
from .model import BranchGap, FeedbackRefinement, TestCase
from .prompts import branch_feedback_prompt, line_feedback_prompt

log = logging.getLogger(__name__)

# Backend calls per completion, the first one included.
MAX_ATTEMPTS = 3
_RETRY_SLEEP_CAP = 30.0

_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class AgentResponse:
    """A schema-validated reply payload and the attempts it took."""

    parsed: dict
    attempts: int


def extract_json_object(text: str) -> dict:
    """Pull the first JSON object out of possibly fenced or chatty text."""
    start = text.find("{")
    while start >= 0:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except ValueError:
            start = text.find("{", start + 1)
    raise ValueError("no JSON object found in completion text")


def _validate(schema_id: SchemaId, payload: dict) -> dict:
    """Type-check a reply payload; keys outside the schema are ignored.

    Raises ValueError naming the first field that is missing or ill-typed.
    """
    def require(ok: bool, where: str, expected: str) -> None:
        if not ok:
            raise ValueError(
                f"schema {schema_id.value} violated at {where}: expected {expected}"
            )

    if schema_id is SchemaId.TEST_CASES:
        cases = payload.get("test_cases")
        require(isinstance(cases, list), "test_cases", "a list of lists")
        for i, case in enumerate(cases):
            require(isinstance(case, list), f"test_cases/{i}", "a list")
            for j, v in enumerate(case):
                require(isinstance(v, (str, int, float)) and not isinstance(v, bool),
                        f"test_cases/{i}/{j}", "a string or a number")
        # stdin is text: numbers are coerced to strings at this boundary.
        return {
            "test_cases": [
                [v if isinstance(v, str) else _render_number(v) for v in case]
                for case in cases
            ]
        }
    require(isinstance(payload.get("gap_explanation"), str), "gap_explanation", "a string")
    items = payload.get("prompt_refinements")
    require(isinstance(items, list) and all(isinstance(s, str) for s in items),
            "prompt_refinements", "a list of strings")
    require(bool(items), "prompt_refinements", "at least one item")
    return payload


def _render_number(v) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def complete(
    backend: CompletionBackend, prompt: str, schema_id: SchemaId
) -> AgentResponse:
    """One schema-validated completion, retrying malformed replies.

    Raises BackendError once MAX_ATTEMPTS attempts all failed validation;
    rate-limit rejections and retryable transport failures are waited out and
    retried within the same budget.
    """
    last_error = ""
    current_prompt = prompt
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            raw = backend.raw_complete(current_prompt, schema_id)
        except TransportError as exc:
            if attempt == MAX_ATTEMPTS or not exc.retryable:
                raise
            time.sleep(min(exc.retry_after, _RETRY_SLEEP_CAP))
            continue
        try:
            payload = _validate(schema_id, extract_json_object(raw))
            return AgentResponse(parsed=payload, attempts=attempt)
        except ValueError as exc:
            last_error = str(exc)
            log.debug("attempt %d returned malformed payload: %s", attempt, last_error)
            current_prompt = (
                f"{prompt}\n\nYour previous reply was not valid: {last_error}. "
                "Reply with ONLY the JSON object."
            )
    raise BackendError(f"no valid {schema_id.value} payload after {MAX_ATTEMPTS} "
                       f"attempts: {last_error}")


def parse_and_filter(
    raw: AgentResponse, cache: TestSuiteCache, expected_count: int
) -> list[TestCase]:
    """Insert the reply's cases into the cache; return, in reply order, the
    ones it added.

    A case is dropped (logged) when its length disagrees with the target's
    input count, or when a value cannot be a single stdin line of UTF-8
    text. A case whose canonical key the cache already holds, from an
    earlier reply or from earlier in this one, is dropped silently.
    """
    novel: list[TestCase] = []
    for raw_case in raw.parsed["test_cases"]:
        if len(raw_case) != expected_count:
            log.warning(
                "dropping case with %d values (target reads %d): %r",
                len(raw_case), expected_count, raw_case,
            )
            continue
        try:
            tc = TestCase(values=tuple(raw_case))
        except ContractViolation as exc:
            log.warning("dropping unusable case %r: %s", raw_case, exc)
            continue
        if cache.insert_if_novel(tc):
            novel.append(tc)
    return novel


def line_feedback(
    backend: CompletionBackend,
    source: str,
    missing_lines: frozenset[int] | set[int],
    current_prompt: str,
) -> FeedbackRefinement:
    """Ask the statement-gap analyst about lines that never executed."""
    prompt = line_feedback_prompt(source, missing_lines, current_prompt)
    return _refinement(complete(backend, prompt, SchemaId.REFINEMENT).parsed)


def branch_feedback(
    backend: CompletionBackend,
    source: str,
    missing_branches: tuple[BranchGap, ...],
    current_prompt: str,
) -> FeedbackRefinement:
    """Ask the branch-gap analyst about outcome arms that were never taken,
    listed in the order given (a report's are sorted)."""
    prompt = branch_feedback_prompt(source, missing_branches, current_prompt)
    return _refinement(complete(backend, prompt, SchemaId.REFINEMENT).parsed)


def _refinement(payload: dict) -> FeedbackRefinement:
    return FeedbackRefinement(payload["gap_explanation"], tuple(payload["prompt_refinements"]))
