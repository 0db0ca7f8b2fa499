"""Generation- and feedback-prompt construction and refinement merging.

The baseline prompt states exactly how many stdin values the target reads and
of which kinds, demands a strict JSON reply, and echoes already-generated
values. Feedback from the two gap analysts is merged into a single
"Additional Focus Areas" section that replaces (never accumulates on top of)
the previous iteration's section, keeping prompts bounded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .model import FeedbackRefinement, InputKind, InputSignature

OPENING = "Generate diverse test values for the following program."
DIVERSITY_INSTRUCTION = (
    "Include diverse cases: boundary chars, negative integers, large extremes."
)
OUTPUT_FORMAT_INSTRUCTION = (
    'Output format must be a JSON object with a "test_cases" key '
    "containing a list of lists."
)
CACHE_HEADER = "Previously generated values:"
FOCUS_HEADER = "Additional Focus Areas:"
# Feedback-prompt anchors; the stub backend locates the source and gaps by them.
SOURCE_ANCHOR = "SOURCE CODE:"
MISSING_LINES_ANCHOR = "MISSING LINES:"
MISSING_BRANCHES_ANCHOR = "MISSING BRANCHES:"
# The stub backend reads the input signature back out of a rendered prompt
# with these; they parse the wording build_baseline_prompt writes.
INPUT_COUNT_RE = re.compile(r"calls input exactly (\d+) times")
INPUT_KIND_RE = re.compile(
    r"Input #\d+: expects (" + "|".join(k.value for k in InputKind) + ")"
)


@dataclass(frozen=True)
class PromptBundle:
    """The structured generation prompt for one iteration."""

    base_text: str
    input_section: str
    cache_section: str
    focus_section: str | None
    signature: InputSignature

    def render(self) -> str:
        parts = [
            self.base_text,
            self.input_section,
            DIVERSITY_INSTRUCTION,
            OUTPUT_FORMAT_INSTRUCTION,
            self.cache_section,
        ]
        if self.focus_section is not None:
            parts.append(self.focus_section)
        return "\n".join(parts)


def build_baseline_prompt(sig: InputSignature, cache_summary: str) -> PromptBundle:
    """Render the iteration-0 prompt for a signature and cache summary."""
    lines = [f"IMPORTANT: This program calls input exactly {sig.count} times."]
    lines.append("Detailed input types (in order):")
    for i, kind in enumerate(sig.kinds, start=1):
        lines.append(f"  Input #{i}: expects {kind.value}")
    cache_section = f"{CACHE_HEADER} {cache_summary}" if cache_summary else CACHE_HEADER
    return PromptBundle(
        base_text=OPENING,
        input_section="\n".join(lines),
        cache_section=cache_section,
        focus_section=None,
        signature=sig,
    )


def merge_refinements(
    base: PromptBundle,
    line_fb: FeedbackRefinement | None = None,
    branch_fb: FeedbackRefinement | None = None,
) -> PromptBundle:
    """Attach both agents' refinements as one focus section, line before branch.

    The section replaces whatever focus the bundle had: refinements are
    assigned per iteration, not appended across iterations. With no feedback
    at all the bundle renders identically to the baseline.
    """
    entries = [(label, fb) for label, fb in
               (("line coverage", line_fb), ("branch coverage", branch_fb))
               if fb is not None]
    if not entries:
        return replace(base, focus_section=None)

    lines = [FOCUS_HEADER]
    for label, fb in entries:
        explanation = " ".join(fb.gap_explanation.split()) or "coverage gap"
        lines.append(f"- [{label}] {explanation}")
        for refinement in fb.prompt_refinements:
            lines.append(f"- {refinement}")
    return replace(base, focus_section="\n".join(lines))


def feedback_prompt(kind: str, source: str, gap_line: str, current_prompt: str) -> str:
    """Render a gap analyst's prompt for `kind` ("statement" or "branch") gaps."""
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
