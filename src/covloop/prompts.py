"""Generation and analyst prompts, the patterns that read them back, and merging.

The baseline prompt states exactly how many stdin values the target reads and
of which kinds, demands a strict JSON reply, and echoes already-generated
values. Feedback from the two gap analysts is merged into a single
"Additional Focus Areas" section that replaces (never accumulates on top of)
the previous iteration's section, keeping prompts bounded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .model import BranchGap, FeedbackRefinement, InputKind, InputSignature

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
# The stub backend reads prompts back with the patterns below: each input kind;
# an analyst prompt's exact source, on the lines after SOURCE_ANCHOR, and the
# text of the gap line after it, past its gap anchor (so no source line may
# start with a gap anchor); and each gap's line number in that text.
SOURCE_ANCHOR = "SOURCE CODE:"
MISSING_LINES_ANCHOR = "MISSING LINES:"
MISSING_BRANCHES_ANCHOR = "MISSING BRANCHES:"
INPUT_KIND_RE = re.compile(
    r"Input #\d+: expects (" + "|".join(k.value for k in InputKind) + ")"
)
ANALYST_PROMPT_RE = re.compile(
    rf"(?s){SOURCE_ANCHOR}\n(.*?)\n(?:{MISSING_LINES_ANCHOR}|{MISSING_BRANCHES_ANCHOR})([^\n]*)")
GAP_LINE_RE = re.compile(r"(\d+)(?: arm \d+)?")


@dataclass(frozen=True)
class PromptBundle:
    """The structured generation prompt for one iteration."""

    input_section: str
    cache_section: str
    focus_section: str | None

    def render(self) -> str:
        parts = [
            OPENING,
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
    lines = [f"IMPORTANT: This program calls input exactly {len(sig)} times."]
    lines.append("Detailed input types (in order):")
    for i, kind in enumerate(sig, start=1):
        lines.append(f"  Input #{i}: expects {kind.value}")
    cache_section = f"{CACHE_HEADER} {cache_summary}" if cache_summary else CACHE_HEADER
    return PromptBundle(
        input_section="\n".join(lines),
        cache_section=cache_section,
        focus_section=None,
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


def line_feedback_prompt(source: str, missing_lines: frozenset[int] | set[int],
                         current_prompt: str) -> str:
    """The statement-gap analyst's prompt; lines are listed in numeric order."""
    gaps = ", ".join(map(str, sorted(missing_lines)))
    return _analyst_prompt("statement", source, f"{MISSING_LINES_ANCHOR} {gaps}", current_prompt)


def branch_feedback_prompt(source: str, missing_branches: tuple[BranchGap, ...],
                           current_prompt: str) -> str:
    """The branch-gap analyst's prompt; arms are listed in the order given."""
    gaps = "; ".join(f"line {gap.line} arm {gap.branch_id}" for gap in missing_branches)
    return _analyst_prompt("branch", source, f"{MISSING_BRANCHES_ANCHOR} {gaps}", current_prompt)


def _analyst_prompt(kind: str, source: str, gap_line: str, current_prompt: str) -> str:
    return "\n".join(
        [
            f"You analyze {kind} coverage gaps for a program under test.",
            "Explain why the gaps were not reached and propose concrete prompt",
            "refinements that will steer input generation into them.",
            "Respond with a JSON object of this exact shape:",
            '{"gap_explanation": string, "prompt_refinements": [string]}',
            "with prompt_refinements non-empty.",
            SOURCE_ANCHOR,
            source,
            gap_line,
            "CURRENT PROMPT:",
            current_prompt,
        ]
    )
