"""Tests for prompt construction, refinement merging and reading prompts back."""

from hypothesis import given
from hypothesis import strategies as st

from covloop.backends import _prompt_kinds
from covloop.model import BranchGap, FeedbackRefinement, InputKind
from covloop.prompts import (
    ANALYST_PROMPT_RE,
    GAP_LINE_RE,
    MISSING_BRANCHES_ANCHOR,
    MISSING_LINES_ANCHOR,
    branch_feedback_prompt,
    build_baseline_prompt,
    line_feedback_prompt,
    merge_refinements,
)

SIG_2 = (InputKind.INTEGER, InputKind.STRING)
SIG_0 = ()
SIG_ALL = tuple(InputKind)


def line_fb(*refinements):
    return FeedbackRefinement("lines were skipped", refinements)


def branch_fb(*refinements):
    return FeedbackRefinement("arms were skipped", refinements)


class TestBaselinePrompt:
    def test_enumerates_typed_inputs(self):
        text = build_baseline_prompt(SIG_2, "").render()
        assert "calls input exactly 2 times" in text
        assert "Input #1: expects integer" in text
        assert "Input #2: expects string" in text
        assert "Previously generated values:" in text

    def test_zero_inputs(self):
        text = build_baseline_prompt(SIG_0, "").render()
        assert "calls input exactly 0 times" in text
        assert "Input #" not in text

    def test_cache_summary_follows_header(self):
        text = build_baseline_prompt(SIG_2, "(1, a)").render()
        header_pos = text.index("Previously generated values:")
        assert text.index("(1, a)") > header_pos

    def test_required_instructions_present(self):
        text = build_baseline_prompt(SIG_2, "").render()
        assert "boundary chars, negative integers, large extremes" in text
        assert '"test_cases" key containing a list of lists' in text

    def test_stub_reads_signature_back(self):
        # The stub parses the wording this module writes; a prompt edit that
        # desyncs the two shows up here for every input kind.
        for sig in (SIG_ALL, SIG_2, SIG_0):
            assert _prompt_kinds(build_baseline_prompt(sig, "").render()) == list(sig)

    def test_deterministic(self):
        assert (
            build_baseline_prompt(SIG_2, "(1, a)").render()
            == build_baseline_prompt(SIG_2, "(1, a)").render()
        )


class TestMergeRefinements:
    def test_no_feedback_renders_identically(self):
        base = build_baseline_prompt(SIG_2, "")
        assert merge_refinements(base, None, None).render() == base.render()

    def test_single_section_with_line_before_branch(self):
        base = build_baseline_prompt(SIG_2, "")
        merged = merge_refinements(
            base, line_fb("use negative n"), branch_fb("force flag=0")
        )
        text = merged.render()
        assert text.count("Additional Focus Areas:") == 1
        assert text.index("use negative n") < text.index("force flag=0")

    def test_merge_replaces_previous_focus(self):
        base = build_baseline_prompt(SIG_2, "")
        once = merge_refinements(base, line_fb("use negative n"), branch_fb("force flag=0"))
        twice = merge_refinements(once, line_fb("use negative n"), branch_fb("force flag=0"))
        assert twice.render() == once.render()
        assert twice.render().count("Additional Focus Areas:") == 1

    def test_merge_with_new_feedback_discards_old(self):
        base = build_baseline_prompt(SIG_2, "")
        first = merge_refinements(base, line_fb("old idea"), None)
        second = merge_refinements(first, line_fb("new idea"), None)
        assert "old idea" not in second.render()
        assert "new idea" in second.render()

    def test_focus_present_only_with_feedback(self):
        base = build_baseline_prompt(SIG_2, "")
        assert base.focus_section is None
        assert merge_refinements(base, line_fb("x"), None).focus_section is not None

    def test_explanations_labeled_by_agent(self):
        base = build_baseline_prompt(SIG_2, "")
        text = merge_refinements(base, line_fb("a"), branch_fb("b")).render()
        assert "[line coverage] lines were skipped" in text
        assert "[branch coverage] arms were skipped" in text

    def test_deterministic(self):
        base = build_baseline_prompt(SIG_2, "(+1 older)")
        one = merge_refinements(base, line_fb("r1", "r2"), branch_fb("r3"))
        two = merge_refinements(base, line_fb("r1", "r2"), branch_fb("r3"))
        assert one.render() == two.render()


def test_prompt_grows_only_with_cache_summary():
    small = build_baseline_prompt(SIG_2, "(1, a)").render()
    big = build_baseline_prompt(SIG_2, "(1, a), (2, b)").render()
    assert len(big) - len(small) == len("(1, a), (2, b)") - len("(1, a)")


# A source line may hold anything but a newline, and must not start with a gap
# anchor; a source may end in blank lines.
source_lines = st.lists(
    st.text(st.characters(blacklist_characters="\n"), max_size=30).filter(
        lambda line: not line.startswith((MISSING_LINES_ANCHOR, MISSING_BRANCHES_ANCHOR))),
    max_size=8)
sources = st.builds(lambda lines, blanks: "\n".join(lines) + "\n" * blanks,
                    source_lines, st.integers(0, 3))
line_sets = st.frozensets(st.integers(1, 10**6), min_size=1, max_size=6)
branch_gaps = st.lists(st.builds(BranchGap, st.integers(1, 10**6), st.integers(0, 99)),
                       min_size=1, max_size=6).map(tuple)


def read_back(prompt: str) -> tuple[str, list[int]]:
    match = ANALYST_PROMPT_RE.search(prompt)
    return match[1], [int(line) for line in GAP_LINE_RE.findall(match[2])]


class TestAnalystPrompt:
    @given(sources, line_sets, st.text())
    def test_line_prompt_reads_back(self, source, lines, current_prompt):
        prompt = line_feedback_prompt(source, lines, current_prompt)
        assert read_back(prompt) == (source, sorted(lines))

    @given(sources, branch_gaps, st.text())
    def test_branch_prompt_reads_back(self, source, gaps, current_prompt):
        prompt = branch_feedback_prompt(source, gaps, current_prompt)
        assert read_back(prompt) == (source, [gap.line for gap in gaps])
