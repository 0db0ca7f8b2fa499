"""Tests for baseline prompt construction and refinement merging."""

from covloop.backends import _prompt_kinds
from covloop.model import (
    FeedbackOrigin,
    FeedbackRefinement,
    InputKind,
    InputSignature,
)
from covloop.prompts import build_baseline_prompt, merge_refinements

SIG_2 = InputSignature(2, (InputKind.INTEGER, InputKind.STRING))
SIG_0 = InputSignature(0, ())
SIG_ALL = InputSignature(len(InputKind), tuple(InputKind))


def line_fb(*refinements):
    return FeedbackRefinement(
        FeedbackOrigin.LINE, "lines were skipped", ("p",), refinements
    )


def branch_fb(*refinements):
    return FeedbackRefinement(
        FeedbackOrigin.BRANCH, "arms were skipped", ("p",), refinements
    )


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
            assert _prompt_kinds(build_baseline_prompt(sig, "").render()) == list(sig.kinds)

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
