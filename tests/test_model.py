"""Tests for the shared domain types and the combined-coverage formula."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covloop.errors import ContractViolation
from covloop.model import (
    BranchGap,
    CoverageReport,
    FeedbackOrigin,
    FeedbackRefinement,
    InputKind,
    InputSignature,
    IterationRecord,
    RunConfig,
    TestCase,
    format_pct,
    total_coverage,
)

pct = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestTotalCoverage:
    def test_benchmark_row_values(self):
        # 60.00 line / 37.50 branch is a published-style row; mean is 48.75.
        assert total_coverage(60.00, 37.50) == 48.75

    def test_zero(self):
        assert total_coverage(0, 0) == 0

    def test_full(self):
        assert total_coverage(100, 100) == 100

    @pytest.mark.parametrize("bad", [(-0.1, 50), (50, 100.1), (1000, 1000)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ContractViolation):
            total_coverage(*bad)

    @given(pct, pct)
    def test_symmetric_and_bounded(self, a, b):
        result = total_coverage(a, b)
        assert result == total_coverage(b, a)
        assert min(a, b) <= result <= max(a, b)
        assert 0.0 <= result <= 100.0


class TestCoverageReport:
    def make(self, executed, missing, total, taken, gaps=()):
        return CoverageReport(
            executed_lines=frozenset(executed),
            missing_lines=frozenset(missing),
            total_branches=total,
            taken_branches=taken,
            missing_branches=tuple(gaps),
        )

    def test_percentages_recomputable(self):
        report = self.make(
            {1, 2, 3, 4}, {5}, 4, 3, [BranchGap(line=2, branch_id=1)]
        )
        assert abs(report.line_coverage - 100 * 4 / 5) < 1e-9
        assert abs(report.branch_coverage - 100 * 3 / 4) < 1e-9
        expected_total = (report.line_coverage + report.branch_coverage) / 2
        assert abs(report.total_coverage - expected_total) < 1e-9

    def test_degenerate_no_lines_is_full(self):
        assert self.make(set(), set(), 0, 0).line_coverage == 100.0

    def test_degenerate_no_branches_is_full(self):
        assert self.make({1}, set(), 0, 0).branch_coverage == 100.0

    def test_overlapping_lines_rejected(self):
        with pytest.raises(ContractViolation):
            self.make({1, 2}, {2, 3}, 0, 0)

    def test_branch_counter_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            self.make({1}, set(), 3, 1, [BranchGap(line=1, branch_id=0)])

    def test_taken_above_total_rejected(self):
        with pytest.raises(ContractViolation):
            self.make({1}, set(), 1, 2)

    def test_taken_gap_rejected(self):
        with pytest.raises(ContractViolation):
            self.make({1}, set(), 1, 0, [BranchGap(line=1, branch_id=0, taken=True)])

    def test_gaps_sorted_canonically(self):
        report = self.make(
            {1}, set(), 2, 0,
            [BranchGap(line=9, branch_id=0), BranchGap(line=2, branch_id=1)],
        )
        assert [g.line for g in report.missing_branches] == [2, 9]


class TestInputSignature:
    def test_valid(self):
        sig = InputSignature(2, (InputKind.INTEGER, InputKind.STRING))
        assert sig.count == 2

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            InputSignature(1, ())

    def test_negative_count_rejected(self):
        with pytest.raises(ContractViolation):
            InputSignature(-1, ())


class TestTestCase:
    def test_stdin_payload_joins_with_trailing_newline(self):
        assert TestCase(("5", "hello")).stdin_payload() == "5\nhello\n"

    def test_empty_case_has_empty_payload(self):
        assert TestCase(()).stdin_payload() == ""

    @pytest.mark.parametrize("bad", ["a\nb", "x\r"])
    def test_embedded_newline_rejected(self, bad):
        with pytest.raises(ContractViolation):
            TestCase((bad,))


class TestRunConfig:
    def test_defaults_match_loop_constants(self):
        config = RunConfig()
        assert config.threshold == 90.0
        assert config.k_max == 10
        assert config.per_test_timeout == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(threshold=0), dict(threshold=101), dict(k_max=0),
         dict(per_test_timeout=0)],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ContractViolation):
            RunConfig(**kwargs)


class TestIterationRecord:
    def test_negative_novel_rejected(self):
        with pytest.raises(ContractViolation):
            IterationRecord(0, -1, 0, 0, 0, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ContractViolation):
            IterationRecord(-1, 0, 0, 0, 0, 0)


def test_refinement_requires_proposals():
    with pytest.raises(ContractViolation):
        FeedbackRefinement(FeedbackOrigin.LINE, "gap", (), ())


def test_format_pct_renders_two_decimals():
    assert format_pct(77.5) == "77.50"
    assert format_pct(100.0) == "100.00"
    assert format_pct(48.748) == "48.75"
