"""Tests for the shared domain types and the combined-coverage formula."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covloop.errors import ContractViolation
from covloop.model import (
    BranchGap,
    CoverageReport,
    IterationRecord,
    RunConfig,
    TestCase,
    format_pct,
)


def report(lines_run: int, lines: int, arms_taken: int, arms: int) -> CoverageReport:
    """A report with `lines_run` of `lines` lines run and `arms_taken` of
    `arms` branch arms taken."""
    return CoverageReport(
        executed_lines=frozenset(range(1, lines_run + 1)),
        missing_lines=frozenset(range(lines_run + 1, lines + 1)),
        total_branches=arms,
        missing_branches=tuple(BranchGap(line=1, branch_id=i)
                               for i in range(arms - arms_taken)),
    )


class TestTotalCoverage:
    """The loop-exit metric is the mean of a report's two percentages."""

    def test_benchmark_row_values(self):
        # 60.00 line / 37.50 branch is a published-style row; mean is 48.75.
        assert report(3, 5, 3, 8).total_coverage == 48.75

    def test_zero(self):
        assert report(0, 4, 0, 2).total_coverage == 0

    def test_full(self):
        assert report(4, 4, 2, 2).total_coverage == 100

    @given(st.integers(1, 500), st.data())
    def test_symmetric_and_bounded(self, n, data):
        a, b = (data.draw(st.integers(0, n)) for _ in range(2))
        result = report(a, n, b, n).total_coverage
        assert result == report(b, n, a, n).total_coverage
        assert min(a, b) * 100 / n <= result <= max(a, b) * 100 / n
        assert 0.0 <= result <= 100.0


class TestCoverageReport:
    def make(self, executed, missing, total, gaps=()):
        return CoverageReport(
            executed_lines=frozenset(executed),
            missing_lines=frozenset(missing),
            total_branches=total,
            missing_branches=tuple(gaps),
        )

    def test_percentages_recomputable(self):
        report = self.make({1, 2, 3, 4}, {5}, 4, [BranchGap(line=2, branch_id=1)])
        assert report.taken_branches == 3
        assert abs(report.line_coverage - 100 * 4 / 5) < 1e-9
        assert abs(report.branch_coverage - 100 * 3 / 4) < 1e-9
        expected_total = (report.line_coverage + report.branch_coverage) / 2
        assert abs(report.total_coverage - expected_total) < 1e-9

    def test_degenerate_no_lines_is_full(self):
        assert self.make(set(), set(), 0).line_coverage == 100.0

    def test_degenerate_no_branches_is_full(self):
        assert self.make({1}, set(), 0).branch_coverage == 100.0

    def test_taken_is_the_arms_not_missing(self):
        gaps = [BranchGap(line=2, branch_id=0), BranchGap(line=2, branch_id=1)]
        assert self.make({1, 2}, set(), 5, gaps).taken_branches == 3
        assert self.make({1, 2}, set(), 2, gaps).taken_branches == 0


class TestTestCase:
    def test_stdin_payload_joins_with_trailing_newline(self):
        assert TestCase(("5", "hello")).stdin_payload() == "5\nhello\n"

    def test_empty_case_has_empty_payload(self):
        assert TestCase(()).stdin_payload() == ""

    @pytest.mark.parametrize("bad", ["a\nb", "x\r"])
    def test_embedded_newline_rejected(self, bad):
        with pytest.raises(ContractViolation):
            TestCase((bad,))

    def test_lone_surrogate_rejected(self):
        with pytest.raises(ContractViolation, match="UTF-8"):
            TestCase(("ok", "\ud800"))


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


def test_iteration_record_derives_its_total_coverage():
    record = IterationRecord(novel_tests=3, report=report(4, 5, 1, 2), duration=0.1)
    assert record.report.total_coverage == 65.0


def test_format_pct_renders_two_decimals():
    assert format_pct(77.5) == "77.50"
    assert format_pct(100.0) == "100.00"
    assert format_pct(48.748) == "48.75"
