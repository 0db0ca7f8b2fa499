"""Tests for coverage parsing and the JSON coverage artifact."""

import itertools
import json
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import artifact_fields
from covloop.errors import CovloopError
from covloop.evaluator import (
    emit_artifact,
    parse_gcov,
)
from covloop.model import BranchGap, CoverageReport


def line(number, count, *arms, unexecuted_block=None):
    """One `lines` item of a `gcov -b --json-format` file entry."""
    return {
        "line_number": number,
        "count": count,
        "unexecuted_block": count == 0 if unexecuted_block is None else unexecuted_block,
        "function_name": "main",
        "branches": [
            {"count": n, "fallthrough": i == 0, "throw": False}
            for i, n in enumerate(arms)
        ],
    }


def entry(*lines, name="fixture.c"):
    return {"file": name, "functions": [], "lines": list(lines)}


# Hand-built gcov entry: 10 executable lines, 8 executed; 4 branch arms, 3
# taken. Expected: line 80.00, branch 75.00.
GCOV_FIXTURE = entry(
    line(2, 2),
    line(3, 2),
    line(4, 2),
    line(5, 2, 1, 1),
    line(6, 1),
    line(8, 2, 0, 2),
    line(9, 0),
    line(11, 2),
    line(12, 2),
    line(13, 0),
)


# gcov listings that repeat lines in any order: (line, count, arm hits) each.
listings = st.lists(st.tuples(
    st.integers(1, 8), st.integers(0, 3), st.lists(st.integers(0, 2), max_size=3),
), max_size=12)


class TestParseGcov:
    def test_hand_computed_percentages(self):
        report = parse_gcov(GCOV_FIXTURE)
        assert report.executed_lines == frozenset({2, 3, 4, 5, 6, 8, 11, 12})
        assert report.missing_lines == frozenset({9, 13})
        assert report.line_coverage == 80.0
        assert report.total_branches == 4
        assert report.taken_branches == 3
        assert report.branch_coverage == 75.0
        assert report.missing_branches == (BranchGap(line=8, branch_id=0),)

    def test_no_branch_annotations_means_full_branch_coverage(self):
        report = parse_gcov(entry(line(1, 1)))
        assert report.branch_coverage == 100.0
        assert report.total_branches == 0

    def test_all_lines_unexecuted(self):
        report = parse_gcov(entry(line(1, 0), line(2, 0)))
        assert report.line_coverage == 0.0
        assert report.executed_lines == frozenset()

    def test_never_executed_branch_is_a_gap(self):
        report = parse_gcov(entry(line(4, 1, 0, 1)))
        assert report.missing_branches == (BranchGap(line=4, branch_id=0),)

    def test_unexecuted_block_with_positive_count_is_executed(self):
        report = parse_gcov(entry(line(7, 4, unexecuted_block=True)))
        assert report.executed_lines == frozenset({7})

    def test_line_listed_twice_is_merged(self):
        # Two one-line functions on line 2: gcov lists the line once per function.
        report = parse_gcov(entry(line(2, 3, 2, 1), line(2, 0, 0, 0), line(3, 1)))
        assert report.executed_lines == frozenset({2, 3})
        assert report.missing_lines == frozenset()
        assert report.total_branches == 4
        assert report.missing_branches == (
            BranchGap(line=2, branch_id=2),
            BranchGap(line=2, branch_id=3),
        )

    def test_malformed_document_raises(self):
        for bad in (
            {},
            {"lines": [{"line_number": 1}]},
            entry(line(1, "#####")),
            entry({"line_number": "x", "count": 1, "branches": []}),
            entry(line(1, 1) | {"branches": [{"taken": 1}]}),
            [],
        ):
            with pytest.raises(CovloopError, match="does not match expected schema"):
                parse_gcov(bad)


    def test_gaps_of_lines_listed_out_of_order_come_sorted(self):
        report = parse_gcov(entry(line(9, 1, 0), line(2, 1, 1, 0), line(9, 1, 0)))
        assert report.missing_branches == (
            BranchGap(line=2, branch_id=1),
            BranchGap(line=9, branch_id=0),
            BranchGap(line=9, branch_id=1),
        )

    @settings(max_examples=100)
    @given(listings)
    def test_counters_agree_with_the_listed_lines_and_arms(self, listing):
        # Counters are derived from the listing, so no entry is inconsistent,
        # even with a line listed more than once under different counts.
        report = parse_gcov(entry(*(line(n, count, *arms) for n, count, arms in listing)))
        arms = [hit for _, _, hits in listing for hit in hits]
        assert report.executed_lines == {n for n, count, _ in listing if count}
        assert report.missing_lines == {n for n, _, _ in listing} - report.executed_lines
        assert report.total_branches == len(arms)
        assert report.taken_branches == sum(hit > 0 for hit in arms)
        # Each line numbers its arms in listing order; the gaps come sorted.
        arm_numbers = defaultdict(itertools.count)
        numbered = [(n, next(arm_numbers[n]), hit) for n, _, hits in listing for hit in hits]
        assert report.missing_branches == tuple(
            BranchGap(n, arm) for n, arm, hit in sorted(numbered) if not hit)

    @settings(max_examples=100)
    @given(listings)
    def test_percentages_lie_in_range(self, listing):
        # The counts bound every percentage, so total_coverage needs no check.
        report = parse_gcov(entry(*(line(n, count, *arms) for n, count, arms in listing)))
        for pct in (report.line_coverage, report.branch_coverage, report.total_coverage):
            assert 0.0 <= pct <= 100.0


def report_of(executed, missing, total, gaps=()):
    return CoverageReport(
        executed_lines=frozenset(executed),
        missing_lines=frozenset(missing),
        total_branches=total,
        missing_branches=tuple(gaps),
    )


class TestArtifact:
    def test_two_decimal_rendering(self, tmp_path):
        report = report_of({1, 2, 3, 4}, {5}, 4, [BranchGap(2, 1)])
        path = emit_artifact(report, tmp_path / "cov.json")
        text = path.read_text()
        assert '"line_coverage": 80.00' in text
        assert '"branch_coverage": 75.00' in text
        assert '"total_coverage": 77.50' in text

    def test_degenerate_report_is_all_full(self, tmp_path):
        path = emit_artifact(report_of((), (), 0), tmp_path / "cov.json")
        text = path.read_text()
        assert '"executed_lines": []' in text
        assert '"total_coverage": 100.00' in text

    def test_round_trip_identity(self, tmp_path):
        report = report_of({1, 3}, {2}, 2, [BranchGap(3, 0)])
        path = emit_artifact(report, tmp_path / "cov.json")
        assert json.loads(path.read_text()) == {
            "executed_lines": [1, 3],
            "missing_lines": [2],
            "missing_branches": [{"line": 3, "branch_id": 0}],
            "total_branches": 2,
            "taken_branches": 1,
            "line_coverage": 66.67,
            "branch_coverage": 50.0,
            "total_coverage": 58.33,
        }


reports = st.builds(
    lambda executed, missing_extra, gaps: CoverageReport(
        executed_lines=frozenset(executed),
        missing_lines=frozenset(n + 1000 for n in missing_extra),
        total_branches=len(gaps) + len(executed),
        missing_branches=tuple(
            BranchGap(line=line, branch_id=arm) for line, arm in sorted(set(gaps))
        ),
    ),
    st.sets(st.integers(1, 500), max_size=40),
    st.sets(st.integers(1, 500), max_size=40),
    st.sets(
        st.tuples(st.integers(1, 500), st.integers(0, 3)), max_size=20
    ),
)


@settings(max_examples=100)
@given(reports)
def test_artifact_round_trip_for_randomized_reports(tmp_path_factory, report):
    path = tmp_path_factory.mktemp("artifacts") / "cov.json"
    emit_artifact(report, path)
    assert json.loads(path.read_text()) == artifact_fields(report)
