"""Tests for coverage parsing and the JSON artifact round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covloop.errors import ParseError
from covloop.evaluator import (
    emit_artifact,
    parse_gcov,
    read_artifact,
    render_artifact,
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
            with pytest.raises(ParseError):
                parse_gcov(bad)


    @settings(max_examples=100)
    @given(st.lists(st.tuples(
        st.integers(1, 8), st.integers(0, 3), st.lists(st.integers(0, 2), max_size=3),
    ), max_size=12))
    def test_counters_agree_with_the_listed_lines_and_arms(self, listing):
        # Counters are derived from the listing, so no entry is inconsistent,
        # even with a line listed more than once under different counts.
        report = parse_gcov(entry(*(line(n, count, *arms) for n, count, arms in listing)))
        arms = [hit for _, _, hits in listing for hit in hits]
        assert report.executed_lines == {n for n, count, _ in listing if count}
        assert report.missing_lines == {n for n, _, _ in listing} - report.executed_lines
        assert report.total_branches == len(arms)
        assert report.taken_branches == sum(hit > 0 for hit in arms)


def report_of(executed, missing, total, taken, gaps=()):
    return CoverageReport(
        executed_lines=frozenset(executed),
        missing_lines=frozenset(missing),
        total_branches=total,
        taken_branches=taken,
        missing_branches=tuple(gaps),
    )


class TestArtifact:
    def test_two_decimal_rendering(self, tmp_path):
        report = report_of({1, 2, 3, 4}, {5}, 4, 3, [BranchGap(2, 1)])
        path = emit_artifact(report, tmp_path / "cov.json")
        text = path.read_text()
        assert '"line_coverage": 80.00' in text
        assert '"branch_coverage": 75.00' in text
        assert '"total_coverage": 77.50' in text

    def test_degenerate_report_is_all_full(self, tmp_path):
        path = emit_artifact(report_of((), (), 0, 0), tmp_path / "cov.json")
        text = path.read_text()
        assert '"executed_lines": []' in text
        assert '"total_coverage": 100.00' in text

    def test_round_trip_identity(self, tmp_path):
        report = report_of({1, 3}, {2}, 2, 1, [BranchGap(3, 0)])
        path = emit_artifact(report, tmp_path / "cov.json")
        assert read_artifact(path) == report

    def test_inconsistent_artifact_raises(self, tmp_path):
        path = emit_artifact(report_of({1}, (), 2, 1, [BranchGap(1, 0)]), tmp_path / "cov.json")
        path.write_text(path.read_text().replace('"taken_branches": 1', '"taken_branches": 2'))
        with pytest.raises(ParseError):
            read_artifact(path)

    def test_gap_entries_carry_taken_flag(self):
        text = render_artifact(report_of({1}, (), 1, 0, [BranchGap(1, 0)]))
        assert '"taken": false' in text


reports = st.builds(
    lambda executed, missing_extra, gaps: CoverageReport(
        executed_lines=frozenset(executed),
        missing_lines=frozenset(n + 1000 for n in missing_extra),
        total_branches=len(gaps) + len(executed),
        taken_branches=len(executed),
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
    assert read_artifact(path) == report
