"""Shared domain types: input signatures, test cases, coverage reports, run config.

All types here are immutable values and safe to share between threads.
Percentages are kept unrounded in memory; rounding to two decimals happens
only when reports are written out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractViolation


class Language(enum.Enum):
    C = "c"
    PYTHON = "python"


class InputKind(enum.Enum):
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    CHAR = "char"


class Termination(enum.Enum):
    THRESHOLD_MET = "threshold_met"
    K_MAX_REACHED = "k_max_reached"
    BACKEND_FAILURE = "backend_failure"
    STAGNATED = "stagnated"


# The ordered kinds of the stdin reads one execution performs.
InputSignature = tuple[InputKind, ...]


@dataclass(frozen=True)
class TestCase:
    """One ordered list of stdin lines fed to a single execution."""

    values: tuple[str, ...]

    def __post_init__(self):
        for v in self.values:
            if "\n" in v or "\r" in v:
                raise ContractViolation(f"test value contains a newline: {v!r}")
            try:
                v.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ContractViolation(f"test value does not encode as UTF-8: {v!r}") from exc

    def stdin_payload(self) -> str:
        """The exact bytes-as-text written to the child's stdin."""
        return "".join(v + "\n" for v in self.values)


@dataclass(frozen=True, order=True)
class BranchGap:
    """One conditional outcome arm that was never executed."""

    line: int
    branch_id: int


@dataclass(frozen=True)
class CoverageReport:
    """Normalized line and branch coverage for one target.

    `executed_lines` and `missing_lines` are disjoint. `missing_branches`
    holds the never-taken arms in (line, arm) order, out of `total_branches`
    arms. The taken count and the percentages are derived on access, so they
    are always consistent with these fields. A target with no measurable
    lines (or no branches) is reported as 100% covered on that axis: there is
    nothing left to reach, and the loop must be able to terminate.
    """

    executed_lines: frozenset[int]
    missing_lines: frozenset[int]
    total_branches: int
    missing_branches: tuple[BranchGap, ...]

    @property
    def taken_branches(self) -> int:
        return self.total_branches - len(self.missing_branches)

    @property
    def line_coverage(self) -> float:
        denom = len(self.executed_lines) + len(self.missing_lines)
        if denom == 0:
            return 100.0
        return 100.0 * len(self.executed_lines) / denom

    @property
    def branch_coverage(self) -> float:
        if self.total_branches == 0:
            return 100.0
        return 100.0 * self.taken_branches / self.total_branches

    @property
    def total_coverage(self) -> float:
        """The single loop-exit metric: the mean of the two percentages."""
        return (self.line_coverage + self.branch_coverage) / 2.0


@dataclass(frozen=True)
class FeedbackRefinement:
    """Structured output of one feedback agent."""

    gap_explanation: str
    prompt_refinements: tuple[str, ...]


# Longest per-test timeout, in seconds: the test server waits for a reply with
# poll(), which takes at most 2**31 - 1 ms, timeout and grace period together.
MAX_TEST_TIMEOUT = 86400.0


@dataclass(frozen=True)
class RunConfig:
    """Parameters for one feedback-loop run over a single target."""

    threshold: float = 90.0
    k_max: int = 10
    per_test_timeout: float = 5.0
    model_id: str = "stub"
    workdir: Path = Path("covloop_out")
    endpoint: str | None = None
    line_feedback_enabled: bool = True
    branch_feedback_enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.threshold <= 100.0:
            raise ContractViolation(f"threshold must be in (0, 100]: {self.threshold}")
        if self.k_max < 1:
            raise ContractViolation(f"k_max must be >= 1: {self.k_max}")
        if self.per_test_timeout <= 0:
            raise ContractViolation("per_test_timeout must be positive")
        if not self.per_test_timeout <= MAX_TEST_TIMEOUT:
            raise ContractViolation(f"per_test_timeout must be at most "
                                    f"{MAX_TEST_TIMEOUT:g} seconds: {self.per_test_timeout}")


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one loop iteration, feeding reports and coverage curves.
    Its iteration index is its position in the run's list of records."""

    novel_tests: int
    report: CoverageReport  # cumulative, after this iteration's tests
    duration: float


def format_pct(value: float) -> str:
    """Two-decimal rendering used by every emitted report."""
    return f"{value:.2f}"
