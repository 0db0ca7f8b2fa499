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


class BackendKind(enum.Enum):
    STUB = "stub"
    HTTP = "http"


class Termination(enum.Enum):
    THRESHOLD_MET = "threshold_met"
    K_MAX_REACHED = "k_max_reached"
    BACKEND_FAILURE = "backend_failure"


class FeedbackOrigin(enum.Enum):
    LINE = "line"
    BRANCH = "branch"


def total_coverage(line_pct: float, branch_pct: float) -> float:
    """Combine line and branch percentages into the single loop-exit metric.

    Both inputs must lie in [0, 100]; the result is their arithmetic mean.
    """
    for name, value in (("line_pct", line_pct), ("branch_pct", branch_pct)):
        if not 0.0 <= value <= 100.0:
            raise ContractViolation(f"{name} out of range [0, 100]: {value!r}")
    return (line_pct + branch_pct) / 2.0


@dataclass(frozen=True)
class InputSignature:
    """Number and ordered kinds of stdin reads one execution performs."""

    count: int
    kinds: tuple[InputKind, ...]

    def __post_init__(self):
        if self.count < 0:
            raise ContractViolation(f"count must be non-negative, got {self.count}")
        if len(self.kinds) != self.count:
            raise ContractViolation(
                f"kinds length {len(self.kinds)} does not match count {self.count}"
            )


@dataclass(frozen=True)
class TestCase:
    """One ordered list of stdin lines fed to a single execution."""

    values: tuple[str, ...]

    def __post_init__(self):
        for v in self.values:
            if "\n" in v or "\r" in v:
                raise ContractViolation(f"test value contains a newline: {v!r}")

    def stdin_payload(self) -> str:
        """The exact bytes-as-text written to the child's stdin."""
        return "".join(v + "\n" for v in self.values)


@dataclass(frozen=True, order=True)
class BranchGap:
    """One conditional outcome arm that was never executed."""

    line: int
    branch_id: int
    taken: bool = False


@dataclass(frozen=True)
class CoverageReport:
    """Normalized line and branch coverage for one target.

    Percentages are derived from the raw sets and counters on access, so they
    are always consistent with them. A target with no measurable lines (or no
    branches) is reported as 100% covered on that axis: there is nothing left
    to reach, and the loop must be able to terminate.
    """

    executed_lines: frozenset[int]
    missing_lines: frozenset[int]
    total_branches: int
    taken_branches: int
    missing_branches: tuple[BranchGap, ...]

    def __post_init__(self):
        if self.executed_lines & self.missing_lines:
            raise ContractViolation("executed_lines and missing_lines overlap")
        if not 0 <= self.taken_branches <= self.total_branches:
            raise ContractViolation(
                f"taken_branches {self.taken_branches} outside "
                f"[0, {self.total_branches}]"
            )
        if len(self.missing_branches) != self.total_branches - self.taken_branches:
            raise ContractViolation(
                f"{len(self.missing_branches)} missing branch arms do not account "
                f"for {self.total_branches} total minus {self.taken_branches} taken"
            )
        if any(gap.taken for gap in self.missing_branches):
            raise ContractViolation("missing_branches may only hold never-taken arms")
        # Canonical ordering keeps value equality independent of parse order.
        object.__setattr__(
            self, "missing_branches", tuple(sorted(self.missing_branches))
        )

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
        return total_coverage(self.line_coverage, self.branch_coverage)


@dataclass(frozen=True)
class FeedbackRefinement:
    """Structured output of one feedback agent."""

    origin: FeedbackOrigin
    gap_explanation: str
    input_patterns: tuple[str, ...]
    prompt_refinements: tuple[str, ...]

    def __post_init__(self):
        if not self.prompt_refinements:
            raise ContractViolation("a feedback refinement must propose something")


@dataclass(frozen=True)
class RunConfig:
    """Parameters for one feedback-loop run over a single target."""

    threshold: float = 90.0
    k_max: int = 10
    per_test_timeout: float = 5.0
    backend: BackendKind = BackendKind.STUB
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


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one loop iteration, feeding reports and coverage curves."""

    k: int
    novel_tests: int
    line_coverage: float
    branch_coverage: float
    total_coverage: float
    duration: float

    def __post_init__(self):
        if self.k < 0:
            raise ContractViolation(f"iteration index must be >= 0: {self.k}")
        if self.novel_tests < 0:
            raise ContractViolation(f"novel_tests must be >= 0: {self.novel_tests}")


def format_pct(value: float) -> str:
    """Two-decimal rendering used by every emitted report."""
    return f"{value:.2f}"
