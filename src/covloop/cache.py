"""Duplicate filtering and persistence for generated test cases.

The cache is one insertion-ordered dict from canonical key (a tuple of
trimmed strings) to the first case that had it, so a duplicate check stays
constant-time however large the suite grows. It is the one place the loop
decides whether a case is new. Its keys are also rendered back into prompts
to steer generation away from explored values.
"""

from __future__ import annotations

from pathlib import Path

from .model import TestCase

CanonicalKey = tuple[str, ...]


def canonical_key(tc: TestCase) -> CanonicalKey:
    """Trim surrounding whitespace per value; no other normalization.

    "01" and "1" stay distinct on purpose: raw stdin text can exercise
    different parse paths.
    """
    return tuple(v.strip() for v in tc.values)


def render_key(key: CanonicalKey) -> str:
    return "(" + ", ".join(key) + ")"


class TestSuiteCache:
    """Insertion-ordered store of novel test cases with O(1) duplicate lookup."""

    def __init__(self) -> None:
        self._cases: dict[CanonicalKey, TestCase] = {}

    def __len__(self) -> int:
        return len(self._cases)

    @property
    def ordered(self) -> tuple[TestCase, ...]:
        return tuple(self._cases.values())

    def insert_if_novel(self, tc: TestCase) -> bool:
        """Append and return True when unseen; return False untouched otherwise."""
        key = canonical_key(tc)
        if key in self._cases:
            return False
        self._cases[key] = tc
        return True

    @staticmethod
    def persist_novel(cases: list[TestCase], dir: str | Path, first_index: int) -> list[Path]:
        """Write each case to a file of its own, numbering from first_index.

        Files are named test_<global_index>.txt with a zero-padded 4-digit
        index; content is one stdin value per line, LF endings, UTF-8.
        """
        directory = Path(dir)
        written: list[Path] = []
        for index, tc in enumerate(cases, start=first_index):
            path = directory / f"test_{index:04d}.txt"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(tc.stdin_payload())
            written.append(path)
        return written

    def summary_for_prompt(self, limit: int) -> str:
        """Comma-separated rendering of the most recent `limit` keys.

        Older entries collapse into a trailing "(+N older)" marker so prompt
        size stays bounded.
        """
        keys = list(self._cases)
        omitted = max(0, len(keys) - limit)
        shown = keys[omitted:]
        parts = [render_key(k) for k in shown]
        if omitted:
            parts.append(f"(+{omitted} older)")
        return ", ".join(parts)
