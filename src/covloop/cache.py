"""Duplicate filtering and persistence for generated test cases.

Canonical keys are trimmed string tuples held in a set, so membership checks
stay constant-time no matter how large the suite grows. Only novel cases are
kept (insertion order preserved) and written to disk; the cache contents are
also rendered back into prompts to steer generation away from explored values.
"""

from __future__ import annotations

from pathlib import Path

from .errors import PersistError
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
        self._keys: set[CanonicalKey] = set()
        self._ordered: list[TestCase] = []

    def __len__(self) -> int:
        return len(self._ordered)

    def __contains__(self, key: CanonicalKey) -> bool:
        return key in self._keys

    @property
    def ordered(self) -> tuple[TestCase, ...]:
        return tuple(self._ordered)

    def snapshot(self) -> TestSuiteCache:
        """A copy that later inserts into this cache leave unchanged."""
        copy = TestSuiteCache()
        copy._keys = set(self._keys)
        copy._ordered = list(self._ordered)
        return copy

    def insert_if_novel(self, tc: TestCase) -> bool:
        """Append and return True when unseen; return False untouched otherwise."""
        key = canonical_key(tc)
        if key in self._keys:
            return False
        self._keys.add(key)
        self._ordered.append(tc)
        return True

    def persist_novel(self, dir: str | Path, since_index: int) -> list[Path]:
        """Write cases from since_index onward, one file per case.

        Files are named test_<global_index>.txt with a zero-padded 4-digit
        index; content is one stdin value per line, LF endings, UTF-8.
        """
        directory = Path(dir)
        written: list[Path] = []
        for index in range(since_index, len(self._ordered)):
            path = directory / f"test_{index:04d}.txt"
            try:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(self._ordered[index].stdin_payload())
            except OSError as exc:
                raise PersistError(f"cannot write test case file {path}: {exc}") from exc
            written.append(path)
        return written

    def summary_for_prompt(self, limit: int) -> str:
        """Comma-separated rendering of the most recent `limit` keys.

        Older entries collapse into a trailing "(+N older)" marker so prompt
        size stays bounded.
        """
        keys = [canonical_key(tc) for tc in self._ordered]
        omitted = max(0, len(keys) - limit)
        shown = keys[omitted:]
        parts = [render_key(k) for k in shown]
        if omitted:
            parts.append(f"(+{omitted} older)")
        return ", ".join(parts)
