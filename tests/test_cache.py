"""Tests for the test-suite cache: keys, dedup, persistence, prompt summary."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covloop.cache import TestSuiteCache, canonical_key, render_key
from covloop.model import TestCase

# Values a TestCase accepts: no line breaks, no lone surrogates (not UTF-8).
values = st.lists(
    st.text(alphabet=st.characters(blacklist_characters="\n\r",
                                   blacklist_categories=("Cs",)), max_size=6),
    max_size=4,
)


class TestCanonicalKey:
    def test_trims_surrounding_whitespace(self):
        assert canonical_key(TestCase(("1", " a "))) == ("1", "a")

    def test_empty(self):
        assert canonical_key(TestCase(())) == ()

    def test_deterministic(self):
        assert canonical_key(TestCase(("1", "2"))) == canonical_key(
            TestCase(("1", "2"))
        )

    def test_no_numeric_normalization(self):
        assert canonical_key(TestCase(("01",))) != canonical_key(TestCase(("1",)))


class TestInsert:
    def test_duplicate_insert(self):
        cache = TestSuiteCache()
        assert cache.insert_if_novel(TestCase(("1", "2"))) is True
        assert cache.insert_if_novel(TestCase(("1", "2"))) is False
        assert len(cache) == 1

    def test_order_matters(self):
        cache = TestSuiteCache()
        assert cache.insert_if_novel(TestCase(("1", "2"))) is True
        assert cache.insert_if_novel(TestCase(("2", "1"))) is True
        assert len(cache) == 2

    def test_n_distinct_inserts(self):
        cache = TestSuiteCache()
        for i in range(25):
            cache.insert_if_novel(TestCase((str(i),)))
        assert len(cache) == 25

    def test_whitespace_variant_is_duplicate(self):
        cache = TestSuiteCache()
        cache.insert_if_novel(TestCase(("7",)))
        assert cache.insert_if_novel(TestCase((" 7 ",))) is False

    @given(st.lists(values, max_size=30))
    def test_true_returns_equal_final_size(self, batches):
        cache = TestSuiteCache()
        accepted = sum(
            cache.insert_if_novel(TestCase(tuple(v))) for v in batches
        )
        assert accepted == len(cache)


class TestPersist:
    def test_naming_and_content(self, tmp_path):
        cases = [TestCase(("5", "hello")), TestCase(("1",))]
        paths = TestSuiteCache.persist_novel(cases, tmp_path, 0)
        assert [p.name for p in paths] == ["test_0000.txt", "test_0001.txt"]
        assert paths[0].read_text() == "5\nhello\n"

    def test_since_index_skips_already_written(self, tmp_path):
        TestSuiteCache.persist_novel([TestCase(("a",))], tmp_path, 0)
        paths = TestSuiteCache.persist_novel([TestCase(("b",))], tmp_path, 1)
        assert [p.name for p in paths] == ["test_0001.txt"]
        assert (tmp_path / "test_0000.txt").read_text() == "a\n"

    def test_since_index_at_end_writes_nothing(self, tmp_path):
        assert TestSuiteCache.persist_novel([], tmp_path, 1) == []
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_directory_raises(self, tmp_path):
        missing = tmp_path / "not" / "created"
        with pytest.raises(FileNotFoundError) as exc:
            TestSuiteCache.persist_novel([TestCase(("a",))], missing, 0)
        assert "test_0000.txt" in str(exc.value)


class TestSummary:
    def test_empty_cache_is_empty_string(self):
        assert TestSuiteCache().summary_for_prompt(10) == ""

    def test_single_case(self):
        cache = TestSuiteCache()
        cache.insert_if_novel(TestCase(("1", "a")))
        assert cache.summary_for_prompt(10) == "(1, a)"

    def test_truncation_marker(self):
        cache = TestSuiteCache()
        for i in range(300):
            cache.insert_if_novel(TestCase((str(i),)))
        summary = cache.summary_for_prompt(200)
        assert summary.endswith("(+100 older)")
        assert summary.count("(") == 201
        assert "(100)" in summary  # oldest kept entry
        assert "(99)" not in summary  # newest dropped entry

    def test_render_key(self):
        assert render_key(("1", "a")) == "(1, a)"


def test_insert_cost_stays_roughly_constant():
    # Duplicate lookup is a set probe: a fixed batch of duplicate inserts
    # costs about the same against 1k and 100k entries, where a linear scan
    # would cost ~100x more. Timing only duplicates keeps list growth and
    # allocation out of the measurement.
    def filled(n):
        cache = TestSuiteCache()
        for i in range(n):
            cache.insert_if_novel(TestCase((str(i), str(i % 7))))
        return cache

    batch = [TestCase((str(i), str(i % 7))) for i in range(1000)]

    def duplicate_batch_cost(cache):
        best = float("inf")
        for _ in range(7):
            start = time.perf_counter()
            for tc in batch:
                assert not cache.insert_if_novel(tc)
            best = min(best, time.perf_counter() - start)
        return best

    small, large = filled(1_000), filled(100_000)
    duplicate_batch_cost(small)  # warm-up: code and allocator caches
    assert duplicate_batch_cost(large) / duplicate_batch_cost(small) <= 5.0
