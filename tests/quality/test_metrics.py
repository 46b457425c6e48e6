"""Unit and property tests for retrieval-quality metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QualityError
from repro.quality import (
    average_precision,
    mean_over_queries,
    overlap_at,
    precision_at,
)


class TestPrecisionRecall:
    def test_perfect(self):
        assert precision_at([1, 2, 3], {1, 2, 3}, 3) == 1.0

    def test_half(self):
        assert precision_at([1, 9, 2, 8], {1, 2}, 4) == 0.5

    def test_short_ranking_penalized(self):
        # only 1 result returned but n=10: precision counts the misses
        assert precision_at([1], {1}, 10) == 0.1

    def test_empty_ranking(self):
        assert precision_at([], {1}, 5) == 0.0

    def test_duplicates_rejected(self):
        with pytest.raises(QualityError):
            precision_at([1, 1], {1}, 2)

    def test_invalid_n(self):
        with pytest.raises(QualityError):
            precision_at([1], {1}, 0)


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([1, 2], {1, 2}) == 1.0

    def test_textbook_example(self):
        # relevant at ranks 1, 3, 5 out of 3 relevant total:
        # AP = (1/1 + 2/3 + 3/5) / 3
        ap = average_precision([1, 9, 2, 8, 3], {1, 2, 3})
        assert ap == pytest.approx((1 + 2 / 3 + 3 / 5) / 3)

    def test_missing_relevant_lowers_ap(self):
        assert average_precision([1], {1, 2}) == pytest.approx(0.5)

    def test_cutoff(self):
        full = average_precision([9, 8, 1], {1})
        cut = average_precision([9, 8, 1], {1}, cutoff=2)
        assert full > 0 and cut == 0.0

    def test_empty_relevant(self):
        assert average_precision([1, 2], set()) == 0.0


class TestOverlap:
    def test_identical(self):
        assert overlap_at([1, 2, 3], [3, 2, 1], 3) == 1.0  # sets, not order

    def test_disjoint(self):
        assert overlap_at([1, 2], [3, 4], 2) == 0.0

    def test_partial(self):
        assert overlap_at([1, 2, 3, 4], [1, 2, 9, 8], 4) == 0.5

    def test_short_lists(self):
        assert overlap_at([], [], 5) == 1.0
        assert overlap_at([1], [], 5) == 0.0

    def test_invalid_n(self):
        with pytest.raises(QualityError):
            overlap_at([1], [1], 0)


class TestMean:
    def test_mean(self):
        assert mean_over_queries([0.5, 1.0]) == 0.75
        assert mean_over_queries([]) == 0.0


@given(st.lists(st.integers(0, 100), unique=True, max_size=40),
       st.sets(st.integers(0, 100), max_size=40),
       st.integers(1, 40))
def test_precision_recall_bounds(ranking, relevant, n):
    assert 0.0 <= precision_at(ranking, relevant, n) <= 1.0
    assert 0.0 <= average_precision(ranking, relevant) <= 1.0


@given(st.lists(st.integers(0, 100), unique=True, max_size=30))
def test_ap_of_exact_ranking_is_one_when_all_relevant(ranking):
    if ranking:
        assert average_precision(ranking, set(ranking)) == 1.0

