"""Unit tests for the BAT algebra kernel operators."""

import numpy as np
import pytest

from repro.errors import BATShapeError, BATTypeError
from repro.storage import BAT, CostCounter, kernel


def bat_of(tails, heads=None, **kw):
    return BAT(tails, head=heads, **kw)


class TestSelect:
    def test_select_range_unsorted(self):
        bat = BAT([1, 2, 3, 4, 4, 5])
        out = kernel.select_range(bat, 2, 4)
        assert [t for _, t in out.to_list()] == [2, 3, 4, 4]
        assert [h for h, _ in out.to_list()] == [1, 2, 3, 4]

    def test_select_range_sorted_uses_binary_search(self):
        bat = BAT(np.arange(10_000), tail_sorted=True, persistent=True)
        with CostCounter.activate() as cost:
            out = kernel.select_range(bat, 100, 150)
        assert len(out) == 51
        # binary search + a one-page range scan: far fewer reads than a scan
        assert cost.tuples_read < 1000

    def test_select_range_unsorted_scans_everything(self):
        bat = BAT(np.arange(10_000))
        with CostCounter.activate() as cost:
            kernel.select_range(bat, 100, 150)
        assert cost.tuples_read == 10_000

    def test_select_open_bounds(self):
        bat = BAT([1, 2, 3], tail_sorted=True)
        assert len(kernel.select_range(bat, None, None)) == 3
        assert [t for _, t in kernel.select_range(bat, 2, None).to_list()] == [2, 3]
        assert [t for _, t in kernel.select_range(bat, None, 2).to_list()] == [1, 2]

    def test_select_exclusive_bounds(self):
        bat = BAT([1, 2, 3, 4], tail_sorted=True)
        out = kernel.select_range(bat, 1, 4, include_lo=False, include_hi=False)
        assert [t for _, t in out.to_list()] == [2, 3]

    def test_select_exclusive_bounds_unsorted(self):
        bat = BAT([4, 1, 3, 2])
        out = kernel.select_range(bat, 1, 4, include_lo=False, include_hi=False)
        assert sorted(t for _, t in out.to_list()) == [2, 3]

    def test_select_empty_input(self):
        bat = BAT(np.empty(0, dtype=np.int64), tail_sorted=True)
        assert len(kernel.select_range(bat, 1, 2)) == 0

    def test_select_no_matches(self):
        bat = BAT([1, 2, 3], tail_sorted=True)
        assert len(kernel.select_range(bat, 10, 20)) == 0

    def test_select_eq(self):
        bat = BAT([1, 2, 2, 3])
        out = kernel.select_eq(bat, 2)
        assert [h for h, _ in out.to_list()] == [1, 2]

    def test_select_eq_strings(self):
        bat = BAT(["a", "b", "a"])
        out = kernel.select_eq(bat, "a")
        assert [h for h, _ in out.to_list()] == [0, 2]

    def test_select_mask(self):
        bat = BAT([10, 20, 30])
        out = kernel.select_mask(bat, np.array([True, False, True]))
        assert out.to_list() == [(0, 10), (2, 30)]

    def test_select_mask_length_mismatch(self):
        with pytest.raises(BATShapeError):
            kernel.select_mask(BAT([1, 2]), np.array([True]))

    def test_select_preserves_sortedness_flag(self):
        bat = BAT([1, 2, 3, 4], tail_sorted=True)
        out = kernel.select_range(bat, 2, 3)
        assert out.tail_sorted


class TestJoins:
    def test_fetch_values(self):
        bat = BAT([10.0, 20.0, 30.0], hseqbase=100)
        values = kernel.fetch_values(bat, np.array([102, 100]))
        assert list(values) == [30.0, 10.0]


class TestOrdering:
    def test_sort_tail_ascending(self):
        bat = BAT([3.0, 1.0, 2.0])
        out = kernel.sort_tail(bat)
        assert [t for _, t in out.to_list()] == [1.0, 2.0, 3.0]
        assert out.tail_sorted

    def test_sort_tail_descending(self):
        out = kernel.sort_tail(BAT([3.0, 1.0, 2.0]), descending=True)
        assert [t for _, t in out.to_list()] == [3.0, 2.0, 1.0]
        assert out.tail_sorted_desc

    def test_sort_keeps_pairing(self):
        bat = BAT([3.0, 1.0], head=[30, 10])
        out = kernel.sort_tail(bat)
        assert out.to_list() == [(10, 1.0), (30, 3.0)]

    def test_topn_tail_basic(self):
        bat = BAT([0.5, 0.9, 0.1, 0.7])
        out = kernel.topn_tail(bat, 2)
        assert out.to_list() == [(1, 0.9), (3, 0.7)]

    def test_topn_ascending(self):
        bat = BAT([0.5, 0.9, 0.1, 0.7])
        out = kernel.topn_tail(bat, 2, descending=False)
        assert out.to_list() == [(2, 0.1), (0, 0.5)]

    def test_topn_n_larger_than_input(self):
        bat = BAT([2.0, 1.0])
        out = kernel.topn_tail(bat, 10)
        assert [t for _, t in out.to_list()] == [2.0, 1.0]

    def test_topn_zero(self):
        assert len(kernel.topn_tail(BAT([1.0]), 0)) == 0

    def test_topn_tie_break_by_head(self):
        bat = BAT([1.0, 1.0, 1.0], head=[30, 10, 20])
        out = kernel.topn_tail(bat, 2)
        assert [h for h, _ in out.to_list()] == [10, 20]

    def test_topn_matches_sort_slice(self):
        rng = np.random.default_rng(3)
        scores = rng.random(500)
        bat = BAT(scores)
        via_topn = kernel.topn_tail(bat, 10)
        via_sort = kernel.slice_pairs(kernel.sort_tail(bat, descending=True), 0, 10)
        assert set(h for h, _ in via_topn.to_list()) == set(h for h, _ in via_sort.to_list())

    def test_topn_cheaper_than_sort(self):
        bat = BAT(np.random.default_rng(0).random(20_000))
        with CostCounter.activate() as topn_cost:
            kernel.topn_tail(bat, 10)
        with CostCounter.activate() as sort_cost:
            kernel.slice_pairs(kernel.sort_tail(bat, descending=True), 0, 10)
        assert topn_cost.comparisons < sort_cost.comparisons

    def test_slice_pairs(self):
        bat = BAT([10, 20, 30, 40])
        out = kernel.slice_pairs(bat, 1, 2)
        assert out.to_list() == [(1, 20), (2, 30)]

    def test_slice_beyond_end(self):
        assert len(kernel.slice_pairs(BAT([1, 2]), 5, 3)) == 0


class TestAggregates:
    def test_sum_tail(self):
        assert kernel.sum_tail(BAT([1.0, 2.5])) == 3.5

    def test_sum_empty(self):
        assert kernel.sum_tail(BAT(np.empty(0))) == 0.0

    def test_max_min(self):
        bat = BAT([3, 1, 2])
        assert kernel.max_tail(bat) == 3
        assert kernel.min_tail(bat) == 1

    def test_max_empty_is_none(self):
        assert kernel.max_tail(BAT(np.empty(0))) is None

    def test_aggregate_rejects_strings(self):
        with pytest.raises(BATTypeError):
            kernel.sum_tail(BAT(["a"]))

    def test_unique_tail(self):
        out = kernel.unique_tail(BAT([3, 1, 3, 2]))
        assert [t for _, t in out.to_list()] == [1, 2, 3]
        assert out.tail_key and out.tail_sorted


class TestArithmetic:
    def test_append(self):
        out = kernel.append(BAT([1, 2]), BAT([3], hseqbase=2))
        assert [t for _, t in out.to_list()] == [1, 2, 3]

    def test_append_dtype_mismatch(self):
        with pytest.raises(BATTypeError):
            kernel.append(BAT([1]), BAT(["a"]))
