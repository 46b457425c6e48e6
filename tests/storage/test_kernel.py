"""Unit tests for the BAT algebra kernel operators."""

import numpy as np
import pytest

from repro.errors import BATShapeError, BATTypeError
from repro.storage import BAT, CostCounter, kernel


def bat_of(tails, heads=None, **kw):
    return BAT(tails, head=heads, **kw)


class TestStructural:
    def test_reverse_swaps_columns(self):
        bat = BAT([10, 20, 30])
        rev = kernel.reverse(bat)
        assert rev.to_list() == [(10, 0), (20, 1), (30, 2)]

    def test_reverse_requires_int_tail(self):
        with pytest.raises(BATTypeError):
            kernel.reverse(BAT([1.5]))

    def test_reverse_roundtrip(self):
        bat = BAT([5, 3, 4])
        assert kernel.reverse(kernel.reverse(bat)).same_content(bat)

    def test_mirror(self):
        bat = BAT([1.0, 2.0], hseqbase=7)
        mir = kernel.mirror(bat)
        assert mir.to_list() == [(7, 7), (8, 8)]

    def test_mark_numbers_tuples(self):
        bat = BAT([5.0, 1.0, 3.0])
        marked = kernel.mark(bat, base=100)
        assert marked.to_list() == [(0, 100), (1, 101), (2, 102)]
        assert marked.tail_sorted and marked.tail_key


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
    def test_fetchjoin_positional(self):
        left = BAT([2, 0, 1])  # oids into right
        right = BAT([100.0, 200.0, 300.0])
        out = kernel.fetchjoin(left, right)
        assert out.to_list() == [(0, 300.0), (1, 100.0), (2, 200.0)]

    def test_fetchjoin_with_hseqbase(self):
        left = BAT([11, 10])
        right = BAT([5.0, 6.0], hseqbase=10)
        out = kernel.fetchjoin(left, right)
        assert [t for _, t in out.to_list()] == [6.0, 5.0]

    def test_fetchjoin_requires_dense_right(self):
        with pytest.raises(BATShapeError):
            kernel.fetchjoin(BAT([0]), BAT([1.0], head=[0]))

    def test_fetchjoin_out_of_range(self):
        with pytest.raises(BATShapeError):
            kernel.fetchjoin(BAT([5]), BAT([1.0, 2.0]))

    def test_fetch_values(self):
        bat = BAT([10.0, 20.0, 30.0], hseqbase=100)
        values = kernel.fetch_values(bat, np.array([102, 100]))
        assert list(values) == [30.0, 10.0]

    def test_hashjoin_unique_keys(self):
        left = BAT([7, 9], head=[0, 1])
        right = BAT(["seven", "nine"], head=[7, 9])
        out = kernel.hashjoin(left, right)
        assert out.to_list() == [(0, "seven"), (1, "nine")]

    def test_hashjoin_duplicates_both_sides(self):
        left = BAT([1, 1], head=[10, 11])
        right = BAT([100.0, 200.0], head=[1, 1])
        out = kernel.hashjoin(left, right)
        assert sorted(out.to_list()) == [
            (10, 100.0),
            (10, 200.0),
            (11, 100.0),
            (11, 200.0),
        ]

    def test_hashjoin_no_matches(self):
        out = kernel.hashjoin(BAT([1], head=[0]), BAT([2.0], head=[99]))
        assert len(out) == 0

    def test_hashjoin_dense_right_filters_misses(self):
        left = BAT([0, 5], head=[1, 2])  # 5 outside right
        right = BAT([9.0, 8.0])
        out = kernel.hashjoin(left, right)
        assert out.to_list() == [(1, 9.0)]

    def test_semijoin(self):
        left = BAT([1.0, 2.0, 3.0], head=[10, 20, 30])
        right = BAT([0, 0], head=[10, 30])
        out = kernel.semijoin(left, right)
        assert [h for h, _ in out.to_list()] == [10, 30]

    def test_antijoin(self):
        left = BAT([1.0, 2.0, 3.0], head=[10, 20, 30])
        right = BAT([0], head=[20])
        out = kernel.antijoin(left, right)
        assert [h for h, _ in out.to_list()] == [10, 30]


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

    def test_sort_head(self):
        bat = BAT([1.0, 2.0], head=[5, 3])
        out = kernel.sort_head(bat)
        assert out.to_list() == [(3, 2.0), (5, 1.0)]

    def test_sort_head_dense_is_noop(self):
        bat = BAT([1.0, 2.0])
        assert kernel.sort_head(bat) is bat

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

    def test_group_sum(self):
        bat = BAT([1.0, 2.0, 3.0], head=[5, 5, 7])
        out = kernel.group_sum(bat)
        assert out.to_list() == [(5, 3.0), (7, 3.0)]
        assert out.head_key

    def test_group_sum_empty(self):
        assert len(kernel.group_sum(BAT.from_pairs([]))) == 0

    def test_group_count(self):
        bat = BAT([1.0, 2.0, 3.0], head=[5, 5, 7])
        assert kernel.group_count(bat).to_list() == [(5, 2), (7, 1)]

    def test_group_max(self):
        bat = BAT([1.0, 9.0, 3.0], head=[5, 5, 7])
        assert kernel.group_max(bat).to_list() == [(5, 9.0), (7, 3.0)]

    def test_unique_tail(self):
        out = kernel.unique_tail(BAT([3, 1, 3, 2]))
        assert [t for _, t in out.to_list()] == [1, 2, 3]
        assert out.tail_key and out.tail_sorted

    def test_count_tail(self):
        assert kernel.count_tail(BAT([1, 2])) == 2


class TestArithmetic:
    def test_append(self):
        out = kernel.append(BAT([1, 2]), BAT([3], hseqbase=2))
        assert [t for _, t in out.to_list()] == [1, 2, 3]

    def test_append_dtype_mismatch(self):
        with pytest.raises(BATTypeError):
            kernel.append(BAT([1]), BAT(["a"]))

    def test_scale_tail(self):
        out = kernel.scale_tail(BAT([1.0, 2.0], tail_sorted=True), 2.0)
        assert [t for _, t in out.to_list()] == [2.0, 4.0]
        assert out.tail_sorted

    def test_scale_negative_flips_order(self):
        out = kernel.scale_tail(BAT([1.0, 2.0], tail_sorted=True), -1.0)
        assert out.tail_sorted_desc and not out.tail_sorted

    def test_shift_tail(self):
        out = kernel.shift_tail(BAT([1.0], tail_sorted=True), 5.0)
        assert out.to_list() == [(0, 6.0)]
        assert out.tail_sorted

    def test_combine_aligned_add(self):
        a = BAT([1.0, 2.0])
        b = BAT([10.0, 20.0])
        assert [t for _, t in kernel.combine_aligned(a, b).to_list()] == [11.0, 22.0]

    def test_combine_aligned_max(self):
        a = BAT([1.0, 30.0])
        b = BAT([10.0, 20.0])
        assert [t for _, t in kernel.combine_aligned(a, b, "max").to_list()] == [10.0, 30.0]

    def test_combine_misaligned_heads(self):
        with pytest.raises(BATShapeError):
            kernel.combine_aligned(BAT([1.0], head=[0]), BAT([1.0], head=[1]))

    def test_combine_misaligned_dense_heads(self):
        with pytest.raises(BATShapeError):
            kernel.combine_aligned(BAT([1.0], hseqbase=0), BAT([1.0], hseqbase=1))

    def test_combine_length_mismatch(self):
        with pytest.raises(BATShapeError):
            kernel.combine_aligned(BAT([1.0]), BAT([1.0, 2.0]))

    def test_combine_unknown_op(self):
        with pytest.raises(BATTypeError):
            kernel.combine_aligned(BAT([1.0]), BAT([2.0]), "xor")

    def test_assert_valid_passes(self):
        bat = BAT([1, 2], tail_sorted=True)
        assert kernel.assert_valid(bat) is bat

    def test_assert_valid_raises(self):
        with pytest.raises(BATShapeError):
            kernel.assert_valid(BAT([2, 1], tail_sorted=True))
