"""Unit tests for the BAT container."""

import numpy as np
import pytest

from repro.errors import BATShapeError, BATTypeError
from repro.storage import BAT


class TestConstruction:
    def test_dense_head_default(self):
        bat = BAT([10, 20, 30])
        assert bat.is_dense_head
        assert bat.count == 3
        assert list(bat.head_array()) == [0, 1, 2]

    def test_dense_head_with_base(self):
        bat = BAT([1.5, 2.5], hseqbase=100)
        assert list(bat.head_array()) == [100, 101]

    def test_materialized_head(self):
        bat = BAT([5, 6], head=[9, 3])
        assert not bat.is_dense_head
        assert list(bat.head_array()) == [9, 3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(BATShapeError):
            BAT([1, 2, 3], head=[1, 2])

    def test_negative_hseqbase_rejected(self):
        with pytest.raises(BATShapeError):
            BAT([1], hseqbase=-1)

    def test_string_tail(self):
        bat = BAT(["the", "quick", "fox"])
        assert bat.tail_dtype_kind == "U"
        assert bat.to_list() == [(0, "the"), (1, "quick"), (2, "fox")]

    def test_bool_tail_coerced_to_int(self):
        bat = BAT([True, False, True])
        assert bat.tail_dtype_kind == "i"

    def test_object_tail_coerced_to_str(self):
        bat = BAT(np.array(["a", "bb"], dtype=object))
        assert bat.tail_dtype_kind == "U"

    def test_two_dimensional_tail_rejected(self):
        with pytest.raises(BATShapeError):
            BAT(np.zeros((2, 2)))

    def test_non_integer_head_rejected(self):
        with pytest.raises(BATTypeError):
            BAT([1, 2], head=[0.5, 1.5])

    def test_complex_tail_rejected(self):
        with pytest.raises(BATTypeError):
            BAT(np.array([1 + 2j]))

    def test_dense_factory(self):
        bat = BAT.dense(4, hseqbase=10)
        assert list(bat.tail) == [0, 1, 2, 3]
        assert list(bat.head_array()) == [10, 11, 12, 13]
        assert bat.tail_sorted and bat.tail_key

    def test_from_pairs_roundtrip(self):
        pairs = [(3, 1.0), (1, 2.0), (2, 0.5)]
        bat = BAT.from_pairs(pairs)
        assert bat.to_list() == pairs

    def test_from_pairs_empty(self):
        bat = BAT.from_pairs([])
        assert len(bat) == 0

    def test_unique_segment_ids(self):
        a, b = BAT([1]), BAT([1])
        assert a.segment_id != b.segment_id


class TestProperties:
    def test_verify_sorted_flag_true(self):
        assert BAT([1, 2, 3], tail_sorted=True).verify_properties()

    def test_verify_sorted_flag_false(self):
        assert not BAT([3, 1, 2], tail_sorted=True).verify_properties()

    def test_verify_desc_flag(self):
        assert BAT([3, 2, 1], tail_sorted_desc=True).verify_properties()
        assert not BAT([1, 3, 2], tail_sorted_desc=True).verify_properties()

    def test_verify_tail_key(self):
        assert BAT([1, 2, 3], tail_key=True).verify_properties()
        assert not BAT([1, 2, 2], tail_key=True).verify_properties()

    def test_verify_head_key(self):
        assert BAT([1, 2], head=[5, 6], head_key=True).verify_properties()
        assert not BAT([1, 2], head=[5, 5], head_key=True).verify_properties()

    def test_refresh_sortedness(self):
        bat = BAT([1, 2, 3]).refresh_sortedness()
        assert bat.tail_sorted and not bat.tail_sorted_desc
        bat = BAT([3, 2, 1]).refresh_sortedness()
        assert bat.tail_sorted_desc and not bat.tail_sorted

    def test_refresh_sortedness_short(self):
        bat = BAT([7]).refresh_sortedness()
        assert bat.tail_sorted and bat.tail_sorted_desc

    def test_dense_head_is_key(self):
        assert BAT([1, 2]).head_key


class TestAccessors:
    def test_head_positions_dense(self):
        bat = BAT([1.0, 2.0, 3.0], hseqbase=5)
        assert list(bat.head_positions(np.array([5, 7]))) == [0, 2]

    def test_head_positions_materialized_rejected(self):
        bat = BAT([1, 2], head=[4, 5])
        with pytest.raises(BATShapeError):
            bat.head_positions(np.array([4]))

    def test_heads_at_dense_head_is_computed(self):
        bat = BAT([4.0, 5.0, 6.0, 7.0], hseqbase=100)
        assert list(bat.heads_at(np.array([3, 0]))) == [103, 100]
        assert list(bat.heads_at(np.array([True, False, True, False]))) == [100, 102]
        assert list(bat.heads_at(slice(1, None))) == [101, 102, 103]
        assert list(bat.heads_at(slice(None, None, -2))) == [103, 101]

    def test_heads_at_materialized_head_gathers(self):
        bat = BAT([1, 2, 3], head=[9, 3, 5])
        assert list(bat.heads_at(np.array([2, 0]))) == [5, 9]
        assert list(bat.heads_at(slice(0, 2))) == [9, 3]

    def test_heads_at_mask_length_checked(self):
        with pytest.raises(BATShapeError):
            BAT([1, 2, 3]).heads_at(np.array([True, False]))

    def test_same_heads(self):
        assert BAT([1, 2], hseqbase=3).same_heads(BAT([5, 6], hseqbase=3))
        assert not BAT([1, 2], hseqbase=3).same_heads(BAT([1, 2], hseqbase=4))
        assert BAT([1, 2], hseqbase=3).same_heads(BAT([1, 2], head=[3, 4]))
        assert not BAT([1, 2]).same_heads(BAT([1, 2, 3]))

    def test_sort_positions_breaks_ties_by_head(self):
        keys = np.array([2.0, 1.0, 2.0, 1.0])
        assert list(BAT(keys).sort_positions(keys)) == [1, 3, 0, 2]
        assert list(BAT(keys, head=[8, 9, 7, 6]).sort_positions(keys)) == [3, 1, 2, 0]

    def test_same_content(self):
        a = BAT([1.0, 2.0], head=[0, 1])
        b = BAT([1.0, 2.0])
        assert a.same_content(b)
        assert b.same_content(a)

    def test_same_content_order_sensitive(self):
        a = BAT([1.0, 2.0])
        b = BAT([2.0, 1.0])
        assert not a.same_content(b)

    def test_same_content_dtype_kind_mismatch(self):
        assert not BAT([1, 2]).same_content(BAT(["1", "2"]))

    def test_same_content_empty(self):
        assert BAT.from_pairs([]).same_content(BAT.from_pairs([]))

    def test_clone_with_overrides_tail(self):
        original = BAT([1, 2, 3], hseqbase=4)
        clone = original.clone_with(tail=np.array([9, 9, 9]))
        assert list(clone.tail) == [9, 9, 9]
        assert clone.hseqbase == 4
        assert list(original.tail) == [1, 2, 3]

    def test_pairs_yield_python_scalars(self):
        bat = BAT([1.5])
        head, tail = next(bat.pairs())
        assert isinstance(head, int)
        assert isinstance(tail, float)
