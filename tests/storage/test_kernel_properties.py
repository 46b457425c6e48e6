"""Property-based tests (hypothesis) for kernel invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage import BAT, CostCounter, HashIndex, SparseIndex, kernel

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
float_lists = st.lists(floats, min_size=0, max_size=200)
int_lists = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=200)


@given(int_lists, st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_select_range_matches_python_filter(values, a, b):
    lo, hi = min(a, b), max(a, b)
    bat = BAT(np.asarray(values, dtype=np.int64))
    out = kernel.select_range(bat, lo, hi)
    expected = [(i, v) for i, v in enumerate(values) if lo <= v <= hi]
    assert out.to_list() == expected


@given(int_lists, st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_select_sorted_equals_select_unsorted(values, a, b):
    """Sorted fast path and scan path must agree on sorted input."""
    lo, hi = min(a, b), max(a, b)
    tail = np.sort(np.asarray(values, dtype=np.int64))
    sorted_bat = BAT(tail, tail_sorted=True)
    scan_bat = BAT(tail)  # same data, no sortedness declared
    fast = kernel.select_range(sorted_bat, lo, hi)
    slow = kernel.select_range(scan_bat, lo, hi)
    assert fast.same_content(slow)


@given(float_lists)
def test_sort_tail_is_sorted_permutation(values):
    bat = BAT(np.asarray(values, dtype=np.float64))
    out = kernel.sort_tail(bat)
    tails = [t for _, t in out.to_list()]
    assert tails == sorted(values)
    # heads form a permutation of the input positions
    assert sorted(h for h, _ in out.to_list()) == list(range(len(values)))
    assert out.verify_properties()


@given(float_lists, st.integers(min_value=0, max_value=50))
def test_topn_agrees_with_sorted_prefix(values, n):
    bat = BAT(np.asarray(values, dtype=np.float64))
    top = kernel.topn_tail(bat, n)
    expected_scores = sorted(values, reverse=True)[:n]
    assert [t for _, t in top.to_list()] == expected_scores
    assert top.verify_properties()


@given(float_lists, st.integers(min_value=1, max_value=50))
def test_topn_is_prefix_of_full_ranking(values, n):
    """Top-N must equal the first N of the full descending sort with the
    same deterministic (head oid) tie-break."""
    bat = BAT(np.asarray(values, dtype=np.float64))
    top = kernel.topn_tail(bat, n)
    full = kernel.topn_tail(bat, len(values))
    assert top.to_list() == full.to_list()[:n]


# few distinct values, -0.0 next to 0.0: boundary ties are the rule
tie_prone = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, 3.0])


@st.composite
def cut_inputs(draw):
    """``(values, ids, n)`` for the one top-N cut; ``ids`` is None
    (ids ascend with position) or arbitrary, possibly repeated ints."""
    values = draw(st.lists(st.one_of(tie_prone, floats), max_size=80))
    size = len(values)
    ids = draw(st.one_of(st.none(), st.lists(st.integers(-10**6, 10**6),
                                             min_size=size, max_size=size)))
    return (np.asarray(values, dtype=np.float64),
            None if ids is None else np.asarray(ids, dtype=np.int64),
            draw(st.integers(0, size + 3)))


def _cut_examples(test):
    """All-equal values, ``n = 0``, ``n >= size`` and signed zeros,
    each at a boundary."""
    cases = [([1.0] * 10, None, 3), ([1.0] * 10, [9, 3, 7, 1, 5, 0, 2, 8, 6, 4], 4),
             ([0.5, 0.2, 0.9], [4, 2, 8], 0), ([0.5, 0.2, 0.9], None, 3),
             ([0.5, 0.5, 0.9], [40, 20, 80], 7), ([0.0, -0.0, 0.0, -0.0, 1.0], [8, 6, 4, 2, 0], 3),
             ([-0.0, 0.0, -0.0], None, 2)]
    for values, ids, n in cases:
        test = example((np.asarray(values, dtype=np.float64),
                        None if ids is None else np.asarray(ids, dtype=np.int64), n))(test)
    return test


@_cut_examples
@given(cut_inputs())
@settings(max_examples=300)
def test_top_positions_is_the_full_lexsort_prefix(case):
    """The one cut keeps exactly the first ``n`` positions of the full
    ``(value desc, id asc)`` order, ties at every boundary included."""
    values, ids, n = case
    full = np.lexsort((np.arange(len(values)) if ids is None else ids, -values))
    assert kernel.top_positions(values, ids, n).tolist() == full[:n].tolist()


@pytest.mark.parametrize("descending", [True, False])
@_cut_examples
@given(cut_inputs())
def test_topn_tail_is_the_full_sort_prefix(descending, case):
    """``topn_tail`` in both directions (the algebra's ``topn`` also
    asks for the smallest) equals the head-tie-broken full sort's
    prefix, signed zeros bit for bit."""
    values, ids, n = case
    bat = BAT(values) if ids is None else BAT(values, head=ids)
    heads = bat.head_array()
    full = np.lexsort((heads, -values if descending else values))[:n]
    out = kernel.topn_tail(bat, n, descending=descending)
    assert out.head_array().tolist() == heads[full].tolist()
    assert out.tail.tobytes() == values[full].tobytes()


@given(int_lists)
def test_unique_tail_is_sorted_set(values):
    out = kernel.unique_tail(BAT(np.asarray(values, dtype=np.int64)))
    assert [t for _, t in out.to_list()] == sorted(set(values))


@given(float_lists, st.integers(0, 20), st.integers(0, 20))
def test_slice_matches_python_slice(values, offset, count):
    bat = BAT(np.asarray(values, dtype=np.float64))
    out = kernel.slice_pairs(bat, offset, count)
    expected = list(enumerate(values))[offset : offset + count]
    assert out.to_list() == [(h, v) for h, v in expected]


# ---------------------------------------------------------------------------
# dense (void) heads against their materialised twins
# ---------------------------------------------------------------------------

small_ints = st.integers(-20, 20)  # narrow, so ties are common


@st.composite
def head_twins(draw, tail_sorted=False):
    """A BAT with a dense head and the same BAT with that head written
    out (``head=np.arange(n) + hseqbase``)."""
    values = draw(st.lists(small_ints, max_size=120))
    tail = np.asarray(sorted(values) if tail_sorted else values, dtype=np.int64)
    hseqbase = draw(st.integers(0, 10_000))
    dense = BAT(tail, hseqbase=hseqbase, tail_sorted=tail_sorted)
    twin = BAT(tail, head=np.arange(len(tail), dtype=np.int64) + hseqbase,
               head_key=True, tail_sorted=tail_sorted)
    return dense, twin


#: op name -> (needs a tail-sorted input, op(bat, lo, hi, k))
TWIN_OPS = {
    "select_range": (False, lambda bat, lo, hi, k: kernel.select_range(bat, lo, hi)),
    "select_range_sorted": (True, lambda bat, lo, hi, k: kernel.select_range(bat, lo, hi)),
    "select_mask": (False, lambda bat, lo, hi, k: kernel.select_mask(bat, bat.tail % 2 == 0)),
    "sort_tail": (False, lambda bat, lo, hi, k: kernel.sort_tail(bat)),
    "sort_tail_desc": (False, lambda bat, lo, hi, k: kernel.sort_tail(bat, descending=True)),
    "topn_tail": (False, lambda bat, lo, hi, k: kernel.topn_tail(bat, k)),
    "topn_tail_asc": (False, lambda bat, lo, hi, k: kernel.topn_tail(bat, k, descending=False)),
    "slice_pairs": (False, lambda bat, lo, hi, k: kernel.slice_pairs(bat, k, hi - lo)),
    "hash_index": (False, lambda bat, lo, hi, k: HashIndex(bat).lookup_eq(lo)),
    "sparse_index": (True, lambda bat, lo, hi, k: SparseIndex(bat, stride=4).lookup_range(lo, hi)),
}


@pytest.mark.parametrize("name", sorted(TWIN_OPS))
@given(data=st.data(), a=small_ints, b=small_ints, k=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_dense_head_agrees_with_materialised_twin(name, data, a, b, k):
    """Every op that gathers head oids gives the same content, and
    charges the same counts, whether the head is void or written out."""
    needs_sorted, op = TWIN_OPS[name]
    dense, twin = data.draw(head_twins(tail_sorted=needs_sorted))
    lo, hi = min(a, b), max(a, b)
    with CostCounter.activate() as dense_cost:
        from_dense = op(dense, lo, hi, k)
    with CostCounter.activate() as twin_cost:
        from_twin = op(twin, lo, hi, k)
    assert from_dense.same_content(from_twin)
    assert from_dense.tail_sorted == from_twin.tail_sorted
    assert from_dense.tail_sorted_desc == from_twin.tail_sorted_desc
    assert dense_cost.snapshot() == twin_cost.snapshot()


@given(head_twins(), st.data())
def test_heads_at_matches_head_array(pair, data):
    dense, twin = pair
    n = len(dense)
    positions = np.asarray(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                              max_size=30 if n else 0)), dtype=np.int64)
    mask = dense.tail % 3 == 0
    start, stop = sorted(data.draw(st.lists(st.integers(-5, n + 5), min_size=2, max_size=2)))
    step = data.draw(st.sampled_from([1, 2, -1]))
    for selector in (positions, mask, slice(start, stop, step)):
        want = dense.head_array()[selector]
        assert np.array_equal(dense.heads_at(selector), want)
        assert np.array_equal(twin.heads_at(selector), want)
    assert dense.same_heads(twin) and twin.same_heads(dense)
