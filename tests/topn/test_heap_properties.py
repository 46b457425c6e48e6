"""Property tests for :class:`repro.topn.heap.BoundedTopN`.

The heap keeps the N-th best while items arrive one at a time (TA's
traced rounds, profiled pruning): if it ever evicted a true top-N
member, the threshold those read would be wrong.  The properties pin
its contract directly against a sorted reference.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopNError
from repro.topn import BoundedTopN

scores_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, width=32), min_size=0, max_size=120
)


def reference_topn(scores, n):
    """(score desc, id asc) reference, as (id, score) pairs."""
    ranked = sorted(enumerate(scores), key=lambda p: (-p[1], p[0]))
    return ranked[:n]


class TestAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(scores=scores_strategy, n=st.integers(min_value=0, max_value=15))
    def test_matches_sorted_reference(self, scores, n):
        heap = BoundedTopN(n)
        for obj_id, score in enumerate(scores):
            heap.push(obj_id, score)
        got = [(item.obj_id, item.score) for item in heap.items_sorted()]
        assert got == reference_topn(scores, n)

    @settings(max_examples=120, deadline=None)
    @given(scores=scores_strategy, n=st.integers(min_value=1, max_value=15))
    def test_never_evicts_true_topn_member(self, scores, n):
        """Once a true top-N member enters, it is never displaced."""
        true_ids = {obj_id for obj_id, _ in reference_topn(scores, n)}
        heap = BoundedTopN(n)
        for obj_id, score in enumerate(scores):
            heap.push(obj_id, score)
            held = heap.contains_ids()
            entered = true_ids & set(range(obj_id + 1))
            assert entered <= held

    @settings(max_examples=120, deadline=None)
    @given(scores=scores_strategy, n=st.integers(min_value=1, max_value=15))
    def test_threshold_monotone_nondecreasing(self, scores, n):
        """The N-th best score — TA's stopping lever — never goes down."""
        heap = BoundedTopN(n)
        previous = -math.inf
        for obj_id, score in enumerate(scores):
            heap.push(obj_id, score)
            current = heap.threshold()
            assert current >= previous
            previous = current

    @settings(max_examples=120, deadline=None)
    @given(scores=scores_strategy, n=st.integers(min_value=1, max_value=15))
    def test_threshold_is_weakest_member(self, scores, n):
        heap = BoundedTopN(n)
        for obj_id, score in enumerate(scores):
            heap.push(obj_id, score)
        if heap.full:
            assert heap.threshold() == heap.items_sorted()[-1].score
        else:
            assert heap.threshold() == -math.inf

    @settings(max_examples=80, deadline=None)
    @given(scores=scores_strategy, n=st.integers(min_value=1, max_value=15))
    def test_would_enter_consistent_with_push(self, scores, n):
        heap = BoundedTopN(n)
        for obj_id, score in enumerate(scores):
            predicted = heap.would_enter(score, obj_id)
            assert heap.push(obj_id, score) == predicted


class TestEdgeCases:
    def test_negative_n_rejected(self):
        with pytest.raises(TopNError):
            BoundedTopN(-1)

    def test_n_zero_accepts_nothing(self):
        heap = BoundedTopN(0)
        assert not heap.push(1, 0.9)
        assert heap.items_sorted() == []
        assert heap.threshold() == -math.inf

    def test_tie_prefers_smaller_id(self):
        heap = BoundedTopN(2)
        for obj_id in (5, 9, 1):
            heap.push(obj_id, 0.5)
        assert [item.obj_id for item in heap.items_sorted()] == [1, 5]

    def test_tied_weaker_id_never_displaces(self):
        heap = BoundedTopN(1)
        heap.push(2, 0.5)
        assert not heap.push(7, 0.5)
        assert heap.contains_ids() == {2}
