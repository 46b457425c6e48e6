"""Edge-case tests for the fragmented executor and quality check."""

import numpy as np
import pytest

from repro.fragmentation import (
    FragmentedExecutor,
    QualityCheck,
    Strategy,
    fragment_by_volume,
)
from repro.ir import BM25, Collection, Document, InvertedIndex


def build_world(n_docs=60, seed=5):
    """A small hand-rolled collection with one very frequent term (0)
    and several rare ones, so the fragment boundary is predictable."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        tokens = [0] * 5  # term 0 in every document
        tokens += rng.integers(1, 30, size=10).tolist()
        docs.append(Document(i, np.asarray(tokens, dtype=np.int64)))
    collection = Collection(docs, [f"t{j}" for j in range(30)], name="hand")
    index = InvertedIndex.build(collection)
    fragmented = fragment_by_volume(index, volume_cut=0.5)
    return index, fragmented


class TestExecutorEdges:
    def test_frequent_term_is_in_large_fragment(self):
        index, fragmented = build_world()
        assert not fragmented.in_small[0]

    def test_unsafe_returns_empty_for_large_only_query(self):
        index, fragmented = build_world()
        executor = FragmentedExecutor(fragmented, BM25())
        result = executor.query([0], 5, Strategy.UNSAFE_SMALL)
        assert len(result) == 0
        assert result.stats["terms_skipped"] == 1

    def test_switch_recovers_large_only_query(self):
        index, fragmented = build_world()
        executor = FragmentedExecutor(fragmented, BM25())
        exact = executor.query([0], 5, Strategy.UNFRAGMENTED)
        switch = executor.query([0], 5, Strategy.SAFE_SWITCH)
        assert switch.stats["switched"]
        assert switch.same_ranking(exact)

    def test_indexed_builds_lazily_once(self):
        index, fragmented = build_world()
        executor = FragmentedExecutor(fragmented, BM25())
        assert not fragmented.large.has_index
        executor.query([0], 5, Strategy.INDEXED)
        assert fragmented.large.has_index
        first_index = fragmented.large._sparse_index
        executor.query([0], 5, Strategy.INDEXED)
        assert fragmented.large._sparse_index is first_index

    def test_query_with_zero_df_term(self):
        index, fragmented = build_world()
        executor = FragmentedExecutor(fragmented, BM25())
        # term 29 may be unused; an unused term must simply contribute 0
        result = executor.query([29, 5], 5, Strategy.UNFRAGMENTED)
        assert result.safe

    def test_small_only_query_never_switches(self):
        index, fragmented = build_world()
        executor = FragmentedExecutor(fragmented, BM25())
        small_terms = [t for t in range(1, 30) if fragmented.in_small[t]][:3]
        result = executor.query(small_terms, 5, Strategy.SAFE_SWITCH)
        assert not result.stats["switched"]

    def test_all_strategies_handle_empty_query(self):
        index, fragmented = build_world()
        executor = FragmentedExecutor(fragmented, BM25())
        for strategy in Strategy:
            assert len(executor.query([], 5, strategy)) == 0


class TestQualityCheckEdges:
    def test_missing_mass_is_sum_of_bounds(self):
        index, fragmented = build_world()
        model = BM25()
        check = QualityCheck()
        decision = check.decide(index, model, [0], nth_score=100.0, found=50, n=5)
        expected = model.upper_bound(index, index.term_stats(0))
        assert decision.missing_mass == pytest.approx(expected)

    def test_zero_nth_score_guard(self):
        index, fragmented = build_world()
        decision = QualityCheck().decide(index, BM25(), [0], nth_score=0.0,
                                         found=50, n=5)
        assert decision.switch  # any mass dominates a zero threshold

    def test_decision_bool(self):
        index, fragmented = build_world()
        decision = QualityCheck().decide(index, BM25(), [], nth_score=1.0,
                                         found=50, n=5)
        assert not bool(decision)


def build_weighted_world(n_docs=80, seed=5):
    """Like :func:`build_world`, with term 0's frequency varying per
    document, so large-fragment terms can reorder small-fragment
    answers."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        tokens = [0] * int(rng.integers(1, 8))
        tokens += rng.integers(1, 30, size=10).tolist()
        docs.append(Document(i, np.asarray(tokens, dtype=np.int64)))
    collection = Collection(docs, [f"t{j}" for j in range(30)], name="hand")
    return fragment_by_volume(InvertedIndex.build(collection), volume_cut=0.5)


class TestSafeLabel:
    """An unswitched answer is labelled safe only when certified:
    s_{N+1} + missing_mass <= s_N."""

    def pairs(self, fragmented):
        large = [t for t in range(30) if not fragmented.in_small[t]]
        small = [t for t in range(30) if fragmented.in_small[t]]
        return [[s, t] for t in large for s in small]

    def test_unswitched_answer_that_differs_is_unsafe(self):
        fragmented = build_weighted_world()
        assert fragmented.in_small[3] and not fragmented.in_small[1]
        executor = FragmentedExecutor(fragmented, BM25(), QualityCheck(sensitivity=1e9))
        exact = executor.query([3, 1], 5, Strategy.UNFRAGMENTED)
        result = executor.query([3, 1], 5, Strategy.SAFE_SWITCH)
        assert not result.stats["switched"]
        assert not result.same_ranking(exact)
        assert not result.safe

    def test_safe_label_is_a_certificate(self):
        """Every unswitched answer labelled safe has the exact top-n
        set; some are, and the rest are labelled unsafe."""
        fragmented = build_weighted_world()
        executor = FragmentedExecutor(fragmented, BM25(), QualityCheck(sensitivity=1e9))
        labels = []
        for query in self.pairs(fragmented) + [[0, t] for t in range(1, 30)
                                               if fragmented.in_small[t]]:
            exact = executor.query(query, 5, Strategy.UNFRAGMENTED)
            result = executor.query(query, 5, Strategy.SAFE_SWITCH)
            assert not result.stats["switched"]
            if result.safe:
                assert ({item.obj_id for item in result.items}
                        == {item.obj_id for item in exact.items}), query
            labels.append(result.safe)
        assert any(labels) and not all(labels)

    def test_switched_and_small_only_answers_are_safe(self):
        fragmented = build_weighted_world()
        executor = FragmentedExecutor(fragmented, BM25(), QualityCheck(sensitivity=0.0))
        switched = executor.query([3, 1], 5, Strategy.SAFE_SWITCH)
        assert switched.stats["switched"] and switched.safe
        small = [t for t in range(30) if fragmented.in_small[t]][:3]
        small_only = executor.query(small, 5, Strategy.SAFE_SWITCH)
        assert small_only.stats["terms_large"] == 0 and small_only.safe
