"""Tests for the distributed top-N coordinator: the two-round
threshold merge, certification, pruning, and the merge pool."""

import numpy as np
import pytest

from repro.errors import ParallelError, QueryCancelledError
from repro.ir import BM25, InvertedIndex
from repro.mm import ArraySource
from repro.parallel import (
    CancelToken,
    SourceRangeEvaluator,
    coordinated_topn,
    default_round1_fetch,
    parallel_topn,
    parallel_topn_sources,
    shard_index,
)
from repro.parallel.coordinator import _key, _MergeState
from repro.topn import SUM, naive_topn, naive_topn_sources
from repro.topn.result import RankedItem
from repro.workloads import SyntheticCollection, generate_queries, trec


def evaluators_for(scores, boundaries):
    """Range evaluators over a single graded source with the given
    per-object scores."""
    sources = [ArraySource(np.asarray(scores, dtype=np.float64))]
    return [
        SourceRangeEvaluator(i, sources, lo, hi)
        for i, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
    ], sources


class TestRound1Fetch:
    def test_balanced_share(self):
        assert default_round1_fetch(10, 1) == 10
        assert default_round1_fetch(10, 2) == 5
        assert default_round1_fetch(10, 3) == 4
        assert default_round1_fetch(2, 8) == 1

    def test_never_exceeds_n(self):
        assert default_round1_fetch(3, 1) == 3
        assert default_round1_fetch(1, 100) == 1


class TestThresholdPruning:
    def test_prunes_shards_that_cannot_contribute(self):
        """All winners on shard 0: shard 1's round-1 best already ranks
        at the threshold, so it is never probed."""
        scores = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        evaluators, _ = evaluators_for(scores, [0, 5, 10])
        result = coordinated_topn(evaluators, n=2)
        assert result.doc_ids == [0, 1]
        assert result.certified is True
        assert result.stats["probes"] == 1
        assert result.stats["probes_saved"] == 1
        assert result.stats["probes"] < result.stats["full_gather_probes"]

    def test_live_skip_of_queued_probes(self):
        """Two shards need probing after round 1; the first probe pushes
        the threshold past the second, which is skipped live."""
        scores = [10.0, 9.9, 9.8,    # shard 0: the whole top-3
                  9.5, 0.1, 0.1,     # shard 1: good best, empty tail
                  9.4, 0.1, 0.1,     # shard 2
                  1.0, 0.1, 0.1]     # shard 3
        evaluators, _ = evaluators_for(scores, [0, 3, 6, 9, 12])
        result = coordinated_topn(evaluators, n=3)
        assert result.doc_ids == [0, 1, 2]
        assert result.certified is True
        assert result.stats["live_skipped"] == 1
        assert result.stats["probes"] == 1

    def test_round1_only_when_everything_prunable(self):
        """When round 1 already certifies the answer there is no round
        2: one shard ships its top-2, whose last item is the threshold."""
        scores = [10, 9, 8, 7, 1, 1, 1, 1]
        evaluators, _ = evaluators_for(scores, [0, 8])
        assert default_round1_fetch(2, 1) == 2
        result = coordinated_topn(evaluators, n=2)
        assert result.stats["rounds"] == 1
        assert result.stats["probes"] == 0
        assert result.certified is True
        assert result.doc_ids == [0, 1]


class TestCertification:
    def test_probe_true_fixes_the_same_instance(self):
        """Round 1 ships only docs 0, 1 (shard 0) and 5, 6 (shard 1);
        the round-2 probe of shard 0 recovers docs 2 and 3."""
        scores = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        evaluators, _ = evaluators_for(scores, [0, 5, 10])
        assert default_round1_fetch(4, 2) == 2
        result = coordinated_topn(evaluators, n=4)
        assert result.certified is True
        assert result.doc_ids == [0, 1, 2, 3]


class TestMergeState:
    def test_tau_requires_n_candidates(self):
        state = _MergeState(3)
        state.offer([RankedItem(0, 1.0)])
        assert state.tau() is None
        state.offer([RankedItem(1, 2.0), RankedItem(2, 3.0)])
        assert state.tau() == _key(RankedItem(0, 1.0))

    def test_offer_dedupes_by_object(self):
        state = _MergeState(3)
        state.offer([RankedItem(0, 1.0)])
        state.offer([RankedItem(0, 1.0), RankedItem(1, 2.0)])
        assert state.top() == [RankedItem(1, 2.0), RankedItem(0, 1.0)]


class TestCancellationAndErrors:
    def test_cancelled_before_start_raises(self):
        scores = [3, 2, 1, 0]
        evaluators, _ = evaluators_for(scores, [0, 2, 4])
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            coordinated_topn(evaluators, n=2, token=token)
        assert all(evaluator._ranked is None for evaluator in evaluators)

    def test_token_cancelled_after_completion(self):
        """The coordinator cancels its token on the way out, so other
        work sharing the token learns the query is resolved."""
        scores = [3, 2, 1, 0]
        evaluators, _ = evaluators_for(scores, [0, 2, 4])
        token = CancelToken()
        result = coordinated_topn(evaluators, n=2, token=token)
        assert result.certified is True
        assert token.cancelled()

    def test_shard_error_propagates(self):
        class Exploding:
            shard_id = 0

            def top(self, depth):
                raise ValueError("shard exploded")

        with pytest.raises(ValueError, match="shard exploded"):
            coordinated_topn([Exploding()], n=2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ParallelError):
            coordinated_topn([], n=n)

    def test_no_evaluators_rejected(self):
        with pytest.raises(ParallelError):
            coordinated_topn([], n=5)


class TestParallelTopnSources:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_matches_naive_exactly(self, shards):
        rng = np.random.default_rng(17)
        matrix = rng.random((120, 3))
        sources = [ArraySource(matrix[:, j]) for j in range(3)]
        reference = naive_topn_sources(
            [ArraySource(matrix[:, j]) for j in range(3)], 10, SUM)
        result = parallel_topn_sources(sources, 10, shards=shards)
        assert result.doc_ids == reference.doc_ids
        assert result.scores == reference.scores
        assert result.certified is True

    def test_bad_boundaries_rejected(self):
        sources = [ArraySource(np.ones(10))]
        with pytest.raises(ParallelError):
            parallel_topn_sources(sources, 3, boundaries=[0, 5])
        with pytest.raises(ParallelError):
            parallel_topn_sources(sources, 3, shards=0)


class TestParallelTopnIndex:
    @pytest.fixture(scope="class")
    def setup(self):
        collection = SyntheticCollection.generate(trec.tiny(seed=21))
        index = InvertedIndex.build(collection)
        queries = generate_queries(collection, n_queries=5,
                                   terms_range=(2, 6), seed=3)
        return index, BM25(), queries

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_naive_exactly(self, setup, shards):
        index, model, queries = setup
        sharded = shard_index(index, shards=shards)
        for query in queries.queries:
            tids = list(query.term_ids)
            reference = naive_topn(index, tids, model, 10)
            result = parallel_topn(sharded, tids, model, 10)
            assert result.doc_ids == reference.doc_ids
            assert result.scores == reference.scores
            assert result.certified is True
            assert result.stats["shards"] == shards
            assert result.stats["shard_skew"] >= 1.0

    def test_prunes_on_real_corpus(self, setup):
        """The acceptance bar: the recorded probe count is strictly
        below the full gather for at least one real corpus."""
        index, model, queries = setup
        sharded = shard_index(index, shards=4)
        total_probes = 0
        total_full = 0
        for query in queries.queries:
            result = parallel_topn(sharded, list(query.term_ids), model, 10)
            total_probes += result.stats["probes"]
            total_full += result.stats["full_gather_probes"]
        assert total_probes < total_full
