"""Tests for the sharded top-N coordinator: the exact gather equals
serial naive_topn, every shard hands over at most its top-n, and a
shard's error reaches the caller."""

import pytest

from repro.errors import ParallelError
from repro.ir import BM25, InvertedIndex
from repro.ir.ranking import score_all
from repro.parallel import ShardedIndex, coordinator, parallel_topn, shard_index
from repro.topn import naive_topn
from repro.workloads import SyntheticCollection, generate_queries, trec


@pytest.fixture(scope="module")
def setup():
    collection = SyntheticCollection.generate(trec.tiny(seed=21))
    index = InvertedIndex.build(collection)
    queries = generate_queries(collection, n_queries=5,
                               terms_range=(2, 6), seed=3)
    return index, BM25(), [list(query.term_ids) for query in queries.queries]


class TestCancellationAndErrors:
    """A shard's error reaches the caller; bad requests are rejected."""

    def test_shard_error_propagates(self, setup, monkeypatch):
        index, model, queries = setup
        sharded = shard_index(index, shards=3)
        scored = []

        def exploding(shard, tids, model):
            scored.append(shard)
            if shard is sharded.shards[1].index:
                raise ValueError("shard exploded")
            return score_all(shard, tids, model)

        monkeypatch.setattr(coordinator, "score_all", exploding)
        with pytest.raises(ValueError, match="shard exploded"):
            parallel_topn(sharded, queries[0], model, 10)
        # shards run in order on this thread: the failing shard stops the query
        assert scored == [sharded.shards[0].index, sharded.shards[1].index]

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_n_rejected(self, setup, n):
        index, model, queries = setup
        with pytest.raises(ParallelError):
            parallel_topn(shard_index(index, shards=2), queries[0], model, n)

    def test_no_shards_rejected(self, setup):
        index, model, queries = setup
        with pytest.raises(ParallelError):
            parallel_topn(ShardedIndex(index, [], [0]), queries[0], model, 5)


class TestParallelTopnIndex:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_naive_exactly(self, setup, shards):
        index, model, queries = setup
        sharded = shard_index(index, shards=shards)
        for tids in queries:
            reference = naive_topn(index, tids, model, 10)
            result = parallel_topn(sharded, tids, model, 10)
            assert result.doc_ids == reference.doc_ids
            assert result.scores == reference.scores
            assert result.stats["shards"] == shards
            assert result.stats["shard_skew"] >= 1.0

    @pytest.mark.parametrize("n", [1, 3, 10, 40])
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_items_shipped_is_each_shards_top_n(self, setup, shards, n):
        """Each shard hands over its top-n once: nothing is shipped
        twice, and a shard with fewer candidates ships them all."""
        index, model, queries = setup
        sharded = shard_index(index, shards=shards)
        for tids in queries:
            per_shard = [len(score_all(shard.index, tids, model))
                         for shard in sharded.shards]
            result = parallel_topn(sharded, tids, model, n)
            assert result.stats["items_shipped"] == sum(
                min(n, candidates) for candidates in per_shard)
            assert result.stats["candidates"] == sum(per_shard)
