"""Tests for document-range sharding of the inverted index."""

import numpy as np
import pytest

from repro.errors import ShardingError
from repro.ir import InvertedIndex
from repro.parallel import shard_index
from repro.workloads import SyntheticCollection, trec


@pytest.fixture(scope="module")
def index():
    collection = SyntheticCollection.generate(trec.tiny(seed=11))
    return InvertedIndex.build(collection)


class TestBoundaries:
    def test_even_split(self, index):
        sharded = shard_index(index, shards=4)
        assert sharded.n_shards == 4
        assert sharded.boundaries[0] == 0
        assert sharded.boundaries[-1] == index.n_docs
        assert sharded.boundaries == sorted(sharded.boundaries)
        assert sum(s.n_docs for s in sharded.shards) == index.n_docs

    def test_postings_are_partitioned(self, index):
        sharded = shard_index(index, shards=3)
        assert sum(sharded.postings_per_shard()) == index.total_postings()
        for shard in sharded.shards:
            docs = shard.index.postings_docs.tail
            if len(docs):
                assert docs.min() >= shard.doc_lo
                assert docs.max() < shard.doc_hi

    def test_explicit_boundaries_override(self, index):
        n = index.n_docs
        sharded = shard_index(index, boundaries=[0, 1, n])
        assert sharded.shards[0].n_docs == 1
        assert sharded.shards[1].n_docs == n - 1

    def test_postings_balance_mode(self, index):
        sharded = shard_index(index, shards=3, balance="postings")
        per_shard = sharded.postings_per_shard()
        assert sum(per_shard) == index.total_postings()
        # each shard carries a nontrivial share of the postings volume
        even = index.total_postings() / 3
        assert max(per_shard) <= 2 * even

    @pytest.mark.parametrize("boundaries", [
        [5, 10],            # does not start at 0
        [0, 5],             # does not end at n_docs
        [0],                # too short
    ])
    def test_bad_boundaries_rejected(self, index, boundaries):
        assert index.n_docs not in (5, 10)
        with pytest.raises(ShardingError):
            shard_index(index, boundaries=boundaries)

    def test_descending_boundaries_rejected(self, index):
        n = index.n_docs
        with pytest.raises(ShardingError):
            shard_index(index, boundaries=[0, n // 2, n // 4, n])

    @pytest.mark.parametrize("shards", [0, -2, None])
    def test_bad_shard_count_rejected(self, index, shards):
        with pytest.raises(ShardingError):
            shard_index(index, shards=shards)

    def test_unknown_balance_mode_rejected(self, index):
        with pytest.raises(ShardingError):
            shard_index(index, shards=2, balance="bogus")

    def test_non_index_rejected(self):
        with pytest.raises(ShardingError):
            shard_index([1, 2, 3], shards=2)

    def test_fragmented_index_wrapper_accepted(self, index):
        class Wrapper:
            full = index

        sharded = shard_index(Wrapper(), shards=2)
        assert sharded.full is index


class TestShardLookup:
    def test_empty_shard(self, index):
        n = index.n_docs
        sharded = shard_index(index, boundaries=[0, 0, n])
        empty = sharded.shards[0]
        assert empty.n_docs == 0
        assert empty.n_postings == 0

    def test_skew(self, index):
        even = shard_index(index, shards=2)
        assert even.skew() >= 1.0
        lopsided = shard_index(index, boundaries=[0, index.n_docs - 1,
                                                  index.n_docs])
        assert lopsided.skew() > even.skew()


class TestShardStatistics:
    def test_global_df_visible_in_shards(self, index):
        """Shards share the global vocabulary: idf inputs are global."""
        sharded = shard_index(index, shards=3)
        tid = int(np.argmax([index.term_stats(t).df
                             for t in range(index.n_terms)]))
        for shard in sharded.shards:
            assert shard.index.term_stats(tid).df == index.term_stats(tid).df
