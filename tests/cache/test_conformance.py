"""Warm-equals-cold conformance through the full database facade.

The cache's contract is *invisibility*: with `cache_enabled=True`,
every answer — warm repeat, prefix serve, resumed deepening, parallel
warm serve — must be element-for-element identical (ids, scores, tie
order) to the answer a cold database gives, for every engine and shard
count.  These suites check the contract end to end, plus the epoch
invalidation that keeps it true across corpus mutations.
"""

import numpy as np
import pytest

from repro.core import DatabaseConfig, MMDatabase
from repro.mm import FeatureSpace
from repro.workloads import SyntheticCollection, generate_queries, trec

SCALE = 0.02
SHARD_COUNTS = [1, 2, 4, 7]
ENGINES = ["ta", "nra", "ca"]
DIMS = 6


@pytest.fixture(scope="module")
def collection():
    return SyntheticCollection.generate(trec.ft_like(scale=SCALE, seed=21))


@pytest.fixture(scope="module")
def features(collection):
    rng = np.random.default_rng(22)
    return [FeatureSpace("conf_a", rng.random((collection.n_docs, DIMS))),
            FeatureSpace("conf_b", rng.random((collection.n_docs, DIMS)))]


@pytest.fixture(scope="module")
def tid_lists(collection):
    batch = generate_queries(collection, n_queries=6, terms_range=(2, 5),
                             rare_bias=2.0, seed=23)
    return [list(q.term_ids) for q in batch]


@pytest.fixture(scope="module")
def feature_queries():
    rng = np.random.default_rng(24)
    return [{"conf_a": rng.random(DIMS), "conf_b": rng.random(DIMS)}
            for _ in range(3)]


def build(collection, features, cache=True, fragment=False):
    db = MMDatabase.from_collection(
        collection, DatabaseConfig(cache_enabled=cache))
    for space in features:
        db.add_feature_space(space)
    if fragment:
        db.fragment()
    return db


def same_answer(a, b):
    return a.doc_ids == b.doc_ids and a.scores == b.scores


class TestTextWarmEqualsCold:
    @pytest.mark.parametrize("strategy", [None, "unfragmented", "unsafe-small",
                                          "indexed", "safe-switch"])
    def test_warm_repeat(self, collection, features, tid_lists, strategy):
        db = build(collection, features, fragment=True)
        for tids in tid_lists:
            cold = db.search(tids, n=10, strategy=strategy).result
            warm = db.search(tids, n=10, strategy=strategy).result
            assert same_answer(cold, warm), (strategy, tids)

    def test_prefix_serve_matches_shallow_cold(self, collection, features, tid_lists):
        """A cached top-100 must answer top-10 exactly as a cold
        top-10 would (prefix-safety of the exact strategies)."""
        reference = build(collection, features, cache=False)
        db = build(collection, features)
        for tids in tid_lists:
            db.search(tids, n=100)
            served = db.search(tids, n=10).result
            cold = reference.search(tids, n=10).result
            assert same_answer(served, cold), tids
            assert served.stats.get("cache") in ("hit", "hit-prefix", "hit-complete")

    def test_epoch_bump_invalidates(self, collection, features, tid_lists):
        db = build(collection, features)
        db.search(tid_lists[0], n=10)
        assert len(db.cache) > 0
        before = db.epoch
        db.fragment()
        assert db.epoch > before
        assert len(db.cache) == 0
        # post-mutation answers still match a cold database's
        reference = build(collection, features, cache=False, fragment=True)
        warm = db.search(tid_lists[0], n=10, strategy="indexed").result
        cold = reference.search(tid_lists[0], n=10, strategy="indexed").result
        assert same_answer(warm, cold)


class TestFeatureWarmEqualsCold:
    @pytest.mark.parametrize("algorithm", ENGINES)
    def test_warm_repeat(self, collection, features, feature_queries, algorithm):
        db = build(collection, features)
        for fq in feature_queries:
            cold = db.feature_search(fq, n=10, algorithm=algorithm).result
            warm = db.feature_search(fq, n=10, algorithm=algorithm).result
            assert same_answer(cold, warm), algorithm
            assert "cache" in warm.stats

    @pytest.mark.parametrize("algorithm", ENGINES)
    def test_resumed_deepening_equals_cold(self, collection, features,
                                           feature_queries, algorithm):
        """top-10 then top-100 on a cached database must equal a
        single cold top-100 (TA frontier / NRA-CA bound-state resume)."""
        reference = build(collection, features, cache=False)
        db = build(collection, features)
        for fq in feature_queries:
            db.feature_search(fq, n=10, algorithm=algorithm)
            deep = db.feature_search(fq, n=100, algorithm=algorithm).result
            cold = reference.feature_search(fq, n=100, algorithm=algorithm).result
            assert same_answer(deep, cold), algorithm

    def test_combined_search_warm_repeat(self, collection, features,
                                         tid_lists, feature_queries):
        db = build(collection, features)
        cold = db.combined_search(tid_lists[0], feature_queries[0], n=10).result
        warm = db.combined_search(tid_lists[0], feature_queries[0], n=10).result
        assert same_answer(cold, warm)
        assert "cache" in warm.stats


class TestParallelWarmEqualsCold:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_warm_repeat_matches_serial(self, collection, features,
                                        tid_lists, shards):
        reference = build(collection, features, cache=False)
        db = build(collection, features)
        db.shard(shards)
        for tids in tid_lists:
            cold = db.search(tids, n=10, strategy="parallel").result
            warm = db.search(tids, n=10, strategy="parallel").result
            serial = reference.search(tids, n=10).result
            assert same_answer(cold, serial), shards
            assert same_answer(warm, serial), shards

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_deepening_stays_certified_and_exact(self, collection, features,
                                                 tid_lists, shards):
        reference = build(collection, features, cache=False)
        db = build(collection, features)
        db.shard(shards)
        for tids in tid_lists[:3]:
            db.search(tids, n=10, strategy="parallel")
            deep = db.search(tids, n=100, strategy="parallel").result
            serial = reference.search(tids, n=100).result
            assert same_answer(deep, serial), shards
            assert deep.certified
