"""Tests for the Zipf fragmentation machinery and execution strategies."""

import numpy as np
import pytest

from repro.errors import TopNError, WorkloadError
from repro.fragmentation import (
    FragmentedExecutor,
    QualityCheck,
    Strategy,
    fragment_by_volume,
)
from repro.ir import BM25, InvertedIndex, LanguageModel, TfIdf
from repro.quality import overlap_at
from repro.storage import CostCounter
from repro.workloads import SyntheticCollection, generate_queries, trec


@pytest.fixture(scope="module")
def world():
    collection = SyntheticCollection.generate(trec.small(seed=31))
    index = InvertedIndex.build(collection)
    fragmented = fragment_by_volume(index, volume_cut=0.95)
    model = BM25()
    queries = generate_queries(collection, n_queries=15, terms_range=(3, 8), seed=4)
    return collection, index, fragmented, model, queries


class TestFragmenter:
    def test_volume_split(self, world):
        _, index, fragmented, _, _ = world
        assert fragmented.small_postings + fragmented.large_postings == index.total_postings()
        # paper shape: small fragment = small share of postings volume...
        assert fragmented.small_volume_share() < 0.15
        # ...but the large majority of the vocabulary
        assert fragmented.small_vocabulary_share() > 0.80

    def test_small_fragment_has_rare_terms(self, world):
        _, index, fragmented, _, _ = world
        df = index.vocabulary.df_array()
        used = df > 0
        small_df = df[fragmented.in_small & used]
        large_df = df[(~fragmented.in_small) & used]
        assert small_df.mean() < large_df.mean()

    def test_fragment_scores_match_full(self, world):
        """A term's partial scores must be identical whether read from
        the full index or its fragment (shared statistics)."""
        _, index, fragmented, model, queries = world
        for query in queries.queries[:3]:
            small_tids, _ = fragmented.split_query(list(query.term_ids))
            for tid in small_tids[:2]:
                full_docs, full_tfs = index.postings(tid)
                frag_docs, frag_tfs = fragmented.small.postings(tid)
                assert np.array_equal(full_docs, frag_docs)
                full_scores = model.partial_scores(index, tid, full_docs, full_tfs)
                frag_scores = model.partial_scores(fragmented.small, tid, frag_docs, frag_tfs)
                assert np.allclose(full_scores, frag_scores)

    def test_split_query(self, world):
        _, _, fragmented, _, queries = world
        tids = list(queries.queries[0].term_ids)
        small, large = fragmented.split_query(tids)
        assert sorted(small + large) == sorted(tids)
        assert all(fragmented.in_small[t] for t in small)
        assert all(not fragmented.in_small[t] for t in large)

    def test_invalid_cut(self, world):
        _, index, _, _, _ = world
        with pytest.raises(WorkloadError):
            fragment_by_volume(index, volume_cut=0.0)
        with pytest.raises(WorkloadError):
            fragment_by_volume(index, volume_cut=1.0)

    def test_heap_scan_matches_indexed(self, world):
        _, _, fragmented, _, queries = world
        all_large = [t for q in queries.queries for t in q.term_ids
                     if not fragmented.in_small[t]][:5]
        if not all_large:
            pytest.skip("no large-fragment terms in the sampled queries")
        scanned = fragmented.large.scan_postings(all_large)
        fragmented.large.build_sparse_index()
        indexed = fragmented.large.indexed_postings(all_large)
        for tid in all_large:
            assert np.array_equal(np.sort(scanned[tid][0]), np.sort(indexed[tid][0]))

    def test_indexed_access_requires_index(self, world):
        _, index, _, _, _ = world
        fresh = fragment_by_volume(index, volume_cut=0.9)
        with pytest.raises(WorkloadError):
            fresh.large.indexed_postings([0])


class TestStrategies:
    N = 20

    def run_all(self, world, query):
        _, _, fragmented, model, _ = world
        executor = FragmentedExecutor(fragmented, model)
        tids = list(query.term_ids)
        out = {}
        for strategy in Strategy:
            with CostCounter.activate() as cost:
                result = executor.query(tids, self.N, strategy)
            out[strategy] = (result, cost)
        return out

    def test_unsafe_small_touches_fraction(self, world):
        _, _, _, _, queries = world
        # aggregate over queries: unsafe reads far less than unfragmented
        total_unsafe = total_full = 0
        for query in queries.queries:
            results = self.run_all(world, query)
            total_unsafe += results[Strategy.UNSAFE_SMALL][1].tuples_read
            total_full += results[Strategy.UNFRAGMENTED][1].tuples_read
        assert total_unsafe < total_full * 0.7

    def test_unsafe_small_quality_drops(self, world):
        _, _, _, _, queries = world
        overlaps = []
        for query in queries.queries:
            results = self.run_all(world, query)
            exact = results[Strategy.UNFRAGMENTED][0]
            unsafe = results[Strategy.UNSAFE_SMALL][0]
            overlaps.append(overlap_at(unsafe.doc_ids, exact.doc_ids, self.N))
        assert sum(overlaps) / len(overlaps) < 0.999  # measurably lossy

    def test_safe_switch_restores_quality(self, world):
        _, _, _, _, queries = world
        switch_overlap, unsafe_overlap = [], []
        for query in queries.queries:
            results = self.run_all(world, query)
            exact = results[Strategy.UNFRAGMENTED][0]
            switch = results[Strategy.SAFE_SWITCH][0]
            unsafe = results[Strategy.UNSAFE_SMALL][0]
            switch_overlap.append(overlap_at(switch.doc_ids, exact.doc_ids, self.N))
            unsafe_overlap.append(overlap_at(unsafe.doc_ids, exact.doc_ids, self.N))
        assert sum(switch_overlap) >= sum(unsafe_overlap)
        assert sum(switch_overlap) / len(switch_overlap) > 0.9

    def test_indexed_same_answers_as_switch(self, world):
        _, _, _, _, queries = world
        for query in queries.queries[:5]:
            results = self.run_all(world, query)
            assert results[Strategy.INDEXED][0].same_ranking(
                results[Strategy.SAFE_SWITCH][0]
            )

    def test_indexed_cheaper_than_scan_switch(self, world):
        _, _, _, _, queries = world
        indexed_total = scan_total = 0
        switched_any = False
        for query in queries.queries:
            results = self.run_all(world, query)
            if results[Strategy.SAFE_SWITCH][0].stats["switched"]:
                switched_any = True
                scan_total += results[Strategy.SAFE_SWITCH][1].tuples_read
                indexed_total += results[Strategy.INDEXED][1].tuples_read
        if not switched_any:
            pytest.skip("no query triggered the switch in this workload")
        assert indexed_total < scan_total

    @pytest.mark.parametrize("model", [BM25(), TfIdf(), LanguageModel()],
                             ids=lambda model: model.name)
    def test_switched_answers_equal_unfragmented_bit_for_bit(self, world, model):
        """A switched answer adds the same partial scores as the
        unfragmented one, in query-term order, so ids, order and every
        score bit agree -- also when small- and large-fragment terms
        interleave in the query."""
        collection, _, fragmented, _, _ = world
        executor = FragmentedExecutor(fragmented, model)
        queries = generate_queries(collection, n_queries=40, terms_range=(3, 8), seed=4)
        switched = 0
        for query in queries.queries:
            tids = list(query.term_ids)
            exact = executor.query(tids, self.N, Strategy.UNFRAGMENTED)
            for strategy in (Strategy.SAFE_SWITCH, Strategy.INDEXED):
                result = executor.query(tids, self.N, strategy)
                if not result.stats["switched"]:
                    continue
                switched += 1
                assert result.doc_ids == exact.doc_ids, (tids, strategy)
                got = np.array([item.score for item in result.items])
                want = np.array([item.score for item in exact.items])
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (tids, strategy)
        assert switched >= 40

    def test_switch_fires_only_with_large_terms(self, world):
        _, _, fragmented, model, queries = world
        executor = FragmentedExecutor(fragmented, model)
        for query in queries.queries:
            tids = list(query.term_ids)
            _, large = fragmented.split_query(tids)
            result = executor.query(tids, self.N, Strategy.SAFE_SWITCH)
            if not large:
                assert not result.stats["switched"]

    def test_invalid_n(self, world):
        _, _, fragmented, model, queries = world
        executor = FragmentedExecutor(fragmented, model)
        with pytest.raises(TopNError):
            executor.query([0], 0, Strategy.UNFRAGMENTED)


class TestQualityCheck:
    def test_switches_when_mass_large(self, world):
        _, index, _, model, _ = world
        check = QualityCheck(sensitivity=0.35)
        decision = check.decide(index, model, large_tids=[0, 1], nth_score=0.01,
                                found=100, n=10)
        assert decision.switch

    def test_no_switch_without_large_terms(self, world):
        _, index, _, model, _ = world
        decision = QualityCheck().decide(index, model, [], nth_score=1.0, found=50, n=10)
        assert not decision.switch
        assert decision.missing_mass == 0.0

    def test_switches_when_too_few_candidates(self, world):
        _, index, _, model, _ = world
        decision = QualityCheck().decide(index, model, [5], nth_score=0.0, found=2, n=10)
        assert decision.switch

    def test_sensitivity_effect(self, world):
        _, index, _, model, _ = world
        lax = QualityCheck(sensitivity=1e9)
        decision = lax.decide(index, model, [0], nth_score=10.0, found=50, n=10)
        assert not decision.switch
