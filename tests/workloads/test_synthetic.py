"""Tests for the synthetic collection and query generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.ir import InvertedIndex, fit_zipf, vocabulary_share_for_volume
from repro.workloads import (
    SyntheticCollection,
    generate_queries,
    term_string,
    trec,
)


@pytest.fixture(scope="module")
def collection():
    return SyntheticCollection.generate(trec.tiny(seed=42))


class TestGenerator:
    def test_shape(self, collection):
        spec = collection.extras["spec"]
        assert len(collection) == spec.n_docs
        assert collection.n_terms == spec.vocabulary_size

    def test_deterministic(self):
        a = SyntheticCollection.generate(n_docs=50, vocabulary_size=500, n_topics=5, seed=7)
        b = SyntheticCollection.generate(n_docs=50, vocabulary_size=500, n_topics=5, seed=7)
        assert all(
            np.array_equal(da.token_ids, db.token_ids)
            for da, db in zip(a.documents, b.documents)
        )

    def test_seeds_differ(self):
        a = SyntheticCollection.generate(n_docs=50, vocabulary_size=500, n_topics=5, seed=1)
        b = SyntheticCollection.generate(n_docs=50, vocabulary_size=500, n_topics=5, seed=2)
        assert any(
            not np.array_equal(da.token_ids, db.token_ids)
            for da, db in zip(a.documents, b.documents)
        )

    def test_doc_lengths_reasonable(self, collection):
        spec = collection.extras["spec"]
        lengths = collection.doc_lengths()
        assert (lengths >= spec.min_doc_length).all()
        assert abs(lengths.mean() - spec.doc_length_mean) < spec.doc_length_mean * 0.5

    def test_topics_assigned(self, collection):
        spec = collection.extras["spec"]
        topics = {doc.topic for doc in collection.documents}
        assert topics <= set(range(spec.n_topics))
        assert len(topics) > 1

    def test_term_ids_in_range(self, collection):
        for doc in collection.documents[:20]:
            assert doc.token_ids.min() >= 0
            assert doc.token_ids.max() < collection.n_terms

    def test_zipf_distribution_emerges(self):
        collection = SyntheticCollection.generate(
            n_docs=800, vocabulary_size=8000, n_topics=20, topic_mix=0.3, seed=3
        )
        index = InvertedIndex.build(collection)
        cf = index.vocabulary.cf_array()
        fit = fit_zipf(cf[cf > 0], min_frequency=3)
        assert 0.5 < fit.exponent < 2.0
        assert fit.r_squared > 0.8

    def test_small_vocab_share_carries_most_volume(self):
        collection = SyntheticCollection.generate(
            n_docs=800, vocabulary_size=8000, n_topics=20, seed=3
        )
        index = InvertedIndex.build(collection)
        df = index.vocabulary.df_array().astype(float)
        share = vocabulary_share_for_volume(df[df > 0], 0.80)
        assert share < 0.40  # a minority of terms owns 80% of postings

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SyntheticCollection.generate(n_docs=0)
        with pytest.raises(WorkloadError):
            SyntheticCollection.generate(topic_mix=1.5)
        with pytest.raises(WorkloadError):
            SyntheticCollection.generate(topical_band=(0.9, 0.1))
        with pytest.raises(WorkloadError):
            SyntheticCollection.generate(vocabulary_size=100, terms_per_topic=1000)

    def test_spec_overrides(self):
        spec = trec.tiny()
        collection = SyntheticCollection.generate(spec, n_docs=77)
        assert len(collection) == 77

    def test_term_strings_unique(self):
        strings = [term_string(i) for i in range(2000)]
        assert len(set(strings)) == 2000


class TestQueries:
    def test_generation(self, collection):
        queries = generate_queries(collection, n_queries=20, seed=5)
        assert len(queries) == 20
        for query in queries:
            assert 2 <= len(query) <= 8
            assert len(set(query.term_ids)) == len(query.term_ids)

    def test_terms_are_topical(self, collection):
        topic_terms = collection.extras["topic_terms"]
        queries = generate_queries(collection, n_queries=20, seed=5)
        for query in queries:
            assert set(query.term_ids) <= set(int(t) for t in topic_terms[query.topic])

    def test_qrels_match_topics(self, collection):
        queries = generate_queries(collection, n_queries=10, seed=5)
        for query in queries:
            relevant = queries.relevant(query.query_id)
            assert relevant  # every topic has documents in this preset
            for doc_id in list(relevant)[:5]:
                assert collection.document(doc_id).topic == query.topic

    def test_deterministic(self, collection):
        a = generate_queries(collection, n_queries=5, seed=9)
        b = generate_queries(collection, n_queries=5, seed=9)
        assert [q.term_ids for q in a] == [q.term_ids for q in b]

    def test_query_text(self, collection):
        query = generate_queries(collection, n_queries=1, seed=0).queries[0]
        text = query.text(collection)
        assert len(text.split()) == len(query)

    def test_requires_planted_topics(self):
        from repro.ir import Collection

        plain = Collection([], ["a"], name="plain")
        with pytest.raises(WorkloadError):
            generate_queries(plain)

    def test_terms_range_validation(self, collection):
        with pytest.raises(WorkloadError):
            generate_queries(collection, terms_range=(0, 3))


class TestPresets:
    def test_tiny_builds(self):
        collection, queries = trec.build(trec.tiny(), n_queries=5)
        assert len(collection) == 300
        assert len(queries) == 5

    def test_ft_like_scales(self):
        small = trec.ft_like(scale=0.01)
        assert small.n_docs == 200
        full = trec.ft_like(scale=1.0)
        assert full.n_docs == 20_000
