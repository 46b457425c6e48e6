"""Tests for whole-database save/load."""

import numpy as np
import pytest

from repro.core import MMDatabase
from repro.ir import Collection
from repro.mm import color_histograms
from repro.workloads import SyntheticCollection, generate_queries, trec


@pytest.fixture(scope="module")
def original():
    collection = SyntheticCollection.generate(trec.tiny(seed=91))
    db = MMDatabase.from_collection(collection)
    db.fragment()
    db.set_attribute("year", np.random.default_rng(1).integers(1990, 2000,
                                                               len(collection)))
    db.add_feature_space(color_histograms(len(collection), seed=2))
    return db


@pytest.fixture(scope="module")
def queries(original):
    return generate_queries(original.collection, n_queries=6, seed=3)


class TestSaveLoad:
    def test_roundtrip_search_identical(self, tmp_path_factory, original, queries):
        path = tmp_path_factory.mktemp("db")
        original.save(path)
        loaded = MMDatabase.load(path)
        for query in queries:
            tids = list(query.term_ids)
            for strategy in ("unfragmented", "unsafe-small", "indexed"):
                before = original.search(tids, n=10, strategy=strategy)
                after = loaded.search(tids, n=10, strategy=strategy)
                assert before.doc_ids == after.doc_ids, (query.query_id, strategy)
                assert before.result.scores == pytest.approx(after.result.scores)

    def test_string_queries_still_work(self, tmp_path_factory, original, queries):
        path = tmp_path_factory.mktemp("db2")
        original.save(path)
        loaded = MMDatabase.load(path)
        text = queries.queries[0].text(original.collection)
        assert loaded.search(text, n=5).doc_ids == original.search(text, n=5).doc_ids

    def test_attributes_survive(self, tmp_path_factory, original):
        path = tmp_path_factory.mktemp("db3")
        original.save(path)
        loaded = MMDatabase.load(path)
        before, after = original.attributes["year"], loaded.attributes["year"]
        assert np.array_equal(before.tail, after.tail)
        assert np.array_equal(before.head_array(), after.head_array())

    def test_feature_spaces_survive(self, tmp_path_factory, original):
        path = tmp_path_factory.mktemp("db4")
        original.save(path)
        loaded = MMDatabase.load(path)
        space = loaded.feature_spaces["color"]
        assert np.allclose(space.vectors, original.feature_spaces["color"].vectors)
        query = original.feature_spaces["color"].vectors[7]
        before = original.feature_search({"color": query}, n=5)
        after = loaded.feature_search({"color": query}, n=5)
        assert before.doc_ids == after.doc_ids

    def test_config_survives(self, tmp_path_factory, original):
        path = tmp_path_factory.mktemp("db5")
        original.save(path)
        loaded = MMDatabase.load(path)
        assert loaded.config.model == original.config.model
        assert loaded.stats()["fragmented"]

    def test_stats_match(self, tmp_path_factory, original):
        path = tmp_path_factory.mktemp("db6")
        original.save(path)
        loaded = MMDatabase.load(path)
        before, after = original.stats(), loaded.stats()
        for key in ("n_docs", "n_terms", "total_postings", "small_volume_share"):
            assert before[key] == after[key], key

    def test_vocabulary_and_maxima_survive(self, tmp_path_factory, original):
        """The loaded index rebuilds its vocabulary from the saved df/cf
        arrays and its per-term maxima from the saved postings."""
        path = tmp_path_factory.mktemp("db7")
        original.save(path)
        loaded = MMDatabase.load(path)
        saved, index = original.index, loaded.index
        assert index.vocabulary.terms() == saved.vocabulary.terms()
        assert np.array_equal(index.vocabulary.df_array(), saved.vocabulary.df_array())
        assert np.array_equal(index.vocabulary.cf_array(), saved.vocabulary.cf_array())
        assert type(index.vocabulary.df(0)) is int and type(index.vocabulary.cf(0)) is int
        for tid in range(index.n_terms):
            assert index.term_stats(tid) == saved.term_stats(tid)
        assert np.array_equal(index._max_tf_over_dl.view(np.int64),
                              saved._max_tf_over_dl.view(np.int64))
        term = saved.vocabulary.term(3)
        assert index.vocabulary.term_id(term) == 3

    def test_empty_vocabulary_roundtrip(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("db8")
        MMDatabase.from_collection(Collection([], [], name="texts")).save(path)
        loaded = MMDatabase.load(path)
        assert loaded.index.n_terms == 0 and len(loaded.index.vocabulary) == 0

    def test_narrow_columns_survive(self, tmp_path_factory, original):
        """Save/load keeps the posting columns' dtypes and values."""
        path = tmp_path_factory.mktemp("db9")
        original.save(path)
        loaded = MMDatabase.load(path)
        for column, dtype in (("postings_terms", np.int32), ("postings_docs", np.int64),
                              ("postings_tf", np.int16)):
            saved, got = getattr(original.index, column).tail, getattr(loaded.index, column).tail
            assert saved.dtype == got.dtype == dtype, column
            assert np.array_equal(saved, got), column
        assert np.array_equal(loaded.index.offsets, original.index.offsets)

    def test_int64_catalog_still_loads(self, tmp_path_factory, original, queries):
        """A database saved when every posting column was int64 loads as
        it was written and answers as the narrow one does."""
        path = tmp_path_factory.mktemp("db10")
        original.save(path)
        for column in ("postings_terms", "postings_tf"):
            npz = path / "bats" / f"{column}.npz"
            with np.load(npz) as data:
                tail = data["tail"]
            np.savez(npz, tail=tail.astype(np.int64))
        loaded = MMDatabase.load(path)
        assert loaded.index.postings_terms.tail.dtype == np.int64
        assert loaded.index.postings_tf.tail.dtype == np.int64
        for tid in range(loaded.index.n_terms):
            assert loaded.index.term_stats(tid) == original.index.term_stats(tid)
        for query in queries:
            tids = list(query.term_ids)
            for strategy in ("unfragmented", "unsafe-small", "indexed"):
                before = original.search(tids, n=10, strategy=strategy)
                after = loaded.search(tids, n=10, strategy=strategy)
                assert before.doc_ids == after.doc_ids, (query.query_id, strategy)
                assert before.result.scores == after.result.scores
