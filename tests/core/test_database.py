"""Tests for the MMDatabase facade and query sessions."""

import numpy as np
import pytest

from repro.core import DatabaseConfig, MMDatabase, QuerySession
from repro.errors import ReproError, TopNError, WorkloadError
from repro.fragmentation import Strategy
from repro.mm import color_histograms, query_near_cluster, texture_features
from repro.topn import SUM, fagin_topn
from repro.workloads import SyntheticCollection, generate_queries, trec


@pytest.fixture(scope="module")
def db():
    collection = SyntheticCollection.generate(trec.tiny(seed=51))
    database = MMDatabase.from_collection(collection)
    database.fragment()
    return database


@pytest.fixture(scope="module")
def queries(db):
    return generate_queries(db.collection, n_queries=8, seed=6)


class TestConstruction:
    def test_from_collection(self, db):
        stats = db.stats()
        assert stats["n_docs"] == 300
        assert stats["fragmented"]
        assert 0 < stats["small_volume_share"] < 0.2

    def test_from_texts(self):
        database = MMDatabase.from_texts(
            ["the quick brown fox jumps", "lazy dogs sleep all day",
             "foxes and dogs are animals"]
        )
        result = database.search("fox", n=2)
        assert 0 in result.doc_ids

    def test_config_validation(self):
        with pytest.raises(ReproError):
            DatabaseConfig(fragment_volume_cut=2.0).validate()
        with pytest.raises(ReproError):
            DatabaseConfig(switch_sensitivity=-1.0).validate()

    def test_config_model_selection(self):
        collection = SyntheticCollection.generate(n_docs=30, vocabulary_size=500,
                                                  n_topics=3, seed=1)
        database = MMDatabase.from_collection(
            collection, DatabaseConfig(model="lm", model_params={"lam": 0.3})
        )
        assert database.model.name == "lm"
        assert database.model.lam == 0.3


class TestTextSearch:
    def test_basic_search(self, db, queries):
        query = queries.queries[0]
        result = db.search(list(query.term_ids), n=10)
        assert len(result) <= 10
        assert result.result.scores == sorted(result.result.scores, reverse=True)

    def test_string_query(self, db, queries):
        query = queries.queries[0]
        text = query.text(db.collection)
        by_text = db.search(text, n=10)
        by_ids = db.search(list(query.term_ids), n=10)
        assert by_text.doc_ids == by_ids.doc_ids

    def test_unknown_terms_ignored(self, db):
        result = db.search("xqzzy notaword", n=5)
        assert len(result) == 0

    def test_strategies_by_name(self, db, queries):
        tids = list(queries.queries[1].term_ids)
        naive = db.search(tids, n=10, strategy="naive")
        for name in ("unfragmented", "unsafe-small", "safe-switch", "indexed"):
            result = db.search(tids, n=10, strategy=name)
            assert result.result.stats["strategy"] == (
                "unfragmented" if name == "unfragmented" else name
            )
        exact = db.search(tids, n=10, strategy="unfragmented")
        assert naive.doc_ids == exact.doc_ids

    def test_strategy_enum_accepted(self, db, queries):
        tids = list(queries.queries[1].term_ids)
        result = db.search(tids, n=10, strategy=Strategy.SAFE_SWITCH)
        assert result.result.stats["strategy"] == "safe-switch"

    def test_unknown_strategy(self, db):
        with pytest.raises(ReproError):
            db.search("anything", strategy="warp-drive")

    def test_unfragmented_db_requires_naive(self):
        collection = SyntheticCollection.generate(n_docs=30, vocabulary_size=500,
                                                  n_topics=3, seed=2)
        database = MMDatabase.from_collection(collection)
        result = database.search([1, 2, 3], n=5)  # auto falls back to naive
        assert result.result.strategy == "naive"
        with pytest.raises(ReproError):
            database.search([1], n=5, strategy="indexed")

    def test_cost_attached(self, db, queries):
        result = db.search(list(queries.queries[0].term_ids), n=10)
        assert result.cost.tuples_read > 0
        assert result.elapsed_seconds >= 0

    def test_describe(self, db, queries):
        result = db.search(list(queries.queries[0].term_ids), n=3)
        text = result.describe()
        assert "strategy=" in text


class TestAttributeFilter:
    def test_attr_filter(self, db, queries):
        rng = np.random.default_rng(9)
        years = rng.integers(1990, 2000, db.collection.n_docs)
        db.set_attribute("year", years)
        tids = list(queries.queries[0].term_ids)
        result = db.search(tids, n=10, attr_filter=("year", 1995, 1997))
        for doc_id in result.doc_ids:
            assert 1995 <= years[doc_id] <= 1997

    def test_attr_filter_is_exact_topn(self, db, queries):
        rng = np.random.default_rng(9)
        years = rng.integers(1990, 2000, db.collection.n_docs)
        db.set_attribute("year2", years)
        tids = list(queries.queries[2].term_ids)
        filtered = db.search(tids, n=5, attr_filter=("year2", 1990, 1994))
        # reference: naive search over many, filter manually
        broad = db.search(tids, n=db.collection.n_docs, strategy="naive")
        expected = [d for d in broad.doc_ids if 1990 <= years[d] <= 1994][:5]
        assert filtered.doc_ids == expected

    def test_unknown_attribute(self, db):
        with pytest.raises(WorkloadError):
            db.search("anything", attr_filter=("nope", 0, 1))

    def test_attribute_length_mismatch(self, db):
        with pytest.raises(WorkloadError):
            db.set_attribute("bad", np.zeros(3))


class TestFeatureSearch:
    @pytest.fixture(scope="class")
    def feature_db(self):
        collection = SyntheticCollection.generate(trec.tiny(seed=52))
        database = MMDatabase.from_collection(collection)
        database.add_feature_space(color_histograms(len(collection), seed=3))
        database.add_feature_space(texture_features(len(collection), seed=4))
        return database

    def test_single_feature(self, feature_db):
        space = feature_db.feature_spaces["color"]
        query = query_near_cluster(space, cluster=0, seed=5)
        result = feature_db.feature_search({"color": query}, n=5, measure="histogram")
        assert len(result) == 5
        # nearest neighbours should mostly come from the queried cluster
        hits_in_cluster = sum(1 for d in result.doc_ids if space.cluster_of[d] == 0)
        assert hits_in_cluster >= 3

    def test_algorithms_agree(self, feature_db):
        space = feature_db.feature_spaces["texture"]
        query = query_near_cluster(space, cluster=1, seed=6)
        queries = {"texture": query, "color": query_near_cluster(
            feature_db.feature_spaces["color"], cluster=1, seed=7)}
        ta = feature_db.feature_search(queries, n=10, algorithm="ta")
        fa = fagin_topn(feature_db.feature_sources(queries), 10, SUM)
        nra = feature_db.feature_search(queries, n=10, algorithm="nra")
        assert ta.result.same_ranking(fa)
        assert set(nra.doc_ids) == set(ta.doc_ids)

    def test_combined_search(self, feature_db):
        collection = feature_db.collection
        queries = generate_queries(collection, n_queries=1, seed=8)
        text = queries.queries[0].text(collection)
        space = feature_db.feature_spaces["color"]
        vector = query_near_cluster(space, cluster=2, seed=9)
        result = feature_db.combined_search(text, {"color": vector}, n=10)
        assert len(result) == 10
        assert result.safe

    def test_unknown_space(self, feature_db):
        with pytest.raises(WorkloadError):
            feature_db.feature_search({"nope": np.zeros(4)})

    def test_unknown_algorithm(self, feature_db):
        with pytest.raises(TopNError):
            feature_db.feature_search({"color": np.zeros(16)}, algorithm="zz")

    def test_fa_is_a_direct_engine_call_only(self, feature_db):
        with pytest.raises(TopNError, match="unknown algorithm 'fa'"):
            feature_db.feature_search({"color": np.zeros(16)}, algorithm="fa")

    def test_empty_combined_query(self, feature_db):
        with pytest.raises(TopNError):
            feature_db.combined_search("", {}, n=5)

    def test_feature_space_size_mismatch(self, feature_db):
        with pytest.raises(WorkloadError):
            feature_db.add_feature_space(color_histograms(10, seed=1), name="tiny")


class TestQuerySession:
    def test_session_report(self, db, queries):
        session = QuerySession(db)
        report = session.run(queries, n=10, strategy="unfragmented")
        assert report.n_queries == len(queries)
        assert report.tuples_read > 0
        assert 0.0 <= report.mean_average_precision <= 1.0
        assert 0.0 <= report.mean_precision_at_n <= 1.0

    def test_overlap_vs_reference(self, db, queries):
        session = QuerySession(db)
        reference = session.reference_rankings(queries, n=10)
        exact = session.run(queries, n=10, strategy="unfragmented",
                            reference_rankings=reference)
        assert exact.mean_overlap_vs_reference == pytest.approx(1.0)
        unsafe = session.run(queries, n=10, strategy="unsafe-small",
                             reference_rankings=reference)
        assert unsafe.mean_overlap_vs_reference <= 1.0

    def test_unsafe_cheaper_in_session(self, db, queries):
        session = QuerySession(db)
        exact = session.run(queries, n=10, strategy="unfragmented")
        unsafe = session.run(queries, n=10, strategy="unsafe-small")
        assert unsafe.tuples_read < exact.tuples_read
