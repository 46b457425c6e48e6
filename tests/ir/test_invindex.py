"""Unit tests for the inverted index and ranking models."""

import numpy as np
import pytest

from repro.errors import TopNError, WorkloadError
from repro.ir import (
    BM25,
    Collection,
    Document,
    InvertedIndex,
    LanguageModel,
    TfIdf,
    make_model,
    score_all,
)
from repro.storage import CostCounter


def small_collection():
    docs = [
        Document(0, np.array([0, 1, 1, 2])),  # a b b c
        Document(1, np.array([1, 3])),  # b d
        Document(2, np.array([0, 0, 0, 3, 3])),  # a a a d d
    ]
    return Collection(docs, ["a", "b", "c", "d"], name="small")


@pytest.fixture
def index():
    return InvertedIndex.build(small_collection())


class TestBuild:
    def test_shape(self, index):
        assert index.n_docs == 3
        assert index.n_terms == 4
        assert index.total_postings() == 7  # distinct (term, doc) pairs

    def test_postings_content(self, index):
        docs, tfs = index.postings(1)  # term "b"
        assert list(docs) == [0, 1]
        assert list(tfs) == [2, 1]

    def test_posting_length(self, index):
        assert index.posting_length(0) == 2  # "a" in docs 0, 2
        assert index.posting_length(2) == 1  # "c" only doc 0

    def test_docs_sorted_within_term(self, index):
        docs, _ = index.postings(3)
        assert list(docs) == sorted(docs)

    def test_invalid_term(self, index):
        with pytest.raises(WorkloadError):
            index.postings(99)
        with pytest.raises(WorkloadError):
            index.posting_length(-1)

    def test_doc_lengths(self, index):
        assert list(index.doc_lengths.tail) == [4, 2, 5]
        assert index.avg_dl == pytest.approx(11 / 3)

    def test_term_stats(self, index):
        stats = index.term_stats(0)
        assert stats.df == 2 and stats.cf == 4
        assert stats.max_tf == 3
        assert stats.max_tf_over_dl == pytest.approx(3 / 5)

    def test_candidate_documents(self, index):
        assert list(index.candidate_documents([1, 2])) == [0, 1]
        assert list(index.candidate_documents([])) == []

    def test_empty_collection(self):
        index = InvertedIndex.build(Collection([], ["a"], name="empty"))
        assert index.n_docs == 0
        assert index.total_postings() == 0

    def test_postings_charge_only_their_range(self, index):
        with CostCounter.activate() as cost:
            index.postings(2)  # 1-posting term
        assert cost.tuples_read == 2  # docs + tf columns


class TestModels:
    @pytest.mark.parametrize("model", [TfIdf(), BM25(), LanguageModel()])
    def test_partial_scores_nonnegative(self, index, model):
        for tid in range(index.n_terms):
            docs, tfs = index.postings(tid)
            partials = model.partial_scores(index, tid, docs, tfs)
            assert (partials >= 0).all()

    @pytest.mark.parametrize("model", [TfIdf(), BM25(), LanguageModel()])
    def test_upper_bound_holds(self, index, model):
        for tid in range(index.n_terms):
            docs, tfs = index.postings(tid)
            if len(docs) == 0:
                continue
            bound = model.upper_bound(index, index.term_stats(tid))
            partials = model.partial_scores(index, tid, docs, tfs)
            assert partials.max() <= bound + 1e-12

    @pytest.mark.parametrize("model", [TfIdf(), BM25(), LanguageModel()])
    def test_rare_term_outweighs_common(self, index, model):
        """A term appearing once in one short doc should contribute more
        than a term spread over all docs (idf effect)."""
        rare_bound = model.upper_bound(index, index.term_stats(2))  # df=1
        assert rare_bound > 0

    def test_model_parameter_validation(self):
        with pytest.raises(TopNError):
            TfIdf(slope=1.5)
        with pytest.raises(TopNError):
            BM25(k1=-1)
        with pytest.raises(TopNError):
            BM25(b=2)
        with pytest.raises(TopNError):
            LanguageModel(lam=0.0)

    def test_make_model(self):
        assert make_model("bm25", k1=2.0).k1 == 2.0
        with pytest.raises(TopNError):
            make_model("nope")

    def test_bm25_tf_saturation(self, index):
        model = BM25()
        docs, tfs = index.postings(0)
        partials = model.partial_scores(index, 0, docs, tfs)
        # doc 2 has tf=3 in a length-5 doc; doc 0 has tf=1 in length-4
        assert partials[1] > partials[0]


class TestScoreAll:
    def test_scores_candidates_only(self, index):
        scores = score_all(index, [1], TfIdf())  # term "b": docs 0, 1
        assert sorted(scores.head_array().tolist()) == [0, 1]

    def test_multi_term_accumulates(self, index):
        single = score_all(index, [1], TfIdf())
        double = score_all(index, [1, 3], TfIdf())
        single_map = dict(single.to_list())
        double_map = dict(double.to_list())
        assert double_map[1] > single_map[1]  # doc 1 has both terms

    def test_empty_query(self, index):
        assert len(score_all(index, [], BM25())) == 0

    def test_deterministic(self, index):
        a = score_all(index, [0, 1, 3], BM25())
        b = score_all(index, [0, 1, 3], BM25())
        assert a.same_content(b)

    def test_charges_posting_scans(self, index):
        with CostCounter.activate() as cost:
            score_all(index, [0, 1, 2, 3], BM25())
        assert cost.tuples_read >= 2 * index.total_postings()
