"""Unit tests for the vocabulary."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.ir import Vocabulary


class TestVocabulary:
    def test_df_counts_documents(self):
        vocab = Vocabulary.from_token_id_docs([np.array([0, 0]), np.array([0])], ["x"])
        assert vocab.df(vocab.term_id("x")) == 2
        assert vocab.cf(vocab.term_id("x")) == 3

    def test_lookup(self):
        vocab = Vocabulary.from_token_id_docs([np.array([0])], ["alpha"])
        assert vocab.term(0) == "alpha"
        assert vocab.term_id("alpha") == 0
        assert "alpha" in vocab
        assert "beta" not in vocab

    def test_unknown_term(self):
        with pytest.raises(WorkloadError):
            Vocabulary().term_id("nope")
        with pytest.raises(WorkloadError):
            Vocabulary().term(5)

    def test_from_token_id_docs(self):
        docs = [np.array([0, 1, 1]), np.array([1])]
        vocab = Vocabulary.from_token_id_docs(docs, ["a", "b"])
        assert vocab.df(0) == 1 and vocab.cf(0) == 1
        assert vocab.df(1) == 2 and vocab.cf(1) == 3
        assert vocab.total_cf() == 4

    def test_from_token_id_docs_out_of_range(self):
        with pytest.raises(WorkloadError):
            Vocabulary.from_token_id_docs([np.array([5])], ["a"])

    def test_arrays(self):
        vocab = Vocabulary.from_token_id_docs([np.array([0, 1, 1])], ["a", "b"])
        assert list(vocab.df_array()) == [1, 1]
        assert list(vocab.cf_array()) == [1, 2]
        assert vocab.terms() == ["a", "b"]
