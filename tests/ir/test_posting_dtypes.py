"""The widths the index build stores its columns at, at their boundaries.

``posting_dtypes`` picks each integer column's dtype from its largest
value; the boundaries are checked on the pure helper, so nothing of
size ``2**31`` is allocated.  Builds over small collections then show
the tf column switching width at ``2**15``, the sort keys switching at
``n_terms * n_docs = 2**31``, sums over a narrow tf column counting in
int64, and every ranking model scoring a narrow tf column as a wide one.
"""

import numpy as np
import pytest

from repro.ir import MODELS, Collection, Document, InvertedIndex, make_model
from repro.ir.invindex import _per_term, posting_dtypes

from .test_build_differential import check_index


@pytest.mark.parametrize("max_tf, want", [
    (0, np.int16), (2**15 - 1, np.int16), (2**15, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64),
])
def test_tf_dtype_boundary(max_tf, want):
    assert posting_dtypes(10, 10, max_tf)[1] == want


@pytest.mark.parametrize("n_terms, n_docs, want", [
    (2**31 - 1, 1, np.int32),    # n_terms * n_docs = 2**31 - 1
    (2**16, 2**15, np.int64),    # n_terms * n_docs = 2**31
    (1, 2**31 - 1, np.int32),
    (2, 2**30, np.int64),
])
def test_key_dtype_boundary(n_terms, n_docs, want):
    assert posting_dtypes(n_terms, n_docs, 1)[2] == want


@pytest.mark.parametrize("n_terms, want", [
    (0, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
])
def test_term_dtype_boundary(n_terms, want):
    assert posting_dtypes(n_terms, 1, 1)[0] == want


def test_per_term_sums_in_int64():
    """40,000 int16 ones sum to 40,000, not to the wrapped -25,536."""
    ones = np.ones(40_000, dtype=np.int16)
    sums = _per_term(np.add, ones, np.array([0, 0, 40_000, 40_000]))
    assert sums.dtype == np.int64
    assert sums.tolist() == [0, 40_000, 0]


def test_cf_of_an_int16_tf_column():
    """cf is summed in int64 even though every tf fits int16."""
    documents = [Document(i, np.zeros(1, dtype=np.int64)) for i in range(40_000)]
    index = InvertedIndex.build(Collection(documents, ["a", "b"], name="wide"))
    assert index.postings_tf.tail.dtype == np.int16
    assert index.vocabulary.cf(0) == 40_000
    assert index.vocabulary.cf_array().tolist() == [40_000, 0]
    assert index.total_cf == 40_000


@pytest.mark.parametrize("repeat, want", [(2**15 - 1, np.int16), (2**15, np.int32)])
def test_tf_width_follows_the_largest_tf(repeat, want):
    tokens = np.concatenate([np.full(repeat, 1), [0, 2]]).astype(np.int64)
    documents = [Document(0, tokens), Document(1, np.array([1, 1, 0], dtype=np.int64))]
    index = InvertedIndex.build(Collection(documents, ["a", "b", "c"], name="long"))
    assert index.postings_tf.tail.dtype == want
    assert index.postings_tf.tail.tolist() == [1, 1, repeat, 2, 1]
    assert index.term_stats(1).max_tf == repeat
    assert index.vocabulary.cf(1) == repeat + 2


@pytest.mark.parametrize("n_terms", [2**16 - 1, 2**16])
def test_build_on_both_sides_of_the_key_boundary(n_terms):
    """2**15 one-token documents over 2**16 - 1 terms keep int32 keys;
    over 2**16 terms the keys reach 2**31 and go int64.  Either way the
    index equals the per-document reference."""
    n_docs = 2**15
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, n_terms, size=n_docs)
    tokens[-1] = n_terms - 1  # the largest key is in the collection
    documents = [Document(i, tokens[i:i + 1].copy()) for i in range(n_docs)]
    collection = Collection(documents, [f"t{j}" for j in range(n_terms)], name="keys")
    assert posting_dtypes(n_terms, n_docs, 1)[2] == (np.int32 if n_terms < 2**16 else np.int64)
    check_index(InvertedIndex.build(collection), collection)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_partial_scores_do_not_depend_on_the_tf_width(model):
    """Every model scores int16 tfs bit for bit as int64 ones (a bare
    ``np.log`` of int16 would compute in float32)."""
    documents = [Document(i, np.array([0, 1, 1, 2] * (i + 1), dtype=np.int64))
                 for i in range(6)]
    index = InvertedIndex.build(Collection(documents, ["a", "b", "c"], name="scores"))
    scorer = make_model(model)
    for tid in range(3):
        doc_ids, tfs = index.postings(tid)
        assert tfs.dtype == np.int16
        narrow = scorer.partial_scores(index, tid, doc_ids, tfs)
        wide = scorer.partial_scores(index, tid, doc_ids, tfs.astype(np.int64))
        assert narrow.dtype == np.float64
        assert narrow.tobytes() == wide.tobytes()
