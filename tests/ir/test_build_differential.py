"""The sort-based index build against the per-document reference build.

Every array of the index -- postings, offsets, document lengths, df/cf
and the per-term maxima -- must equal the reference's in bits, and
``df()``/``cf()`` must still return Python ints.  The reference keeps
every column int64; the index stores term ids as int32 and tfs as int16
(every drawn tf is below 2**15), so those two are compared widened back
to int64, which shows no value moved.  Fragments and shards go through
``InvertedIndex.from_postings``, so their columns keep those dtypes and
their maxima are checked the same way against the per-term reference
loop.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.fragmentation import fragment_by_volume
from repro.ir import Collection, Document, InvertedIndex, invindex
from repro.parallel import shard_index

from .build_reference import reference_maxima, reference_postings, reference_vocabulary


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_narrowed(got: np.ndarray, want: np.ndarray, dtype) -> None:
    """``got`` holds the int64 reference column ``want`` in ``dtype``."""
    assert got.dtype == dtype
    assert_same(got.astype(np.int64), want)


def assert_columns(index: InvertedIndex, terms, docs, tfs) -> None:
    assert_narrowed(index.postings_terms.tail, terms, np.int32)
    assert_same(index.postings_docs.tail, docs)
    assert_narrowed(index.postings_tf.tail, tfs, np.int16)


@st.composite
def collections(draw):
    """Small collections with unused terms, empty documents and, now and
    then, one term repeated hundreds of times in a document."""
    n_terms = draw(st.integers(0, 12))
    n_docs = draw(st.integers(0, 10))
    documents = []
    for doc_id in range(n_docs):
        tokens = []
        if n_terms:
            tokens = draw(st.lists(st.integers(0, n_terms - 1), max_size=25))
            heavy = draw(st.none() | st.tuples(st.integers(0, n_terms - 1),
                                               st.integers(1, 400)))
            if heavy is not None:
                tokens = draw(st.permutations(tokens + [heavy[0]] * heavy[1]))
        documents.append(Document(doc_id, np.asarray(tokens, dtype=np.int64)))
    return Collection(documents, [f"t{j}" for j in range(n_terms)], name="drawn")


def check_index(index: InvertedIndex, collection: Collection) -> None:
    terms, docs, tfs, offsets, lengths = reference_postings(collection, collection.n_terms)
    assert_columns(index, terms, docs, tfs)
    assert_same(index.offsets, offsets)
    assert_same(index.doc_lengths.tail, lengths)
    max_tf, max_tf_over_dl = reference_maxima(offsets, docs, tfs, lengths)
    assert_same(index._max_tf, max_tf)
    assert_same(index._max_tf_over_dl, max_tf_over_dl)

    vocabulary, reference = index.vocabulary, reference_vocabulary(collection)
    assert vocabulary.terms() == reference.terms()
    assert_same(vocabulary.df_array(), reference.df_array())
    assert_same(vocabulary.cf_array(), reference.cf_array())
    for tid in range(collection.n_terms):
        assert type(vocabulary.df(tid)) is int and vocabulary.df(tid) == reference.df(tid)
        assert type(vocabulary.cf(tid)) is int and vocabulary.cf(tid) == reference.cf(tid)
        assert vocabulary.term_id(collection.term_strings[tid]) == tid
    assert index.total_cf == reference.total_cf()


def check_part(part: InvertedIndex, mask: np.ndarray, collection: Collection) -> None:
    """``part`` holds exactly the reference postings under ``mask``,
    with the per-term maxima of those postings."""
    terms, docs, tfs, _, lengths = reference_postings(collection, collection.n_terms)
    terms, docs, tfs = terms[mask], docs[mask], tfs[mask]
    offsets = np.searchsorted(terms, np.arange(collection.n_terms + 1))
    assert_columns(part, terms, docs, tfs)
    assert_same(part.offsets, offsets)
    max_tf, max_tf_over_dl = reference_maxima(offsets, docs, tfs, lengths)
    assert_same(part._max_tf, max_tf)
    assert_same(part._max_tf_over_dl, max_tf_over_dl)


@settings(max_examples=200, deadline=None)
@given(collections())
def test_build_matches_reference(collection):
    check_index(InvertedIndex.build(collection), collection)


@settings(max_examples=60, deadline=None)
@given(collections(), st.sampled_from([0.2, 0.5, 0.8, 0.95]))
def test_fragments_match_reference(collection, cut):
    index = InvertedIndex.build(collection)
    fragmented = fragment_by_volume(index, volume_cut=cut)
    terms = reference_postings(collection, collection.n_terms)[0]
    in_small = fragmented.in_small[terms]
    check_part(fragmented.small, in_small, collection)
    assert_narrowed(fragmented.large.terms.tail, terms[~in_small], np.int32)
    assert fragmented.large.docs.tail.dtype == np.int64
    assert fragmented.large.tfs.tail.dtype == np.int16


@settings(max_examples=60, deadline=None)
@given(collections(), st.sampled_from([1, 2, 7]), st.sampled_from(["docs", "postings"]))
def test_shards_match_reference(collection, shards, balance):
    index = InvertedIndex.build(collection)
    sharded = shard_index(index, shards, balance=balance)
    docs = reference_postings(collection, collection.n_terms)[1]
    for shard in sharded.shards:
        check_part(shard.index, (docs >= shard.doc_lo) & (docs < shard.doc_hi), collection)


def check_stats_unchanged(index: InvertedIndex, one_batch: InvertedIndex) -> None:
    for tid in range(index.n_terms):
        assert index.term_stats(tid) == one_batch.term_stats(tid)


@settings(max_examples=100, deadline=None)
@given(collections(), st.integers(1, 9))
def test_maxima_in_small_batches_match_reference(collection, batch):
    """With ``_BATCH_POSTINGS`` far below the posting count, the cf sums
    and the ratios of one index, fragment or shard are taken over many
    batches, and a term often spans several: the vocabulary's df and cf
    and the maxima must still equal the per-term reference in bits, and
    every term's stats the one-batch build's."""
    one_batch = InvertedIndex.build(collection)
    with mock.patch.object(invindex, "_BATCH_POSTINGS", batch):
        index = InvertedIndex.build(collection)
        fragmented = fragment_by_volume(index, volume_cut=0.5)
        sharded = shard_index(index, 2)
    check_index(index, collection)
    check_stats_unchanged(index, one_batch)
    assert_same(index.vocabulary.df_array(), one_batch.vocabulary.df_array())
    assert_same(index.vocabulary.cf_array(), one_batch.vocabulary.cf_array())
    terms, docs = reference_postings(collection, collection.n_terms)[:2]
    check_part(fragmented.small, fragmented.in_small[terms], collection)
    for shard in sharded.shards:
        check_part(shard.index, (docs >= shard.doc_lo) & (docs < shard.doc_hi), collection)


def test_a_term_longer_than_a_batch_keeps_its_maximum():
    rng = np.random.default_rng(11)
    documents = [Document(d, rng.integers(0, 6, size=rng.integers(0, 30)))
                 for d in range(40)]
    collection = Collection(documents, [f"t{j}" for j in range(6)], name="batched")
    one_batch = InvertedIndex.build(collection)
    with mock.patch.object(invindex, "_BATCH_POSTINGS", 4):
        index = InvertedIndex.build(collection)
    assert max(index.posting_length(tid) for tid in range(6)) > 4 * 5
    assert index.total_postings() > 40
    check_index(index, collection)
    check_stats_unchanged(index, one_batch)


def test_empty_collection():
    collection = Collection([], [], name="empty")
    index = InvertedIndex.build(collection)
    check_index(index, collection)
    assert index.n_terms == 0 and index.total_postings() == 0


def test_empty_documents_and_unused_terms():
    documents = [Document(0, np.empty(0, dtype=np.int64)),
                 Document(1, np.array([2, 2, 2], dtype=np.int64)),
                 Document(2, np.empty(0, dtype=np.int64))]
    collection = Collection(documents, ["a", "b", "c", "d"], name="sparse")
    index = InvertedIndex.build(collection)
    check_index(index, collection)
    assert index.vocabulary.df(0) == 0 and index.term_stats(0).max_tf == 0


@pytest.mark.parametrize("bad", [-1, 3])
def test_token_outside_vocabulary(bad):
    documents = [Document(0, np.array([0, 1], dtype=np.int64)),
                 Document(1, np.array([2, bad, 0], dtype=np.int64))]
    with pytest.raises(WorkloadError, match="outside vocabulary"):
        InvertedIndex.build(Collection(documents, ["a", "b", "c"], name="bad"))
