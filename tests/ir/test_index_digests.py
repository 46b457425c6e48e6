"""Golden digests of the inverted index over the benchmark corpus.

``InvertedIndex.build`` turns documents into the term-major, doc-ascending
posting columns every text path reads; ``__init__`` derives the per-term
maxima the upper bounds use.  These digests pin every array of the index
over ``trec.ft_like(scale=1.0, seed=0)`` -- the corpus perfbench runs --
together with its dtype.  ``DIGESTS`` were computed with the
per-document ``np.unique`` build and the per-term maxima loop (now
``tests/ir/build_reference.py``) before the sort-based build replaced
them, when every integer column was int64.  The build now stores term
ids as int32 and tfs as int16, so those two columns are pinned as stored
by ``NARROW_DIGESTS``, and every integer array widened back to int64
must still hash to its ``DIGESTS`` entry: no value moved.  A deliberate
change of layout must update them on purpose.
"""

import hashlib

import numpy as np
import pytest

from repro.ir import InvertedIndex
from repro.workloads import SyntheticCollection, trec

#: ``sha256`` of the dtype string followed by the array's bytes
DIGESTS = {
    "tokens": "6bec539bf26dc6104ccbd7dddb5460090fd36a612460029b6caf6ba6af1671cf",
    "postings_terms": "9ada580ec4fe7ef4b4c83fc284d1b36daff826c1bb5d00a3da2d650841bc235a",
    "postings_docs": "0a562a20fb004537bda7771a58914d601c93cb23b5ba966efbac95f14fb1b178",
    "postings_tf": "c65aa62350a6d79e5b0612e72b7e662e849ce297dd4f4814f1580310fc246c6c",
    "offsets": "ab0db2e33473156391920b757f00a4cfdaca43ca0ace47b3ac087f487f6b37f1",
    "doc_lengths": "580b98450777a13008c9c7a1c6a4e4e66547e396e4a2883f21cc676966f7b8fe",
    "df": "116d59d82f6f94879384898d1e4e9d7ebb817610189f65a959e499d4d26035cc",
    "cf": "e42e8331587a795012ff9ff486ba45844cc1007e6bb630e0af7e00fc8f91f45b",
    "max_tf": "d5307f0a0ae865239ab591fc74273afb41e65799acca95b97ab2d8c75f95ea99",
    "max_tf_over_dl": "3806911bdace9e08151eb3ef0c5ce1ecf1f7a8123fe86239ad830842089c645e",
}

#: the narrowed columns as stored: ``(dtype, sha256)``
NARROW_DIGESTS = {
    "postings_terms": (
        np.int32, "9566332259bd3e2857c74f295f4db61ef24bc3e136e52a6c8afeb8ababb268dd"),
    "postings_tf": (
        np.int16, "91a3a8e6844e7ff74345ef23570823aa61118430952ef4a5ac1e3d79b173e746"),
}

ARRAYS = ["postings_terms", "postings_docs", "postings_tf", "offsets", "doc_lengths",
          "df", "cf", "max_tf", "max_tf_over_dl"]


def sha256(values: np.ndarray) -> str:
    values = np.ascontiguousarray(values)
    return hashlib.sha256(values.dtype.str.encode() + values.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def collection():
    return SyntheticCollection.generate(trec.ft_like(scale=1.0, seed=0))


@pytest.fixture(scope="module")
def index(collection):
    return InvertedIndex.build(collection)


def index_arrays(index):
    return {
        "postings_terms": index.postings_terms.tail,
        "postings_docs": index.postings_docs.tail,
        "postings_tf": index.postings_tf.tail,
        "offsets": index.offsets,
        "doc_lengths": index.doc_lengths.tail,
        "df": index.vocabulary.df_array(),
        "cf": index.vocabulary.cf_array(),
        "max_tf": index._max_tf,
        "max_tf_over_dl": index._max_tf_over_dl,
    }


def test_corpus_is_the_pinned_one(collection):
    """A changed generator reads as such, not as a changed build."""
    tokens = np.concatenate([doc.token_ids for doc in collection.documents])
    assert sha256(tokens) == DIGESTS["tokens"]


@pytest.mark.parametrize("name", ARRAYS)
def test_index_array_digest(index, name):
    """Each array as stored: dtype and bytes."""
    values = index_arrays(index)[name]
    if name in NARROW_DIGESTS:
        dtype, digest = NARROW_DIGESTS[name]
        assert values.dtype == dtype
        assert sha256(values) == digest
    else:
        assert values.dtype in (np.int64, np.float64)
        assert sha256(values) == DIGESTS[name]


@pytest.mark.parametrize("name", ARRAYS)
def test_index_array_values(index, name):
    """Each array widened to int64 (float arrays as they are) hashes as
    the all-int64 build did."""
    values = index_arrays(index)[name]
    if values.dtype.kind == "i":
        values = values.astype(np.int64)
    assert sha256(values) == DIGESTS[name]
