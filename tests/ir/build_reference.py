"""The per-document inverted-index build and the per-term maxima loop.

``InvertedIndex.build`` and ``InvertedIndex.__init__`` once ran these
loops: ``np.unique`` per document, a stable argsort of the concatenated
(term, doc, tf) triples, and a Python loop over terms for ``max_tf`` and
``max_tf_over_dl``.  They are kept here, unchanged in their arithmetic,
as the oracle the sort-based build must match array for array and bit
for bit (``tests/ir/test_build_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ir import Collection, Vocabulary


def reference_postings(collection: Collection, n_terms: int):
    """``(terms, docs, tfs, offsets, doc_lengths)`` of the old build."""
    term_chunks, doc_chunks, tf_chunks = [], [], []
    for doc in collection.documents:
        unique, counts = np.unique(doc.token_ids, return_counts=True)
        term_chunks.append(unique.astype(np.int64))
        doc_chunks.append(np.full(len(unique), doc.doc_id, dtype=np.int64))
        tf_chunks.append(counts.astype(np.int64))
    if term_chunks:
        terms = np.concatenate(term_chunks)
        docs = np.concatenate(doc_chunks)
        tfs = np.concatenate(tf_chunks)
    else:
        terms = docs = tfs = np.empty(0, dtype=np.int64)
    order = np.argsort(terms, kind="stable")  # doc order preserved per term
    terms, docs, tfs = terms[order], docs[order], tfs[order]
    offsets = np.searchsorted(terms, np.arange(n_terms + 1))
    doc_lengths = np.asarray([doc.length for doc in collection.documents], dtype=np.int64)
    return terms, docs, tfs, offsets, doc_lengths


def reference_vocabulary(collection: Collection) -> Vocabulary:
    """df/cf counted document by document."""
    return Vocabulary.from_token_id_docs(
        (doc.token_ids for doc in collection.documents), collection.term_strings
    )


def reference_maxima(offsets: np.ndarray, docs: np.ndarray, tfs: np.ndarray,
                     doc_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(max_tf, max_tf_over_dl)`` by one slice per term."""
    n_terms = len(offsets) - 1
    dl = doc_lengths.astype(np.float64)
    max_tf = np.zeros(n_terms, dtype=np.int64)
    max_tf_over_dl = np.zeros(n_terms, dtype=np.float64)
    for tid in range(n_terms):
        start, stop = offsets[tid], offsets[tid + 1]
        if stop > start:
            seg_tf = tfs[start:stop]
            max_tf[tid] = int(seg_tf.max())
            max_tf_over_dl[tid] = float((seg_tf / dl[docs[start:stop]]).max())
    return max_tf, max_tf_over_dl
