"""The inverted index, flattened onto BATs.

Layout is CSR-style, exactly how a Moa/MonetDB IR schema would store
it: three aligned, persistent BATs sorted by term id —

* ``postings_terms``  ``[pos -> term_id]`` (ascending),
* ``postings_docs``   ``[pos -> doc_id]``,
* ``postings_tf``     ``[pos -> tf]``,

plus an in-memory offsets array ``offsets[tid] .. offsets[tid+1]``
delimiting each term's posting range, and a ``doc_lengths`` BAT.
Reading a term's postings charges a scan of exactly that range on the
simulated buffer manager, so "how much of the inverted file a strategy
touches" is measured the way the paper argues about it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from ..storage import kernel
from ..storage.bat import BAT
from .analysis import Analyzer, DEFAULT_ANALYZER
from .documents import Collection, Document
from .vocabulary import Vocabulary


@dataclass(frozen=True)
class TermStats:
    """Per-term statistics published to ranking models and optimizers."""

    term_id: int
    df: int
    cf: int
    max_tf: int
    max_tf_over_dl: float


class InvertedIndex:
    """CSR inverted index over persistent BATs."""

    def __init__(
        self,
        postings_terms: BAT,
        postings_docs: BAT,
        postings_tf: BAT,
        offsets: np.ndarray,
        doc_lengths: BAT,
        vocabulary: Vocabulary,
        stats_from: "InvertedIndex | None" = None,
    ) -> None:
        self.postings_terms = postings_terms
        self.postings_docs = postings_docs
        self.postings_tf = postings_tf
        self.offsets = offsets
        self.doc_lengths = doc_lengths
        self.vocabulary = vocabulary
        self.n_docs = len(doc_lengths)
        self.n_terms = len(offsets) - 1
        self._dl = doc_lengths.tail.astype(np.float64)
        if stats_from is not None:
            # fragments share the full index's global statistics so that
            # ranking-model scores are identical across fragmentations
            self.avg_dl = stats_from.avg_dl
            self.total_cf = stats_from.total_cf
        else:
            self.avg_dl = float(self._dl.mean()) if self.n_docs else 0.0
            self.total_cf = int(postings_tf.tail.sum()) if len(postings_tf) else 0
        # per-term maxima, for upper-bound administration
        tf = postings_tf.tail
        self._max_tf = _per_term(np.maximum, tf, offsets).astype(np.int64, copy=False)
        tf_over_dl = self._dl[postings_docs.tail]
        np.divide(tf, tf_over_dl, out=tf_over_dl)  # one temporary, not two
        self._max_tf_over_dl = _per_term(np.maximum, tf_over_dl, offsets)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, collection: Collection, vocabulary: Vocabulary | None = None) -> "InvertedIndex":
        """Build the index from a collection of term-id documents.

        Every token becomes one int64 key ``term * n_docs + doc``; one
        sort puts the keys in term-major, doc-ascending order, and the
        runs of equal keys are the postings, their lengths the tfs.
        Without a ``vocabulary``, one is made from the collection's term
        strings and the postings' df and cf."""
        n_terms = len(vocabulary) if vocabulary is not None else collection.n_terms
        n_docs = collection.n_docs
        token_ids = [doc.token_ids for doc in collection.documents]
        lengths = np.fromiter(map(len, token_ids), dtype=np.int64, count=n_docs)
        keys = np.empty(int(lengths.sum()), dtype=np.int64)
        if n_docs:
            np.concatenate(token_ids, out=keys)
        if len(keys):
            lowest, highest = keys.min(), keys.max()
            if lowest < 0 or highest >= n_terms:
                bad = lowest if lowest < 0 else highest
                raise WorkloadError(f"token id {bad} outside vocabulary")
        keys *= n_docs
        # doc ids in the narrowest signed dtype that holds them, so this
        # temporary is a quarter (int16) to half (int32) of the keys
        keys += np.repeat(np.arange(n_docs, dtype=np.min_scalar_type(-n_docs)), lengths)
        keys.sort()
        run_start = np.empty(len(keys), dtype=bool)
        run_start[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
        # the keys go before the posting columns exist: the build's
        # peak is the keys plus one bool and one int64 per posting
        pair_keys = keys[run_start]
        del keys
        tfs = np.diff(np.flatnonzero(run_start), append=len(run_start))
        del run_start
        terms, docs = np.divmod(pair_keys, n_docs)
        del pair_keys
        df = np.bincount(terms, minlength=n_terms)
        offsets = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum(df, out=offsets[1:])
        if vocabulary is None:
            vocabulary = Vocabulary.from_counts(
                collection.term_strings, df, _per_term(np.add, tfs, offsets))
        return cls(
            BAT(terms, name="postings_terms", tail_sorted=True, persistent=True),
            BAT(docs, name="postings_docs", persistent=True),
            BAT(tfs, name="postings_tf", persistent=True),
            offsets,
            BAT(lengths, name="doc_lengths", persistent=True),
            vocabulary,
        )

    @classmethod
    def from_postings(
        cls,
        terms: np.ndarray,
        docs: np.ndarray,
        tfs: np.ndarray,
        n_terms: int,
        doc_lengths: BAT,
        vocabulary: Vocabulary,
        stats_from: "InvertedIndex | None" = None,
        name: str = "fragment",
    ) -> "InvertedIndex":
        """Build an index over raw posting triples (must be sorted by
        term id).  Used by the fragmentation layer, which carves one
        full index into term-disjoint physical fragments that share the
        global vocabulary and collection statistics."""
        if len(terms) > 1 and not np.all(terms[:-1] <= terms[1:]):
            raise WorkloadError("from_postings requires term-sorted triples")
        offsets = np.searchsorted(terms, np.arange(n_terms + 1))
        return cls(
            BAT(terms, name=f"{name}_terms", tail_sorted=True, persistent=True),
            BAT(docs, name=f"{name}_docs", persistent=True),
            BAT(tfs, name=f"{name}_tf", persistent=True),
            offsets,
            doc_lengths,
            vocabulary,
            stats_from=stats_from,
        )

    @classmethod
    def from_texts(cls, texts: list[str], analyzer: Analyzer | None = None,
                   name: str = "texts") -> tuple["InvertedIndex", Collection]:
        """Analyze raw text documents and build an index over them."""
        analyzer = analyzer or DEFAULT_ANALYZER
        vocabulary = Vocabulary()
        documents = []
        for doc_id, text in enumerate(texts):
            token_ids = vocabulary.add_document_terms(analyzer.analyze(text))
            documents.append(Document(doc_id, np.asarray(token_ids, dtype=np.int64)))
        collection = Collection(documents, vocabulary.terms(), name=name)
        return cls.build(collection, vocabulary), collection

    # -- access ---------------------------------------------------------------

    def posting_length(self, tid: int) -> int:
        """Length of a term's posting list (metadata; no I/O)."""
        self._check_tid(tid)
        return int(self.offsets[tid + 1] - self.offsets[tid])

    def postings(self, tid: int) -> tuple[np.ndarray, np.ndarray]:
        """``(doc_ids, tfs)`` for a term, charging the scan of exactly
        that posting range on both posting columns."""
        self._check_tid(tid)
        start, stop = int(self.offsets[tid]), int(self.offsets[tid + 1])
        n = stop - start
        kernel.scan_cost(self.postings_docs, n, start=start)
        kernel.scan_cost(self.postings_tf, n, start=start)
        return self.postings_docs.tail[start:stop], self.postings_tf.tail[start:stop]

    def doc_length(self, doc_ids: np.ndarray) -> np.ndarray:
        """Lengths of the given documents (random probe charge)."""
        return kernel.fetch_values(self.doc_lengths, doc_ids).astype(np.float64)

    def doc_lengths_array(self) -> np.ndarray:
        """All document lengths (cached metadata; used by models that
        pre-normalize — charged once at build)."""
        return self._dl

    def term_stats(self, tid: int) -> TermStats:
        self._check_tid(tid)
        return TermStats(
            term_id=tid,
            df=self.vocabulary.df(tid),
            cf=self.vocabulary.cf(tid),
            max_tf=int(self._max_tf[tid]),
            max_tf_over_dl=float(self._max_tf_over_dl[tid]),
        )

    def candidate_documents(self, tids: list[int]) -> np.ndarray:
        """Distinct documents containing at least one of the terms —
        the candidate set whose size the paper's Section 1 discusses."""
        parts = [self.postings(tid)[0] for tid in tids]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def total_postings(self) -> int:
        """Total number of postings (the "unfragmented size")."""
        return len(self.postings_docs)

    def _check_tid(self, tid: int) -> None:
        if not 0 <= tid < self.n_terms:
            raise WorkloadError(f"term id {tid} outside index vocabulary (n={self.n_terms})")


def _per_term(ufunc: np.ufunc, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over each term's posting range of ``values``;
    0 for a term without postings."""
    out = np.zeros(len(offsets) - 1, dtype=values.dtype)
    nonempty = offsets[:-1] < offsets[1:]
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, offsets[:-1][nonempty])
    return out
