"""The inverted index, flattened onto BATs.

Layout is CSR-style, exactly how a Moa/MonetDB IR schema would store
it: three aligned, persistent BATs sorted by term id —

* ``postings_terms``  ``[pos -> term_id]`` (ascending; int32),
* ``postings_docs``   ``[pos -> doc_id]`` (int64),
* ``postings_tf``     ``[pos -> tf]`` (int16, int32 once a tf reaches 2**15),

plus an in-memory int64 offsets array ``offsets[tid] .. offsets[tid+1]``
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
from .documents import Collection
from .vocabulary import Vocabulary


#: documents whose token ids one build step checks and keys together
_BATCH_DOCS = 512
#: postings one step of the per-term statistics reads together (512 KB
#: of float64 ``tf / dl``)
_BATCH_POSTINGS = 1 << 16


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
        vocabulary: Vocabulary | None,
        stats_from: "InvertedIndex | None" = None,
        *,
        term_strings: list[str] | None = None,
    ) -> None:
        """With ``vocabulary=None``, one is made from ``term_strings`` and
        the postings' df and cf."""
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
            self.total_cf = int(postings_tf.tail.sum(dtype=np.int64))
        # per-term maxima, for upper-bound administration, and the cf
        # when a vocabulary is to be made
        cf, self._max_tf, self._max_tf_over_dl = _per_term_stats(
            postings_tf.tail, postings_docs.tail, self._dl, offsets,
            with_cf=vocabulary is None)
        if vocabulary is None:
            self.vocabulary = Vocabulary.from_counts(term_strings, np.diff(offsets), cf)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, collection: Collection, vocabulary: Vocabulary | None = None) -> "InvertedIndex":
        """Build the index from a collection of term-id documents.

        Every token becomes one key ``term * n_docs + doc``, int32 while
        ``n_terms * n_docs < 2**31`` and int64 above; one sort puts the
        keys in term-major, doc-ascending order, and the runs of equal
        keys are the postings, their lengths the tfs.  The columns come
        out at the widths :func:`posting_dtypes` picks: int32 term ids,
        int64 doc ids, and int16 tfs unless a tf reaches ``2**15``.
        Without a ``vocabulary``, one is made from the collection's term
        strings and the postings' df and cf."""
        n_terms = len(vocabulary) if vocabulary is not None else collection.n_terms
        n_docs = collection.n_docs
        token_ids = [doc.token_ids for doc in collection.documents]
        lengths = np.fromiter(map(len, token_ids), dtype=np.int64, count=n_docs)
        n_tokens = int(lengths.sum())
        max_length = int(lengths.max()) if n_docs else 0
        # a tf never exceeds its document's length
        term_dtype, tf_dtype, key_dtype = posting_dtypes(n_terms, n_docs, max_length)
        keys = np.empty(n_tokens, dtype=key_dtype)
        # the int64 token ids are checked and keyed a batch of documents
        # at a time, so no int64 copy of the whole collection is made
        pos = 0
        for first in range(0, n_docs, _BATCH_DOCS):
            stop = min(first + _BATCH_DOCS, n_docs)
            batch = np.concatenate(token_ids[first:stop], dtype=np.int64, casting="same_kind")
            if len(batch):
                lowest, highest = batch.min(), batch.max()
                if lowest < 0 or highest >= n_terms:
                    bad = lowest if lowest < 0 else highest
                    raise WorkloadError(f"token id {bad} outside vocabulary")
            batch *= n_docs
            batch += np.repeat(np.arange(first, stop), lengths[first:stop])
            np.copyto(keys[pos:pos + len(batch)], batch, casting="same_kind")
            pos += len(batch)
        keys.sort()
        run_start = np.empty(n_tokens, dtype=bool)
        run_start[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
        # the keys go before the posting columns exist: the build's
        # peak is the keys plus one bool per token and one key per posting
        pair_keys = keys[run_start]
        del keys
        starts = np.flatnonzero(run_start)
        del run_start
        if tf_dtype != np.int16:
            # a document is long enough for a tf to reach 2**15: size the
            # column by the largest tf, not by the document length
            max_tf = int(np.diff(starts, append=n_tokens).max())
            tf_dtype = posting_dtypes(n_terms, n_docs, max_tf)[1]
        tfs = np.empty(len(starts), dtype=tf_dtype)
        np.subtract(starts[1:], starts[:-1], out=tfs[:-1], casting="same_kind")
        tfs[-1:] = n_tokens - starts[-1:]
        del starts
        docs = np.remainder(pair_keys, n_docs, dtype=np.int64)
        terms = pair_keys if key_dtype == term_dtype else np.empty(len(pair_keys), term_dtype)
        np.floor_divide(pair_keys, n_docs, out=terms, casting="same_kind")
        del pair_keys
        return cls(
            BAT(terms, name="postings_terms", tail_sorted=True, persistent=True),
            BAT(docs, name="postings_docs", persistent=True),
            BAT(tfs, name="postings_tf", persistent=True),
            _offsets(terms, n_terms),
            BAT(lengths, name="doc_lengths", persistent=True),
            vocabulary,
            term_strings=collection.term_strings,
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
        global vocabulary and collection statistics.  The columns are
        stored as given, in their own dtypes."""
        if len(terms) > 1 and not np.all(terms[:-1] <= terms[1:]):
            raise WorkloadError("from_postings requires term-sorted triples")
        offsets = _offsets(terms, n_terms)
        return cls(
            BAT(terms, name=f"{name}_terms", tail_sorted=True, persistent=True),
            BAT(docs, name=f"{name}_docs", persistent=True),
            BAT(tfs, name=f"{name}_tf", persistent=True),
            offsets,
            doc_lengths,
            vocabulary,
            stats_from=stats_from,
        )

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


def posting_dtypes(n_terms: int, n_docs: int, max_tf: int) -> tuple[np.dtype, np.dtype, np.dtype]:
    """``(term id, tf, build key)`` dtypes of an index over ``n_terms``
    terms and ``n_docs`` documents whose largest tf is ``max_tf``: each
    the narrowest signed dtype, at least int32 for term ids and keys and
    int16 for tfs, that holds its largest value (``n_terms``, ``max_tf``
    and ``n_terms * n_docs``).  Doc ids stay int64: the scoring paths
    index and scatter with them, and numpy converts narrower index
    arrays to int64 on every such call."""
    return (_narrowest(n_terms, np.int32), _narrowest(max_tf, np.int16),
            _narrowest(n_terms * n_docs, np.int32))


def _narrowest(value: int, floor: type) -> np.dtype:
    for dtype in (np.int16, np.int32):
        if np.dtype(dtype).itemsize >= np.dtype(floor).itemsize and value <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _offsets(terms: np.ndarray, n_terms: int) -> np.ndarray:
    """``offsets[tid] .. offsets[tid + 1]``: each term's range of the
    term-sorted ``terms``.  The needles take the column's dtype, so
    ``searchsorted`` does not convert the column."""
    return np.searchsorted(terms, np.arange(n_terms + 1, dtype=terms.dtype))


def _per_term_stats(tfs: np.ndarray, docs: np.ndarray, dl: np.ndarray, offsets: np.ndarray,
                    with_cf: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Each term's tf sum, the cf (int64; ``None`` unless ``with_cf``),
    largest tf (int64) and largest ``tf / dl`` (float64) over its
    posting range; 0 for a term without postings.  All are taken
    ``_BATCH_POSTINGS`` postings at a time, so no int64 or float64 copy
    of a whole column is made; integer sums and maxima are exact, so
    the result does not depend on where the batches cut."""
    n_terms = len(offsets) - 1
    cf = np.zeros(n_terms, dtype=np.int64) if with_cf else None
    max_tf = np.zeros(n_terms, dtype=np.int64)
    max_ratio = np.zeros(n_terms, dtype=np.float64)
    for lo in range(0, len(tfs), _BATCH_POSTINGS):
        hi = min(lo + _BATCH_POSTINGS, len(tfs))
        # the terms whose ranges meet [lo, hi), and those ranges in it
        first = int(np.searchsorted(offsets, lo, side="right")) - 1
        stop = int(np.searchsorted(offsets, hi, side="left"))
        ranges = np.clip(offsets[first:stop + 1], lo, hi) - lo
        ratio = dl[docs[lo:hi]]
        np.divide(tfs[lo:hi], ratio, out=ratio)
        columns = [(np.maximum, max_tf, tfs[lo:hi]), (np.maximum, max_ratio, ratio)]
        if with_cf:
            columns.append((np.add, cf, tfs[lo:hi]))
        for ufunc, out, values in columns:
            ufunc(out[first:stop], _per_term(ufunc, values, ranges), out=out[first:stop])
    return cf, max_tf, max_ratio


def _per_term(ufunc: np.ufunc, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over each term's posting range of ``values``;
    0 for a term without postings.  Integer columns reduce and return
    in int64, whatever their width, so a sum of int16 tfs cannot wrap."""
    out = np.zeros(len(offsets) - 1, dtype=np.result_type(values.dtype, np.int64))
    nonempty = offsets[:-1] < offsets[1:]
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, offsets[:-1][nonempty], dtype=out.dtype)
    return out
