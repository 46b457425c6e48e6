"""Zipf-based horizontal fragmentation of the inverted file (Step 1).

The paper: *"the least frequently occurring terms are the most
interesting ones while the most frequently occurring/least interesting
terms take up most of the storage/memory space.  To take advantage of
this effect I horizontally fragmented the most important vectors in
the database.  By processing only a small portion of the data of
approximately 5% of the unfragmented size, containing the 95% most
interesting terms, I was able to speed up query processing ... with at
least 60%."*

:func:`fragment_by_volume` splits one inverted index into

* a **small fragment** — the rare, interesting majority of the
  *vocabulary* carrying a small share of the *postings volume*, stored
  fully indexed (CSR) for cheap per-term access, and
* a **large fragment** — the few frequent terms owning most of the
  postings, stored as a raw posting heap (:class:`HeapFragment`):
  per-term access requires scanning it, unless the paper's *non-dense
  index* is built on it.

Both fragments share the global vocabulary and collection statistics,
so any ranking model produces identical partial scores regardless of
which fragment a posting is read from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from ..ir.invindex import InvertedIndex
from ..storage import kernel, stats
from ..storage.bat import BAT
from ..storage.buffer import get_buffer_manager
from ..storage.index import SparseIndex


class HeapFragment:
    """The large fragment: term-sorted posting triples *without* a
    per-term directory.

    Without an index, fetching one term's postings costs a scan of the
    whole fragment (this is why the paper's safe switch "lowered the
    speed also quite a lot").  :meth:`build_sparse_index` adds the
    paper's non-dense index on the term column, after which per-term
    access reads only the strides that can contain the term.
    """

    def __init__(self, terms: BAT, docs: BAT, tfs: BAT) -> None:
        self.terms = terms
        self.docs = docs
        self.tfs = tfs
        self._sparse_index: SparseIndex | None = None

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def has_index(self) -> bool:
        return self._sparse_index is not None

    def build_sparse_index(self, stride: int | None = None) -> SparseIndex:
        """Build the non-dense index over the term column."""
        self._sparse_index = SparseIndex(self.terms, stride=stride)
        return self._sparse_index

    def scan_postings(self, tids: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Postings of the requested terms by scanning the whole heap."""
        kernel.scan_cost(self.terms)
        kernel.scan_cost(self.docs)
        kernel.scan_cost(self.tfs)
        stats.charge_comparisons(len(self.terms) * max(len(tids), 1))
        out = {}
        for tid in tids:
            mask = self.terms.tail == tid
            out[tid] = (self.docs.tail[mask], self.tfs.tail[mask])
        return out

    def indexed_postings(self, tids: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Postings of the requested terms through the non-dense index
        (raises unless :meth:`build_sparse_index` was called)."""
        if self._sparse_index is None:
            raise WorkloadError("large fragment has no non-dense index; "
                                "call build_sparse_index() first")
        manager = get_buffer_manager()
        out = {}
        for tid in tids:
            positions = self._sparse_index.lookup_positions(tid, tid)
            # fetch the aligned doc/tf pages for the hit positions
            if len(positions):
                stats.charge_tuples_read(2 * len(positions))
                manager.request_pages([
                    key for page in np.unique(positions // manager.page_tuples).tolist()
                    for key in ((self.docs.segment_id, page), (self.tfs.segment_id, page))])
            out[tid] = (self.docs.tail[positions], self.tfs.tail[positions])
        return out


@dataclass
class FragmentedIndex:
    """A fragmented inverted file: CSR small fragment + heap large
    fragment, plus the term assignment and sizing statistics."""

    full: InvertedIndex
    small: InvertedIndex
    large: HeapFragment
    #: True where the term lives in the small (interesting) fragment
    in_small: np.ndarray
    volume_cut: float

    @property
    def small_postings(self) -> int:
        return self.small.total_postings()

    @property
    def large_postings(self) -> int:
        return len(self.large)

    def small_volume_share(self) -> float:
        """Fraction of all postings held by the small fragment — the
        paper's "approximately 5% of the unfragmented size"."""
        total = self.small_postings + self.large_postings
        return self.small_postings / total if total else 0.0

    def small_vocabulary_share(self) -> float:
        """Fraction of the vocabulary in the small fragment — the
        paper's "95% most interesting terms"."""
        if len(self.in_small) == 0:
            return 0.0
        return float(self.in_small.mean())

    def split_query(self, tids: list[int]) -> tuple[list[int], list[int]]:
        """Partition query terms into (small-fragment, large-fragment)."""
        small = [tid for tid in tids if self.in_small[tid]]
        large = [tid for tid in tids if not self.in_small[tid]]
        return small, large


def fragment_by_volume(index: InvertedIndex, volume_cut: float = 0.95) -> FragmentedIndex:
    """Fragment an index so the most frequent terms carrying
    ``volume_cut`` of the postings volume go to the large fragment.

    With Zipf-distributed text and ``volume_cut=0.95`` this reproduces
    the paper's split: ~95% of terms (the interesting ones) end up in a
    small fragment holding ~5% of the postings.
    """
    if not 0.0 < volume_cut < 1.0:
        raise WorkloadError(f"volume_cut must be in (0, 1), got {volume_cut}")
    n_terms = index.n_terms
    df = index.vocabulary.df_array().astype(np.float64)
    order = np.argsort(-df, kind="stable")  # most frequent first
    cumulative = np.cumsum(df[order])
    total = cumulative[-1] if len(cumulative) else 0.0
    in_small = np.ones(n_terms, dtype=bool)
    if total > 0:
        n_large = int(np.searchsorted(cumulative, volume_cut * total) + 1)
        in_small[order[:n_large]] = False

    terms = index.postings_terms.tail
    docs = index.postings_docs.tail
    tfs = index.postings_tf.tail
    posting_in_small = in_small[terms]
    # one full pass to write both fragments
    kernel.scan_cost(index.postings_terms)
    kernel.scan_cost(index.postings_docs)
    kernel.scan_cost(index.postings_tf)
    stats.charge_tuples_written(len(terms))

    small = InvertedIndex.from_postings(
        terms[posting_in_small],
        docs[posting_in_small],
        tfs[posting_in_small],
        n_terms,
        index.doc_lengths,
        index.vocabulary,
        stats_from=index,
        name="small",
    )
    large = HeapFragment(
        BAT(terms[~posting_in_small], name="large_terms", tail_sorted=True, persistent=True),
        BAT(docs[~posting_in_small], name="large_docs", persistent=True),
        BAT(tfs[~posting_in_small], name="large_tf", persistent=True),
    )
    return FragmentedIndex(index, small, large, in_small, volume_cut)
