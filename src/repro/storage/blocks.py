"""Blocked posting storage: contiguous numpy blocks.

The paper's central performance argument is MonetDB's block-at-a-time
flattening of the query loop: instead of interpreting one posting per
iteration, an operator consumes a contiguous array slab per call and
amortizes the interpretation overhead over the whole block.  This
module is the storage half of that argument for the top-N engines: a
graded list (one query term of an inverted index, one feature column)
is partitioned into fixed-size blocks of parallel ``(doc_id, grade)``
numpy arrays.  The engines read and charge a whole block at a time: the
block is the unit of a sorted-access charge over this storage.

Two layouts, matching the two access disciplines of the engines:

* :class:`ScoredBlocks` — descending-grade order (ties id-ascending,
  the exact order every scalar sorted-access source uses), for the
  TA/NRA/CA family;
* :class:`DocBlocks` — ascending-doc-id order with per-block
  ``(min_doc, max_doc)`` metadata, for accumulator-style engines
  (quit/continue) that skip blocks provably containing no admitted
  document.

Layout classes are passive: cost charging stays at the access sites
(sources and engines), mirroring how ``BAT`` itself never charges.
"""

from __future__ import annotations

import numpy as np

from ..errors import StorageError


def blocks_between(lo: int, hi: int, block_size: int, n_postings: int) -> range:
    """The blocks a reader of ranks ``lo .. hi - 1`` of a list of
    ``n_postings`` opens: those whose first rank is one of them.  The
    block holding rank ``lo - 1`` was paid for by whoever read that
    rank."""
    return range(-(-lo // block_size), -(-min(hi, n_postings) // block_size))


def _check_block_size(block_size: int) -> int:
    block_size = int(block_size)
    if block_size < 1:
        raise StorageError(f"block_size must be >= 1, got {block_size}")
    return block_size


class ScoredBlocks:
    """A graded list as fixed-size blocks in descending-grade order.

    ``doc_ids``/``grades`` are stored contiguously in the canonical
    sorted-access order (grade descending, ties doc-id ascending —
    byte-identical to :class:`~repro.mm.sources.ArraySource` and
    :class:`~repro.mm.sources.PostingsSource`), partitioned into blocks
    of ``block_size`` postings; the last block may be short.
    """

    def __init__(self, doc_ids, grades, block_size: int, *,
                 presorted: bool = False) -> None:
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        grades = np.asarray(grades, dtype=np.float64)
        if doc_ids.ndim != 1 or grades.ndim != 1:
            raise StorageError("doc_ids and grades must be one-dimensional")
        if len(doc_ids) != len(grades):
            raise StorageError(
                f"doc_ids and grades disagree: {len(doc_ids)} vs {len(grades)}")
        self.block_size = _check_block_size(block_size)
        if not presorted and len(grades):
            order = np.lexsort((doc_ids, -grades))
            doc_ids = doc_ids[order]
            grades = grades[order]
        self.doc_ids = doc_ids
        self.grades = grades
        self.starts = np.arange(0, len(grades), self.block_size)

    @property
    def n_postings(self) -> int:
        return len(self.doc_ids)

    @property
    def n_blocks(self) -> int:
        return len(self.starts)

    def block_bounds(self, b: int) -> tuple[int, int]:
        """The rank range ``[start, end)`` block ``b`` covers."""
        start = int(self.starts[b])
        return start, min(start + self.block_size, len(self.doc_ids))

    def block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Block ``b`` as ``(doc_ids, grades)`` array views."""
        start, end = self.block_bounds(b)
        return self.doc_ids[start:end], self.grades[start:end]


class DocBlocks:
    """A posting list as fixed-size blocks in ascending-doc-id order.

    The accumulator engines (quit/continue) read postings in document
    order; each block carries ``(min_doc, max_doc)``, so a
    continue-phase pass can skip blocks that provably contain no
    admitted document without reading their payload.
    """

    def __init__(self, doc_ids, grades, block_size: int) -> None:
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        grades = np.asarray(grades, dtype=np.float64)
        if len(doc_ids) != len(grades):
            raise StorageError(
                f"doc_ids and grades disagree: {len(doc_ids)} vs {len(grades)}")
        self.block_size = _check_block_size(block_size)
        if len(doc_ids) > 1 and np.any(np.diff(doc_ids) < 0):
            order = np.argsort(doc_ids, kind="stable")
            doc_ids = doc_ids[order]
            grades = grades[order]
        self.doc_ids = doc_ids
        self.grades = grades
        if len(doc_ids):
            self.starts = np.arange(0, len(doc_ids), self.block_size)
            ends = np.minimum(self.starts + self.block_size, len(doc_ids))
            self.min_docs = doc_ids[self.starts]
            self.max_docs = doc_ids[ends - 1]
        else:
            self.starts = np.empty(0, dtype=np.int64)
            self.min_docs = np.empty(0, dtype=np.int64)
            self.max_docs = np.empty(0, dtype=np.int64)

    @property
    def n_postings(self) -> int:
        return len(self.doc_ids)

    @property
    def n_blocks(self) -> int:
        return len(self.starts)

    def block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        start = int(self.starts[b])
        end = min(start + self.block_size, len(self.doc_ids))
        return self.doc_ids[start:end], self.grades[start:end]

    def overlapping(self, sorted_ids: np.ndarray) -> np.ndarray:
        """Boolean mask per block: may the block contain any of
        ``sorted_ids`` (ascending)?  Metadata-only — no payload read —
        and conservative: ``False`` proves the block holds none of the
        ids, ``True`` only that the id range overlaps."""
        if self.n_blocks == 0:
            return np.empty(0, dtype=bool)
        if len(sorted_ids) == 0:
            return np.zeros(self.n_blocks, dtype=bool)
        lo = np.searchsorted(sorted_ids, self.min_docs, side="left")
        mask = lo < len(sorted_ids)
        mask[mask] = sorted_ids[lo[mask]] <= self.max_docs[mask]
        return mask
