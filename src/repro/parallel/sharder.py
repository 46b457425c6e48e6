"""Document-range sharding of the inverted file.

The Step-1 programme fragments the inverted index *vertically in the
vocabulary* (interesting terms vs the rest); this module partitions it
*horizontally over documents*.  Each shard is a fully self-contained
:class:`~repro.ir.invindex.InvertedIndex` over a contiguous document
range ``[doc_lo, doc_hi)`` with its own BAT storage (posting triples
restricted to the range, built through
:meth:`InvertedIndex.from_postings`, so every shard charges its own
scans on the simulated buffer manager).  Ranking models keep using the
**global** df/cf through the shared vocabulary and ``stats_from``, so
a document's score is bitwise identical no matter which shard
evaluates it.

Because shards partition *documents* (not terms or sources), a
document's complete score is computable inside exactly one shard; the
coordinator's job is a top-N merge, not score assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShardingError
from ..ir.invindex import InvertedIndex


@dataclass
class IndexShard:
    """One document-range shard: a self-contained inverted index over
    ``[doc_lo, doc_hi)``."""

    shard_id: int
    doc_lo: int
    doc_hi: int
    index: InvertedIndex

    @property
    def n_docs(self) -> int:
        """Documents assigned to this shard (range width)."""
        return self.doc_hi - self.doc_lo

    @property
    def n_postings(self) -> int:
        return self.index.total_postings()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IndexShard({self.shard_id}: docs [{self.doc_lo}, {self.doc_hi}), "
                f"{self.n_postings} postings)")


@dataclass
class ShardedIndex:
    """A document-range sharding of one inverted index."""

    full: InvertedIndex
    shards: list[IndexShard]
    #: shard boundaries: ``k + 1`` ascending document ids
    boundaries: list[int]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def postings_per_shard(self) -> list[int]:
        return [shard.n_postings for shard in self.shards]

    def skew(self) -> float:
        """Largest shard's postings share relative to the even split
        (1.0 = perfectly balanced, K = everything on one shard)."""
        per_shard = self.postings_per_shard()
        total = sum(per_shard)
        if total == 0:
            return 1.0
        return max(per_shard) / (total / len(per_shard))


def _resolve_boundaries(n_docs: int, shards: int | None,
                        boundaries: list[int] | None) -> list[int]:
    if boundaries is not None:
        bounds = [int(b) for b in boundaries]
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n_docs:
            raise ShardingError(
                f"boundaries must run from 0 to n_docs={n_docs}, got {bounds}")
        if any(a > b for a, b in zip(bounds, bounds[1:])):
            raise ShardingError(f"boundaries must be ascending, got {bounds}")
        return bounds
    if shards is None or shards < 1:
        raise ShardingError(f"need a positive shard count, got {shards}")
    if n_docs == 0:
        return [0] * (shards + 1)
    return [round(i * n_docs / shards) for i in range(shards + 1)]


def _balanced_boundaries(index: InvertedIndex, shards: int) -> list[int]:
    """Boundaries equalizing *postings volume* rather than document
    count: split the cumulative postings-per-document curve evenly."""
    if shards < 1:
        raise ShardingError(f"need a positive shard count, got {shards}")
    n_docs = index.n_docs
    if n_docs == 0:
        return [0] * (shards + 1)
    per_doc = np.bincount(index.postings_docs.tail, minlength=n_docs)
    cumulative = np.cumsum(per_doc)
    total = int(cumulative[-1])
    bounds = [0]
    for i in range(1, shards):
        target = i * total / shards
        bounds.append(int(np.searchsorted(cumulative, target, side="left")) + 1)
    bounds.append(n_docs)
    # enforce monotonicity (degenerate distributions can collapse cuts)
    for i in range(1, len(bounds)):
        bounds[i] = min(max(bounds[i], bounds[i - 1]), n_docs)
    return bounds


def shard_index(
    index,
    shards: int | None = None,
    boundaries: list[int] | None = None,
    balance: str = "docs",
) -> ShardedIndex:
    """Partition an inverted index (or a
    :class:`~repro.fragmentation.fragmenter.FragmentedIndex`, whose
    full index is used) into contiguous document-range shards.

    ``balance="docs"`` (default) splits the document id space evenly;
    ``balance="postings"`` equalizes postings volume instead, which
    matters for collections whose long documents cluster.  Explicit
    ``boundaries`` (``k + 1`` ascending doc ids from 0 to ``n_docs``)
    override both — that is how tests build deliberately skewed or
    empty shards.
    """
    full = getattr(index, "full", index)
    if not isinstance(full, InvertedIndex):
        raise ShardingError(f"cannot shard {type(index).__name__}")
    if balance not in ("docs", "postings"):
        raise ShardingError(f"unknown balance mode {balance!r}; have docs/postings")
    if boundaries is None and balance == "postings":
        bounds = _balanced_boundaries(full, shards or 1)
    else:
        bounds = _resolve_boundaries(full.n_docs, shards, boundaries)

    terms = full.postings_terms.tail
    docs = full.postings_docs.tail
    tfs = full.postings_tf.tail
    out: list[IndexShard] = []
    for shard_id, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        mask = (docs >= lo) & (docs < hi)
        shard_idx = InvertedIndex.from_postings(
            terms[mask],
            docs[mask],
            tfs[mask],
            full.n_terms,
            full.doc_lengths,
            full.vocabulary,
            stats_from=full,
            name=f"shard{shard_id}",
        )
        out.append(IndexShard(shard_id, lo, hi, shard_idx))
    return ShardedIndex(full, out, bounds)
