"""A bounded top-N heap with deterministic tie-breaking.

All top-N strategies share the convention: higher score first, ties
broken by smaller object id.  The heap keeps the N current best and
exposes the *threshold* (the N-th best score) that drives the stopping
rules of TA and of the unsafe pruning heuristics.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..errors import TopNError
from .result import RankedItem


class BoundedTopN:
    """Keeps the top ``n`` (score, obj_id) pairs seen so far."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise TopNError(f"n must be non-negative, got {n}")
        self.n = n
        # min-heap of (score, -obj_id): the root is the *weakest* entry —
        # lowest score; among equal scores the largest id (ids tie-break
        # in favour of smaller ids, so larger ids are weaker)
        self._heap: list[tuple[float, int]] = []
        # churn accounting (plain ints: cheap enough to keep always on;
        # engines surface them through span attrs / result stats)
        self.offers = 0
        self.accepts = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.n

    def threshold(self) -> float:
        """The N-th best score, or ``-inf`` while not yet full."""
        if not self.full or self.n == 0:
            return -math.inf
        return self._heap[0][0]

    def would_enter(self, score: float, obj_id: int) -> bool:
        """Whether pushing this pair would change the heap contents."""
        if self.n == 0:
            return False
        if not self.full:
            return True
        weakest_score, neg_weakest_id = self._heap[0]
        if score != weakest_score:
            return score > weakest_score
        return obj_id < -neg_weakest_id

    def push(self, obj_id: int, score: float) -> bool:
        """Offer a pair; returns True if it entered the top-N."""
        self.offers += 1
        if not self.would_enter(score, obj_id):
            return False
        self.accepts += 1
        entry = (score, -obj_id)
        if self.full:
            heapq.heapreplace(self._heap, entry)
            self.evictions += 1
        else:
            heapq.heappush(self._heap, entry)
        return True

    def churn(self) -> dict:
        """Heap traffic summary: offers seen, entries accepted,
        previous members evicted."""
        return {
            "offers": self.offers,
            "accepts": self.accepts,
            "evictions": self.evictions,
        }

    def items_sorted(self) -> list[RankedItem]:
        """Contents, best first (score desc, id asc)."""
        pairs = sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        return [RankedItem(-neg_id, score) for score, neg_id in pairs]

    def contains_ids(self) -> set[int]:
        """Object ids currently held (for membership checks)."""
        return {-neg_id for _, neg_id in self._heap}


def canonical_pairs(ids: np.ndarray, values: np.ndarray, n: int) -> list[tuple[int, float]]:
    """The canonical top-``n`` cut as ``(id, value)`` pairs — argpartition
    by score, then the whole tied boundary group through the (score
    desc, id asc) lexsort — identical to offering every pair to a
    :class:`BoundedTopN`."""
    if len(ids) > n:
        # nth-largest value; keep everything >= it so boundary ties are
        # resolved by id, not by partition order
        kth = np.partition(values, len(values) - n)[len(values) - n]
        keep = values >= kth
        ids, values = ids[keep], values[keep]
    order = np.lexsort((ids, -values))[:n]
    return list(zip(ids[order].tolist(), values[order].tolist()))


def canonical_topn(ids: np.ndarray, values: np.ndarray, n: int) -> list[RankedItem]:
    """:func:`canonical_pairs` as ranked items."""
    return [RankedItem(obj, value) for obj, value in canonical_pairs(ids, values, n)]
