"""A bounded top-N heap with deterministic tie-breaking.

All top-N strategies share the convention: higher score first, ties
broken by smaller object id.  An engine that holds every candidate
cuts them once with :func:`~repro.storage.kernel.top_positions`; the
heap is for items that arrive one at a time while the N-th best
(:meth:`BoundedTopN.threshold`) is read between arrivals.  Two places
do that: TA's traced ``ta.round`` events and the group pruning of
:func:`~repro.fragmentation.profiling.profiled_topn`.
"""

from __future__ import annotations

import heapq
import math

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
        if not self.would_enter(score, obj_id):
            return False
        entry = (score, -obj_id)
        if self.full:
            heapq.heapreplace(self._heap, entry)
        else:
            heapq.heappush(self._heap, entry)
        return True

    def items_sorted(self) -> list[RankedItem]:
        """Contents, best first (score desc, id asc)."""
        pairs = sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        return [RankedItem(-neg_id, score) for score, neg_id in pairs]

    def contains_ids(self) -> set[int]:
        """Object ids currently held (for membership checks)."""
        return {-neg_id for _, neg_id in self._heap}
