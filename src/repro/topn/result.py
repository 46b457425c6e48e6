"""Top-N result representation shared by all strategies."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TopNError
from ..storage.bat import BAT


@dataclass(frozen=True)
class RankedItem:
    """One result: an object/document id and its score."""

    obj_id: int
    score: float


@dataclass
class TopNResult:
    """A ranked top-N answer plus provenance.

    ``safe`` records the paper's safe/unsafe taxonomy: safe strategies
    guarantee the exact top-N (up to score ties); unsafe strategies
    trade answer quality for speed.  ``stats`` carries strategy-specific
    counters (restarts, stop depth, postings touched, ...).

    Deterministic tie-breaking (enforced)
    -------------------------------------
    Every strategy in :mod:`repro.topn` shares one convention: results
    are ordered by **score descending, then object id ascending**, and
    when a tied score group straddles the N-boundary the *smallest*
    ids win.  ``__post_init__`` enforces the ordering half of this
    contract — a result whose tied items are not id-ascending raises
    :class:`~repro.errors.TopNError` — so any two exact engines on the
    same instance return byte-identical rankings and the differential
    conformance suite can compare them directly.  The producing
    primitives uphold the boundary half: ``BoundedTopN`` treats larger
    ids as weaker on equal scores, and ``kernel.topn_tail`` /
    ``kernel.sort_tail`` break ties by head oid.
    """

    items: list[RankedItem]
    n_requested: int
    strategy: str
    safe: bool
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.items) > self.n_requested:
            raise TopNError(
                f"{self.strategy}: returned {len(self.items)} items for N={self.n_requested}"
            )
        scores = [item.score for item in self.items]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise TopNError(f"{self.strategy}: result items are not score-descending")
        for a, b in zip(self.items, self.items[1:]):
            if a.score == b.score and a.obj_id >= b.obj_id:
                raise TopNError(
                    f"{self.strategy}: tied scores must be id-ascending "
                    f"(got {a.obj_id} before {b.obj_id} at score {a.score})"
                )

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def doc_ids(self) -> list[int]:
        """Result object ids, best first."""
        return [item.obj_id for item in self.items]

    @property
    def scores(self) -> list[float]:
        return [item.score for item in self.items]

    def same_ranking(self, other: "TopNResult") -> bool:
        """Same object ids in the same order (scores may differ by
        representation, e.g. NRA reports lower bounds)."""
        return self.doc_ids == other.doc_ids

    def same_set(self, other: "TopNResult") -> bool:
        """Same object ids regardless of order."""
        return set(self.doc_ids) == set(other.doc_ids)

    @classmethod
    def from_bat(cls, bat: BAT, n: int, strategy: str, safe: bool,
                 stats: dict | None = None) -> "TopNResult":
        """Wrap a ``[(obj, score)]`` BAT that is already the descending
        top-N (e.g. the output of ``kernel.topn_tail``)."""
        items = [RankedItem(int(h), float(t)) for h, t in bat.to_list()[:n]]
        return cls(items, n, strategy, safe, stats or {})
