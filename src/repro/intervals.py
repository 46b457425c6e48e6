"""The shared score-bound domain: certified intervals and threshold bounds.

One bound vocabulary for the whole system.  The abstract interpreter
(:mod:`repro.analysis.bounds`) derives a :class:`ScoreInterval` at every
plan edge; the parallel coordinator's bound cache
(:mod:`repro.cache.bounds`) records :class:`ThresholdBound` facts from
certified runs; the aggregates (:mod:`repro.topn.aggregates`) transfer
intervals through their combine functions.  Before this module the
coordinator, the cache and the engines each carried ad-hoc bound
objects (bare sort keys, ``(lower, upper)`` pairs, floats); sharing one
dataclass is what lets every pruning decision — TA thresholds,
coordinator shard pruning, cache-resume frontiers — be treated as the
same mathematical object: a certified interval the true score must lie
in.

Interval semantics
------------------
``ScoreInterval(lo, hi)`` asserts: every value the annotated edge can
produce lies in ``[lo, hi]``.  ``TOP`` (``[-inf, +inf]``) is "nothing
known"; ``point(v)`` is an exact value.  All operations are
*conservative*: they may over-approximate, never under-approximate —
the containment property tests (hypothesis: "the derived interval
always contains the true score") hold by construction of every method
here.

This module deliberately has no intra-package imports so every layer
(storage, topn, cache, parallel, analysis) can use it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

_INF = math.inf


@dataclass(frozen=True)
class ScoreInterval:
    """A certified closed interval ``[lo, hi]`` of possible scores."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"interval bounds may not be NaN: [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"empty interval: lo {lo} > hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def point(value: float) -> "ScoreInterval":
        return ScoreInterval(value, value)

    @staticmethod
    def of_values(values: Iterable[float]) -> "ScoreInterval":
        """Tightest interval containing ``values`` (TOP when empty is
        wrong for sums — callers decide; here empty raises)."""
        values = [float(v) for v in values]
        if not values:
            raise ValueError("of_values needs at least one value")
        return ScoreInterval(min(values), max(values))

    # -- predicates ---------------------------------------------------------

    @property
    def bounded(self) -> bool:
        """Both endpoints finite: a worst-case error is computable."""
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "ScoreInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def dominates(self, bound: float) -> bool:
        """True when ``bound`` is a sound upper bound for this edge:
        no value of the interval can exceed it."""
        return self.hi <= bound

    # -- lattice operations -------------------------------------------------

    def join(self, other: "ScoreInterval") -> "ScoreInterval":
        """Least upper bound (union hull)."""
        return ScoreInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "ScoreInterval") -> "ScoreInterval | None":
        """Greatest lower bound (intersection); ``None`` when disjoint."""
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return None
        return ScoreInterval(lo, hi)

    # -- arithmetic (all conservative) --------------------------------------

    def __add__(self, other: "ScoreInterval") -> "ScoreInterval":
        return ScoreInterval(_add(self.lo, other.lo), _add(self.hi, other.hi))

    def scale(self, factor: float) -> "ScoreInterval":
        """Multiply by a known scalar (weights; sign handled)."""
        a, b = _mul(self.lo, factor), _mul(self.hi, factor)
        return ScoreInterval(min(a, b), max(a, b))

    def multiply(self, other: "ScoreInterval") -> "ScoreInterval":
        """Interval product (probabilistic conjunction)."""
        products = [_mul(self.lo, other.lo), _mul(self.lo, other.hi),
                    _mul(self.hi, other.lo), _mul(self.hi, other.hi)]
        return ScoreInterval(min(products), max(products))

    def min_with(self, other: "ScoreInterval") -> "ScoreInterval":
        return ScoreInterval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "ScoreInterval") -> "ScoreInterval":
        return ScoreInterval(max(self.lo, other.lo), max(self.hi, other.hi))

    def clamp(self, lo: float, hi: float) -> "ScoreInterval | None":
        """Meet with ``[lo, hi]`` (selection pushdown transfer)."""
        return self.meet(ScoreInterval(lo, hi))

    # -- rendering -----------------------------------------------------------

    def describe(self) -> str:
        def fmt(v: float) -> str:
            if v == _INF:
                return "+inf"
            if v == -_INF:
                return "-inf"
            return f"{v:g}"
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"

    def to_dict(self) -> dict:
        return {"lo": _json_float(self.lo), "hi": _json_float(self.hi)}


#: nothing known about the edge
TOP = ScoreInterval(-_INF, _INF)


def join_all(intervals: Sequence[ScoreInterval]) -> ScoreInterval:
    """Union hull of several intervals (TOP for an empty sequence)."""
    if not intervals:
        return TOP
    out = intervals[0]
    for interval in intervals[1:]:
        out = out.join(interval)
    return out


def sum_of(intervals: Sequence[ScoreInterval]) -> ScoreInterval:
    """Interval sum (the Sum aggregate's transfer); empty sums to 0."""
    out = ScoreInterval.point(0.0)
    for interval in intervals:
        out = out + interval
    return out


@dataclass(frozen=True)
class ThresholdBound:
    """One recorded pruning threshold from a certified run.

    The coordinator's merge threshold ``τ(n)`` — the sort key of the
    n-th best merged item — stamped with the corpus ``epoch`` it was
    measured at.  Reuse is sound only at the same epoch (scores may
    change across mutations); the runtime's
    :meth:`~repro.cache.bounds.CoordinatorBounds.seedable_at` gate
    consults the stamp.
    """

    #: the merge depth the threshold certifies
    n: int
    #: sort key ``(-score, obj_id)`` of the n-th merged item
    key: tuple
    #: corpus epoch the producing run executed at
    epoch: int = 0

    @property
    def score(self) -> float:
        """The n-th item's score (sort keys are ``(-score, obj_id)``)."""
        return -self.key[0]

    def interval(self) -> ScoreInterval:
        """What the threshold certifies about any *pruned* tail: every
        unfetched item scores at most the threshold score."""
        return ScoreInterval(-_INF, self.score)

    def to_dict(self) -> dict:
        return {"n": self.n, "key": list(self.key), "epoch": self.epoch,
                "score": _json_float(self.score)}


def _add(a: float, b: float) -> float:
    # inf + -inf never occurs for valid intervals added endpoint-wise
    # (lo+lo and hi+hi keep signs aligned), but be safe:
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        return -_INF if a < 0 or b < 0 else _INF
    return a + b


def _mul(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0  # 0 * inf = 0 under measure-style convention
    return a * b


def _json_float(v: float):
    """JSON-safe rendering of possibly-infinite endpoints."""
    if v == _INF:
        return "inf"
    if v == -_INF:
        return "-inf"
    return v
