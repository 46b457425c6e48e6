"""Monotone aggregation functions for multi-source (fuzzy) queries.

Fagin's algorithms combine per-source grades with a *monotone*
aggregation function t: increasing any grade never decreases the
aggregate.  Monotonicity is what makes upper/lower bound
administration sound — TA's threshold τ = t(last grades) bounds every
unseen object *only because* t is monotone, and the same goes for
NRA/CA's upper bounds.

Every aggregate therefore *declares* its bound-relevant metadata
instead of the engines assuming it:

* ``monotone`` — increasing any grade never decreases the aggregate.
  The threshold engines (:func:`~repro.topn.ta.threshold_topn`,
  :func:`~repro.topn.nra.nra_topn`, :func:`~repro.topn.ca.combined_topn`,
  :func:`~repro.topn.fagin.fagin_topn`) call :func:`require_monotone`
  and refuse non-monotone aggregates outright — handing one to TA used
  to silently produce wrong stop decisions;
* ``strict`` — strictly increasing in every argument (a zero-weighted
  source makes ``WeightedSum`` monotone but not strict: ties can then
  hide grade differences the bound administration cannot see).

:class:`WeightedSum` implements the user-weighted query terms of
Fagin & Maarek [FM] cited by the paper; :class:`Product` is the
probabilistic conjunction (independent-event AND) over ``[0, 1]``
grades; :class:`UserAggregate` wraps arbitrary user callables with
*declared* metadata, defaulting to non-monotone — the safe default,
since an undeclared aggregate certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import TopNError


@dataclass(frozen=True)
class AggregateFunction:
    """A named aggregation over an m-vector of grades.

    Subclasses declare ``monotone`` / ``strict`` class attributes and
    implement :meth:`combine`.
    """

    name: str

    #: increasing any grade never decreases the aggregate — the
    #: precondition of every threshold/bound administration
    monotone: bool = True
    #: strictly increasing in every argument
    strict: bool = True

    def combine(self, grades: Sequence[float]) -> float:
        raise NotImplementedError

    def validate_arity(self, m: int) -> None:
        """Hook for aggregates that require a fixed arity."""


class Sum(AggregateFunction):
    """Sum of grades — the standard IR score accumulation."""

    def __init__(self) -> None:
        super().__init__("sum")

    def combine(self, grades):
        return float(sum(grades))


class Avg(AggregateFunction):
    """Arithmetic mean (monotone; order-equivalent to sum)."""

    def __init__(self) -> None:
        super().__init__("avg")

    def combine(self, grades):
        return float(sum(grades)) / len(grades) if grades else 0.0


class Min(AggregateFunction):
    """Fuzzy conjunction (Fagin's running example).  Monotone but not
    strict: raising a non-minimal grade leaves the aggregate unchanged."""

    def __init__(self) -> None:
        super().__init__("min", strict=False)

    def combine(self, grades):
        return float(min(grades)) if grades else 0.0


class Max(AggregateFunction):
    """Fuzzy disjunction.  Monotone, not strict."""

    def __init__(self) -> None:
        super().__init__("max", strict=False)

    def combine(self, grades):
        return float(max(grades)) if grades else 0.0


class WeightedSum(AggregateFunction):
    """User-weighted sum of grades ([FM]: "Allowing users to weight
    search terms").  Weights must be non-negative (monotonicity); a
    zero weight keeps the aggregate monotone but drops strictness —
    that source's grades become invisible to the bound administration."""

    def __init__(self, weights: Sequence[float]) -> None:
        weights = tuple(float(w) for w in weights)
        if not weights:
            raise TopNError("WeightedSum needs at least one weight")
        if any(w < 0 or math.isnan(w) for w in weights):
            raise TopNError(f"weights must be non-negative, got {weights}")
        super().__init__("wsum", strict=all(w > 0 for w in weights))
        object.__setattr__(self, "weights", weights)

    def combine(self, grades):
        if len(grades) != len(self.weights):
            raise TopNError(
                f"WeightedSum arity mismatch: {len(grades)} grades, {len(self.weights)} weights"
            )
        return float(sum(w * g for w, g in zip(self.weights, grades)))

    def validate_arity(self, m: int) -> None:
        if m != len(self.weights):
            raise TopNError(
                f"WeightedSum has {len(self.weights)} weights but the query has {m} sources"
            )


class Product(AggregateFunction):
    """Probabilistic conjunction: the product of ``[0, 1]`` grades
    (independent-event AND).  Monotone on the non-negative domain the
    graded sources live in; not strict — a zero grade annihilates the
    product regardless of the other sources."""

    def __init__(self) -> None:
        super().__init__("prob", strict=False)

    def combine(self, grades):
        out = 1.0
        for grade in grades:
            if grade < 0:
                raise TopNError(
                    f"Product is only monotone over non-negative grades, got {grade}")
            out *= float(grade)
        return out


@dataclass(frozen=True, init=False)
class UserAggregate(AggregateFunction):
    """A user-supplied combine function with *declared* metadata.

    Defaults to ``monotone=False``: an undeclared aggregate certifies
    nothing, and the threshold engines will refuse it via
    :func:`require_monotone`.  Users who know their function is
    monotone declare it.
    """

    def __init__(self, name: str, fn: Callable[[Sequence[float]], float],
                 monotone: bool = False, strict: bool = False) -> None:
        super().__init__(name, monotone=monotone, strict=strict)
        object.__setattr__(self, "fn", fn)

    def combine(self, grades):
        return float(self.fn(grades))


def require_monotone(agg: AggregateFunction, engine: str) -> None:
    """Refuse a non-monotone aggregate where threshold administration
    depends on monotonicity.

    Every Fagin-family stop rule argues "no unseen object can beat the
    bound" from t's monotonicity; with a non-monotone t the argument —
    and the answer — is simply wrong.  This is the runtime twin of the
    static MOA901 check.
    """
    monotone = getattr(agg, "monotone", False)
    if not monotone:
        raise TopNError(
            f"aggregate {agg.name!r} is not declared monotone: {engine} "
            f"threshold administration is unsound under it (the stop rule "
            f"assumes increasing a grade never decreases the aggregate). "
            f"Use naive_topn_sources, or declare monotone=True if the "
            f"function really is monotone.")


def combine_columns(agg: AggregateFunction, columns: list[np.ndarray]) -> np.ndarray:
    """Per-row ``agg.combine`` over parallel grade columns, with the
    same left-to-right fold (and therefore the same IEEE result) as the
    scalar list version."""
    if isinstance(agg, (Sum, Avg)):
        acc = np.zeros_like(columns[0])
        for col in columns:
            acc = acc + col
        return acc / len(columns) if isinstance(agg, Avg) else acc
    if isinstance(agg, WeightedSum):
        acc = np.zeros_like(columns[0])
        for weight, col in zip(agg.weights, columns):
            acc = acc + weight * col
        return acc
    if isinstance(agg, (Min, Max)):
        fold = np.minimum if isinstance(agg, Min) else np.maximum
        acc = columns[0].astype(np.float64, copy=True)
        for col in columns[1:]:
            acc = fold(acc, col)
        return acc
    if isinstance(agg, Product):
        acc = np.ones_like(columns[0])
        for col in columns:
            acc = acc * col
        return acc
    # unknown (user) aggregate: per-row scalar fallback — slow but exact
    return np.array([
        agg.combine([float(col[row]) for col in columns])
        for row in range(len(columns[0]))
    ], dtype=np.float64)


SUM = Sum()
AVG = Avg()
MIN = Min()
MAX = Max()
PROD = Product()

#: the registered built-ins, by name (the analyzer and CLI look
#: aggregates up here)
BUILTIN_AGGREGATES: dict[str, AggregateFunction] = {
    agg.name: agg for agg in (SUM, AVG, MIN, MAX, PROD)
}
