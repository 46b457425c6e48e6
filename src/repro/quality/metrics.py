"""Retrieval-quality metrics.

The paper evaluates unsafe optimizations by their effect on "answer
quality (e.g. precision and/or recall)".  This module provides
precision and average precision against qrels, plus the *ranking
agreement* metric (top-``n`` overlap) used to compare an optimized
ranking against the exact (naive) ranking independent of relevance
judgments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import QualityError


def _check_ranking(ranking: Sequence[int]) -> list[int]:
    ranking = list(ranking)
    if len(set(ranking)) != len(ranking):
        raise QualityError("ranking contains duplicate document ids")
    return ranking


def precision_at(ranking: Sequence[int], relevant: Iterable[int], n: int) -> float:
    """Fraction of the top-``n`` results that are relevant."""
    if n <= 0:
        raise QualityError(f"n must be positive, got {n}")
    ranking = _check_ranking(ranking)[:n]
    relevant = set(relevant)
    if not ranking:
        return 0.0
    hits = sum(1 for doc in ranking if doc in relevant)
    return hits / n


def average_precision(ranking: Sequence[int], relevant: Iterable[int],
                      cutoff: int | None = None) -> float:
    """Non-interpolated average precision (AP) at an optional cutoff.

    AP averages precision at each relevant rank over the total number
    of relevant documents — the TREC headline metric of the paper's
    era (mean over queries = MAP).
    """
    relevant = set(relevant)
    if not relevant:
        return 0.0
    ranking = _check_ranking(ranking)
    if cutoff is not None:
        ranking = ranking[:cutoff]
    hits = 0
    precision_sum = 0.0
    for rank, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(relevant)


def overlap_at(ranking: Sequence[int], reference: Sequence[int], n: int) -> float:
    """Set overlap of two top-``n`` prefixes (1.0 = identical sets).

    The standard way to quantify how much an *unsafe* technique's top-N
    deviates from the exact top-N."""
    if n <= 0:
        raise QualityError(f"n must be positive, got {n}")
    top = set(_check_ranking(ranking)[:n])
    ref = set(_check_ranking(reference)[:n])
    if not ref:
        return 1.0 if not top else 0.0
    return len(top & ref) / max(len(ref), 1)


def mean_over_queries(per_query_values: Iterable[float]) -> float:
    """Mean of a per-query metric (0.0 for an empty iterable)."""
    values = list(per_query_values)
    if not values:
        return 0.0
    return sum(values) / len(values)
