"""Retrieval-quality metrics: precision and AP against qrels, and the
ranking-agreement metric (top-n overlap) against exact rankings."""

from .metrics import (
    average_precision,
    mean_over_queries,
    overlap_at,
    precision_at,
)

__all__ = [
    "average_precision",
    "mean_over_queries",
    "overlap_at",
    "precision_at",
]
