"""Distance and similarity functions over feature vectors.

Fagin's middleware algorithms need per-feature *grades* in a bounded
range with larger-is-better semantics, so each distance comes with a
similarity transform into ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Per-object sums of a ``(dim, n_objects)`` matrix of per-feature
    terms, float for float what ``.sum(axis=1)`` gives on the same
    terms laid out row-major, one object per row.

    NumPy sums each row of a row-major matrix pairwise: 8 accumulators
    over blocks of 8, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    the remainder added in order, rows shorter than 8 added in order
    from 0.0, and rows longer than 128 split at a multiple of 8 and
    summed half by half; the reduction then adds the result to 0.0.
    Following the same tree a column at a time sums all objects in a
    few vectorised passes instead of one short reduction per row.
    The sums accumulate in place, overwriting the first rows of ``terms``.
    """
    out = np.zeros(terms.shape[1])
    out += _pairwise(terms)
    return out


def _pairwise(terms: np.ndarray) -> np.ndarray:
    dim = terms.shape[0]
    if dim < 8:
        out = np.zeros(terms.shape[1])
        for row in terms:
            out += row
        return out
    if dim <= 128:
        acc = terms[:8]
        whole = dim - dim % 8
        for lo in range(8, whole, 8):
            acc += terms[lo:lo + 8]
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for row in terms[whole:]:
            out += row
        return out
    half = dim // 2
    half -= half % 8
    return _pairwise(terms[:half]) + _pairwise(terms[half:])


def _differences(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``vectors - query`` laid out column-major, one feature per row."""
    return np.subtract(vectors.T, query[:, None], order="C")


def l1_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Manhattan distance of every row to the query.

    The distance functions scan ``vectors`` a column at a time, fastest
    when the columns are contiguous (``FeatureSpace.columns.T``)."""
    terms = _differences(vectors, query)
    np.abs(terms, out=terms)
    return _row_sums(terms)


def l2_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row to the query."""
    terms = _differences(vectors, query)
    np.multiply(terms, terms, out=terms)
    return np.sqrt(_row_sums(terms))


def histogram_intersection(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Histogram intersection similarity (already in [0, 1] for
    normalized histograms): ``sum_i min(v_i, q_i)``."""
    return _row_sums(np.minimum(vectors.T, query[:, None], order="C"))


def cosine_similarity(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine similarity, clipped to [0, 1] for non-negative features."""
    norms = np.linalg.norm(vectors, axis=1) * np.linalg.norm(query)
    norms = np.where(norms == 0, 1.0, norms)
    return np.clip(vectors @ query / norms, 0.0, 1.0)


def distance_to_similarity(distances: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Map distances to similarities in (0, 1] via ``exp(-d / scale)``.

    ``scale`` defaults to the mean distance (so similarities are well
    spread regardless of the feature's natural scale)."""
    distances = np.asarray(distances, dtype=np.float64)
    if (distances < 0).any():
        raise WorkloadError("distances must be non-negative")
    if scale is None:
        mean = float(distances.mean()) if len(distances) else 1.0
        scale = mean if mean > 0 else 1.0
    return np.exp(-distances / scale)


#: named similarity functions: feature matrix + query -> scores in [0, 1]
SIMILARITIES = {
    "l1": lambda vectors, query: distance_to_similarity(l1_distances(vectors, query)),
    "l2": lambda vectors, query: distance_to_similarity(l2_distances(vectors, query)),
    "histogram": histogram_intersection,
    "cosine": cosine_similarity,
}


def similarity_scores(vectors: np.ndarray, query: np.ndarray, measure: str = "l2") -> np.ndarray:
    """Similarity of every object to ``query`` under a named measure."""
    try:
        func = SIMILARITIES[measure]
    except KeyError:
        raise WorkloadError(
            f"unknown similarity measure {measure!r}; have {sorted(SIMILARITIES)}"
        ) from None
    if vectors.shape[1] != len(query):
        raise WorkloadError(
            f"query dimension {len(query)} != feature dimension {vectors.shape[1]}"
        )
    return func(vectors, np.asarray(query, dtype=np.float64))
