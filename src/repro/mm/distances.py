"""Distance and similarity functions over feature vectors.

Fagin's middleware algorithms need per-feature *grades* in a bounded
range with larger-is-better semantics, so each distance comes with a
similarity transform into ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError


#: Per-feature terms per block of the summing scans: 512 KB of floats,
#: 4,096 objects of a 16-feature space or 8,192 of an 8-feature one.
#: A block's terms are written and reduced while they are still in the
#: per-core L2 cache (2 MB on the Xeon this was sized on), where the
#: 2.5 MB of terms of a whole 20,000-object, 16-feature space send
#: every pass to memory.  Each block also costs about a dozen ufunc
#: calls, so blocks must not be small either: on that host l2 grades
#: of 20,000 objects, 16 features, took 1.04 ms in blocks of 1,024
#: objects, 0.93 ms at 2,048, 0.47 ms at 4,096 to 5,000, 0.49 ms at
#: 8,192 and 0.59 ms in one block.
_BLOCK_TERMS = 1 << 16


def _scan(vectors: np.ndarray, query: np.ndarray, term) -> np.ndarray:
    """Per-object sums of per-feature terms, float for float what
    ``.sum(axis=1)`` gives on the same terms laid out row-major, one
    object per row.

    The scan works one block of objects at a time (about
    ``_BLOCK_TERMS`` terms, and a space smaller than a block is one
    block).  ``term(columns, query, out=terms)`` writes the block's
    terms, one row per feature, into a buffer allocated once per call,
    so concurrent scans share nothing; :func:`_reduce` then sums them
    in place, a feature row at a time over the whole block, straight
    into the block's slice of the result.  Fastest when the columns
    are contiguous (``FeatureSpace.columns.T``).
    """
    n, dim = vectors.shape
    columns = vectors.T
    query = query[:, None]
    out = np.empty(n)
    block = max(1, _BLOCK_TERMS // max(dim, 1))
    buffer = np.empty((dim, min(n, block)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        terms = buffer[:, :hi - lo]
        term(columns[:, lo:hi], query, out=terms)
        _reduce(terms, out[lo:hi])
    out += 0.0  # the reduction's last step, as in .sum()
    return out


def _reduce(terms: np.ndarray, out: np.ndarray) -> None:
    """Sum the rows of ``terms`` into ``out`` the way NumPy sums each row
    of a row-major matrix pairwise: 8 accumulators over blocks of 8,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, the remainder
    added in order, rows shorter than 8 added in order from 0.0, and
    rows longer than 128 split at a multiple of 8 and summed half by
    half.  The sums accumulate in place, overwriting the first rows of
    ``terms``.
    """
    dim = terms.shape[0]
    if dim < 8:
        out.fill(0.0)
        for row in terms:
            out += row
    elif dim <= 128:
        acc = terms[:8]
        whole = dim - dim % 8
        for lo in range(8, whole, 8):
            acc += terms[lo:lo + 8]
        np.add(acc[0::2], acc[1::2], out=acc[0::2])
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        np.add(acc[0], acc[4], out=out)
        for row in terms[whole:]:
            out += row
    else:
        half = dim // 2
        half -= half % 8
        _reduce(terms[:half], out)
        _reduce(terms[half:], terms[half])  # the right half sums into its first row
        out += terms[half]


def _absolute_difference(columns, query, out) -> None:
    np.subtract(columns, query, out=out)
    np.abs(out, out=out)


def _squared_difference(columns, query, out) -> None:
    np.subtract(columns, query, out=out)
    np.multiply(out, out, out=out)


def l1_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Manhattan distance of every row to the query.

    The summing scans (l1, l2, histogram) read ``vectors`` a block of
    objects at a time, fastest when the columns are contiguous
    (``FeatureSpace.columns.T``)."""
    return _scan(vectors, query, _absolute_difference)


def l2_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row to the query."""
    distances = _scan(vectors, query, _squared_difference)
    return np.sqrt(distances, out=distances)


def histogram_intersection(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Histogram intersection similarity (already in [0, 1] for
    normalized histograms): ``sum_i min(v_i, q_i)``."""
    return _scan(vectors, query, np.minimum)


def cosine_similarity(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine similarity, clipped to [0, 1] for non-negative features."""
    norms = np.linalg.norm(vectors, axis=1) * np.linalg.norm(query)
    norms = np.where(norms == 0, 1.0, norms)
    return np.clip(vectors @ query / norms, 0.0, 1.0)


def distance_to_similarity(distances: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Map distances to similarities in (0, 1] via ``exp(-d / scale)``.

    ``scale`` defaults to the mean distance (so similarities are well
    spread regardless of the feature's natural scale).  ``distances``
    is left as it was."""
    return _exp_similarity(np.asarray(distances, dtype=np.float64), scale)


def _exp_similarity(distances: np.ndarray, scale: float | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """:func:`distance_to_similarity` written into ``out`` (a new array
    when ``None``), which may be ``distances`` itself."""
    if (distances < 0).any():
        raise WorkloadError("distances must be non-negative")
    if scale is None:
        mean = float(distances.mean()) if len(distances) else 1.0
        scale = mean if mean > 0 else 1.0
    similarities = np.negative(distances, out=out)
    similarities /= scale
    return np.exp(similarities, out=similarities)


def _grades(distances: np.ndarray) -> np.ndarray:
    """Similarities of freshly computed ``distances``, in place."""
    return _exp_similarity(distances, out=distances)


#: named similarity functions: feature matrix + query -> scores in [0, 1]
SIMILARITIES = {
    "l1": lambda vectors, query: _grades(l1_distances(vectors, query)),
    "l2": lambda vectors, query: _grades(l2_distances(vectors, query)),
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
