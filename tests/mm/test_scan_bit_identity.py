"""The blocked similarity scans equal the row-major reductions bit for
bit.

``l1``, ``l2`` and ``histogram`` sum one block of objects at a time,
a feature row at a time over the block, following NumPy's pairwise
summation tree.  The row-major expressions below — one reduction per
object — are the oracle; every distance float must match them exactly
(compared as int64 bit patterns), whether the scan reads
``FeatureSpace.columns`` or a row-major matrix, and on either side of
every block boundary.
"""

import numpy as np
import pytest

from repro.fragmentation.profiling import profile_hits
from repro.mm import (
    FeatureSpace,
    distance_to_similarity,
    feature_source,
    histogram_intersection,
    l1_distances,
    l2_distances,
)
from repro.mm.distances import _BLOCK_TERMS

DIMS = list(range(1, 41)) + [64, 129, 300]

ORACLES = {
    "l1": lambda vectors, query: np.abs(vectors - query).sum(axis=1),
    "l2": lambda vectors, query: np.sqrt(((vectors - query) ** 2).sum(axis=1)),
    "histogram": lambda vectors, query: np.minimum(vectors, query).sum(axis=1),
}
SCANS = {"l1": l1_distances, "l2": l2_distances, "histogram": histogram_intersection}


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def space_and_query(dim: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    # magnitudes spread over many binades, so summation order shows
    vectors = rng.random((257, dim)) * rng.choice([1e-6, 1.0, 1e6], size=(257, dim))
    vectors[1] = 0.0                      # a zero row
    vectors[2, ::2] = -0.0                # -0.0 features
    vectors[3] = -0.0                     # an all -0.0 row
    query = rng.random(dim)
    vectors[5] = query                    # the query is an object's vector
    return FeatureSpace("s", vectors), query


@pytest.mark.parametrize("measure", sorted(SCANS))
@pytest.mark.parametrize("dim", DIMS)
def test_scan_equals_row_major_oracle(dim, measure):
    space, query = space_and_query(dim, seed=dim)
    expected = bits(ORACLES[measure](space.vectors, query))
    assert np.array_equal(bits(SCANS[measure](space.columns.T, query)), expected)
    assert np.array_equal(bits(SCANS[measure](space.vectors, query)), expected)


@pytest.mark.parametrize("measure", sorted(SCANS))
def test_zero_query_against_negative_zero_features(measure):
    space = FeatureSpace("s", np.full((3, 9), -0.0))
    query = np.zeros(9)
    expected = bits(ORACLES[measure](space.vectors, query))
    assert np.array_equal(bits(SCANS[measure](space.columns.T, query)), expected)


@pytest.mark.parametrize("measure", ["l1", "l2"])
def test_feature_source_grades_match_oracle(measure):
    space, query = space_and_query(24, seed=7)
    expected = distance_to_similarity(ORACLES[measure](space.vectors, query))
    source = feature_source(space, query, measure)
    got = source.grades_of(np.arange(space.n_objects))
    assert np.array_equal(bits(got), bits(expected))


def test_columns_are_a_read_only_copy():
    vectors = np.arange(6.0).reshape(3, 2)
    space = FeatureSpace("s", vectors)
    assert space.columns.shape == (2, 3)
    assert space.columns.flags.c_contiguous
    assert not space.columns.flags.writeable
    assert not np.shares_memory(space.columns, vectors)


def block_objects(dim: int) -> int:
    """Objects per block of a ``dim``-feature scan."""
    return max(1, _BLOCK_TERMS // dim)


BLOCK_DIMS = [1, 7, 8, 9, 16, 129, 300]
BLOCK_SIZES = ["0", "1", "B-1", "B", "B+1", "3B+1", "20000"]


def n_objects(size: str, dim: int) -> int:
    block = block_objects(dim)
    return {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1,
            "3B+1": 3 * block + 1, "20000": 20000}[size]


def blocked_space_and_query(n: int, dim: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    vectors = rng.random((n, dim)) * rng.choice([1e-6, 1.0, 1e6], size=(n, dim))
    query = rng.random(dim)
    if n > 5:
        vectors[1] = 0.0
        vectors[2, ::2] = -0.0
        vectors[5] = query
    if n > 1:
        vectors[-1] = query               # the last object of the last block
    return FeatureSpace("s", vectors), query


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("dim", BLOCK_DIMS)
def test_scan_across_block_boundaries(dim, size):
    n = n_objects(size, dim)
    space, query = blocked_space_and_query(n, dim, seed=dim)
    for measure, scan in SCANS.items():
        expected = bits(ORACLES[measure](space.vectors, query))
        assert np.array_equal(bits(scan(space.columns.T, query)), expected), measure
        assert np.array_equal(bits(scan(space.vectors, query)), expected), measure
    for measure in ("l1", "l2"):
        expected = distance_to_similarity(ORACLES[measure](space.vectors, query))
        got = feature_source(space, query, measure).grades_of(np.arange(n))
        assert np.array_equal(bits(got), bits(expected)), measure


def test_distance_to_similarity_leaves_its_input():
    distances = np.random.default_rng(3).random(5000) * 7.0
    before = distances.copy()
    similarities = distance_to_similarity(distances)
    assert np.array_equal(bits(distances), bits(before))
    assert not np.shares_memory(similarities, distances)
    assert np.array_equal(bits(distance_to_similarity(distances, scale=2.0)),
                          bits(np.exp(-before / 2.0)))
    assert np.array_equal(bits(distances), bits(before))


def test_profile_hits_match_oracle_distances():
    dim = 16
    space, _ = blocked_space_and_query(3 * block_objects(dim) + 1, dim, seed=11)
    hits = profile_hits(space, n_queries=20, k=50, seed=5)
    # the same training queries, ranked by the row-major oracle
    rng = np.random.default_rng(5)
    expected = np.zeros(space.n_objects, dtype=np.int64)
    scale = max(float(np.std(space.vectors)), 1e-9)
    for _ in range(20):
        anchor = space.vectors[rng.integers(0, space.n_objects)]
        query = anchor + rng.normal(0.0, 0.1 * scale, size=dim)
        distances = ORACLES["l2"](space.vectors, query)
        expected[np.argpartition(distances, 49)[:50]] += 1
    assert np.array_equal(hits, expected)
