"""The column-major similarity scans equal the row-major reductions bit
for bit.

``l1``, ``l2`` and ``histogram`` sum a feature column at a time over all
objects, following NumPy's pairwise summation tree.  The row-major
expressions below — one reduction per object — are the oracle; every
distance float must match them exactly (compared as int64 bit
patterns), whether the scan reads ``FeatureSpace.columns`` or a
row-major matrix.
"""

import numpy as np
import pytest

from repro.mm import (
    FeatureSpace,
    distance_to_similarity,
    feature_source,
    histogram_intersection,
    l1_distances,
    l2_distances,
)

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
