"""Synthetic multimedia feature spaces.

The paper targets *multimedia* retrieval: ranking objects by distances
in feature spaces (color histograms, textures, ...).  Real image
collections are not available offline, so this module generates
feature matrices with planted cluster structure (a Gaussian mixture,
projected to valid feature ranges): queries drawn near a cluster
center have meaningful nearest neighbours, which is all the
Fagin-family experiments need (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkloadError


@dataclass
class FeatureSpace:
    """A named feature matrix: one row per object.

    ``columns`` is a read-only column-major copy of ``vectors`` (one
    contiguous row per feature), built once here: the summing
    similarity scans (l1, l2, histogram) read ``columns.T``, one
    cache-sized block of objects at a time, each feature's slice of the
    block contiguous.
    """

    name: str
    vectors: np.ndarray  # (n_objects, dim)
    cluster_of: np.ndarray | None = None  # planted cluster id per object
    columns: np.ndarray = field(init=False, repr=False, compare=False)  # (dim, n_objects)

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise WorkloadError(f"feature matrix must be 2-D, got shape {self.vectors.shape}")
        self.columns = np.ascontiguousarray(self.vectors.T, dtype=np.float64)
        self.columns.flags.writeable = False

    @property
    def n_objects(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, obj_id: int) -> np.ndarray:
        if not 0 <= obj_id < self.n_objects:
            raise WorkloadError(f"object id {obj_id} outside feature space")
        return self.vectors[obj_id]


def color_histograms(
    n_objects: int,
    bins: int = 16,
    n_clusters: int = 8,
    concentration: float = 40.0,
    seed: int = 0,
) -> FeatureSpace:
    """Color-histogram-like features: rows are points on the simplex.

    Each cluster has a Dirichlet "palette"; objects are Dirichlet draws
    concentrated around their cluster's palette.
    """
    if n_objects <= 0 or bins <= 1 or n_clusters <= 0:
        raise WorkloadError("n_objects, bins and n_clusters must be positive (bins > 1)")
    rng = np.random.default_rng(seed)
    palettes = rng.dirichlet(np.ones(bins) * 1.5, size=n_clusters)
    cluster_of = rng.integers(0, n_clusters, size=n_objects)
    vectors = np.empty((n_objects, bins))
    for cluster in range(n_clusters):
        members = np.nonzero(cluster_of == cluster)[0]
        if len(members) == 0:
            continue
        alpha = palettes[cluster] * concentration + 0.1
        vectors[members] = rng.dirichlet(alpha, size=len(members))
    return FeatureSpace("color", vectors, cluster_of)


def texture_features(
    n_objects: int,
    dim: int = 8,
    n_clusters: int = 8,
    spread: float = 0.15,
    seed: int = 0,
) -> FeatureSpace:
    """Texture-like features: Gaussian mixture in the unit cube."""
    if n_objects <= 0 or dim <= 0 or n_clusters <= 0:
        raise WorkloadError("n_objects, dim and n_clusters must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(n_clusters, dim))
    cluster_of = rng.integers(0, n_clusters, size=n_objects)
    vectors = np.clip(
        centers[cluster_of] + rng.normal(0.0, spread, size=(n_objects, dim)), 0.0, 1.0
    )
    return FeatureSpace("texture", vectors, cluster_of)


def keyword_scores(
    n_objects: int,
    sparsity: float = 0.9,
    seed: int = 0,
) -> FeatureSpace:
    """A one-dimensional "annotation score" feature: most objects score
    near zero (sparse keyword match), a few score high — mimicking a
    text-annotation subsystem attached to an image archive."""
    if not 0.0 <= sparsity < 1.0:
        raise WorkloadError(f"sparsity must be in [0, 1), got {sparsity}")
    rng = np.random.default_rng(seed)
    scores = rng.beta(0.5, 8.0, size=n_objects)
    mask = rng.random(n_objects) < sparsity
    scores[mask] *= 0.05
    return FeatureSpace("keywords", scores.reshape(-1, 1))


def query_near_cluster(space: FeatureSpace, cluster: int, noise: float = 0.05,
                       seed: int = 0) -> np.ndarray:
    """A query vector near one of a space's planted cluster centers."""
    if space.cluster_of is None:
        raise WorkloadError(f"feature space {space.name!r} has no planted clusters")
    members = np.nonzero(space.cluster_of == cluster)[0]
    if len(members) == 0:
        raise WorkloadError(f"cluster {cluster} is empty in space {space.name!r}")
    rng = np.random.default_rng(seed)
    center = space.vectors[members].mean(axis=0)
    query = center + rng.normal(0.0, noise, size=space.dim)
    return np.clip(query, 0.0, None)
