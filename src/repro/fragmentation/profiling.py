"""Learned (profiled) fragmentation for non-text content.

The paper, Step 1: *"For the case of non-text content data we are yet
not aware of a special distribution of the data (such as Zipf for
text).  Maybe such a distribution can be 'learned' by the system by
means of profiling, although the thus found distribution most likely
will not be independent from the data set."*

This module implements that proposal for feature spaces:

1. :func:`profile_hits` runs a training workload of similarity queries
   and counts, per object, how often it reaches the top-K — the
   learned analogue of term "interestingness".  On clustered data the
   hit distribution is heavily skewed (a learned Zipf-like law).
2. :class:`ProfiledFragments` splits the space into a small **hot**
   fragment (the objects that answer most queries) and a **cold**
   remainder, which is organized into bounding groups (centroid +
   radius) so that upper bounds on cold similarities can be computed
   without touching the objects.
3. :func:`profiled_topn` executes top-N queries against the fragments:

   * ``"unsafe"`` — scan only the hot fragment (fast, quality may drop:
     the learned distribution is "not independent from the data set");
   * ``"safe"`` — scan the hot fragment, then use the group bounds to
     prune cold groups that cannot reach the current N-th score, and
     scan only the surviving groups: exact answers, bounded extra work.
     This is the same upper-bound administration as Step 1's quality
     check, transplanted to learned fragments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TopNError, WorkloadError
from ..mm.distances import l2_distances
from ..mm.features import FeatureSpace
from ..storage import stats
from ..topn.heap import BoundedTopN
from ..topn.result import TopNResult, top_items


def profile_hits(
    space: FeatureSpace,
    n_queries: int = 200,
    k: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Learn per-object interestingness by profiling.

    Draws ``n_queries`` training queries by perturbing randomly chosen
    objects of the space itself (the realistic "queries look like the
    data" assumption the paper's caveat is about) and counts how often
    each object lands in a query's top-``k`` by L2 similarity.
    """
    if n_queries <= 0 or k <= 0:
        raise WorkloadError("n_queries and k must be positive")
    rng = np.random.default_rng(seed)
    hits = np.zeros(space.n_objects, dtype=np.int64)
    scale = max(float(np.std(space.vectors)), 1e-9)
    for _ in range(n_queries):
        anchor = space.vectors[rng.integers(0, space.n_objects)]
        query = anchor + rng.normal(0.0, 0.1 * scale, size=space.dim)
        distances = l2_distances(space.columns.T, query)
        top = np.argpartition(distances, min(k, space.n_objects) - 1)[:k]
        hits[top] += 1
    stats.charge_extra("profiling_queries", n_queries)
    return hits


@dataclass
class ColdGroup:
    """A bounding group of cold objects: centroid, radius, members."""

    members: np.ndarray
    centroid: np.ndarray
    radius: float


class ProfiledFragments:
    """A feature space fragmented by learned interestingness.

    ``hot_fraction`` of the objects (those with the highest profiled
    hit counts) form the hot fragment; cold objects are grouped around
    sampled centroids so distance lower bounds
    ``d(q, x) >= d(q, centroid) - radius`` prune whole groups.
    """

    def __init__(
        self,
        space: FeatureSpace,
        hit_counts: np.ndarray,
        hot_fraction: float = 0.2,
        n_groups: int = 32,
        seed: int = 0,
    ) -> None:
        if not 0.0 < hot_fraction < 1.0:
            raise WorkloadError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
        if len(hit_counts) != space.n_objects:
            raise WorkloadError("hit_counts must cover every object of the space")
        self.space = space
        self.hot_fraction = hot_fraction
        n_hot = max(int(round(hot_fraction * space.n_objects)), 1)
        order = np.argsort(-hit_counts, kind="stable")
        self.hot_ids = np.sort(order[:n_hot])
        self.cold_ids = np.sort(order[n_hot:])
        self.hit_counts = hit_counts
        self.groups = self._build_groups(max(min(n_groups, len(self.cold_ids)), 1), seed)

    def _build_groups(self, n_groups: int, seed: int) -> list[ColdGroup]:
        cold = self.cold_ids
        if len(cold) == 0:
            return []
        rng = np.random.default_rng(seed)
        vectors = self.space.vectors[cold]
        centroid_ids = rng.choice(len(cold), size=n_groups, replace=False)
        centroids = vectors[centroid_ids]
        # assign every cold object to its nearest centroid
        assignment = np.empty(len(cold), dtype=np.int64)
        for i in range(len(cold)):
            assignment[i] = int(np.argmin(((centroids - vectors[i]) ** 2).sum(axis=1)))
        groups = []
        for g in range(n_groups):
            members = cold[assignment == g]
            if len(members) == 0:
                continue
            member_vectors = self.space.vectors[members]
            centroid = member_vectors.mean(axis=0)
            radius = float(np.sqrt(((member_vectors - centroid) ** 2).sum(axis=1)).max())
            groups.append(ColdGroup(members, centroid, radius))
        return groups

    def hot_share(self) -> float:
        """Fraction of objects in the hot fragment."""
        return len(self.hot_ids) / max(self.space.n_objects, 1)

    def hit_skew(self) -> float:
        """Share of all profiled hits captured by the hot fragment —
        how strongly the learned distribution is skewed."""
        total = self.hit_counts.sum()
        if total == 0:
            return 0.0
        return float(self.hit_counts[self.hot_ids].sum() / total)


def _similarities(vectors: np.ndarray, query: np.ndarray, scale: float) -> np.ndarray:
    return np.exp(-l2_distances(vectors, query) / scale)


def profiled_topn(
    fragments: ProfiledFragments,
    query: np.ndarray,
    n: int,
    mode: str = "safe",
) -> TopNResult:
    """Top-N similarity search over profiled fragments.

    Returns similarity scores ``exp(-d / scale)`` with ``scale`` fixed
    from the space (so scores are comparable across fragments).
    """
    if mode not in ("unsafe", "safe", "full"):
        raise TopNError(f"unknown mode {mode!r}; have unsafe/safe/full")
    space = fragments.space
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (space.dim,):
        raise TopNError(f"query dimension {query.shape} != space dimension {space.dim}")
    if n < 0:
        raise TopNError(f"n must be non-negative, got {n}")
    scale = max(float(np.std(space.vectors)) * np.sqrt(space.dim), 1e-9)
    scored = 0

    def similarities(object_ids: np.ndarray) -> np.ndarray:
        nonlocal scored
        if len(object_ids) == 0:
            return np.empty(0)
        sims = _similarities(space.columns[:, object_ids].T, query, scale)
        stats.charge_tuples_read(len(object_ids))
        stats.charge_comparisons(len(object_ids))
        scored += len(object_ids)
        return sims

    # full and unsafe mode score one id set and cut it once
    if mode == "full":
        ids = np.arange(space.n_objects)
        return TopNResult(top_items(ids, similarities(ids), n), n, "profiled-full", True,
                          {"objects_scored": scored, "groups_pruned": 0})
    if mode == "unsafe":
        ids = fragments.hot_ids
        return TopNResult(top_items(ids, similarities(ids), n), n, "profiled-unsafe", False,
                          {"objects_scored": scored, "groups_pruned": 0,
                           "hot_share": fragments.hot_share()})

    # safe mode reads the N-th best between groups, so it keeps a heap
    heap = BoundedTopN(n)

    def score_objects(object_ids: np.ndarray) -> None:
        for obj, sim in zip(object_ids.tolist(), similarities(object_ids).tolist()):
            heap.push(obj, sim)

    score_objects(fragments.hot_ids)
    # bound-administrate the cold groups
    pruned = 0
    # visit most promising groups first so the threshold tightens early
    def group_bound(group: ColdGroup) -> float:
        centroid_distance = float(np.sqrt(((group.centroid - query) ** 2).sum()))
        return float(np.exp(-max(centroid_distance - group.radius, 0.0) / scale))

    ordered = sorted(fragments.groups, key=group_bound, reverse=True)
    for group in ordered:
        bound = group_bound(group)
        stats.charge_comparisons(1)
        if heap.full and bound <= heap.threshold():
            pruned += 1
            continue
        score_objects(group.members)
    return TopNResult(heap.items_sorted(), n, "profiled-safe", True,
                      {"objects_scored": scored, "groups_pruned": pruned,
                       "groups_total": len(fragments.groups),
                       "hot_share": fragments.hot_share()})
