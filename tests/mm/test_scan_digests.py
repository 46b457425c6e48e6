"""Golden digests of the feature similarity scans.

Served and cached feature queries are keyed by their request — the
space, the measure and a SHA-1 of the query vector
(``cache.fingerprint.feature_token``) — not by their grades, so a scan
that moves one last bit of one grade would serve cached answers that
a cold run no longer gives.  These digests pin the grades of fixed
queries on the benchmark-shaped spaces, ``color_histograms(20000, 16)``
and ``texture_features(20000, 8)``, for ``l1``, ``l2`` and
``histogram``, and the query tokens the cache keys them by.  They were computed with the column-at-a-time scan
that the blocked kernel replaced, before the kernel changed, so passing
them shows the blocked scan kept every grade bit for bit.  A deliberate
change of grade bits (a matmul scan, say) must update them on purpose.

The distances are pure IEEE arithmetic (subtract, abs, multiply, add,
sqrt, min) and hash the same everywhere.  ``l1``/``l2`` grades also
pass through ``np.exp``, whose last bit depends on the SIMD path NumPy
picks for the CPU; when a canary ``exp`` digest shows a different
``exp`` those grade digests are skipped, and the distance digests still
hold the scan to its bits.
"""

import hashlib

import numpy as np
import pytest

from repro.cache.fingerprint import source_token
from repro.mm import (
    color_histograms,
    feature_source,
    histogram_intersection,
    l1_distances,
    l2_distances,
    query_near_cluster,
    texture_features,
)

N_OBJECTS = 20000


def sha1(values: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


SPACES = {
    "color": lambda: color_histograms(N_OBJECTS, 16, n_clusters=8, seed=1),
    "texture": lambda: texture_features(N_OBJECTS, 8, n_clusters=8, seed=2),
}
SCANS = {"l1": l1_distances, "l2": l2_distances, "histogram": histogram_intersection}

#: the spaces themselves, so a changed generator reads as such
VECTOR_DIGESTS = {
    "color": "5f446612b2864c3be9e0a354f2b2f78e0714b807",
    "texture": "08382f7f8021e1d3ddc1e22867f90ff264b23a3b",
}

#: ``sha1`` of the distances (``histogram``: the similarities) of the
#: queries of :func:`queries`, concatenated in order
DISTANCE_DIGESTS = {
    ("color", "l1"): "55aed1c3bb67b81dff73c05ab8de6b88dc7cd248",
    ("color", "l2"): "302905b9ce22d7b6533822d49c8fc14f0768ec07",
    ("color", "histogram"): "49f070bac8d932c61ee4256f9c708e830bf7aaf1",
    ("texture", "l1"): "d8fcb27e9ccfcd36e66cef84c09f20a359e53cc8",
    ("texture", "l2"): "d3c96665ece5ef63223a2f788dfbfd8df545b32e",
    ("texture", "histogram"): "bda809fc449f2f80408e1292d922506de23ae608",
}

#: the first 16 hex digits of ``sha1`` of the grades of
#: ``feature_source(space, query, measure)``, one per query of
#: :func:`queries`
TOKENS = {
    ("color", "l1"): (
        "b7f07ceb4c3d4bdf",
        "0a0cc00a3bcf2d8b",
        "becfe76355e50251",
        "eeb21737a6aa6ddd",
    ),
    ("color", "l2"): (
        "b881539908822369",
        "ccbe0e67e1237891",
        "b36956b26459cff8",
        "f47a0c252d8e3271",
    ),
    ("color", "histogram"): (
        "e641a6c420ce2038",
        "eea58dde0736f1fd",
        "1fdeb677e500d7f5",
        "0ae01d0e0a50624d",
    ),
    ("texture", "l1"): (
        "c278776574e1d351",
        "5a6ffd779b9aa771",
        "69736e1a74eba453",
        "46ef0f8b4ca3c4c3",
    ),
    ("texture", "l2"): (
        "59abc62bbf53bc51",
        "f9e4dc1356151ea2",
        "e7aa0204ad65d596",
        "e8704ae05ef1fc21",
    ),
    ("texture", "histogram"): (
        "28789cde7b012f2d",
        "a55e5783e1df14f6",
        "78f9f11195b6a02d",
        "8479fb781c8f030d",
    ),
}

#: the digest in ``source_token(feature_source(space, query, measure))``:
#: the first 16 hex digits of ``sha1`` of each query of :func:`queries`,
#: whatever the measure
QUERY_TOKENS = {
    "color": ("0305a01ca000cc04", "9c5b49b3c556b70e", "52274ecfcb4a3b5f",
              "167b278c46ad9c8e"),
    "texture": ("363c472ee88ce61c", "8b56fdab427a047a", "396e179f60b19a91",
                "8063b889eb2f4b65"),
}

#: ``sha1`` of ``np.exp`` over a fixed grid, on the host that computed
#: the digests above
EXP_CANARY = "228d72daabd00ad279e649eaeac1c2cf3dfcedfc"


@pytest.fixture(scope="module")
def spaces():
    return {name: make() for name, make in SPACES.items()}


def queries(space):
    """Three queries near planted clusters and one object's own vector."""
    out = [query_near_cluster(space, cluster, seed=cluster) for cluster in (0, 3, 6)]
    out.append(space.vectors[4321].copy())
    return out


def exp_canary() -> str:
    return sha1(np.exp(-np.linspace(0.0, 40.0, 100001)))


@pytest.mark.parametrize("name", sorted(SPACES))
def test_spaces_are_the_pinned_ones(spaces, name):
    assert sha1(spaces[name].vectors) == VECTOR_DIGESTS[name]


@pytest.mark.parametrize("measure", sorted(SCANS))
@pytest.mark.parametrize("name", sorted(SPACES))
def test_distance_digests(spaces, name, measure):
    space = spaces[name]
    got = np.concatenate([SCANS[measure](space.columns.T, q) for q in queries(space)])
    assert sha1(got) == DISTANCE_DIGESTS[name, measure]


@pytest.mark.parametrize("measure", sorted(SCANS))
@pytest.mark.parametrize("name", sorted(SPACES))
def test_feature_source_tokens(spaces, name, measure):
    if measure != "histogram" and exp_canary() != EXP_CANARY:
        pytest.skip("this platform's np.exp rounds differently from the pinning host")
    space = spaces[name]
    sources = [feature_source(space, q, measure) for q in queries(space)]
    got = tuple(sha1(source.grades_of(np.arange(source.n_objects)))[:16] for source in sources)
    assert got == TOKENS[name, measure]


@pytest.mark.parametrize("measure", sorted(SCANS))
@pytest.mark.parametrize("name", sorted(SPACES))
def test_feature_query_tokens(spaces, name, measure):
    """A feature source's cache token is its request, computed without
    its grades: the same on every platform."""
    space = spaces[name]
    got = tuple(source_token(feature_source(space, q, measure)) for q in queries(space))
    assert got == tuple(("feature", name, measure, digest) for digest in QUERY_TOKENS[name])
