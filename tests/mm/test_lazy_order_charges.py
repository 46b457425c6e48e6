"""Lazy sorted order changes no charge and no answer.

The golden values below were recorded while ``ArraySource`` still
sorted every grade at construction.  They pin, for TA, CA and NRA over
feature sources and over text + feature sources, every cost counter
and the answer, and for the served anytime runner the whole chunk
sequence: items, depth, bound and final flag.  The collection is big
enough (3,000 objects) that the deeper engines grow the sorted prefix
and fall back to a full sort.

Object ids are compared exactly; scores and bound grades to a relative
1e-9, so a different floating-point library cannot fail the test
without also moving an id.
"""

import hashlib

import numpy as np
import pytest

from repro.core import MMDatabase
from repro.mm.features import FeatureSpace
from repro.serve.session import AnytimeRunner
from repro.storage import CostCounter
from repro.workloads import SyntheticCollection, trec

FIELDS = ("page_reads", "page_writes", "buffer_hits", "tuples_read", "tuples_written",
          "comparisons", "random_accesses", "sorted_accesses")
N = 10
DIMS = 6


def make_world():
    collection = SyntheticCollection.generate(trec.small(seed=41))
    db = MMDatabase.from_collection(collection)
    rng = np.random.default_rng(42)
    for name in ("color", "texture"):
        db.add_feature_space(FeatureSpace(name, rng.random((collection.n_docs, DIMS))))
    qrng = np.random.default_rng(43)
    queries = [{"color": qrng.random(DIMS), "texture": qrng.random(DIMS)} for _ in range(3)]
    text = " ".join(collection.term_strings[i] for i in (5, 40, 300))
    return db, queries, text


def _ids_digest(items) -> str:
    return hashlib.sha256(repr([int(obj) for obj, _ in items]).encode()).hexdigest()[:16]


def answer_row(search):
    """(counters, ids, score sum) of one library search."""
    items = [(item.obj_id, item.score) for item in search.result.items]
    return (tuple(search.cost.snapshot()[f] for f in FIELDS),
            [int(obj) for obj, _ in items],
            round(sum(score for _, score in items), 12))


def chunk_row(chunk):
    """(depth, final, bound n, bound grade, bound id, ids digest) of one chunk."""
    bound = chunk.bound
    return (chunk.depth, chunk.final,
            None if bound is None else bound.n,
            None if bound is None else round(-bound.key[0], 12),
            None if bound is None else bound.key[1],
            _ids_digest(chunk.items))


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for row, golden in zip(got, want):
        assert len(row) == len(golden)
        for value, expected in zip(row, golden):
            if isinstance(expected, float):
                assert value == pytest.approx(expected, rel=1e-9)
            else:
                assert value == expected


@pytest.fixture(scope="module")
def world():
    db, queries, text = make_world()
    yield db, queries, text
    db.close()


# per row: (counters in FIELDS order, answer ids, answer score sum)
LIBRARY = {
    "ta": [
        ((0, 0, 0, 0, 0, 0, 196, 198), [2132, 1658, 504, 2455, 2145, 1850, 50, 1940, 2035, 495], 12.250009730696),
        ((0, 0, 0, 0, 0, 0, 146, 148), [2943, 1563, 362, 708, 1877, 467, 513, 807, 2626, 257], 12.668909870171),
        ((0, 0, 0, 0, 0, 0, 151, 152), [607, 2273, 2885, 1337, 2819, 572, 1891, 2232, 2388, 2145], 12.526176519011),
        ((0, 0, 0, 0, 0, 0, 495, 168), [1843, 503, 432, 1241, 1664, 2092, 1981, 1626, 1675, 860], 59.69926563219),
    ],
    "ca": [
        ((0, 0, 0, 0, 0, 0, 62, 496), [2132, 1658, 504, 2455, 2145, 1850, 50, 1940, 2035, 495], 12.250009730696),
        ((0, 0, 0, 0, 0, 0, 46, 368), [2943, 1563, 362, 708, 1877, 467, 513, 807, 2626, 257], 12.668909870171),
        ((0, 0, 0, 0, 0, 0, 50, 400), [607, 2273, 2885, 1337, 2819, 572, 1891, 2232, 2388, 2145], 12.526176519011),
        ((0, 0, 0, 0, 0, 0, 107, 474), [1843, 503, 432, 1241, 1664, 2092, 1981, 1626, 1675, 860], 59.69926563219),
    ],
    "nra": [
        ((0, 0, 0, 0, 0, 0, 0, 3040), [2132, 1658, 504, 2455, 2145, 1850, 50, 1940, 2035, 495], 12.250009730696),
        ((0, 0, 0, 0, 0, 0, 0, 3648), [2943, 1563, 362, 708, 1877, 467, 513, 807, 2626, 257], 12.668909870171),
        ((0, 0, 0, 0, 0, 0, 0, 2528), [607, 2273, 2885, 1337, 2819, 572, 1891, 2232, 2388, 2145], 12.526176519011),
        ((0, 0, 0, 0, 0, 0, 0, 4443), [1843, 503, 432, 1664, 1675, 1981, 1241, 2092, 1626, 860], 58.013364726435),
    ],
}

# per algorithm: (counters of the whole run, one row per chunk as chunk_row)
SERVED = {
    "ta": ((0, 0, 0, 0, 0, 0, 146, 148), [
        (4, False, 8, 1.50447811617, -1, "92bd0ca20706b628"),
        (8, False, 10, 1.429235026883, -1, "a2b5bd168a6e1022"),
        (16, False, 10, 1.378400217591, -1, "e442d2c808f66dca"),
        (32, False, 10, 1.307603660364, -1, "4167a8a6958c3ab8"),
        (64, False, 10, 1.223609340789, -1, "de8b52b2d7df47d3"),
        (74, True, 10, 1.205426266681, 257, "de8b52b2d7df47d3"),
    ]),
    "ca": ((0, 0, 0, 0, 0, 0, 46, 368), [
        (4, False, 8, 1.50447811617, -1, "01bbfbf8bb753ce4"),
        (8, False, 10, 1.429235026883, -1, "25902e8f6e6be6e8"),
        (16, False, 10, 1.378400217591, -1, "ab81a1884f6c3e58"),
        (32, False, 10, 1.307603660364, -1, "ab3efd77fff5b1cb"),
        (64, False, 10, 1.223609340789, -1, "6b1bf604a56bc6fb"),
        (128, False, 10, 1.131763067745, -1, "fa30d3bdfc1e672f"),
        (184, True, 10, 1.205426266681, 257, "de8b52b2d7df47d3"),
    ]),
    "nra": ((0, 0, 0, 0, 0, 0, 0, 3648), [
        (4, False, 8, 1.50447811617, -1, "01bbfbf8bb753ce4"),
        (8, False, 10, 1.429235026883, -1, "8e672e81831d5263"),
        (16, False, 10, 1.378400217591, -1, "8e672e81831d5263"),
        (32, False, 10, 1.307603660364, -1, "787f04f0f5a34f3a"),
        (64, False, 10, 1.223609340789, -1, "1901a6059f2c68f8"),
        (128, False, 10, 1.131763067745, -1, "35ed21fdeaf0b8e7"),
        (256, False, 10, 1.035822558884, -1, "b6d07b892dcfeac3"),
        (512, False, 10, 0.927225300901, -1, "de8b52b2d7df47d3"),
        (1024, False, 10, 0.804846099095, -1, "de8b52b2d7df47d3"),
        (1824, True, 10, 1.205426266681, 257, "de8b52b2d7df47d3"),
    ]),
}


@pytest.mark.parametrize("algorithm", ("ta", "ca", "nra"))
def test_library_searches_match_golden(world, algorithm):
    db, queries, text = world
    rows = [answer_row(db.feature_search(query, n=N, algorithm=algorithm))
            for query in queries]
    rows.append(answer_row(db.combined_search(
        text, {"texture": queries[0]["texture"]}, n=N, algorithm=algorithm)))
    assert_rows_equal(rows, LIBRARY[algorithm])


@pytest.mark.parametrize("algorithm", ("ta", "ca", "nra"))
def test_served_chunk_sequence_matches_golden(world, algorithm):
    db, queries, _text = world
    runner = AnytimeRunner(db.feature_sources(queries[1]), N, algorithm, chunk_depth=4)
    chunks = []
    with CostCounter.activate() as cost:
        while not runner.finished:
            chunks.append(chunk_row(runner.step()))
    counters, golden_chunks = SERVED[algorithm]
    assert tuple(cost.snapshot()[f] for f in FIELDS) == counters
    assert_rows_equal(chunks, golden_chunks)
