"""Every engine that ends in the top-N cut keeps its answers and charges.

The cut ("top n by score, ties by smaller id") is one kernel function
under ``kernel.topn_tail``, TA, NRA/CA, FA, the coordinator and the
exhaustive source scan.  The goldens below were recorded while those
engines still cut with their own partition + lexsort or filled a
bounded heap one item at a time: per call, every ``CostCounter`` field
and a digest of the answer (ids, score bits and stats) must be
unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.fragmentation import (FragmentedExecutor, ProfiledFragments, Strategy,
                                 fragment_by_volume, profile_hits, profiled_topn)
from repro.ir import BM25, InvertedIndex
from repro.ir.ranking import score_all
from repro.mm import ArraySource, texture_features, query_near_cluster
from repro.storage import BAT, CostCounter, SparseIndex
from repro.storage.buffer import BufferManager, set_buffer_manager
from repro.topn import (ScoreHistogram, classic_topn, fagin_topn,
                        naive_full_ranking, naive_topn, naive_topn_sources,
                        probabilistic_topn, probabilistic_topn_indexed,
                        quit_continue_topn, sort_stop, stop_after_filter)
from repro.workloads import SyntheticCollection, generate_queries, trec

FIELDS = ("page_reads", "page_writes", "buffer_hits", "tuples_read", "tuples_written",
          "comparisons", "random_accesses", "sorted_accesses")


def _text():
    collection = SyntheticCollection.generate(trec.small(seed=31))
    index = InvertedIndex.build(collection)
    batch = generate_queries(collection, n_queries=5, terms_range=(2, 6), seed=4)
    return index, [list(query.term_ids) for query in batch.queries]


def _graded():
    # few distinct grades: boundary ties are the rule, not the exception
    rng = np.random.default_rng(7)
    return rng.integers(0, 6, size=(400, 3)) / 5.0


def _profiled():
    space = texture_features(600, dim=6, n_clusters=6, spread=0.08, seed=131)
    fragments = ProfiledFragments(space, profile_hits(space, n_queries=60, k=20, seed=1),
                                  hot_fraction=0.25, n_groups=16, seed=2)
    queries = [query_near_cluster(space, cluster, seed=cluster) for cluster in range(3)]
    return fragments, queries


def _digest(result) -> str:
    stats = {key: value for key, value in result.stats.items()
             if key not in ("resume_state", "heap_churn")}
    answer = [(item.obj_id, float(item.score).hex()) for item in result.items]
    text = repr((result.strategy, result.safe, answer, sorted(stats.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _charged(calls) -> list:
    """One ``(counters, answer digest)`` row per call, on a fresh pool;
    named extra counters follow the eight fields."""
    previous = set_buffer_manager(BufferManager(capacity_pages=64))
    try:
        rows = []
        for call in calls:
            with CostCounter.activate() as cost:
                result = call()
            snapshot = cost.snapshot()
            counters = tuple(snapshot.pop(name) for name in FIELDS)
            rows.append((counters + tuple(sorted(snapshot.items())), _digest(result)))
        return rows
    finally:
        set_buffer_manager(previous)


def _sites() -> dict:
    """Site name -> the calls that reach the cut through that site."""
    index, queries = _text()
    graded = _graded()
    model = BM25()
    sources = lambda: [ArraySource(graded[:, j]) for j in range(graded.shape[1])]  # noqa: E731
    fragmented = fragment_by_volume(index, volume_cut=0.95)
    fragmented.large.build_sparse_index()
    executor = FragmentedExecutor(fragmented, model)
    rng = np.random.default_rng(3)
    ranked = BAT(np.sort(np.round(rng.normal(0.5, 0.2, 5000), 2)), tail_sorted=True,
                 persistent=True)
    histogram = ScoreHistogram(ranked.tail)
    scores = score_all(index, queries[0], model)
    dense = BAT(np.round(np.asarray(scores.tail), 1))
    attributes = BAT(rng.random(len(dense)))
    fragments, vectors = _profiled()

    def resumed(tids, n):
        state = quit_continue_topn(index, tids, model, 3, capture_state=True)
        return quit_continue_topn(index, tids, model, n, resume_from=state.stats["resume_state"])

    return {
        "naive_topn": [lambda t=t, n=n: naive_topn(index, t, model, n)
                       for t in queries for n in (0, 1, 10, 100_000)],
        "naive_full_ranking": [lambda t=t: naive_full_ranking(index, t, model)
                               for t in queries],
        **{f"step1_{strategy.value}": [lambda t=t, s=strategy: executor.query(t, 10, s)
                                       for t in queries]
           for strategy in Strategy},
        "quit_continue": [lambda t=t, s=s: quit_continue_topn(index, t, model, 10, strategy=s)
                          for t in queries for s in ("quit", "continue")]
        + [lambda t=t: resumed(t, 20) for t in queries],
        "stop_after": [lambda: classic_topn(dense, 10), lambda: sort_stop(dense, 10)]
        + [lambda p=p, n=n: stop_after_filter(dense, attributes, n, 0.2, 0.8, policy=p)
           for p in ("conservative", "aggressive") for n in (1, 10, 50)],
        "probabilistic": [lambda n=n: probabilistic_topn(ranked, n, histogram)
                          for n in (1, 25, 400)]
        + [lambda n=n: probabilistic_topn_indexed(SparseIndex(ranked), n, histogram)
           for n in (1, 25)],
        "fagin_fa": [lambda n=n: fagin_topn(sources(), n) for n in (1, 10, 57, 500)],
        "naive_topn_sources": [lambda n=n: naive_topn_sources(sources(), n)
                               for n in (0, 1, 10, 500)],
        "profiled_topn": [lambda q=q, m=m: profiled_topn(fragments, q, 10, mode=m)
                          for q in vectors for m in ("unsafe", "safe", "full")],
    }


GOLDEN = {  # (counters, answer digest) per call
    'fagin_fa': [
        ((0, 0, 0, 0, 0, 0, 552, 225), '9f70623edb17'),
        ((0, 0, 0, 0, 0, 0, 681, 303), '817e7de58226'),
        ((0, 0, 0, 0, 0, 0, 1056, 612), 'cdfdf91aab7a'),
        ((0, 0, 0, 0, 0, 0, 1200, 1200), '373dee200290'),
    ],
    'naive_full_ranking': [
        ((12, 0, 0, 71, 42, 105, 0, 0), '1c36da28aaa0'),
        ((4, 0, 0, 21, 14, 21, 0, 0), '1525f701443f'),
        ((6, 0, 6, 41, 26, 52, 0, 0), 'f70eee40092d'),
        ((8, 0, 4, 36, 24, 48, 0, 0), '80d3c087c548'),
        ((2, 0, 4, 32, 20, 40, 0, 0), '52273d6792b2'),
    ],
    'naive_topn': [
        ((12, 0, 0, 71, 21, 0, 0, 0), '5daed202103b'),
        ((0, 0, 12, 71, 22, 22, 0, 0), 'be086a58590d'),
        ((0, 0, 12, 71, 31, 61, 0, 0), '3a5432930764'),
        ((0, 0, 12, 71, 42, 105, 0, 0), '72971d656684'),
        ((4, 0, 0, 21, 7, 0, 0, 0), 'c7daefadd4c8'),
        ((0, 0, 4, 21, 8, 8, 0, 0), '1436b66e7928'),
        ((0, 0, 4, 21, 14, 21, 0, 0), '83d06f0d1ad7'),
        ((0, 0, 4, 21, 14, 21, 0, 0), '83d06f0d1ad7'),
        ((6, 0, 6, 41, 13, 0, 0, 0), '687f2ac35f5a'),
        ((0, 0, 12, 41, 14, 14, 0, 0), 'c1c8ea0931b6'),
        ((0, 0, 12, 41, 23, 53, 0, 0), '404c0c9485ef'),
        ((0, 0, 12, 41, 26, 52, 0, 0), 'c5badd383c32'),
        ((8, 0, 4, 36, 12, 0, 0, 0), '5597aa3e8a46'),
        ((0, 0, 12, 36, 13, 13, 0, 0), '19a90881e84b'),
        ((0, 0, 12, 36, 22, 52, 0, 0), '0af1751ad026'),
        ((0, 0, 12, 36, 24, 48, 0, 0), 'dd8232181f63'),
        ((2, 0, 4, 32, 10, 0, 0, 0), '8518b85d5bb7'),
        ((0, 0, 6, 32, 11, 11, 0, 0), '85c8134fc150'),
        ((0, 0, 6, 32, 20, 40, 0, 0), '9fa1fccd57cf'),
        ((0, 0, 6, 32, 20, 40, 0, 0), '9fa1fccd57cf'),
    ],
    'naive_topn_sources': [
        ((0, 0, 0, 0, 0, 0, 1200, 0), '42ea892196d1'),
        ((0, 0, 0, 0, 0, 0, 1200, 0), 'e0244446e7cc'),
        ((0, 0, 0, 0, 0, 0, 1200, 0), 'abb72118e295'),
        ((0, 0, 0, 0, 0, 0, 1200, 0), '7ade951bbf9a'),
    ],
    'probabilistic': [
        ((14, 0, 0, 192, 97, 123, 0, 0), 'a50fcc44f8f1'),
        ((0, 0, 14, 192, 121, 247, 0, 0), '880cb134e676'),
        ((1, 0, 15, 960, 880, 4106, 0, 0), 'c34ce06ec33c'),
        ((5, 0, 16, 252, 97, 243, 0, 0), 'ec282141a14e'),
        ((0, 0, 21, 252, 121, 367, 0, 0), '9d6691727558'),
    ],
    'profiled_topn': [
        ((0, 0, 0, 150, 0, 150, 0, 0), '269b7863c9a7'),
        ((0, 0, 0, 220, 0, 236, 0, 0), '0ddb5a51e3c5'),
        ((0, 0, 0, 600, 0, 600, 0, 0), 'c64d9e027d5d'),
        ((0, 0, 0, 150, 0, 150, 0, 0), '2a58a71bd58e'),
        ((0, 0, 0, 299, 0, 315, 0, 0), '485c119f9386'),
        ((0, 0, 0, 600, 0, 600, 0, 0), '7e87396ee0b9'),
        ((0, 0, 0, 150, 0, 150, 0, 0), '2e913d486105'),
        ((0, 0, 0, 220, 0, 236, 0, 0), '0e855b1017bd'),
        ((0, 0, 0, 600, 0, 600, 0, 0), '9042a5fb434a'),
    ],
    'quit_continue': [
        ((4, 0, 0, 12, 8, 8, 0, 0), '56cfad41098d'),
        ((8, 0, 4, 54, 8, 29, 0, 0), 'fe7284308cdd'),
        ((2, 0, 0, 6, 4, 2, 0, 0), '54090029bff9'),
        ((2, 0, 2, 16, 4, 7, 0, 0), 'fb01bc05d404'),
        ((2, 0, 2, 6, 4, 2, 0, 0), '039e60108b30'),
        ((4, 0, 8, 30, 4, 14, 0, 0), '4cdc245753a3'),
        ((4, 0, 0, 6, 4, 2, 0, 0), '6229a41aa0b0'),
        ((4, 0, 8, 26, 4, 12, 0, 0), '361f9ec633b8'),
        ((2, 0, 0, 6, 4, 2, 0, 0), '0a2b4e8cd2ef'),
        ((0, 0, 6, 24, 4, 11, 0, 0), 'dbfb789de147'),
        ((0, 0, 12, 58, 15, 39, 0, 0), '97495eeb92bf'),
        ((0, 0, 4, 18, 8, 9, 0, 0), 'be8780de7a70'),
        ((0, 0, 12, 32, 8, 16, 0, 0), '615ccde65797'),
        ((0, 0, 12, 28, 8, 14, 0, 0), '483f17638850'),
        ((0, 0, 6, 26, 8, 13, 0, 0), '31f7e1528bea'),
    ],
    'step1_indexed': [
        ((12, 0, 0, 583, 49, 1125, 0, 0), 'cb5aa5c51da2'),
        ((3, 0, 2, 277, 19, 553, 0, 0), '4088540c7f8c'),
        ((9, 0, 4, 297, 28, 585, 0, 0), '2ea2e854ef4f'),
        ((6, 0, 7, 292, 26, 584, 0, 0), '29ff10b0c9a5'),
        ((4, 0, 3, 288, 26, 572, 0, 0), '60e1385483b8'),
    ],
    'step1_safe-switch': [
        ((1944, 0, 0, 495878, 31, 330623, 0, 0), 'fd9522c821f1'),
        ((1940, 0, 0, 495854, 14, 165302, 0, 0), '0a033589f232'),
        ((1948, 0, 0, 495874, 23, 165334, 0, 0), '8b4310a5335d'),
        ((1946, 0, 2, 495871, 22, 165333, 0, 0), '229b0cfde067'),
        ((1942, 0, 0, 495863, 20, 165321, 0, 0), '044d5fbbbec9'),
    ],
    'step1_unfragmented': [
        ((12, 0, 0, 71, 31, 61, 0, 0), '6ec9af44036d'),
        ((4, 0, 0, 21, 14, 21, 0, 0), 'be7e32f94c5d'),
        ((6, 0, 6, 41, 23, 53, 0, 0), '1e4d5598ee1c'),
        ((8, 0, 4, 36, 22, 52, 0, 0), 'ebd7ff461236'),
        ((2, 0, 4, 32, 20, 40, 0, 0), '9b61ddd3ad71'),
    ],
    'step1_unsafe-small': [
        ((6, 0, 0, 21, 14, 21, 0, 0), '67fbdab26565'),
        ((0, 0, 2, 6, 4, 2, 0, 0), '9312aa95c97d'),
        ((6, 0, 4, 27, 18, 36, 0, 0), '3cc6a9b70fc6'),
        ((6, 0, 4, 24, 16, 24, 0, 0), '2f1c9a6ef824'),
        ((4, 0, 0, 15, 10, 15, 0, 0), 'a4187e336cc9'),
    ],
    'stop_after': [
        ((0, 0, 0, 31, 31, 105, 0, 0), 'ed3c5bf0262d'),
        ((0, 0, 0, 21, 10, 61, 0, 0), 'ced963867734'),
        ((0, 0, 0, 57, 16, 58, 0, 0), 'a4283b2619e2'),
        ((0, 0, 0, 57, 25, 97, 0, 0), 'b2b98edff958'),
        ((0, 0, 0, 57, 30, 102, 0, 0), '5502e852bb0c'),
        ((0, 0, 0, 24, 4, 27, 0, 0), '5783d4d1aa99'),
        ((0, 0, 0, 51, 44, 161, 0, 0), '3b298ded2fe6'),
        ((0, 0, 0, 57, 51, 147, 0, 0), 'b2cdc04a5091'),
    ],
}


@pytest.fixture(scope="module")
def sites():
    return _sites()


@pytest.mark.parametrize("site", sorted(GOLDEN))
def test_site_charges_and_answers_unchanged(sites, site):
    assert _charged(sites[site]) == GOLDEN[site]


def test_goldens_cover_every_site(sites):
    assert sorted(GOLDEN) == sorted(sites)
