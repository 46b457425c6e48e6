"""Differential conformance: every exact top-N engine agrees.

One instance, all safe strategies — naive, FA, TA, NRA, CA (two cost
ratios), the STOP AFTER family, and quit/continue in its safe
configuration (budget_fraction=1.0) — must return *the same answer*.

Tie-awareness: all in-repo engines share the deterministic convention
documented in :class:`repro.topn.result.TopNResult` (score descending,
then id ascending), so comparisons are on **score multisets** plus
exact (id, score) agreement strictly above the tied boundary — an
early-stopping engine (TA, FA) may keep a different member of a tied
boundary group than the exhaustive baseline, because canonicalizing
boundary membership would require reading past its stop point.
NRA and CA may additionally report
*lower-bound* scores for members whose exact score was never
materialized; they are compared by validity instead — the multiset of
*true* scores of the returned ids must equal the reference top-N's
score multiset.  (Any answer with those true scores is a correct
top-N; at a boundary tied in *true* score NRA/CA may keep a different
tied member than naive, because their id tie-break applies to the
lower bounds they actually computed.)

Corpus shapes exercise the distributions where Fagin-family engines
historically diverge: uniform, skewed, correlated, anticorrelated and
heavy-ties (few distinct grades, so the N-boundary is usually tied).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import BM25, Collection, Document, InvertedIndex
from repro.mm import ArraySource, PostingsSource
from repro.storage import BAT, kernel
from repro.topn import (
    SUM,
    classic_topn,
    combined_topn,
    fagin_topn,
    naive_topn,
    naive_topn_sources,
    nra_topn,
    quit_continue_topn,
    scan_stop,
    sort_stop,
    stop_after_filter,
    threshold_topn,
)
from repro.parallel import parallel_topn, shard_index
from repro.workloads import SyntheticCollection, generate_queries, trec

N_OBJECTS = 300
M_SOURCES = 3


def corpus(shape: str, seed: int, n_objects: int = N_OBJECTS,
           m: int = M_SOURCES) -> np.ndarray:
    """An (objects x sources) grade matrix of the named shape."""
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        return rng.random((n_objects, m))
    if shape == "skewed":
        # most grades tiny, few large: Zipf-flavoured score mass
        return rng.random((n_objects, m)) ** 6
    if shape == "correlated":
        base = rng.random((n_objects, 1))
        noise = rng.random((n_objects, m)) * 0.05
        return np.clip(base + noise, 0.0, 1.0)
    if shape == "anticorrelated":
        base = rng.random(n_objects)
        cols = [base] + [(1.0 - base + rng.random(n_objects) * 0.05) / 1.05
                         for _ in range(m - 1)]
        return np.clip(np.column_stack(cols), 0.0, 1.0)
    if shape == "ties":
        # five distinct grades: tied aggregate scores straddle every
        # plausible N-boundary
        return rng.integers(0, 5, size=(n_objects, m)) / 4.0
    raise AssertionError(shape)


SHAPES = ["uniform", "skewed", "correlated", "anticorrelated", "ties"]


def make_sources(matrix: np.ndarray):
    return [ArraySource(matrix[:, j], name=f"s{j}") for j in range(matrix.shape[1])]


def true_scores(matrix: np.ndarray, ids) -> list[float]:
    return [float(SUM.combine(list(matrix[obj]))) for obj in ids]


def score_multiset(scores) -> list[float]:
    return sorted(round(float(s), 9) for s in scores)


def above_boundary(result):
    """(id, score) pairs strictly above the result's last (boundary)
    score — the part every tie-aware engine must agree on exactly."""
    if not result.items:
        return []
    boundary = result.scores[-1]
    return [(item.obj_id, round(item.score, 9)) for item in result.items
            if item.score > boundary]


EXACT_SCORE_ENGINES = {
    "fa": lambda sources, n: fagin_topn(sources, n, SUM),
    "ta": lambda sources, n: threshold_topn(sources, n, SUM),
}
BOUND_SCORE_ENGINES = {
    "nra": lambda sources, n: nra_topn(sources, n, SUM, check_every=4),
    "ca-h1": lambda sources, n: combined_topn(sources, n, SUM, h=1, check_every=4),
    "ca-h4": lambda sources, n: combined_topn(sources, n, SUM, h=4, check_every=4),
}


class TestSourceEngineConformance:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 10, 25])
    def test_all_engines_agree(self, shape, seed, n):
        matrix = corpus(shape, seed)
        reference = naive_topn_sources(make_sources(matrix), n, SUM)
        ref_multiset = score_multiset(reference.scores)

        for name, engine in EXACT_SCORE_ENGINES.items():
            result = engine(make_sources(matrix), n)
            assert score_multiset(result.scores) == ref_multiset, \
                (name, shape, seed, n)
            assert above_boundary(result) == above_boundary(reference), \
                (name, shape, seed, n)

        for name, engine in BOUND_SCORE_ENGINES.items():
            result = engine(make_sources(matrix), n)
            # a valid top-N: the returned ids' *true* scores form the
            # reference score multiset
            assert score_multiset(true_scores(matrix, result.doc_ids)) \
                == ref_multiset, (name, shape, seed, n)
            assert len(result) == len(reference)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_tied_boundary_takes_smallest_ids(self, shape):
        """The documented boundary rule: among objects tied at the N-th
        score, the smallest ids are returned."""
        matrix = corpus(shape, seed=5)
        n = 10
        result = naive_topn_sources(make_sources(matrix), n, SUM)
        boundary = result.scores[-1]
        tied_everywhere = sorted(
            obj for obj in range(len(matrix))
            if abs(float(SUM.combine(list(matrix[obj]))) - boundary) < 1e-12
        )
        tied_returned = sorted(i for i, s in zip(result.doc_ids, result.scores)
                               if abs(s - boundary) < 1e-12)
        assert tied_returned == tied_everywhere[:len(tied_returned)]

    @settings(max_examples=30, deadline=None)
    @given(
        matrix=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0, width=32),
                     min_size=2, max_size=2),
            min_size=1, max_size=60,
        ),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_hypothesis_generated_distributions(self, matrix, n):
        """Engines agree on arbitrary grade matrices, including
        adversarial tie patterns hypothesis likes to produce."""
        grid = np.asarray(matrix, dtype=np.float64)
        reference = naive_topn_sources(make_sources(grid), n, SUM)
        ref_multiset = score_multiset(reference.scores)
        for name, engine in EXACT_SCORE_ENGINES.items():
            result = engine(make_sources(grid), n)
            assert score_multiset(result.scores) == ref_multiset, name
            assert above_boundary(result) == above_boundary(reference), name
        for name, engine in BOUND_SCORE_ENGINES.items():
            result = engine(make_sources(grid), n)
            assert score_multiset(true_scores(grid, result.doc_ids)) \
                == ref_multiset, name


class TestStopAfterConformance:
    """The relational family: every STOP AFTER policy returns the
    classic full-sort answer."""

    def table(self, shape, seed):
        matrix = corpus(shape, seed, n_objects=2000, m=1)
        return BAT(matrix[:, 0], persistent=True)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_policies_agree(self, shape, seed):
        scores = self.table(shape, seed)
        n = 15
        reference = classic_topn(scores, n)
        assert sort_stop(scores, n).same_ranking(reference)
        ordered = kernel.sort_tail(scores, descending=True)
        assert scan_stop(ordered, n).same_ranking(reference)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_filtered_policies_agree(self, shape):
        scores = self.table(shape, seed=3)
        rng = np.random.default_rng(4)
        attributes = BAT(rng.random(len(scores)))
        n = 12
        conservative = stop_after_filter(scores, attributes, n, 0.2, 0.8,
                                         policy="conservative")
        aggressive = stop_after_filter(scores, attributes, n, 0.2, 0.8,
                                       policy="aggressive")
        assert aggressive.same_ranking(conservative)
        assert score_multiset(aggressive.scores) == score_multiset(conservative.scores)


GRADE_TERMS = ("alpha", "bravo", "charlie")


def grade_index(matrix: np.ndarray):
    """An inverted index over one document per object in which term
    ``j`` occurs ``round(8 * grade)`` times, padded with a filler token
    to one document length: BM25 scores inherit the grade matrix's
    shape, its heavy ties included.  Term ids are numbered in order of
    first occurrence.  Returns the index and the grade terms' ids."""
    levels = np.rint(matrix * 8).astype(int)
    width = 8 * matrix.shape[1] + 1
    docs = []
    for row in levels:
        tokens = [term for term, tf in zip(GRADE_TERMS, row) for _ in range(tf)]
        docs.append(tokens + ["filler"] * (width - len(tokens)))
    terms = list(dict.fromkeys(term for tokens in docs for term in tokens))
    tid = {term: i for i, term in enumerate(terms)}
    collection = Collection([Document(doc_id, np.array([tid[t] for t in tokens], dtype=np.int64))
                             for doc_id, tokens in enumerate(docs)], terms)
    return InvertedIndex.build(collection), [tid[term] for term in GRADE_TERMS]


class TestParallelConformance:
    """The sharded parallel engine is *exactly* (tie-aware) the serial
    answer: identical ids and scores on every corpus shape and shard
    count — the exact gather, unlike early-stopping engines, reproduces
    naive's boundary rule byte for byte."""

    SHARD_COUNTS = [1, 2, 4, 7]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_parallel_is_exactly_serial(self, shape, shards):
        index, tids = grade_index(corpus(shape, seed=1))
        reference = naive_topn(index, tids, BM25(), 10)
        result = parallel_topn(shard_index(index, shards=shards), tids, BM25(), 10)
        assert result.doc_ids == reference.doc_ids
        assert result.scores == reference.scores

    @pytest.mark.parametrize("shape", SHAPES)
    def test_parallel_agrees_with_ta(self, shape):
        """Against the early-stopping family the usual tie-aware
        comparison applies: same score multiset, exact agreement above
        the tied boundary."""
        index, tids = grade_index(corpus(shape, seed=2))
        sources = [PostingsSource(index, tid, BM25()) for tid in tids]
        ta = threshold_topn(sources, 10, SUM)
        result = parallel_topn(shard_index(index, shards=4), tids, BM25(), 10)
        assert score_multiset(result.scores) == score_multiset(ta.scores)
        assert above_boundary(result) == above_boundary(ta)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_skewed_sharding(self, shape):
        """~90% of the objects on one shard: load skew must not change
        the answer."""
        index, tids = grade_index(corpus(shape, seed=3))
        reference = naive_topn(index, tids, BM25(), 10)
        sharded = shard_index(index, boundaries=[0, 270, 280, 290, N_OBJECTS])
        result = parallel_topn(sharded, tids, BM25(), 10)
        assert result.doc_ids == reference.doc_ids

    @pytest.mark.parametrize("shape", SHAPES)
    def test_empty_shard(self, shape):
        index, tids = grade_index(corpus(shape, seed=4))
        reference = naive_topn(index, tids, BM25(), 10)
        sharded = shard_index(index, boundaries=[0, 0, 150, N_OBJECTS])
        result = parallel_topn(sharded, tids, BM25(), 10)
        assert result.doc_ids == reference.doc_ids


class TestParallelIndexConformance:
    """Sharded parallel search over the inverted index reproduces
    serial naive_topn exactly for every shard count, including a
    deliberately skewed and an empty shard."""

    @pytest.fixture(scope="class")
    def setup(self):
        collection = SyntheticCollection.generate(trec.tiny(seed=33))
        index = InvertedIndex.build(collection)
        queries = generate_queries(collection, n_queries=6,
                                   terms_range=(3, 7), seed=9)
        return index, BM25(), queries

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_matches_naive_for_every_query(self, setup, shards):
        index, model, queries = setup
        sharded = shard_index(index, shards=shards)
        for query in queries.queries:
            tids = list(query.term_ids)
            exact = naive_topn(index, tids, model, 10)
            result = parallel_topn(sharded, tids, model, 10)
            assert result.doc_ids == exact.doc_ids
            assert result.scores == exact.scores

    @pytest.mark.parametrize("boundaries_of", [
        lambda n: [0, max(1, int(n * 0.9)), n],       # ~90% on shard 0
        lambda n: [0, 0, n // 2, n],                   # leading empty shard
    ])
    def test_degenerate_layouts(self, setup, boundaries_of):
        index, model, queries = setup
        sharded = shard_index(index, boundaries=boundaries_of(index.n_docs))
        for query in queries.queries:
            tids = list(query.term_ids)
            exact = naive_topn(index, tids, model, 10)
            result = parallel_topn(sharded, tids, model, 10)
            assert result.doc_ids == exact.doc_ids
            assert result.scores == exact.scores


class TestSafeModeQuitContinue:
    """quit/continue with the full postings budget degenerates to the
    exact naive evaluation — the 'safe configuration' of the unsafe
    technique."""

    @pytest.fixture(scope="class")
    def setup(self):
        collection = SyntheticCollection.generate(trec.tiny(seed=33))
        index = InvertedIndex.build(collection)
        queries = generate_queries(collection, n_queries=6,
                                   terms_range=(3, 7), seed=9)
        return index, BM25(), queries

    @pytest.mark.parametrize("strategy", ["quit", "continue"])
    def test_full_budget_equals_naive(self, setup, strategy):
        index, model, queries = setup
        for query in queries.queries:
            tids = list(query.term_ids)
            exact = naive_topn(index, tids, model, 10)
            safe = quit_continue_topn(index, tids, model, 10,
                                      budget_fraction=1.0, strategy=strategy)
            assert safe.same_ranking(exact)
            assert score_multiset(safe.scores) == score_multiset(exact.scores)
