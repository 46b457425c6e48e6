"""Differential conformance: engines over block storage vs per-access storage.

TA, NRA and CA over block storage (whole-block charging) promise
**exactness**, not tie-aware agreement: same ids, same float scores,
same canonical tie order as the scalar reference engine — block-max
pruning only skips work the scalar engine's stop rule would also never
have needed.  So unlike :mod:`tests.topn.test_conformance` (score
multisets, boundary groups), every assertion here is
``result.doc_ids == ref.doc_ids and result.scores == ref.scores``.

The matrix crosses the PR 2 corpus shapes with block sizes
``{1, 7, 64, 4096}``: block 1 degenerates to posting-at-a-time, 7 does
not divide the 300-object corpus (short last block), 64 is the
interesting middle, and 4096 exceeds the corpus (a single short
block).  Aggregates beyond SUM are crossed at one shape to pin the
float-fold association contract.
"""

import numpy as np
import pytest

from repro.ir import BM25, InvertedIndex
from repro.mm import BlockedSource
from repro.topn import (
    AVG,
    MAX,
    MIN,
    PROD,
    SUM,
    WeightedSum,
    combined_topn,
    naive_topn,
    nra_topn,
    quit_continue_topn,
    threshold_topn,
)

from .test_conformance import SHAPES, corpus, make_sources

#: 1 = degenerate, 7 does not divide 300, 4096 > the 300-object corpus
BLOCK_SIZES = [1, 7, 64, 4096]

ENGINES = {
    "ta": lambda sources, n, agg: threshold_topn(sources, n, agg),
    "nra": lambda sources, n, agg: nra_topn(sources, n, agg, check_every=4),
    "ca": lambda sources, n, agg: combined_topn(sources, n, agg, h=4, check_every=4),
}


def blocked_sources(matrix: np.ndarray, block_size: int):
    return [BlockedSource.from_array(matrix[:, j], block_size, name=f"s{j}")
            for j in range(matrix.shape[1])]


def assert_exact(candidate, reference, context):
    """The blocked contract: bit-identical ids AND scores."""
    assert candidate.doc_ids == reference.doc_ids, context
    assert candidate.scores == reference.scores, context


class TestBlockedEngineMatrix:
    """Every (engine, shape, block size, n) cell is exact."""

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("n", [1, 10, 25])
    def test_blocked_is_exactly_scalar(self, engine, shape, block_size, n):
        engine_fn = ENGINES[engine]
        for seed in (0, 1):
            matrix = corpus(shape, seed)
            reference = engine_fn(make_sources(matrix), n, SUM)
            result = engine_fn(blocked_sources(matrix, block_size), n, SUM)
            assert_exact(result, reference, (engine, shape, block_size, n, seed))

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("agg", [AVG, MIN, MAX, PROD,
                                     WeightedSum([0.5, 0.3, 0.2])],
                             ids=["avg", "min", "max", "product", "wsum"])
    @pytest.mark.parametrize("block_size", [7, 64])
    def test_aggregates_preserve_float_association(self, engine, agg, block_size):
        """The vectorized column folds must associate float operations
        exactly as the scalar left-to-right folds do."""
        engine_fn = ENGINES[engine]
        matrix = corpus("uniform", seed=2)
        reference = engine_fn(make_sources(matrix), 10, agg)
        result = engine_fn(blocked_sources(matrix, block_size), 10, agg)
        assert_exact(result, reference, (engine, agg.name, block_size))

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("n_objects", [1, 2, 5, 13])
    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    def test_tiny_corpora(self, engine, n_objects, block_size):
        """Corpora smaller than (or awkwardly sized against) the block:
        short last blocks and single-block sources stay exact."""
        engine_fn = ENGINES[engine]
        matrix = corpus("uniform", seed=3, n_objects=n_objects)
        reference = engine_fn(make_sources(matrix), 10, SUM)
        result = engine_fn(blocked_sources(matrix, block_size), 10, SUM)
        assert_exact(result, reference, (engine, n_objects, block_size))

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_n_larger_than_corpus(self, engine):
        engine_fn = ENGINES[engine]
        matrix = corpus("ties", seed=4, n_objects=20)
        reference = engine_fn(make_sources(matrix), 50, SUM)
        result = engine_fn(blocked_sources(matrix, 7), 50, SUM)
        assert_exact(result, reference, engine)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_nonpositive_n_is_empty(self, engine):
        engine_fn = ENGINES[engine]
        matrix = corpus("uniform", seed=0, n_objects=10)
        result = engine_fn(blocked_sources(matrix, 4), 0, SUM)
        assert result.items == []

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_stats_parity(self, shape, block_size):
        """Trace-level agreement: blocked engines stop at the same
        depth, see the same objects, and report the same threshold /
        bottom aggregate as their scalar oracle."""
        matrix = corpus(shape, seed=1)
        ta_ref = threshold_topn(make_sources(matrix), 10, SUM)
        ta = threshold_topn(blocked_sources(matrix, block_size), 10, SUM)
        for key in ("depth", "objects_seen", "final_threshold", "stop_reason"):
            assert ta.stats[key] == ta_ref.stats[key], (shape, block_size, key)
        # block storage changes the unit of sorted access only: TA
        # completes the objects met at or before its stop, nothing past it
        assert ta.stats["random_accesses"] == ta_ref.stats["random_accesses"], \
            (shape, block_size)

        nra_ref = nra_topn(make_sources(matrix), 10, SUM, check_every=4)
        nra = nra_topn(blocked_sources(matrix, block_size), 10, SUM,
                       check_every=4)
        for key in ("depth", "objects_seen", "stop_reason", "bottom_aggregate"):
            assert nra.stats[key] == nra_ref.stats[key], (shape, block_size, key)

        ca_ref = combined_topn(make_sources(matrix), 10, SUM, h=4, check_every=4)
        ca = combined_topn(blocked_sources(matrix, block_size), 10, SUM,
                           h=4, check_every=4)
        for key in ("depth", "objects_seen", "stop_reason", "completions",
                    "bound_checks"):
            assert ca.stats[key] == ca_ref.stats[key], (shape, block_size, key)

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("max_depth", [0, 3, 300, 310])
    def test_bounded_depth_parity(self, engine, max_depth):
        """The max_depth knob cuts off at the same rank."""
        matrix = corpus("skewed", seed=6)
        if engine == "ta":
            reference = threshold_topn(make_sources(matrix), 10, SUM,
                                       max_depth=max_depth)
            result = threshold_topn(blocked_sources(matrix, 7), 10, SUM,
                                    max_depth=max_depth)
        elif engine == "nra":
            reference = nra_topn(make_sources(matrix), 10, SUM, check_every=4,
                                 max_depth=max_depth)
            result = nra_topn(blocked_sources(matrix, 7), 10, SUM,
                              check_every=4, max_depth=max_depth)
        else:
            reference = combined_topn(make_sources(matrix), 10, SUM, h=4,
                                      check_every=4, max_depth=max_depth)
            result = combined_topn(blocked_sources(matrix, 7), 10, SUM,
                                   h=4, check_every=4,
                                   max_depth=max_depth)
        assert_exact(result, reference, (engine, max_depth))
        assert result.stats["stop_reason"] == reference.stats["stop_reason"]


class TestScalarProtocolOverBlockedStorage:
    """BlockedSource serves the ScoreSource protocol's ranks and grades
    bit for bit: the engines run over blocked storage unchanged."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_scalar_engines_agree(self, shape):
        matrix = corpus(shape, seed=1)
        for engine_fn in ENGINES.values():
            reference = engine_fn(make_sources(matrix), 10, SUM)
            over_blocks = engine_fn(blocked_sources(matrix, 64), 10, SUM)
            assert_exact(over_blocks, reference, shape)


class TestBlockedQuitContinue:
    """quit/continue's blocked continue phase (DocBlocks overlap
    pruning) returns the identical ranking at every budget."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.workloads import SyntheticCollection, generate_queries, trec

        collection = SyntheticCollection.generate(trec.tiny(seed=33))
        index = InvertedIndex.build(collection)
        queries = generate_queries(collection, n_queries=6,
                                   terms_range=(3, 7), seed=9)
        return index, BM25(), queries

    @pytest.mark.parametrize("strategy", ["quit", "continue"])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_blocked_equals_scalar(self, setup, strategy, block_size):
        index, model, queries = setup
        for query in queries.queries:
            tids = list(query.term_ids)
            for fraction in (0.25, 1.0):
                reference = quit_continue_topn(index, tids, model, 10,
                                               budget_fraction=fraction,
                                               strategy=strategy)
                result = quit_continue_topn(index, tids, model, 10,
                                            budget_fraction=fraction,
                                            strategy=strategy,
                                            block_size=block_size)
                assert_exact(result, reference, (strategy, block_size, fraction))

    def test_full_budget_continue_equals_naive(self, setup):
        index, model, queries = setup
        query = queries.queries[0]
        tids = list(query.term_ids)
        exact = naive_topn(index, tids, model, 10)
        safe = quit_continue_topn(index, tids, model, 10, budget_fraction=1.0,
                                  strategy="continue", block_size=64)
        assert safe.same_ranking(exact)

    def test_blocked_run_reports_block_stats(self, setup):
        index, model, queries = setup
        query = queries.queries[0]
        tids = list(query.term_ids)
        result = quit_continue_topn(index, tids, model, 10,
                                    budget_fraction=0.25, strategy="continue",
                                    block_size=64)
        stats = result.stats
        assert stats["block_size"] == 64
        assert stats["blocks_read"] + stats["blocks_skipped"] >= 0
        scalar = quit_continue_topn(index, tids, model, 10,
                                    budget_fraction=0.25, strategy="continue")
        assert "block_size" not in scalar.stats


class TestBlockedPostingsSources:
    """BlockedSource.from_postings over the inverted index: blocked TA
    equals scalar TA on real BM25 query terms."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.workloads import SyntheticCollection, generate_queries, trec

        collection = SyntheticCollection.generate(trec.tiny(seed=33))
        index = InvertedIndex.build(collection)
        queries = generate_queries(collection, n_queries=4,
                                   terms_range=(3, 7), seed=9)
        return index, BM25(), queries

    @pytest.mark.parametrize("block_size", [7, 64])
    def test_blocked_ta_on_index_terms(self, setup, block_size):
        from repro.mm.sources import PostingsSource

        index, model, queries = setup
        for query in queries.queries:
            tids = list(query.term_ids)
            scalar_srcs = [PostingsSource(index, tid, model) for tid in tids]
            reference = threshold_topn(scalar_srcs, 10, SUM)
            blocked_srcs = [BlockedSource.from_postings(index, tid, model,
                                                        block_size)
                            for tid in tids]
            result = threshold_topn(blocked_srcs, 10, SUM)
            assert_exact(result, reference, (tids, block_size))
