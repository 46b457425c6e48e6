"""Trace invariants of the blocked engines.

Block-at-a-time must never read *more* than block-rounding dictates:

* blocked TA's charged sorted accesses are bounded by the scalar TA's
  stop depth rounded up to whole blocks, per source;
* ``blocks_skipped`` is monotone non-increasing in ``n`` (a larger
  answer can only need more blocks, never fewer);
* the ``topn.blocks_read`` / ``topn.blocks_skipped`` metrics appear in
  the registry when metrics are enabled and stay silent otherwise.
"""

import math

import numpy as np
import pytest

from repro.mm import BlockedSource
from repro.obs import metrics
from repro.storage import CostCounter
from repro.topn import (
    SUM,
    blocked_combined_topn,
    blocked_nra_topn,
    blocked_threshold_topn,
    threshold_topn,
)

from .test_conformance import SHAPES, corpus, make_sources


def blocked_sources(matrix: np.ndarray, block_size: int):
    return [BlockedSource.from_array(matrix[:, j], block_size, name=f"s{j}")
            for j in range(matrix.shape[1])]


class TestSortedAccessBound:
    """Blocked TA reads at most the scalar stop depth rounded up to
    whole blocks — per source, in block units."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("block_size", [1, 7, 64, 4096])
    def test_blocked_ta_within_block_rounding(self, shape, block_size):
        matrix = corpus(shape, seed=1)
        with CostCounter.activate() as scalar_cost:
            reference = threshold_topn(make_sources(matrix), 10, SUM)
        scalar_depth = reference.stats["depth"]

        with CostCounter.activate() as blocked_cost:
            result = blocked_threshold_topn(blocked_sources(matrix, block_size),
                                            10, SUM)
        assert result.doc_ids == reference.doc_ids

        rounded = math.ceil(scalar_depth / block_size) * block_size
        bound = sum(min(rounded, matrix.shape[0]) for _ in range(matrix.shape[1]))
        assert blocked_cost.sorted_accesses <= bound, (shape, block_size)
        # block 1 *is* posting-at-a-time: the charge matches exactly
        if block_size == 1:
            assert blocked_cost.sorted_accesses == scalar_cost.sorted_accesses

    @pytest.mark.parametrize("shape", SHAPES)
    def test_skipping_actually_happens(self, shape):
        """At a small block size on 300 objects the early stop must
        leave whole blocks unread."""
        matrix = corpus(shape, seed=1)
        result = blocked_threshold_topn(blocked_sources(matrix, 7), 10, SUM)
        total_blocks = sum(s.n_blocks for s in blocked_sources(matrix, 7))
        assert result.stats["blocks_read"] + result.stats["blocks_skipped"] \
            == total_blocks
        if result.stats["stop_reason"] == "threshold" \
                and result.stats["depth"] < matrix.shape[0] // 2:
            assert result.stats["blocks_skipped"] > 0


class TestBlocksSkippedMonotone:
    """TA's stop rule is monotone in n (the n-th best score only falls
    as n grows, so the stop comes later): ``blocks_skipped`` is
    non-increasing in n.  NRA/CA stop depths are *not* monotone in n —
    a larger n shrinks the "rest" set the n-th lower bound must
    dominate — so there the invariant is instead that block consumption
    is exactly the oracle's stop depth rounded up to whole blocks."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("block_size", [7, 64])
    def test_ta_monotone_in_n(self, shape, block_size):
        matrix = corpus(shape, seed=1)
        skipped = [
            blocked_threshold_topn(blocked_sources(matrix, block_size),
                                   n, SUM).stats["blocks_skipped"]
            for n in (1, 5, 10, 25, 50)
        ]
        assert skipped == sorted(skipped, reverse=True), (shape, skipped)

    @pytest.mark.parametrize("engine", ["nra", "ca"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("block_size", [7, 64])
    def test_bound_engines_read_exactly_rounded_depth(self, engine, shape,
                                                      block_size):
        matrix = corpus(shape, seed=1)
        n_objects = matrix.shape[0]
        for n in (1, 5, 10, 25, 50):
            if engine == "nra":
                result = blocked_nra_topn(blocked_sources(matrix, block_size),
                                          n, SUM, check_every=4)
            else:
                result = blocked_combined_topn(
                    blocked_sources(matrix, block_size), n, SUM, h=4,
                    check_every=4)
            ingested = min(result.stats["depth"], n_objects)
            expected = matrix.shape[1] * math.ceil(ingested / block_size)
            assert result.stats["blocks_read"] == expected, \
                (engine, shape, block_size, n)


class TestBlockMetrics:
    def test_metrics_emitted_when_enabled(self):
        matrix = corpus("uniform", seed=1)
        metrics.enable()
        try:
            metrics.reset()
            result = blocked_threshold_topn(blocked_sources(matrix, 7), 10, SUM)
            counters = metrics.snapshot()["counters"]
            assert counters.get("topn.blocks_read") == result.stats["blocks_read"]
            assert counters.get("topn.blocks_skipped") \
                == result.stats["blocks_skipped"]
        finally:
            metrics.reset()
            metrics.disable()

    def test_silent_when_disabled(self):
        matrix = corpus("uniform", seed=1)
        assert not metrics.enabled()
        blocked_threshold_topn(blocked_sources(matrix, 7), 10, SUM)
        counters = metrics.snapshot()["counters"]
        assert "topn.blocks_read" not in counters


class TestRandomAccessCharge:
    """The sorted access that meets an object already delivered one of
    its grades: blocked TA charges ``m - 1`` random accesses per object,
    the count its stats report."""

    @pytest.mark.parametrize("block_size", [1, 64])
    @pytest.mark.parametrize("m", [1, 3])
    def test_counter_equals_stat(self, block_size, m):
        matrix = np.random.default_rng(5).random((2000, m))
        with CostCounter.activate() as cost:
            result = blocked_threshold_topn(blocked_sources(matrix, block_size), 10, SUM)
        assert cost.random_accesses == result.stats["random_accesses"]
