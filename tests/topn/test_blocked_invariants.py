"""Trace invariants of TA, NRA and CA over block storage, which charges
sorted access in whole blocks.

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
    combined_topn,
    nra_topn,
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
            result = threshold_topn(blocked_sources(matrix, block_size),
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
        result = threshold_topn(blocked_sources(matrix, 7), 10, SUM)
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
            threshold_topn(blocked_sources(matrix, block_size),
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
                result = nra_topn(blocked_sources(matrix, block_size),
                                  n, SUM, check_every=4)
            else:
                result = combined_topn(
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
            result = threshold_topn(blocked_sources(matrix, 7), 10, SUM)
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
        threshold_topn(blocked_sources(matrix, 7), 10, SUM)
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
            result = threshold_topn(blocked_sources(matrix, block_size), 10, SUM)
        assert cost.random_accesses == result.stats["random_accesses"]


class TestResumeChargesLikeCold:
    """A capture at ``n_small`` plus a resume at ``n_large``, both over
    block storage, pays exactly what one cold run at ``n_large`` pays:
    the block holding the saved depth was charged by the capture, and
    neither run completes objects past its own stop."""

    @pytest.mark.parametrize("block_size,n_small,n_large",
                             [(64, 10, 50), (64, 5, 20), (7, 5, 20), (1, 3, 30)])
    def test_capture_plus_resume_equals_cold(self, block_size, n_small, n_large):
        matrix = np.random.default_rng(3).random((3000, 3))
        with CostCounter.activate() as warm_cost:
            first = threshold_topn(blocked_sources(matrix, block_size), n_small, SUM,
                                   capture_state=True)
            warm = threshold_topn(blocked_sources(matrix, block_size), n_large, SUM,
                                  resume_from=first.stats["resume_state"])
        with CostCounter.activate() as cold_cost:
            cold = threshold_topn(blocked_sources(matrix, block_size), n_large, SUM)
        assert warm.items == cold.items
        assert warm_cost.sorted_accesses == cold_cost.sorted_accesses
        assert warm_cost.random_accesses == cold_cost.random_accesses
        assert first.stats["blocks_read"] + warm.stats["blocks_read"] \
            == cold.stats["blocks_read"]

    @pytest.mark.parametrize("block_size,n_small,n_large",
                             [(64, 10, 50), (64, 5, 20), (7, 5, 20)])
    def test_per_access_capture_rereads_the_open_block(self, block_size, n_small,
                                                       n_large):
        """A capture over per-access storage paid for the ranks it read,
        not for the rest of the block holding the saved depth: the
        resume over block storage reads that block again, so the two
        pay one cold block-storage run plus the ranks read twice."""
        matrix = np.random.default_rng(3).random((3000, 3))
        with CostCounter.activate() as warm_cost:
            first = threshold_topn(make_sources(matrix), n_small, SUM,
                                   capture_state=True)
            warm = threshold_topn(blocked_sources(matrix, block_size), n_large, SUM,
                                  resume_from=first.stats["resume_state"])
        with CostCounter.activate() as cold_cost:
            cold = threshold_topn(blocked_sources(matrix, block_size), n_large, SUM)
        saved = first.stats["depth"]
        assert first.stats["resume_state"].sorted_units == (1, 1, 1)
        assert saved % block_size and warm.stats["depth"] > saved
        assert warm.items == cold.items
        assert warm_cost.sorted_accesses \
            == cold_cost.sorted_accesses + matrix.shape[1] * (saved % block_size)
        assert warm_cost.random_accesses == cold_cost.random_accesses

    @pytest.mark.parametrize("block_size", [64, 1024])
    def test_random_accesses_equal_per_access_ta(self, block_size):
        matrix = np.random.default_rng(3).random((3000, 3))
        reference = threshold_topn(make_sources(matrix), 10, SUM)
        with CostCounter.activate() as cost:
            threshold_topn(blocked_sources(matrix, block_size), 10, SUM)
        assert cost.random_accesses == reference.stats["random_accesses"]
