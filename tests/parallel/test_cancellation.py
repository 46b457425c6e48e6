"""Deadline-aware cancellation: CancelToken deadlines, TA/NRA/CA
cancellation between rounds (over per-access and block storage), and
the no-dangling-work guarantee."""

import time

import numpy as np
import pytest

from repro.errors import QueryCancelledError
from repro.mm.sources import ArraySource, BlockedSource
from repro.parallel.executor import CancelToken, ExecutorPool
from repro.topn import combined_topn, nra_topn, threshold_topn

ENGINES = pytest.mark.parametrize(
    "engine", (threshold_topn, nra_topn, combined_topn), ids=("ta", "nra", "ca"))
BLOCK_SIZES = pytest.mark.parametrize("block_size", (None, 16),
                                      ids=("per_access", "block16"))


def make_sources(seed=3, n_objects=2048, n_sources=3, block_size=16):
    """Block storage at ``block_size``, or per-access storage for None.
    Large enough that TA, which checks once per slab, reads more than
    its first 128-rank slab."""
    rng = np.random.default_rng(seed)
    if block_size is None:
        return [ArraySource(rng.random(n_objects), name=f"s{i}")
                for i in range(n_sources)]
    return [BlockedSource.from_array(rng.random(n_objects), block_size,
                                     name=f"s{i}") for i in range(n_sources)]


class CountdownToken:
    """Reports cancelled after ``fuse`` checks — a deterministic stand-in
    for a deadline expiring mid-run."""

    def __init__(self, fuse: int) -> None:
        self.fuse = fuse
        self.checks = 0

    def cancelled(self) -> bool:
        self.checks += 1
        return self.checks > self.fuse


class TestCancelTokenDeadline:
    def test_fresh_token_is_not_cancelled(self):
        token = CancelToken()
        assert not token.cancelled()
        assert token.remaining() is None

    def test_explicit_cancel_is_permanent(self):
        token = CancelToken()
        token.cancel()
        assert token.cancelled() and token.cancelled()

    def test_expired_deadline_cancels(self):
        token = CancelToken.with_timeout(0.0)
        assert token.cancelled()
        assert token.remaining() == 0.0

    def test_future_deadline_does_not_cancel_yet(self):
        token = CancelToken.with_timeout(60.0)
        assert not token.cancelled()
        assert 0.0 < token.remaining() <= 60.0

    def test_deadline_expiry_flips_cancelled(self):
        token = CancelToken(deadline=time.monotonic() + 0.02)
        assert not token.cancelled()
        time.sleep(0.03)
        assert token.cancelled()

    def test_remaining_never_goes_negative(self):
        token = CancelToken(deadline=time.monotonic() - 10.0)
        assert token.remaining() == 0.0


class TestBlockedEngineCancellation:
    @ENGINES
    @BLOCK_SIZES
    def test_prefired_token_cancels_the_run(self, engine, block_size):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError, match="cancelled at"):
            engine(make_sources(block_size=block_size), 10, cancel=token)

    @ENGINES
    @BLOCK_SIZES
    def test_midrun_cancellation_raises_between_rounds(self, engine, block_size):
        token = CountdownToken(fuse=1)
        with pytest.raises(QueryCancelledError, match=engine.__name__):
            engine(make_sources(block_size=block_size), 10, cancel=token)
        assert token.checks > 1  # the first check passed; a later round hit

    @ENGINES
    @BLOCK_SIZES
    def test_no_token_means_no_cancellation(self, engine, block_size):
        result = engine(make_sources(block_size=block_size), 5)
        assert len(result.items) == 5

    @ENGINES
    @BLOCK_SIZES
    def test_unfired_token_does_not_change_the_answer(self, engine, block_size):
        plain = engine(make_sources(block_size=block_size), 10)
        tokened = engine(make_sources(block_size=block_size), 10, cancel=CancelToken())
        assert tokened.items == plain.items


class TestNoDanglingWork:
    """After a cancelled run nothing is owed: no in-flight admissions."""

    def test_cancelled_blocked_engine_leaves_admission_clean(self):
        with ExecutorPool(workers=2, max_queries=1) as pool:
            token = CancelToken()
            token.cancel()
            with pytest.raises(QueryCancelledError):
                with pool.admit():
                    threshold_topn(make_sources(), 10, cancel=token)
            assert pool.in_flight == 0
            with pool.admit():  # the slot is reusable immediately
                pass
