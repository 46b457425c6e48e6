"""Tests for the executor pool: construction, admission control, and
shard evaluation on the caller's thread or the pool's worker thread."""

import contextlib

import numpy as np
import pytest

from repro.errors import (
    AdmissionRejectedError,
    QueryCancelledError,
    ShardingError,
    TopNError,
)
from repro.mm import ArraySource
from repro.obs import metrics
from repro.parallel import (
    CancelToken,
    ExecutorPool,
    SourceRangeEvaluator,
    coordinated_topn,
)


class RecordingEvaluator:
    """Wraps a shard evaluator and records the depth of every fetch."""

    def __init__(self, inner):
        self.inner = inner
        self.shard_id = inner.shard_id
        self.depths = []

    def top(self, depth):
        self.depths.append(depth)
        return self.inner.top(depth)


class Exploding:
    shard_id = 0

    def top(self, depth):
        raise ValueError("shard exploded")


def recording_evaluators(scores, boundaries):
    sources = [ArraySource(np.asarray(scores, dtype=np.float64))]
    return [
        RecordingEvaluator(SourceRangeEvaluator(i, sources, lo, hi))
        for i, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
    ]


def run_query(pool, kind, fn, *args, **kwargs):
    """Run one coordinated query on the caller's thread (``serial``) or
    on one of the pool's worker threads (``thread``), as the server
    does with admitted engine steps."""
    with pool.admit():
        if kind == "serial":
            return fn(*args, **kwargs)
        return pool.executor.submit(fn, *args, **kwargs).result()


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"max_queries": 0},
        {"max_queries": -1},
    ])
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ShardingError):
            ExecutorPool(**kwargs)

    def test_context_manager_closes(self):
        with ExecutorPool(workers=1) as pool:
            assert pool.executor is not None
        assert pool.executor is None


class TestAdmissionControl:
    def test_max_plus_one_concurrent_query_rejected(self):
        """The (max+1)-th concurrent query is rejected with a typed
        TopNError subclass, not queued."""
        with ExecutorPool(workers=1, max_queries=2) as pool:
            with contextlib.ExitStack() as stack:
                stack.enter_context(pool.admit())
                stack.enter_context(pool.admit())
                assert pool.in_flight == 2
                with pytest.raises(AdmissionRejectedError) as info:
                    stack.enter_context(pool.admit())
                assert isinstance(info.value, TopNError)
                assert "max_queries=2" in str(info.value)
            # admissions released: the pool accepts queries again
            with pool.admit():
                assert pool.in_flight == 1
        assert pool.in_flight == 0

    def test_rejections_are_counted(self):
        metrics.enable()
        metrics.reset()
        try:
            with ExecutorPool(workers=1, max_queries=1) as pool:
                with pool.admit():
                    with pytest.raises(AdmissionRejectedError):
                        with pool.admit():
                            pass  # pragma: no cover
                assert pool.in_flight == 0
            assert metrics.counter("parallel.rejected").value == 1
        finally:
            metrics.reset()
            metrics.disable()


class TestCancellation:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_cancelled_token_skips_tasks(self, kind):
        evaluators = recording_evaluators([3, 2, 1, 0], [0, 2, 4])
        token = CancelToken()
        token.cancel()
        with ExecutorPool(workers=2) as pool:
            with pytest.raises(QueryCancelledError):
                run_query(pool, kind, coordinated_topn, evaluators, n=2,
                          token=token)
            assert pool.in_flight == 0
        assert all(evaluator.depths == [] for evaluator in evaluators)

    def test_skip_when_prunes_individual_tasks(self):
        """Round 2 re-checks each queued probe against the live
        threshold: the first probe lifts it past shard 1, whose probe
        is skipped while shard 0's runs."""
        scores = [10.0, 9.9, 9.8,    # shard 0: the whole top-3
                  9.5, 0.1, 0.1,     # shard 1: good best, empty tail
                  9.4, 0.1, 0.1,     # shard 2
                  1.0, 0.1, 0.1]     # shard 3
        evaluators = recording_evaluators(scores, [0, 3, 6, 9, 12])
        with ExecutorPool(workers=1) as pool:
            result = run_query(pool, "serial", coordinated_topn,
                               evaluators, n=3)
        assert result.doc_ids == [0, 1, 2]
        assert result.stats["live_skipped"] == 1
        assert [evaluator.depths for evaluator in evaluators] == [
            [1, 3], [1], [1], [1]]


class TestOutcomes:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_errors_become_outcomes(self, kind):
        """A shard's error reaches the caller as itself, and the pool
        stays usable for the next query."""
        with ExecutorPool(workers=2) as pool:
            with pytest.raises(ValueError, match="shard exploded"):
                run_query(pool, kind, coordinated_topn, [Exploding()], n=2)
            assert pool.in_flight == 0
            evaluators = recording_evaluators([3, 2, 1, 0], [0, 2, 4])
            result = run_query(pool, kind, coordinated_topn, evaluators, n=2)
        assert result.doc_ids == [0, 1]
        assert result.certified is True
