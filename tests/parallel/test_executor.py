"""Tests for the executor pool: construction, admission control, and
shard evaluation on the caller's thread or the pool's worker thread."""

import contextlib

import pytest

from repro.errors import AdmissionRejectedError, ShardingError, TopNError
from repro.ir import BM25, InvertedIndex
from repro.obs import metrics
from repro.parallel import ExecutorPool, coordinator, parallel_topn, shard_index
from repro.topn import naive_topn
from repro.workloads import SyntheticCollection, generate_queries, trec


@pytest.fixture(scope="module")
def sharded_query():
    collection = SyntheticCollection.generate(trec.tiny(seed=21))
    query = generate_queries(collection, n_queries=1, terms_range=(2, 6),
                             seed=3).queries[0]
    return shard_index(InvertedIndex.build(collection), shards=3), list(query.term_ids)


def run_query(pool, kind, fn, *args, **kwargs):
    """Run one sharded query on the caller's thread (``serial``) or
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


class TestOutcomes:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_errors_become_outcomes(self, kind, sharded_query, monkeypatch):
        """A shard's error reaches the caller as itself, and the pool
        stays usable for the next query."""
        sharded, tids = sharded_query
        model = BM25()

        def exploding(shard, tids, model):
            raise ValueError("shard exploded")

        with ExecutorPool(workers=2) as pool:
            with monkeypatch.context() as patch:
                patch.setattr(coordinator, "score_all", exploding)
                with pytest.raises(ValueError, match="shard exploded"):
                    run_query(pool, kind, parallel_topn, sharded, tids, model, 10)
            assert pool.in_flight == 0
            result = run_query(pool, kind, parallel_topn, sharded, tids, model, 10)
        assert result.doc_ids == naive_topn(sharded.full, tids, model, 10).doc_ids
