"""Tests for the executor pool: admission control, cancellation,
cross-thread cost replay."""

import contextlib

import pytest

from repro.errors import (
    AdmissionRejectedError,
    ShardingError,
    TopNError,
)
from repro.obs import metrics
from repro.parallel import (
    CancelToken,
    ExecutorPool,
    counter_from_snapshot,
    replay_cost,
)
from repro.storage.stats import CostCounter, charge_tuples_read


def _charge_three():
    charge_tuples_read(3)
    return "paid"


def _boom():
    raise ValueError("shard exploded")


class TestConstruction:
    def test_bad_kind_rejected(self):
        with pytest.raises(ShardingError):
            ExecutorPool(kind="fibers")

    def test_process_kind_rejected(self):
        """Process pools could not pickle the coordinator's shard tasks,
        so no query ever ran on one; the pool refuses the kind."""
        with pytest.raises(ShardingError, match="unknown executor kind 'process'"):
            ExecutorPool(kind="process")

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"max_queries": 0},
        {"max_pending": 0},
    ])
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ShardingError):
            ExecutorPool(**kwargs)

    def test_context_manager_closes(self):
        with ExecutorPool(workers=1) as pool:
            assert pool.kind == "thread"
        assert pool._executor is None


class TestAdmissionControl:
    def test_max_plus_one_concurrent_query_rejected(self):
        """The (max+1)-th concurrent query is rejected with a typed
        TopNError subclass, not queued."""
        with ExecutorPool(kind="serial", max_queries=2) as pool:
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

    def test_bounded_task_queue_rejects(self):
        with ExecutorPool(kind="serial", max_pending=2) as pool:
            with pytest.raises(AdmissionRejectedError):
                pool.run_tasks([_charge_three] * 3)
            # bound applies per batch; smaller batches still run
            outcomes = pool.run_tasks([_charge_three] * 2)
            assert [o.status for o in outcomes] == ["done", "done"]

    def test_rejections_are_counted(self):
        metrics.enable()
        metrics.reset()
        try:
            with ExecutorPool(kind="serial", max_queries=1) as pool:
                with pool.admit():
                    with pytest.raises(AdmissionRejectedError):
                        with pool.admit():
                            pass  # pragma: no cover
            assert metrics.counter("parallel.rejected").value == 1
            assert metrics.gauge("parallel.queue_depth").value == 0.0
        finally:
            metrics.reset()
            metrics.disable()


class TestCancellation:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_cancelled_token_skips_tasks(self, kind):
        token = CancelToken()
        token.cancel()
        with ExecutorPool(kind=kind, workers=2) as pool:
            outcomes = pool.run_tasks([_charge_three, _charge_three], token=token)
        assert [o.status for o in outcomes] == ["cancelled", "cancelled"]
        assert all(o.payload is None for o in outcomes)

    def test_skip_when_prunes_individual_tasks(self):
        with ExecutorPool(kind="serial") as pool:
            outcomes = pool.run_tasks([_charge_three, _charge_three],
                                      skip_when=lambda i: i == 0)
        assert [o.status for o in outcomes] == ["skipped", "done"]
        assert outcomes[1].payload == "paid"


class TestOutcomes:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_errors_become_outcomes(self, kind):
        with ExecutorPool(kind=kind, workers=2) as pool:
            outcomes = pool.run_tasks([_boom, _charge_three])
        assert outcomes[0].status == "error"
        assert isinstance(outcomes[0].error, ValueError)
        assert outcomes[1].status == "done"

    def test_empty_task_list(self):
        with ExecutorPool(kind="serial") as pool:
            assert pool.run_tasks([]) == []


class TestCostReplay:
    def test_counter_from_snapshot_roundtrip(self):
        snapshot = {"tuples_read": 7, "page_reads": 2, "made_up_metric": 5}
        counter = counter_from_snapshot(snapshot)
        assert counter.tuples_read == 7
        assert counter.page_reads == 2
        assert counter.extra["made_up_metric"] == 5

    def test_replay_none_is_noop(self):
        with CostCounter.activate() as cost:
            replay_cost(None)
            replay_cost({})
        assert cost.tuples_read == 0

    def test_serial_pool_charges_caller_directly(self):
        with ExecutorPool(kind="serial") as pool:
            with CostCounter.activate() as cost:
                outcomes = pool.run_tasks([_charge_three])
        assert outcomes[0].already_charged
        assert cost.tuples_read == 3

    def test_thread_pool_cost_replays_to_caller(self):
        """Worker threads charge a fresh counter; replaying its snapshot
        on the caller gives the same totals as serial execution."""
        with ExecutorPool(kind="thread", workers=2) as pool:
            with CostCounter.activate() as cost:
                outcomes = pool.run_tasks([_charge_three, _charge_three])
                assert cost.tuples_read == 0  # not yet replayed
                for outcome in outcomes:
                    assert not outcome.already_charged
                    replay_cost(outcome.cost)
        assert cost.tuples_read == 6

