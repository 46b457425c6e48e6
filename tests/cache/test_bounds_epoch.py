"""Epoch-stamped coordinator bounds: the shared ``ThresholdBound``
record and the ``seedable_at`` epoch gate."""

import numpy as np

from repro.cache import CoordinatorBounds, ShardBoundInfo, ThresholdBound
from repro.mm import ArraySource
from repro.parallel import SourceRangeEvaluator, coordinated_topn


def records(bounds):
    """The stored thresholds, the shared epoch-stamped records, by n."""
    return sorted(bounds.tau_by_n.values(), key=lambda record: record.n)


def evaluators_for(scores, boundaries):
    sources = [ArraySource(np.asarray(scores, dtype=np.float64))]
    return [
        SourceRangeEvaluator(i, sources, lo, hi)
        for i, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
    ]


class TestEpochStamping:
    def test_records_are_shared_threshold_bounds(self):
        bounds = CoordinatorBounds(epoch=3)
        bounds.record(10, (-0.8, 3), [], epoch=3)
        bounds.record(50, (-0.5, 9), [], epoch=3)
        stored = records(bounds)
        assert all(isinstance(r, ThresholdBound) for r in stored)
        assert [(r.n, r.epoch) for r in stored] == [(10, 3), (50, 3)]
        assert stored[0].score == 0.8  # keys are (-score, obj_id)

    def test_seedable_only_at_the_recorded_epoch(self):
        bounds = CoordinatorBounds(epoch=1)
        assert bounds.seedable_at(1) and bounds.seedable_at(2)  # empty: trivially
        bounds.record(10, (-0.8, 3), [], epoch=1)
        assert bounds.seedable_at(1)
        assert not bounds.seedable_at(2)

    def test_threshold_bound_refuses_epoch_mismatch(self):
        bounds = CoordinatorBounds(epoch=1)
        bounds.record(10, (-0.8, 3), [], epoch=1)
        assert bounds.threshold_bound(10, epoch=1) == (-0.8, 3)
        assert bounds.threshold_bound(10, epoch=2) is None
        assert bounds.threshold_bound(10) == (-0.8, 3)  # unstamped lookup

    def test_recording_at_a_new_epoch_purges_stale_facts(self):
        bounds = CoordinatorBounds(epoch=1)
        infos = [ShardBoundInfo(0, top_key=(-0.9, 1), candidates=5, exhausted=False)]
        bounds.record(10, (-0.8, 3), infos, epoch=1)
        bounds.record(5, (-0.6, 2), [], epoch=2)
        assert bounds.epoch == 2
        assert [r.n for r in records(bounds)] == [5]
        assert bounds.shards == {}  # stale shard facts went with the epoch

    def test_prunable_shards_empty_on_epoch_mismatch(self):
        bounds = CoordinatorBounds(epoch=1)
        infos = [
            ShardBoundInfo(0, top_key=(-0.9, 1), candidates=5, exhausted=False),
            ShardBoundInfo(1, top_key=(-0.3, 2), candidates=5, exhausted=False),
        ]
        bounds.record(10, (-0.5, 7), infos, epoch=1)
        assert bounds.prunable_shards(10, epoch=1) == {1}
        assert bounds.prunable_shards(10, epoch=2) == set()

    def test_snapshot_carries_epochs(self):
        import json

        bounds = CoordinatorBounds(epoch=4)
        bounds.record(5, (-0.7, 4), [], epoch=4)
        snapshot = bounds.snapshot()
        json.dumps(snapshot)
        assert snapshot["epoch"] == 4
        assert snapshot["tau_by_n"][5]["epoch"] == 4


class TestCoordinatorEpochGate:
    SCORES = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]

    def test_stale_bounds_seed_nothing_and_are_replaced(self):
        bounds = CoordinatorBounds(epoch=0)
        result = coordinated_topn(evaluators_for(self.SCORES, [0, 5, 10]),
                                  n=2, bounds=bounds, epoch=0)
        assert result.certified
        assert records(bounds)
        # the corpus mutated: the same bounds object must not seed
        result = coordinated_topn(evaluators_for(self.SCORES, [0, 5, 10]),
                                  n=2, bounds=bounds, epoch=1)
        assert result.certified
        assert result.stats["bound_pruned"] == 0
        assert result.stats["bound_served"] == 0
        # ... and the certified outcome re-stamped the cache at epoch 1
        assert bounds.epoch == 1
        assert all(r.epoch == 1 for r in records(bounds))

    def test_same_epoch_bounds_still_prune(self):
        bounds = CoordinatorBounds(epoch=7)
        first = coordinated_topn(evaluators_for(self.SCORES, [0, 5, 10]),
                                 n=2, bounds=bounds, epoch=7)
        assert first.certified
        repeat = coordinated_topn(evaluators_for(self.SCORES, [0, 5, 10]),
                                  n=2, bounds=bounds, epoch=7)
        assert repeat.certified
        assert repeat.doc_ids == first.doc_ids
        assert repeat.stats["bound_pruned"] >= 1  # shard 1 precluded

    def test_single_shard_degenerate_merge_with_bounds(self):
        """One shard holding everything: the merge is degenerate but the
        bound cache round-trips (records then serves the full ranking)."""
        bounds = CoordinatorBounds(epoch=0)
        first = coordinated_topn(evaluators_for([3, 2, 1], [0, 3]),
                                 n=3, bounds=bounds, epoch=0)
        assert first.certified
        assert first.doc_ids == [0, 1, 2]
        repeat = coordinated_topn(evaluators_for([3, 2, 1], [0, 3]),
                                  n=3, bounds=bounds, epoch=0)
        assert repeat.doc_ids == [0, 1, 2]
        assert repeat.stats["bound_served"] == 1  # served from the cache
