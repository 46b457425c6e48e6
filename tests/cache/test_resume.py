"""Resume equivalence: a resumed top-``m`` must equal a cold top-``m``
element for element (ids, scores, tie order), for every mechanism —
TA frontier, NRA/CA access replay, quit/continue accumulator — plus
the replay-log and coordinator-bound primitives they build on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CoordinatorBounds,
    ReplayLog,
    ShardBoundInfo,
    replayed_total,
    wrap_sources,
)
from repro.errors import TopNError
from repro.mm import ArraySource
from repro.storage import CostCounter
from repro.topn import SUM, nra_topn, quit_continue_topn, threshold_topn
from repro.topn.ca import combined_topn
from repro.workloads import SyntheticCollection, generate_queries, trec


def make_sources(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return [ArraySource(matrix[:, j], name=f"s{j}") for j in range(matrix.shape[1])]


def same_answer(a, b):
    return a.doc_ids == b.doc_ids and a.scores == b.scores


def state_arrays(state):
    """A TA frontier's arrays with their dtypes, element by element."""
    return [(name, getattr(state, name).dtype.str, getattr(state, name).tolist())
            for name in ("ids", "scores", "first_seen", "tau")]


class TestTAFrontier:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000), n1=st.integers(1, 8), extra=st.integers(0, 20),
           objects=st.integers(1, 60))
    def test_resumed_equals_cold(self, seed, n1, extra, objects):
        matrix = np.random.default_rng(seed).random((objects, 3))
        n2 = n1 + extra
        shallow = threshold_topn(make_sources(matrix), n1, SUM, capture_state=True)
        state = shallow.stats["resume_state"]
        resumed = threshold_topn(make_sources(matrix), n2, SUM, resume_from=state,
                                 capture_state=True)
        cold = threshold_topn(make_sources(matrix), n2, SUM, capture_state=True)
        assert same_answer(resumed, cold)
        # the continued frontier is the cold run's, array for array
        resumed_state = resumed.stats["resume_state"]
        cold_state = cold.stats["resume_state"]
        assert state_arrays(resumed_state) == state_arrays(cold_state)
        assert resumed_state.depth_next == cold_state.depth_next
        assert resumed_state.exhausted == cold_state.exhausted

    def test_frontier_arrays_are_read_only(self):
        """Cache entries share a frontier across threads: its arrays
        refuse in-place writes."""
        matrix = np.random.default_rng(4).random((80, 2))
        state = threshold_topn(make_sources(matrix), 5, SUM,
                               capture_state=True).stats["resume_state"]
        for name in ("ids", "scores", "first_seen", "tau"):
            with pytest.raises(ValueError):
                getattr(state, name)[:1] = 0

    def test_resume_charges_less(self):
        matrix = np.random.default_rng(1).random((500, 3))
        shallow = threshold_topn(make_sources(matrix), 5, SUM, capture_state=True)
        state = shallow.stats["resume_state"]
        with CostCounter.activate() as cold_cost:
            threshold_topn(make_sources(matrix), 50, SUM)
        with CostCounter.activate() as warm_cost:
            threshold_topn(make_sources(matrix), 50, SUM, resume_from=state)
        assert (warm_cost.sorted_accesses + warm_cost.random_accesses) < \
            (cold_cost.sorted_accesses + cold_cost.random_accesses)

    def test_mismatched_state_rejected(self):
        matrix = np.random.default_rng(2).random((50, 3))
        state = threshold_topn(make_sources(matrix), 5, SUM,
                               capture_state=True).stats["resume_state"]
        with pytest.raises(TopNError):  # arity mismatch
            threshold_topn(make_sources(matrix[:, :2]), 10, SUM, resume_from=state)
        with pytest.raises(TopNError):  # resume target below the frontier
            threshold_topn(make_sources(matrix), 2, SUM, resume_from=state)


class TestAccessReplay:
    @pytest.mark.parametrize("engine", [nra_topn, combined_topn])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), n1=st.integers(1, 6), extra=st.integers(0, 15),
           objects=st.integers(1, 50))
    def test_replayed_equals_cold(self, engine, seed, n1, extra, objects):
        """Replay re-executes the cold algorithm verbatim on memoized
        sources: the deep answer must be identical to cold-deep."""
        matrix = np.random.default_rng(seed).random((objects, 2))
        n2 = n1 + extra
        logs = tuple(ReplayLog() for _ in range(2))
        engine(wrap_sources(make_sources(matrix), logs), n1, SUM)
        wrapped = wrap_sources(make_sources(matrix), logs)
        deep = engine(wrapped, n2, SUM)
        cold = engine(make_sources(matrix), n2, SUM)
        assert same_answer(deep, cold)

    def test_replay_saves_accesses(self):
        matrix = np.random.default_rng(3).random((400, 3))
        logs = tuple(ReplayLog() for _ in range(3))
        nra_topn(wrap_sources(make_sources(matrix), logs), 10, SUM)
        with CostCounter.activate() as cold_cost:
            nra_topn(make_sources(matrix), 50, SUM)
        wrapped = wrap_sources(make_sources(matrix), logs)
        with CostCounter.activate() as warm_cost:
            nra_topn(wrapped, 50, SUM)
        assert replayed_total(wrapped) > 0
        assert warm_cost.sorted_accesses < cold_cost.sorted_accesses

    def test_log_mismatch_rejected(self):
        with pytest.raises(TopNError):
            wrap_sources(make_sources(np.zeros((5, 2))), (ReplayLog(),))

    def test_log_primitives(self):
        log = ReplayLog(token=("term", 1, "bm25"))
        assert log.sorted_at(0) is None
        log.record_sorted(0, 42, 0.9)
        log.record_sorted(0, 99, 0.1)  # duplicate rank: first write wins
        assert log.sorted_at(0) == (42, 0.9)
        assert log.depth() == 1
        log.record_random(7, 0.5)
        assert log.random_at(7) == 0.5
        assert not log.known_exhausted(3)
        log.record_exhausted(3)
        assert log.known_exhausted(3) and log.known_exhausted(10)
        assert log.known_live(0) and not log.known_live(5)


class TestQuitContinue:
    @pytest.fixture(scope="class")
    def workload(self):
        collection = SyntheticCollection.generate(trec.ft_like(scale=0.02, seed=11))
        from repro.core import MMDatabase

        db = MMDatabase.from_collection(collection)
        batch = generate_queries(collection, n_queries=4, terms_range=(2, 5), seed=12)
        return db, [list(q.term_ids) for q in batch]

    def test_accumulator_resume_equals_cold(self, workload):
        db, tid_lists = workload
        for tids in tid_lists:
            shallow = quit_continue_topn(db.index, tids, db.model, 5,
                                         strategy="continue", capture_state=True)
            state = shallow.stats["resume_state"]
            resumed = quit_continue_topn(db.index, tids, db.model, 50,
                                         strategy="continue", resume_from=state)
            cold = quit_continue_topn(db.index, tids, db.model, 50,
                                      strategy="continue")
            assert same_answer(resumed, cold)

    def test_resume_is_cheaper(self, workload):
        db, tid_lists = workload
        states = []
        for tids in tid_lists:
            shallow = quit_continue_topn(db.index, tids, db.model, 5,
                                         strategy="continue", capture_state=True)
            states.append(shallow.stats["resume_state"])
        with CostCounter.activate() as cold_cost:
            for tids in tid_lists:
                quit_continue_topn(db.index, tids, db.model, 50, strategy="continue")
        with CostCounter.activate() as warm_cost:
            for tids, state in zip(tid_lists, states):
                quit_continue_topn(db.index, tids, db.model, 50,
                                   strategy="continue", resume_from=state)
        assert warm_cost.tuples_read < cold_cost.tuples_read


class TestCoordinatorBounds:
    def test_threshold_bound_covers_only_deeper_caches(self):
        bounds = CoordinatorBounds()
        bounds.record(10, (-0.8, 3), [])
        bounds.record(50, (-0.5, 9), [])
        # n=10 can use both (n_c >= 10): the tightest is the smaller key
        assert bounds.threshold_bound(10) == (-0.8, 3)
        assert bounds.threshold_bound(50) == (-0.5, 9)
        # deeper than anything cached: no sound bound
        assert bounds.threshold_bound(51) is None

    def test_prunable_shards(self):
        bounds = CoordinatorBounds()
        infos = [
            ShardBoundInfo(0, top_key=(-0.9, 1), candidates=5, exhausted=False),
            ShardBoundInfo(1, top_key=(-0.3, 2), candidates=5, exhausted=False),
            ShardBoundInfo(2, top_key=None, candidates=0, exhausted=True),
        ]
        bounds.record(10, (-0.5, 7), infos)
        prunable = bounds.prunable_shards(10)
        # shard 1's best key (-0.3) is worse than the bound; shard 2 is empty
        assert prunable == {1, 2}
        # deeper than the cache: only the known-empty shard is safe to skip
        assert bounds.prunable_shards(99) == {2}

    def test_exhausted_observation_never_downgraded(self):
        bounds = CoordinatorBounds()
        ranking = ((1, 0.9), (2, 0.5))
        bounds.record(5, None, [ShardBoundInfo(0, (-0.9, 1), 2, True, ranking)])
        bounds.record(5, None, [ShardBoundInfo(0, (-0.9, 1), 2, False)])
        assert bounds.complete_ranking(0) == ranking

    def test_snapshot_is_jsonable(self):
        import json

        bounds = CoordinatorBounds()
        bounds.record(5, (-0.7, 4),
                      [ShardBoundInfo(0, (-0.9, 1), 3, True, ((1, 0.9),))])
        snapshot = bounds.snapshot()
        json.dumps(snapshot)
        assert snapshot["shards"][0]["has_ranking"]
