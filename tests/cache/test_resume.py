"""Resume equivalence: a resumed top-``m`` must equal a cold top-``m``
element for element (ids, scores, tie order), for every mechanism —
TA frontier, NRA/CA bound state, quit/continue accumulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BoundResumeState
from repro.errors import TopNError
from repro.mm import ArraySource
from repro.storage import CostCounter
from repro.topn import MAX, SUM, nra_topn, quit_continue_topn, threshold_topn
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


def charged(call):
    """``call()`` and its :class:`CostCounter` snapshot."""
    with CostCounter.activate() as cost:
        result = call()
    return result, cost.snapshot()


BOUND_ENGINES = [nra_topn, combined_topn]


class TestBoundResume:
    @pytest.mark.parametrize("engine", BOUND_ENGINES)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000), n1=st.integers(1, 12), n2=st.integers(1, 25),
           objects=st.integers(1, 80), ties=st.sampled_from([None, 2, 4]))
    def test_resumed_equals_cold(self, engine, seed, n1, n2, objects, ties):
        """A resume at a larger or a smaller ``n`` returns the cold run's
        items and stats, and with the capture charges every cost field
        exactly as the deeper of the two cold runs does."""
        matrix = np.random.default_rng(seed).random((objects, 2))
        if ties is not None:
            matrix = np.ceil(matrix * ties) / ties
        shallow, capture_cost = charged(
            lambda: engine(make_sources(matrix), n1, SUM, capture_state=True))
        state = shallow.stats.pop("resume_state")
        resumed, resume_cost = charged(lambda: engine(
            make_sources(matrix), n2, SUM, resume_from=state, capture_state=True))
        resumed_state = resumed.stats.pop("resume_state")
        cold, cold_cost = charged(lambda: engine(make_sources(matrix), n2, SUM))
        assert same_answer(resumed, cold)
        assert resumed.stats == cold.stats
        deeper = cold.stats["depth"] > state.depth
        assert {key: capture_cost[key] + resume_cost[key] for key in capture_cost} == \
            (cold_cost if deeper else capture_cost)
        assert resumed_state.depth == max(state.depth, cold.stats["depth"])

    @pytest.mark.parametrize("engine", BOUND_ENGINES)
    def test_resume_charges_less(self, engine):
        matrix = np.random.default_rng(3).random((400, 3))
        state = engine(make_sources(matrix), 10, SUM,
                       capture_state=True).stats["resume_state"]
        _, cold_cost = charged(lambda: engine(make_sources(matrix), 50, SUM))
        _, warm_cost = charged(lambda: engine(make_sources(matrix), 50, SUM,
                                              resume_from=state))
        assert warm_cost["sorted_accesses"] < cold_cost["sorted_accesses"]

    @pytest.mark.parametrize("engine", BOUND_ENGINES)
    def test_stored_state_never_shallower(self, engine):
        """A resume that stops above the saved depth charges nothing and
        captures the state it resumed from."""
        matrix = np.random.default_rng(5).random((300, 2))
        deep = engine(make_sources(matrix), 60, SUM, capture_state=True)
        state = deep.stats["resume_state"]
        shallow, cost = charged(lambda: engine(make_sources(matrix), 1, SUM,
                                               resume_from=state, capture_state=True))
        assert shallow.stats["depth"] < state.depth
        assert shallow.stats["resume_state"] is state
        assert cost["sorted_accesses"] == cost["random_accesses"] == 0

    def test_mismatched_state_rejected(self):
        matrix = np.random.default_rng(2).random((50, 3))
        nra = nra_topn(make_sources(matrix), 5, SUM,
                       capture_state=True).stats["resume_state"]
        ca = combined_topn(make_sources(matrix), 5, SUM,
                           capture_state=True).stats["resume_state"]
        ta = threshold_topn(make_sources(matrix), 5, SUM,
                            capture_state=True).stats["resume_state"]
        refused = [
            (nra_topn, {}, nra, (matrix[:, :2], SUM), "m_sources"),
            (nra_topn, {}, nra, (matrix, MAX), "agg_name"),
            (nra_topn, {"check_every": 8}, nra, (matrix, SUM), "check_every"),
            (combined_topn, {"h": 2}, ca, (matrix, SUM), "h"),
            (combined_topn, {}, nra, (matrix, SUM), "h"),
            (nra_topn, {}, ta, (matrix, SUM), "h"),
        ]
        for engine, params, state, (grades, agg), name in refused:
            with pytest.raises(TopNError, match=name):
                engine(make_sources(grades), 10, agg, resume_from=state, **params)

    def test_state_arrays_are_read_only(self):
        """Cache entries and served streams share one state across
        threads: its arrays refuse in-place writes."""
        matrix = np.random.default_rng(4).random((80, 2))
        state = combined_topn(make_sources(matrix), 5, SUM,
                              capture_state=True).stats["resume_state"]
        assert isinstance(state, BoundResumeState)
        for name in ("ids", "first", "rank", "grades", "completed", "completed_at"):
            with pytest.raises(ValueError):
                getattr(state, name)[:1] = 0


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
