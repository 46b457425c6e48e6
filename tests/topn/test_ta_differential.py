"""Slab-at-a-time TA against the one-access-at-a-time reference loop.

:func:`repro.topn.threshold_topn` reads sorted slabs and grade batches
uncharged and charges afterwards what the reference
(:mod:`tests.topn.ta_reference`) charges access by access.  Over random
mixes of 1-4 array, postings and blocked sources — short posting lists
that run out (TA's inactive final round), heavy grade ties, ``n`` past
the number of objects, every built-in aggregate plus a user aggregate
declared monotone, and ``max_depth`` runs chained through
``resume_from`` — both must agree on items, every stat, the captured
:class:`~repro.cache.resume.TAResumeState`, every
:class:`~repro.storage.CostCounter` field and the traced ``ta.round``
events, float for float.  A run's answer cut at an earlier depth
(:func:`~repro.topn.ta.answer_at`) must equal the capped, resumed run
it stands for, items and stats alike.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import TopNError
from repro.mm import ArraySource, BlockedSource, PostingsSource
from repro.obs import run_profiled
from repro.storage import CostCounter
from repro.topn import AVG, MAX, MIN, PROD, SUM, UserAggregate, WeightedSum, threshold_topn
from repro.topn.ta import answer_at

from .ta_reference import reference_threshold_topn

MAX_PLUS = UserAggregate("max_plus", lambda grades: max(grades) + 0.5 * sum(grades),
                         monotone=True)


class _OneTerm:
    """A one-term inverted index whose ranking model returns the given
    grades as partial scores (both roles PostingsSource reads)."""

    def __init__(self, grades: np.ndarray) -> None:
        self.n_docs = len(grades)
        self.doc_ids = np.flatnonzero(grades > 0)
        self.grades = grades[self.doc_ids]

    def postings(self, tid):
        return self.doc_ids, np.ones(len(self.doc_ids), dtype=np.int64)

    def partial_scores(self, index, tid, doc_ids, tfs):
        return self.grades


def build_sources(columns, kinds, block_size):
    sources = []
    for grades, kind in zip(columns, kinds):
        if kind == "array":
            sources.append(ArraySource(grades))
        elif kind == "postings":
            term = _OneTerm(grades)
            sources.append(PostingsSource(term, 0, term))
        elif kind == "blocked_array":
            sources.append(BlockedSource.from_array(grades, block_size))
        else:
            term = _OneTerm(grades)
            sources.append(BlockedSource.from_postings(term, 0, term, block_size))
    return sources


def float_bits(value):
    """Floats as hex strings (so -0.0 and 0.0 differ), recursively;
    arrays as their dtype and elements, in order."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, float_bits(value.tolist()))
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(float_bits(k), float_bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [float_bits(v) for v in value]
    return value


def run_chain(engine, sources, agg, chain, traced):
    """Run ``chain`` — ``(n, max_depth)`` steps, each resuming the last
    step's frontier — and record everything a step produces."""
    steps = []
    state = None
    for n, max_depth in chain:
        def call(n=n, max_depth=max_depth, state=state):
            return engine(sources, n, agg, resume_from=state,
                          capture_state=True, max_depth=max_depth)
        if traced:
            report = run_profiled(call, with_metrics=False)
            result, cost = report.result, report.totals
            (root,) = report.roots
            trace = (root.attrs, [(e["name"], e["attrs"]) for e in root.events])
        else:
            with CostCounter.activate() as counter:
                result = call()
            cost, trace = counter.snapshot(), None
        state = result.stats.pop("resume_state")
        steps.append({
            "items": float_bits([(item.obj_id, item.score) for item in result.items]),
            "stats": float_bits(result.stats),
            "state": float_bits(vars(state)),
            "cost": cost,
            "trace": float_bits(trace),
        })
    return steps


@st.composite
def instances(draw):
    n_objects = draw(st.integers(min_value=1, max_value=600))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns = []
    for _ in range(m):
        grades = rng.random(n_objects)
        ties = draw(st.sampled_from([None, 2, 3, 5]))
        if ties is not None:
            grades = np.ceil(grades * ties) / ties
        # sparse columns make short posting lists
        density = draw(st.sampled_from([1.0, 0.5, 0.1, 0.02]))
        grades[rng.random(n_objects) >= density] = 0.0
        columns.append(grades)
    kinds = draw(st.lists(st.sampled_from(
        ["array", "postings", "blocked_array", "blocked_postings"]),
        min_size=m, max_size=m))
    agg = draw(st.sampled_from(["sum", "avg", "min", "max", "prod", "wsum", "user"]))
    agg = {"sum": SUM, "avg": AVG, "min": MIN, "max": MAX, "prod": PROD,
           "user": MAX_PLUS}.get(agg) or WeightedSum(
        draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=m, max_size=m)))
    steps = draw(st.integers(min_value=1, max_value=3))
    ns = sorted(draw(st.lists(st.integers(min_value=1, max_value=n_objects + 5),
                              min_size=steps, max_size=steps)))
    depths = sorted(draw(st.lists(st.integers(min_value=0, max_value=700),
                                  min_size=steps, max_size=steps)))
    if draw(st.booleans()):
        depths[-1] = None
    chain = list(zip(ns, depths))
    block_size = draw(st.integers(min_value=1, max_value=70))
    return columns, kinds, agg, chain, block_size


def assert_matches_reference(columns, kinds, agg, chain, block_size, traced):
    expected = run_chain(reference_threshold_topn,
                         build_sources(columns, kinds, block_size), agg, chain, traced)
    actual = run_chain(threshold_topn,
                       build_sources(columns, kinds, block_size), agg, chain, traced)
    assert actual == expected


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(instance=instances(), traced=st.booleans())
    def test_slab_ta_equals_reference(self, instance, traced):
        assert_matches_reference(*instance, traced)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("n_objects", [100, 1000, 5000])
    def test_deep_runs_cross_slabs(self, n_objects, traced):
        """Runs that stop past several slab ends (ties at zero keep TA
        reading) still equal the reference."""
        rng = np.random.default_rng(n_objects)
        columns = [np.where(rng.random(n_objects) < 0.3, rng.random(n_objects), 0.0)
                   for _ in range(3)]
        assert_matches_reference(columns, ["array", "postings", "blocked_array"], MIN,
                                 [(50, None)], 64, traced)

    @pytest.mark.parametrize("traced", [False, True])
    def test_misdeclared_aggregate_follows_the_reference(self, traced):
        """An aggregate declared monotone that is not makes τ rise with
        depth; TA then checks the stop rule depth by depth and still
        stops where the reference does."""
        rising = UserAggregate("one_minus_first", lambda grades: 1.0 - grades[0],
                               monotone=True)
        rng = np.random.default_rng(3)
        assert_matches_reference([rng.random(300), rng.random(300)], ["array", "array"],
                                 rising, [(5, None)], 8, traced)


class TestAnswerAt:
    @settings(max_examples=100, deadline=None)
    @given(instance=instances(),
           cuts=st.lists(st.integers(min_value=0, max_value=700),
                         min_size=2, max_size=2, unique=True))
    def test_cut_equals_a_capped_resumed_run(self, instance, cuts):
        """The cut at ``depth`` from one uncapped run is what a run
        resumed from the frontier at ``since`` and capped at ``depth``
        returns: items and every stat, float for float."""
        columns, kinds, agg, chain, block_size = instance
        n = chain[-1][0]
        since, depth = sorted(cuts)
        run = threshold_topn(build_sources(columns, kinds, block_size), n, agg,
                             capture_state=True)
        sources = build_sources(columns, kinds, block_size)
        state = None
        if since:
            head = threshold_topn(sources, n, agg, capture_state=True, max_depth=since)
            assume(head.stats["stop_reason"] == "max_depth")
            state = head.stats["resume_state"]
        capped = threshold_topn(sources, n, agg, resume_from=state, max_depth=depth)
        items, stats = answer_at(run, depth, since)
        assert (float_bits(items)
                == float_bits([(item.obj_id, item.score) for item in capped.items]))
        assert float_bits(stats) == float_bits(capped.stats)

class ScalarOnlySource:
    """A graded list with the one-at-a-time protocol only: no bulk
    reads, no bulk charges."""

    name = "scalar"
    n_objects = 2

    def sorted_access(self, rank):
        return rank, 1.0 - rank / 2

    def random_access(self, obj_id):
        return 1.0 - obj_id / 2

    def exhausted(self, rank):
        return rank >= 2


class TestBulkReadsRequired:
    def test_source_without_bulk_reads_is_refused(self):
        with pytest.raises(TopNError, match="sorted_slab"):
            threshold_topn([ScalarOnlySource()], 1)
