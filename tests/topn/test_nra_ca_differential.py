"""Slab-at-a-time NRA and CA against the one-access-at-a-time loops.

:func:`repro.topn.nra_topn` and :func:`repro.topn.combined_topn` read
sorted slabs and grade batches uncharged, evaluate the bounds with
NumPy at the loops' check and completion depths, and charge afterwards
through the sources what the references (:mod:`tests.topn.nra_reference`,
:mod:`tests.topn.ca_reference`) charge access by access.  Over random
mixes of 1-4 array, postings and blocked sources — short posting lists
that run out (the inactive final round), heavy grade ties, ``n`` past
the number of objects, every built-in aggregate plus ``WeightedSum``
and a user aggregate declared monotone, several ``h`` and
``check_every`` — run uncapped or as the doubling ``max_depth`` chain
the serve layer's anytime runner makes, directly or through
:class:`~repro.cache.resume.ReplaySource` wrappers with empty or
pre-filled logs, both must agree float for float on items, every stat,
every :class:`~repro.storage.CostCounter` field (``cache.replayed_accesses``
included), the final replay logs and the traced events.  Block storage
charges sorted access in whole blocks on both sides, and both report
the same block counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.resume import ReplayLog, ReplaySource, replayed_total
from repro.errors import TopNError
from repro.mm import BlockedSource
from repro.obs import run_profiled
from repro.storage import CostCounter
from repro.topn import (
    AVG,
    MAX,
    MIN,
    PROD,
    SUM,
    WeightedSum,
    combined_topn,
    nra_topn,
)

from .ca_reference import reference_combined_topn
from .nra_reference import reference_nra_topn
from .test_ta_differential import MAX_PLUS, ScalarOnlySource, build_sources, float_bits

ENGINES = {
    "nra": (nra_topn, reference_nra_topn),
    "ca": (combined_topn, reference_combined_topn),
}


def copy_log(log):
    copy = ReplayLog(log.token)
    copy.sorted_prefix = list(log.sorted_prefix)
    copy.random_grades = dict(log.random_grades)
    copy.exhausted_at = log.exhausted_at
    return copy


def log_state(log):
    return float_bits([log.sorted_prefix, log.random_grades, log.exhausted_at])


def observe(call, traced):
    """Run ``call`` and record its result, cost and trace."""
    if traced:
        report = run_profiled(call, with_metrics=False)
        result, cost = report.result, report.totals
        (root,) = report.roots
        trace = (root.attrs, [(e["name"], e["attrs"]) for e in root.events])
    else:
        with CostCounter.activate() as counter:
            result = call()
        cost, trace = counter.snapshot(), None
    return result, cost, float_bits(trace)


def run_chain(engine, sources, n, agg, params, first_depth, logs, traced):
    """Run ``engine`` uncapped (``first_depth`` None) or as the anytime
    runner does — ``max_depth`` doubling until a run ends for another
    reason — over plain or replay-wrapped sources; record every step
    and the final logs."""
    if logs is not None:
        sources = [ReplaySource(source, copy_log(log)) for source, log in zip(sources, logs)]
    steps = []
    depth = first_depth
    while True:
        result, cost, trace = observe(
            lambda: engine(sources, n, agg, max_depth=depth, **params), traced)
        steps.append({
            "items": float_bits([(item.obj_id, item.score) for item in result.items]),
            "stats": float_bits(result.stats),
            "cost": cost,
            "trace": trace,
        })
        if result.stats.get("stop_reason") != "max_depth" or depth is None:
            break
        depth *= 2
    if logs is not None:
        steps.append({"replayed": replayed_total(sources),
                      "per_source": [source.replayed for source in sources],
                      "logs": [log_state(source.log) for source in sources]})
    return steps


@st.composite
def instances(draw):
    n_objects = draw(st.integers(min_value=1, max_value=300))
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
    engine = draw(st.sampled_from(sorted(ENGINES)))
    params = {"check_every": draw(st.sampled_from([1, 2, 3, 8, 16]))}
    if engine == "ca":
        params["h"] = draw(st.sampled_from([1, 2, 4, 5, 8]))
    n = draw(st.integers(min_value=1, max_value=n_objects + 5))
    first_depth = draw(st.sampled_from([None, 1, 3, 8, 32]))
    # None: plain sources; 0: empty logs; k: logs a top-k run filled
    prefill = draw(st.sampled_from([None, 0, 1, n]))
    block_size = draw(st.integers(min_value=1, max_value=70))
    return columns, kinds, agg, engine, params, n, first_depth, prefill, block_size


def prefilled_logs(columns, kinds, block_size, engine, agg, params, k):
    logs = [ReplayLog(("s", i)) for i in range(len(columns))]
    if k:
        wrapped = [ReplaySource(source, log)
                   for source, log in zip(build_sources(columns, kinds, block_size), logs)]
        ENGINES[engine][1](wrapped, k, agg, **params)
    return logs


def assert_matches_reference(columns, kinds, agg, engine, params, n, first_depth,
                             prefill, block_size, traced):
    logs = None if prefill is None else prefilled_logs(
        columns, kinds, block_size, engine, agg, params, prefill)
    slab, reference = ENGINES[engine]
    expected = run_chain(reference, build_sources(columns, kinds, block_size), n, agg,
                         params, first_depth, logs, traced)
    actual = run_chain(slab, build_sources(columns, kinds, block_size), n, agg,
                       params, first_depth, logs, traced)
    assert actual == expected


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(instance=instances(), traced=st.booleans())
    def test_slab_engines_equal_reference(self, instance, traced):
        assert_matches_reference(*instance, traced)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("n_objects", [100, 1000, 3000])
    def test_deep_runs_cross_slabs(self, n_objects, engine, traced):
        """Runs that stop past several slab ends (ties at zero keep the
        bounds open) still equal the reference."""
        rng = np.random.default_rng(n_objects)
        columns = [np.where(rng.random(n_objects) < 0.3, rng.random(n_objects), 0.0)
                   for _ in range(3)]
        params = {"check_every": 16} if engine == "nra" else {"h": 4, "check_every": 8}
        assert_matches_reference(columns, ["array", "postings", "blocked_array"], MIN,
                                 engine, params, 50, None, None, 64, traced)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_misdeclared_aggregate_follows_the_reference(self, engine):
        """An aggregate declared monotone that is not still gets the
        reference's checks, completions and answer."""
        from repro.topn import UserAggregate
        rising = UserAggregate("one_minus_first", lambda grades: 1.0 - grades[0],
                               monotone=True)
        rng = np.random.default_rng(3)
        assert_matches_reference([rng.random(300), rng.random(300)], ["array", "array"],
                                 rising, engine, {"check_every": 4}, 5, None, 0, 8, True)


class TestBlockedSharesTheCore:
    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_blocked_engines_equal_reference(self, instance):
        """Same items, stats, random accesses and events as the
        reference; sorted access is charged in whole blocks."""
        columns, _, agg, engine, params, n, first_depth, _, block_size = instance
        kinds = ["blocked_array"] * len(columns)
        reference = ENGINES[engine][1]
        expected, ref_cost, ref_trace = observe(
            lambda: reference(build_sources(columns, kinds, block_size), n, agg,
                              max_depth=first_depth, **params), True)
        sources = build_sources(columns, kinds, block_size)
        actual, cost, trace = observe(
            lambda: ENGINES[engine][0](sources, n, agg, max_depth=first_depth,
                                       **params), True)
        assert actual.items == expected.items
        shared = [key for key in actual.stats
                  if key not in ("block_size", "blocks_read", "blocks_skipped")]
        assert [actual.stats[key] for key in shared] == [expected.stats[key] for key in shared]
        assert trace[1] == ref_trace[1]
        assert cost["random_accesses"] == ref_cost["random_accesses"]
        ranks = [min(actual.stats["depth"], source.blocks.n_postings) for source in sources]
        assert cost["sorted_accesses"] == sum(
            min(-(-r // block_size) * block_size, source.blocks.n_postings)
            for r, source in zip(ranks, sources))


class TestBulkReadsRequired:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_source_without_bulk_reads_is_refused(self, engine):
        with pytest.raises(TopNError, match="sorted_slab"):
            ENGINES[engine][0]([ScalarOnlySource()], 1)

    def test_replay_wrapper_has_bulk_reads(self):
        source = ReplaySource(BlockedSource.from_array(np.array([0.5, 0.25]), 1),
                              ReplayLog("s"))
        assert nra_topn([source], 1).items == nra_topn(
            [BlockedSource.from_array(np.array([0.5, 0.25]), 1)], 1).items
