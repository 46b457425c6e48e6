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
``check_every`` — the engines run uncapped or as the resume chain the
serve layer's anytime runner makes (``max_depth`` doubling, each run
resuming the previous one's captured state), starting cold or from a
state a run at another ``n`` captured.  Every run must equal the
reference's cold run capped at the same depth float for float: items,
stats and the span's attributes; its events are the reference's, less
the completions and, at the captured ``n``, the checks the state it
resumed already holds; and its charges are the difference between the
reference's charges at its depth and at the deepest state before it
(block counts included), nothing when it stops no deeper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopNError
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

BLOCK_KEYS = ("blocks_read", "blocks_skipped")


def observe(call, traced):
    """Run ``call`` and record its result, cost and trace."""
    if traced:
        report = run_profiled(call, with_metrics=False)
        result, cost = report.result, report.totals
        (root,) = report.roots
        trace = (dict(root.attrs), [(e["name"], e["attrs"]) for e in root.events])
    else:
        with CostCounter.activate() as counter:
            result = call()
        cost, trace = counter.snapshot(), None
    return result, cost, trace


def capped_depths(reference, build, n, agg, params, first_depth):
    """The chain's depth caps: ``first_depth`` doubling until the
    reference's cold run ends for another reason (None: uncapped)."""
    caps, depth = [], first_depth
    while True:
        caps.append(depth)
        result = reference(build(), n, agg, max_depth=depth, **params)
        if depth is None or result.stats["stop_reason"] != "max_depth":
            return caps
        depth *= 2


def chain_steps(engine, build, n, agg, params, caps, state, traced):
    """Run ``engine`` once per cap, each run resuming the previous
    run's captured state; record every step."""
    sources = build()
    steps = []
    for cap in caps:
        result, cost, trace = observe(
            lambda: engine(sources, n, agg, max_depth=cap, resume_from=state,
                           capture_state=True, **params), traced)
        state = result.stats.pop("resume_state")
        steps.append(float_bits({"items": [(item.obj_id, item.score) for item in result.items],
                                 "stats": result.stats, "cost": cost, "trace": trace}))
    return steps


def expected_steps(reference, build, n, agg, params, caps, prefill, traced):
    """What each chain step must return: the reference's cold run at
    its cap, charged and traced relative to the deepest state before."""
    # the deepest state so far: its depth and n, and the reference's
    # charges and blocks read there
    saved = {"depth": 0, "n": n, "cost": {}, "blocks": 0}
    if prefill is not None:
        sources = build()
        result, cost, _ = observe(lambda: reference(sources, prefill, agg, **params), False)
        saved = {"depth": result.stats["depth"], "n": prefill, "cost": cost,
                 "blocks": result.stats.get("blocks_read", 0)}
    steps = []
    for cap in caps:
        sources = build()
        result, cost, trace = observe(
            lambda: reference(sources, n, agg, max_depth=cap, **params), traced)
        stats = dict(result.stats)
        deeper = stats["depth"] > saved["depth"]
        charged = {key: value - saved["cost"].get(key, 0) if deeper else 0
                   for key, value in cost.items()}
        if "blocks_read" in stats:
            blocks = stats["blocks_read"] - saved["blocks"] if deeper else 0
            stats["blocks_skipped"] += stats["blocks_read"] - blocks
            stats["blocks_read"] = blocks
        if trace is not None:
            attrs, events = trace
            attrs.update({key: stats[key] for key in BLOCK_KEYS if key in attrs})
            rechecks = saved["n"] != n or (cap is not None and cap < saved["depth"])
            trace = (attrs, [(name, event) for name, event in events
                             if event["depth"] > saved["depth"]
                             or (rechecks and name.endswith(".check"))])
        steps.append(float_bits({"items": [(item.obj_id, item.score) for item in result.items],
                                 "stats": stats, "cost": charged, "trace": trace}))
        if deeper:
            saved = {"depth": stats["depth"], "n": n, "cost": cost,
                     "blocks": result.stats.get("blocks_read", 0)}
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
    # None: a cold chain; k: the chain starts from a top-k run's state
    prefill = draw(st.sampled_from([None, 1, n, n + 10]))
    block_size = draw(st.integers(min_value=1, max_value=70))
    return columns, kinds, agg, engine, params, n, first_depth, prefill, block_size


def assert_matches_reference(columns, kinds, agg, engine, params, n, first_depth,
                             prefill, block_size, traced):
    slab, reference = ENGINES[engine]

    def build():
        return build_sources(columns, kinds, block_size)

    caps = capped_depths(reference, build, n, agg, params, first_depth)
    state = None
    if prefill is not None:
        state = slab(build(), prefill, agg, capture_state=True,
                     **params).stats["resume_state"]
    expected = expected_steps(reference, build, n, agg, params, caps, prefill, traced)
    assert chain_steps(slab, build, n, agg, params, caps, state, traced) == expected


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
                                 rising, engine, {"check_every": 4}, 5, None, 1, 8, True)


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
        assert float_bits(trace[1]) == float_bits(ref_trace[1])
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
