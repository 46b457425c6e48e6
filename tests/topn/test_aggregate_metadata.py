"""Aggregate metadata: monotonicity declarations, the threshold-engine
gate, and the interval transfer (``combine_interval``) containment
property — the runtime twins of the static MOA901 check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopNError
from repro.intervals import ScoreInterval
from repro.mm import ArraySource
from repro.topn import SUM, combined_topn, fagin_topn, nra_topn, threshold_topn
from repro.topn.aggregates import (
    AVG,
    BUILTIN_AGGREGATES,
    MAX,
    MIN,
    PROD,
    UserAggregate,
    WeightedSum,
    require_monotone,
)

SPREAD = UserAggregate("spread", lambda gs: max(gs) - min(gs))


class TestDeclaredMetadata:
    def test_every_builtin_is_monotone(self):
        assert set(BUILTIN_AGGREGATES) == {"sum", "avg", "min", "max", "prob"}
        for agg in BUILTIN_AGGREGATES.values():
            assert agg.monotone, agg.name

    def test_strictness_declarations(self):
        assert SUM.strict and AVG.strict
        assert not MIN.strict and not MAX.strict and not PROD.strict

    def test_weighted_sum_zero_weight_drops_strictness_only(self):
        agg = WeightedSum([1.0, 0.0])
        assert agg.monotone and not agg.strict
        assert WeightedSum([1.0, 2.0]).strict

    def test_weighted_sum_rejects_negative_weights(self):
        with pytest.raises(TopNError):
            WeightedSum([1.0, -0.5])

    def test_user_aggregate_defaults_to_non_monotone(self):
        assert not SPREAD.monotone
        assert UserAggregate("ok", sum, monotone=True).monotone


class TestThresholdEngineGate:
    def test_require_monotone_refuses_undeclared(self):
        with pytest.raises(TopNError, match="not declared monotone"):
            require_monotone(SPREAD, "TA")
        require_monotone(SUM, "TA")  # monotone passes

    @pytest.mark.parametrize("engine", [threshold_topn, nra_topn,
                                        combined_topn, fagin_topn])
    def test_every_threshold_engine_rejects_non_monotone(self, engine):
        sources = [ArraySource([0.9, 0.5, 0.2]), ArraySource([0.1, 0.6, 0.9])]
        with pytest.raises(TopNError, match="not declared monotone"):
            engine(sources, 2, SPREAD)


# -- interval transfer containment -------------------------------------------

unit_grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(grades=st.lists(unit_grades, min_size=1, max_size=4),
       widths=st.lists(st.floats(min_value=0.0, max_value=0.5,
                                 allow_nan=False), min_size=4, max_size=4))
def test_combine_interval_contains_true_aggregate(grades, widths):
    """The conservativeness property: for any per-source intervals
    containing the true grades, the transferred interval contains the
    true aggregate."""
    intervals = [ScoreInterval(max(0.0, g - w), g + w)
                 for g, w in zip(grades, widths)]
    aggregates = [SUM, AVG, MIN, MAX, PROD, WeightedSum([2.0] + [0.5] * (len(grades) - 1))]
    for agg in aggregates:
        true = agg.combine(grades)
        derived = agg.combine_interval(intervals)
        # a few ulps of slack: combine and the transfer may associate
        # float operations differently on degenerate point intervals
        eps = 1e-9
        assert derived.lo - eps <= true <= derived.hi + eps, (
            agg.name, grades, derived.describe())


class TestUserAggregateTransfer:
    def test_no_transfer_declared_refuses(self):
        with pytest.raises(TopNError, match="no interval transfer"):
            SPREAD.combine_interval([ScoreInterval(0, 1)])

    def test_declared_transfer_is_used(self):
        doubled = UserAggregate(
            "double", lambda gs: 2.0 * sum(gs), monotone=True,
            transfer=lambda ivs: ScoreInterval(
                sum(i.lo for i in ivs) * 2.0, sum(i.hi for i in ivs) * 2.0))
        derived = doubled.combine_interval([ScoreInterval(0, 1), ScoreInterval(1, 2)])
        assert derived == ScoreInterval(2, 6)
        assert derived.contains(doubled.combine([0.5, 1.5]))

    def test_product_transfer_rejects_negative_domain(self):
        with pytest.raises(TopNError, match="non-negative"):
            PROD.combine_interval([ScoreInterval(-2, -1)])
