"""Aggregate metadata: monotonicity declarations and the threshold-engine
gate — the runtime twins of the static MOA901 check."""

import pytest

from repro.errors import TopNError
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

