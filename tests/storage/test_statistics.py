"""Tests for optimizer statistics (zone maps, equi-depth histograms)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import make_bag, make_list, parse
from repro.errors import StorageError
from repro.optimizer import CostModel
from repro.storage import BAT
from repro.storage.statistics import (
    EquiDepthHistogram,
    StatisticsRegistry,
    ZoneMap,
    analyze_column,
)


class TestZoneMap:
    def test_uniform_selectivity(self):
        zone = ZoneMap(0.0, 100.0, 1000)
        assert zone.range_selectivity(0, 50) == pytest.approx(0.5)
        assert zone.range_selectivity(25, 75) == pytest.approx(0.5)

    def test_open_bounds(self):
        zone = ZoneMap(0.0, 100.0, 10)
        assert zone.range_selectivity(None, None) == pytest.approx(1.0)
        assert zone.range_selectivity(50, None) == pytest.approx(0.5)

    def test_out_of_range(self):
        zone = ZoneMap(0.0, 100.0, 10)
        assert zone.range_selectivity(200, 300) == 0.0

    def test_constant_column(self):
        zone = ZoneMap(5.0, 5.0, 10)
        assert zone.range_selectivity(0, 10) == 1.0
        assert zone.range_selectivity(6, 10) == 0.0

    def test_empty(self):
        assert ZoneMap(0.0, 0.0, 0).range_selectivity(0, 1) == 0.0


class TestEquiDepthHistogram:
    def test_validation(self):
        with pytest.raises(StorageError):
            EquiDepthHistogram(np.array([]))
        with pytest.raises(StorageError):
            EquiDepthHistogram(np.array([1.0]), n_buckets=0)

    def test_uniform_data(self):
        values = np.linspace(0, 1, 10_000)
        histogram = EquiDepthHistogram(values, n_buckets=32)
        assert histogram.range_selectivity(0.0, 0.5) == pytest.approx(0.5, abs=0.02)
        assert histogram.estimate_rows(0.25, 0.75) == pytest.approx(5000, rel=0.05)

    def test_skewed_data_beats_zone_map(self):
        """On exponential data the histogram estimate is far closer to
        truth than the uniform zone-map estimate."""
        rng = np.random.default_rng(5)
        values = rng.exponential(1.0, 50_000)
        histogram = EquiDepthHistogram(values, n_buckets=64)
        zone = ZoneMap(float(values.min()), float(values.max()), len(values))
        truth = ((values >= 0) & (values <= 1.0)).mean()
        hist_err = abs(histogram.range_selectivity(0, 1.0) - truth)
        zone_err = abs(zone.range_selectivity(0, 1.0) - truth)
        assert hist_err < zone_err / 3

    def test_extreme_bounds(self):
        histogram = EquiDepthHistogram(np.arange(100.0), n_buckets=8)
        assert histogram.range_selectivity(None, None) == pytest.approx(1.0)
        assert histogram.range_selectivity(1000, 2000) == 0.0
        assert histogram.range_selectivity(-10, -5) == 0.0

    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=10, max_size=500),
           st.floats(0, 1000, allow_nan=False), st.floats(0, 1000, allow_nan=False))
    # heavy duplicate mass: linearly interpolated quantiles would put
    # bucket boundaries at 0.4375 and 528.8, which are not data values
    @example(values=[0.0] * 8 + [1.0] * 8 + [564.0] * 2, a=0.015625, b=563.0)
    @settings(max_examples=50, deadline=None)
    def test_calibration_property(self, values, a, b):
        """Histogram estimates are within one bucket's worth of truth."""
        lo, hi = min(a, b), max(a, b)
        arr = np.asarray(values)
        histogram = EquiDepthHistogram(arr, n_buckets=16)
        truth = ((arr >= lo) & (arr <= hi)).mean()
        estimate = histogram.range_selectivity(lo, hi)
        tolerance = 2.5 / histogram.n_buckets + 0.02
        assert abs(estimate - truth) <= tolerance


class TestAnalyze:
    def test_analyze_column(self):
        bat = BAT(np.arange(1000, dtype=np.float64))
        statistics = analyze_column(bat, n_buckets=16)
        assert statistics.zone_map.count == 1000
        assert statistics.histogram is not None
        assert statistics.range_selectivity(0, 499) == pytest.approx(0.5, abs=0.05)

    def test_analyze_without_histogram(self):
        statistics = analyze_column(BAT([1.0, 2.0]), with_histogram=False)
        assert statistics.histogram is None
        assert statistics.range_selectivity(1.0, 1.5) == pytest.approx(0.5)

    def test_analyze_strings_rejected(self):
        with pytest.raises(StorageError):
            analyze_column(BAT(["a"]))

    def test_analyze_empty(self):
        statistics = analyze_column(BAT(np.empty(0)))
        assert statistics.zone_map.count == 0

    def test_registry_analyze_env(self):
        env = {
            "xs": make_list([1.0, 2.0, 3.0]),
            "words": make_list(["a", "b"]),  # skipped: strings
        }
        registry = StatisticsRegistry().analyze_env(env)
        assert "xs" in registry
        assert "words" not in registry
        assert registry.get("nope") is None


class TestCostModelIntegration:
    def test_histogram_improves_skewed_estimate(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(1.0, 20_000)
        env = {"xs": make_bag(values.tolist())}
        statistics = StatisticsRegistry().analyze_env(env)
        expr = parse("select(xs, 0.0, 0.5)")
        truth_rows = ((values >= 0) & (values <= 0.5)).sum()

        plain = CostModel().estimate_expr(expr, env)
        informed = CostModel(statistics=statistics).estimate_expr(expr, env)
        assert abs(informed.rows - truth_rows) < abs(plain.rows - truth_rows)

    def test_statistics_do_not_change_equivalence(self):
        """The informed model still ranks the Example-1 pair correctly."""
        env = {"xs": make_list(list(range(10_000)))}
        statistics = StatisticsRegistry().analyze_env(env)
        model = CostModel(statistics=statistics)
        bad = model.estimate_expr(parse("select(projecttobag(xs), 10, 20)"), env)
        good = model.estimate_expr(parse("projecttobag(select(xs, 10, 20))"), env)
        assert good.cost < bad.cost
