"""Optimizer statistics over BAT columns: zone maps and histograms.

.. note:: Not to be confused with :mod:`repro.storage.stats`, which is
   *cost accounting* — runtime counters of pages, tuples and
   comparisons charged while queries execute.  This module holds the
   *column statistics* the cost model consults before execution.

The cost model (Step 3) needs selectivity estimates.  Out of the box it
uses per-column zone maps (min/max, uniform assumption); this module
adds equi-depth histograms so skewed columns estimate well too, plus a
:class:`ColumnStatistics` bundle the cost model consumes when a
statistics registry is attached.

Statistics are built offline (one scan, charged) like any DBMS's
ANALYZE, and are *approximate by design* — tests assert calibration
bounds, not exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import StorageError
from . import stats as _stats
from .bat import BAT

__all__ = [
    "ColumnStatistics",
    "EquiDepthHistogram",
    "StatisticsRegistry",
    "ZoneMap",
    "analyze_column",
]


@dataclass(frozen=True)
class ZoneMap:
    """Min/max/count of a column (the cheapest statistic)."""

    min_value: float
    max_value: float
    count: int

    def range_selectivity(self, lo, hi) -> float:
        """Uniform-assumption selectivity of ``lo <= x <= hi``."""
        if self.count == 0:
            return 0.0
        span = self.max_value - self.min_value
        if span <= 0:
            inside = (lo is None or lo <= self.min_value) and (
                hi is None or hi >= self.max_value
            )
            return 1.0 if inside else 0.0
        lo_eff = self.min_value if lo is None else max(float(lo), self.min_value)
        hi_eff = self.max_value if hi is None else min(float(hi), self.max_value)
        return max(hi_eff - lo_eff, 0.0) / span


class EquiDepthHistogram:
    """Equi-depth histogram: each bucket holds ~count/buckets values.

    Bucket boundaries are data values taken at evenly spaced ranks of
    the sorted column, and each boundary stores the exact fraction of
    the column below it and at or below it.  An estimate is therefore
    exact at every boundary; only the mass strictly between two
    neighbouring boundaries (less than one bucket) is interpolated
    linearly.  Heavy duplicate mass at one value always lands on a
    boundary, so it is counted exactly rather than smeared.
    """

    def __init__(self, values: np.ndarray, n_buckets: int = 32) -> None:
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            raise StorageError("cannot build a histogram over an empty column")
        if n_buckets < 1:
            raise StorageError(f"need at least 1 bucket, got {n_buckets}")
        self.count = len(values)
        ordered = np.sort(values)
        ranks = np.linspace(0, self.count - 1, min(n_buckets, self.count) + 1)
        self.boundaries = ordered[np.round(ranks).astype(np.intp)]
        self._below = np.searchsorted(ordered, self.boundaries, "left") / self.count
        self._at_most = np.searchsorted(ordered, self.boundaries, "right") / self.count
        _stats.charge_tuples_read(len(values))
        _stats.charge_comparisons(len(values))

    @property
    def n_buckets(self) -> int:
        return len(self.boundaries) - 1

    def _fraction(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of values ``< value`` (``<=`` when
        ``inclusive``): exact at a boundary, interpolated between two."""
        bounds = self.boundaries
        if value < bounds[0]:
            return 0.0
        if value > bounds[-1]:
            return 1.0
        j = int(np.searchsorted(bounds, value, "left"))  # first boundary >= value
        if bounds[j] == value:
            return float(self._at_most[j] if inclusive else self._below[j])
        lo, hi = bounds[j - 1], bounds[j]
        start, end = self._at_most[j - 1], self._below[j]
        return float(start + (value - lo) / (hi - lo) * (end - start))

    def range_selectivity(self, lo, hi) -> float:
        """Estimated selectivity of ``lo <= x <= hi``."""
        low_frac = 0.0 if lo is None else self._fraction(float(lo), inclusive=False)
        high_frac = 1.0 if hi is None else self._fraction(float(hi), inclusive=True)
        return max(high_frac - low_frac, 0.0)

    def estimate_rows(self, lo, hi) -> float:
        return self.range_selectivity(lo, hi) * self.count


@dataclass
class ColumnStatistics:
    """Bundle of statistics for one column."""

    zone_map: ZoneMap
    histogram: EquiDepthHistogram | None = None

    def range_selectivity(self, lo, hi) -> float:
        if self.histogram is not None:
            return self.histogram.range_selectivity(lo, hi)
        return self.zone_map.range_selectivity(lo, hi)


def analyze_column(bat: BAT, n_buckets: int = 32,
                   with_histogram: bool = True) -> ColumnStatistics:
    """Build statistics over a numeric BAT tail (one charged scan)."""
    if bat.tail_dtype_kind == "U":
        raise StorageError("analyze_column supports numeric columns only")
    from .kernel import scan_cost

    scan_cost(bat)
    if len(bat) == 0:
        return ColumnStatistics(ZoneMap(0.0, 0.0, 0))
    tail = bat.tail.astype(np.float64, copy=False)
    zone = ZoneMap(float(tail.min()), float(tail.max()), len(tail))
    histogram = EquiDepthHistogram(tail, n_buckets) if with_histogram else None
    return ColumnStatistics(zone, histogram)


class StatisticsRegistry:
    """Named column statistics, consumed by the cost model.

    Keys are environment variable names (the optimizer estimates plans
    against an environment); ``analyze_env`` builds statistics for
    every atomic-element collection in an environment.
    """

    def __init__(self) -> None:
        self._columns: dict[str, ColumnStatistics] = {}

    def put(self, name: str, statistics: ColumnStatistics) -> None:
        self._columns[name] = statistics

    def get(self, name: str) -> ColumnStatistics | None:
        return self._columns.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def analyze_env(self, env, n_buckets: int = 32) -> "StatisticsRegistry":
        """ANALYZE every numeric atomic collection in ``env``."""
        from ..algebra.values import CollectionValue

        for name, value in env.items():
            if isinstance(value, CollectionValue) and value.is_atomic_elements:
                if value.bat.tail_dtype_kind != "U" and len(value.bat):
                    self.put(name, analyze_column(value.bat, n_buckets))
        return self

