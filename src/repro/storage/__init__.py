"""Binary-table storage kernel (the MonetDB stand-in Moa flattens onto).

Public surface:

* :class:`~repro.storage.bat.BAT` — binary association tables;
* :mod:`~repro.storage.kernel` — the BAT algebra (selections, joins,
  sorts, top-N, aggregates) with simulated cost accounting;
* :class:`~repro.storage.buffer.BufferManager` — page-granular LRU
  buffer simulation;
* :class:`~repro.storage.stats.CostCounter` — scoped cost counters
  (runtime cost accounting);
* :mod:`~repro.storage.statistics` — offline *column* statistics (zone
  maps, equi-depth histograms) for the cost model — not to be confused
  with ``stats``; each name lives in exactly one of the two modules;
* :class:`~repro.storage.index.SparseIndex` /
  :class:`~repro.storage.index.HashIndex` — the paper's non-dense index
  and its dense counterpart;
* :class:`~repro.storage.catalog.Catalog` — named-BAT registry with
  persistence.
"""

from .bat import BAT
from .blocks import DocBlocks, ScoredBlocks
from .buffer import BufferManager, get_buffer_manager, set_buffer_manager
from .catalog import Catalog
from .index import HashIndex, SparseIndex
from .statistics import (
    ColumnStatistics,
    EquiDepthHistogram,
    StatisticsRegistry,
    ZoneMap,
    analyze_column,
)
from .stats import CostCounter
from . import kernel, statistics, stats

__all__ = [
    "BAT",
    "BufferManager",
    "Catalog",
    "ColumnStatistics",
    "CostCounter",
    "DocBlocks",
    "ScoredBlocks",
    "EquiDepthHistogram",
    "HashIndex",
    "SparseIndex",
    "StatisticsRegistry",
    "ZoneMap",
    "analyze_column",
    "get_buffer_manager",
    "set_buffer_manager",
    "kernel",
    "statistics",
    "stats",
]
