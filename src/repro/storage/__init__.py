"""Binary-table storage kernel (the MonetDB stand-in Moa flattens onto).

Public surface:

* :class:`~repro.storage.bat.BAT` — binary association tables;
* :mod:`~repro.storage.kernel` — the BAT algebra (selections, joins,
  sorts, top-N, aggregates) with simulated cost accounting;
* :class:`~repro.storage.buffer.BufferManager` — page-granular LRU
  buffer simulation;
* :class:`~repro.storage.stats.CostCounter` — scoped cost counters
  (runtime cost accounting);
* :class:`~repro.storage.index.SparseIndex` — the paper's non-dense
  index;
* :class:`~repro.storage.catalog.Catalog` — named-BAT registry with
  persistence.
"""

from .bat import BAT
from .blocks import DocBlocks, ScoredBlocks
from .buffer import BufferManager, get_buffer_manager, set_buffer_manager
from .catalog import Catalog
from .index import SparseIndex
from .stats import CostCounter
from . import kernel, stats

__all__ = [
    "BAT",
    "BufferManager",
    "Catalog",
    "CostCounter",
    "DocBlocks",
    "ScoredBlocks",
    "SparseIndex",
    "get_buffer_manager",
    "set_buffer_manager",
    "kernel",
    "stats",
]
