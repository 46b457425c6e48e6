"""Top-N operator library: the safe and unsafe techniques the paper
surveys and proposes to integrate.

Safe (exact top-N):

* :func:`~repro.topn.naive.naive_topn` — full evaluation baseline;
* :func:`~repro.topn.fagin.fagin_topn` — Fagin's Algorithm (FA);
* :func:`~repro.topn.ta.threshold_topn` — Threshold Algorithm (TA);
* :func:`~repro.topn.nra.nra_topn` — No-Random-Access (NRA) and
  :func:`~repro.topn.ca.combined_topn` — the Combined Algorithm (CA),
  on one vectorised bound core (:mod:`~repro.topn.bounds`);
  over block storage (:class:`~repro.mm.sources.BlockedSource`) any of
  the three charges sorted access in whole storage blocks;
* :mod:`~repro.topn.stopafter` — Carey–Kossmann STOP AFTER policies;
* :mod:`~repro.topn.probabilistic` — Donjerkovic–Ramakrishnan
  histogram-cutoff top-N (exact via restarts).

Unsafe (quality traded for speed):

* :func:`~repro.topn.quit_continue.quit_continue_topn` —
  Brown/INQUERY-style quit & continue term pruning.
"""

from .aggregates import (
    AVG,
    BUILTIN_AGGREGATES,
    AggregateFunction,
    MAX,
    MIN,
    PROD,
    Product,
    SUM,
    UserAggregate,
    WeightedSum,
    require_monotone,
)
from .ca import combined_topn
from .fagin import fagin_topn
from .heap import BoundedTopN
from .naive import naive_full_ranking, naive_topn, naive_topn_sources
from .nra import nra_topn
from .probabilistic import ScoreHistogram, probabilistic_topn, probabilistic_topn_indexed
from .quit_continue import quit_continue_topn
from .result import RankedItem, TopNResult
from .stopafter import classic_topn, scan_stop, sort_stop, stop_after_filter
from .ta import threshold_topn

__all__ = [
    "AVG",
    "AggregateFunction",
    "BUILTIN_AGGREGATES",
    "BoundedTopN",
    "MAX",
    "MIN",
    "PROD",
    "Product",
    "RankedItem",
    "SUM",
    "ScoreHistogram",
    "TopNResult",
    "UserAggregate",
    "WeightedSum",
    "require_monotone",
    "classic_topn",
    "combined_topn",
    "fagin_topn",
    "naive_full_ranking",
    "naive_topn",
    "naive_topn_sources",
    "nra_topn",
    "probabilistic_topn",
    "probabilistic_topn_indexed",
    "quit_continue_topn",
    "scan_stop",
    "sort_stop",
    "stop_after_filter",
    "threshold_topn",
]
