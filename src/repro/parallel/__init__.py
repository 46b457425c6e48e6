"""Sharded execution engine with a bounded distributed top-N merge.

The subsystem has three modules:

* :mod:`~repro.parallel.sharder` — partition one inverted index into K
  document-range shards, each with its own BAT storage, local df
  statistics and per-shard score upper bounds;
* :mod:`~repro.parallel.coordinator` — the TPUT/TA-style two-round
  threshold merge producing results that are tie-aware-identical to
  serial :func:`~repro.topn.naive.naive_topn`, with a
  ``certified`` correctness flag on the :class:`~repro.topn.result.TopNResult`.
  It evaluates every shard on the thread that runs the query;
* :mod:`~repro.parallel.executor` — the cooperative
  :class:`CancelToken` and the query server's admission-bounded
  worker pool.
"""

from __future__ import annotations

from .coordinator import (
    IndexShardEvaluator,
    ShardAnswer,
    SourceRangeEvaluator,
    coordinated_topn,
    default_round1_fetch,
    parallel_topn,
    parallel_topn_sources,
)
from .executor import CancelToken, ExecutorPool
from .sharder import IndexShard, ShardedIndex, shard_index


__all__ = [
    "CancelToken",
    "ExecutorPool",
    "IndexShard",
    "IndexShardEvaluator",
    "ShardAnswer",
    "ShardedIndex",
    "SourceRangeEvaluator",
    "coordinated_topn",
    "default_round1_fetch",
    "parallel_topn",
    "parallel_topn_sources",
    "shard_index",
]
