"""Sharded execution: document-range shards merged by one exact gather.

The subsystem has three modules:

* :mod:`~repro.parallel.sharder` — partition one inverted index into K
  document-range shards, each with its own BAT storage;
* :mod:`~repro.parallel.coordinator` — :func:`parallel_topn`: every
  shard, evaluated on the thread that runs the query, hands over its
  canonical top-N, and the coordinator cuts the global top-N from the
  pool — exactly serial :func:`~repro.topn.naive.naive_topn`;
* :mod:`~repro.parallel.executor` — the cooperative
  :class:`CancelToken` and the query server's admission-bounded
  worker pool.
"""

from __future__ import annotations

from .coordinator import parallel_topn
from .executor import CancelToken, ExecutorPool
from .sharder import IndexShard, ShardedIndex, shard_index


__all__ = [
    "CancelToken",
    "ExecutorPool",
    "IndexShard",
    "ShardedIndex",
    "parallel_topn",
    "shard_index",
]
