"""Sharded parallel execution engine with bounded distributed top-N merge.

The subsystem has three layers plus integration glue:

* :mod:`~repro.parallel.sharder` — partition one inverted index into K
  document-range shards, each with its own BAT storage, local df
  statistics and per-shard score upper bounds;
* :mod:`~repro.parallel.executor` — a bounded executor pool (threads by
  default, serial for determinism) with per-query
  admission control, explicit rejection, and cooperative cancellation;
* :mod:`~repro.parallel.coordinator` — the TPUT/TA-style two-round
  threshold merge producing results that are tie-aware-identical to
  serial :func:`~repro.topn.naive.naive_topn`, with a
  ``certified`` correctness flag on the :class:`~repro.topn.result.TopNResult`.

``REPRO_PARALLEL_DEFAULT_SHARDS`` sets the default shard count for
callers that do not pass one (:func:`default_shard_count`).
"""

from __future__ import annotations

import os

from .coordinator import (
    IndexShardEvaluator,
    ShardAnswer,
    SourceRangeEvaluator,
    coordinated_topn,
    default_round1_fetch,
    parallel_topn,
    parallel_topn_sources,
)
from .executor import (
    CancelToken,
    ExecutorPool,
    TaskOutcome,
    counter_from_snapshot,
    replay_cost,
)
from .sharder import IndexShard, ShardedIndex, shard_index

#: environment variable naming the default shard count
DEFAULT_SHARDS_ENV = "REPRO_PARALLEL_DEFAULT_SHARDS"


def default_shard_count(fallback: int = 1) -> int:
    """The shard count used when a caller does not choose one:
    ``$REPRO_PARALLEL_DEFAULT_SHARDS`` when set to a positive integer,
    else ``fallback``."""
    raw = os.environ.get(DEFAULT_SHARDS_ENV, "").strip()
    if raw.isdigit() and int(raw) >= 1:
        return int(raw)
    return fallback


__all__ = [
    "CancelToken",
    "DEFAULT_SHARDS_ENV",
    "ExecutorPool",
    "IndexShard",
    "IndexShardEvaluator",
    "ShardAnswer",
    "ShardedIndex",
    "SourceRangeEvaluator",
    "TaskOutcome",
    "coordinated_topn",
    "counter_from_snapshot",
    "default_round1_fetch",
    "default_shard_count",
    "parallel_topn",
    "parallel_topn_sources",
    "replay_cost",
    "shard_index",
]
