"""Distributed top-N over document-range shards: one exact gather.

Every shard is scored on the thread that runs the query, in shard
order, and hands over its own top-``n`` (score descending, ties by
smaller id — the one cut, :func:`~repro.storage.kernel.top_positions`).
The coordinator cuts the global top-``n`` from the at most ``K·n``
pooled items with the same cut.

Shards are document-disjoint, so every member of the global top-``n``
is among its own shard's top-``n``; shards share the full index's
global statistics, so a document's score is bitwise the one serial
scoring computes.  The answer is therefore exactly serial
:func:`~repro.topn.naive.naive_topn`, tied boundaries included.

The coordinator touches every item a shard hands over once to merge
it, and charges that transfer as tuple reads on the caller's
:class:`~repro.storage.stats.CostCounter` stack.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParallelError
from ..ir.ranking import ScoringModel, score_all
from ..obs import metrics, tracer
from ..storage import stats as _stats
from ..storage.kernel import top_positions
from ..topn.result import TopNResult, top_items
from .sharder import ShardedIndex


def parallel_topn(
    sharded: ShardedIndex,
    tids: list[int],
    model: ScoringModel,
    n: int,
) -> TopNResult:
    """Sharded top-N over an inverted index, identical to serial
    :func:`~repro.topn.naive.naive_topn` on the same index."""
    if n < 1:
        raise ParallelError(f"need n >= 1, got {n}")
    if not sharded.shards:
        raise ParallelError("need at least one shard")
    skew = sharded.skew()
    metrics.set_gauge("parallel.shard_skew", skew)
    k = sharded.n_shards
    pooled_ids, pooled_scores = [], []
    candidates = 0
    with tracer.span("topn.parallel", n=n, shards=k):
        for shard in sharded.shards:
            with tracer.span("parallel.shard", shard=shard.shard_id):
                bat = score_all(shard.index, tids, model)
                docs = bat.head_array().astype(np.int64)
                scores = np.asarray(bat.tail, dtype=np.float64)
                top = top_positions(scores, docs, n)
                _stats.charge_tuples_read(len(top))
                pooled_ids.append(docs[top])
                pooled_scores.append(scores[top])
                candidates += len(docs)
                tracer.annotate(items=len(top), candidates=len(docs))
        ids = np.concatenate(pooled_ids)
        items = top_items(ids, np.concatenate(pooled_scores), n)
        tracer.annotate(items_shipped=len(ids))
    return TopNResult(
        items, n, strategy="parallel", safe=True,
        stats={
            "shards": k,
            "items_shipped": len(ids),
            "candidates": candidates,
            "shard_skew": skew,
        },
    )
