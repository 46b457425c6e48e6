"""Naive (unoptimized) top-N evaluation — the baseline of every
experiment.

Two entry points matching the two substrates:

* :func:`naive_topn` — IR queries over an inverted index: read every
  query term's complete posting list, materialize all candidate
  scores, partial-sort for the top N ("compute some ranking ... then
  sorted by descending relevance", the paper's Section 1 description
  of the usual way of operation);
* :func:`naive_topn_sources` — Fagin's setting: read *every* object's
  grade from every source and aggregate.
"""

from __future__ import annotations

import numpy as np

from ..ir.invindex import InvertedIndex
from ..ir.ranking import ScoringModel, score_all
from ..obs import tracer
from ..storage import kernel
from .aggregates import AggregateFunction, SUM
from .result import TopNResult, top_items


def naive_topn(index: InvertedIndex, tids: list[int], model: ScoringModel,
               n: int) -> TopNResult:
    """Exact top-N by full evaluation over the inverted index."""
    with tracer.span("topn.naive", n=n, terms=len(tids)):
        with tracer.span("naive.score_all"):
            scores = score_all(index, tids, model)
        top = kernel.topn_tail(scores, n, descending=True)
        tracer.annotate(candidates=len(scores))
        return TopNResult.from_bat(
            top, n, strategy="naive", safe=True,
            stats={"candidates": len(scores), "postings_read": sum(
                index.posting_length(tid) for tid in tids
            )},
        )


def naive_full_ranking(index: InvertedIndex, tids: list[int],
                       model: ScoringModel) -> TopNResult:
    """The complete candidate ranking (N = all candidates).  Used as
    the quality reference for unsafe strategies."""
    scores = score_all(index, tids, model)
    full = kernel.topn_tail(scores, len(scores), descending=True)
    return TopNResult.from_bat(
        full, len(scores), strategy="naive-full", safe=True,
        stats={"candidates": len(scores)},
    )


def conjunctive_topn(index: InvertedIndex, tids: list[int], model: ScoringModel,
                     n: int) -> TopNResult:
    """Exact top-N restricted to documents containing *all* query terms
    (Boolean AND + ranking, the classic IR hybrid).

    Processes terms rarest-first so the candidate set shrinks as early
    as possible — the same "most interesting terms first" ordering the
    paper's Step 1 builds on.
    """
    if not tids:
        return TopNResult([], n, strategy="naive-and", safe=True,
                          stats={"candidates": 0})
    ordered = sorted(tids, key=index.posting_length)
    candidates = None
    postings = {}
    postings_read = 0
    for tid in ordered:
        doc_ids, tfs = index.postings(tid)
        postings_read += len(doc_ids)
        postings[tid] = (doc_ids, tfs)
        candidates = doc_ids if candidates is None else np.intersect1d(candidates, doc_ids)
        if len(candidates) == 0:
            break
    if candidates is None or len(candidates) == 0:
        return TopNResult([], n, strategy="naive-and", safe=True,
                          stats={"candidates": 0, "postings_read": postings_read})
    scores = np.zeros(len(candidates))
    for tid in ordered:
        doc_ids, tfs = postings[tid]
        mask = np.isin(doc_ids, candidates)
        partials = model.partial_scores(index, tid, doc_ids[mask], tfs[mask])
        positions = np.searchsorted(candidates, doc_ids[mask])
        scores[positions] += partials
    from ..storage.bat import BAT

    bat = BAT(scores, head=candidates.astype("int64"), head_key=True)
    top = kernel.topn_tail(bat, n, descending=True)
    return TopNResult.from_bat(
        top, n, strategy="naive-and", safe=True,
        stats={"candidates": len(candidates), "postings_read": postings_read},
    )


def naive_topn_sources(sources: list, n: int,
                       agg: AggregateFunction = SUM) -> TopNResult:
    """Exact top-N over graded sources by exhaustive random access."""
    agg.validate_arity(len(sources))
    with tracer.span("topn.naive_sources", n=n, m=len(sources), agg=agg.name):
        n_objects = max((source.n_objects for source in sources), default=0)
        scores = np.array([agg.combine([source.random_access(obj) for source in sources])
                           for obj in range(n_objects)], dtype=np.float64)
        tracer.annotate(objects_scored=n_objects)
        return TopNResult(
            top_items(np.arange(n_objects, dtype=np.int64), scores, n), n,
            strategy="naive-sources", safe=True, stats={"objects_scored": n_objects},
        )
