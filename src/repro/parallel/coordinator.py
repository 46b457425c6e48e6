"""Distributed top-N coordinator: a bounded two-round threshold merge.

The naive way to parallelize top-N over K document-range shards is a
*full gather*: every shard ships its complete local top-N and the
coordinator merges K·N items.  Following the TPUT/TA family (Fagin's
threshold administration applied across nodes instead of across
sources), this coordinator does better:

**Round 1** fetches only each shard's local top-``R`` with
``R = min(n, ceil(n/K))`` — if load were perfectly balanced, the global
top-N would draw ~``n/K`` items per shard.  The merged round-1 pool
yields a *uniform threshold* ``τ``: the sort key of the n-th best item
seen so far.

**Round 2** probes a shard for its deeper items only when they could
still matter.  Shards are doc-disjoint and every fetched list is
locally sorted, so every unfetched item of shard *s* ranks strictly
below ``L_s``, the last item shard *s* shipped.  If ``key(L_s) ≥ τ``
the shard is *pruned* — none of its unfetched items can displace the
current top-N — otherwise it is probed for its full local top-N.
Probes run one after another, and each is re-checked against the live
threshold just before it runs: it is skipped when earlier probes have
already pushed ``τ`` past it.

Every shard is evaluated on the thread that runs the query, in shard
order, so the merge pool needs no lock and a shard's cost lands on the
caller's :class:`~repro.storage.stats.CostCounter` stack directly.

Sort keys are the pairs ``(-score, obj_id)`` (ascending = better).
Keys are unique, so the tie-aware boundary rule — smallest ids win on a
tied boundary — is enforced by construction and the merged result is
byte-identical to serial :func:`~repro.topn.naive.naive_topn`.

The returned :class:`TopNResult` carries ``certified=True``: every
shard was exhausted, pruned by the threshold bound, or fully probed —
i.e. the coordinator *proved* the answer equals the serial one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParallelError, QueryCancelledError
from ..ir.ranking import ScoringModel, score_all
from ..obs import metrics, tracer
from ..storage import stats as _stats
from ..topn.aggregates import SUM, AggregateFunction
from ..topn.result import RankedItem, TopNResult
from .executor import CancelToken
from .sharder import ShardedIndex


def _key(item: RankedItem) -> tuple[float, int]:
    """Total-order sort key, ascending = better.  Unique per object."""
    return (-item.score, item.obj_id)


# -- shard evaluators -------------------------------------------------------


@dataclass
class ShardAnswer:
    """One shard's reply to a fetch: its best ``depth`` items."""

    shard_id: int
    #: local items, best first (key-ascending)
    items: list[RankedItem]
    #: True when ``items`` is the shard's *complete* candidate ranking
    exhausted: bool
    #: the shard's total candidate count
    candidates: int


class IndexShardEvaluator:
    """Evaluates one query against one index shard.

    The full local ranking is computed once and cached, so a round-2
    probe reuses round 1's work.
    """

    def __init__(self, shard, tids: list[int], model: ScoringModel) -> None:
        self.shard_id = shard.shard_id
        self.shard = shard
        self.tids = list(tids)
        self.model = model
        self._ranked: list[RankedItem] | None = None

    def _ranking(self) -> list[RankedItem]:
        if self._ranked is None:
            bat = score_all(self.shard.index, self.tids, self.model)
            docs = bat.head_array().astype(np.int64)
            scores = np.asarray(bat.tail, dtype=np.float64)
            order = np.lexsort((docs, -scores))
            self._ranked = [RankedItem(int(docs[i]), float(scores[i]))
                            for i in order]
        return self._ranked

    def top(self, depth: int) -> ShardAnswer:
        ranked = self._ranking()
        return ShardAnswer(self.shard_id, ranked[:depth],
                           exhausted=depth >= len(ranked),
                           candidates=len(ranked))


class SourceRangeEvaluator:
    """Evaluates one object-range shard of Fagin-style graded sources
    by exhaustive random access (the ``naive_topn_sources`` discipline,
    restricted to ``[obj_lo, obj_hi)``)."""

    def __init__(self, shard_id: int, sources: list, obj_lo: int, obj_hi: int,
                 agg: AggregateFunction = SUM) -> None:
        agg.validate_arity(len(sources))
        self.shard_id = shard_id
        self.sources = sources
        self.obj_lo = obj_lo
        self.obj_hi = obj_hi
        self.agg = agg
        self._ranked: list[RankedItem] | None = None

    def _ranking(self) -> list[RankedItem]:
        if self._ranked is None:
            scored = []
            for obj in range(self.obj_lo, self.obj_hi):
                grades = [source.random_access(obj) for source in self.sources]
                scored.append(RankedItem(obj, self.agg.combine(grades)))
            scored.sort(key=_key)
            self._ranked = scored
        return self._ranked

    def top(self, depth: int) -> ShardAnswer:
        ranked = self._ranking()
        return ShardAnswer(self.shard_id, ranked[:depth],
                           exhausted=depth >= len(ranked),
                           candidates=len(ranked))


# -- merge pool --------------------------------------------------------------


@dataclass
class _MergeState:
    """The coordinator's candidate pool, local to one query."""

    n: int
    _items: dict[int, RankedItem] = field(default_factory=dict)

    def offer(self, items: list[RankedItem]) -> None:
        """Merge items in.  Shards are object-disjoint but a probe
        re-ships its shard's round-1 items, so merging dedupes by
        object id."""
        for item in items:
            self._items[item.obj_id] = item

    def tau(self) -> tuple[float, int] | None:
        """The uniform threshold: key of the n-th best pooled item, or
        ``None`` while fewer than n candidates are pooled."""
        if len(self._items) < self.n:
            return None
        return heapq.nsmallest(self.n, map(_key, self._items.values()))[-1]

    def prunable(self, last_key: tuple[float, int] | None) -> bool:
        """Whether a shard whose deepest shipped item has ``last_key``
        can be pruned under the current threshold."""
        if last_key is None:
            return False
        threshold = self.tau()
        return threshold is not None and last_key >= threshold

    def top(self) -> list[RankedItem]:
        """The final top-n, best first."""
        return sorted(self._items.values(), key=_key)[: self.n]


# -- the coordinator --------------------------------------------------------


def default_round1_fetch(n: int, k: int) -> int:
    """Round-1 fetch depth: the balanced-load share ``ceil(n/k)``,
    never more than ``n``."""
    return min(n, max(1, math.ceil(n / k)))


#: complete shard rankings larger than this are not retained in the
#: bound cache (memory guard; the threshold/top-key facts are kept)
_MAX_CACHED_RANKING = 1024


def coordinated_topn(
    evaluators: list,
    n: int,
    token: CancelToken | None = None,
    strategy: str = "parallel",
    bounds=None,
    epoch: int = 0,
) -> TopNResult:
    """Run the two-round bounded merge over shard evaluators.

    Each evaluator answers ``top(depth) -> ShardAnswer``.  See the
    module docstring for the protocol.  ``token`` is checked before
    each shard evaluation; a cancelled token raises
    :class:`~repro.errors.QueryCancelledError`.

    ``bounds`` is an optional
    :class:`~repro.cache.bounds.CoordinatorBounds` recorded by a
    previous certified run of the *same fingerprint* (same corpus
    epoch, shard layout, terms).  Shards whose cached best key is
    provably below a cached final threshold are excluded from round 1
    outright (``bound_pruned``); shards with a cached complete local
    ranking are served from the cache without running their
    evaluator (``bound_served``).  Certified outcomes are recorded back
    so consecutive runs keep tightening the bounds.

    ``epoch`` is the corpus epoch this run executes at.  Cached bounds
    stamped with a *different* epoch seed nothing
    (:meth:`CoordinatorBounds.seedable_at`), and recording this run's
    outcome purges the stale facts.
    """
    if n < 1:
        raise ParallelError(f"need n >= 1, got {n}")
    if not evaluators:
        raise ParallelError("need at least one shard evaluator")
    token = token or CancelToken()
    k = len(evaluators)
    fetch = default_round1_fetch(n, k)
    state = _MergeState(n)
    last_key: list[tuple[float, int] | None] = [None] * k
    first_key: list[tuple[float, int] | None] = [None] * k
    exhausted = [False] * k
    shard_candidates = [0] * k
    full_ranking: list[list[RankedItem] | None] = [None] * k
    precluded = [False] * k
    served = [False] * k
    shipped = 0
    candidates = 0

    # a cached final threshold from an n at least this deep bounds this
    # run's final τ from above (in key order), so exceeding it proves a
    # shard's unfetched tail irrelevant before the live pool can; an
    # epoch-mismatched cache seeds nothing
    seedable = bounds is not None and bounds.seedable_at(epoch)
    cached_bound = bounds.threshold_bound(n, epoch=epoch) if seedable else None

    def _tail_prunable(i: int) -> bool:
        if state.prunable(last_key[i]):
            return True
        return (cached_bound is not None and last_key[i] is not None
                and last_key[i] >= cached_bound)

    if seedable:
        prunable_ids = bounds.prunable_shards(n, epoch=epoch)
        for i, evaluator in enumerate(evaluators):
            ranking = bounds.complete_ranking(evaluator.shard_id)
            if ranking is not None:
                # cached complete local ranking: the shard never runs
                items = [RankedItem(obj, score) for obj, score in ranking]
                state.offer(items)
                served[i] = True
                exhausted[i] = True
                shard_candidates[i] = len(items)
                candidates += len(items)
                if items:
                    first_key[i] = _key(items[0])
                    last_key[i] = _key(items[-1])
            elif evaluator.shard_id in prunable_ids:
                # cached top key below a cached final threshold: the
                # shard provably contributes nothing to this top-n
                precluded[i] = True

    def _evaluate(i: int, depth: int, round_no: int) -> None:
        """Evaluate shard ``i`` to ``depth`` inside its span and merge
        its answer into the pool."""
        nonlocal shipped, candidates
        shard_id = evaluators[i].shard_id
        if token.cancelled():
            raise QueryCancelledError(
                f"query cancelled before shard {shard_id} in round {round_no}")
        with tracer.span("parallel.shard", shard=shard_id, round=round_no):
            answer: ShardAnswer = evaluators[i].top(depth)
            state.offer(answer.items)
            # the coordinator touches every shipped item once to
            # merge it — model that transfer as tuple reads
            _stats.charge_tuples_read(len(answer.items))
            shipped += len(answer.items)
            if round_no == 1:
                candidates += answer.candidates
            if answer.items:
                last_key[i] = _key(answer.items[-1])
                if first_key[i] is None:
                    first_key[i] = _key(answer.items[0])
            if answer.exhausted:
                exhausted[i] = True
                full_ranking[i] = answer.items
            shard_candidates[i] = answer.candidates
            tracer.annotate(items=len(answer.items),
                            exhausted=answer.exhausted)

    try:
        with tracer.span(f"topn.{strategy}", n=n, shards=k, fetch=fetch):
            # -- round 1: bounded fetch from every non-excluded shard -----
            run1 = [i for i in range(k) if not served[i] and not precluded[i]]
            with tracer.span("parallel.round", round=1, fetch=fetch,
                             bound_served=k - len(run1)):
                for i in run1:
                    _evaluate(i, fetch, round_no=1)

            # -- threshold: which shards could still matter? --------------
            need = [i for i in range(k)
                    if not exhausted[i] and not precluded[i]
                    and not _tail_prunable(i)]
            rounds = 1
            live_skipped = 0
            probed = 0
            if need:
                rounds = 2
                with tracer.span("parallel.round", round=2, probes=len(need)):
                    for i in need:
                        # re-checked against the *live* threshold: earlier
                        # probes may have pushed tau past this shard
                        if _tail_prunable(i):
                            live_skipped += 1
                            continue
                        _evaluate(i, n, round_no=2)
                        probed += 1

            items = state.top()
            bound_served = sum(served)
            bound_pruned = sum(precluded)
            if bounds is not None:
                _record_bounds(bounds, n, items, evaluators, served, precluded,
                               first_key, exhausted, shard_candidates,
                               full_ranking, epoch=epoch)
            metrics.counter("parallel.rounds").inc(rounds)
            metrics.counter("parallel.probes").inc(probed)
            metrics.counter("parallel.probes_saved").inc(k - probed)
            if bound_served:
                metrics.counter("cache.bound_served").inc(bound_served)
            if bound_pruned:
                metrics.counter("cache.bound_pruned").inc(bound_pruned)
            tracer.annotate(rounds=rounds, probes=probed,
                            probes_saved=k - probed, certified=True,
                            bound_served=bound_served, bound_pruned=bound_pruned)
            return TopNResult(
                items, n, strategy=strategy, safe=True,
                stats={
                    "shards": k,
                    "rounds": rounds,
                    "round1_fetch": fetch,
                    "probes": probed,
                    "probes_saved": k - probed,
                    "live_skipped": live_skipped,
                    "full_gather_probes": k,
                    "items_shipped": shipped,
                    "candidates": candidates,
                    "bound_served": bound_served,
                    "bound_pruned": bound_pruned,
                },
                certified=True,
            )
    finally:
        token.cancel()  # resolved (or failed): later checks of the token stop


def _record_bounds(bounds, n, items, evaluators, served, precluded, first_key,
                   exhausted, shard_candidates, full_ranking,
                   epoch: int = 0) -> None:
    """Feed a certified run's observations back into the bound cache."""
    from ..cache.bounds import ShardBoundInfo

    tau_key = _key(items[n - 1]) if len(items) == n else None
    infos = []
    for i, evaluator in enumerate(evaluators):
        if served[i] or precluded[i]:
            continue  # served: already recorded; precluded: never ran
        ranking = None
        if exhausted[i] and full_ranking[i] is not None \
                and len(full_ranking[i]) <= _MAX_CACHED_RANKING:
            ranking = tuple((item.obj_id, item.score)
                            for item in full_ranking[i])
        infos.append(ShardBoundInfo(
            shard_id=evaluator.shard_id,
            top_key=first_key[i],
            candidates=shard_candidates[i],
            exhausted=exhausted[i],
            ranking=ranking,
        ))
    bounds.record(n, tau_key, infos, epoch=epoch)


# -- public entry points ----------------------------------------------------


def parallel_topn(
    sharded: ShardedIndex,
    tids: list[int],
    model: ScoringModel,
    n: int,
    token: CancelToken | None = None,
    bounds=None,
    epoch: int = 0,
) -> TopNResult:
    """Sharded top-N over an inverted index.

    Tie-aware-identical to serial :func:`~repro.topn.naive.naive_topn`
    on the same index: shards share the full index's global statistics,
    so per-document scores are bitwise equal, and the coordinator's
    unique sort keys reproduce the serial boundary rule.
    """
    metrics.set_gauge("parallel.shard_skew", sharded.skew())
    evaluators = [IndexShardEvaluator(shard, tids, model)
                  for shard in sharded.shards]
    result = coordinated_topn(evaluators, n, token=token, strategy="parallel",
                              bounds=bounds, epoch=epoch)
    result.stats["shard_skew"] = sharded.skew()
    return result


def parallel_topn_sources(
    sources: list,
    n: int,
    shards: int = 2,
    boundaries: list[int] | None = None,
    agg: AggregateFunction = SUM,
    token: CancelToken | None = None,
    bounds=None,
    epoch: int = 0,
) -> TopNResult:
    """Sharded top-N over Fagin-style graded sources: the
    object id space is split into contiguous ranges, one exhaustive
    range evaluator per shard."""
    n_objects = max((source.n_objects for source in sources), default=0)
    if boundaries is None:
        if shards < 1:
            raise ParallelError(f"need a positive shard count, got {shards}")
        boundaries = [round(i * n_objects / shards) for i in range(shards + 1)]
    if boundaries[0] != 0 or boundaries[-1] != n_objects:
        raise ParallelError(
            f"boundaries must run from 0 to n_objects={n_objects}, got {boundaries}")
    evaluators = [
        SourceRangeEvaluator(i, sources, lo, hi, agg=agg)
        for i, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
    ]
    return coordinated_topn(evaluators, n, token=token,
                            strategy="parallel-sources", bounds=bounds,
                            epoch=epoch)
