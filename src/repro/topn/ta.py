"""The Threshold Algorithm (TA).

[Fag99 / Fagin-Lotem-Naor]: interleave sorted access on all lists; for
every newly seen object, immediately complete its grade by random
access to the other lists; maintain the best N seen so far and the
*threshold* τ = t(last grades seen under sorted access on each list).
No unseen object can aggregate above τ (monotonicity), so TA stops as
soon as the current N-th best score reaches τ.  TA is
instance-optimal: it stops no later than FA and usually far earlier —
this is the "upper and lower bound administration" the paper cites.

Slab-at-a-time execution
------------------------
Cost is counted per access in Fagin's middleware model, whatever
batching the engine does internally, so TA runs a *slab* of depths at
a time.  It reads sorted ranks ``[lo, hi)`` of every source in bulk
(uncharged, :meth:`~repro.mm.sources.ScoreSource.sorted_slab`),
completes every newly seen object with one vectorised grade probe per
source (:meth:`~repro.mm.sources.ScoreSource.grades_of`, the same
left fold as ``agg.combine``), and evaluates the stop rule for every
depth of the slab at once (:func:`first_stop`).  Only then does it
charge, through each source's ``charge_sorted`` and ``charge_random``,
what the one-access-at-a-time loop charges: one sorted access per
depth up to the stop and per source not yet exhausted there, and
``m - 1`` random accesses per object first seen at or before the stop.
Answers, stats, resume frontiers, cost counters and the per-depth
``ta.round`` trace events equal that loop's exactly.  Slabs end at
128, 256, 512, ... ranks, the same points at which
:class:`~repro.mm.sources.ArraySource` doubles its sorted prefix.

Incremental ("continue") evaluation
-----------------------------------
Because TA completes every object the moment it is first seen, its
whole state is exact: the seen objects in first-seen order with their
scores and first-seen depths, and τ at every processed depth (whose
count is the next sorted-access depth).  ``capture_state=True`` stores
that frontier, as read-only arrays, in the result's
``stats["resume_state"]``; passing it back via ``resume_from`` with an
``n`` no smaller continues the run instead of restarting it, reading
on from the saved depth.  The resumed run first re-evaluates the stop
rule *at the saved depth* — a cold run at the larger ``n`` checks there
too, and because a larger heap's N-th-best never exceeds a smaller
one's, the cold run can never have stopped earlier than the saved
frontier.  From that point the depth loop proceeds exactly as cold, so
the resumed answer is identical to a cold run at the new ``n``
(including tie order) while paying no repeated sorted or random
accesses for the saved prefix.  The arrays also answer TA at any
depth already read: the objects first seen below a depth ``d`` and
τ at ``d - 1`` are the run's state there, so :func:`answer_at` cuts
what a run capped at ``d`` returns from a run that read further —
which is how the serve layer streams anytime chunks from one run.

Block storage
-------------
The storage sets the unit of a sorted-access charge.  Over block
storage (:class:`~repro.mm.sources.BlockedSource`) a block is read,
and charged in full, the first time the run needs one of its ranks.
Blocks past the stop are never read — the block-max prune, safe
because every unread block's upper bound is at most the τ the stop
rule already beat.  A run whose every source is block storage
(:func:`block_storage`) reports ``block_size`` / ``blocks_read`` /
``blocks_skipped`` in its stats and the ``topn.blocks_*`` metrics,
under the ``topn.ta_blocked`` span and the ``fagin-ta-blocked``
strategy.  Everything else, random accesses included, is the same
run's: a block is a charging unit, not another algorithm.  A resumed
run that reads on pays again for the block holding the saved depth
only where the capture charged that source in another unit
(``TAResumeState.sorted_units``), so a capture plus a resume that
reads on never charges less than one cold run.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryCancelledError, TopNError
from ..obs import metrics, tracer
from ..storage.blocks import blocks_between
from ..storage.kernel import top_positions
from .aggregates import AggregateFunction, SUM, combine_columns, require_monotone
from .heap import BoundedTopN
from .result import TopNResult, top_items

#: Ranks in TA's first slab; each later slab ends at twice the last end.
_FIRST_SLAB = 128


def _check_resume(resume_from, n: int, m: int, agg: AggregateFunction) -> None:
    if getattr(resume_from, "m_sources", None) != m:
        raise TopNError(
            f"resume state covers {getattr(resume_from, 'm_sources', '?')} "
            f"sources, query has {m}")
    if getattr(resume_from, "agg_name", None) != agg.name:
        raise TopNError(
            f"resume state was built with aggregate "
            f"{getattr(resume_from, 'agg_name', '?')!r}, query uses {agg.name!r}")
    if n < resume_from.n:
        raise TopNError(
            f"resume target n={n} is below the saved frontier's n={resume_from.n}; "
            "serve shrinking requests from the result cache instead")


def require_slabs(sources: list, engine: str) -> None:
    """Refuse sources without the uncharged bulk reads and the charges
    that settle them, which every slab engine needs."""
    for source in sources:
        for method in ("sorted_slab", "grades_of", "charge_sorted", "charge_random"):
            if not hasattr(source, method):
                raise TopNError(
                    f"{engine} needs sources with bulk reads "
                    f"(repro.mm.ScoreSource.{method}); "
                    f"{type(source).__name__} has no {method}()")


def check_cancel(cancel, engine: str, depth: int) -> None:
    """Raise between rounds when the query's cancel token fired — a
    deadline expiry or an explicit cancel (e.g. a serve-layer request
    deadline propagated down).
    Checked only at round boundaries, before anything is charged, so a
    stopped run never leaves a partially applied bound administration
    behind."""
    if cancel is not None and cancel.cancelled():
        metrics.inc("topn.cancelled")
        raise QueryCancelledError(
            f"{engine} cancelled at sorted-access depth {depth}")


def block_storage(sources: list) -> bool:
    """True when every source is block storage, which charges sorted
    access in whole blocks: the run then reports its block counts."""
    return all(hasattr(source, "read_block") for source in sources)


def sorted_units(sources: list) -> tuple:
    """The ranks one sorted-access charge of each source covers."""
    return tuple(getattr(source, "block_size", 1) for source in sources)


def block_stats(sources: list, blocks_read: int) -> dict:
    """``block_size`` / ``blocks_read`` / ``blocks_skipped`` of a run
    over block storage that read ``blocks_read`` blocks."""
    return {"block_size": sources[0].block_size, "blocks_read": blocks_read,
            "blocks_skipped": sum(source.n_blocks for source in sources) - blocks_read}


def record_blocks(sources: list, blocks_read: int) -> dict:
    """:func:`block_stats`, also added to the ``topn.blocks_*`` metrics
    and the open span."""
    stats = block_stats(sources, blocks_read)
    metrics.inc("topn.blocks_read", stats["blocks_read"])
    metrics.inc("topn.blocks_skipped", stats["blocks_skipped"])
    tracer.annotate(**stats)
    return stats


def first_stop(tau: np.ndarray, first_seen: np.ndarray, scores: np.ndarray,
               n: int) -> int | None:
    """TA's stop rule over a run of depths: the first offset ``d`` into
    ``tau`` at which the ``n``-th best score reaches ``tau[d]``, or
    None.

    ``first_seen[k]`` is the offset at which object ``k`` (score
    ``scores[k]``) was first seen; anything seen before the run has an
    offset <= 0.  An object counts at ``d`` once it is seen and scores
    at least ``tau[d]``, so the ``n``-th best reaches ``tau[d]`` exactly
    when at least ``n`` objects count there.  τ never rises with depth
    (grades fall, the aggregate is monotone), so each object counts
    from one offset on, found by one ``searchsorted``; a ``bincount``
    and ``cumsum`` then give the count at every depth.
    """
    if len(scores) < n:
        return None
    neg_tau = -tau  # ascending whenever τ never rises
    if np.all(neg_tau[1:] >= neg_tau[:-1]):
        counted_from = np.maximum(first_seen, np.searchsorted(neg_tau, -scores))
        counts = np.cumsum(np.bincount(counted_from, minlength=len(tau))[:len(tau)])
    else:
        # a user aggregate declared monotone whose floats are not: count
        # depth by depth instead
        counts = np.array([np.count_nonzero((first_seen <= d) & (scores >= t))
                           for d, t in enumerate(tau)])
    hits = np.flatnonzero(counts >= n)
    return int(hits[0]) if len(hits) else None


def read_slab(sources: list, lo: int, hi: int):
    """Sorted ranks ``lo .. hi - 1`` of every source, uncharged, padded
    past a list's end with object -1 and grade 0.0 — the floor TA gives
    an exhausted list.  Returns ``(docs, grades, live)``: ``docs[d, i]``
    and ``grades[i, d]`` hold rank ``lo + d`` of source ``i``, and
    ``live[i]`` counts the ranks source ``i`` really had."""
    m = len(sources)
    docs = np.full((hi - lo, m), -1, dtype=np.int64)
    grades = np.zeros((m, hi - lo), dtype=np.float64)
    live = []
    for i, source in enumerate(sources):
        slab_ids, slab_grades = source.sorted_slab(lo, hi)
        docs[:len(slab_ids), i] = slab_ids
        grades[i, :len(slab_grades)] = slab_grades
        live.append(len(slab_ids))
    return docs, grades, live


def new_objects(docs: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The objects of a slab (``docs`` as :func:`read_slab` returns it)
    not marked in ``seen``, in the order one access at a time meets
    them: depth by depth, sources in order.  Returns their ids and, for
    each, the flat position ``offset * m + source`` of that meeting."""
    flat = docs.ravel()
    fresh = np.flatnonzero(flat >= 0)
    fresh = fresh[~seen[flat[fresh]]]
    new_ids, first_at = np.unique(flat[fresh], return_index=True)
    order = np.argsort(first_at)
    return new_ids[order], fresh[first_at[order]]


def slab_end(lo: int) -> int:
    hi = _FIRST_SLAB
    while hi <= lo:
        hi *= 2
    return hi


def threshold_topn(sources: list, n: int, agg: AggregateFunction = SUM, *,
                   resume_from=None, capture_state: bool = False,
                   max_depth: int | None = None, cancel=None) -> TopNResult:
    """Exact top-N over graded sources with the Threshold Algorithm.

    ``resume_from`` continues a previous run's saved frontier (a
    :class:`~repro.cache.resume.TAResumeState` with the same sources,
    aggregate, and ``n`` no smaller than the saved one).
    ``capture_state=True`` stores this run's frontier under
    ``stats["resume_state"]`` for a later continue.

    ``max_depth`` caps the sorted-access depth: the run stops before
    reading rank ``max_depth`` with ``stats["stop_reason"] ==
    "max_depth"`` and the best-effort top of everything seen so far
    (``stats["final_threshold"]`` is then a certified upper bound on
    any *unseen* object's score).  A capped run's captured state
    resumes exactly — chaining capped runs with growing depths visits
    the same states a single uncapped run does, which is how the serve
    layer advances a stream's one TA run slab by slab.

    Over block storage the stats also carry the block counts (module
    docstring).  ``cancel`` is a token checked before each slab is
    read: once it reports cancelled the run raises
    :class:`~repro.errors.QueryCancelledError`.
    """
    if not sources:
        raise TopNError("threshold_topn needs at least one source")
    blocked = block_storage(sources)
    strategy = "fagin-ta-blocked" if blocked else "fagin-ta"
    if n <= 0:
        return TopNResult([], max(n, 0), strategy=strategy, safe=True)
    require_monotone(agg, "TA")
    agg.validate_arity(len(sources))
    require_slabs(sources, "threshold_topn")

    m = len(sources)
    n_objects = max(source.n_objects for source in sources)
    units = sorted_units(sources)
    with tracer.span("topn.ta_blocked" if blocked else "topn.ta",
                     n=n, m=m, agg=agg.name, objects=n_objects,
                     resumed=resume_from is not None):
        traced = tracer.enabled()
        # every object seen under sorted access, in first-seen order,
        # with its exact aggregate and first-seen depth, and τ at every
        # processed depth (the resumable state)
        ids = np.empty(0, dtype=np.int64)
        scores = np.empty(0, dtype=np.float64)
        first_seen = np.empty(0, dtype=np.int64)
        taus = np.empty(0, dtype=np.float64)
        seen = np.zeros(n_objects, dtype=bool)
        depth = 0
        random_accesses = 0
        blocks_read = 0
        # per source, the ranks below the saved depth this run reads again
        reread = [0] * m
        resumed_from = 0
        stop_reason = "threshold"
        threshold = 0.0
        done = False
        if resume_from is not None:
            _check_resume(resume_from, n, m, agg)
            resumed_from = resume_from.n
            ids, scores = resume_from.ids, resume_from.scores
            first_seen, taus = resume_from.first_seen, resume_from.tau
            seen[ids] = True
            depth = resume_from.depth_next
            if depth:
                threshold = float(taus[-1])
            # block storage reads whole blocks: where the capture charged
            # a source in another unit, it paid only for the ranks of the
            # block holding the saved depth that it read, so reading on
            # reads that block again
            reread = [depth % unit if unit != saved else 0
                      for unit, saved in zip(units, resume_from.sorted_units)]
            if resume_from.exhausted:
                # the saved run drained every source: no unseen objects
                done, stop_reason = True, "exhausted"
            elif first_stop(np.array([threshold]), np.zeros(len(ids), dtype=np.int64),
                            scores, n) is not None:
                # re-check the stop rule at the saved depth before reading
                # deeper — a cold run at this n checks (and may stop) here
                done = True
        # the trace reports the n-th best per depth; only traced runs keep it
        heap = None
        if traced:
            heap = BoundedTopN(n)
            for obj, score in zip(ids.tolist(), scores.tolist()):
                heap.push(obj, score)
        ranks_read = depth
        while not done:
            if max_depth is not None and depth >= max_depth:
                stop_reason = "max_depth"
                break
            check_cancel(cancel, "threshold_topn", depth)
            hi = slab_end(depth)
            if max_depth is not None:
                hi = min(hi, max_depth)
            docs, grades, live = read_slab(sources, depth, hi)
            width = max(live)
            exhausted = width < hi - depth
            if exhausted:
                # every list ends inside the slab: one inactive round
                # follows, with every grade floored to 0
                width += 1
                docs, grades = docs[:width], grades[:, :width]
            tau = combine_columns(agg, list(grades))

            new_ids, met_at = new_objects(docs, seen)
            new_first = met_at // m
            new_scores = combine_columns(
                agg, [source.grades_of(new_ids) for source in sources])

            stop = first_stop(tau, np.concatenate((np.zeros(len(ids), dtype=np.int64),
                                                   new_first)),
                              np.concatenate((scores, new_scores)), n)
            rounds = width if stop is None else stop + 1
            kept = int(np.searchsorted(new_first, rounds))
            # the source that met an object gave one grade; the others
            # complete it by random access
            met_by = met_at[:kept] % m
            for i, (source, count) in enumerate(zip(sources, live)):
                end = depth + min(count, rounds)
                blocks_read += source.charge_sorted(
                    depth - reread[i] if end > depth else depth, end)
                source.charge_random(new_ids[:kept][met_by != i])
            reread = [0] * m
            random_accesses += (m - 1) * kept
            new_ids, new_first, new_scores = new_ids[:kept], new_first[:kept], new_scores[:kept]
            if traced:
                _trace_rounds(heap, depth, tau[:rounds], len(ids),
                              new_ids, new_first, new_scores)
            seen[new_ids] = True
            ids = np.concatenate((ids, new_ids))
            scores = np.concatenate((scores, new_scores))
            if capture_state:
                first_seen = np.concatenate((first_seen, depth + new_first))
                taus = np.concatenate((taus, tau[:rounds]))
            threshold = float(tau[rounds - 1])
            ranks_read = depth + rounds
            if stop is not None:
                break
            if exhausted:
                stop_reason = "exhausted"
                break
            depth = hi
        tracer.annotate(stop_reason=stop_reason, depth=ranks_read)
        run_stats = {
            "depth": ranks_read,
            "objects_seen": len(ids),
            "random_accesses": random_accesses,
            "final_threshold": threshold,
            "stop_reason": stop_reason,
            "resumed_from": resumed_from,
        }
        if blocked:
            run_stats.update(record_blocks(sources, blocks_read))
        if capture_state:
            from ..cache.resume import TAResumeState
            run_stats["resume_state"] = TAResumeState(
                n=n, m_sources=m, agg_name=agg.name, ids=ids, scores=scores,
                first_seen=first_seen, tau=taus, sorted_units=units,
                exhausted=(stop_reason == "exhausted"),
                list_lengths=(tuple(source.blocks.n_postings for source in sources)
                              if blocked else None),
            )
        return TopNResult(top_items(ids, scores, n), n, strategy=strategy,
                          safe=True, stats=run_stats)


def answer_at(run: TopNResult, depth: int, since: int = 0) -> tuple[list, dict]:
    """TA's answer at ``depth``, cut from ``run`` — a captured run that
    read that far or stopped before it — with no further access and
    without its sources: everything is read from the run's frontier.

    Returns the items, as ``(id, score)`` pairs, and the stats that a
    run over the same sources resumed from the same frontier at depth
    ``since`` (0: a cold run) and capped at ``depth`` returns: the
    canonical top of the objects first seen below the stop depth, τ at
    the last depth read as ``final_threshold``, ``m - 1`` random
    accesses for each object that capped run would have met, and over
    block storage the blocks it would have opened.
    """
    state = run.stats["resume_state"]
    stop_reason = run.stats["stop_reason"]
    if stop_reason == "max_depth" or run.stats["depth"] > depth:
        stop_reason = "max_depth"
    else:
        depth = run.stats["depth"]
    seen = int(np.searchsorted(state.first_seen, depth))
    met = seen - int(np.searchsorted(state.first_seen, since))
    stats = {
        "depth": depth,
        "objects_seen": seen,
        "random_accesses": (state.m_sources - 1) * met,
        "final_threshold": float(state.tau[depth - 1]),
        "stop_reason": stop_reason,
        "resumed_from": state.n if since else 0,
    }
    if state.list_lengths is not None:
        lists = list(zip(state.sorted_units, state.list_lengths))
        read = sum(len(blocks_between(since, depth, unit, length)) for unit, length in lists)
        stats.update(block_size=state.sorted_units[0], blocks_read=read,
                     blocks_skipped=sum(-(-length // unit) for unit, length in lists) - read)
    ids, scores = state.ids[:seen], state.scores[:seen]
    order = top_positions(scores, ids, state.n)
    return list(zip(ids[order].tolist(), scores[order].tolist())), stats


def _trace_rounds(heap: BoundedTopN, lo: int, tau: np.ndarray, seen_before: int,
                  new_ids: np.ndarray, new_first: np.ndarray,
                  new_scores: np.ndarray) -> None:
    """One ``ta.round`` event per depth of a slab: τ falls, the heap's
    n-th best rises; their crossing is the stop decision."""
    ends = np.searchsorted(new_first, np.arange(1, len(tau) + 1))
    start = 0
    for offset, end in enumerate(ends.tolist()):
        for obj, score in zip(new_ids[start:end].tolist(), new_scores[start:end].tolist()):
            heap.push(obj, score)
        start = end
        tracer.event("ta.round", depth=lo + offset, threshold=float(tau[offset]),
                     heap_threshold=heap.threshold(), objects_seen=seen_before + end)
