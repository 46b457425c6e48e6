"""Block-at-a-time Fagin-family engines over block storage.

The variants here run over :class:`~repro.mm.sources.BlockedSource`
and charge sorted access in whole storage blocks, the unit block
storage reads: a block is read (and charged in full) once a run needs
any of its ranks, and everything a run never reaches is a skipped
block (``blocks_read`` / ``blocks_skipped`` in the result stats and
the ``topn.blocks_*`` metrics).  Block-max pruning is what the stop
rules give for free: every unread block's upper bound is at most the
threshold the stop already beat.

Exactness contract
------------------
Every blocked engine returns a result **bit-identical** to its slab
engine — same ids, same score floats, same canonical tie order, same
stats apart from the block counts — on any input and any block size:

* Blocked TA reads one block row at a time and evaluates TA's stop
  rule (:func:`~repro.topn.ta.first_stop`) for every depth of the row
  at once, then answers from the objects first seen at or before the
  first stopping depth.
* Blocked NRA and CA *are* the slab engines' bound core
  (:func:`~repro.topn.bounds.run_bounds`, with the same check and
  completion cadence); only the charging differs.

Because stops are proven at block granularity, a blocked engine's
sorted-access charge is the slab engine's rounded up to whole blocks
(the trace-invariant suite pins this).
"""

from __future__ import annotations

import numpy as np

from ..errors import TopNError
from ..obs import metrics, tracer
from ..storage import stats
from .aggregates import AggregateFunction, SUM, combine_columns, require_monotone
from .heap import canonical_topn
from .bounds import check_cancel, run_bounds
from .result import TopNResult
from .ta import _check_resume, first_stop, read_slab

_NEVER = np.iinfo(np.int64).max


def _require_blocked(sources: list, engine: str) -> None:
    if not sources:
        raise TopNError(f"{engine} needs at least one source")
    for source in sources:
        if not hasattr(source, "read_block"):
            raise TopNError(
                f"{engine} needs block-at-a-time sources "
                f"(repro.mm.BlockedSource); got {type(source).__name__} — "
                f"wrap the data with BlockedSource.from_array / from_postings")


class _Cursor:
    """Block consumption tracker for one source: reads (and bulk-
    charges) whole blocks lazily; everything never read is a skip."""

    __slots__ = ("source", "blocks_read", "_next_block")

    def __init__(self, source, start_rank: int = 0) -> None:
        self.source = source
        self.blocks_read = 0
        # a resumed run's saved prefix was paid for by the producing
        # run: its blocks stay unread here
        self._next_block = start_rank // source.block_size

    def ensure(self, hi_rank: int) -> None:
        """Read blocks until ranks ``< hi_rank`` are materialized (or
        the source ends)."""
        n_blocks = self.source.n_blocks
        size = self.source.block_size
        while self._next_block < n_blocks and self._next_block * size < hi_rank:
            self.source.read_block(self._next_block)
            self._next_block += 1
            self.blocks_read += 1

    @property
    def blocks_skipped(self) -> int:
        return self.source.n_blocks - self.blocks_read


def _validated(sources, agg, engine, block_size) -> int:
    """Validate a blocked query's aggregate and block size; returns the
    sources' block size."""
    require_monotone(agg, engine)
    agg.validate_arity(len(sources))
    if block_size is not None and any(s.block_size != block_size for s in sources):
        raise TopNError(
            f"sources are blocked at {[s.block_size for s in sources]}, "
            f"query asks block_size={block_size}")
    return sources[0].block_size


def _emit_block_metrics(cursors) -> tuple[int, int]:
    blocks_read = sum(c.blocks_read for c in cursors)
    blocks_skipped = sum(c.blocks_skipped for c in cursors)
    if metrics.enabled():
        metrics.inc("topn.blocks_read", blocks_read)
        metrics.inc("topn.blocks_skipped", blocks_skipped)
    return blocks_read, blocks_skipped


# -- TA -----------------------------------------------------------------------


def blocked_threshold_topn(sources: list, n: int, agg: AggregateFunction = SUM,
                           *, block_size: int | None = None,
                           resume_from=None,
                           capture_state: bool = False,
                           cancel=None) -> TopNResult:
    """Block-at-a-time Threshold Algorithm, bit-identical to
    :func:`~repro.topn.ta.threshold_topn`.

    Reads one block row at a time, completes every newly seen object
    with one vectorized grade probe per source (charged as ``m - 1``
    random accesses per object), and evaluates TA's stop rule for every
    depth of the block at once; the answer is cut from the objects
    first seen at or before the first stopping depth.  Blocks past the
    stop are never read — that is the block-max prune, and it is *safe*
    because every unread block's upper bound is at most the last τ the
    stop rule already beat.

    ``block_size`` is fixed by the sources' storage; the parameter is
    accepted for symmetry and validated against it.  ``resume_from`` /
    ``capture_state`` speak the exact
    :class:`~repro.cache.resume.TAResumeState` frontier, so warm
    continues interoperate with :func:`~repro.topn.ta.threshold_topn`
    in both directions.
    """
    _require_blocked(sources, "blocked_threshold_topn")
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-ta-blocked", safe=True)
    size = _validated(sources, agg, "TA", block_size)
    m = len(sources)
    n_objects = max(source.n_objects for source in sources)
    lengths = [source.blocks.n_postings for source in sources]
    max_len = max(lengths) if lengths else 0

    with tracer.span("topn.ta_blocked", n=n, m=m, agg=agg.name,
                     block_size=size, resumed=resume_from is not None):
        traced = tracer.enabled()
        seen = np.zeros(n_objects, dtype=bool)
        scores = np.zeros(n_objects, dtype=np.float64)
        # where each object was first met, as depth * m + source (the
        # order one access at a time meets objects); -1 for objects a
        # resumed frontier already holds
        first_met = np.full(n_objects, _NEVER, dtype=np.int64)
        saved_ids = np.empty(0, dtype=np.int64)
        saved_first = np.empty(0, dtype=np.int64)
        taus = []  # τ per processed depth, row by row
        depth = 0
        random_accesses = 0
        resumed_from = 0
        stop_reason = "threshold"
        done = False
        d_star: int | None = None  # objects first seen <= d_star answer
        if resume_from is not None:
            _check_resume(resume_from, n, m, agg)
            resumed_from = resume_from.n
            saved_ids, saved_first = resume_from.ids, resume_from.first_seen
            seen[saved_ids] = True
            scores[saved_ids] = resume_from.scores
            first_met[saved_ids] = -1
            taus.append(resume_from.tau)
            depth = resume_from.depth_next
            if resume_from.exhausted:
                done, stop_reason = True, "exhausted"
            elif depth and first_stop(resume_from.tau[-1:],
                                      np.zeros(len(saved_ids), dtype=np.int64),
                                      resume_from.scores, n) is not None:
                # a cold run at this n re-checks (and stops) at the
                # saved depth before reading deeper
                done = True
        cursors = [_Cursor(source, start_rank=depth) for source in sources]
        ranks_read = depth

        while not done:
            check_cancel(cancel, "blocked_threshold_topn", depth)
            if depth >= max_len:
                # TA runs one final inactive round: every
                # grade floors to 0, τ = t(0..0), and the heap rule gets
                # a last look before "exhausted"
                tau = combine_columns(agg, list(np.zeros((m, 1))))
                taus.append(tau)
                ranks_read = depth + 1
                d_star = None  # every seen object is in play
                in_play = scores[seen]
                if first_stop(tau, np.zeros(len(in_play), dtype=np.int64),
                              in_play, n) is None:
                    stop_reason = "exhausted"
                break
            lo, hi = depth, min(depth + size, max_len)
            for cursor in cursors:
                cursor.ensure(hi)
            docs, grades, _ = read_slab(sources, lo, hi)

            # complete every object first seen in this block row with
            # one vectorized probe per source (same floats one random
            # access at a time fetches)
            all_docs = docs.ravel()
            valid = all_docs >= 0
            fresh = valid & ~seen[np.clip(all_docs, 0, None)]
            fresh_docs = all_docs[fresh]
            if len(fresh_docs):
                uniq = np.unique(fresh_docs)
                seen[uniq] = True
                grade_rows = [src.grades_of(uniq) for src in sources]
                # the sorted access that met an object already gave one
                # grade: m - 1 random accesses complete it
                stats.charge_random_accesses((m - 1) * len(uniq))
                random_accesses += (m - 1) * len(uniq)
                scores[uniq] = combine_columns(agg, grade_rows)
                np.minimum.at(first_met, fresh_docs,
                              lo * m + np.flatnonzero(fresh))

            # τ per depth of the row — one column fold, exact floats
            tau_row = combine_columns(agg, list(grades))
            taus.append(tau_row)
            if traced:
                tracer.event("ta.block", lo=lo, hi=hi,
                             threshold=float(tau_row[-1]),
                             objects_seen=int(np.count_nonzero(seen)))
            ranks_read = hi
            ids = np.flatnonzero(seen)
            stop = first_stop(tau_row, first_met[ids] // m - lo, scores[ids], n)
            if stop is not None:
                # TA's exact stop depth inside this block row
                d_star = lo + stop
                ranks_read = d_star + 1
                taus[-1] = tau_row[:stop + 1]
                break
            depth = hi

        tau = np.concatenate(taus)
        threshold = float(tau[-1]) if len(tau) else 0.0
        in_play = seen if d_star is None else (seen & (first_met // m <= d_star))
        ids = np.flatnonzero(in_play)
        items = canonical_topn(ids, scores[ids], n)
        blocks_read, blocks_skipped = _emit_block_metrics(cursors)
        tracer.annotate(stop_reason=stop_reason, depth=ranks_read,
                        blocks_read=blocks_read, blocks_skipped=blocks_skipped)
        run_stats = {
            "depth": ranks_read,
            "objects_seen": len(ids),
            "random_accesses": random_accesses,
            "final_threshold": threshold,
            "stop_reason": stop_reason,
            "resumed_from": resumed_from,
            "block_size": size,
            "blocks_read": blocks_read,
            "blocks_skipped": blocks_skipped,
        }
        if capture_state:
            from ..cache.resume import TAResumeState
            met = ids[first_met[ids] >= 0]
            met = met[np.argsort(first_met[met])]
            state_ids = np.concatenate((saved_ids, met))
            run_stats["resume_state"] = TAResumeState(
                n=n, m_sources=m, agg_name=agg.name, ids=state_ids,
                scores=scores[state_ids],
                first_seen=np.concatenate((saved_first, first_met[met] // m)),
                tau=tau, exhausted=(stop_reason == "exhausted"),
            )
        return TopNResult(items, n, strategy="fagin-ta-blocked", safe=True,
                          stats=run_stats)


# -- NRA and CA ----------------------------------------------------------------


def _charge_blocks(sources, run) -> tuple[int, int]:
    """Charge a bound run in whole blocks: every block holding a rank
    the run read, plus the completions' random accesses."""
    cursors = [_Cursor(source) for source in sources]
    for cursor, ranks in zip(cursors, run.ranks):
        cursor.ensure(ranks)
    for source, objs in zip(sources, run.completed):
        source.charge_random(objs)
    return _emit_block_metrics(cursors)


def blocked_nra_topn(sources: list, n: int, agg: AggregateFunction = SUM,
                     check_every: int = 16, max_depth: int | None = None, *,
                     block_size: int | None = None,
                     cancel=None) -> TopNResult:
    """Block-at-a-time NRA, bit-identical to
    :func:`~repro.topn.nra.nra_topn`.

    Runs NRA's bound core (:func:`~repro.topn.bounds.run_bounds`) and
    charges the sorted accesses it used in whole blocks.
    """
    _require_blocked(sources, "blocked_nra_topn")
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-nra-blocked", safe=True)
    size = _validated(sources, agg, "blocked_nra_topn", block_size)
    with tracer.span("topn.nra_blocked", n=n, m=len(sources), agg=agg.name,
                     check_every=check_every, block_size=size):
        run = run_bounds(sources, n, agg, "blocked_nra_topn", check_every=check_every,
                         max_depth=max_depth, cancel=cancel)
        blocks_read, blocks_skipped = _charge_blocks(sources, run)
        tracer.annotate(stop_reason=run.stop_reason, depth=run.depth,
                        objects_seen=run.objects_seen,
                        blocks_read=blocks_read, blocks_skipped=blocks_skipped)
        return TopNResult(
            run.items, n, strategy="fagin-nra-blocked", safe=True,
            stats={
                "depth": run.depth,
                "objects_seen": run.objects_seen,
                "bottom_aggregate": run.bottom_aggregate,
                "stop_reason": run.stop_reason,
                "bound_checks": run.bound_checks,
                "block_size": size,
                "blocks_read": blocks_read,
                "blocks_skipped": blocks_skipped,
            },
        )


def blocked_combined_topn(sources: list, n: int, agg: AggregateFunction = SUM,
                          h: int = 4, check_every: int = 8,
                          max_depth: int | None = None, *,
                          block_size: int | None = None,
                          cancel=None) -> TopNResult:
    """Block-at-a-time CA, bit-identical to
    :func:`~repro.topn.ca.combined_topn`.

    Runs CA's bound core (:func:`~repro.topn.bounds.run_bounds`) and
    charges the sorted accesses it used in whole blocks, plus one
    random access per grade a completion fetched.
    """
    _require_blocked(sources, "blocked_combined_topn")
    if h < 1:
        raise TopNError(f"cost ratio h must be >= 1, got {h}")
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-ca-blocked", safe=True)
    size = _validated(sources, agg, "blocked_combined_topn", block_size)
    with tracer.span("topn.ca_blocked", n=n, m=len(sources), agg=agg.name, h=h,
                     block_size=size):
        run = run_bounds(sources, n, agg, "blocked_combined_topn",
                         check_every=check_every, h=h, max_depth=max_depth,
                         cancel=cancel)
        blocks_read, blocks_skipped = _charge_blocks(sources, run)
        tracer.annotate(stop_reason=run.stop_reason, depth=run.depth,
                        objects_seen=run.objects_seen,
                        completions=run.completions,
                        blocks_read=blocks_read, blocks_skipped=blocks_skipped)
        return TopNResult(
            run.items, n, strategy="fagin-ca-blocked", safe=True,
            stats={
                "depth": run.depth,
                "objects_seen": run.objects_seen,
                "completions": run.completions,
                "h": h,
                "stop_reason": run.stop_reason,
                "bound_checks": run.bound_checks,
                "block_size": size,
                "blocks_read": blocks_read,
                "blocks_skipped": blocks_skipped,
            },
        )
