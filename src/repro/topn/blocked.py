"""Block-at-a-time vectorized Fagin-family engines.

The scalar engines (:func:`~repro.topn.nra.nra_topn`,
:func:`~repro.topn.ca.combined_topn`) walk one posting per Python
iteration — the dominant constant factor at bench scale; TA
(:func:`~repro.topn.ta.threshold_topn`) reads slabs but charges as
if it walked one posting at a time.  The variants here consume whole
storage blocks (:class:`~repro.mm.sources.BlockedSource`) and do numpy
batch work between threshold checks: vectorized grade accumulation,
argpartition/lexsort for frontier maintenance, and block-max pruning —
whole blocks whose score upper bound falls below the current decision
threshold are never read (``blocks_skipped`` in the result stats and the
``topn.blocks_skipped`` metric).

Exactness contract
------------------
Every blocked engine returns a result **bit-identical** to its scalar
oracle — same ids, same score floats, same canonical tie order — on any
input and any block size.  Three mechanisms carry that guarantee:

* *Same float association.*  Scores are combined column-by-column in
  source order (``acc = (acc + col)``), the exact left-to-right fold
  ``Aggregate.combine`` performs on a Python list, so reordered numpy
  summation can never produce a different float.
* *Same stop depths.*  TA's stop rule (``n``-th best >= τ) is monotone
  in depth — τ falls, the frontier rises — so the blocked TA evaluates
  it for every depth of a block at once
  (:func:`~repro.topn.ta.first_stop`, TA's own rule), then answers from
  the objects first seen at or before the first stopping depth.
  NRA/CA report termination-depth-dependent lower bounds, so their
  blocked variants evaluate the (vectorized) stop condition at exactly
  the scalar check cadence (``check_every`` / completion every ``h``
  rounds).
* *Same tie discipline.*  Frontier cuts partition by score, then take
  the whole tied boundary group through the canonical
  ``(score desc, id asc)`` lexsort — the convention
  :class:`~repro.topn.result.TopNResult` enforces.

Because stops are proven at block granularity, a blocked engine's
sorted-access charge is the scalar engine's rounded up to whole blocks
(the trace-invariant suite pins this), and everything it *doesn't* read
is a skipped block.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryCancelledError, TopNError
from ..obs import metrics, tracer
from ..storage import stats
from .aggregates import AggregateFunction, SUM, combine_columns, require_monotone
from .heap import canonical_topn
from .result import RankedItem, TopNResult
from .ta import _check_resume, first_stop, read_slab

_NEVER = np.iinfo(np.int64).max


def _check_cancel(cancel, engine: str, depth: int) -> None:
    """Raise between rounds when the query's cancel token fired — a
    deadline expiry or an explicit cancel (e.g. the coordinator already
    resolved, or a serve-layer request deadline propagated down).
    Checked only at round boundaries, so a stopped run never leaves a
    partially applied bound administration behind."""
    if cancel is not None and cancel.cancelled():
        metrics.inc("topn.cancelled")
        raise QueryCancelledError(
            f"{engine} cancelled at sorted-access depth {depth}")


def _require_blocked(sources: list, engine: str) -> None:
    if not sources:
        raise TopNError(f"{engine} needs at least one source")
    for source in sources:
        if not hasattr(source, "read_block") or not hasattr(source, "dense_grades"):
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
    ``capture_state`` speak the exact scalar
    :class:`~repro.cache.resume.TAResumeState` frontier, so warm
    continues interoperate with the scalar engine in both directions.
    """
    _require_blocked(sources, "blocked_threshold_topn")
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-ta-blocked", safe=True)
    require_monotone(agg, "TA")
    agg.validate_arity(len(sources))
    m = len(sources)
    if block_size is not None and any(s.block_size != block_size for s in sources):
        raise TopNError(
            f"sources are blocked at {[s.block_size for s in sources]}, "
            f"query asks block_size={block_size}")
    size = sources[0].block_size
    n_objects = max(source.n_objects for source in sources)
    lengths = [source.blocks.n_postings for source in sources]
    max_len = max(lengths) if lengths else 0

    with tracer.span("topn.ta_blocked", n=n, m=m, agg=agg.name,
                     block_size=size, resumed=resume_from is not None):
        traced = tracer.enabled()
        seen = np.zeros(n_objects, dtype=bool)
        scores = np.zeros(n_objects, dtype=np.float64)
        first_seen = np.full(n_objects, _NEVER, dtype=np.int64)
        depth = 0
        random_accesses = 0
        resumed_from = 0
        stop_reason = "threshold"
        done = False
        d_star: int | None = None  # objects first seen <= d_star answer
        last_grades = [0.0] * m
        if resume_from is not None:
            _check_resume(resume_from, n, m, agg)
            resumed_from = resume_from.n
            seeded = np.fromiter(resume_from.seen_scores.keys(), dtype=np.int64,
                                 count=len(resume_from.seen_scores))
            seeded_scores = np.fromiter(resume_from.seen_scores.values(),
                                        dtype=np.float64, count=len(seeded))
            seen[seeded] = True
            scores[seeded] = seeded_scores
            first_seen[seeded] = -1  # strictly before any resumed depth
            last_grades = list(resume_from.last_grades)
            depth = resume_from.depth_next
            if resume_from.exhausted:
                done, stop_reason = True, "exhausted"
            elif first_stop(np.array([agg.combine(last_grades)]),
                            np.zeros(len(seeded), dtype=np.int64),
                            seeded_scores, n) is not None:
                # a cold run at this n re-checks (and stops) at the
                # saved depth before reading deeper
                done = True
        cursors = [_Cursor(source, start_rank=depth) for source in sources]
        ranks_read = depth

        while not done:
            _check_cancel(cancel, "blocked_threshold_topn", depth)
            if depth >= max_len:
                # the scalar engine runs one final inactive round: every
                # grade floors to 0, τ = t(0..0), and the heap rule gets
                # a last look before "exhausted"
                last_grades = [0.0] * m
                tau = agg.combine(last_grades)
                ranks_read = depth + 1
                d_star = None  # every seen object is in play
                in_play = scores[seen]
                if first_stop(np.array([tau]), np.zeros(len(in_play), dtype=np.int64),
                              in_play, n) is None:
                    stop_reason = "exhausted"
                break
            lo, hi = depth, min(depth + size, max_len)
            for cursor in cursors:
                cursor.ensure(hi)
            docs, grades, _ = read_slab(sources, lo, hi)

            # complete every object first seen in this block row with
            # one vectorized probe per source (same floats the scalar
            # engine fetches one random access at a time)
            all_docs = docs.ravel()
            offsets = np.repeat(np.arange(lo, hi, dtype=np.int64), m)
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
                np.minimum.at(first_seen, fresh_docs, offsets[fresh])

            # τ per depth of the row — one column fold, exact floats
            tau_row = combine_columns(agg, list(grades))
            last_grades = grades[:, hi - 1 - lo].tolist()
            if traced:
                tracer.event("ta.block", lo=lo, hi=hi,
                             threshold=float(tau_row[-1]),
                             objects_seen=int(np.count_nonzero(seen)))
            ranks_read = hi
            ids = np.flatnonzero(seen)
            stop = first_stop(tau_row, first_seen[ids] - lo, scores[ids], n)
            if stop is not None:
                # the exact scalar stop depth inside this block row
                d_star = lo + stop
                ranks_read = d_star + 1
                last_grades = grades[:, d_star - lo].tolist()
                break
            depth = hi

        threshold = agg.combine(last_grades)
        in_play = seen if d_star is None else (seen & (first_seen <= d_star))
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
            run_stats["resume_state"] = TAResumeState(
                n=n, m_sources=m, agg_name=agg.name, depth_next=ranks_read,
                last_grades=tuple(last_grades),
                seen_scores={int(obj): float(scores[obj]) for obj in ids},
                exhausted=(stop_reason == "exhausted"),
            )
        return TopNResult(items, n, strategy="fagin-ta-blocked", safe=True,
                          stats=run_stats)


# -- NRA ----------------------------------------------------------------------


def blocked_nra_topn(sources: list, n: int, agg: AggregateFunction = SUM,
                     check_every: int = 16, max_depth: int | None = None,
                     min_check_depth: int = 0, *,
                     block_size: int | None = None,
                     cancel=None) -> TopNResult:
    """Block-at-a-time NRA, bit-identical to
    :func:`~repro.topn.nra.nra_topn`.

    NRA's reported scores are the lower bounds *at its termination
    depth*, so the blocked variant must stop exactly where the scalar
    one does: it ingests block slabs between check depths and evaluates
    the stop condition at the same ``check_every`` cadence — but the
    whole bound administration (lower/upper bounds over every seen
    object, the canonical ``(-lower, id)`` frontier) is one numpy pass
    per check instead of a Python dict walk.
    """
    _require_blocked(sources, "blocked_nra_topn")
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-nra-blocked", safe=True)
    state = _BoundState(sources, n, agg, "blocked_nra_topn", block_size)
    with tracer.span("topn.nra_blocked", n=n, m=state.m, agg=agg.name,
                     check_every=check_every, block_size=state.size):
        traced = tracer.enabled()
        stop_reason = "exhausted"
        bound_checks = 0
        checks_skipped = 0
        final_depth = None
        ingest_end = state.max_len if max_depth is None \
            else min(max_depth, state.max_len)
        stopped = False
        for check_at in range(check_every, ingest_end + 1, check_every):
            _check_cancel(cancel, "blocked_nra_topn", check_at)
            state.ingest_to(check_at)
            if check_at < min_check_depth:
                checks_skipped += 1
                continue
            bound_checks += 1
            stopped = state.stop_condition(check_at)
            if traced:
                tracer.event("nra.check", depth=check_at, stopped=stopped,
                             objects_seen=state.objects_seen())
            if stopped:
                stop_reason = "bounds"
                final_depth = check_at
                break
        if not stopped:
            state.ingest_to(ingest_end)
            if max_depth is not None and max_depth <= state.max_len:
                stop_reason = "max_depth"
                final_depth = max_depth
            else:
                # the scalar engine's final inactive round: depth counts
                # one past the longest list, bottoms floor to 0
                final_depth = state.max_len + 1
        bottoms = state.effective_bottoms(final_depth)
        items = state.final_items(n)
        blocks_read, blocks_skipped = _emit_block_metrics(state.cursors)
        tracer.annotate(stop_reason=stop_reason, depth=final_depth,
                        objects_seen=state.objects_seen(),
                        blocks_read=blocks_read, blocks_skipped=blocks_skipped)
        return TopNResult(
            items, n, strategy="fagin-nra-blocked", safe=True,
            stats={
                "depth": final_depth,
                "objects_seen": state.objects_seen(),
                "bottom_aggregate": agg.combine(bottoms),
                "stop_reason": stop_reason,
                "bound_checks": bound_checks,
                "checks_skipped": checks_skipped,
                "block_size": state.size,
                "blocks_read": blocks_read,
                "blocks_skipped": blocks_skipped,
            },
        )


# -- CA -----------------------------------------------------------------------


def blocked_combined_topn(sources: list, n: int, agg: AggregateFunction = SUM,
                          h: int = 4, check_every: int = 8,
                          max_depth: int | None = None,
                          min_check_depth: int = 0, *,
                          block_size: int | None = None,
                          cancel=None) -> TopNResult:
    """Block-at-a-time CA, bit-identical to
    :func:`~repro.topn.ca.combined_topn`.

    Sorted access proceeds in block slabs; every ``h`` rounds the most
    promising incomplete candidate — argmax of the vectorized upper
    bounds, ties to the smallest id — is completed by random access,
    and the stop condition runs at the scalar ``check_every`` cadence.
    """
    _require_blocked(sources, "blocked_combined_topn")
    if h < 1:
        raise TopNError(f"cost ratio h must be >= 1, got {h}")
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-ca-blocked", safe=True)
    state = _BoundState(sources, n, agg, "blocked_combined_topn", block_size)
    with tracer.span("topn.ca_blocked", n=n, m=state.m, agg=agg.name, h=h,
                     block_size=state.size):
        traced = tracer.enabled()
        stop_reason = "exhausted"
        bound_checks = 0
        checks_skipped = 0
        completions = 0
        final_depth = None
        ingest_end = state.max_len if max_depth is None \
            else min(max_depth, state.max_len)
        stopped = False
        for event in _event_depths(h, check_every, ingest_end):
            _check_cancel(cancel, "blocked_combined_topn", event)
            state.ingest_to(event)
            if event % h == 0 and state.objects_seen():
                completed = state.complete_best(event)
                if completed is not None:
                    completions += 1
                    if traced:
                        tracer.event("ca.completion", depth=event, obj=completed)
            if event % check_every == 0:
                if event < min_check_depth:
                    checks_skipped += 1
                    continue
                bound_checks += 1
                stopped = state.stop_condition(event)
                if traced:
                    tracer.event("ca.check", depth=event, stopped=stopped,
                                 objects_seen=state.objects_seen())
                if stopped:
                    stop_reason = "bounds"
                    final_depth = event
                    break
        if not stopped:
            state.ingest_to(ingest_end)
            if max_depth is not None and max_depth <= state.max_len:
                stop_reason = "max_depth"
                final_depth = max_depth
            else:
                # the scalar engine's final inactive round still runs
                # its scheduled completion before breaking
                final_depth = state.max_len + 1
                if final_depth % h == 0 and state.objects_seen():
                    if state.complete_best(final_depth) is not None:
                        completions += 1
        items = state.final_items(n)
        blocks_read, blocks_skipped = _emit_block_metrics(state.cursors)
        tracer.annotate(stop_reason=stop_reason, depth=final_depth,
                        objects_seen=state.objects_seen(),
                        completions=completions,
                        blocks_read=blocks_read, blocks_skipped=blocks_skipped)
        return TopNResult(
            items, n, strategy="fagin-ca-blocked", safe=True,
            stats={
                "depth": final_depth,
                "objects_seen": state.objects_seen(),
                "completions": completions,
                "h": h,
                "stop_reason": stop_reason,
                "bound_checks": bound_checks,
                "checks_skipped": checks_skipped,
                "block_size": state.size,
                "blocks_read": blocks_read,
                "blocks_skipped": blocks_skipped,
            },
        )


def _event_depths(h: int, check_every: int, limit: int):
    """Depths where CA does non-streaming work (completion every ``h``,
    stop check every ``check_every``), ascending, up to ``limit``."""
    events = sorted(
        set(range(h, limit + 1, h)) | set(range(check_every, limit + 1, check_every))
    )
    return events


class _BoundState:
    """Shared NRA/CA administration: per-source seen masks over dense
    grade columns, vectorized lower/upper bounds, block cursors."""

    def __init__(self, sources, n, agg, engine, block_size):
        require_monotone(agg, engine)
        agg.validate_arity(len(sources))
        if block_size is not None and any(s.block_size != block_size for s in sources):
            raise TopNError(
                f"sources are blocked at {[s.block_size for s in sources]}, "
                f"query asks block_size={block_size}")
        self.sources = sources
        self.agg = agg
        self.n = n
        self.m = len(sources)
        self.size = sources[0].block_size
        self.n_objects = max(s.n_objects for s in sources)
        self.lengths = [s.blocks.n_postings for s in sources]
        self.max_len = max(self.lengths) if self.lengths else 0
        self.dense = [s.dense_grades for s in sources]
        self.seen = np.zeros((self.m, self.n_objects), dtype=bool)
        self.any_seen = np.zeros(self.n_objects, dtype=bool)
        self.cursors = [_Cursor(s) for s in sources]
        self._ingested = 0

    def ingest_to(self, depth: int) -> None:
        """Mark every posting at rank < ``depth`` as seen (reading —
        and charging — whole blocks)."""
        depth = min(depth, self.max_len)
        if depth <= self._ingested:
            return
        for i, source in enumerate(self.sources):
            valid = min(depth, self.lengths[i]) - self._ingested
            if valid <= 0:
                continue
            self.cursors[i].ensure(self._ingested + valid)
            docs = source.blocks.doc_ids[self._ingested:self._ingested + valid]
            self.seen[i][docs] = True
            self.any_seen[docs] = True
        self._ingested = depth

    def objects_seen(self) -> int:
        return int(np.count_nonzero(self.any_seen))

    def effective_bottoms(self, depth: int) -> list[float]:
        """Per-source grade floor after ``depth`` ingested ranks: the
        grade at the last rank read, 0 once the list is exhausted."""
        out = []
        for i, source in enumerate(self.sources):
            if depth >= 1 and depth - 1 < self.lengths[i]:
                out.append(float(source.blocks.grades[depth - 1]))
            else:
                out.append(0.0)
        return out

    def _bounds_at(self, depth: int):
        ids = np.flatnonzero(self.any_seen)
        if len(ids) == 0:
            return ids, None, None, self.effective_bottoms(depth)
        bottoms = self.effective_bottoms(depth)
        lower_cols, upper_cols = [], []
        for i in range(self.m):
            seen_i = self.seen[i][ids]
            grades_i = self.dense[i][ids]
            lower_cols.append(np.where(seen_i, grades_i, 0.0))
            upper_cols.append(np.where(seen_i, grades_i, bottoms[i]))
        lowers = combine_columns(self.agg, lower_cols)
        uppers = combine_columns(self.agg, upper_cols)
        return ids, lowers, uppers, bottoms

    def stop_condition(self, depth: int) -> bool:
        """The scalar stop rule, one numpy pass: n-th best lower bound
        (canonical ``(-lower, id)`` order) dominates every other
        object's upper bound and the virtual never-seen object's."""
        ids, lowers, uppers, bottoms = self._bounds_at(depth)
        n = self.n
        if lowers is None or len(ids) < n:
            return False
        order = np.lexsort((ids, -lowers))
        nth_lower = float(lowers[order[n - 1]])
        rest = order[n:]
        max_rest = float(uppers[rest].max()) if len(rest) else -np.inf
        virtual = self.agg.combine(bottoms)
        return nth_lower >= max(max_rest, virtual)

    def complete_best(self, depth: int):
        """CA's completion: random-access the incomplete candidate with
        the best ``(upper bound, smallest id)`` key; returns its id (or
        None when every seen object is complete)."""
        incomplete = self.any_seen & ~self.seen.all(axis=0)
        ids = np.flatnonzero(incomplete)
        if len(ids) == 0:
            return None
        bottoms = self.effective_bottoms(depth)
        upper_cols = [
            np.where(self.seen[i][ids], self.dense[i][ids], bottoms[i])
            for i in range(self.m)
        ]
        uppers = combine_columns(self.agg, upper_cols)
        best = float(uppers.max())
        obj = int(ids[uppers == best].min())
        # one charged random access per missing grade, like the scalar loop
        for i, source in enumerate(self.sources):
            if not self.seen[i][obj]:
                source.random_access(obj)
        self.seen[:, obj] = True
        return obj

    def final_items(self, n: int) -> list[RankedItem]:
        """Lower bounds of every seen object through the canonical
        ``(-lower, id)`` cut — the scalar engines' final sort."""
        ids = np.flatnonzero(self.any_seen)
        if len(ids) == 0:
            return []
        lower_cols = [
            np.where(self.seen[i][ids], self.dense[i][ids], 0.0)
            for i in range(self.m)
        ]
        lowers = combine_columns(self.agg, lower_cols)
        order = np.lexsort((ids, -lowers))[:n]
        return [RankedItem(int(ids[i]), float(lowers[i])) for i in order]
