"""Upper and lower bound administration, a slab at a time: the core
NRA and CA share.

NRA keeps, for every object seen under sorted access, a *lower bound*
(unseen grades floored at 0) and an *upper bound* (unseen grades
capped at the source's current bottom grade), and stops once the N-th
best lower bound is at least every other object's upper bound and the
aggregate of the bottoms (the never-seen object's).  CA runs the same
administration and, every ``h`` rounds, completes the incomplete
object with the best ``(upper bound, smallest id)`` key by random
access.  Fagin, Lotem and Naor show that this bookkeeping, not the
accesses, is what these algorithms really cost.

:func:`run_bounds` reads sorted ranks a slab at a time through the
uncharged bulk reads (:func:`~repro.topn.ta.read_slab`, ``grades_of``)
and keeps one column per seen object: its grade in every list and the
rank at which each list shows it.  The bounds at any depth ``d`` are
then one masked :func:`~repro.topn.aggregates.combine_columns` fold
(grade ``i`` is known when list ``i`` showed it above rank ``d`` or
the object was completed), evaluated at exactly the depths the
one-access-at-a-time loop evaluates them: a completion every ``h``
rounds, a stop check every ``check_every`` rounds, and the completion
of the final inactive round that follows the longest list's end.  The
caller charges afterwards, through the sources, what that loop charged
(:meth:`BoundRun.charge`), in whatever unit each source's storage
charges sorted access.
Items, score floats, stats and the ``nra.check`` / ``ca.check`` /
``ca.completion`` trace events equal the loop's, which survives as the
test oracle in ``tests/topn/nra_reference.py`` and
``tests/topn/ca_reference.py``.

The columns are the whole state, so a run can be captured
(:class:`~repro.cache.resume.BoundResumeState`) and continued: a
resumed run at the captured ``n`` reads on from the saved depth, one
at another ``n`` first re-evaluates the saved depth's stop checks (its
``nra.check`` / ``ca.check`` events are the checks it evaluates), and
either charges only the sorted and random accesses the capture did
not.  That is how the serve layer streams an NRA or CA run chunk by
chunk and the cache continues one at a new ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TopNError
from ..obs import tracer
from .aggregates import AggregateFunction, combine_columns
from .result import RankedItem, top_items
from .ta import check_cancel, new_objects, read_slab, slab_end

#: the rank of a grade no list has shown yet
_UNSEEN = np.iinfo(np.int64).max


@dataclass
class BoundRun:
    """What one NRA or CA run decided, before anything is charged."""

    items: list[RankedItem]
    #: rounds run (the one-access-at-a-time loop's final depth)
    depth: int
    stop_reason: str
    bound_checks: int
    objects_seen: int
    bottom_aggregate: float
    completions: int
    #: per source: the sorted ranks read by this run's end, and those
    #: the state it resumed from had already charged
    ranks: list[int]
    since: list[int]
    #: per source: the objects this run completed whose grade there
    #: came by random access, in completion order
    completed: list[np.ndarray]
    #: the captured state (``capture_state``), else None
    state: object = None

    def charge(self, sources: list) -> int:
        """Charge through each source what one access at a time did
        beyond the resumed state; returns the storage blocks read."""
        blocks_read = 0
        for source, lo, hi, objs in zip(sources, self.since, self.ranks, self.completed):
            if hi > lo:
                blocks_read += source.charge_sorted(lo, hi)
            source.charge_random(objs)
        return blocks_read


class _Seen:
    """Every object sorted access has met, one column per object in
    first-seen order; restored from ``saved`` when resuming."""

    def __init__(self, sources: list, agg: AggregateFunction, saved=None) -> None:
        self.sources = sources
        self.agg = agg
        m = len(sources)
        n_objects = max(source.n_objects for source in sources)
        self.seen = np.zeros(n_objects, dtype=bool)
        self.column = np.zeros(n_objects, dtype=np.int64)
        if saved is None:
            self.ids = np.empty(0, dtype=np.int64)
            #: the round in which each object was first met
            self.first = np.empty(0, dtype=np.int64)
            #: per list: each object's rank there (``_UNSEEN`` until read)
            self.rank = np.empty((m, 0), dtype=np.int64)
            #: per list: each object's grade there, read in bulk
            self.grades = np.empty((m, 0), dtype=np.float64)
            self.complete = np.empty(0, dtype=bool)
            #: ``(column, depth)`` of every completion, in order
            self.completions: list[tuple[int, int]] = []
            return
        self.ids, self.first, self.grades = saved.ids, saved.first, saved.grades
        # the arrays a run writes in place
        self.rank = saved.rank.copy()
        self.complete = np.zeros(len(self.ids), dtype=bool)
        self.complete[saved.completed] = True
        self.completions = list(zip(saved.completed.tolist(), saved.completed_at.tolist()))
        self.seen[self.ids] = True
        self.column[self.ids] = np.arange(len(self.ids))

    def add_slab(self, lo: int, docs: np.ndarray, live: list[int]) -> None:
        m = len(self.sources)
        new_ids, met_at = new_objects(docs, self.seen)
        start = len(self.ids)
        self.seen[new_ids] = True
        self.column[new_ids] = np.arange(start, start + len(new_ids))
        self.ids = np.concatenate((self.ids, new_ids))
        self.first = np.concatenate((self.first, lo + met_at // m))
        self.grades = np.concatenate(
            (self.grades, np.array([source.grades_of(new_ids) for source in self.sources],
                                   dtype=np.float64).reshape(m, -1)), axis=1)
        self.rank = np.concatenate(
            (self.rank, np.full((m, len(new_ids)), _UNSEEN, dtype=np.int64)), axis=1)
        self.complete = np.concatenate((self.complete, np.zeros(len(new_ids), dtype=bool)))
        for i, count in enumerate(live):
            self.rank[i, self.column[docs[:count, i]]] = np.arange(lo, lo + count)

    def known(self, depth: int) -> np.ndarray:
        """Which grades the loop knows after ``depth`` rounds, for the
        objects met by then: shown above rank ``depth``, or completed."""
        count = int(np.searchsorted(self.first, depth))
        known = self.rank[:, :count] < depth
        if self.completions:
            if self.completions[-1][1] <= depth:
                known |= self.complete[:count]
            else:
                # a resume re-checking a depth its state completed past
                known[:, [col for col, at in self.completions if at <= depth]] = True
        return known

    def sorted_grades(self, depth: int) -> np.ndarray:
        """Per list, the grades its ranks below ``depth`` showed, 0.0
        past its end: the bottoms after each round, from the columns."""
        grades = np.zeros((len(self.sources), depth), dtype=np.float64)
        for row, ranks, column in zip(grades, self.rank, self.grades):
            shown = ranks < depth
            row[ranks[shown]] = column[shown]
        return grades

    def bounds(self, known: np.ndarray, floor) -> np.ndarray:
        """Each object's aggregate with every unknown grade at
        ``floor``: 0.0 for lower bounds, the bottoms as a column for
        upper ones."""
        grades = self.grades[:, :known.shape[1]]
        return combine_columns(self.agg, list(np.where(known, grades, floor)))

    def stops(self, known: np.ndarray, bottoms: np.ndarray, n: int,
              upper: np.ndarray | None = None, completed: int | None = None) -> bool:
        """The stop check after a round whose bottoms are ``bottoms``;
        ``upper`` holds the upper bounds when a completion just
        computed them, before completing column ``completed``."""
        lower = self.bounds(known, 0.0)
        if completed is not None:
            # a completed object's bounds are both its exact score
            upper[completed] = lower[completed]
        return _stops(
            lower, lambda: upper if upper is not None else self.bounds(known, bottoms[:, None]),
            self.ids[:known.shape[1]], n, self.agg.combine(bottoms.tolist()))

    def complete_best(self, known: np.ndarray, upper: np.ndarray, depth: int):
        """CA's completion: mark the incomplete object with the best
        ``(upper bound, smallest id)`` key complete (in ``known`` too)
        and return its column, or None when every object is complete."""
        candidates = np.flatnonzero(~known.all(axis=0))
        if not len(candidates):
            return None
        tops = upper[candidates]
        tied = candidates[tops == tops.max()]
        col = int(tied[np.argmin(self.ids[tied])])
        self.complete[col] = True
        self.completions.append((col, depth))
        known[:, col] = True
        return col

    def completed_by_source(self, since: int) -> list[np.ndarray]:
        """Per list, the objects completed after depth ``since`` that it
        had not shown by their completion depth, in completion order."""
        later = [(col, at) for col, at in self.completions if at > since] if since \
            else self.completions
        cols = np.array([col for col, _ in later], dtype=np.int64)
        depths = np.array([at for _, at in later], dtype=np.int64)
        missing = self.rank[:, cols] >= depths
        return [self.ids[cols][row] for row in missing]

    def capture(self, depth: int, **fields):
        """The columns of the objects met by ``depth``, as a read-only
        resume state."""
        from ..cache.resume import BoundResumeState

        count = int(np.searchsorted(self.first, depth))
        rank = self.rank[:, :count]
        return BoundResumeState(
            depth=depth, ids=self.ids[:count], first=self.first[:count],
            rank=np.where(rank < depth, rank, _UNSEEN), grades=self.grades[:, :count],
            completed=[col for col, _ in self.completions],
            completed_at=[at for _, at in self.completions], **fields)


def _stops(lower: np.ndarray, upper_of, ids: np.ndarray, n: int, virtual: float) -> bool:
    """The stop rule: the n-th best lower bound (canonical
    ``(-lower, id)`` order) is at least ``virtual`` and every upper
    bound outside the top n.  ``upper_of()`` gives the upper bounds,
    computed only when the cheaper tests pass."""
    if len(lower) < n:
        return False
    nth = lower[np.argpartition(lower, len(lower) - n)[len(lower) - n]]
    if nth < virtual:
        return False
    above = upper_of() > nth
    # objects below the n-th lower bound are all outside the top n
    if np.any(above & (lower < nth)):
        return False
    # of those tied with it, the top n keeps the smallest ids
    tied = lower == nth
    quota = n - int(np.count_nonzero(lower > nth))
    tied_ids = ids[tied]
    if len(tied_ids) <= quota:
        return True
    last_kept = np.partition(tied_ids, quota - 1)[quota - 1]
    return not np.any(above & tied & (ids > last_kept))


def _slab_events(lo: int, end: int, check_every: int, h: int | None):
    """Depths in ``(lo, end]`` with a check or a completion, ascending."""
    checks = range((lo // check_every + 1) * check_every, end + 1, check_every)
    if h is None:
        return checks
    return sorted(set(checks).union(range((lo // h + 1) * h, end + 1, h)))


def _check_resume(saved, m: int, agg: AggregateFunction, h: int | None,
                  check_every: int) -> None:
    for name, wanted in (("m_sources", m), ("agg_name", agg.name), ("h", h),
                         ("check_every", check_every)):
        have = getattr(saved, name, "?")
        if have != wanted:
            raise TopNError(f"resume state was captured with {name}={have!r}, "
                            f"query has {wanted!r}")


def run_bounds(sources: list, n: int, agg: AggregateFunction, engine: str, *,
               check_every: int, h: int | None = None, max_depth: int | None = None,
               cancel=None, resume_from=None, capture_state: bool = False) -> BoundRun:
    """Run NRA (``h`` None) or CA (completion every ``h`` rounds) over
    ``sources`` with the one-access-at-a-time loop's cadence and
    result; nothing is charged.  ``engine`` names the run in
    cancellation errors.  ``resume_from`` continues a
    :class:`~repro.cache.resume.BoundResumeState` captured over the
    same sources with the same ``h``, ``check_every``, aggregate and
    arity (module docstring); ``capture_state`` returns this run's
    state in :attr:`BoundRun.state`."""
    m = len(sources)
    traced = tracer.enabled()
    kind = "nra" if h is None else "ca"
    if resume_from is not None:
        _check_resume(resume_from, m, agg, h, check_every)
    state = _Seen(sources, agg, resume_from)
    bound_checks = 0
    stop_reason = "max_depth"
    bottoms = None
    # the run starts where the saved one ended
    saved_depth = depth = lo = resume_from.depth if resume_from is not None else 0
    read = since = [0] * m if resume_from is None else [
        int(np.count_nonzero(ranks < depth)) for ranks in state.rank]
    if resume_from is not None:
        limit = depth if max_depth is None else max(min(depth, max_depth), 0)
        if resume_from.n == n and limit == depth:
            bound_checks = resume_from.bound_checks
            if resume_from.stop_reason != "max_depth":
                stop_reason = resume_from.stop_reason
        else:
            # another n can stop at any check the saved run passed; the
            # inactive round that ends an exhausted run has none
            exhausted = resume_from.stop_reason == "exhausted" and limit == depth
            grades = state.sorted_grades(limit)
            depth = limit
            for event in range(check_every, limit - exhausted + 1, check_every):
                check_cancel(cancel, engine, event)
                known = state.known(event)
                bound_checks += 1
                stopped = state.stops(known, grades[:, event - 1], n)
                if traced:
                    tracer.event(f"{kind}.check", depth=event, stopped=stopped,
                                 objects_seen=known.shape[1])
                if stopped:
                    depth, stop_reason = event, "bounds"
                    break
            if exhausted and stop_reason == "max_depth":
                stop_reason = "exhausted"
    while stop_reason == "max_depth" and (max_depth is None or lo < max_depth):
        hi = slab_end(lo) if max_depth is None else min(slab_end(lo), max_depth)
        docs, grades, live = read_slab(sources, lo, hi)
        read = [total + count for total, count in zip(read, live)]
        state.add_slab(lo, docs, live)
        active_end = lo + max(live)
        exhausted = active_end < hi
        # every list ends inside the slab: one inactive round follows,
        # every bottom floored to 0 (the slab's padding)
        depth = active_end + 1 if exhausted else hi
        for event in _slab_events(lo, depth, check_every, h):
            check_cancel(cancel, engine, event)
            bottoms = grades[:, event - 1 - lo]
            known = state.known(event)
            upper = col = None
            if h is not None and event % h == 0 and known.shape[1]:
                upper = state.bounds(known, bottoms[:, None])
                col = state.complete_best(known, upper, event)
                if col is not None and traced:
                    tracer.event("ca.completion", depth=event, obj=int(state.ids[col]))
            if event % check_every == 0 and event <= active_end:
                bound_checks += 1
                stopped = state.stops(known, bottoms, n, upper, col)
                if traced:
                    tracer.event(f"{kind}.check", depth=event, stopped=stopped,
                                 objects_seen=known.shape[1])
                if stopped:
                    depth, stop_reason = event, "bounds"
                    break
        if exhausted and stop_reason == "max_depth":
            stop_reason = "exhausted"
        bottoms = grades[:, depth - 1 - lo]
        lo = hi
    if bottoms is None:
        # nothing read: the bottoms come from the saved columns
        bottoms = state.sorted_grades(depth)[:, depth - 1] if depth else np.zeros(m)
    known = state.known(depth)
    ids = state.ids[:known.shape[1]]
    captured = None
    if capture_state:
        captured = resume_from if resume_from is not None and depth <= saved_depth else \
            state.capture(depth, n=n, m_sources=m, agg_name=agg.name, h=h,
                          check_every=check_every, stop_reason=stop_reason,
                          bound_checks=bound_checks)
    return BoundRun(
        items=top_items(ids, state.bounds(known, 0.0), n),
        depth=depth,
        stop_reason=stop_reason,
        bound_checks=bound_checks,
        objects_seen=len(ids),
        bottom_aggregate=agg.combine(bottoms.tolist()),
        completions=len(state.completions) if depth >= saved_depth
        else sum(at <= depth for _, at in state.completions),
        ranks=[min(depth, count) for count in read],
        since=since,
        completed=state.completed_by_source(saved_depth),
        state=captured,
    )
