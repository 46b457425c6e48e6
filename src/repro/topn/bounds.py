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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import tracer
from .aggregates import AggregateFunction, combine_columns
from .heap import canonical_topn
from .result import RankedItem
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
    #: per source: the ranks sorted access read, and whether a round
    #: met the end of the list
    ranks: list[int]
    ended: list[bool]
    #: per source: the completed objects whose grade there came by
    #: random access, in completion order
    completed: list[np.ndarray]

    def charge(self, sources: list) -> int:
        """Charge through each source what one access at a time did;
        returns the storage blocks read."""
        blocks_read = 0
        for source, ranks, ended, objs in zip(sources, self.ranks, self.ended,
                                              self.completed):
            blocks_read += source.charge_sorted(0, ranks, ended=ended)
            source.charge_random(objs)
        return blocks_read


class _Seen:
    """Every object sorted access has met, one column per object in
    first-seen order."""

    def __init__(self, sources: list, agg: AggregateFunction) -> None:
        self.sources = sources
        self.agg = agg
        m = len(sources)
        n_objects = max(source.n_objects for source in sources)
        self.seen = np.zeros(n_objects, dtype=bool)
        self.column = np.zeros(n_objects, dtype=np.int64)
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
            known |= self.complete[:count]
        return known

    def bounds(self, known: np.ndarray, floor) -> np.ndarray:
        """Each object's aggregate with every unknown grade at
        ``floor``: 0.0 for lower bounds, the bottoms as a column for
        upper ones."""
        grades = self.grades[:, :known.shape[1]]
        return combine_columns(self.agg, list(np.where(known, grades, floor)))

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

    def completed_by_source(self) -> list[np.ndarray]:
        """Per list, the completed objects it had not shown by their
        completion depth, in completion order."""
        cols = np.array([col for col, _ in self.completions], dtype=np.int64)
        depths = np.array([depth for _, depth in self.completions], dtype=np.int64)
        missing = self.rank[:, cols] >= depths
        return [self.ids[cols][row] for row in missing]


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


def run_bounds(sources: list, n: int, agg: AggregateFunction, engine: str, *,
               check_every: int, h: int | None = None, max_depth: int | None = None,
               cancel=None) -> BoundRun:
    """Run NRA (``h`` None) or CA (completion every ``h`` rounds) over
    ``sources`` with the one-access-at-a-time loop's cadence and
    result; nothing is charged.  ``engine`` names the run in
    cancellation errors."""
    m = len(sources)
    traced = tracer.enabled()
    kind = "nra" if h is None else "ca"
    state = _Seen(sources, agg)
    read = [0] * m
    bound_checks = 0
    # max_depth <= 0: no round runs
    depth, stop_reason, bottoms = 0, "max_depth", np.zeros(m)
    lo = 0
    while max_depth is None or lo < max_depth:
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
                lower = state.bounds(known, 0.0)
                if col is not None:
                    # a completed object's bounds are both its exact score
                    upper[col] = lower[col]
                stopped = _stops(
                    lower,
                    lambda: upper if upper is not None else state.bounds(known, bottoms[:, None]),
                    state.ids[:known.shape[1]], n, agg.combine(bottoms.tolist()))
                if traced:
                    tracer.event(f"{kind}.check", depth=event, stopped=stopped,
                                 objects_seen=known.shape[1])
                if stopped:
                    depth, stop_reason = event, "bounds"
                    break
        if exhausted and stop_reason == "max_depth":
            stop_reason = "exhausted"
        bottoms = grades[:, depth - 1 - lo]
        if stop_reason != "max_depth":
            break
        lo = hi
    known = state.known(depth)
    ids = state.ids[:known.shape[1]]
    return BoundRun(
        items=canonical_topn(ids, state.bounds(known, 0.0), n),
        depth=depth,
        stop_reason=stop_reason,
        bound_checks=bound_checks,
        objects_seen=len(ids),
        bottom_aggregate=agg.combine(bottoms.tolist()),
        completions=len(state.completions),
        ranks=[min(depth, count) for count in read],
        ended=[depth > count for count in read],
        completed=state.completed_by_source(),
    )
