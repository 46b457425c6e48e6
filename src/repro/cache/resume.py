"""Resumable top-N state: continue a top-``m`` from a cached top-``n`` run.

Blok's "incremental (continue) evaluation" issue: the user who asked
for the top 10 comes back for the top 100, and the follow-up should
*continue* from the first run's frontier rather than redo its work.
Each mechanism below is a read-only snapshot of one engine's own
state, so a resumed run is the cold run at the new ``n``: same items,
scores, tie order and stats, charging only what the capture did not.

**TA frontier snapshots** (:class:`TAResumeState`).  TA random-access-
completes every object the moment it is first seen, so all bookkeeping
is *exact*: the seen objects with their scores and first-seen depths,
plus τ at every processed depth, reconstruct the algorithm state
bit-for-bit.  A resumed top-``m`` first re-evaluates the stop rule at
the saved depth (a cold top-``m`` checks there too — skipping that
check could read deeper and change tie outcomes), then continues the
depth loop.  Because the heap-``m`` threshold is never above the
heap-``n`` threshold at equal depth, a cold top-``m`` can never stop
*earlier* than the saved frontier, so the resumed run is
state-identical to cold at every depth it visits.

**Bound snapshots** (:class:`BoundResumeState`) for NRA and CA.  The
bound administration of :mod:`repro.topn.bounds` keeps, per seen
object, its grade and rank in every list, and CA's completions in
order with their depths; none of that depends on ``n``.  What does depend on
``n`` is where the run stops, and not monotonically: with two fully
seen objects and a high virtual upper bound, ``n=2`` stops while
``n=1`` must keep reading, so a larger ``n`` can stop *shallower*.  A
resume at the captured ``n`` therefore continues from the saved depth;
a resume at any other ``n`` first re-evaluates every stop check up to
the saved depth over the saved columns (the bottoms at each depth are
the grades the lists showed there), charging nothing, and reads on
only when none of them stops.  A capture from a resumed run is never
shallower than the state it resumed from.  A state resumes over the
sources and storage it was captured on.

**Accumulator snapshots** (:class:`AccumulatorResumeState`) for
quit/continue.  The accumulator phase is independent of ``n`` — only
the final ``topn_tail`` cut depends on it — so resuming is rerunning
the tail cut over the cached candidate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _read_only(state, names_dtypes) -> None:
    """Store each named field of ``state`` as a read-only array."""
    for name, dtype in names_dtypes:
        array = np.asarray(getattr(state, name), dtype=dtype)
        array.flags.writeable = False
        setattr(state, name, array)


@dataclass
class TAResumeState:
    """Frontier snapshot of one Threshold-Algorithm run.

    The four arrays are read-only: cache entries and a served stream
    share one snapshot across threads, and a resumed run builds new
    arrays instead of extending these."""

    #: the ``n`` the snapshot was taken at (resume targets should exceed it)
    n: int
    #: number of sources (arity must match on resume)
    m_sources: int
    #: aggregate name (aggregation must match on resume)
    agg_name: str
    #: every object seen under sorted access, in first-seen order
    ids: np.ndarray
    #: each object's exact aggregate
    scores: np.ndarray
    #: the depth at which each object was first seen (non-decreasing)
    first_seen: np.ndarray
    #: τ at every processed depth; its length is the next sorted-access depth
    tau: np.ndarray
    #: per source, the ranks one sorted-access charge covered: 1, or the
    #: block size of block storage (a resume over other units re-reads
    #: the block holding the saved depth)
    sorted_units: tuple
    #: True when every source was drained (resume returns immediately)
    exhausted: bool = False
    #: over block storage, each source's stored list length, from which
    #: a cut counts its blocks without the sources; None otherwise
    list_lengths: tuple | None = None

    def __post_init__(self) -> None:
        _read_only(self, (("ids", np.int64), ("scores", np.float64),
                          ("first_seen", np.int64), ("tau", np.float64)))

    @property
    def depth_next(self) -> int:
        """The next sorted-access depth (the run processed depths below)."""
        return len(self.tau)


@dataclass
class BoundResumeState:
    """Snapshot of one NRA or CA bound administration, up to ``depth``.

    One column per object met by then, in first-seen order.  The
    arrays are read-only: cache entries and a served stream share one
    snapshot across threads, and a resumed run copies what it extends.
    """

    #: the ``n`` the snapshot was taken at
    n: int
    #: number of sources (arity must match on resume)
    m_sources: int
    #: aggregate name (aggregation must match on resume)
    agg_name: str
    #: CA's completion period, or None for NRA (must match on resume)
    h: int | None
    #: the stop-check period (must match on resume)
    check_every: int
    #: rounds run; every array below describes the state after them
    depth: int
    stop_reason: str
    bound_checks: int
    #: every object met, in first-seen order
    ids: np.ndarray
    #: the round in which each object was first met (non-decreasing)
    first: np.ndarray
    #: per list, each object's rank there, or int64 max when the list
    #: had not shown it above ``depth``
    rank: np.ndarray
    #: per list, each object's grade there
    grades: np.ndarray
    #: the columns CA completed by random access, in completion order
    completed: np.ndarray
    #: the depth of each of those completions (increasing)
    completed_at: np.ndarray

    def __post_init__(self) -> None:
        _read_only(self, (("ids", np.int64), ("first", np.int64), ("rank", np.int64),
                          ("grades", np.float64), ("completed", np.int64),
                          ("completed_at", np.int64)))


@dataclass
class AccumulatorResumeState:
    """Candidate arrays of one quit/continue accumulation phase."""

    strategy: str
    budget_fraction: float
    terms: tuple
    #: admitted candidate doc ids (ascending) and their accumulated scores
    candidates: object
    scores: object
    #: replicated run statistics (the accumulation phase's bookkeeping)
    run_stats: dict = field(default_factory=dict)
