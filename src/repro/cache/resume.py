"""Resumable top-N state: continue a top-``m`` from a cached top-``n`` run.

Blok's "incremental (continue) evaluation" issue: the user who asked
for the top 10 comes back for the top 100, and the follow-up should
*continue* from the first run's frontier rather than redo its work.
Three mechanisms, matched to what each engine can certify:

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

**Access replay logs** (:class:`ReplayLog` / :class:`ReplaySource`) for
NRA and CA.  A true frontier resume is *uncertifiable* for bound-
administration engines: their reported scores are lower bounds at
termination depth, and a cold top-``m`` can legitimately stop at a
*shallower* depth than a cold top-``n`` (a counterexample: with two
fully-seen objects and a high virtual upper bound, ``n=2`` stops while
``n=1`` must keep reading), so continuing from the deeper ``n``
frontier would report different — deeper, larger — lower bounds.  The
replay log instead memoizes the sorted-access prefix and every random
access of the first run; the resumed run executes the cold algorithm
verbatim with memoized sources, charging zero sorted/random accesses
for the prefix.  Equivalence is by construction; the saved cost is the
expensive inverted-list / feature-scan work the paper points at.  The
slab engines read through the wrapped source's bulk reads and charge
afterwards through the wrapper, which splits each charge into the
logged part (replayed) and the rest (charged and logged), as
one-at-a-time access would have.

**Accumulator snapshots** (:class:`AccumulatorResumeState`) for
quit/continue.  The accumulator phase is independent of ``n`` — only
the final ``topn_tail`` cut depends on it — so resuming is rerunning
the tail cut over the cached candidate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SourceExhaustedError, TopNError
from ..obs import metrics as _metrics
from ..storage import stats as _stats
from ..sync import declares_shared_state, make_lock


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

    def __post_init__(self) -> None:
        for name, dtype in (("ids", np.int64), ("scores", np.float64),
                            ("first_seen", np.int64), ("tau", np.float64)):
            array = np.asarray(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            setattr(self, name, array)

    @property
    def depth_next(self) -> int:
        """The next sorted-access depth (the run processed depths below)."""
        return len(self.tau)

    def covers(self) -> int:
        """How many result items this frontier can certify: all of them
        (the snapshot is algorithm state, not an answer prefix)."""
        return self.n


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


@declares_shared_state
class ReplayLog:
    """Memoized access history of one graded source.

    The first (cold) run appends through :meth:`record_sorted` /
    :meth:`record_random`; resumed runs serve the prefix from memory.
    Two threads may share a log through the query cache, so every
    mutation and prefix read is under ``_lock``.
    """

    SHARED_STATE = {
        "sorted_prefix": "_lock",
        "random_grades": "_lock",
        "exhausted_at": "_lock",
    }

    #: prefix reads and appends only under "cache.replay": the log is
    #: shared across resumed runs, so it must never wait on another
    #: lock while held (checked statically by MOA1105)
    LOCK_LEAF = True

    def __init__(self, token: tuple = ()) -> None:
        #: the source-identity token the log belongs to
        self.token = token
        self._lock = make_lock("cache.replay")
        #: ``(obj, grade)`` at rank i, for every rank accessed so far
        self.sorted_prefix: list[tuple[int, float]] = []
        #: memoized random accesses: obj -> grade
        self.random_grades: dict[int, float] = {}
        #: rank at which the source reported exhaustion (None = unknown)
        self.exhausted_at: int | None = None

    def sorted_at(self, rank: int):
        """The memoized ``(obj, grade)`` at ``rank``, or ``None``."""
        with self._lock:
            if rank < len(self.sorted_prefix):
                return self.sorted_prefix[rank]
        return None

    def record_sorted(self, rank: int, obj: int, grade: float) -> None:
        with self._lock:
            if rank == len(self.sorted_prefix):
                self.sorted_prefix.append((obj, grade))

    def record_sorted_run(self, lo: int, objs: list, grades: list) -> None:
        """Record ranks ``lo, lo + 1, ...``; ranks already logged, or
        beyond a gap in the log, are left alone."""
        with self._lock:
            start = len(self.sorted_prefix) - lo
            if 0 <= start < len(objs):
                self.sorted_prefix.extend(zip(objs[start:], grades[start:]))

    def random_at(self, obj: int):
        with self._lock:
            return self.random_grades.get(obj)

    def record_random(self, obj: int, grade: float) -> None:
        with self._lock:
            self.random_grades[obj] = grade

    def known_exhausted(self, rank: int) -> bool:
        with self._lock:
            return self.exhausted_at is not None and rank >= self.exhausted_at

    def known_live(self, rank: int) -> bool:
        """Whether the log proves rank is *not* past the end."""
        with self._lock:
            if rank < len(self.sorted_prefix):
                return True
            return self.exhausted_at is not None and rank < self.exhausted_at

    def record_exhausted(self, rank: int) -> None:
        with self._lock:
            if self.exhausted_at is None or rank < self.exhausted_at:
                self.exhausted_at = rank

    def depth(self) -> int:
        with self._lock:
            return len(self.sorted_prefix)


class ReplaySource:
    """A graded source backed by a :class:`ReplayLog`.

    Accesses inside the memoized prefix are served from the log and
    charged only as ``cache.replayed_accesses`` (an *extra* counter —
    they cost no sorted/random access in the simulated model, which is
    exactly the resume saving).  Accesses beyond the prefix fall
    through to the wrapped source, charge normally, and extend the log,
    so consecutive resumed runs keep deepening the shared frontier.

    The bulk reads come from the wrapped source, whose ranks and grades
    the log memoizes; the bulk charges split like the scalar accesses.
    """

    def __init__(self, inner, log: ReplayLog) -> None:
        self.inner = inner
        self.log = log
        self.name = getattr(inner, "name", "source")
        #: accesses served from the log by *this* wrapper (run-local)
        self.replayed = 0

    @property
    def n_objects(self) -> int:
        return self.inner.n_objects

    def sorted_access(self, rank: int):
        cached = self.log.sorted_at(rank)
        if cached is not None:
            self._replay(1)
            return cached
        if self.log.known_exhausted(rank):
            raise SourceExhaustedError(
                f"sorted access past end of source {self.name!r} (rank {rank})")
        obj, grade = self.inner.sorted_access(rank)
        self.log.record_sorted(rank, obj, grade)
        return obj, grade

    def random_access(self, obj_id: int) -> float:
        cached = self.log.random_at(obj_id)
        if cached is not None:
            self._replay(1)
            return cached
        grade = self.inner.random_access(obj_id)
        self.log.record_random(obj_id, grade)
        return grade

    def exhausted(self, rank: int) -> bool:
        if self.log.known_live(rank):
            return False
        if self.log.known_exhausted(rank):
            return True
        ended = self.inner.exhausted(rank)
        if ended:
            self.log.record_exhausted(rank)
        return ended

    def sorted_slab(self, lo: int, hi: int):
        return self.inner.sorted_slab(lo, hi)

    def grades_of(self, obj_ids):
        return self.inner.grades_of(obj_ids)

    def charge_sorted(self, lo: int, hi: int, ended: bool = False) -> int:
        logged = min(max(self.log.depth() - lo, 0), hi - lo)
        self._replay(logged)
        blocks = 0
        if lo + logged < hi:
            start = lo + logged
            blocks = self.inner.charge_sorted(start, hi)
            objs, grades = self.inner.sorted_slab(start, hi)
            self.log.record_sorted_run(start, objs.tolist(), grades.tolist())
        if ended:
            self.log.record_exhausted(hi)
        return blocks

    def charge_random(self, obj_ids) -> None:
        objs = [int(obj) for obj in obj_ids]
        fresh = [obj for obj in objs if self.log.random_at(obj) is None]
        self._replay(len(objs) - len(fresh))
        if fresh:
            self.inner.charge_random(fresh)
            grades = self.inner.grades_of(np.array(fresh, dtype=np.int64))
            for obj, grade in zip(fresh, grades.tolist()):
                self.log.record_random(obj, grade)

    def _replay(self, count: int) -> None:
        if count:
            self.replayed += count
            _stats.charge_extra("cache.replayed_accesses", count)
            _metrics.inc("cache.replayed_accesses", count)


def wrap_sources(sources, logs) -> list[ReplaySource]:
    """Wrap each source with its replay log (lists must align)."""
    if len(sources) != len(logs):
        raise TopNError(
            f"replay logs do not match the query: {len(logs)} logs for "
            f"{len(sources)} sources")
    return [ReplaySource(source, log) for source, log in zip(sources, logs)]


def replayed_total(sources) -> int:
    """Accesses served from logs across one run's wrapped sources."""
    return sum(getattr(source, "replayed", 0) for source in sources)
