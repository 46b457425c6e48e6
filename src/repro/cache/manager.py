"""The query cache: fingerprint-keyed results and resume state.

One :class:`QueryCache` holds an LRU map of :class:`CacheEntry` objects,
keyed by the fingerprint digest.  Each entry can carry, independently:

* exact answers per requested depth (``results[n]``);
* a resume payload (TA frontier, NRA/CA bound state, or quit/continue
  accumulator).

Serving discipline
------------------
A top-``n`` request is served from a cached top-``m`` (``m ≥ n``) only
when the entry is **prefix-safe**: the engine's reported scores must
not depend on its stopping depth.  That holds for the exact engines
(naive, TA, the sharded parallel merge — they return true scores
of the true top-N, so any prefix of a deeper answer *is* the shallower
answer) and for quit/continue (the accumulator is depth-independent and
the tail cut is deterministic).  It does **not** hold for NRA/CA, whose
reported lower bounds tighten with depth — those entries serve exact-
``n`` repeats only; any other ``n`` resumes the saved bound state,
which recomputes where the cold run at that ``n`` stops.

Entries whose ``complete`` flag is set hold the full corpus ranking
(the producing run drained every source), so they serve *any* ``n``.

A served TA stream is cut from a whole run, not from an answer, so it
looks up with ``frontier=True``: that serves only the run stored at
exactly the requested ``n`` together with its
:class:`~repro.cache.resume.TAResumeState`.

Nothing is stored under an epoch the cache has already invalidated: a
run that started before a corpus mutation and finished after it is
dropped rather than kept as dead weight.

Concurrency: the entry map and all counters are guarded by ``_lock``
under the ``repro.sync`` protocol; entries hand out immutable items
(:class:`~repro.topn.result.RankedItem` is frozen) and resume states
are never modified once captured.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from ..obs import metrics as _metrics
from ..sync import declares_shared_state, make_lock
from ..topn.result import TopNResult
from .fingerprint import QueryFingerprint
from .resume import TAResumeState

#: module-level registry of live caches, so ``metrics.reset()`` (and
#: therefore ``repro profile``) can zero hit/miss counters everywhere.
#: Populated at construction (single-threaded setup); weak so dropped
#: caches vanish.
_instances: "weakref.WeakSet[QueryCache]" = weakref.WeakSet()

SHARED_STATE = {
    "_instances": "<config>",
}


def _reset_all_counters() -> None:
    for cache in list(_instances):
        cache.reset_counters()


_metrics.add_reset_hook(_reset_all_counters)


@dataclass
class CacheEntry:
    """Everything cached for one query fingerprint.

    Plain data: every read and write happens under the owning
    :class:`QueryCache`'s lock (after hand-out, resume states are
    only read).
    """

    fingerprint: QueryFingerprint
    #: exact answers by requested depth
    results: dict = field(default_factory=dict)
    #: True when any cached top-m answers any top-n with n ≤ m
    prefix_safe: bool = True
    #: True when a cached answer covers the entire candidate set
    complete: bool = False
    #: TAResumeState / BoundResumeState / AccumulatorResumeState,
    #: engine-dependent
    resume: object = None
    #: free-form reuse hints (e.g. recorded stop depth per n)
    hints: dict = field(default_factory=dict)

    def best_n(self) -> int:
        return max(self.results) if self.results else 0


def _served(cached: TopNResult, n: int, mode: str) -> TopNResult:
    """Re-wrap a cached answer (or its prefix) for a top-``n`` request."""
    stats = dict(cached.stats)
    stats["cache"] = mode
    stats["cache_source_n"] = cached.n_requested
    return TopNResult(
        items=list(cached.items[:n]),
        n_requested=n,
        strategy=cached.strategy,
        safe=cached.safe,
        stats=stats,
    )


@declares_shared_state
class QueryCache:
    """LRU cache of query fingerprints → answers and resume state."""

    SHARED_STATE = {
        "_entries": "_lock",
        "hits": "_lock",
        "misses": "_lock",
        "resumes": "_lock",
        "stores": "_lock",
        "evictions": "_lock",
        "invalidations": "_lock",
        "_epoch_floor": "_lock",
    }

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            max_entries = 1
        self.max_entries = max_entries
        self._lock = make_lock("cache.query")
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.resumes = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        #: the epoch of the last invalidation: stores below it are refused
        self._epoch_floor = 0
        _instances.add(self)

    # -- lookup ------------------------------------------------------------

    def lookup(self, fingerprint: QueryFingerprint, n: int, *, frontier: bool = False):
        """Try to answer top-``n`` from cache.

        Returns ``(result, entry)``: ``result`` is a served
        :class:`TopNResult` on a hit (counted), else ``None`` (counted
        as a miss); ``entry`` is the fingerprint's entry when one exists
        — a miss with an entry is the resume opportunity the caller
        should inspect (its resume state).

        ``frontier=True`` asks for a whole TA run rather than an
        answer: it hits only when the entry holds the run stored at
        exactly ``n`` and its frontier, which the served result then
        carries as ``stats["resume_state"]``.
        """
        digest = fingerprint.digest()
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
            if entry is None:
                result = None
            elif frontier:
                result = self._serve_run_locked(entry, n)
            else:
                result = self._serve_locked(entry, n)
            if result is not None:
                self.hits += 1
            else:
                self.misses += 1
        if result is not None:
            _metrics.inc("cache.hits")
        else:
            _metrics.inc("cache.misses")
        return result, entry

    def _serve_locked(self, entry: CacheEntry, n: int):
        if n in entry.results:
            return _served(entry.results[n], n, "hit")
        if entry.complete and entry.results:
            deepest = entry.results[entry.best_n()]
            return _served(deepest, n, "hit-complete")
        if entry.prefix_safe:
            covering = [m for m in entry.results if m >= n]
            if covering:
                return _served(entry.results[min(covering)], n, "hit-prefix")
        return None

    def _serve_run_locked(self, entry: CacheEntry, n: int):
        state = entry.resume
        if n not in entry.results or not isinstance(state, TAResumeState) or state.n != n:
            return None
        served = _served(entry.results[n], n, "hit")
        served.stats["resume_state"] = state
        return served

    # -- store -------------------------------------------------------------

    def store(self, fingerprint: QueryFingerprint, n: int,
              result: TopNResult | None = None, *,
              prefix_safe: bool = True, complete: bool = False,
              resume: object = None,
              hints: dict | None = None) -> CacheEntry | None:
        """Record a fresh (not cache-served) outcome for ``fingerprint``.

        Only pass results computed cold or by certified resume — the
        callers never re-store served answers.  ``prefix_safe=False``
        demotes the whole entry (one depth-dependent answer poisons
        prefix serving for the fingerprint).  Returns the entry, or
        None when the fingerprint's epoch was already invalidated.
        """
        digest = fingerprint.digest()
        with self._lock:
            if fingerprint.epoch < self._epoch_floor:
                return None
            entry = self._entries.get(digest)
            if entry is None:
                entry = CacheEntry(fingerprint=fingerprint)
                self._entries[digest] = entry
            self._entries.move_to_end(digest)
            if result is not None:
                entry.results[n] = result
            if not prefix_safe:
                entry.prefix_safe = False
            if complete:
                entry.complete = True
            if resume is not None:
                entry.resume = resume
            if hints:
                entry.hints.update(hints)
            self.stores += 1
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        _metrics.inc("cache.stores")
        if evicted:
            _metrics.inc("cache.evictions", evicted)
        return entry

    def note_resume(self) -> None:
        """Count one answer produced by resuming cached state."""
        with self._lock:
            self.resumes += 1
        _metrics.inc("cache.resumes")

    # -- invalidation ------------------------------------------------------

    def invalidate_below_epoch(self, epoch: int) -> int:
        """Drop entries built at an earlier corpus epoch.

        Stale entries can never *hit* (the epoch is part of the key),
        so this is garbage collection, not correctness — called on
        every epoch bump to keep the LRU from carrying dead weight.
        Later stores below ``epoch`` are refused for the same reason.
        """
        with self._lock:
            self._epoch_floor = max(self._epoch_floor, epoch)
            stale = [digest for digest, entry in self._entries.items()
                     if entry.fingerprint.epoch < epoch]
            for digest in stale:
                del self._entries[digest]
            self.invalidations += len(stale)
        if stale:
            _metrics.inc("cache.invalidations", len(stale))
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> dict:
        """Snapshot of the cache-effectiveness counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "resumes": self.resumes,
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def reset_counters(self) -> None:
        """Zero the effectiveness counters (cached data is kept)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.resumes = 0
            self.stores = 0
            self.evictions = 0
            self.invalidations = 0
