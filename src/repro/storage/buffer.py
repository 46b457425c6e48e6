"""A simulated, page-granular buffer manager.

The reproduction measures "amount of data processed" the way a database
would: in *pages*.  Every BAT (see :mod:`repro.storage.bat`) is backed
by a logical segment of fixed-size pages (``page_tuples`` tuples per
page).  Kernel operations route their access patterns through the
buffer manager, which keeps a pool of ``capacity_pages`` frames and
charges :mod:`repro.storage.stats` counters:

* a page request that misses the pool charges one ``page_read``;
* a page request that hits charges one ``buffer_hit``;
* sequential scans request the page range covering the scanned tuples;
* random (positional) accesses request the single page containing the
  tuple.

This is a *simulation*: no bytes are moved, only accounting happens —
a deterministic, monotone proxy for I/O volume.

Replacement is LRU: the pool evicts its least recently requested
frame.  Frames can be **pinned**: a pinned page is never chosen as an
eviction victim until every pin is released, which is how callers keep
a working set resident across a multi-step operation.

The pool is process-wide and the query server's worker threads
request pages concurrently, so the manager follows the
:mod:`repro.sync` declaration protocol: the counters, the pin table
and the frame table are all guarded by the manager's ``_lock``, and
:func:`repro check <repro.analysis.concurrency>` holds the class to
it.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import BufferError_
from ..sync import acquires, declares_shared_state, guarded_by, make_lock, \
    releases
from . import stats
from ..obs import metrics as _metrics

#: default number of tuples that fit on one simulated page
DEFAULT_PAGE_TUPLES = 256
#: default pool capacity, in pages
DEFAULT_CAPACITY_PAGES = 4096

#: module-level installation point, swapped only in single-threaded setup
SHARED_STATE = {"_default_buffer": "<config>"}


@declares_shared_state
class BufferManager:
    """Pool of simulated page frames with LRU eviction.

    Parameters
    ----------
    capacity_pages:
        Number of page frames in the pool.  Requests beyond capacity
        evict the least recently used unpinned frame.
    page_tuples:
        Tuples per page; converts tuple positions to page numbers.
    """

    SHARED_STATE = {
        "_frames": "_lock",
        "_pins": "_lock",
        "requests": "_lock",
        "hits": "_lock",
        "misses": "_lock",
        "evictions": "_lock",
    }

    def __init__(
        self,
        capacity_pages: int = DEFAULT_CAPACITY_PAGES,
        page_tuples: int = DEFAULT_PAGE_TUPLES,
    ) -> None:
        if capacity_pages <= 0:
            raise BufferError_(f"capacity_pages must be positive, got {capacity_pages}")
        if page_tuples <= 0:
            raise BufferError_(f"page_tuples must be positive, got {page_tuples}")
        self.capacity_pages = capacity_pages
        self.page_tuples = page_tuples
        self._lock = make_lock("storage.buffer")
        #: resident (segment_id, page_no) keys, least recently used first
        self._frames: OrderedDict[tuple[int, int], None] = OrderedDict()
        #: (segment_id, page_no) -> pin count; pinned frames are never victims
        self._pins: dict[tuple[int, int], int] = {}
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- page-level interface ---------------------------------------------

    def request(self, segment_id: int, page_no: int) -> bool:
        """Request one page; return ``True`` on a buffer hit
        (:meth:`request_pages` of one key)."""
        return self.request_pages([(segment_id, page_no)]) == 1

    def request_pages(self, keys) -> int:
        """Request the ``(segment_id, page_no)`` pages ``keys``, in
        order, under one acquisition of the pool lock; return how many
        hit.

        Each request is the one-page request's: same residency check,
        recency update or admission, and counter update.  Charges one
        ``buffer_hit`` or ``page_read`` per request on every active
        :class:`~repro.storage.stats.CostCounter`, and the ``buffer.*``
        metrics, once for the batch — for the requests made before an
        admission that raises, too.
        """
        hits = misses = 0
        try:
            with self._lock:
                for key in keys:
                    self.requests += 1
                    if key in self._frames:
                        self._frames.move_to_end(key)
                        self.hits += 1
                        hits += 1
                    else:
                        self.misses += 1
                        self._admit(key)
                        misses += 1
        finally:
            # cost counters are thread-local and the metrics instruments
            # take their own locks: charge outside the pool lock
            if hits:
                stats.charge_buffer_hits(hits)
                _metrics.inc("buffer.hits", hits)
            if misses:
                stats.charge_page_reads(misses)
                _metrics.inc("buffer.misses", misses)
        return hits

    @guarded_by("_lock")
    def _admit(self, key: tuple[int, int]) -> None:
        """Make ``key`` the most recently used frame, evicting the least
        recently used unpinned frames while the pool overflows."""
        if key in self._frames:
            self._frames.move_to_end(key)
        else:
            self._frames[key] = None
        while len(self._frames) > self.capacity_pages:
            victim = next((frame for frame in self._frames
                           if frame not in self._pins), None)
            if victim is None:
                raise BufferError_(
                    f"buffer pool overflows capacity ({self.capacity_pages} "
                    f"pages) with every remaining frame pinned")
            del self._frames[victim]
            self.evictions += 1
            _metrics.inc("buffer.evictions")

    # -- pinning -------------------------------------------------------------

    @acquires("pin")
    def pin(self, segment_id: int, page_no: int) -> None:
        """Pin a page: it is admitted if absent (uncharged bookkeeping —
        request it first to model the I/O) and exempt from eviction
        until every pin is released."""
        key = (segment_id, page_no)
        with self._lock:
            if key not in self._frames:
                self._frames[key] = None
            self._pins[key] = self._pins.get(key, 0) + 1

    @releases("pin")
    def unpin(self, segment_id: int, page_no: int) -> None:
        """Release one pin; raises when the page is not pinned."""
        key = (segment_id, page_no)
        with self._lock:
            count = self._pins.get(key)
            if count is None:
                raise BufferError_(f"page {key} is not pinned")
            if count <= 1:
                del self._pins[key]
            else:
                self._pins[key] = count - 1

    @property
    def pinned_pages(self) -> int:
        """Number of distinct pinned frames."""
        return len(self._pins)

    # -- tuple-level helpers ------------------------------------------------

    def page_of(self, tuple_pos: int) -> int:
        """Page number containing tuple position ``tuple_pos``."""
        return tuple_pos // self.page_tuples

    def pages_for(self, n_tuples: int) -> int:
        """Number of pages covering ``n_tuples`` consecutive tuples."""
        if n_tuples <= 0:
            return 0
        return (n_tuples + self.page_tuples - 1) // self.page_tuples

    def scan(self, segment_id: int, n_tuples: int, start_tuple: int = 0) -> int:
        """Sequentially request the pages holding ``n_tuples`` tuples
        starting at ``start_tuple``; return the number of misses."""
        if n_tuples <= 0:
            return 0
        first = self.page_of(start_tuple)
        last = self.page_of(start_tuple + n_tuples - 1)
        hits = self.request_pages([(segment_id, page_no)
                                   for page_no in range(first, last + 1)])
        stats.charge_tuples_read(n_tuples)
        return last + 1 - first - hits

    def random_read(self, segment_id: int, tuple_pos: int) -> bool:
        """Positionally access one tuple; return ``True`` on a hit."""
        hit = self.request(segment_id, self.page_of(tuple_pos))
        stats.charge_tuples_read(1)
        return hit

    def write(self, segment_id: int, n_tuples: int, start_tuple: int = 0) -> None:
        """Charge the page writes for persisting ``n_tuples`` tuples."""
        pages = self.pages_for(n_tuples)
        stats.charge_page_writes(pages)
        stats.charge_tuples_written(n_tuples)
        _metrics.inc("buffer.page_writes", pages)
        # written pages are hot afterwards
        first = self.page_of(start_tuple)
        with self._lock:
            for page_no in range(first, first + pages):
                self._admit((segment_id, page_no))

    # -- management ----------------------------------------------------------

    def flush(self) -> None:
        """Empty the pool (e.g. between benchmark repetitions).
        Pinned frames stay resident — a pin is a residency promise."""
        with self._lock:
            for key in [key for key in self._frames if key not in self._pins]:
                del self._frames[key]

    def evict_segment(self, segment_id: int) -> None:
        """Drop all unpinned frames belonging to one segment (BAT
        dropped)."""
        with self._lock:
            for key in [key for key in self._frames
                        if key[0] == segment_id and key not in self._pins]:
                del self._frames[key]

    @property
    def resident_pages(self) -> int:
        """Number of frames currently occupied."""
        return len(self._frames)

    def hit_rate(self) -> float:
        """Fraction of requests served from the pool (0.0 if none yet)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferManager(capacity_pages={self.capacity_pages}, "
            f"page_tuples={self.page_tuples}, "
            f"resident={self.resident_pages}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_default_buffer = BufferManager()


def get_buffer_manager() -> BufferManager:
    """Return the process-wide buffer manager used by kernel operations."""
    return _default_buffer


def set_buffer_manager(manager: BufferManager) -> BufferManager:
    """Install ``manager`` as the process-wide buffer manager and
    return the previous one (so callers can restore it)."""
    global _default_buffer
    previous = _default_buffer
    _default_buffer = manager
    return previous
