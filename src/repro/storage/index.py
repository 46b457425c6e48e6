"""Index structures over BATs: a dense hash index and the paper's
*non-dense* (sparse) index.

The paper's Step 1 plans to "introduce a non-dense index in the system
to speed up processing the large fragment".  A non-dense (sparse)
index keeps one entry per *page-sized stride* of a sorted column rather
than one per tuple, so it is tiny and cheap to maintain, and a probe
touches only ``O(log(n/stride))`` in-memory entries plus the one stride
of the base BAT that can contain the key.

:class:`HashIndex` is the conventional dense alternative (one entry per
distinct value); it answers equality probes in one step but costs a
full build pass and memory proportional to the data.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import IndexError_
from . import stats
from .bat import BAT
from .buffer import get_buffer_manager


class SparseIndex:
    """Non-dense index over a *tail-sorted* BAT.

    Stores every ``stride``-th tail value together with its position.
    ``stride`` defaults to the buffer page size so one stride is one
    simulated page.

    Probing (:meth:`lookup_positions`, and :meth:`lookup_range` built on
    it) binary-searches the in-memory sample (charged as comparisons)
    and then scans only the candidate strides of the base BAT, charging
    page reads for exactly those pages.
    """

    def __init__(self, base: BAT, stride: int | None = None) -> None:
        if not base.tail_sorted or base.tail_sorted_desc:
            raise IndexError_("SparseIndex requires an ascending tail-sorted BAT")
        self.base = base
        self.stride = int(stride) if stride else get_buffer_manager().page_tuples
        if self.stride <= 0:
            raise IndexError_(f"stride must be positive, got {self.stride}")
        # one sample per stride: the first tail value of the stride
        positions = np.arange(0, len(base), self.stride, dtype=np.int64)
        self._sample_positions = positions
        sample = base.tail[positions] if len(base) else base.tail[:0]
        # an integer sample is kept as int64, whatever the column's width:
        # searchsorted would otherwise convert a narrow sample to int64
        # for every probe made with a Python int
        self._sample_values = sample.astype(np.int64) if sample.dtype.kind == "i" else sample
        # building reads the sampled pages only (sparse build touches one
        # value per page, i.e. one page per stride)
        stats.charge_tuples_read(len(positions))
        if base.persistent:
            manager = get_buffer_manager()
            manager.request_pages([(base.segment_id, manager.page_of(pos))
                                   for pos in positions.tolist()])

    @property
    def entries(self) -> int:
        """Number of sample entries kept (one per stride)."""
        return len(self._sample_positions)

    def size_ratio(self) -> float:
        """Index size relative to the base BAT (entries / tuples)."""
        if len(self.base) == 0:
            return 0.0
        return self.entries / len(self.base)

    def _candidate_span(self, lo, hi) -> tuple[int, int]:
        """Tuple-position span ``[start, stop)`` that can contain values
        in ``[lo, hi]``, derived from the in-memory sample."""
        n = len(self.base)
        if n == 0:
            return 0, 0
        sample = self._sample_values
        stats.charge_comparisons(2 * max(1, math.ceil(math.log2(max(len(sample), 2)))))
        if lo is None:
            start_stride = 0
        else:
            # the stride *before* the first sample >= lo can still end
            # with values equal to lo (duplicates straddle strides), so
            # start one stride before the first sample that reaches lo
            start_stride = max(int(np.searchsorted(sample, lo, "left")) - 1, 0)
        if hi is None:
            stop_stride = len(sample)
        else:
            stop_stride = int(np.searchsorted(sample, hi, "right"))
        start = start_stride * self.stride
        stop = min(stop_stride * self.stride, n)
        return start, max(stop, start)

    def lookup_positions(self, lo=None, hi=None, include_lo: bool = True,
                         include_hi: bool = True) -> np.ndarray:
        """Range probe: the ascending base positions whose tail lies in
        ``[lo, hi]``, reading only the candidate strides of the base BAT.

        Charges the probe and one tuple write per hit (the positions are
        its materialized result); gathers no column."""
        start, stop = self._candidate_span(lo, hi)
        span = stop - start
        if span <= 0:
            return np.empty(0, dtype=np.int64)
        # read only the candidate span
        if self.base.persistent:
            get_buffer_manager().scan(self.base.segment_id, span, start_tuple=start)
        else:
            stats.charge_tuples_read(span)
        segment = self.base.tail[start:stop]
        stats.charge_comparisons(span * ((lo is not None) + (hi is not None)))
        mask = np.ones(span, dtype=bool)
        if lo is not None:
            mask &= segment >= lo if include_lo else segment > lo
        if hi is not None:
            mask &= segment <= hi if include_hi else segment < hi
        picked = np.flatnonzero(mask) + start
        stats.charge_tuples_written(len(picked))
        return picked

    def lookup_range(self, lo=None, hi=None, include_lo: bool = True,
                     include_hi: bool = True) -> BAT:
        """Range probe: return the base pairs with ``lo <= tail <= hi``,
        reading only the candidate strides of the base BAT."""
        picked = self.lookup_positions(lo, hi, include_lo, include_hi)
        return BAT(self.base.tail[picked], head=self.base.heads_at(picked),
                   tail_sorted=True, head_key=self.base.head_key)

    def lookup_eq(self, value) -> BAT:
        """Equality probe."""
        return self.lookup_range(lo=value, hi=value)


class HashIndex:
    """Dense hash index: distinct tail value → tuple positions.

    Build cost is a full scan; probes charge one random page access per
    distinct page containing a matching tuple.
    """

    def __init__(self, base: BAT) -> None:
        self.base = base
        from .kernel import scan_cost

        scan_cost(base)
        order = np.argsort(base.tail, kind="stable")
        sorted_tail = base.tail[order]
        self._order = order
        self._sorted_tail = sorted_tail
        stats.charge_comparisons(len(base) * max(1, math.ceil(math.log2(max(len(base), 2)))))

    @property
    def entries(self) -> int:
        """Number of indexed tuples."""
        return len(self.base)

    def lookup_eq(self, value) -> BAT:
        """Return the base pairs whose tail equals ``value``."""
        lo = int(np.searchsorted(self._sorted_tail, value, "left"))
        hi = int(np.searchsorted(self._sorted_tail, value, "right"))
        stats.charge_comparisons(2 * max(1, math.ceil(math.log2(max(len(self.base), 2)))))
        positions = np.sort(self._order[lo:hi])
        if self.base.persistent and len(positions):
            manager = get_buffer_manager()
            manager.request_pages([(self.base.segment_id, page_no) for page_no
                                   in np.unique(positions // manager.page_tuples).tolist()])
        stats.charge_tuples_read(len(positions))
        stats.charge_tuples_written(len(positions))
        return BAT(
            self.base.tail[positions],
            head=self.base.heads_at(positions),
            head_key=self.base.head_key,
        )
