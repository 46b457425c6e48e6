"""The BAT algebra: physical operators over binary association tables.

These free functions are the reproduction's stand-in for the MonetDB
kernel that Moa flattens its object-algebra expressions onto.  Each
operator

* is *value-semantics*: inputs are never mutated, a fresh :class:`BAT`
  is returned;
* declares the properties (sortedness, keys) it can guarantee on its
  result;
* charges the simulated cost model (:mod:`repro.storage.stats`): page
  reads through the buffer manager for persistent inputs, tuple touches
  for all inputs, comparisons for predicates/sorts, and tuple writes
  for materialized outputs.

Cost-model conventions
----------------------
* Scanning a persistent BAT requests its page range from the buffer
  manager; scanning a transient intermediate charges only tuple reads.
* A range-select on a *tail-sorted* persistent BAT performs binary
  search (``2 * ceil(log2 n)`` comparisons, a handful of random page
  probes) and then scans only the qualifying page range — this is what
  makes sorted fragments and the non-dense index pay off in the paper's
  Step 1 experiments.
* Sorts charge ``n * ceil(log2 n)`` comparisons (analytic estimate).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BATShapeError, BATTypeError
from . import stats
from .bat import BAT
from .buffer import get_buffer_manager
from ..obs import tracer as _trace

__all__ = [
    "scan_cost",
    "select_range",
    "select_eq",
    "select_mask",
    "fetch_values",
    "sort_tail",
    "top_positions",
    "topn_tail",
    "slice_pairs",
    "sum_tail",
    "max_tail",
    "min_tail",
    "unique_tail",
    "append",
]


# ---------------------------------------------------------------------------
# cost helpers
# ---------------------------------------------------------------------------


def scan_cost(bat: BAT, n_tuples: int | None = None, start: int = 0) -> None:
    """Charge the cost of sequentially reading ``n_tuples`` tuples of
    ``bat`` (all of them by default)."""
    n = len(bat) if n_tuples is None else n_tuples
    if n <= 0:
        return
    if bat.persistent:
        get_buffer_manager().scan(bat.segment_id, n, start_tuple=start)
    else:
        stats.charge_tuples_read(n)


def _random_probe_cost(bat: BAT, positions: np.ndarray) -> None:
    """Charge the cost of positional access to the given tuple
    positions: unique pages for persistent BATs, tuple touches always."""
    n = len(positions)
    if n == 0:
        return
    if bat.persistent:
        manager = get_buffer_manager()
        pages = np.unique(positions // manager.page_tuples)
        manager.request_pages([(bat.segment_id, page_no) for page_no in pages.tolist()])
        stats.charge_tuples_read(n)
    else:
        stats.charge_tuples_read(n)


def _emit(n: int) -> None:
    """Charge materialization of an ``n``-tuple result."""
    stats.charge_tuples_written(max(n, 0))


def _log2_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


# ---------------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------------


def _binary_search_cost(bat: BAT) -> None:
    """Charge the probe cost of a binary search on a sorted tail."""
    n = len(bat)
    steps = _log2_ceil(n)
    stats.charge_comparisons(2 * steps)
    if bat.persistent:
        manager = get_buffer_manager()
        total_pages = manager.pages_for(n)
        probes = min(steps, total_pages)
        # probe a spread of pages, as a real binary search would
        manager.request_pages([(bat.segment_id, (total_pages - 1) * (k + 1) // (probes + 1))
                               for k in range(probes)])


def select_range(
    bat: BAT,
    lo=None,
    hi=None,
    include_lo: bool = True,
    include_hi: bool = True,
) -> BAT:
    """Range selection on the tail: keep pairs with ``lo <= tail <= hi``.

    ``None`` bounds are open.  On a tail-sorted BAT this uses binary
    search and touches only the qualifying range; otherwise it scans.
    This is the ``select`` of the paper's Example 1 (there written as
    ``select([1,2,3,4,4,5], 2, 4)``).
    """
    tail = bat.tail
    n = len(tail)
    sorted_asc = bat.tail_sorted and not bat.tail_sorted_desc

    if n == 0:
        return bat.clone_with(
            tail_sorted=bat.tail_sorted,
            tail_sorted_desc=bat.tail_sorted_desc,
            tail_key=bat.tail_key,
        )

    if sorted_asc:
        _binary_search_cost(bat)
        left = 0 if lo is None else int(
            np.searchsorted(tail, lo, "left" if include_lo else "right"))
        right = n if hi is None else int(
            np.searchsorted(tail, hi, "right" if include_hi else "left"))
        right = max(right, left)
        scan_cost(bat, right - left, start=left)
        _emit(right - left)
        return BAT(
            tail[left:right],
            head=bat.heads_at(slice(left, right)),
            head_key=bat.head_key,
            tail_sorted=True,
            tail_key=bat.tail_key,
        )

    # unsorted (or descending): full scan
    scan_cost(bat)
    comparisons = n * ((lo is not None) + (hi is not None))
    stats.charge_comparisons(comparisons)
    mask = np.ones(n, dtype=bool)
    if lo is not None:
        mask &= tail >= lo if include_lo else tail > lo
    if hi is not None:
        mask &= tail <= hi if include_hi else tail < hi
    return select_mask(bat, mask, _precharged=True)


def select_eq(bat: BAT, value) -> BAT:
    """Equality selection on the tail (``tail == value``)."""
    return select_range(bat, lo=value, hi=value)


def select_mask(bat: BAT, mask: np.ndarray, _precharged: bool = False) -> BAT:
    """Keep the pairs where ``mask`` is True.

    The mask must align positionally with the BAT.  Charges a scan
    unless the caller already did (``_precharged``)."""
    if len(mask) != len(bat):
        raise BATShapeError(f"mask length {len(mask)} != BAT length {len(bat)}")
    if not _precharged:
        scan_cost(bat)
        stats.charge_comparisons(len(bat))
    out_tail = bat.tail[mask]
    _emit(len(out_tail))
    return BAT(
        out_tail,
        head=bat.heads_at(mask),
        head_key=bat.head_key,
        tail_sorted=bat.tail_sorted,
        tail_sorted_desc=bat.tail_sorted_desc,
        tail_key=bat.tail_key,
    )


# ---------------------------------------------------------------------------
# random access
# ---------------------------------------------------------------------------


def fetch_values(bat: BAT, oids: np.ndarray) -> np.ndarray:
    """Random access: return ``bat``'s tail values at the given head
    oids (dense head required), charging random probe costs.  Returns a
    bare array — the caller decides how to wrap it."""
    positions = bat.head_positions(np.asarray(oids, dtype=np.int64))
    if len(positions) and (positions.min() < 0 or positions.max() >= len(bat)):
        raise BATShapeError("fetch_values: oids fall outside head range")
    _random_probe_cost(bat, positions)
    return bat.tail[positions]


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------


def sort_tail(bat: BAT, descending: bool = False) -> BAT:
    """Full sort on the tail column (stable).  Charges an
    ``n log n`` comparison estimate plus a scan and a materialization."""
    n = len(bat)
    with _trace.span("kernel.sort_tail", n=n, descending=descending):
        scan_cost(bat)
        stats.charge_comparisons(n * _log2_ceil(n) if n else 0)
        # canonical order: tail (asc or desc), ties broken by head oid
        # ascending — the deterministic tie-break every top-N result
        # shares (see repro.topn.result), so classic sort+slice plans
        # agree with topn_tail on tied boundaries
        if bat.tail_dtype_kind == "U":
            # non-numeric tails cannot be negated: keep the stable sort
            order = np.argsort(bat.tail, kind="stable")
            if descending:
                order = order[::-1]
        else:
            order = bat.sort_positions(-bat.tail if descending else bat.tail)
        _emit(n)
        return BAT(
            bat.tail[order],
            head=bat.heads_at(order),
            head_key=bat.head_key,
            tail_sorted=not descending,
            tail_sorted_desc=descending,
            tail_key=bat.tail_key,
        )


def top_positions(values: np.ndarray, ids: np.ndarray | None, n: int) -> np.ndarray:
    """Positions of the ``n`` largest ``values``, best first, ties
    broken by the smaller id (``ids=None``: ids ascend with position,
    as a dense head's do).

    The one top-N cut every engine ends in: partition at the ``n``-th
    largest value, keep that value's whole tied group, so boundary ties
    go by id and not by partition order, then order the kept positions
    as ``np.lexsort((ids, -values))`` does.  It charges nothing; a
    charged cut is :func:`topn_tail`.
    """
    size = len(values)
    if n <= 0:
        return np.empty(0, dtype=np.intp)
    if n < size:
        kth = np.partition(values, size - n)[size - n]
        kept = np.flatnonzero(values >= kth)
    else:
        kept = np.arange(size)
    keys = (-values[kept],) if ids is None else (ids[kept], -values[kept])
    return kept[np.lexsort(keys)[:n]]


def topn_tail(bat: BAT, n: int, descending: bool = True) -> BAT:
    """Return the ``n`` pairs with the largest (default) or smallest
    tails, sorted; ties broken by head oid for determinism.

    This is the *special top-N operator* the paper proposes at the
    physical level ("special top N operators, which can be seen as
    special select operators"): the :func:`top_positions` cut, charged.
    Partial selection costs ``n_input + N log N`` comparisons instead
    of a full sort's ``n_input log n_input``.
    """
    size = len(bat)
    n = max(int(n), 0)
    with _trace.span("kernel.topn_tail", n=n, size=size, descending=descending):
        scan_cost(bat)
        if n >= size:
            stats.charge_comparisons(size * _log2_ceil(size) if size else 0)
        elif n:
            stats.charge_comparisons(size + n * _log2_ceil(n))
        values = bat.tail
        if bat.tail_dtype_kind == "U":  # strings are cut by their sort rank
            values = np.unique(values, return_inverse=True)[1]
        order = top_positions(values if descending else -values,
                              None if bat.is_dense_head else bat.head_array(), n)
        _emit(len(order))
        return BAT(
            bat.tail[order],
            head=bat.heads_at(order),
            head_key=bat.head_key,
            tail_sorted=not descending,
            tail_sorted_desc=descending,
            tail_key=bat.tail_key,
        )


def slice_pairs(bat: BAT, offset: int, count: int) -> BAT:
    """Positional slice: pairs ``offset .. offset+count-1``.

    Together with :func:`sort_tail` this forms the *naive* top-N plan
    (sort everything, keep the first N)."""
    offset = max(int(offset), 0)
    count = max(int(count), 0)
    stop = min(offset + count, len(bat))
    taken = max(stop - offset, 0)
    scan_cost(bat, taken, start=offset)
    _emit(taken)
    return BAT(
        bat.tail[offset:stop],
        head=bat.heads_at(slice(offset, stop)),
        head_key=bat.head_key,
        tail_sorted=bat.tail_sorted,
        tail_sorted_desc=bat.tail_sorted_desc,
        tail_key=bat.tail_key,
    )


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------


def _numeric_tail(bat: BAT, op: str) -> np.ndarray:
    if bat.tail_dtype_kind == "U":
        raise BATTypeError(f"{op} requires a numeric tail")
    return bat.tail


def sum_tail(bat: BAT) -> float:
    """Sum of the tail column."""
    scan_cost(bat)
    return float(_numeric_tail(bat, "sum_tail").sum()) if len(bat) else 0.0


def max_tail(bat: BAT):
    """Maximum tail value (None on empty input)."""
    scan_cost(bat)
    if len(bat) == 0:
        return None
    return _numeric_tail(bat, "max_tail").max().item()


def min_tail(bat: BAT):
    """Minimum tail value (None on empty input)."""
    scan_cost(bat)
    if len(bat) == 0:
        return None
    return _numeric_tail(bat, "min_tail").min().item()


def unique_tail(bat: BAT) -> BAT:
    """Distinct tail values, sorted ascending, with fresh dense heads.

    This is the flattened form of the paper's ``projecttoset``-style
    duplicate elimination."""
    scan_cost(bat)
    stats.charge_comparisons(len(bat) * _log2_ceil(len(bat)) if len(bat) else 0)
    distinct = np.unique(bat.tail)
    _emit(len(distinct))
    return BAT(distinct, tail_sorted=True, tail_key=True)


# ---------------------------------------------------------------------------
# construction / arithmetic
# ---------------------------------------------------------------------------


def append(first: BAT, second: BAT) -> BAT:
    """Concatenate two BATs (heads materialize; properties dropped)."""
    if first.tail.dtype.kind != second.tail.dtype.kind:
        raise BATTypeError(
            f"append: incompatible tails {first.tail.dtype} vs {second.tail.dtype}"
        )
    scan_cost(first)
    scan_cost(second)
    _emit(len(first) + len(second))
    return BAT(
        np.concatenate([first.tail, second.tail]),
        head=np.concatenate([first.head_array(), second.head_array()]),
    )
